//! A GPT/OPT-style decoder-only transformer (§2.1) executing over the paged
//! KV cache.
//!
//! One forward pass ([`Transformer::forward`]) covers every execution shape
//! of §4.3: full prefill (all positions new), prefix-extended or chunked
//! prefill (new positions attend to cached blocks), and single-token decode
//! — stacked in any mix, all through the one PagedAttention kernel. The
//! same pass runs over N head shards for tensor-parallel execution (§4.6,
//! [`crate::executor`]); one worker is the case of one shard.

use crate::attention::SeqRows;
use crate::backend::{self, KernelBackend};
use crate::config::{ModelConfig, PositionEncoding};
use crate::gemm::Panels;
use crate::kv_cache::KvPool;
use crate::ops::timing::{self, OpClock};
use crate::ops::{add_bias, add_inplace, gelu, layer_norm};
use crate::pool;
use std::sync::Mutex;

const LN_EPS: f32 = 1e-5;
/// Base of the rotary frequency spectrum (the standard 10_000).
const ROPE_BASE: f32 = 10_000.0;

/// Applies rotary position embedding to each head chunk of `v` in place.
pub(crate) fn apply_rope(v: &mut [f32], position: usize, head_dim: usize) {
    debug_assert!(head_dim.is_multiple_of(2));
    let half = head_dim / 2;
    for head in v.chunks_exact_mut(head_dim) {
        for i in 0..half {
            let theta = (position as f32) / ROPE_BASE.powf(2.0 * i as f32 / head_dim as f32);
            let (sin, cos) = theta.sin_cos();
            let (a, b) = (head[i], head[i + half]);
            head[i] = a * cos - b * sin;
            head[i + half] = a * sin + b * cos;
        }
    }
}

/// The replicated weights of one decoder layer: what every tensor-parallel
/// worker holds whole. Its projections are in [`Transformer::shard`].
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Pre-attention layer-norm gain.
    pub ln1_g: Vec<f32>,
    /// Pre-attention layer-norm bias.
    pub ln1_b: Vec<f32>,
    /// Output projection bias, added once to the summed shard outputs.
    pub b_o: Vec<f32>,
    /// Pre-MLP layer-norm gain.
    pub ln2_g: Vec<f32>,
    /// Pre-MLP layer-norm bias.
    pub ln2_b: Vec<f32>,
    /// MLP down bias, added once to the summed shard outputs.
    pub b_proj: Vec<f32>,
}

/// One worker's part of a decoder layer (§4.6): the columns of the QKV
/// projection and the rows of the output projection for its `w` hidden
/// units' worth of heads, and a `4w` slice of the MLP. A lone worker's
/// shard is the whole layer (`w = hidden`). The projections are stored only
/// packed, in the GEMM's stripe-major panels.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerShard {
    /// Fused QKV projection, `hidden × 3w` (columns: Q, K, V).
    pub w_qkv: Panels,
    /// QKV bias, `3w`.
    pub b_qkv: Vec<f32>,
    /// Attention output projection, `w × hidden`.
    pub w_o: Panels,
    /// MLP up projection, `hidden × 4w`.
    pub w_fc: Panels,
    /// MLP up bias, `4w`.
    pub b_fc: Vec<f32>,
    /// MLP down projection, `4w × hidden`.
    pub w_proj: Panels,
}

/// A decoder-only transformer with tied input/output embeddings and learned
/// positional embeddings (OPT-style).
#[derive(Debug, Clone)]
pub struct Transformer {
    /// Hyper-parameters.
    pub config: ModelConfig,
    /// Token embedding, `vocab × hidden` (tied with the LM head).
    pub wte: Vec<f32>,
    /// The LM head, `hidden × vocab`: [`Self::wte`] transposed, packed.
    /// Derived; not serialized by checkpoints.
    pub lm_head: Panels,
    /// Positional embedding, `max_position × hidden`.
    pub wpe: Vec<f32>,
    /// Decoder layers' replicated weights.
    pub layers: Vec<LayerWeights>,
    /// Decoder layers' projections over all heads: the model as one
    /// worker's shard. An executor takes them for its workers
    /// ([`crate::CpuModelExecutor::sharded`]).
    pub shard: Vec<LayerShard>,
    /// Final layer-norm gain.
    pub ln_f_g: Vec<f32>,
    /// Final layer-norm bias.
    pub ln_f_b: Vec<f32>,
}

/// One worker of a forward pass: its shard of every layer, and the KV pool
/// that holds its heads' K/V under the shared block tables.
pub(crate) struct Shard<'a> {
    pub(crate) layers: &'a [LayerShard],
    pub(crate) kv: &'a mut KvPool,
}

/// One shard's activations, allocated once per forward for its `n` rows
/// and width `w`; the last layer's pruning shrinks them to the inputs'
/// last rows.
struct Buffers {
    q: Vec<f32>,
    attn: Vec<f32>,
    /// `n × 4w`: the QKV projection (`n × 3w` of it), then the MLP's
    /// intermediate. The two are never live together: K/V are written and
    /// Q copied out before the MLP runs.
    mid: Vec<f32>,
    /// `n × hidden`: the shard's share of the attention or MLP output.
    out: Vec<f32>,
}

impl Buffers {
    fn new(n: usize, w: usize, h: usize) -> Self {
        Self {
            q: vec![0.0; n * w],
            attn: vec![0.0; n * w],
            mid: vec![0.0; n * 4 * w],
            out: vec![0.0; n * h],
        }
    }
}

/// Runs `phase` once per shard: inline on the caller for one shard, else
/// one pool task per shard, each charging an op clock of its own that
/// reports to the caller's `clock` when the task ends.
fn each_shard<F>(shards: &mut [Shard<'_>], bufs: &mut [Buffers], clock: &mut OpClock, phase: F)
where
    F: Fn(&mut Shard<'_>, &mut Buffers, &mut OpClock) + Sync,
{
    if let ([shard], [buf]) = (&mut *shards, &mut *bufs) {
        phase(shard, buf, clock);
        return;
    }
    let caller = Mutex::new(clock);
    pool::global().scoped(|s| {
        for (shard, buf) in shards.iter_mut().zip(bufs.iter_mut()) {
            let (phase, caller) = (&phase, &caller);
            s.spawn(move || {
                let mut own = OpClock::start();
                phase(shard, buf, &mut own);
                caller.lock().expect("a shard task panicked").absorb(own);
            });
        }
    });
    caller.into_inner().expect("a shard task panicked").skip();
}

/// The all-reduce (§4.6): sums the shards' outputs into the first — a lone
/// shard's output is its own sum — adds the replicated `bias` once, and
/// adds the result onto the residual stream `x`.
fn all_reduce(bufs: &mut [Buffers], bias: &[f32], x: &mut [f32]) {
    let (sum, rest) = bufs.split_first_mut().expect("at least one shard");
    for buf in rest {
        add_inplace(&mut sum.out, &buf.out);
    }
    add_bias(&mut sum.out, bias);
    add_inplace(x, &sum.out);
}

/// SplitMix64 stream used for deterministic weight initialization.
struct InitRng(u64);

impl InitRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f32 {
        // 24 mantissa bits → [0, 1).
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Approximately normal(0, std) via a 4-sample Irwin–Hall sum.
    fn normal(&mut self, std: f32) -> f32 {
        let s: f32 = (0..4).map(|_| self.uniform()).sum::<f32>() - 2.0;
        // Var of the sum is 4/12 = 1/3; rescale to unit variance.
        s * 1.732_050_8 * std
    }

    fn normal_vec(&mut self, len: usize, std: f32) -> Vec<f32> {
        (0..len).map(|_| self.normal(std)).collect()
    }

    /// A `k × n` weight matrix of the values [`Self::normal_vec`] would
    /// draw, in the same order, packed as they are drawn.
    fn normal_panels(&mut self, k: usize, n: usize, std: f32) -> Panels {
        Panels::from_fn(k, n, |_, _| self.normal(std))
    }
}

/// The LM head of a tied `vocab × hidden` embedding: its transpose, packed.
pub(crate) fn lm_head(wte: &[f32], vocab: usize, hidden: usize) -> Panels {
    Panels::from_fn(hidden, vocab, |p, token| wte[token * hidden + p])
}

impl Transformer {
    /// The kernel backend serving this model, resolved from
    /// [`ModelConfig::backend`].
    #[must_use]
    pub fn backend(&self) -> KernelBackend {
        backend::by_kind(self.config.backend)
    }

    /// Builds a model with deterministic pseudo-random weights.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (see [`ModelConfig::validate`]).
    #[must_use]
    pub fn new(config: ModelConfig) -> Self {
        config.validate();
        let h = config.hidden;
        let mut rng = InitRng(config.seed);
        let std = 0.08;
        let (layers, shard) = (0..config.n_layers)
            .map(|_| {
                let w_qkv = rng.normal_panels(h, 3 * h, std);
                let b_qkv = rng.normal_vec(3 * h, std / 4.0);
                let w_o = rng.normal_panels(h, h, std);
                let b_o = rng.normal_vec(h, std / 4.0);
                let w_fc = rng.normal_panels(h, 4 * h, std);
                let b_fc = rng.normal_vec(4 * h, std / 4.0);
                let w_proj = rng.normal_panels(4 * h, h, std);
                let b_proj = rng.normal_vec(h, std / 4.0);
                let layer = LayerWeights {
                    ln1_g: vec![1.0; h],
                    ln1_b: vec![0.0; h],
                    b_o,
                    ln2_g: vec![1.0; h],
                    ln2_b: vec![0.0; h],
                    b_proj,
                };
                let shard = LayerShard {
                    w_qkv,
                    b_qkv,
                    w_o,
                    w_fc,
                    b_fc,
                    w_proj,
                };
                (layer, shard)
            })
            .unzip();
        let wte = rng.normal_vec(config.vocab_size * h, 0.5);
        Self {
            lm_head: lm_head(&wte, config.vocab_size, h),
            wte,
            wpe: rng.normal_vec(config.max_position * h, 0.1),
            layers,
            shard,
            ln_f_g: vec![1.0; h],
            ln_f_b: vec![0.0; h],
            config,
        }
    }

    /// One stacked forward over any mix of sequences (§4.3): `inputs[i]`
    /// contributes `tokens.len()` rows at consecutive positions — a whole
    /// prompt, the uncached suffix of a prefix-sharing prompt, one
    /// scheduler-budgeted chunk, or a single generation token. Every row's
    /// K/V is written into the paged `kv` through its sequence's block
    /// table, then all rows go through the one PagedAttention kernel; each
    /// projection is one `[rows × hidden]` matmul per layer.
    ///
    /// Returns `inputs.len() × vocab` logits, row `i` taken at the last
    /// position of `inputs[i]`. Each is bit-identical to running that
    /// sequence alone, however its rows were split into earlier calls: the
    /// matmul kernels accumulate per output element in a batch-independent
    /// order, an attention row depends only on its query and the KV at or
    /// before its position, and KV writes land in sequence-exclusive
    /// (copy-on-write-resolved) blocks.
    ///
    /// # Panics
    ///
    /// Panics on shape violations (no inputs, an empty sequence, positions
    /// beyond `max_position`, a block table too short for its context).
    pub fn forward(&self, inputs: &[SeqInput<'_>], kv: &mut KvPool) -> Vec<f32> {
        timing::alone(|clock| self.forward_on(self.backend(), inputs, kv, clock))
    }

    /// [`Self::forward`] on `be`'s kernels, which need not be this model's
    /// backend (the tests run the portable instance through here), charging
    /// its time to `clock`.
    fn forward_on(
        &self,
        be: KernelBackend,
        inputs: &[SeqInput<'_>],
        kv: &mut KvPool,
        clock: &mut OpClock,
    ) -> Vec<f32> {
        let shard = Shard {
            layers: &self.shard,
            kv,
        };
        self.forward_shards(be, inputs, &mut [shard], clock)
    }

    /// [`Self::forward`] over `shards`, the model split on the head
    /// dimension (§4.6): each shard runs its heads' attention and its slice
    /// of the MLP over every row, writing its heads' K/V into its own pool
    /// under the shared block tables; the replicated rest — embedding,
    /// layer norms, residual, the output biases, pruning, the final norm and
    /// the LM head — runs once. The shards' outputs are summed after the
    /// output projection and after the MLP down projection. One shard that
    /// is the whole model runs inline and sums nothing: that is
    /// [`Self::forward`], op for op. Time between kernel calls is charged to
    /// `clock`'s op classes, from its last mark; the kernels mark it too.
    ///
    /// # Panics
    ///
    /// As [`Self::forward`], or if the shards' widths do not add up to the
    /// model's.
    pub(crate) fn forward_shards(
        &self,
        be: KernelBackend,
        inputs: &[SeqInput<'_>],
        shards: &mut [Shard<'_>],
        clock: &mut OpClock,
    ) -> Vec<f32> {
        assert!(!inputs.is_empty(), "empty batch");
        let h = self.config.hidden;
        let w = h / shards.len();
        let even = |s: &Shard<'_>| s.kv.hidden() * shards.len() == h;
        assert!(shards.iter().all(even), "uneven shards");
        let heads = self.config.n_heads / shards.len();
        let hd = self.config.head_dim();
        let bs = shards[0].kv.block_size();
        for inp in inputs {
            assert!(!inp.tokens.is_empty(), "empty input");
            let ctx = inp.first_position + inp.tokens.len();
            assert!(ctx <= self.config.max_position, "position overflow");
            assert!(inp.block_table.len() * bs >= ctx, "block table too short");
        }

        // One (token, position, block table) per row, sequence after
        // sequence.
        let rows: Vec<(u32, usize, &[usize])> = inputs
            .iter()
            .flat_map(|inp| {
                let positions = inp.first_position..;
                let row = |(&tok, pos)| (tok, pos, inp.block_table);
                inp.tokens.iter().zip(positions).map(row)
            })
            .collect();
        let mut n = rows.len();
        let mut seqs: Vec<SeqRows<'_>> = inputs.iter().map(SeqInput::rows).collect();

        // Embedding + positions (learned embeddings only; rotary models
        // inject positions inside attention).
        let rotary = self.config.position_encoding == PositionEncoding::Rotary;
        let mut x = vec![0.0f32; n * h];
        for (i, &(tok, pos, _)) in rows.iter().enumerate() {
            let e = &self.wte[tok as usize * h..(tok as usize + 1) * h];
            let p = &self.wpe[pos * h..(pos + 1) * h];
            for j in 0..h {
                x[i * h + j] = if rotary { e[j] } else { e[j] + p[j] };
            }
        }

        let mut bufs: Vec<Buffers> = shards.iter().map(|_| Buffers::new(n, w, h)).collect();
        for (layer_idx, lw) in self.layers.iter().enumerate() {
            // Attention block.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
            // Past the last layer's K/V writes only each input's last row
            // is read again (by the LM head): the rest of the layer — every
            // op of it row-wise — runs on those rows alone. A decode step
            // is one row per input already.
            let prune = layer_idx + 1 == self.layers.len() && n > inputs.len();
            if prune {
                x = last_rows(&x, inputs, h);
                seqs = inputs.iter().map(SeqInput::last_row).collect();
                n = inputs.len();
            }
            clock.elementwise();
            let (hst, rows, seqs) = (&hst, &rows, &seqs);
            each_shard(shards, &mut bufs, clock, |shard, buf, clock| {
                let layer = &shard.layers[layer_idx];
                let qkv = &mut buf.mid[..rows.len() * 3 * w];
                be.matmul_clocked(hst, &layer.w_qkv, qkv, clock);
                add_bias(qkv, &layer.b_qkv);
                // Fused reshape-and-block-write (§5.1): store every row's
                // K/V as it is produced (keys post-rotation for rotary
                // models), then one PagedAttention call over all rows.
                for (i, &(_, pos, block_table)) in rows.iter().enumerate() {
                    let row = &mut qkv[i * 3 * w..(i + 1) * 3 * w];
                    if rotary {
                        let (q_part, kv_part) = row.split_at_mut(w);
                        apply_rope(q_part, pos, hd);
                        apply_rope(&mut kv_part[..w], pos, hd);
                    }
                    shard.kv.write(
                        layer_idx,
                        block_table[pos / bs],
                        pos % bs,
                        &row[w..2 * w],
                        &row[2 * w..3 * w],
                    );
                    buf.q[i * w..(i + 1) * w].copy_from_slice(&row[..w]);
                }
                if prune {
                    buf.q = last_rows(&buf.q, inputs, w);
                    buf.attn.truncate(n * w);
                    buf.mid.truncate(n * 4 * w);
                    buf.out.truncate(n * h);
                }
                clock.elementwise();
                be.paged_attention_clocked(
                    &buf.q,
                    shard.kv,
                    layer_idx,
                    seqs,
                    heads,
                    hd,
                    pool::global(),
                    &mut buf.attn,
                    clock,
                );
                be.matmul_clocked(&buf.attn, &layer.w_o, &mut buf.out, clock);
            });
            all_reduce(&mut bufs, &lw.b_o, &mut x);

            // MLP block.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
            clock.elementwise();
            let hst = &hst;
            each_shard(shards, &mut bufs, clock, |shard, buf, clock| {
                let layer = &shard.layers[layer_idx];
                be.matmul_clocked(hst, &layer.w_fc, &mut buf.mid, clock);
                add_bias(&mut buf.mid, &layer.b_fc);
                clock.elementwise();
                gelu(be.isa(), &mut buf.mid);
                clock.activation();
                be.matmul_clocked(&buf.mid, &layer.w_proj, &mut buf.out, clock);
            });
            all_reduce(&mut bufs, &lw.b_proj, &mut x);
        }

        // Final norm + tied-embedding LM head on each sequence's last row
        // (the last layer left only those).
        layer_norm(&mut x, &self.ln_f_g, &self.ln_f_b, LN_EPS);
        let vocab = self.config.vocab_size;
        let mut logits = vec![0.0f32; inputs.len() * vocab];
        clock.elementwise();
        be.matmul_logits_clocked(&x, &self.lm_head, &mut logits, clock);
        logits
    }

    /// [`Self::forward`] for one sequence: runs `tokens` at the consecutive
    /// absolute `positions` and returns the logits at the last position
    /// (`vocab`-sized). Positions before `positions[0]` must already have
    /// their K/V in the pool (earlier chunks, a shared prefix, or previous
    /// decode steps).
    ///
    /// # Panics
    ///
    /// Panics on shape violations, as [`Self::forward`], or if `positions`
    /// are not consecutive.
    pub fn forward_paged(
        &self,
        tokens: &[u32],
        positions: &[usize],
        pool: &mut KvPool,
        block_table: &[usize],
    ) -> Vec<f32> {
        assert_eq!(positions.len(), tokens.len());
        assert!(!tokens.is_empty(), "empty input");
        assert!(
            positions
                .iter()
                .copied()
                .eq(positions[0]..positions[0] + tokens.len()),
            "positions must be consecutive"
        );
        let input = SeqInput {
            tokens,
            first_position: positions[0],
            block_table,
        };
        self.forward(&[input], pool)
    }
}

/// The last row of every sequence out of the stacked activations `x`
/// (`rows × h`, sequence after sequence), as `inputs.len() × h`.
pub(crate) fn last_rows(x: &[f32], inputs: &[SeqInput<'_>], h: usize) -> Vec<f32> {
    let mut last = Vec::with_capacity(inputs.len() * h);
    let mut end = 0;
    for inp in inputs {
        end += inp.tokens.len();
        last.extend_from_slice(&x[(end - 1) * h..end * h]);
    }
    last
}

/// One sequence's share of a [`Transformer::forward`] call.
#[derive(Debug, Clone, Copy)]
pub struct SeqInput<'a> {
    /// The new tokens to run.
    pub tokens: &'a [u32],
    /// Absolute position of `tokens[0]`; every earlier position's K/V is
    /// already in the pool.
    pub first_position: usize,
    /// Physical block indices covering positions
    /// `0 .. first_position + tokens.len()`.
    pub block_table: &'a [usize],
}

impl<'a> SeqInput<'a> {
    /// The attention kernel's view of this input: one query row per token.
    pub(crate) fn rows(&self) -> SeqRows<'a> {
        SeqRows {
            block_table: self.block_table,
            first_position: self.first_position,
            n_rows: self.tokens.len(),
        }
    }

    /// The last of [`Self::rows`] alone: the one row the LM head reads.
    pub(crate) fn last_row(&self) -> SeqRows<'a> {
        SeqRows::decode(self.block_table, self.first_position + self.tokens.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(ctx_blocks: usize) -> (Transformer, KvPool, Vec<usize>) {
        let cfg = ModelConfig::tiny();
        let model = Transformer::new(cfg.clone());
        let bs = 4;
        let pool = KvPool::new(cfg.n_layers, ctx_blocks + 4, bs, cfg.hidden);
        // Scrambled block table.
        let table: Vec<usize> = (0..ctx_blocks).map(|j| ctx_blocks + 3 - j).collect();
        (model, pool, table)
    }

    #[test]
    fn weights_deterministic() {
        let a = Transformer::new(ModelConfig::tiny());
        let b = Transformer::new(ModelConfig::tiny());
        assert_eq!(a.wte, b.wte);
        assert_eq!(a.shard[0].w_qkv, b.shard[0].w_qkv);
        let mut cfg = ModelConfig::tiny();
        cfg.seed = 999;
        let c = Transformer::new(cfg);
        assert_ne!(a.wte, c.wte);
    }

    #[test]
    fn logits_finite_and_distinct() {
        let (model, mut pool, table) = setup(2);
        let tokens = [1u32, 5, 9];
        let logits = model.forward_paged(&tokens, &[0, 1, 2], &mut pool, &table);
        assert_eq!(logits.len(), model.config.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = logits.iter().copied().fold(f32::INFINITY, f32::min);
        assert!(max > min, "logits must not be constant");
    }

    #[test]
    fn prefill_then_decode_matches_full_prefill() {
        // KV correctness: decode steps using PagedAttention must produce the
        // same logits as running the whole sequence as one prefill.
        let tokens: Vec<u32> = vec![3, 17, 42, 8, 25, 99, 4];
        let (model, mut pool_a, table) = setup(2);
        let n = tokens.len();

        // Path A: full prefill.
        let positions: Vec<usize> = (0..n).collect();
        let logits_full = model.forward_paged(&tokens, &positions, &mut pool_a, &table);

        // Path B: prefill the first 4, then decode 3 tokens one by one.
        let (_, mut pool_b, _) = setup(2);
        model.forward_paged(&tokens[..4], &[0, 1, 2, 3], &mut pool_b, &table);
        let mut logits_inc = Vec::new();
        for p in 4..n {
            logits_inc = model.forward_paged(&tokens[p..=p], &[p], &mut pool_b, &table);
        }
        for (i, (a, b)) in logits_full.iter().zip(&logits_inc).enumerate() {
            assert!((a - b).abs() < 2e-3, "logit {i}: {a} vs {b}");
        }
    }

    #[test]
    fn prefix_cached_prefill_matches_full_prefill() {
        // Shared-prefix path: computing only the suffix over cached prefix
        // blocks must equal the full prefill.
        let tokens: Vec<u32> = vec![3, 17, 42, 8, 25, 99, 4, 56];
        let n = tokens.len();
        let cached = 4;
        let (model, mut pool_a, table) = setup(2);
        let positions: Vec<usize> = (0..n).collect();
        let logits_full = model.forward_paged(&tokens, &positions, &mut pool_a, &table);

        let (_, mut pool_b, _) = setup(2);
        // Warm the prefix KV (provider-side prefill).
        model.forward_paged(
            &tokens[..cached],
            &(0..cached).collect::<Vec<_>>(),
            &mut pool_b,
            &table,
        );
        // Request-side prefill over the suffix only.
        let suffix_positions: Vec<usize> = (cached..n).collect();
        let logits_prefix =
            model.forward_paged(&tokens[cached..], &suffix_positions, &mut pool_b, &table);
        for (i, (a, b)) in logits_full.iter().zip(&logits_prefix).enumerate() {
            assert!((a - b).abs() < 2e-3, "logit {i}: {a} vs {b}");
        }
    }

    #[test]
    fn different_positions_produce_different_kv() {
        // The same token at different positions must yield different KV
        // (§2.2: "the KV cache of the same token appearing at different
        // positions will be different").
        let (model, mut pool, table) = setup(2);
        model.forward_paged(&[7, 7], &[0, 1], &mut pool, &table);
        let k0 = pool.key(0, table[0], 0).to_vec();
        let k1 = pool.key(0, table[0], 1).to_vec();
        assert_ne!(k0, k1);
    }

    #[test]
    #[should_panic(expected = "block table too short")]
    fn short_block_table_rejected() {
        let (model, mut pool, _) = setup(2);
        model.forward_paged(&[1, 2, 3, 4, 5], &[0, 1, 2, 3, 4], &mut pool, &[0]);
    }

    /// Logits bits of a prefill and then a stacked decode step of every
    /// golden prompt, on `be`'s kernels.
    fn golden_logits_bits(model: &Transformer, be: KernelBackend) -> Vec<u32> {
        let cfg = &model.config;
        let element = be.kv_layout().element;
        let mut kv = KvPool::with_element(cfg.n_layers, 3 * 2, 16, cfg.hidden, element);
        let prompts: [&[u32]; 3] = [
            &[1, 2, 3, 4, 5],
            &[7, 11, 13],
            &[100, 50, 25, 12, 6, 3, 1, 9],
        ];
        let tables: Vec<Vec<usize>> = (0..prompts.len()).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let mut logits = Vec::new();
        for (tokens, block_table) in prompts.iter().zip(&tables) {
            let prefill = SeqInput {
                tokens,
                first_position: 0,
                block_table,
            };
            logits.extend(model.forward_on(be, &[prefill], &mut kv, &mut OpClock::start()));
        }
        let decode: Vec<SeqInput<'_>> = prompts
            .iter()
            .zip(&tables)
            .map(|(prompt, block_table)| SeqInput {
                tokens: &prompt[..1],
                first_position: prompt.len(),
                block_table,
            })
            .collect();
        logits.extend(model.forward_on(be, &decode, &mut kv, &mut OpClock::start()));
        logits.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn served_logits_are_bit_identical_to_the_portable_instance_on_golden_prompts() {
        // Both served kinds run the best instruction set this CPU has; the
        // portable instance is its reference, over either KV element.
        for backend in backend::BackendKind::all() {
            let model = Transformer::new(ModelConfig {
                vocab_size: 211,
                hidden: 48,
                n_layers: 2,
                n_heads: 4,
                max_position: 96,
                eos_token_id: 0,
                seed: 0x00d5_eed5,
                position_encoding: PositionEncoding::Learned,
                backend,
            });
            let served = model.backend();
            let portable = served.with_isa(crate::isa::Isa::Portable);
            assert_eq!(
                golden_logits_bits(&model, portable),
                golden_logits_bits(&model, served),
                "{}: served logits differ from the portable instance's",
                backend.name()
            );
        }
    }

    #[test]
    fn batched_decode_bit_identical_to_solo_forward() {
        let cfg = ModelConfig::tiny();
        let model = Transformer::new(cfg.clone());
        let bs = 4;
        // Three sequences with different prompts and context lengths,
        // disjoint block tables in one pool.
        let prompts: [&[u32]; 3] = [&[3, 17, 42], &[8, 25, 99, 4, 56], &[7]];
        let mut pool_batch = KvPool::new(cfg.n_layers, 16, bs, cfg.hidden);
        let mut pool_solo = pool_batch.clone();
        let tables: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        for (p, table) in prompts.iter().zip(&tables) {
            let positions: Vec<usize> = (0..p.len()).collect();
            model.forward_paged(p, &positions, &mut pool_batch, table);
            model.forward_paged(p, &positions, &mut pool_solo, table);
        }
        // One decode step per sequence: batched vs per-sequence.
        let next: [u32; 3] = [11, 29, 63];
        let inputs: Vec<SeqInput<'_>> = prompts
            .iter()
            .zip(&tables)
            .zip(next.chunks(1))
            .map(|((p, table), tokens)| SeqInput {
                tokens,
                first_position: p.len(),
                block_table: table,
            })
            .collect();
        let batched = model.forward(&inputs, &mut pool_batch);
        for (i, inp) in inputs.iter().enumerate() {
            let solo = model.forward(&[*inp], &mut pool_solo);
            let v = cfg.vocab_size;
            assert_eq!(
                &batched[i * v..(i + 1) * v],
                &solo[..],
                "seq {i}: batched logits must be bit-identical to solo"
            );
        }
        // And the KV written by the batch step matches the solo writes.
        for (inp, table) in inputs.iter().zip(&tables) {
            let block = table[inp.first_position / bs];
            let slot = inp.first_position % bs;
            for layer in 0..cfg.n_layers {
                assert_eq!(
                    pool_batch.key(layer, block, slot),
                    pool_solo.key(layer, block, slot)
                );
                assert_eq!(
                    pool_batch.value(layer, block, slot),
                    pool_solo.value(layer, block, slot)
                );
            }
        }
    }
}

#[cfg(test)]
mod pruned_last_layer_tests {
    use super::*;

    /// The unpruned reference: every row of `inputs` through
    /// [`Transformer::forward`] in a call of its own. A one-row call has
    /// nothing to prune — each row runs every layer whole — and by the
    /// kernels' contracts (GEMM rows batch-independent, a prefill row ≡ the
    /// decode row at its position) computes what a stacked pass that kept all
    /// its rows would, bit for bit.
    fn forward_unpruned(model: &Transformer, inputs: &[SeqInput<'_>], kv: &mut KvPool) -> Vec<f32> {
        let mut logits = Vec::new();
        for inp in inputs {
            let mut last = Vec::new();
            for i in 0..inp.tokens.len() {
                let row = SeqInput {
                    tokens: &inp.tokens[i..=i],
                    first_position: inp.first_position + i,
                    block_table: inp.block_table,
                };
                last = model.forward(&[row], kv);
            }
            logits.extend(last);
        }
        logits
    }

    /// Runs `inputs` through the pruned forward and through the unpruned
    /// reference on clones of one pool: same logits and same pool, bit for
    /// bit.
    fn assert_pruned_equals_unpruned(model: &Transformer, inputs: &[SeqInput<'_>], kv: &KvPool) {
        let (mut pruned_kv, mut full_kv) = (kv.clone(), kv.clone());
        let pruned = model.forward(inputs, &mut pruned_kv);
        let full = forward_unpruned(model, inputs, &mut full_kv);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pruned), bits(&full));
        for inp in inputs {
            let ctx = inp.first_position + inp.tokens.len();
            for layer in 0..model.config.n_layers {
                assert_eq!(
                    pruned_kv.gather(layer, inp.block_table, ctx),
                    full_kv.gather(layer, inp.block_table, ctx)
                );
            }
        }
    }

    #[test]
    fn pruned_logits_equal_the_unpruned_reference_bitwise() {
        let one_layer = ModelConfig {
            n_layers: 1,
            ..ModelConfig::tiny()
        };
        let configs = [ModelConfig::tiny(), ModelConfig::tiny_rotary(), one_layer];
        let backends = backend::BackendKind::all();
        for (cfg, backend) in configs
            .iter()
            .flat_map(|c| backends.map(|b| (c.clone(), b)))
        {
            let model = Transformer::new(ModelConfig { backend, ..cfg });
            let cfg = &model.config;
            let element = model.backend().kv_layout().element;
            let mut kv = KvPool::with_element(cfg.n_layers, 16, 4, cfg.hidden, element);
            let tables: [&[usize]; 3] = [&[9, 2, 5], &[0, 7], &[11, 3, 6, 1]];
            let prompts: [&[u32]; 3] = [&[3, 17, 42, 8, 25, 99, 4], &[8, 25, 99], &[7, 1, 2, 3, 4]];

            // Multi-row inputs, alone and stacked.
            let stacked: Vec<SeqInput<'_>> = prompts
                .iter()
                .zip(tables)
                .map(|(tokens, block_table)| SeqInput {
                    tokens,
                    first_position: 0,
                    block_table,
                })
                .collect();
            for input in &stacked {
                assert_pruned_equals_unpruned(&model, &[*input], &kv);
            }
            assert_pruned_equals_unpruned(&model, &stacked, &kv);

            // A mixed batch: one decode row, one chunk continuing a prompt
            // mid-block, one fresh prompt.
            model.forward(&stacked[..2], &mut kv);
            let mixed = [
                SeqInput {
                    tokens: &[61],
                    first_position: prompts[0].len(),
                    block_table: tables[0],
                },
                SeqInput {
                    tokens: &[5, 6, 7, 8, 9],
                    first_position: prompts[1].len(),
                    block_table: tables[1],
                },
                stacked[2],
            ];
            assert_pruned_equals_unpruned(&model, &mixed, &kv);
        }
    }
}

#[cfg(test)]
mod rotary_tests {
    use super::*;
    use crate::config::PositionEncoding;

    fn setup(cfg: ModelConfig) -> (Transformer, KvPool, Vec<usize>) {
        let model = Transformer::new(cfg.clone());
        let pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        (model, pool, vec![7, 2, 5])
    }

    #[test]
    fn rotary_prefill_then_decode_matches_full_prefill() {
        // The critical serving property: keys stored post-rotation in the
        // paged cache must make incremental decoding exact.
        let cfg = ModelConfig::tiny_rotary();
        let tokens: Vec<u32> = vec![3, 17, 42, 8, 25, 99, 4];
        let n = tokens.len();
        let (model, mut pool_a, table) = setup(cfg.clone());
        let logits_full =
            model.forward_paged(&tokens, &(0..n).collect::<Vec<_>>(), &mut pool_a, &table);

        let (_, mut pool_b, _) = setup(cfg);
        model.forward_paged(&tokens[..4], &[0, 1, 2, 3], &mut pool_b, &table);
        let mut logits_inc = Vec::new();
        for p in 4..n {
            logits_inc = model.forward_paged(&tokens[p..=p], &[p], &mut pool_b, &table);
        }
        for (i, (a, b)) in logits_full.iter().zip(&logits_inc).enumerate() {
            assert!((a - b).abs() < 2e-3, "logit {i}: {a} vs {b}");
        }
    }

    #[test]
    fn rotary_positions_affect_logits() {
        // The same token sequence at shifted positions must differ (RoPE
        // injects positions despite no learned embedding being added).
        let cfg = ModelConfig::tiny_rotary();
        let (model, mut pool_a, table) = setup(cfg.clone());
        let a = model.forward_paged(&[5, 9], &[0, 1], &mut pool_a, &table);
        let (_, mut pool_b, _) = setup(cfg);
        // Warm positions 0..2 with other tokens, then the same pair later.
        model.forward_paged(&[1, 1], &[0, 1], &mut pool_b, &table);
        let b = model.forward_paged(&[5], &[2], &mut pool_b, &table);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-3, "positions must matter under RoPE");
    }

    #[test]
    fn rope_rotation_preserves_norm() {
        let mut v: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        let before: f32 = v.iter().map(|x| x * x).sum();
        apply_rope(&mut v, 13, 8);
        let after: f32 = v.iter().map(|x| x * x).sum();
        assert!((before - after).abs() < 1e-3);
        // Position 0 is the identity rotation.
        let mut w: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        let orig = w.clone();
        apply_rope(&mut w, 0, 8);
        assert_eq!(w, orig);
    }

    #[test]
    fn rotary_config_round_trips_through_checkpoint() {
        let model = Transformer::new(ModelConfig::tiny_rotary());
        let loaded = crate::checkpoint::load(&crate::checkpoint::save(&model)).unwrap();
        assert_eq!(loaded.config.position_encoding, PositionEncoding::Rotary);
    }
}
