//! Numeric-layer microbenchmarks across the pluggable kernel backends.
//!
//! For every [`BackendKind`] (scalar, simd, quant-kv8) the bench measures
//! decode throughput (per-sequence and batched) against the seed
//! repository's scalar baseline, serial GEMM at the prefill shape and at
//! the one-row decode shape, the PagedAttention kernel (one decode call at
//! context 256 / 2048 / 32768 and one 256-row prefill at the bench model's
//! 8 × 32 shape, and at the serving bench's 8 × 8 shape the `decode_heavy`
//! batch — eight one-row sequences at context 160 — and one 160-row prefill,
//! then that batch once more at 4 × 12, a shape only the run-time-shape
//! instance of the kernel body takes:
//! ns, ns per (row·tile), computed KV bytes, GB/s) beside the same kernel
//! over an identity block table on one contiguous slab — what the block
//! table costs, Fig. 18a's question, per backend — and beside the
//! contiguous correctness oracle, the kernel timing counters, and — via
//! [`BlockSpaceManager`]
//! sizing at a fixed memory budget — the KV block capacity and the max
//! concurrent batch a small engine simulation sustains. Two cells are
//! backend-independent and repeat on every record of a set: the vector GELU
//! beside the libm `tanh` form it replaced (`gelu_ns_per_element`), and one
//! `sample_candidates` call per decoding mode at both serving vocabularies
//! (`sample_<mode>_v<V>_us`).
//!
//! GEMM, attention, GELU and sampler cells are timed in interleaved rounds
//! (every cell once per round, the order rotated, the minimum kept), so a
//! slow spell of the host lands on all of them and cross-backend ratios stay
//! meaningful. The gated speed ratios go one step further — the median
//! over the rounds of the ratio *within* a round (`*_paired_speedup_*`): the
//! ratio of two minima found seconds apart failed `simd GEMM ≥ 1.3×` one run
//! in three on a host that switches speed states, on unchanged code.
//!
//! # What the numbers said (PR 14)
//!
//! - *simd per-sequence decode slower than scalar (528 vs 844 tok/s)*: real.
//!   It is the one-row GEMM: `gemm_m1_speedup_vs_scalar` is ≈ 0.5 — the
//!   simd kernel walks the weight matrix down a 16-column stripe, one cache
//!   line per row at a 4 KB stride (serve_bench finding 6). GEMM is out of
//!   this bench's remit; the row keeps the evidence.
//! - *quant-kv8 GEMM at 0.71× scalar though it is the same kernel*: a
//!   measurement bug. Each backend's GEMM was one short sample taken after
//!   that backend's decode phases, and this host switches between two speed
//!   states 1.33× apart every few seconds. Interleaved, it reads 0.96–1.00×.
//!   The per-backend decode phases still run one after another, so their
//!   tok/s and kernel counters carry that noise (±30 %).
//! - *paged vs contiguous (Fig. 18a)*: simd's tiled kernel is 2.5–3.3× the
//!   two-pass oracle while the KV fits a cache level. At 32768 positions
//!   (67 MB of f32 KV) it streams at 7.8–8.8 GB/s of the ~10–16 GB/s one
//!   thread of this host can read: memory sets the time, not arithmetic,
//!   and the ratio to the oracle moved between 1.9× and 3.2× from run to
//!   run with how the host served the oracle's streams — hence the lower
//!   gate there.
//! - *simd vs scalar attention*: the K tile is stored dimension-major, so
//!   the scalar backend's plain loops autovectorise at baseline width; simd
//!   is 1.7–1.9× scalar in cache and 1.3–1.4× once both wait on memory.
//! - *the block walk*: a reversed block table costs 4–7 % over a sequential
//!   one at 32768 with f32 tiles (16 KB each) and 14–18 % for quant-kv8
//!   (4 KB tiles) — the hardware prefetcher restarting at each tile; the
//!   table lookup itself does not register. The f32 figure is under the
//!   10 % that would make the walk worth an issue; the quant-kv8 one is
//!   over it, on a kernel that is otherwise waiting on int8→f32 converts.
//!
//! # What changed them (PR 19)
//!
//! - *one kernel body for all backends*: the scalar backend's attention is
//!   the simd backend's compiled for the baseline instruction set, so
//!   `attn_*_vs_scalar` now measures AVX2 against SSE width on the same
//!   loops — 1.3–1.4× at 2048, and 1.12–1.32× at 32768 where both wait on
//!   memory (the scalar backend gained more than simd did: 2.4× against
//!   1.7× on the `decode_heavy` batch). The 1.15× floor at 32768 is left
//!   where it was. It is marginal: the lowest of this tree's runs read
//!   under it, and the parent's binary read 1.06–1.14× in all seven of its
//!   runs. What the ratio should be now, or whether it still says anything,
//!   is ROADMAP item 2h, not a number to move here.
//! - *what the block table costs* (`attn_*_indirection_cost`, Fig. 18a's
//!   question — the same kernel over a reversed table against an identity
//!   table on one slab): within ±5 % while the KV fits a cache level, 13–19 %
//!   at 32768 positions on every backend. Recorded, not gated.
//!
//! Each run *appends* one record set — one flat JSON line per backend,
//! tagged with `commit` and `nproc` — to `BENCH_kernels.json`, which is
//! therefore the trajectory of these numbers across PRs.
//!
//! With `--ci` it gates:
//! - per backend: batched logits bit-identical to per-sequence decode,
//!   kernel counters advancing;
//! - scalar: batched decode ≥ 2× the seed scalar path at batch 16;
//! - simd: serial GEMM ≥ 1.3× the scalar backend's serial GEMM (paired);
//! - vector GELU ≥ 4× the libm `tanh` form (paired);
//! - simd: paged decode attention ≥ 2× the contiguous oracle at context
//!   2048 and ≥ 1.5× at 32768, and ≥ 1.15× the scalar backend at both (see
//!   "What the numbers said" above for why not 2× and 1.5×, and "What
//!   changed them" for the state of the 32768 one);
//! - simd: the `decode_heavy` batch (`attn_decode_ctl`) ≥ 3.5× the
//!   contiguous oracle on the same rows (paired; 0.8 × the 4.4× PR 19
//!   measured);
//! - quant-kv8: ≥ 1.8× the scalar block capacity at equal cache bytes
//!   (asserted through `BlockSpaceManager`, not just arithmetic) and a
//!   strictly larger max concurrent batch in the engine simulation;
//! - JSON round-trip of every record of this run.

use std::time::Instant;

use vllm_bench::{append_trajectory, best_ns, paired_speedup};
use vllm_core::DecodingMode;
use vllm_core::{BlockSpaceManager, CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm_model::backend::{self, BackendKind, KvElement, KvLayout};
use vllm_model::ops::{self, timing};
use vllm_model::{
    contiguous_causal_attention, pool, sample_candidates, CpuModelExecutor, KvPool, ModelConfig,
    PositionEncoding, SeqInput, SeqRows, Transformer, WorkerPool,
};

/// Decode batch width the CI gate is defined over.
const BATCH: usize = 16;
/// Measured decode steps per path.
const DECODE_STEPS: usize = 8;
/// Unmeasured warm-up decode steps per path.
const WARMUP_STEPS: usize = 2;
/// Prompt length used for prefill and decode context.
const PREFILL: usize = 32;
/// KV block size (tokens per block).
const BLOCK_SIZE: usize = 16;
/// GEMM microbench shape (a prefill QKV projection).
const GEMM_M: usize = 16;
/// GEMM depth.
const GEMM_K: usize = 256;
/// GEMM width.
const GEMM_N: usize = 1024;
/// GEMM microbench iterations per kernel per round.
const GEMM_ITERS: usize = 10;
/// `--ci` floors for simd paged decode attention at each gated context:
/// `(case, × the contiguous oracle, × the scalar backend)`.
const SIMD_ATTENTION_GATES: [(&str, f64, f64); 2] =
    [("decode_2048", 2.0, 1.15), ("decode_32768", 1.5, 1.15)];
/// Interleaved timing rounds per microbench cell (the minimum is kept; the
/// gated ratios are the median of the rounds' paired ratios).
const ROUNDS: usize = 5;
/// Rows of the GELU microbench: `decode_heavy`'s decode batch.
const GELU_ROWS: usize = 8;
/// `--ci` floor for the vector GELU against libm's `tanh` form.
const GELU_GATE: f64 = 4.0;
/// Vocabularies the sampler microbench runs at (the two serving models').
const SAMPLE_VOCABS: [usize; 2] = [260, 2048];
/// One attention microbench cell: `seqs` sequences of `ctx` positions, the
/// last `rows` of each queried in one call (a decode call is one row at the
/// end of the context, a prefill all of them).
struct AttnCase {
    name: &'static str,
    n_heads: usize,
    head_dim: usize,
    ctx: usize,
    seqs: usize,
    rows: usize,
    /// Rows on the calling thread alone, as the serving bench pins its one
    /// kernel thread, rather than split across the global pool.
    one_thread: bool,
}

impl AttnCase {
    /// One sequence at the bench model's shape, rows across the global pool.
    const fn bench_model(name: &'static str, ctx: usize, rows: usize) -> Self {
        Self {
            name,
            n_heads: 8,
            head_dim: 32,
            ctx,
            seqs: 1,
            rows,
            one_thread: false,
        }
    }

    /// `seqs` sequences as the serving bench's small model runs them.
    const fn serving(name: &'static str, ctx: usize, seqs: usize, rows: usize) -> Self {
        Self {
            name,
            n_heads: 8,
            head_dim: 8,
            ctx,
            seqs,
            rows,
            one_thread: true,
        }
    }

    /// (query row, KV tile) visits of one call.
    fn row_tiles(&self) -> usize {
        let per_seq: usize = (self.ctx - self.rows..self.ctx)
            .map(|p| p / BLOCK_SIZE + 1)
            .sum();
        self.seqs * per_seq
    }
}

/// The attention microbench cells: four at the bench model's shape
/// (`hidden` 256), then the two the serving bench runs on its small model
/// (8 heads × 8, one kernel thread): the `decode_heavy` batch and one prompt.
/// Those six run a fixed-shape instance of the kernel body; the last is the
/// `decode_heavy` batch at a head width that is no whole vector (4 × 12, the
/// parity tests' shape), so the run-time-shape instance has a cell too.
const ATTN_CASES: [AttnCase; 7] = [
    AttnCase::bench_model("decode_256", 256, 1),
    AttnCase::bench_model("decode_2048", 2048, 1),
    AttnCase::bench_model("decode_32768", 32768, 1),
    AttnCase::bench_model("prefill_256", 256, 256),
    AttnCase::serving("decode_ctl", 160, 8, 1),
    AttnCase::serving("prefill_ctl", 160, 1, 160),
    AttnCase {
        n_heads: 4,
        head_dim: 12,
        ..AttnCase::serving("decode_rt", 160, 8, 1)
    },
];
/// `--ci` floor for simd `attn_decode_ctl` against the contiguous oracle on
/// the same rows (paired): 0.8 × the ratio PR 19 measured.
const DECODE_CTL_ORACLE_GATE: f64 = 3.5;
/// Layer-norm epsilon (matches the transformer's).
const LN_EPS: f32 = 1e-5;
/// Memory budget for the capacity comparison: what 64 f32 blocks of the
/// bench model cost. Every backend gets the same byte budget.
const CAPACITY_F32_BLOCKS: usize = 64;
/// Requests submitted to the max-concurrent-batch simulation.
const SIM_REQUESTS: usize = 16;
/// Prompt length per simulated request.
const SIM_PROMPT: usize = 24;
/// Tokens generated per simulated request.
const SIM_GEN: usize = 16;
/// f32 KV blocks the simulation's memory budget is defined over.
const SIM_F32_BLOCKS: usize = 20;

/// A mid-size model: big enough that weight traffic dominates, small
/// enough to bench in seconds.
fn bench_config(kind: BackendKind) -> ModelConfig {
    ModelConfig {
        vocab_size: 8192,
        hidden: 256,
        n_layers: 4,
        n_heads: 8,
        max_position: 256,
        eos_token_id: 0,
        seed: 0xbe9c,
        position_encoding: PositionEncoding::Learned,
        backend: kind,
    }
}

/// Deterministic pseudo-random token for sequence `seq` at `pos`.
fn tok(seq: usize, pos: usize, vocab: usize) -> u32 {
    let mixed = (seq * 131 + pos * 65_537 + 9).wrapping_mul(2_654_435_761);
    (mixed % vocab) as u32
}

/// The seed repository's scalar LM head: one sequential dot product per
/// vocabulary row, no unrolling.
fn lm_head_seed(model: &Transformer, hidden_state: &[f32], logits: &mut [f32]) {
    let h = model.config.hidden;
    for (j, row) in model.wte.chunks_exact(h).enumerate() {
        let mut s = 0.0f32;
        for (x, w) in hidden_state.iter().zip(row) {
            s += x * w;
        }
        logits[j] = s;
    }
}

/// The seed repository's per-sequence decode step, reconstructed as the
/// "old path" throughput baseline: scalar ikj [`ops::matmul_reference`]
/// for every projection and a scalar LM-head loop. Attention is today's
/// scalar-backend PagedAttention kernel, so the ratio isolates the dense
/// kernels and the batching.
fn forward_decode_seed(
    model: &Transformer,
    token: u32,
    position: usize,
    kv: &mut KvPool,
    table: &[usize],
) -> Vec<f32> {
    let h = model.config.hidden;
    let bs = kv.block_size();
    let ctx = position + 1;
    let mut x = vec![0.0f32; h];
    let e = &model.wte[token as usize * h..(token as usize + 1) * h];
    let p = &model.wpe[position * h..(position + 1) * h];
    for j in 0..h {
        x[j] = e[j] + p[j];
    }
    let mut qkv = vec![0.0f32; 3 * h];
    let mut attn = vec![0.0f32; h];
    let mut proj = vec![0.0f32; h];
    let mut mid = vec![0.0f32; 4 * h];
    for (li, lw) in model.layers.iter().enumerate() {
        let mut hst = x.clone();
        ops::layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
        ops::matmul_reference(&hst, &lw.w_qkv, 1, h, 3 * h, &mut qkv);
        ops::add_bias(&mut qkv, &lw.b_qkv);
        kv.write(
            li,
            table[position / bs],
            position % bs,
            &qkv[h..2 * h],
            &qkv[2 * h..3 * h],
        );
        backend::by_kind(BackendKind::Scalar).paged_attention(
            &qkv[..h],
            kv,
            li,
            &[SeqRows::decode(table, ctx)],
            model.config.n_heads,
            model.config.head_dim(),
            pool::global(),
            &mut attn,
        );
        ops::matmul_reference(&attn, &lw.w_o, 1, h, h, &mut proj);
        ops::add_bias(&mut proj, &lw.b_o);
        ops::add_inplace(&mut x, &proj);

        let mut hst = x.clone();
        ops::layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
        ops::matmul_reference(&hst, &lw.w_fc, 1, h, 4 * h, &mut mid);
        ops::add_bias(&mut mid, &lw.b_fc);
        ops::gelu(&mut mid);
        ops::matmul_reference(&mid, &lw.w_proj, 1, 4 * h, h, &mut proj);
        ops::add_bias(&mut proj, &lw.b_proj);
        ops::add_inplace(&mut x, &proj);
    }
    ops::layer_norm(&mut x, &model.ln_f_g, &model.ln_f_b, LN_EPS);
    let mut logits = vec![0.0f32; model.config.vocab_size];
    lm_head_seed(model, &x, &mut logits);
    logits
}

/// One backend's measurements; serialized as one flat JSON line.
struct BackendReport {
    backend: &'static str,
    logits_match: bool,
    /// Every numeric field, in output order.
    nums: Vec<(String, f64)>,
}

impl BackendReport {
    fn set(&mut self, key: &str, v: f64) {
        self.nums.push((key.to_string(), v));
    }

    fn get(&self, key: &str) -> f64 {
        let found = self.nums.iter().find(|(k, _)| k == key);
        found.unwrap_or_else(|| panic!("no field {key}")).1
    }

    /// One-line flat JSON document: a string, numbers, and one boolean; no
    /// nesting so the round-trip parser stays trivial. `append_trajectory`
    /// adds the `commit` and `nproc` tags.
    fn to_json(&self) -> String {
        let mut s = format!("{{\"backend\":\"{}\",", self.backend);
        for (key, v) in &self.nums {
            s.push_str(&format!("\"{key}\":{v:.4},"));
        }
        s.push_str(&format!("\"logits_match\":{}}}", self.logits_match));
        s
    }
}

/// Extracts a numeric field from a flat JSON document written by
/// [`BackendReport::to_json`]. Returns `None` if the key is absent or its
/// value does not parse as a number.
fn json_get(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// [`vllm_bench::interleaved_rounds_ns`] over this bench's [`ROUNDS`].
fn interleaved_rounds_ns(cells: &mut [&mut dyn FnMut()], iters: usize) -> Vec<Vec<f64>> {
    vllm_bench::interleaved_rounds_ns(cells, iters, ROUNDS)
}

/// [`interleaved_rounds_ns`] reduced to each cell's best round.
fn interleaved_min_ns(cells: &mut [&mut dyn FnMut()], iters: usize) -> Vec<f64> {
    let rounds = interleaved_rounds_ns(cells, iters);
    rounds.iter().map(|r| best_ns(r)).collect()
}

/// xorshift stream of values in `[-0.5, 0.5)`.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f32 / 1000.0) - 0.5
        })
        .collect()
}

/// Serial GEMM `m × GEMM_K × GEMM_N` on every backend, interleaved;
/// nanoseconds per `matmul_serial` call in every round, `[backend][round]`
/// in [`BackendKind::all`] order.
fn bench_gemm_serial(m: usize) -> Vec<Vec<f64>> {
    let a = fill(1, m * GEMM_K);
    let b = fill(2, GEMM_K * GEMM_N);
    let mut out_ref = vec![0.0f32; m * GEMM_N];
    ops::matmul_reference(&a, &b, m, GEMM_K, GEMM_N, &mut out_ref);
    let mut outs = vec![vec![0.0f32; m * GEMM_N]; BackendKind::all().len()];
    let mut cells: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    for (kind, out) in BackendKind::all().into_iter().zip(outs.iter_mut()) {
        let (a, b) = (&a, &b);
        let be = backend::by_kind(kind);
        cells.push(Box::new(move || {
            be.matmul_serial(a, b, m, GEMM_K, GEMM_N, out);
        }));
    }
    let mut refs: Vec<&mut dyn FnMut()> = cells.iter_mut().map(|c| &mut **c as _).collect();
    let rounds = interleaved_rounds_ns(&mut refs, GEMM_ITERS);
    drop(cells);
    for (kind, out) in BackendKind::all().into_iter().zip(&outs) {
        for (r, v) in out_ref.iter().zip(out) {
            assert!(
                (r - v).abs() < 1e-2,
                "{} matmul diverged from reference: {r} vs {v}",
                kind.name()
            );
        }
    }
    rounds
}

/// The activation [`ops::gelu`] replaced: libm's scalar `tanh`, one element
/// at a time.
fn gelu_libm(x: &mut [f32]) {
    for v in x.iter_mut() {
        let u = *v;
        *v = 0.5 * u * (1.0 + (0.797_884_6 * (u + 0.044_715 * u * u * u)).tanh());
    }
}

/// [`ops::gelu`] beside [`gelu_libm`] over one decode step's MLP
/// activations (`GELU_ROWS × 4·hidden` of the bench model), interleaved:
/// nanoseconds per element in every round, `[vector, libm][round]`.
fn bench_gelu() -> Vec<Vec<f64>> {
    let len = GELU_ROWS * 4 * bench_config(BackendKind::Scalar).hidden;
    let input: Vec<f32> = fill(21, len).iter().map(|v| v * 4.0).collect();
    let (mut vector, mut libm) = (input.clone(), input.clone());
    let (mut run_vector, mut run_libm) = (
        || {
            vector.copy_from_slice(&input);
            ops::gelu(std::hint::black_box(&mut vector));
        },
        || {
            libm.copy_from_slice(&input);
            gelu_libm(std::hint::black_box(&mut libm));
        },
    );
    let rounds = interleaved_rounds_ns(&mut [&mut run_vector, &mut run_libm], 50);
    for (v, l) in vector.iter().zip(&libm) {
        assert!((v - l).abs() < 1e-6, "vector gelu {v} vs libm {l}");
    }
    let per_element = |r: &Vec<f64>| r.iter().map(|ns| ns / len as f64).collect();
    rounds.iter().map(per_element).collect()
}

/// One [`sample_candidates`] call per decoding mode at each vocabulary of
/// [`SAMPLE_VOCABS`], interleaved; best microseconds per call, as
/// `(record field, us)`.
fn bench_sampler() -> Vec<(String, f64)> {
    let modes = [
        ("greedy", DecodingMode::Greedy, 1),
        ("beam8", DecodingMode::Beam { width: 8 }, 16),
        (
            "top_p",
            DecodingMode::Random {
                temperature: 0.8,
                top_k: 0,
                top_p: 0.95,
            },
            1,
        ),
    ];
    let rows: Vec<Vec<f32>> = SAMPLE_VOCABS
        .iter()
        .map(|&v| fill(31, v).iter().map(|l| l * 8.0).collect())
        .collect();
    let mut names = Vec::new();
    let mut cells: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    for (logits, v) in rows.iter().zip(SAMPLE_VOCABS) {
        for (name, mode, n) in modes {
            names.push(format!("sample_{name}_v{v}_us"));
            let mut seed = 0;
            cells.push(Box::new(move || {
                seed += 1;
                std::hint::black_box(sample_candidates(logits, mode, n, seed));
            }));
        }
    }
    let mut refs: Vec<&mut dyn FnMut()> = cells.iter_mut().map(|c| &mut **c as _).collect();
    let best = interleaved_min_ns(&mut refs, 200);
    names
        .into_iter()
        .zip(best.iter().map(|ns| ns / 1e3))
        .collect()
}

/// One attention cell's numbers for one backend.
struct AttnCell {
    ns: f64,
    /// K and V bytes the call reads, computed from the backend's layout.
    kv_bytes: f64,
    oracle_ns: f64,
    /// The same call with the KV in position order behind a sequential
    /// (identity) block table: what a kernel over one contiguous slab sees.
    sequential_table_ns: f64,
    /// Median over the rounds of `oracle / paged` within a round.
    paired_speedup_vs_oracle: f64,
}

/// The PagedAttention kernel of every backend over [`ATTN_CASES`], each
/// three ways in one interleaved group: K/V behind a reversed (maximally
/// non-sequential, sequences interleaved) block table, the same K/V behind
/// an identity table — the difference is what the block table costs the
/// walk — and the contiguous two-pass oracle on the same rows. Returns
/// `[backend][case]` cells.
fn bench_attention() -> Vec<Vec<AttnCell>> {
    let kinds = BackendKind::all();
    let serial = WorkerPool::new(1);
    let mut cells: Vec<Vec<AttnCell>> = kinds.iter().map(|_| Vec::new()).collect();
    for case in &ATTN_CASES {
        let AttnCase {
            name,
            n_heads,
            head_dim: hd,
            ctx,
            seqs,
            rows,
            one_thread,
        } = *case;
        let workers = if one_thread { &serial } else { pool::global() };
        let hidden = n_heads * hd;
        let n_blocks = ctx.div_ceil(BLOCK_SIZE);
        let ks: Vec<Vec<f32>> = (0..seqs)
            .map(|i| fill(11 + 3 * i as u64, ctx * hidden))
            .collect();
        let vs: Vec<Vec<f32>> = (0..seqs)
            .map(|i| fill(12 + 3 * i as u64, ctx * hidden))
            .collect();
        let q = fill(13, seqs * rows * hidden);
        // Sequence `i`'s logical block `j`: last block first with the
        // sequences interleaved, or in position order one sequence after
        // another.
        let tables = |place: &dyn Fn(usize, usize) -> usize| -> Vec<Vec<usize>> {
            (0..seqs)
                .map(|i| (0..n_blocks).map(|j| place(i, j)).collect())
                .collect()
        };
        let reversed = tables(&|i, j| (n_blocks - 1 - j) * seqs + i);
        let identity = tables(&|i, j| i * n_blocks + j);
        let build = |kind: BackendKind, tables: &[Vec<usize>]| {
            let element = backend::by_kind(kind).kv_layout().element;
            let mut kv = KvPool::with_element(1, seqs * n_blocks, BLOCK_SIZE, hidden, element);
            for ((table, k), v) in tables.iter().zip(&ks).zip(&vs) {
                for t in 0..ctx {
                    let (block, slot) = (table[t / BLOCK_SIZE], t % BLOCK_SIZE);
                    kv.write(
                        0,
                        block,
                        slot,
                        &k[t * hidden..(t + 1) * hidden],
                        &v[t * hidden..(t + 1) * hidden],
                    );
                }
            }
            kv
        };
        let positions_read: usize = seqs * (ctx - rows..ctx).map(|p| p + 1).sum::<usize>();
        let iters = (1 << 21) / (positions_read * hidden).max(1) + 1;

        // One interleaved group: every backend behind the reversed tables,
        // every backend behind the identity tables, then the oracle.
        let placed: Vec<(KvPool, &Vec<Vec<usize>>)> = [&reversed, &identity]
            .into_iter()
            .flat_map(|tables| kinds.iter().map(move |&kind| (build(kind, tables), tables)))
            .collect();
        let mut outs = vec![vec![0.0f32; seqs * rows * hidden]; placed.len() + 1];
        let (paged_outs, oracle_out) = outs.split_at_mut(placed.len());
        let mut fns: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for ((&kind, (kv, tables)), out) in kinds.iter().cycle().zip(&placed).zip(paged_outs) {
            let (q, be) = (&q, backend::by_kind(kind));
            let segments: Vec<SeqRows<'_>> = tables
                .iter()
                .map(|table| SeqRows {
                    block_table: table,
                    first_position: ctx - rows,
                    n_rows: rows,
                })
                .collect();
            fns.push(Box::new(move || {
                be.paged_attention(q, kv, 0, &segments, n_heads, hd, workers, out);
            }));
        }
        fns.push(Box::new(|| {
            let per_seq = q
                .chunks(rows * hidden)
                .zip(oracle_out[0].chunks_mut(rows * hidden));
            for ((q, out), (k, v)) in per_seq.zip(ks.iter().zip(&vs)) {
                contiguous_causal_attention(q, k, v, rows, ctx, ctx - rows, n_heads, hd, out);
            }
        }));
        let mut refs: Vec<&mut dyn FnMut()> = fns.iter_mut().map(|c| &mut **c as _).collect();
        let rounds = interleaved_rounds_ns(&mut refs, iters);
        drop(fns);
        let oracle = rounds.last().expect("oracle cell");
        for (i, &kind) in kinds.iter().enumerate() {
            let bytes_per_position = backend::by_kind(kind).kv_layout().bytes_per_token(hidden);
            cells[i].push(AttnCell {
                ns: best_ns(&rounds[i]),
                kv_bytes: (positions_read * bytes_per_position) as f64,
                oracle_ns: best_ns(oracle),
                sequential_table_ns: best_ns(&rounds[kinds.len() + i]),
                paired_speedup_vs_oracle: paired_speedup(oracle, &rounds[i]),
            });
            // Where the blocks sit is invisible in the output, and f32
            // outputs sit on the oracle (quant-kv8 reads other data).
            assert_eq!(outs[i], outs[kinds.len() + i], "{} {name}", kind.name());
            if kind != BackendKind::QuantKv8 {
                for (a, b) in outs[i].iter().zip(&outs[placed.len()]) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "{} {name}: {a} vs oracle {b}",
                        kind.name()
                    );
                }
            }
        }
    }
    cells
}

/// GPU block capacity the block manager derives for `kind` at the shared
/// byte budget, asserted through a real [`BlockSpaceManager`].
fn capacity_at_budget(kind: BackendKind) -> (usize, usize) {
    let cfg = bench_config(kind);
    let layout = backend::by_kind(kind).kv_layout();
    let bytes_per_block = layout.bytes_per_block(cfg.n_layers, BLOCK_SIZE, cfg.hidden);
    let f32_block = KvLayout {
        element: KvElement::F32,
    }
    .bytes_per_block(cfg.n_layers, BLOCK_SIZE, cfg.hidden);
    let budget = f32_block * CAPACITY_F32_BLOCKS;
    let cache = CacheConfig::from_memory_budget(BLOCK_SIZE, bytes_per_block, budget)
        .expect("budget holds at least one block");
    let manager = BlockSpaceManager::new(&cache);
    (bytes_per_block, manager.num_total_gpu_blocks())
}

/// Runs a small engine under a fixed byte budget and reports the largest
/// concurrent running batch the scheduler sustained — the Figure-12-style
/// payoff of compact KV storage: same bytes, more blocks, bigger batches.
fn max_concurrent_batch(kind: BackendKind) -> usize {
    let mcfg = ModelConfig {
        vocab_size: 128,
        hidden: 32,
        n_layers: 2,
        n_heads: 4,
        max_position: 256,
        eos_token_id: 0,
        seed: 0x5eed,
        position_encoding: PositionEncoding::Learned,
        backend: kind,
    };
    let layout = backend::by_kind(kind).kv_layout();
    let bytes_per_block = layout.bytes_per_block(mcfg.n_layers, BLOCK_SIZE, mcfg.hidden);
    let f32_block = KvLayout {
        element: KvElement::F32,
    }
    .bytes_per_block(mcfg.n_layers, BLOCK_SIZE, mcfg.hidden);
    let budget = f32_block * SIM_F32_BLOCKS;
    let cache = CacheConfig::from_memory_budget(BLOCK_SIZE, bytes_per_block, budget)
        .expect("budget holds at least one block");
    let sched = SchedulerConfig::new(2048, 64, 2048).expect("valid scheduler config");
    let exec = CpuModelExecutor::from_config(mcfg, &cache);
    let mut engine = LlmEngine::new(exec, cache, sched);
    for i in 0..SIM_REQUESTS {
        let prompt: Vec<u32> = (0..SIM_PROMPT).map(|p| tok(i, p, 128)).collect();
        engine
            .add_request(format!("r{i}"), prompt, SamplingParams::greedy(SIM_GEN))
            .expect("request admitted");
    }
    let mut max_running = 0;
    while engine.has_unfinished() {
        engine.step().expect("sim step");
        max_running = max_running.max(engine.scheduler().num_running());
    }
    max_running
}

/// Measures one backend's decode paths against the shared seed baseline:
/// `(per-sequence tok/s, batched tok/s, kernel counters over the batched
/// phase, batched logits bit-identical to per-sequence)`.
fn bench_decode(kind: BackendKind) -> (f64, f64, timing::KernelSnapshot, bool) {
    let config = bench_config(kind);
    let vocab = config.vocab_size;
    let model = Transformer::new(config.clone());
    let layout = model.backend().kv_layout();

    let blocks_per_seq = (PREFILL + WARMUP_STEPS + DECODE_STEPS + 1).div_ceil(BLOCK_SIZE);
    let total_blocks = BATCH * blocks_per_seq;
    let mut kv = KvPool::with_element(
        config.n_layers,
        total_blocks,
        BLOCK_SIZE,
        config.hidden,
        layout.element,
    );

    // Disjoint per-sequence block tables, deterministic prompts.
    let tables: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
        .collect();
    for (i, table) in tables.iter().enumerate() {
        let tokens: Vec<u32> = (0..PREFILL).map(|p| tok(i, p, vocab)).collect();
        let positions: Vec<usize> = (0..PREFILL).collect();
        model.forward_paged(&tokens, &positions, &mut kv, table);
    }

    // Both decode paths run the SAME tokens at the SAME positions: each
    // pass rewrites K/V at those positions with bit-identical values, so
    // the bit-identity check at the end compares consistent states.
    let step_tokens: Vec<Vec<u32>> = (0..WARMUP_STEPS + DECODE_STEPS)
        .map(|s| (0..BATCH).map(|i| tok(i, PREFILL + s, vocab)).collect())
        .collect();
    let inputs = |s: usize| -> Vec<SeqInput<'_>> {
        (0..BATCH)
            .map(|i| SeqInput {
                tokens: &step_tokens[s][i..=i],
                first_position: PREFILL + s,
                block_table: &tables[i],
            })
            .collect()
    };

    // This backend's kernels, one sequence at a time.
    let mut per_seq_last = vec![Vec::new(); BATCH];
    for s in 0..WARMUP_STEPS {
        for input in inputs(s) {
            model.forward(&[input], &mut kv);
        }
    }
    let t0 = Instant::now();
    for s in WARMUP_STEPS..WARMUP_STEPS + DECODE_STEPS {
        for (i, input) in inputs(s).into_iter().enumerate() {
            per_seq_last[i] = model.forward(&[input], &mut kv);
        }
    }
    let per_seq_elapsed = t0.elapsed();

    // One stacked batched forward per step.
    for s in 0..WARMUP_STEPS {
        model.forward(&inputs(s), &mut kv);
    }
    let kernels_before = timing::snapshot();
    let mut batched_last = Vec::new();
    let t0 = Instant::now();
    for s in WARMUP_STEPS..WARMUP_STEPS + DECODE_STEPS {
        batched_last = model.forward(&inputs(s), &mut kv);
    }
    let batched_elapsed = t0.elapsed();
    let kernels = timing::snapshot().delta_since(&kernels_before);

    // Bit-identity spot check on the final step's logits: the batched
    // forward must equal the per-sequence forward under this backend's
    // k-only accumulation-order contract.
    let logits_match =
        (0..BATCH).all(|i| per_seq_last[i][..] == batched_last[i * vocab..(i + 1) * vocab]);

    let decoded_tokens = (BATCH * DECODE_STEPS) as f64;
    (
        decoded_tokens / per_seq_elapsed.as_secs_f64(),
        decoded_tokens / batched_elapsed.as_secs_f64(),
        kernels,
        logits_match,
    )
}

/// Measures the seed repository's scalar per-sequence decode throughput
/// once; it is backend-independent (reference kernels, f32 KV).
fn run_seed_baseline() -> f64 {
    let config = bench_config(BackendKind::Scalar);
    let vocab = config.vocab_size;
    let model = Transformer::new(config.clone());
    let blocks_per_seq = (PREFILL + WARMUP_STEPS + DECODE_STEPS + 1).div_ceil(BLOCK_SIZE);
    let mut kv = KvPool::new(
        config.n_layers,
        BATCH * blocks_per_seq,
        BLOCK_SIZE,
        config.hidden,
    );
    let tables: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
        .collect();
    for (i, table) in tables.iter().enumerate() {
        let tokens: Vec<u32> = (0..PREFILL).map(|p| tok(i, p, vocab)).collect();
        let positions: Vec<usize> = (0..PREFILL).collect();
        model.forward_paged(&tokens, &positions, &mut kv, table);
    }
    let step_inputs: Vec<Vec<(u32, usize)>> = (0..WARMUP_STEPS + DECODE_STEPS)
        .map(|s| {
            let pos = PREFILL + s;
            (0..BATCH).map(|i| (tok(i, pos, vocab), pos)).collect()
        })
        .collect();
    for step in &step_inputs[..WARMUP_STEPS] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            forward_decode_seed(&model, t, pos, &mut kv, &tables[i]);
        }
    }
    let t0 = Instant::now();
    for step in &step_inputs[WARMUP_STEPS..] {
        for (i, &(t, pos)) in step.iter().enumerate() {
            forward_decode_seed(&model, t, pos, &mut kv, &tables[i]);
        }
    }
    (BATCH * DECODE_STEPS) as f64 / t0.elapsed().as_secs_f64()
}

fn print_report(r: &BackendReport) {
    println!("=== backend: {} ===", r.backend);
    println!(
        "  threads: {} (VLLM_NUM_THREADS={})",
        r.get("threads"),
        r.get("configured_threads"),
    );
    println!(
        "  decode (batch {BATCH}, {DECODE_STEPS} steps): seed scalar {:.1} tok/s | per-seq {:.1} tok/s | batched {:.1} tok/s ({:.2}x vs seed)",
        r.get("seed_scalar_tokens_per_sec"),
        r.get("per_seq_tokens_per_sec"),
        r.get("batched_tokens_per_sec"),
        r.get("batched_decode_speedup")
    );
    println!(
        "  batched logits bit-identical to per-sequence: {}",
        r.logits_match
    );
    println!(
        "  serial GEMM {GEMM_M}x{GEMM_K}x{GEMM_N}: {:.0} ns ({:.2}x vs scalar backend, {:.2}x paired); 1x{GEMM_K}x{GEMM_N}: {:.0} ns ({:.2}x)",
        r.get("gemm_serial_ns"),
        r.get("gemm_speedup_vs_scalar"),
        r.get("gemm_paired_speedup_vs_scalar"),
        r.get("gemm_m1_serial_ns"),
        r.get("gemm_m1_speedup_vs_scalar")
    );
    for case in &ATTN_CASES {
        let AttnCase {
            name,
            n_heads,
            head_dim,
            ctx,
            seqs,
            rows,
            ..
        } = *case;
        println!(
            "  attention {name} ({seqs} x {rows} row(s), context {ctx}, {n_heads} x {head_dim}): {:.0} ns, {:.0} ns per row*tile, {:.2} MB KV, {:.2} GB/s | identity block table {:.0} ns (indirection costs {:+.1}%) | contiguous oracle {:.0} ns ({:.2}x) | {:.2}x vs scalar backend",
            r.get(&format!("attn_{name}_ns")),
            r.get(&format!("attn_{name}_ns_per_row_tile")),
            r.get(&format!("attn_{name}_kv_bytes")) / 1e6,
            r.get(&format!("attn_{name}_gbps")),
            r.get(&format!("attn_{name}_sequential_table_ns")),
            r.get(&format!("attn_{name}_indirection_cost")) * 100.0,
            r.get(&format!("attn_{name}_oracle_ns")),
            r.get(&format!("attn_{name}_vs_oracle")),
            r.get(&format!("attn_{name}_vs_scalar"))
        );
    }
    println!(
        "  KV bytes/block {} -> {} GPU blocks at the shared budget ({:.2}x scalar capacity)",
        r.get("kv_bytes_per_block"),
        r.get("num_gpu_blocks_at_budget"),
        r.get("block_capacity_ratio_vs_scalar")
    );
    println!(
        "  max concurrent batch in sim ({SIM_REQUESTS} reqs, equal bytes): {}",
        r.get("max_concurrent_batch")
    );
    println!(
        "  kernel counters over batched phase: matmul {} ns/{} calls, attention {} ns/{} calls, logits {} ns/{} calls, activation {} ns, elementwise {} ns",
        r.get("kernel_matmul_ns"),
        r.get("kernel_matmul_calls"),
        r.get("kernel_paged_attention_ns"),
        r.get("kernel_paged_attention_calls"),
        r.get("kernel_logits_ns"),
        r.get("kernel_logits_calls"),
        r.get("kernel_activation_ns"),
        r.get("kernel_elementwise_ns")
    );
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    println!("=== kernels: per-backend numeric-layer microbenchmarks ===");
    let seed_scalar_tps = run_seed_baseline();
    let gemm_rounds = bench_gemm_serial(GEMM_M);
    let gemm_ns: Vec<f64> = gemm_rounds.iter().map(|r| best_ns(r)).collect();
    let gemm_m1_ns: Vec<f64> = bench_gemm_serial(1).iter().map(|r| best_ns(r)).collect();
    let gelu_rounds = bench_gelu();
    let sample_us = bench_sampler();
    let attn = bench_attention();
    let (_, scalar_blocks) = capacity_at_budget(BackendKind::Scalar);

    // The scalar backend (first in `all()`) anchors cross-backend ratios.
    let reports: Vec<BackendReport> = BackendKind::all()
        .into_iter()
        .enumerate()
        .map(|(b, kind)| {
            let (per_seq_tps, batched_tps, kernels, logits_match) = bench_decode(kind);
            let (bytes_per_block, blocks_at_budget) = capacity_at_budget(kind);
            let mut r = BackendReport {
                backend: kind.name(),
                logits_match,
                nums: Vec::new(),
            };
            r.set("threads", pool::global().parallelism() as f64);
            r.set("configured_threads", pool::configured_threads() as f64);
            r.set("batch_size", BATCH as f64);
            r.set("decode_steps", DECODE_STEPS as f64);
            r.set("seed_scalar_tokens_per_sec", seed_scalar_tps);
            r.set("per_seq_tokens_per_sec", per_seq_tps);
            r.set("batched_tokens_per_sec", batched_tps);
            r.set("batched_decode_speedup", batched_tps / seed_scalar_tps);
            r.set("gemm_m", GEMM_M as f64);
            r.set("gemm_k", GEMM_K as f64);
            r.set("gemm_n", GEMM_N as f64);
            r.set("gemm_serial_ns", gemm_ns[b]);
            r.set("gemm_speedup_vs_scalar", gemm_ns[0] / gemm_ns[b]);
            r.set(
                "gemm_paired_speedup_vs_scalar",
                paired_speedup(&gemm_rounds[0], &gemm_rounds[b]),
            );
            r.set("gemm_m1_serial_ns", gemm_m1_ns[b]);
            r.set("gemm_m1_speedup_vs_scalar", gemm_m1_ns[0] / gemm_m1_ns[b]);
            for (c, case) in ATTN_CASES.iter().enumerate() {
                let (name, cell) = (case.name, &attn[b][c]);
                r.set(&format!("attn_{name}_ns"), cell.ns);
                r.set(
                    &format!("attn_{name}_ns_per_row_tile"),
                    cell.ns / case.row_tiles() as f64,
                );
                r.set(&format!("attn_{name}_kv_bytes"), cell.kv_bytes);
                r.set(&format!("attn_{name}_gbps"), cell.kv_bytes / cell.ns);
                r.set(&format!("attn_{name}_oracle_ns"), cell.oracle_ns);
                r.set(&format!("attn_{name}_vs_oracle"), cell.oracle_ns / cell.ns);
                r.set(
                    &format!("attn_{name}_paired_speedup_vs_oracle"),
                    cell.paired_speedup_vs_oracle,
                );
                r.set(&format!("attn_{name}_vs_scalar"), attn[0][c].ns / cell.ns);
                // Fig. 18a's question: the same kernel, scattered blocks
                // against one contiguous slab. Recorded, not gated.
                r.set(
                    &format!("attn_{name}_sequential_table_ns"),
                    cell.sequential_table_ns,
                );
                r.set(
                    &format!("attn_{name}_indirection_cost"),
                    cell.ns / cell.sequential_table_ns - 1.0,
                );
            }
            r.set("kernel_matmul_ns", kernels.matmul_ns as f64);
            r.set("kernel_matmul_calls", kernels.matmul_calls as f64);
            r.set("kernel_paged_attention_ns", kernels.attention_ns as f64);
            r.set(
                "kernel_paged_attention_calls",
                kernels.attention_calls as f64,
            );
            r.set("kernel_logits_ns", kernels.logits_ns as f64);
            r.set("kernel_logits_calls", kernels.logits_calls as f64);
            r.set("kernel_activation_ns", kernels.activation_ns as f64);
            r.set("kernel_elementwise_ns", kernels.elementwise_ns as f64);
            // Backend-independent (one activation, one sampler): the same
            // numbers on every record of the set.
            r.set("gelu_ns_per_element", best_ns(&gelu_rounds[0]));
            r.set("gelu_libm_ns_per_element", best_ns(&gelu_rounds[1]));
            r.set(
                "gelu_paired_speedup_vs_libm",
                paired_speedup(&gelu_rounds[1], &gelu_rounds[0]),
            );
            for (field, us) in &sample_us {
                r.set(field, *us);
            }
            r.set("kv_bytes_per_block", bytes_per_block as f64);
            r.set("num_gpu_blocks_at_budget", blocks_at_budget as f64);
            r.set(
                "block_capacity_ratio_vs_scalar",
                blocks_at_budget as f64 / scalar_blocks as f64,
            );
            r.set("max_concurrent_batch", max_concurrent_batch(kind) as f64);
            r
        })
        .collect();
    for r in &reports {
        print_report(r);
        println!();
    }
    let shared = &reports[0];
    println!(
        "GELU over {GELU_ROWS} x {} elements: vector {:.2} ns/element, libm tanh {:.2} ns/element ({:.2}x paired)",
        4 * bench_config(BackendKind::Scalar).hidden,
        shared.get("gelu_ns_per_element"),
        shared.get("gelu_libm_ns_per_element"),
        shared.get("gelu_paired_speedup_vs_libm")
    );
    for (field, us) in &sample_us {
        println!("{field}: {us:.2}");
    }
    println!();

    // Append this run's record set: the file is the trajectory.
    let records: Vec<String> = reports.iter().map(BackendReport::to_json).collect();
    let tail = append_trajectory("BENCH_kernels.json", &records);
    println!("appended {} records to BENCH_kernels.json", tail.len());

    if !ci {
        return;
    }

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures += 1;
        }
    };

    let by_name = |name: &str| -> &BackendReport {
        reports
            .iter()
            .find(|r| r.backend == name)
            .expect("all backends benched")
    };
    let scalar = by_name("scalar");
    let simd = by_name("simd");
    let quant = by_name("quant-kv8");

    for r in &reports {
        check(
            r.logits_match,
            &format!(
                "{}: batched decode logits are not bit-identical to per-sequence decode",
                r.backend
            ),
        );
        check(
            r.get("kernel_matmul_calls") > 0.0
                && r.get("kernel_paged_attention_calls") > 0.0
                && r.get("kernel_logits_calls") > 0.0,
            &format!(
                "{}: kernel timing counters did not advance during the batched phase",
                r.backend
            ),
        );
    }
    check(
        scalar.get("batched_decode_speedup") >= 2.0,
        &format!(
            "scalar batched decode speedup {:.2}x is below the 2x gate at batch {BATCH}",
            scalar.get("batched_decode_speedup")
        ),
    );
    check(
        simd.get("gemm_paired_speedup_vs_scalar") >= 1.3,
        &format!(
            "simd serial GEMM speedup {:.2}x (median of {ROUNDS} paired rounds) is below the 1.3x gate",
            simd.get("gemm_paired_speedup_vs_scalar")
        ),
    );
    check(
        scalar.get("gelu_paired_speedup_vs_libm") >= GELU_GATE,
        &format!(
            "vector GELU is {:.2}x libm's tanh form (median of {ROUNDS} paired rounds), below the {GELU_GATE}x gate",
            scalar.get("gelu_paired_speedup_vs_libm")
        ),
    );
    for (name, oracle_gate, scalar_gate) in SIMD_ATTENTION_GATES {
        let vs_oracle = simd.get(&format!("attn_{name}_vs_oracle"));
        check(
            vs_oracle >= oracle_gate,
            &format!("simd paged attention {name} is {vs_oracle:.2}x the contiguous oracle, below the {oracle_gate}x gate"),
        );
        let vs_scalar = simd.get(&format!("attn_{name}_vs_scalar"));
        check(
            vs_scalar >= scalar_gate,
            &format!("simd paged attention {name} is {vs_scalar:.2}x the scalar backend, below the {scalar_gate}x gate"),
        );
    }
    let decode_ctl = simd.get("attn_decode_ctl_paired_speedup_vs_oracle");
    check(
        decode_ctl >= DECODE_CTL_ORACLE_GATE,
        &format!("simd paged attention on the decode_heavy batch is {decode_ctl:.2}x the contiguous oracle (median of {ROUNDS} paired rounds), below the {DECODE_CTL_ORACLE_GATE}x gate"),
    );
    check(
        quant.get("num_gpu_blocks_at_budget") >= 1.8 * scalar.get("num_gpu_blocks_at_budget"),
        &format!(
            "quant-kv8 block capacity {} is below 1.8x the scalar capacity {} at equal bytes",
            quant.get("num_gpu_blocks_at_budget"),
            scalar.get("num_gpu_blocks_at_budget")
        ),
    );
    check(
        quant.get("max_concurrent_batch") > scalar.get("max_concurrent_batch"),
        &format!(
            "quant-kv8 max concurrent batch {} does not exceed scalar's {} at equal bytes",
            quant.get("max_concurrent_batch"),
            scalar.get("max_concurrent_batch")
        ),
    );

    // JSON round trip: the file's last record set must be this run's, every
    // numeric field preserved through write + parse.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * a.abs().max(1.0);
    for r in &reports {
        let tag = format!("\"backend\":\"{}\"", r.backend);
        let Some(line) = tail.iter().find(|l| l.contains(&tag)) else {
            check(false, &format!("round-trip lost the {} record", r.backend));
            continue;
        };
        for (key, expect) in &r.nums {
            match json_get(line, key) {
                Some(v) => check(
                    close(v, *expect),
                    &format!(
                        "{}: round-trip mismatch for {key}: wrote {expect}, parsed {v}",
                        r.backend
                    ),
                ),
                None => check(
                    false,
                    &format!("{}: round-trip lost field {key}", r.backend),
                ),
            }
        }
    }

    if failures > 0 {
        eprintln!("kernels bench CI: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("kernels bench CI OK");
}
