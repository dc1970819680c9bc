//! Megatron-style tensor-parallel execution (§4.6).
//!
//! The attention operator is split on the head dimension; the MLP on its
//! intermediate dimension. Every worker holds a weight shard plus a paged
//! KV pool *for its heads only*, while all workers share the single block
//! table handed down by the centralized scheduler — each worker sees the
//! same physical block ids but stores only its slice of the KV cache, as in
//! the paper. Partial results are combined with an all-reduce (a sum across
//! worker partials) after the attention output projection and after the MLP
//! down projection.
//!
//! Worker phases execute on the persistent [`crate::pool`] worker pool
//! (one task per worker per phase), so no OS threads are spawned on the
//! per-step hot path. Decode-phase items are batched into one stacked
//! forward per step, mirroring the single-worker executor.

use std::time::Instant;

use vllm_core::error::Result;
use vllm_core::executor::{ModelExecutor, StepResult};
use vllm_core::plan::StepPlan;

use vllm_core::config::CacheConfig;

use crate::attention::SeqRows;
use crate::config::PositionEncoding;
use crate::executor::{kernel_timings, run_forwards, step_inputs, KernelTelemetry};
use crate::kv_cache::KvCache;
use crate::ops::timing::{self, OpClock};
use crate::ops::{add_bias, add_inplace, gelu, layer_norm};
use crate::pool;
use crate::transformer::{apply_rope, last_rows, SeqInput, Transformer};

const LN_EPS: f32 = 1e-5;

/// Replicated token (+ absolute position) embedding of every row of
/// `inputs`, sequence after sequence. Reads only the replicated weights,
/// never the KV pools, so it can run concurrently with cache-op application
/// on the workers.
fn embed(model: &Transformer, inputs: &[SeqInput<'_>]) -> Vec<f32> {
    let h = model.config.hidden;
    let rotary = model.config.position_encoding == PositionEncoding::Rotary;
    let mut x = Vec::with_capacity(inputs.iter().map(|inp| inp.tokens.len() * h).sum());
    for inp in inputs {
        for (&tok, pos) in inp.tokens.iter().zip(inp.first_position..) {
            let e = &model.wte[tok as usize * h..(tok as usize + 1) * h];
            let p = &model.wpe[pos * h..(pos + 1) * h];
            x.extend((0..h).map(|j| if rotary { e[j] } else { e[j] + p[j] }));
        }
    }
    x
}

/// One worker's weight shard for one layer.
#[derive(Debug, Clone)]
struct LayerShard {
    /// `hidden × 3·hl` (columns: local Q, local K, local V).
    w_qkv: Vec<f32>,
    /// `3·hl`.
    b_qkv: Vec<f32>,
    /// `hl × hidden` (rows of this worker's heads).
    w_o: Vec<f32>,
    /// `hidden × ml` columns of the up projection.
    w_fc: Vec<f32>,
    /// `ml`.
    b_fc: Vec<f32>,
    /// `ml × hidden` rows of the down projection.
    w_proj: Vec<f32>,
}

/// One tensor-parallel worker: weight shards plus its KV cache slice.
#[derive(Debug)]
struct Worker {
    layers: Vec<LayerShard>,
    cache: KvCache,
}

/// Cached telemetry handles for the tensor-parallel executor, registered
/// when the engine attaches its telemetry bundle.
#[derive(Debug, Clone)]
struct TpTelemetry {
    forward_seconds: vllm_telemetry::Histogram,
    all_reduce_seconds: vllm_telemetry::Histogram,
    cache_op_seconds: vllm_telemetry::Histogram,
    all_reduces_total: vllm_telemetry::Counter,
    steps_total: vllm_telemetry::Counter,
    kernels: KernelTelemetry,
}

/// Tensor-parallel CPU executor over `num_workers` head shards.
#[derive(Debug)]
pub struct TensorParallelExecutor {
    model: Transformer,
    workers: Vec<Worker>,
    num_workers: usize,
    /// Number of all-reduce operations performed (metrics; two per layer per
    /// forward, as in Megatron-LM).
    pub num_all_reduces: u64,
    /// Total iterations executed.
    pub steps: u64,
    telemetry: Option<TpTelemetry>,
}

impl TensorParallelExecutor {
    /// Shards `model` across `num_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` does not divide the model's head count.
    #[must_use]
    pub fn new(model: Transformer, num_workers: usize, cache_config: &CacheConfig) -> Self {
        let cfg = &model.config;
        assert!(num_workers > 0, "need at least one worker");
        assert_eq!(
            cfg.n_heads % num_workers,
            0,
            "workers ({num_workers}) must divide heads ({})",
            cfg.n_heads
        );
        let h = cfg.hidden;
        let hl = h / num_workers; // Local hidden (heads split evenly).
        let m = 4 * h;
        let ml = m / num_workers; // Local MLP intermediate width.

        // Worker KV shards use the backend's element layout, like the
        // single-worker executor's cache.
        let element = model.backend().kv_layout().element;

        let workers = (0..num_workers)
            .map(|w| {
                let layers = model
                    .layers
                    .iter()
                    .map(|lw| {
                        // QKV: take this worker's head columns of Q, K, V.
                        let mut w_qkv = Vec::with_capacity(h * 3 * hl);
                        for r in 0..h {
                            let row = &lw.w_qkv[r * 3 * h..(r + 1) * 3 * h];
                            for part in 0..3 {
                                let base = part * h + w * hl;
                                w_qkv.extend_from_slice(&row[base..base + hl]);
                            }
                        }
                        let mut b_qkv = Vec::with_capacity(3 * hl);
                        for part in 0..3 {
                            let base = part * h + w * hl;
                            b_qkv.extend_from_slice(&lw.b_qkv[base..base + hl]);
                        }
                        // Output projection: this worker's head rows.
                        let w_o = lw.w_o[w * hl * h..(w + 1) * hl * h].to_vec();
                        // MLP: columns of fc, rows of proj.
                        let mut w_fc = Vec::with_capacity(h * ml);
                        for r in 0..h {
                            let row = &lw.w_fc[r * m..(r + 1) * m];
                            w_fc.extend_from_slice(&row[w * ml..(w + 1) * ml]);
                        }
                        let b_fc = lw.b_fc[w * ml..(w + 1) * ml].to_vec();
                        let w_proj = lw.w_proj[w * ml * h..(w + 1) * ml * h].to_vec();
                        LayerShard {
                            w_qkv,
                            b_qkv,
                            w_o,
                            w_fc,
                            b_fc,
                            w_proj,
                        }
                    })
                    .collect();
                Worker {
                    layers,
                    cache: KvCache::with_element(
                        cfg.n_layers,
                        cache_config.num_gpu_blocks,
                        cache_config.num_cpu_blocks.max(1),
                        cache_config.block_size,
                        hl,
                        element,
                    ),
                }
            })
            .collect();
        Self {
            model,
            workers,
            num_workers,
            num_all_reduces: 0,
            steps: 0,
            telemetry: None,
        }
    }

    /// Number of workers (tensor-parallel degree).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The replicated model (embeddings, layer norms).
    #[must_use]
    pub fn model(&self) -> &Transformer {
        &self.model
    }

    /// One stacked forward over the shards — the tensor-parallel twin of
    /// [`Transformer::forward`]: any mix of prompt rows and decode rows, one
    /// pool task per worker per phase, returning `inputs.len() × vocab`
    /// logits taken at each sequence's last row. Row results do not depend
    /// on what else is stacked (batch-independent matmul accumulation; the
    /// one per-row attention kernel).
    ///
    /// `embedded`, when provided, is the precomputed replicated embedding of
    /// `inputs` (see [`embed`]); `begin_step` computes it while the workers
    /// are still applying the step's cache operations.
    fn forward_tp(&mut self, inputs: &[SeqInput<'_>], embedded: Option<Vec<f32>>) -> Vec<f32> {
        // The replicated stretches of this thread; each worker task charges
        // its own (kernel counters sum across threads).
        let mut clock = OpClock::start();
        let cfg = &self.model.config;
        let h = cfg.hidden;
        let w_count = self.num_workers;
        let heads_local = cfg.n_heads / w_count;
        let hd = cfg.head_dim();
        let hl = h / w_count;
        let ml = 4 * h / w_count;
        let rotary = cfg.position_encoding == PositionEncoding::Rotary;
        let be = self.model.backend();
        let bs = self.workers[0].cache.gpu.block_size();
        for inp in inputs {
            let ctx = inp.first_position + inp.tokens.len();
            assert!(ctx <= cfg.max_position, "position overflow");
            assert!(inp.block_table.len() * bs >= ctx, "block table too short");
        }
        // One (position, block table) per row, sequence after sequence.
        let rows: Vec<(usize, &[usize])> = inputs
            .iter()
            .flat_map(|inp| {
                (inp.first_position..inp.first_position + inp.tokens.len())
                    .map(|pos| (pos, inp.block_table))
            })
            .collect();
        let mut n = rows.len();
        let mut seqs: Vec<SeqRows<'_>> = inputs.iter().map(SeqInput::rows).collect();

        // Replicated embedding (positions via RoPE for rotary models),
        // unless `begin_step` already computed it during the cache-op window.
        let mut x = embedded.unwrap_or_else(|| embed(&self.model, inputs));
        debug_assert_eq!(x.len(), n * h);

        for layer_idx in 0..cfg.n_layers {
            let lw = &self.model.layers[layer_idx];
            // Attention: each worker computes its heads for every row,
            // projects through its w_o rows, and the partials are
            // all-reduced (summed).
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln1_g, &lw.ln1_b, LN_EPS);
            // Past the last layer's K/V writes only each input's last row
            // is read again, as in `Transformer::forward`: the attention,
            // everything after it and the residual shrink to those rows.
            let n_in = n;
            if layer_idx + 1 == cfg.n_layers && n > inputs.len() {
                x = last_rows(&x, inputs, h);
                seqs = inputs.iter().map(SeqInput::last_row).collect();
                n = inputs.len();
            }
            let mut partials = vec![vec![0.0f32; n * h]; w_count];
            clock.elementwise();
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter_mut().zip(partials.iter_mut()) {
                    let (hst, rows, seqs) = (&hst, &rows, &seqs);
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut qkv = vec![0.0f32; n_in * 3 * hl];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_qkv, n_in, h, 3 * hl, &mut qkv);
                        timing::record_matmul(t_mm.elapsed());
                        let mut clock = OpClock::start();
                        add_bias(&mut qkv, &shard.b_qkv);
                        // Write local K/V slices into this worker's pool
                        // under the shared block table.
                        let mut q = vec![0.0f32; n_in * hl];
                        for (i, &(pos, block_table)) in rows.iter().enumerate() {
                            let row = &mut qkv[i * 3 * hl..(i + 1) * 3 * hl];
                            if rotary {
                                let (q_part, kv_part) = row.split_at_mut(hl);
                                apply_rope(q_part, pos, hd);
                                apply_rope(&mut kv_part[..hl], pos, hd);
                            }
                            worker.cache.gpu.write(
                                layer_idx,
                                block_table[pos / bs],
                                pos % bs,
                                &row[hl..2 * hl],
                                &row[2 * hl..3 * hl],
                            );
                            q[i * hl..(i + 1) * hl].copy_from_slice(&row[..hl]);
                        }
                        if n < n_in {
                            q = last_rows(&q, inputs, hl);
                        }
                        let mut attn = vec![0.0f32; n * hl];
                        clock.elementwise();
                        be.paged_attention(
                            &q,
                            &worker.cache.gpu,
                            layer_idx,
                            seqs,
                            heads_local,
                            hd,
                            pool::global(),
                            &mut attn,
                        );
                        let t_mm = Instant::now();
                        be.matmul_serial(&attn, &shard.w_o, n, hl, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            clock.skip();
            all_reduce(&partials, &lw.b_o, &mut x, self.telemetry.as_ref());
            self.num_all_reduces += 1;

            // MLP: column/row split with one more all-reduce.
            let mut hst = x.clone();
            layer_norm(&mut hst, &lw.ln2_g, &lw.ln2_b, LN_EPS);
            let mut partials = vec![vec![0.0f32; n * h]; w_count];
            clock.elementwise();
            pool::global().scoped(|s| {
                for (worker, partial) in self.workers.iter().zip(partials.iter_mut()) {
                    let hst = &hst;
                    s.spawn(move || {
                        let shard = &worker.layers[layer_idx];
                        let mut mid = vec![0.0f32; n * ml];
                        let t_mm = Instant::now();
                        be.matmul_serial(hst, &shard.w_fc, n, h, ml, &mut mid);
                        timing::record_matmul(t_mm.elapsed());
                        let mut clock = OpClock::start();
                        add_bias(&mut mid, &shard.b_fc);
                        clock.elementwise();
                        gelu(&mut mid);
                        clock.activation();
                        let t_mm = Instant::now();
                        be.matmul_serial(&mid, &shard.w_proj, n, ml, h, partial);
                        timing::record_matmul(t_mm.elapsed());
                    });
                }
            });
            clock.skip();
            all_reduce(&partials, &lw.b_proj, &mut x, self.telemetry.as_ref());
            self.num_all_reduces += 1;
        }

        // Replicated LM head on each sequence's last row.
        let mut last = x;
        layer_norm(&mut last, &self.model.ln_f_g, &self.model.ln_f_b, LN_EPS);
        let vocab = cfg.vocab_size;
        let mut logits = vec![0.0f32; inputs.len() * vocab];
        clock.elementwise();
        be.matmul_logits(
            &last,
            &self.model.wte_t,
            inputs.len(),
            h,
            vocab,
            &mut logits,
        );
        logits
    }
}

/// All-reduce: sums the workers' partials, adds the (replicated) bias once,
/// and adds the result onto the residual stream `x`.
fn all_reduce(partials: &[Vec<f32>], bias: &[f32], x: &mut [f32], telemetry: Option<&TpTelemetry>) {
    let start = Instant::now();
    let mut reduced = vec![0.0f32; x.len()];
    for p in partials {
        add_inplace(&mut reduced, p);
    }
    if let Some(t) = telemetry {
        t.all_reduce_seconds.observe(start.elapsed().as_secs_f64());
        t.all_reduces_total.inc();
    }
    add_bias(&mut reduced, bias);
    add_inplace(x, &reduced);
}

impl ModelExecutor for TensorParallelExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = Instant::now();
        let kernels_before = timing::snapshot();
        self.steps += 1;
        let inputs = step_inputs(plan)?;
        let first_prefill = inputs.iter().position(|inp| inp.tokens.len() > 1);
        // Every worker applies the same cache operations to its shard (block
        // ids are shared, data differs per head slice) — on a pool task per
        // worker, overlapped with the first prefill's replicated embedding:
        // copies touch only KV pools, the embedding only replicated weights,
        // so the two never alias (§4.3: memory ops ride the step's control
        // message and can proceed while compute starts).
        let cache_op_start = Instant::now();
        let mut first_embedding = {
            let Self { workers, model, .. } = &mut *self;
            pool::global().scoped(|s| {
                for worker in workers.iter_mut() {
                    let ops = &plan.cache_ops;
                    s.spawn(move || worker.cache.apply(ops));
                }
                first_prefill.map(|i| embed(model, &inputs[i..=i]))
            })
        };
        if let Some(t) = &self.telemetry {
            if !plan.cache_ops.is_empty() {
                t.cache_op_seconds
                    .observe(cache_op_start.elapsed().as_secs_f64());
            }
        }
        // Multi-row inputs run first, in plan order, so the first forward
        // is the one the precomputed embedding belongs to.
        let vocab = self.model.config.vocab_size;
        let outputs = run_forwards(plan, &inputs, vocab, |batch| {
            self.forward_tp(batch, first_embedding.take())
        });
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(t) = &self.telemetry {
            t.forward_seconds.observe(elapsed);
            t.steps_total.inc();
            t.kernels.observe_step(&kernels_before);
        }
        Ok(StepResult {
            outputs,
            elapsed,
            kernels: kernel_timings(&kernels_before),
        })
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let r = telemetry.registry();
        self.telemetry = Some(TpTelemetry {
            forward_seconds: r.histogram(
                "vllm_executor_forward_seconds",
                "Model forward pass wall time per step (tensor-parallel backend).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            all_reduce_seconds: r.histogram(
                "vllm_executor_all_reduce_seconds",
                "Wall time of each all-reduce (partial summation) across workers.",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            cache_op_seconds: r.histogram(
                "vllm_executor_cache_op_seconds",
                "Wall time of the per-step cache-operation window (overlapped with the first embedding).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            all_reduces_total: r.counter(
                "vllm_executor_all_reduces_total",
                "All-reduce operations performed (two per layer per forward).",
            ),
            steps_total: r.counter(
                "vllm_executor_steps_total",
                "Iterations executed by the model executor.",
            ),
            kernels: KernelTelemetry::register(r, self.model.config.backend.name()),
        });
    }

    fn backend_label(&self) -> &str {
        self.model.config.backend.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::executor::CpuModelExecutor;
    use crate::kv_cache::KvPool;
    use vllm_core::config::SchedulerConfig;
    use vllm_core::engine::LlmEngine;
    use vllm_core::sampling::SamplingParams;

    fn cache_cfg() -> CacheConfig {
        CacheConfig::new(4, 64, 16).unwrap()
    }

    fn seq<'a>(tokens: &'a [u32], first_position: usize, block_table: &'a [usize]) -> SeqInput<'a> {
        SeqInput {
            tokens,
            first_position,
            block_table,
        }
    }

    #[test]
    fn tp_logits_match_serial() {
        let cfg = ModelConfig::tiny();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![5, 2, 7];
        let tokens = [4u32, 9, 1, 17, 3];
        let positions: Vec<usize> = (0..5).collect();
        let expect = serial.forward_paged(&tokens, &positions, &mut pool, &table);

        for workers in [1, 2, 4] {
            let mut tp =
                TensorParallelExecutor::new(Transformer::new(cfg.clone()), workers, &cache_cfg());
            let got = tp.forward_tp(&[seq(&tokens, 0, &table)], None);
            for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() < 2e-3,
                    "workers={workers} logit {i}: {a} vs {b}"
                );
            }
            assert_eq!(tp.num_all_reduces, 2 * cfg.n_layers as u64);
        }
    }

    #[test]
    fn tp_decode_matches_serial_decode() {
        let cfg = ModelConfig::tiny();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![1, 6];
        serial.forward_paged(&[4, 9, 1], &[0, 1, 2], &mut pool, &table);
        let expect = serial.forward_paged(&[7], &[3], &mut pool, &table);

        let mut tp = TensorParallelExecutor::new(Transformer::new(cfg), 2, &cache_cfg());
        tp.forward_tp(&[seq(&[4, 9, 1], 0, &table)], None);
        let got = tp.forward_tp(&[seq(&[7], 3, &table)], None);
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert!((a - b).abs() < 2e-3, "logit {i}: {a} vs {b}");
        }
    }

    #[test]
    fn tp_engine_generates_same_tokens_as_serial_engine() {
        let run_serial = || {
            let cache = cache_cfg();
            let sched = SchedulerConfig::new(512, 16, 512).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
            let mut e = LlmEngine::new(exec, cache, sched);
            e.add_request("r", vec![8, 2, 6, 4], SamplingParams::greedy(8))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let run_tp = |w: usize| {
            let cache = cache_cfg();
            let sched = SchedulerConfig::new(512, 16, 512).unwrap();
            let exec =
                TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), w, &cache_cfg());
            let mut e = LlmEngine::new(exec, cache, sched);
            e.add_request("r", vec![8, 2, 6, 4], SamplingParams::greedy(8))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let serial = run_serial();
        assert_eq!(serial, run_tp(1));
        assert_eq!(serial, run_tp(2));
        assert_eq!(serial, run_tp(4));
    }

    #[test]
    fn tp_swap_preemption_round_trips() {
        use vllm_core::config::PreemptionMode;
        let cache = CacheConfig::new(4, 7, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 512)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let exec = TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), 2, &cache);
        let mut e = LlmEngine::new(exec, cache, sched);
        e.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        e.add_request_at("b", vec![9, 10, 11, 12], SamplingParams::greedy(10), 1e-6)
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 2);
        assert!(e.scheduler().stats().num_swap_preemptions > 0);

        // Compare against an uncontended serial run.
        let cache2 = cache_cfg();
        let sched2 = SchedulerConfig::new(512, 16, 512).unwrap();
        let exec2 = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache2);
        let mut e2 = LlmEngine::new(exec2, cache2, sched2);
        e2.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        let solo = e2.run_to_completion().unwrap();
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        assert_eq!(a.outputs[0].tokens, solo[0].outputs[0].tokens);
    }

    #[test]
    #[should_panic(expected = "must divide heads")]
    fn invalid_worker_count_panics() {
        let _ = TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), 3, &cache_cfg());
    }

    #[test]
    fn tp_rotary_matches_serial() {
        // RoPE must be applied identically on head shards (per-head chunks).
        let cfg = ModelConfig::tiny_rotary();
        let serial = Transformer::new(cfg.clone());
        let mut pool = KvPool::new(cfg.n_layers, 8, 4, cfg.hidden);
        let table: Vec<usize> = vec![3, 6];
        let tokens = [4u32, 9, 1, 17, 3];
        let positions: Vec<usize> = (0..5).collect();
        let expect = serial.forward_paged(&tokens, &positions, &mut pool, &table);
        for workers in [2, 4] {
            let mut tp =
                TensorParallelExecutor::new(Transformer::new(cfg.clone()), workers, &cache_cfg());
            let got = tp.forward_tp(&[seq(&tokens, 0, &table)], None);
            for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() < 2e-3,
                    "workers={workers} logit {i}: {a} vs {b}"
                );
            }
        }
    }
}
