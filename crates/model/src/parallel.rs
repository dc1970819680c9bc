//! Megatron-style tensor-parallel execution (§4.6).
//!
//! The attention operator is split on the head dimension; the MLP on its
//! intermediate dimension. Every worker holds a weight shard plus a paged
//! KV pool *for its heads only*, while all workers share the single block
//! table handed down by the centralized scheduler — each worker sees the
//! same physical block ids but stores only its slice of the KV cache, as in
//! the paper. The forward pass is the model's own: [`Transformer::forward`]
//! is the one-shard case of the pass run here over N shards, one pool task
//! per worker per phase, with the workers' partial results combined by an
//! all-reduce (a sum across worker partials) after the attention output
//! projection and after the MLP down projection.

use std::time::Instant;

use vllm_core::config::CacheConfig;
use vllm_core::error::Result;
use vllm_core::executor::{ModelExecutor, StepResult};
use vllm_core::plan::StepPlan;

use crate::executor::{book_kernels, kernel_histograms, run_forwards, sample_rows, step_inputs};
use crate::gemm::Panels;
use crate::kv_cache::KvCache;
use crate::ops::timing::OpClock;
use crate::pool;
use crate::sampler::Sampler;
use crate::transformer::{LayerShard, SeqInput, Shard, Transformer};

/// Worker `w` of `n`'s part of `full`, a whole layer of a model `h` wide.
fn cut(full: &LayerShard, h: usize, w: usize, n: usize) -> LayerShard {
    let hl = h / n; // Local hidden (heads split evenly).
    let ml = 4 * h / n; // Local MLP intermediate width.
    let qkv_col = |c: usize| c / hl * h + w * hl + c % hl;
    LayerShard {
        // QKV: this worker's head columns of Q, K and V.
        w_qkv: Panels::from_fn(h, 3 * hl, |p, c| full.w_qkv.get(p, qkv_col(c))),
        b_qkv: (0..3 * hl).map(|c| full.b_qkv[qkv_col(c)]).collect(),
        // Output projection: this worker's head rows.
        w_o: Panels::from_fn(hl, h, |p, c| full.w_o.get(w * hl + p, c)),
        // MLP: columns of fc, rows of proj.
        w_fc: Panels::from_fn(h, ml, |p, c| full.w_fc.get(p, w * ml + c)),
        b_fc: full.b_fc[w * ml..(w + 1) * ml].to_vec(),
        w_proj: Panels::from_fn(ml, h, |p, c| full.w_proj.get(w * ml + p, c)),
    }
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
    all_reduce_seconds: vllm_telemetry::Histogram,
    cache_op_seconds: vllm_telemetry::Histogram,
    all_reduces_total: vllm_telemetry::Counter,
}

/// Tensor-parallel CPU executor over `num_workers` head shards.
#[derive(Debug)]
pub struct TensorParallelExecutor {
    model: Transformer,
    workers: Vec<Worker>,
    /// Number of all-reduce operations performed (metrics; two per layer per
    /// forward, as in Megatron-LM).
    pub num_all_reduces: u64,
    /// Total iterations executed.
    pub steps: u64,
    telemetry: Option<TpTelemetry>,
    /// The `vllm_model_kernel_*` histograms, registered with the rest of
    /// the telemetry (none before).
    kernels: Vec<vllm_telemetry::Histogram>,
    sampler: Sampler,
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
        // Worker KV shards use the backend's element layout, like the
        // single-worker executor's cache.
        let element = model.backend().kv_layout().element;
        let workers = (0..num_workers)
            .map(|w| Worker {
                layers: model
                    .shard
                    .iter()
                    .map(|full| cut(full, h, w, num_workers))
                    .collect(),
                cache: KvCache::with_element(
                    cfg.n_layers,
                    cache_config.num_gpu_blocks,
                    cache_config.num_cpu_blocks.max(1),
                    cache_config.block_size,
                    h / num_workers,
                    element,
                ),
            })
            .collect();
        Self {
            model,
            workers,
            num_all_reduces: 0,
            steps: 0,
            telemetry: None,
            kernels: Vec::new(),
            sampler: Sampler::default(),
        }
    }

    /// Number of workers (tensor-parallel degree).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The replicated model (embeddings, layer norms).
    #[must_use]
    pub fn model(&self) -> &Transformer {
        &self.model
    }

    /// [`Transformer::forward`] over the workers' shards.
    fn forward(&mut self, inputs: &[SeqInput<'_>], clock: &mut OpClock) -> Vec<f32> {
        let mut shards: Vec<Shard<'_>> = self
            .workers
            .iter_mut()
            .map(|w| Shard {
                layers: &w.layers,
                kv: &mut w.cache.gpu,
            })
            .collect();
        let (all_reduces, telemetry) = (&mut self.num_all_reduces, &self.telemetry);
        let be = self.model.backend();
        self.model
            .forward_shards(be, inputs, &mut shards, clock, |summed| {
                *all_reduces += 1;
                if let Some(t) = telemetry {
                    t.all_reduce_seconds.observe(summed.as_secs_f64());
                    t.all_reduces_total.inc();
                }
            })
    }
}

impl ModelExecutor for TensorParallelExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = Instant::now();
        self.steps += 1;
        let inputs = step_inputs(plan)?;
        // Every worker applies the same cache operations to its shard (block
        // ids are shared, data differs per head slice), on a pool task each.
        let cache_op_start = Instant::now();
        let mut applied: Vec<Result<()>> = self.workers.iter().map(|_| Ok(())).collect();
        pool::global().scoped(|s| {
            for (worker, applied) in self.workers.iter_mut().zip(&mut applied) {
                let ops = &plan.cache_ops;
                s.spawn(move || *applied = worker.cache.apply(ops));
            }
        });
        if let Some(t) = &self.telemetry {
            if !plan.cache_ops.is_empty() {
                t.cache_op_seconds
                    .observe(cache_op_start.elapsed().as_secs_f64());
            }
        }
        applied.into_iter().collect::<Result<()>>()?;
        let vocab = self.model.config.vocab_size;
        // One op clock for the step's forwards and its sampling.
        let mut clock = OpClock::start();
        let logits = run_forwards(&inputs, vocab, |batch| self.forward(batch, &mut clock));
        let outputs = sample_rows(plan, &logits, vocab, &mut self.sampler, &mut clock);
        // Freed within the forward time: what follows it is instruments.
        drop((logits, inputs));
        let reading = clock.finish();
        let elapsed = start.elapsed().as_secs_f64();
        Ok(StepResult {
            outputs,
            elapsed,
            kernels: book_kernels(&reading, &self.kernels),
        })
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let r = telemetry.registry();
        self.telemetry = Some(TpTelemetry {
            all_reduce_seconds: r.histogram(
                "vllm_executor_all_reduce_seconds",
                "Wall time of each all-reduce (partial summation) across workers.",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            cache_op_seconds: r.histogram(
                "vllm_executor_cache_op_seconds",
                "Wall time of the per-step cache-operation window (every worker's pool, in parallel).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            all_reduces_total: r.counter(
                "vllm_executor_all_reduces_total",
                "All-reduce operations performed (two per layer per forward).",
            ),
        });
        self.kernels = kernel_histograms(r, self.model.config.backend.name());
    }

    fn backend_label(&self) -> &str {
        self.model.config.backend.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, KvElement};
    use crate::config::ModelConfig;
    use crate::executor::CpuModelExecutor;
    use crate::kv_cache::KvPool;
    use vllm_core::config::SchedulerConfig;
    use vllm_core::engine::LlmEngine;
    use vllm_core::sampling::SamplingParams;

    fn cache_cfg() -> CacheConfig {
        CacheConfig::new(4, 64, 16).unwrap()
    }

    /// Learned and rotary positions, each on both KV elements.
    fn models() -> Vec<ModelConfig> {
        let configs = [ModelConfig::tiny(), ModelConfig::tiny_rotary()];
        let with = |cfg: &ModelConfig, backend: BackendKind| ModelConfig {
            backend,
            ..cfg.clone()
        };
        let all = |cfg| BackendKind::all().map(|b| with(cfg, b));
        configs.iter().flat_map(all).collect()
    }

    fn seq<'a>(tokens: &'a [u32], first_position: usize, block_table: &'a [usize]) -> SeqInput<'a> {
        SeqInput {
            tokens,
            first_position,
            block_table,
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sharded_forward_matches_the_one_shard_forward() {
        // Two prompts, then a mixed stack: a decode row, a chunk continuing
        // the second prompt mid-block, and a fresh prompt.
        let tables: [&[usize]; 3] = [&[5, 2, 7], &[0, 9, 3], &[11, 4]];
        let prompts: [&[u32]; 3] = [&[4, 9, 1, 17, 3], &[8, 25, 99], &[7, 1, 2, 3, 4, 5]];
        let first = [seq(prompts[0], 0, tables[0]), seq(prompts[1], 0, tables[1])];
        let mixed = [
            seq(&[61], 5, tables[0]),
            seq(&[5, 6, 7, 8, 9], 3, tables[1]),
            seq(prompts[2], 0, tables[2]),
        ];
        for cfg in models() {
            let model = Transformer::new(cfg.clone());
            let element = model.backend().kv_layout().element;
            let mut kv = KvPool::with_element(cfg.n_layers, 64, 4, cfg.hidden, element);
            // An int8 K/V vector is scaled by its own largest element, and
            // a shard stores a slice of the whole vector: sharded int8 KV is
            // another quantization (off by up to 0.018 here), f32 KV only
            // another summation order.
            let tolerance = match element {
                KvElement::F32 => 2e-3,
                KvElement::Int8Scaled => 5e-2,
            };
            let expect = [
                model.forward(&first, &mut kv),
                model.forward(&mixed, &mut kv),
            ];
            for workers in [1, 2, 4] {
                let mut tp = TensorParallelExecutor::new(model.clone(), workers, &cache_cfg());
                let clock = &mut OpClock::start();
                let got = [tp.forward(&first, clock), tp.forward(&mixed, clock)];
                let at = format!("{cfg:?} on {workers} workers");
                assert_eq!(tp.num_all_reduces, 2 * 2 * cfg.n_layers as u64, "{at}");
                for (expect, got) in expect.iter().zip(&got) {
                    if workers == 1 {
                        assert_eq!(bits(got), bits(expect), "{at}");
                        continue;
                    }
                    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
                        assert!((a - b).abs() < tolerance, "{at}: logit {i}: {a} vs {b}");
                    }
                }
            }
        }
    }

    /// Every output (tokens and cumulative-logprob bits) of a beam request
    /// whose prompt starts with the cached first block of a finished one.
    fn engine_outputs<E: ModelExecutor>(exec: E) -> Vec<(Vec<u32>, u64)> {
        let cache = cache_cfg();
        let sched = SchedulerConfig::new(512, 16, 512).unwrap();
        let mut e = LlmEngine::new(exec, cache, sched);
        e.add_request("warm", vec![8, 2, 6, 4, 9], SamplingParams::greedy(2))
            .unwrap();
        e.run_to_completion().unwrap();
        e.add_request("r", vec![8, 2, 6, 4, 9, 1, 3], SamplingParams::beam(2, 8))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        let bits = |o: &vllm_core::engine::CompletionOutput| {
            (o.tokens.clone(), o.cumulative_logprob.to_bits())
        };
        outs[0].outputs.iter().map(bits).collect()
    }

    #[test]
    fn tp_engine_generates_same_tokens_as_serial_engine() {
        for cfg in models() {
            let serial = engine_outputs(CpuModelExecutor::from_config(cfg.clone(), &cache_cfg()));
            for workers in [1, 2, 4] {
                let model = Transformer::new(cfg.clone());
                let tp = engine_outputs(TensorParallelExecutor::new(model, workers, &cache_cfg()));
                if workers == 1 {
                    assert_eq!(tp, serial, "{cfg:?}");
                } else {
                    let tokens =
                        |o: &[(Vec<u32>, u64)]| o.iter().map(|t| t.0.clone()).collect::<Vec<_>>();
                    assert_eq!(tokens(&tp), tokens(&serial), "{cfg:?} on {workers} workers");
                }
            }
        }
    }

    #[test]
    fn installing_full_width_kv_into_shards_fails_and_caches_nothing() {
        // A CPU engine's export is whole blocks; two workers' pools hold
        // half of each. The install must fail, leave nothing cached, and the
        // prompt must then compute what the serial engine computes.
        fn run<E: ModelExecutor>(e: &mut LlmEngine<E>, prompt: &[u32]) -> Vec<u32> {
            e.add_request("r", prompt.to_vec(), SamplingParams::greedy(6))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        }
        let prompt: Vec<u32> = (1..=10).collect();
        let sched = || SchedulerConfig::new(512, 16, 512).unwrap();
        let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache_cfg());
        let mut serial = LlmEngine::new(exec, cache_cfg(), sched());
        let expect = run(&mut serial, &prompt);
        let (tokens, blocks) = serial.export_kv(&prompt);
        assert_eq!(blocks.len(), 2);

        let exec =
            TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), 2, &cache_cfg());
        let mut tp = LlmEngine::new(exec, cache_cfg(), sched());
        let err = tp.install_kv(&tokens, blocks).unwrap_err();
        assert!(
            matches!(err, vllm_core::error::VllmError::Protocol(_)),
            "{err}"
        );
        assert!(tp
            .scheduler()
            .block_manager()
            .cached_blocks(&prompt, usize::MAX)
            .is_empty());
        assert_eq!(run(&mut tp, &prompt), expect);
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
        assert!(e.engine_metrics().scheduler.swap_preemptions_total.get() > 0);

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
}
