//! The CPU executor backing [`vllm_core::LlmEngine`], over one worker or
//! over N Megatron-style tensor-parallel workers (§4.6).
//!
//! The attention operator is split on the head dimension, the MLP on its
//! intermediate dimension. Every worker holds a weight shard and paged KV
//! pools *for its heads only*, while all workers share the single block
//! table handed down by the centralized scheduler: each sees the same
//! physical block ids but stores only its slice of the KV cache, as in the
//! paper. The forward pass is the model's own,
//! [`Transformer::forward`] run over the workers' shards, their partial
//! results summed after the attention output projection and after the MLP
//! down projection. One worker is the case N = 1: it holds the model's
//! projections whole and runs every phase inline.

use std::time::Instant;

use vllm_core::error::{Result, VllmError};
use vllm_core::executor::{KernelTiming, ModelExecutor, SeqStepInput, SeqStepOutput, StepResult};
use vllm_core::plan::StepPlan;

use crate::config::ModelConfig;
use crate::gemm::Panels;
use crate::kv_cache::KvCache;
use crate::ops::timing::{self, OpClock};
use crate::pool;
use crate::sampler::{mix_seed, Sampler};
use crate::transformer::{LayerShard, SeqInput, Shard, Transformer};
use vllm_core::config::CacheConfig;

/// A step's kernel books from its op clock's `reading`: observed into the
/// executor's kernel `histograms` (none before telemetry is attached), and
/// returned as the step result's per-class timings.
fn book_kernels(
    reading: &timing::KernelSnapshot,
    histograms: &[vllm_telemetry::Histogram],
) -> Vec<KernelTiming> {
    let seconds = reading.ns().map(|ns| ns as f64 / 1e9);
    for (histogram, &s) in histograms.iter().zip(&seconds) {
        histogram.observe(s);
    }
    let entry = |(&(name, _), seconds)| KernelTiming { name, seconds };
    timing::CLASSES.iter().zip(seconds).map(entry).collect()
}

/// The forward inputs of a step: for each plan item the rows past what its
/// mapped blocks already hold (shared-prefix prefills and prompt chunks
/// skip their cached tokens; at least one row always runs).
fn step_inputs(plan: &StepPlan) -> Result<Vec<SeqInput<'_>>> {
    plan.items
        .iter()
        .map(|item| {
            if item.tokens.is_empty() {
                return Err(VllmError::Executor("empty step input".into()));
            }
            let skip = item.tokens.len() - item.num_new_tokens();
            Ok(SeqInput {
                tokens: &item.tokens[skip..],
                first_position: item.first_position + skip,
                block_table: &item.block_table,
            })
        })
        .collect()
}

/// Samples each plan item's candidates from its row of `logits` through
/// the executor's `sampler`, charged to `clock` as the step's sampling.
/// What ran since the clock's last mark (the forward's buffers freed) is
/// buffer work: `elementwise`.
fn sample_rows(
    plan: &StepPlan,
    logits: &[f32],
    vocab: usize,
    sampler: &mut Sampler,
    clock: &mut OpClock,
) -> Vec<SeqStepOutput> {
    clock.elementwise();
    let sample = |(item, logits): (&SeqStepInput, &[f32])| {
        let seed = mix_seed(item.seed, item.sample_index, item.context_len());
        SeqStepOutput {
            seq_id: item.seq_id,
            candidates: sampler.sample(logits, item.mode, item.num_candidates, seed),
        }
    };
    let rows = plan.items.iter().zip(logits.chunks_exact(vocab));
    let outputs = rows.map(sample).collect();
    clock.sampling();
    outputs
}

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

/// One worker: its shard of every layer and the KV cache of its heads.
#[derive(Debug)]
struct Worker {
    layers: Vec<LayerShard>,
    cache: KvCache,
}

/// The workers as the forward pass's shards, over their GPU pools.
fn shards<'a>(workers: &'a mut [Worker]) -> Vec<Shard<'a>> {
    let shard = |w: &'a mut Worker| Shard {
        layers: &w.layers,
        kv: &mut w.cache.gpu,
    };
    workers.iter_mut().map(shard).collect()
}

/// Executes scheduled iterations on a CPU transformer with a paged KV
/// cache, over one or more head-sharded workers (see the module docs).
#[derive(Debug)]
pub struct CpuModelExecutor {
    /// The replicated weights (embeddings, norms, output biases, LM head);
    /// the workers took its projections.
    model: Transformer,
    workers: Vec<Worker>,
    /// Total tokens whose KV cache was computed (metrics).
    pub tokens_processed: u64,
    /// The `vllm_model_kernel_*` histograms, registered when the engine
    /// attaches its telemetry bundle (none before).
    kernels: Vec<vllm_telemetry::Histogram>,
    sampler: Sampler,
}

impl CpuModelExecutor {
    /// Builds a one-worker executor and its paged KV storage.
    #[must_use]
    pub fn new(model: Transformer, cache_config: &CacheConfig) -> Self {
        Self::sharded(model, 1, cache_config)
    }

    /// Convenience constructor from a model configuration.
    #[must_use]
    pub fn from_config(model_config: ModelConfig, cache_config: &CacheConfig) -> Self {
        Self::new(Transformer::new(model_config), cache_config)
    }

    /// Shards `model` across `num_workers` workers, each with KV storage
    /// for its heads. One worker takes the model's projections whole; N
    /// workers cut their slices from them and keep no full-width copy.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero or does not divide the model's head
    /// count.
    #[must_use]
    pub fn sharded(mut model: Transformer, num_workers: usize, cache_config: &CacheConfig) -> Self {
        let cfg = &model.config;
        assert!(num_workers > 0, "need at least one worker");
        assert_eq!(
            cfg.n_heads % num_workers,
            0,
            "workers ({num_workers}) must divide heads ({})",
            cfg.n_heads
        );
        let h = cfg.hidden;
        let full = std::mem::take(&mut model.shard);
        let layers = if num_workers == 1 {
            vec![full]
        } else {
            let worker = |w| full.iter().map(|l| cut(l, h, w, num_workers)).collect();
            (0..num_workers).map(worker).collect()
        };
        // The backend dictates how KV bytes are laid out (f32 vs int8 with
        // per-slot scales), so the cache is allocated in its element type.
        let element = model.backend().kv_layout().element;
        let worker = |layers| Worker {
            layers,
            cache: KvCache::with_element(
                model.config.n_layers,
                cache_config.num_gpu_blocks,
                cache_config.num_cpu_blocks.max(1),
                cache_config.block_size,
                h / num_workers,
                element,
            ),
        };
        let workers = layers.into_iter().map(worker).collect();
        Self {
            model,
            workers,
            tokens_processed: 0,
            kernels: Vec::new(),
            sampler: Sampler::default(),
        }
    }
}

impl ModelExecutor for CpuModelExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = Instant::now();
        // Cache operations first (§4.3: memory-management instructions
        // arrive with the step's control message). Every worker applies
        // them to its pools (block ids are shared, the data is its heads'
        // slice): inline for one worker, else on a pool task each.
        let ops = &plan.cache_ops;
        if let [worker] = &mut self.workers[..] {
            worker.cache.apply(ops)?;
        } else {
            let mut applied: Vec<Result<()>> = self.workers.iter().map(|_| Ok(())).collect();
            pool::global().scoped(|s| {
                for (worker, applied) in self.workers.iter_mut().zip(&mut applied) {
                    s.spawn(move || *applied = worker.cache.apply(ops));
                }
            });
            applied.into_iter().collect::<Result<()>>()?;
        }

        let inputs = step_inputs(plan)?;
        self.tokens_processed += inputs
            .iter()
            .map(|inp| inp.tokens.len() as u64)
            .sum::<u64>();
        let (model, mut shards) = (&self.model, shards(&mut self.workers));
        let (be, vocab) = (model.backend(), model.config.vocab_size);
        // One op clock for the step's forward and its sampling. The forward
        // is every input of the step stacked (§4.3); a plan with no items
        // (installs, swap-only steps) runs none.
        let mut clock = OpClock::start();
        let logits = if inputs.is_empty() {
            Vec::new()
        } else {
            model.forward_shards(be, &inputs, &mut shards, &mut clock)
        };
        let outputs = sample_rows(plan, &logits, vocab, &mut self.sampler, &mut clock);
        // Freed within the forward time: what follows it is instruments.
        drop((logits, inputs, shards));
        let reading = clock.finish();
        let elapsed = start.elapsed().as_secs_f64();
        Ok(StepResult {
            outputs,
            elapsed,
            kernels: book_kernels(&reading, &self.kernels),
        })
    }

    /// Registers the per-class kernel histograms
    /// (`vllm_model_kernel_*_seconds`, in the order of
    /// [`timing::CLASSES`]), labeled with the kernel backend serving the
    /// model (`{backend="simd"}` etc.).
    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let backend = self.model.config.backend.name();
        let histogram = |&(name, help): &(&str, &str)| {
            let name = format!("vllm_model_kernel_{name}_seconds{{backend=\"{backend}\"}}");
            let seconds = vllm_telemetry::BucketSpec::seconds();
            telemetry.registry().histogram(&name, help, seconds)
        };
        self.kernels = timing::CLASSES.iter().map(histogram).collect();
    }

    fn backend_label(&self) -> &str {
        self.model.config.backend.name()
    }

    /// One worker's blocks, whole. N workers each hold a slice of every
    /// block's K/V, so none can export a whole one: their blocks come back
    /// empty-bodied, and an install rejects them.
    fn export_kv_blocks(
        &self,
        blocks: &[vllm_core::block::PhysicalBlockId],
    ) -> Vec<vllm_core::handoff::KvBlockBytes> {
        let export = |&b| match &self.workers[..] {
            [worker] => worker.cache.gpu.export_block_bytes(b),
            _ => vllm_core::handoff::KvBlockBytes::empty(),
        };
        blocks.iter().map(export).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, KvElement};
    use crate::kv_cache::KvPool;
    use vllm_core::config::SchedulerConfig;
    use vllm_core::engine::LlmEngine;
    use vllm_core::sampling::SamplingParams;

    fn engine(gpu_blocks: usize) -> LlmEngine<CpuModelExecutor> {
        let cache = CacheConfig::new(4, gpu_blocks, gpu_blocks).unwrap();
        let sched = SchedulerConfig::new(512, 32, 512).unwrap();
        let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
        LlmEngine::new(exec, cache, sched)
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let run = || {
            let mut e = engine(64);
            e.add_request("r", vec![5, 9, 13], SamplingParams::greedy(8))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let a = run();
        assert_eq!(a.len(), 8);
        assert_eq!(a, run());
    }

    #[test]
    fn batched_requests_match_solo_runs() {
        // Greedy outputs must be independent of batching/scheduling.
        let solo = |prompt: Vec<u32>| {
            let mut e = engine(128);
            e.add_request("r", prompt, SamplingParams::greedy(6))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let a_solo = solo(vec![3, 1, 4, 1, 5]);
        let b_solo = solo(vec![2, 7, 18, 28]);

        let mut e = engine(128);
        e.add_request("a", vec![3, 1, 4, 1, 5], SamplingParams::greedy(6))
            .unwrap();
        e.add_request("b", vec![2, 7, 18, 28], SamplingParams::greedy(6))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        let b = outs.iter().find(|o| o.request_id == "b").unwrap();
        assert_eq!(a.outputs[0].tokens, a_solo);
        assert_eq!(b.outputs[0].tokens, b_solo);
    }

    #[test]
    fn recompute_preemption_is_transparent() {
        // Force preemption with a tiny pool; greedy output must equal the
        // uncontended run (recomputation is exact, §4.5).
        let solo = {
            let mut e = engine(64);
            e.add_request(
                "a",
                vec![1, 2, 3, 4, 5, 6, 7, 8],
                SamplingParams::greedy(10),
            )
            .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let mut e = engine(7);
        e.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        e.add_request_at("b", vec![9, 10, 11, 12], SamplingParams::greedy(10), 1e-6)
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert!(
            e.engine_metrics().scheduler.preemptions_total.get() > 0,
            "test needs contention"
        );
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        assert_eq!(a.outputs[0].tokens, solo);
    }

    #[test]
    fn swap_preemption_is_transparent() {
        use vllm_core::config::PreemptionMode;
        let solo = {
            let mut e = engine(64);
            e.add_request(
                "a",
                vec![1, 2, 3, 4, 5, 6, 7, 8],
                SamplingParams::greedy(10),
            )
            .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        };
        let cache = CacheConfig::new(4, 7, 16).unwrap();
        let sched = SchedulerConfig::new(512, 32, 512)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
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
        assert!(
            e.engine_metrics().scheduler.swap_preemptions_total.get() > 0,
            "test needs swap preemption"
        );
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        assert_eq!(a.outputs[0].tokens, solo);
    }

    #[test]
    fn parallel_samples_diverge_but_share_prompt() {
        let mut e = engine(64);
        e.add_request(
            "r",
            vec![1, 2, 3, 4, 5, 6],
            SamplingParams::parallel(3, 8).with_seed(7),
        )
        .unwrap();
        e.step().unwrap(); // Prompt step + fork.
        assert!(e.scheduler().block_manager().sharing_savings() > 0.0);
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs.len(), 3);
        let set: std::collections::HashSet<_> =
            outs[0].outputs.iter().map(|o| o.tokens.clone()).collect();
        assert!(set.len() > 1, "samples should diverge");
    }

    #[test]
    fn seeded_samples_do_not_depend_on_arrival_order() {
        // The sampling stream is (request seed, sample index, position):
        // nothing engine-global, so what the engine served before, or is
        // serving beside, cannot change a seeded request's samples.
        let params = || SamplingParams::parallel(4, 12).with_seed(11);
        let prompt = vec![1u32, 2, 3, 4, 5, 6];
        let samples = |e: &mut LlmEngine<CpuModelExecutor>| -> Vec<(Vec<u32>, u64)> {
            let outs = e.run_to_completion().unwrap();
            let r = outs.iter().find(|o| o.request_id == "r").unwrap();
            let bits = |o: &vllm_core::engine::CompletionOutput| {
                (o.tokens.clone(), o.cumulative_logprob.to_bits())
            };
            r.outputs.iter().map(bits).collect()
        };

        let mut alone = engine(128);
        alone.add_request("r", prompt.clone(), params()).unwrap();
        let alone = samples(&mut alone);
        assert_eq!(alone.len(), 4);
        let distinct: std::collections::HashSet<_> = alone.iter().collect();
        assert!(
            distinct.len() > 1,
            "the four samples should diverge: {alone:?}"
        );

        let mut later = engine(128);
        for i in 0..7u32 {
            let unrelated = SamplingParams::parallel(2, 3).with_seed(u64::from(i));
            later
                .add_request(format!("u{i}"), vec![i + 1, 2 * i + 5, 9], unrelated)
                .unwrap();
        }
        later.run_to_completion().unwrap();
        later.add_request("r", prompt.clone(), params()).unwrap();
        assert_eq!(samples(&mut later), alone, "after 7 unrelated requests");

        let mut beside = engine(128);
        let other = SamplingParams::parallel(3, 9).with_seed(5);
        beside.add_request("o", vec![2, 4, 6, 8], other).unwrap();
        beside.add_request("r", prompt, params()).unwrap();
        assert_eq!(
            samples(&mut beside),
            alone,
            "batched beside another request"
        );
    }

    #[test]
    fn beam_search_beats_greedy_logprob() {
        // Beam search must find a hypothesis at least as likely as greedy.
        let prompt = vec![11, 3, 7, 2];
        let mut g = engine(64);
        g.add_request("g", prompt.clone(), SamplingParams::greedy(6))
            .unwrap();
        let greedy = g.run_to_completion().unwrap()[0].outputs[0].clone();

        let mut b = engine(64);
        b.add_request("b", prompt, SamplingParams::beam(4, 6))
            .unwrap();
        let beams = b.run_to_completion().unwrap()[0].outputs.clone();
        assert!(beams[0].cumulative_logprob >= greedy.cumulative_logprob - 1e-4);
    }

    #[test]
    fn prefix_cached_generation_matches_uncached() {
        let prefix: Vec<u32> = (1..=10).collect();
        let suffix: Vec<u32> = vec![20, 21, 22];
        let mut prompt = prefix.clone();
        prompt.extend(&suffix);

        let mut plain = engine(64);
        plain.set_auto_prefix_match(false);
        plain
            .add_request("r", prompt.clone(), SamplingParams::greedy(6))
            .unwrap();
        let expect = plain.run_to_completion().unwrap()[0].outputs[0]
            .tokens
            .clone();

        let mut cached = engine(64);
        cached.register_prefix(&prefix).unwrap();
        cached
            .add_request("r", prompt, SamplingParams::greedy(6))
            .unwrap();
        let got = cached.run_to_completion().unwrap();
        assert_eq!(got[0].outputs[0].tokens, expect);
        // The prefix prefill must have been skipped: fewer tokens processed.
        assert!(cached.executor().tokens_processed < plain.executor().tokens_processed + 10);
    }

    #[test]
    fn beam_width_one_equals_greedy() {
        // Beam search with width 1 degenerates to greedy decoding exactly.
        let prompt = vec![9u32, 4, 11, 6];
        let mut g = engine(64);
        g.add_request("g", prompt.clone(), SamplingParams::greedy(8))
            .unwrap();
        let greedy = g.run_to_completion().unwrap()[0].outputs[0].tokens.clone();
        let mut b = engine(64);
        b.add_request("b", prompt, SamplingParams::beam(1, 8))
            .unwrap();
        let beam = b.run_to_completion().unwrap()[0].outputs[0].tokens.clone();
        assert_eq!(greedy, beam);
    }

    #[test]
    fn wider_beams_never_worse() {
        // Cumulative logprob of the best hypothesis is monotone in width.
        let prompt = vec![2u32, 12, 5];
        let mut best = f64::NEG_INFINITY;
        for width in [1usize, 2, 4, 8] {
            let mut e = engine(128);
            e.add_request("b", prompt.clone(), SamplingParams::beam(width, 6))
                .unwrap();
            let outs = e.run_to_completion().unwrap();
            let top = outs[0].outputs[0].cumulative_logprob;
            assert!(
                top >= best - 1e-5,
                "width {width}: {top} worse than narrower beam {best}"
            );
            best = best.max(top);
        }
    }

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

    /// One forward of `inputs` over `exec`'s workers, as a step runs it.
    fn forward(exec: &mut CpuModelExecutor, inputs: &[SeqInput<'_>]) -> Vec<f32> {
        let be = exec.model.backend();
        let mut shards = shards(&mut exec.workers);
        timing::alone(|clock| exec.model.forward_shards(be, inputs, &mut shards, clock))
    }

    #[test]
    fn one_worker_holds_the_models_projections_and_n_workers_only_their_slices() {
        let model = Transformer::new(ModelConfig::tiny());
        let layers = model.shard.as_ptr();
        let biases: Vec<*const f32> = model.shard.iter().map(|l| l.b_qkv.as_ptr()).collect();
        let one = CpuModelExecutor::new(model, &cache_cfg());
        assert_eq!(
            one.workers[0].layers.as_ptr(),
            layers,
            "the layers moved whole"
        );
        let held = one.workers[0].layers.iter().map(|l| l.b_qkv.as_ptr());
        assert!(held.eq(biases), "the projections moved whole");
        assert!(one.model.shard.is_empty());

        let model = Transformer::new(ModelConfig::tiny());
        let h = model.config.hidden;
        for n in [2, 4] {
            let exec = CpuModelExecutor::sharded(model.clone(), n, &cache_cfg());
            assert!(exec.model.shard.is_empty(), "{n} workers keep no full copy");
            for (w, worker) in exec.workers.iter().enumerate() {
                let slices: Vec<LayerShard> = model.shard.iter().map(|l| cut(l, h, w, n)).collect();
                assert_eq!(worker.layers, slices, "worker {w} of {n}");
                assert_eq!(worker.layers[0].w_qkv.n(), 3 * h / n);
                assert_eq!(worker.cache.gpu.hidden(), h / n);
            }
        }
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
                let mut exec = CpuModelExecutor::sharded(model.clone(), workers, &cache_cfg());
                let got = [forward(&mut exec, &first), forward(&mut exec, &mixed)];
                let at = format!("{cfg:?} on {workers} workers");
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
    fn engine_outputs(exec: CpuModelExecutor) -> Vec<(Vec<u32>, u64)> {
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
                let tp = engine_outputs(CpuModelExecutor::sharded(model, workers, &cache_cfg()));
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
        // A one-worker engine's export is whole blocks; two workers' pools
        // hold half of each. The install must fail, leave nothing cached,
        // and the prompt must then compute what the one worker computes.
        fn run(e: &mut LlmEngine<CpuModelExecutor>, prompt: &[u32]) -> Vec<u32> {
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
            CpuModelExecutor::sharded(Transformer::new(ModelConfig::tiny()), 2, &cache_cfg());
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
        // Nor can two workers export a whole block: theirs come back empty.
        let (_, blocks) = tp.export_kv(&prompt);
        assert_eq!(blocks.len(), 2);
        assert!(blocks
            .iter()
            .all(vllm_core::handoff::KvBlockBytes::is_empty));
    }

    #[test]
    fn tp_swap_preemption_round_trips() {
        use vllm_core::config::PreemptionMode;
        let cache = CacheConfig::new(4, 7, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 512)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let exec = CpuModelExecutor::sharded(Transformer::new(ModelConfig::tiny()), 2, &cache);
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

        // Compare against an uncontended one-worker run.
        let mut solo = engine(64);
        solo.add_request(
            "a",
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            SamplingParams::greedy(10),
        )
        .unwrap();
        let solo = solo.run_to_completion().unwrap();
        let a = outs.iter().find(|o| o.request_id == "a").unwrap();
        assert_eq!(a.outputs[0].tokens, solo[0].outputs[0].tokens);
    }

    #[test]
    #[should_panic(expected = "must divide heads")]
    fn invalid_worker_count_panics() {
        let _ = CpuModelExecutor::sharded(Transformer::new(ModelConfig::tiny()), 3, &cache_cfg());
    }
}
