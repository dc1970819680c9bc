//! The single-worker CPU executor backing [`vllm_core::LlmEngine`].

use std::time::Instant;

use vllm_core::error::{Result, VllmError};
use vllm_core::executor::{KernelTiming, ModelExecutor, SeqStepInput, SeqStepOutput, StepResult};
use vllm_core::plan::StepPlan;

use crate::config::ModelConfig;
use crate::kv_cache::KvCache;
use crate::ops::timing;
use crate::sampler::{mix_seed, sample_candidates};
use crate::transformer::{SeqInput, Transformer};
use vllm_core::config::CacheConfig;

/// Cached telemetry handles for the CPU executor, registered lazily when the
/// engine attaches its telemetry bundle.
#[derive(Debug, Clone)]
struct ExecutorTelemetry {
    forward_seconds: vllm_telemetry::Histogram,
    tokens_total: vllm_telemetry::Counter,
    steps_total: vllm_telemetry::Counter,
    kernels: KernelTelemetry,
}

/// Per-kernel timing histograms shared by the CPU and TP executors, in the
/// order of [`timing::CLASSES`].
#[derive(Debug, Clone)]
pub(crate) struct KernelTelemetry {
    seconds: Vec<vllm_telemetry::Histogram>,
}

impl KernelTelemetry {
    /// Registers the `vllm_model_kernel_*` histograms, labeled with the
    /// kernel backend serving the model (`{backend="scalar"}` etc.).
    pub(crate) fn register(r: &vllm_telemetry::MetricsRegistry, backend: &str) -> Self {
        let seconds = timing::CLASSES.iter().map(|(name, help)| {
            r.histogram(
                &format!("vllm_model_kernel_{name}_seconds{{backend=\"{backend}\"}}"),
                help,
                vllm_telemetry::BucketSpec::seconds(),
            )
        });
        Self {
            seconds: seconds.collect(),
        }
    }

    /// Observes the kernel-time deltas accumulated during one step.
    pub(crate) fn observe_step(&self, before: &timing::KernelSnapshot) {
        let d = timing::snapshot().delta_since(before);
        for (histogram, ns) in self.seconds.iter().zip(d.ns()) {
            histogram.observe(ns as f64 / 1e9);
        }
    }
}

/// The forward inputs of a step: for each plan item the rows past what its
/// mapped blocks already hold (shared-prefix prefills and prompt chunks
/// skip their cached tokens; at least one row always runs).
pub(crate) fn step_inputs(plan: &StepPlan) -> Result<Vec<SeqInput<'_>>> {
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

/// Runs a step's `inputs` through `forward` — multi-row inputs one sequence
/// per call, in plan order, then every one-row input (generation steps,
/// fully-cached prompts, one-token chunks) stacked in ONE call — and
/// samples each item's candidates from its last-row logits.
pub(crate) fn run_forwards(
    plan: &StepPlan,
    inputs: &[SeqInput<'_>],
    vocab: usize,
    mut forward: impl FnMut(&[SeqInput<'_>]) -> Vec<f32>,
) -> Vec<SeqStepOutput> {
    let mut logits = vec![0.0f32; inputs.len() * vocab];
    let mut decode = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if input.tokens.len() == 1 {
            decode.push(i);
        } else {
            let row = forward(std::slice::from_ref(input));
            logits[i * vocab..(i + 1) * vocab].copy_from_slice(&row);
        }
    }
    if !decode.is_empty() {
        let stacked: Vec<SeqInput<'_>> = decode.iter().map(|&i| inputs[i]).collect();
        let rows = forward(&stacked);
        for (row, &i) in rows.chunks_exact(vocab).zip(&decode) {
            logits[i * vocab..(i + 1) * vocab].copy_from_slice(row);
        }
    }
    let sampling_start = Instant::now();
    let sample = |(item, logits): (&SeqStepInput, &[f32])| {
        let seed = mix_seed(item.seed, item.sample_index, item.context_len());
        SeqStepOutput {
            seq_id: item.seq_id,
            candidates: sample_candidates(logits, item.mode, item.num_candidates, seed),
        }
    };
    let rows = plan.items.iter().zip(logits.chunks_exact(vocab));
    let outputs = rows.map(sample).collect();
    timing::record_sampling(sampling_start.elapsed());
    outputs
}

/// Per-kernel time accumulated since `before`, as a step result reports it.
pub(crate) fn kernel_timings(before: &timing::KernelSnapshot) -> Vec<KernelTiming> {
    let d = timing::snapshot().delta_since(before);
    let entry = |((name, _), ns): (&(&str, &str), u64)| KernelTiming {
        name: name.to_string(),
        seconds: ns as f64 / 1e9,
    };
    timing::CLASSES.iter().zip(d.ns()).map(entry).collect()
}

/// Executes scheduled iterations on a CPU transformer with a paged KV cache.
#[derive(Debug)]
pub struct CpuModelExecutor {
    model: Transformer,
    cache: KvCache,
    /// Total tokens whose KV cache was computed (metrics).
    pub tokens_processed: u64,
    /// Total iterations executed (metrics).
    pub steps: u64,
    telemetry: Option<ExecutorTelemetry>,
}

impl CpuModelExecutor {
    /// Builds the executor and its paged KV storage.
    #[must_use]
    pub fn new(model: Transformer, cache_config: &CacheConfig) -> Self {
        // The backend dictates how KV bytes are laid out (f32 vs int8 with
        // per-slot scales), so the cache is allocated in its element type.
        let element = model.backend().kv_layout().element;
        let cache = KvCache::with_element(
            model.config.n_layers,
            cache_config.num_gpu_blocks,
            cache_config.num_cpu_blocks.max(1),
            cache_config.block_size,
            model.config.hidden,
            element,
        );
        Self {
            model,
            cache,
            tokens_processed: 0,
            steps: 0,
            telemetry: None,
        }
    }

    /// Convenience constructor from a model configuration.
    #[must_use]
    pub fn from_config(model_config: ModelConfig, cache_config: &CacheConfig) -> Self {
        Self::new(Transformer::new(model_config), cache_config)
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &Transformer {
        &self.model
    }

    /// The paged KV storage (introspection in tests).
    #[must_use]
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }
}

impl ModelExecutor for CpuModelExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = Instant::now();
        let kernels_before = timing::snapshot();
        self.steps += 1;
        // Cache operations first (§4.3: memory-management instructions
        // arrive with the step's control message).
        self.cache.apply(&plan.cache_ops);

        let inputs = step_inputs(plan)?;
        self.tokens_processed += inputs
            .iter()
            .map(|inp| inp.tokens.len() as u64)
            .sum::<u64>();
        let (model, kv) = (&self.model, &mut self.cache.gpu);
        let outputs = run_forwards(plan, &inputs, model.config.vocab_size, |batch| {
            model.forward(batch, kv)
        });
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(t) = &self.telemetry {
            t.forward_seconds.observe(elapsed);
            t.tokens_total.inc_by(plan.num_tokens() as u64);
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
        self.telemetry = Some(ExecutorTelemetry {
            forward_seconds: r.histogram(
                "vllm_executor_forward_seconds",
                "Model forward pass wall time per step (CPU backend).",
                vllm_telemetry::BucketSpec::seconds(),
            ),
            tokens_total: r.counter(
                "vllm_executor_tokens_total",
                "Tokens run through the model executor.",
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

    fn export_kv_blocks(
        &self,
        blocks: &[vllm_core::block::PhysicalBlockId],
    ) -> Vec<vllm_core::handoff::KvBlockBytes> {
        blocks
            .iter()
            .map(|&b| self.cache.gpu.export_block_bytes(b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            e.scheduler().stats().num_preemptions > 0,
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
            e.scheduler().stats().num_swap_preemptions > 0,
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
}
