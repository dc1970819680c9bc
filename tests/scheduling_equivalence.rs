//! Scheduling-transparency tests: whatever the scheduler does — batching,
//! preemption by recomputation or swapping, queueing — greedy outputs must
//! be bit-identical to uncontended runs (the system never alters results,
//! §1: "without affecting the model accuracy at all").

use vllm::core::config::PreemptionMode;
use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig, TokenId};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn prompts() -> Vec<Vec<TokenId>> {
    (0..6u32)
        .map(|i| (0..(4 + i * 3)).map(|t| (t * 7 + i) % 100).collect())
        .collect()
}

fn reference_outputs() -> Vec<Vec<TokenId>> {
    prompts()
        .into_iter()
        .enumerate()
        .map(|(i, prompt)| {
            let cache = CacheConfig::new(4, 256, 0).unwrap();
            let sched = SchedulerConfig::new(512, 32, 512).unwrap();
            let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
            let mut e = LlmEngine::new(exec, cache, sched);
            e.add_request(format!("r{i}"), prompt, SamplingParams::greedy(9))
                .unwrap();
            e.run_to_completion().unwrap()[0].outputs[0].tokens.clone()
        })
        .collect()
}

fn contended_outputs(
    gpu_blocks: usize,
    cpu_blocks: usize,
    mode: PreemptionMode,
    max_num_seqs: usize,
) -> (Vec<Vec<TokenId>>, u64) {
    let cache = CacheConfig::new(4, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(512, max_num_seqs, 512)
        .unwrap()
        .with_preemption_mode(mode);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    for (i, prompt) in prompts().into_iter().enumerate() {
        e.add_request_at(
            format!("r{i}"),
            prompt,
            SamplingParams::greedy(9),
            i as f64 * 1e-6,
        )
        .unwrap();
    }
    let mut outs = e.run_to_completion().unwrap();
    outs.sort_by_key(|o| o.request_id.clone());
    (
        outs.into_iter()
            .map(|o| o.outputs[0].tokens.clone())
            .collect(),
        e.engine_metrics().scheduler.preemptions_total.get(),
    )
}

#[test]
fn batched_equals_sequential() {
    let (outs, _) = contended_outputs(256, 0, PreemptionMode::Recompute, 32);
    assert_eq!(outs, reference_outputs());
}

#[test]
fn recompute_contention_equals_sequential() {
    let (outs, preemptions) = contended_outputs(14, 0, PreemptionMode::Recompute, 32);
    assert!(preemptions > 0, "pool must be contended");
    assert_eq!(outs, reference_outputs());
}

#[test]
fn swap_contention_equals_sequential() {
    let (outs, preemptions) = contended_outputs(14, 32, PreemptionMode::Swap, 32);
    assert!(preemptions > 0, "pool must be contended");
    assert_eq!(outs, reference_outputs());
}

#[test]
fn tiny_batch_limit_equals_sequential() {
    let (outs, _) = contended_outputs(256, 0, PreemptionMode::Recompute, 2);
    assert_eq!(outs, reference_outputs());
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = contended_outputs(14, 0, PreemptionMode::Recompute, 32);
    let b = contended_outputs(14, 0, PreemptionMode::Recompute, 32);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn parallel_sampling_stable_under_contention() {
    // Seeded parallel sampling: contention must not change sampled tokens.
    let run = |gpu_blocks: usize| {
        let cache = CacheConfig::new(4, gpu_blocks, 0).unwrap();
        let sched = SchedulerConfig::new(512, 32, 512).unwrap();
        let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
        let mut e = LlmEngine::new(exec, cache, sched);
        e.add_request(
            "p",
            (0..10).collect(),
            SamplingParams::parallel(3, 8).with_seed(99),
        )
        .unwrap();
        e.add_request_at("q", (30..38).collect(), SamplingParams::greedy(8), 1e-6)
            .unwrap();
        let mut outs = e.run_to_completion().unwrap();
        outs.sort_by_key(|o| o.request_id.clone());
        let p = &outs[0];
        let mut token_sets: Vec<Vec<TokenId>> =
            p.outputs.iter().map(|o| o.tokens.clone()).collect();
        token_sets.sort();
        token_sets
    };
    assert_eq!(run(256), run(16));
}

/// A request's outputs (tokens and cumulative-logprob bits, sorted), the
/// tokens its engine computed, and its free GPU blocks at the end, on an
/// engine whose `failures` forwards from step `fail_at` on fail while the
/// caller keeps stepping. `budget` picks the ordering: `None` for legacy,
/// `Some` for chunked prefill.
fn recovered_run(
    params: &SamplingParams,
    budget: Option<usize>,
    failures: u32,
    fail_at: usize,
) -> (Vec<(Vec<TokenId>, u64)>, u64, usize) {
    use vllm::core::{FaultControls, FaultInjector, VllmError};
    let cache = CacheConfig::new(4, 64, 16).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512).unwrap();
    let controls = FaultControls::new();
    let exec = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
    let mut e = LlmEngine::new(FaultInjector::new(exec, controls.clone()), cache, sched);
    if let Some(budget) = budget {
        e.set_step_token_budget(budget);
    }
    e.add_request("r", (40..49).collect(), params.clone())
        .unwrap();
    let (mut outs, mut step) = (Vec::new(), 0);
    while e.has_unfinished() {
        if step == fail_at {
            controls.fail_next_forwards(failures);
        }
        step += 1;
        match e.step() {
            Ok(done) => outs.extend(done),
            Err(VllmError::Executor(_)) => {}
            Err(err) => panic!("{err}"),
        }
    }
    assert_eq!(controls.num_forward_failures(), u64::from(failures));
    let mut samples: Vec<(Vec<TokenId>, u64)> = outs[0]
        .outputs
        .iter()
        .map(|o| (o.tokens.clone(), o.cumulative_logprob.to_bits()))
        .collect();
    samples.sort();
    let free = e.scheduler().block_manager().num_free_gpu_blocks();
    (samples, e.executor().inner().tokens_processed, free)
}

#[test]
fn failed_prompt_forward_reruns_the_prompt_under_both_orderings() {
    // The caller keeps stepping after a failed prompt forward: the prompt
    // must run again, so the request's outputs, the tokens computed and
    // the free pool equal those of a run that never failed.
    let modes = [
        SamplingParams::greedy(6),
        SamplingParams::beam(2, 6),
        SamplingParams::parallel(2, 5).with_seed(7),
    ];
    for params in &modes {
        for budget in [None, Some(4)] {
            let at = format!("{:?} under budget {budget:?}", params.mode);
            let clean = recovered_run(params, budget, 0, 0);
            assert_eq!(clean.2, 64, "{at}: clean run leaked blocks");
            assert_eq!(recovered_run(params, budget, 1, 0), clean, "{at}");
        }
    }
}

#[test]
fn failed_decode_step_keeps_its_cache_operations() {
    // The first decode after the fork splits the shared last block copy on
    // write. A failure of that step must still apply the copy: the retried
    // step reads the new block, so outputs equal a run that never failed.
    let modes = [
        SamplingParams::beam(2, 6),
        SamplingParams::parallel(2, 5).with_seed(7),
    ];
    for params in &modes {
        for (budget, fail_at) in [(None, 1), (Some(4), 3)] {
            let at = format!(
                "{:?} under budget {budget:?} at step {fail_at}",
                params.mode
            );
            let clean = recovered_run(params, budget, 0, fail_at);
            assert_eq!(recovered_run(params, budget, 1, fail_at), clean, "{at}");
        }
    }
}
