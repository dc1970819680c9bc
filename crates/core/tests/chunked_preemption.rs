//! Mid-prompt preemption under chunked prefill: a partially-prefilled
//! request that is preempted (recompute or swap) must restart cleanly from
//! its chunk cursor — same final outputs as an unpressured, unchunked run,
//! and exact block accounting afterwards (zero leaks on both pools).

use proptest::prelude::*;
use vllm_core::config::{CacheConfig, PreemptionMode, SchedulerConfig};
use vllm_core::engine::LlmEngine;
use vllm_core::mock::MockExecutor;
use vllm_core::sampling::SamplingParams;
use vllm_core::telemetry::EventKind;

const BS: usize = 4;

fn engine(
    gpu_blocks: usize,
    cpu_blocks: usize,
    mode: PreemptionMode,
    budget: Option<usize>,
) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(256, 32, 256)
        .unwrap()
        .with_preemption_mode(mode);
    let mut e = LlmEngine::new(MockExecutor::new(500), cache, sched);
    if let Some(b) = budget {
        e.set_step_token_budget(b);
    }
    e
}

/// Two requests: an older one that keeps growing (so it wins preemption
/// fights) and a younger long-prompt one whose prefill chunks under the
/// budget — the preemption victim is mid-prompt.
fn run(
    gpu_blocks: usize,
    mode: PreemptionMode,
    budget: Option<usize>,
    long_prompt: usize,
    old_output: usize,
) -> (Vec<Vec<u32>>, u64) {
    let mut e = engine(gpu_blocks, 32, mode, budget);
    e.add_request("old", (1..9).collect(), SamplingParams::greedy(old_output))
        .unwrap();
    e.add_request_at(
        "young",
        (100..100 + long_prompt as u32).collect(),
        SamplingParams::greedy(6),
        1e-6,
    )
    .unwrap();
    let mut outs = e.run_to_completion().unwrap();
    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    let tokens: Vec<Vec<u32>> = outs.iter().map(|o| o.outputs[0].tokens.clone()).collect();
    let bm = e.scheduler().block_manager();
    assert_eq!(
        bm.num_free_gpu_blocks(),
        bm.num_total_gpu_blocks(),
        "GPU blocks leaked after chunked run under preemption"
    );
    assert_eq!(
        bm.num_free_cpu_blocks(),
        bm.num_total_cpu_blocks(),
        "CPU blocks leaked after chunked run under preemption"
    );
    (tokens, e.engine_metrics().scheduler.preemptions_total.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random budgets, prompt lengths, growth, and preemption modes: the
    /// pressured chunked run must produce exactly the tokens of an
    /// unpressured, unchunked run, and leak nothing.
    #[test]
    fn chunked_run_under_pressure_matches_unchunked_reference(
        budget in 2usize..=10,
        long_prompt in 8usize..=32,
        old_output in 8usize..=24,
        swap in proptest::bool::ANY,
    ) {
        let mode = if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        // Ample pool, no budget: the ground truth.
        let (want, _) = run(64, mode, None, long_prompt, old_output);
        // Tight pool (12 blocks = 48 slots; each request alone fits, both
        // together do not once the old one grows), chunked prefill.
        let (got, _) = run(12, mode, Some(budget), long_prompt, old_output);
        prop_assert_eq!(want, got);
    }
}

/// Deterministic witness that the property run actually covers the case it
/// claims: the younger request is preempted *before* its first token (so
/// mid-prompt, between chunks), then restarts and finishes with the right
/// output — under both preemption modes.
#[test]
fn mid_prompt_preemption_restarts_from_chunk_cursor() {
    for mode in [PreemptionMode::Recompute, PreemptionMode::Swap] {
        // Budget 2: the old request's decode token plus one prompt token
        // per step, so the 28-token prefill spans ~28 steps — far longer
        // than it takes the old request's growth to exhaust the pool.
        let mut e = engine(12, 32, mode, Some(2));
        e.add_request("old", (1..9).collect(), SamplingParams::greedy(30))
            .unwrap();
        e.add_request_at(
            "young",
            (100..128).collect(),
            SamplingParams::greedy(6),
            1e-6,
        )
        .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert!(
            e.engine_metrics().scheduler.preemptions_total.get() > 0,
            "{mode:?}: the scenario must preempt"
        );
        let young = outs.iter().find(|o| o.request_id == "young").unwrap();
        assert_eq!(young.outputs[0].tokens.len(), 6);

        // The victim's lifecycle shows Preempted strictly before FirstToken:
        // it was mid-prompt when evicted.
        let events = e.telemetry().events().events_for("young");
        let preempted_at = events
            .iter()
            .position(|ev| matches!(ev.kind, EventKind::Preempted { .. }))
            .unwrap_or_else(|| panic!("{mode:?}: young must be preempted"));
        let first_token_at = events
            .iter()
            .position(|ev| matches!(ev.kind, EventKind::FirstToken))
            .expect("young must eventually sample");
        assert!(
            preempted_at < first_token_at,
            "{mode:?}: preemption must land mid-prompt, before the first token"
        );

        let bm = e.scheduler().block_manager();
        assert_eq!(bm.num_free_gpu_blocks(), bm.num_total_gpu_blocks());
        assert_eq!(bm.num_free_cpu_blocks(), bm.num_total_cpu_blocks());
    }
}
