//! Step-trace and preemption-event tests for the staged engine pipeline:
//! every `step()` emits a [`vllm_core::StepTrace`]; preemption via swap vs.
//! recompute surfaces as the matching trace events; stage timings are
//! monotone; preempted requests still produce bit-identical outputs.

use vllm_core::mock::MockExecutor;
use vllm_core::{
    CacheConfig, LlmEngine, PreemptionKind, PreemptionMode, SamplingParams, SchedulerConfig,
};

const BS: usize = 4;

fn engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

fn swap_engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048)
        .unwrap()
        .with_preemption_mode(PreemptionMode::Swap);
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

#[test]
fn recompute_preemption_preserves_output() {
    // Tiny pool: two requests cannot decode concurrently for long.
    let mut e = engine(6, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs.len(), 2);
    for o in &outs {
        assert_eq!(o.outputs[0].tokens.len(), 12, "request {}", o.request_id);
    }
    // At least one preemption must have occurred.
    assert!(e.engine_metrics().scheduler.preemptions_total.get() > 0);
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 6);

    // Determinism: rerun without contention and compare request a.
    let mut e2 = engine(64, 0);
    e2.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    let base = e2.run_to_completion().unwrap();
    let a_out = outs.iter().find(|o| o.request_id == "a").unwrap();
    assert_eq!(a_out.outputs[0].tokens, base[0].outputs[0].tokens);
}

#[test]
fn swap_preemption_round_trip() {
    let mut e = swap_engine(6, 16);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs.len(), 2);
    assert!(e.engine_metrics().scheduler.swap_preemptions_total.get() > 0);
    for o in &outs {
        assert_eq!(o.outputs[0].tokens.len(), 12);
    }
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 6);
    assert_eq!(e.scheduler().block_manager().num_free_cpu_blocks(), 16);
}

/// Swap preemption must surface in the step traces as a `Swap` event with
/// its swapped-block count, and the same step's cache ops must carry the
/// swap-out transfers.
#[test]
fn swap_preemption_emits_trace_events() {
    let mut e = swap_engine(6, 16);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    let mut saw_swap_event = false;
    while e.has_unfinished() {
        e.step().unwrap();
        let trace = e.last_trace().expect("every step emits a trace");
        for p in &trace.preemptions {
            assert_eq!(p.kind, PreemptionKind::Swap);
            assert!(p.blocks_swapped_out > 0);
            assert_eq!(trace.blocks_swapped_out, p.blocks_swapped_out);
            saw_swap_event = true;
        }
    }
    assert!(saw_swap_event, "contended run must preempt via swap");
    let m = e.engine_metrics();
    assert!(m.scheduler.preemptions_total.get() > 0);
    let (swapped_in, swapped_out) = (
        m.block_manager.swapped_in_blocks_total.get(),
        m.block_manager.swapped_out_blocks_total.get(),
    );
    assert!(swapped_in > 0);
    assert_eq!(swapped_in, swapped_out);
}

/// Recompute preemption must surface as a `Recompute` event with no swap
/// traffic.
#[test]
fn recompute_preemption_emits_trace_events() {
    let mut e = engine(6, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    let mut saw_recompute_event = false;
    while e.has_unfinished() {
        e.step().unwrap();
        let trace = e.last_trace().expect("every step emits a trace");
        for p in &trace.preemptions {
            assert_eq!(p.kind, PreemptionKind::Recompute);
            assert_eq!(p.blocks_swapped_out, 0);
            saw_recompute_event = true;
        }
        assert_eq!(trace.blocks_swapped_in, 0);
        assert_eq!(trace.blocks_swapped_out, 0);
    }
    assert!(saw_recompute_event, "contended run must preempt");
    let swapped_out = &e.engine_metrics().block_manager.swapped_out_blocks_total;
    assert_eq!(swapped_out.get(), 0);
}

/// Stage timings are non-negative and their cumulative ends are monotone for
/// every step of a mixed workload.
#[test]
fn trace_stage_timings_are_monotone() {
    let mut e = engine(64, 0);
    e.add_request("g", (0..5).collect(), SamplingParams::greedy(6))
        .unwrap();
    e.add_request_at(
        "p",
        (10..18).collect(),
        SamplingParams::parallel(3, 4),
        0.01,
    )
    .unwrap();
    e.add_request_at("b", (30..36).collect(), SamplingParams::beam(2, 4), 0.02)
        .unwrap();
    let mut steps = 0u64;
    while e.has_unfinished() {
        e.step().unwrap();
        let trace = e.last_trace().unwrap();
        assert_eq!(trace.step_index, steps);
        let s = &trace.stages;
        for d in [s.schedule, s.prepare, s.execute, s.postprocess] {
            assert!(d >= 0.0);
        }
        let ends = s.stage_ends();
        for w in ends.windows(2) {
            assert!(w[1] >= w[0], "stage ends must be monotone: {ends:?}");
        }
        assert!((ends[3] - s.total()).abs() < 1e-12);
        steps += 1;
    }
    let m = e.engine_metrics();
    assert_eq!(m.steps_total.get(), steps);
    assert!(m.tokens_scheduled_total.get() > 0);
}

/// Every step emits a trace, even when the scheduler finds no work.
#[test]
fn empty_step_still_emits_trace() {
    let mut e = engine(8, 0);
    assert!(e.last_trace().is_none());
    e.step().unwrap();
    let trace = e.last_trace().expect("empty step emits a trace");
    assert_eq!(trace.step_index, 0);
    assert_eq!(trace.tokens_scheduled, 0);
    assert_eq!(trace.num_seqs, 0);
    assert_eq!(e.engine_metrics().steps_total.get(), 1);
}
