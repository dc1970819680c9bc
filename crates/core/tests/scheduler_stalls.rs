//! Stall-resolution tests: requests whose working set can never fit —
//! swapped groups that cannot resume, waiting groups that fit the pool but
//! not beside its watermark — must be aborted rather than spin the scheduler
//! forever.

use vllm_core::config::{CacheConfig, PreemptionMode, SchedulerConfig};
use vllm_core::engine::LlmEngine;
use vllm_core::mock::MockExecutor;
use vllm_core::sampling::SamplingParams;

fn engine(
    block_size: usize,
    gpu_blocks: usize,
    cpu_blocks: usize,
    mode: PreemptionMode,
) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(block_size, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(256, 32, 256)
        .unwrap()
        .with_preemption_mode(mode);
    LlmEngine::new(MockExecutor::new(500), cache, sched)
}

/// A parallel request whose fan-out can never fit in GPU memory: it swaps
/// out and can never swap back in. It must be aborted, not spin.
#[test]
fn oversized_parallel_request_aborted() {
    // 24 blocks of 1 slot; 3 sequences each generating 14 tokens need ~42.
    let mut e = engine(1, 24, 24, PreemptionMode::Recompute);
    e.add_request("big", vec![1], SamplingParams::parallel(3, 14))
        .unwrap();
    let mut outs = Vec::new();
    let mut steps = 0;
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        steps += 1;
        assert!(steps < 10_000, "scheduler must not spin");
    }
    assert_eq!(outs.len(), 1);
    assert!(outs[0].outputs.is_empty(), "unservable request is aborted");
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 24);
    assert_eq!(e.scheduler().block_manager().num_free_cpu_blocks(), 24);
}

/// The same oversized request must not poison later, servable requests.
#[test]
fn abort_unblocks_later_requests() {
    let mut e = engine(1, 24, 24, PreemptionMode::Recompute);
    e.add_request("big", vec![1], SamplingParams::parallel(3, 14))
        .unwrap();
    e.add_request_at("small", vec![2, 3], SamplingParams::greedy(4), 1e-6)
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    let small = outs.iter().find(|o| o.request_id == "small").unwrap();
    assert_eq!(small.outputs[0].tokens.len(), 4);
    let big = outs.iter().find(|o| o.request_id == "big").unwrap();
    assert!(big.outputs.is_empty());
}

/// A waiting request that fits the pool but never beside the admission
/// watermark (pool otherwise idle) is aborted instead of waiting forever.
/// Cached blocks squeeze nobody: they are free blocks.
#[test]
fn watermark_squeeze_aborts_waiting_request() {
    let cache = CacheConfig::new(4, 8, 0)
        .unwrap()
        .with_watermark(0.25)
        .unwrap();
    let sched = SchedulerConfig::new(256, 32, 256).unwrap();
    let mut e = LlmEngine::new(MockExecutor::new(500), cache, sched);
    // Six of eight blocks hold a warmed prefix — and every block is free.
    e.register_prefix(&(0..24).collect::<Vec<_>>()).unwrap();
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 8);
    // A 3-block prompt that does not match the prefix is admitted over it.
    e.add_request("fits", (100..112).collect(), SamplingParams::greedy(4))
        .unwrap();
    // A 7-block prompt needs 7 + 2 watermark blocks of 8: never admittable.
    e.add_request("squeezed", (200..228).collect(), SamplingParams::greedy(4))
        .unwrap();
    let mut outs = Vec::new();
    let mut steps = 0;
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        steps += 1;
        assert!(steps < 1_000, "scheduler must not spin");
    }
    assert_eq!(outs.len(), 2);
    let by_id = |id: &str| outs.iter().find(|o| o.request_id == id).unwrap();
    assert_eq!(by_id("fits").outputs[0].tokens.len(), 4);
    assert!(by_id("squeezed").outputs.is_empty());
}

/// Two oversized groups must both abort eventually (no mutual ping-pong).
#[test]
fn multiple_unservable_requests_all_abort() {
    let mut e = engine(1, 16, 16, PreemptionMode::Swap);
    for i in 0..2 {
        e.add_request_at(
            format!("big{i}"),
            vec![1, 2],
            SamplingParams::parallel(4, 12),
            i as f64 * 1e-6,
        )
        .unwrap();
    }
    let mut outs = Vec::new();
    let mut steps = 0;
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        steps += 1;
        assert!(steps < 50_000, "scheduler must not spin");
    }
    assert_eq!(outs.len(), 2);
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 16);
}

/// Control: a request that fits exactly is NOT aborted by stall resolution.
#[test]
fn borderline_request_completes() {
    // 3 seqs × (1 prompt + 6 tokens) = 21 slots ≤ 24.
    let mut e = engine(1, 24, 24, PreemptionMode::Swap);
    e.add_request("fits", vec![1], SamplingParams::parallel(3, 6))
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs[0].outputs.len(), 3);
    assert!(outs[0].outputs.iter().all(|c| c.tokens.len() == 6));
}
