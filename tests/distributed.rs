//! Tensor-parallel integration tests (§4.6): Megatron-style sharded
//! execution must be invisible in outputs across parallel degrees, for
//! every decoding algorithm, including under preemption. One worker is the
//! reference every degree is held to.

use vllm::core::config::PreemptionMode;
use vllm::core::{CacheConfig, LlmEngine, RequestOutput, SamplingParams, SchedulerConfig};
use vllm::model::{CpuModelExecutor, ModelConfig, Transformer};

/// An engine over `workers` head shards of the tiny model.
fn engine(workers: usize, gpu_blocks: usize, mode: PreemptionMode) -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(4, gpu_blocks, gpu_blocks).unwrap();
    let exec = CpuModelExecutor::sharded(Transformer::new(ModelConfig::tiny()), workers, &cache);
    let sched = SchedulerConfig::new(512, 32, 512)
        .unwrap()
        .with_preemption_mode(mode);
    LlmEngine::new(exec, cache, sched)
}

fn add_mixed_workload(e: &mut LlmEngine<CpuModelExecutor>) {
    e.add_request("greedy", (1..=9).collect(), SamplingParams::greedy(7))
        .unwrap();
    e.add_request_at(
        "parallel",
        (20..=30).collect(),
        SamplingParams::parallel(3, 6).with_seed(5),
        1e-6,
    )
    .unwrap();
    e.add_request_at(
        "beam",
        (40..=52).collect(),
        SamplingParams::beam(3, 6),
        2e-6,
    )
    .unwrap();
}

fn normalize(mut outs: Vec<RequestOutput>) -> Vec<(String, Vec<Vec<u32>>)> {
    outs.sort_by_key(|o| o.request_id.clone());
    outs.into_iter()
        .map(|o| {
            let mut seqs: Vec<Vec<u32>> = o.outputs.into_iter().map(|c| c.tokens).collect();
            seqs.sort();
            (o.request_id, seqs)
        })
        .collect()
}

/// The mixed workload's outputs on `workers` workers.
fn run(workers: usize, gpu_blocks: usize, mode: PreemptionMode) -> Vec<(String, Vec<Vec<u32>>)> {
    let mut e = engine(workers, gpu_blocks, mode);
    add_mixed_workload(&mut e);
    normalize(e.run_to_completion().unwrap())
}

#[test]
fn tp_matches_serial_mixed_decoding() {
    let reference = run(1, 256, PreemptionMode::Recompute);
    assert_eq!(reference.len(), 3);
    for workers in [2, 4] {
        assert_eq!(
            run(workers, 256, PreemptionMode::Recompute),
            reference,
            "TP={workers} diverged"
        );
    }
}

#[test]
fn tp_transparent_under_swap_preemption() {
    // Small pool: preemption kicks in; the multi-seq groups force swapping.
    let reference = run(1, 256, PreemptionMode::Swap);
    let contended = run(2, 24, PreemptionMode::Swap);
    assert_eq!(contended, reference);
}

#[test]
fn tp_transparent_under_recompute_preemption() {
    let reference = run(1, 256, PreemptionMode::Recompute);
    let contended = run(2, 24, PreemptionMode::Recompute);
    assert_eq!(contended, reference);
}

#[test]
fn tp_prefix_cache_matches_serial() {
    let prefix: Vec<u32> = (60..76).collect();
    let run = |workers: usize| {
        let mut e = engine(workers, 128, PreemptionMode::Recompute);
        e.register_prefix(&prefix).unwrap();
        let mut prompt = prefix.clone();
        prompt.extend([5, 6, 7]);
        e.add_request("r", prompt, SamplingParams::greedy(6))
            .unwrap();
        let mut outs = e.run_to_completion().unwrap();
        outs.pop().unwrap().outputs[0].tokens.clone()
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(4), serial);
}
