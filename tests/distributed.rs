//! Tensor-parallel integration tests (§4.6): Megatron-style sharded
//! execution must be invisible in outputs across parallel degrees, for
//! every decoding algorithm, including under preemption.

use vllm::core::config::PreemptionMode;
use vllm::core::{CacheConfig, LlmEngine, RequestOutput, SamplingParams, SchedulerConfig};
use vllm::model::{CpuModelExecutor, ModelConfig, TensorParallelExecutor, Transformer};

fn cache(gpu_blocks: usize) -> CacheConfig {
    CacheConfig::new(4, gpu_blocks, gpu_blocks).unwrap()
}

fn sched(mode: PreemptionMode) -> SchedulerConfig {
    SchedulerConfig::new(512, 32, 512)
        .unwrap()
        .with_preemption_mode(mode)
}

fn add_mixed_workload<E: vllm::core::ModelExecutor>(e: &mut LlmEngine<E>) {
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

fn run_serial(gpu_blocks: usize, mode: PreemptionMode) -> Vec<(String, Vec<Vec<u32>>)> {
    let cache = cache(gpu_blocks);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched(mode));
    add_mixed_workload(&mut e);
    normalize(e.run_to_completion().unwrap())
}

fn run_tp(workers: usize, gpu_blocks: usize, mode: PreemptionMode) -> Vec<(String, Vec<Vec<u32>>)> {
    let cache = cache(gpu_blocks);
    let exec = TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), workers, &cache);
    let mut e = LlmEngine::new(exec, cache, sched(mode));
    add_mixed_workload(&mut e);
    normalize(e.run_to_completion().unwrap())
}

#[test]
fn tp_matches_serial_mixed_decoding() {
    let reference = run_serial(256, PreemptionMode::Recompute);
    assert_eq!(reference.len(), 3);
    for workers in [1, 2, 4] {
        assert_eq!(
            run_tp(workers, 256, PreemptionMode::Recompute),
            reference,
            "TP={workers} diverged"
        );
    }
}

#[test]
fn tp_transparent_under_swap_preemption() {
    // Small pool: preemption kicks in; the multi-seq groups force swapping.
    let reference = run_serial(256, PreemptionMode::Swap);
    let contended = run_tp(2, 24, PreemptionMode::Swap);
    assert_eq!(contended, reference);
}

#[test]
fn tp_transparent_under_recompute_preemption() {
    let reference = run_serial(256, PreemptionMode::Recompute);
    let contended = run_tp(2, 24, PreemptionMode::Recompute);
    assert_eq!(contended, reference);
}

#[test]
fn tp_prefix_cache_matches_serial() {
    let prefix: Vec<u32> = (60..76).collect();
    let run = |workers: Option<usize>| {
        let cache = cache(128);
        let mut outs = match workers {
            None => {
                let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
                let mut e = LlmEngine::new(exec, cache, sched(PreemptionMode::Recompute));
                e.register_prefix(&prefix).unwrap();
                let mut prompt = prefix.clone();
                prompt.extend([5, 6, 7]);
                e.add_request("r", prompt, SamplingParams::greedy(6))
                    .unwrap();
                e.run_to_completion().unwrap()
            }
            Some(w) => {
                let exec =
                    TensorParallelExecutor::new(Transformer::new(ModelConfig::tiny()), w, &cache);
                let mut e = LlmEngine::new(exec, cache, sched(PreemptionMode::Recompute));
                e.register_prefix(&prefix).unwrap();
                let mut prompt = prefix.clone();
                prompt.extend([5, 6, 7]);
                e.add_request("r", prompt, SamplingParams::greedy(6))
                    .unwrap();
                e.run_to_completion().unwrap()
            }
        };
        outs.pop().unwrap().outputs[0].tokens.clone()
    };
    let serial = run(None);
    assert_eq!(run(Some(2)), serial);
    assert_eq!(run(Some(4)), serial);
}
