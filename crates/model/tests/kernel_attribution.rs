//! The six `vllm_model_kernel_*_seconds` series account for the executor's
//! step time: nothing is counted twice and little is left over.
//!
//! Alone in its test binary on purpose: the counters behind the series are
//! process-wide, so a model running on another test thread would leak into
//! this engine's deltas.

use vllm_core::config::{CacheConfig, SchedulerConfig};
use vllm_core::engine::LlmEngine;
use vllm_core::sampling::SamplingParams;
use vllm_model::{BackendKind, CpuModelExecutor, ModelConfig};

#[test]
fn kernel_series_sum_to_the_forward_time() {
    let cache = CacheConfig::new(16, 128, 0).unwrap();
    let sched = SchedulerConfig::new(2048, 16, 2048).unwrap();
    let mut config = ModelConfig::small();
    config.backend = BackendKind::Simd;
    let exec = CpuModelExecutor::from_config(config, &cache);
    let mut engine = LlmEngine::new(exec, cache, sched);
    let prompt = |seed: u32| (0..8).map(|i| (seed * 31 + i * 7) % 250 + 1).collect();
    let sampled = SamplingParams::parallel(2, 200).with_seed(3);
    engine.add_request("sampled", prompt(1), sampled).unwrap();
    let beam = SamplingParams::beam(2, 30);
    engine.add_request("beam", prompt(2), beam).unwrap();
    let greedy = SamplingParams::greedy(30);
    engine.add_request("greedy", prompt(3), greedy).unwrap();
    engine.run_to_completion().unwrap();

    let snap = engine.metrics_snapshot();
    let forward = snap.histogram("vllm_executor_forward_seconds").unwrap();
    assert!(forward.count >= 200, "only {} steps ran", forward.count);
    let classes = [
        "matmul",
        "paged_attention",
        "logits",
        "activation",
        "sampling",
        "elementwise",
    ];
    let mut attributed = 0.0;
    for class in classes {
        let name = format!("vllm_model_kernel_{class}_seconds{{backend=\"simd\"}}");
        let series = snap
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(series.count, forward.count, "{name}: one sample per step");
        assert!(series.sum > 0.0, "{name} never advanced");
        attributed += series.sum;
    }
    let share = attributed / forward.sum;
    assert!(
        (0.90..=1.0).contains(&share),
        "the six classes cover {:.1} % of vllm_executor_forward_seconds ({attributed:.4} of {:.4} s)",
        share * 100.0,
        forward.sum,
    );
}
