//! Preemption and recovery (§4.5): run two requests through a KV pool too
//! small for both, once with recomputation and once with swapping, and show
//! that outputs are identical to an uncontended run.
//!
//! Run with: `cargo run --release --example preemption`

use vllm::core::config::PreemptionMode;
use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig, TokenId};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn run(
    mode: PreemptionMode,
    gpu_blocks: usize,
    cpu_blocks: usize,
) -> (Vec<Vec<TokenId>>, u64, u64) {
    let cache = CacheConfig::new(4, gpu_blocks, cpu_blocks).expect("valid cache config");
    let sched = SchedulerConfig::new(512, 32, 512)
        .expect("valid scheduler config")
        .with_preemption_mode(mode);
    let executor = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);
    engine
        .add_request("a", (1..=10).collect(), SamplingParams::greedy(12))
        .expect("accepted");
    engine
        .add_request_at("b", (20..=27).collect(), SamplingParams::greedy(12), 1e-6)
        .expect("accepted");
    let mut outs = engine.run_to_completion().expect("completes");
    outs.sort_by(|x, y| x.request_id.cmp(&y.request_id));
    let counts = &engine.engine_metrics().scheduler;
    (
        outs.into_iter()
            .map(|o| o.outputs[0].tokens.clone())
            .collect(),
        counts.recompute_preemptions_total.get(),
        counts.swap_preemptions_total.get(),
    )
}

fn main() {
    // Uncontended reference: a large pool, no preemption possible.
    let (reference, _, _) = run(PreemptionMode::Recompute, 64, 0);
    println!("reference outputs (no contention): {reference:?}");

    // 7 blocks of 4 slots = 28 KV slots; two requests totalling 42 slots.
    let (recomputed, recomputes, _) = run(PreemptionMode::Recompute, 7, 0);
    println!(
        "\nrecompute mode: {recomputes} recompute-preemptions, outputs \
         identical: {}",
        recomputed == reference
    );

    let (swapped, _, swaps) = run(PreemptionMode::Swap, 7, 16);
    println!(
        "swap mode:      {swaps} swap-preemptions,      outputs \
         identical: {}",
        swapped == reference
    );

    assert_eq!(recomputed, reference, "recomputation must be transparent");
    assert_eq!(swapped, reference, "swapping must be transparent");
    println!(
        "\nboth recovery mechanisms are exact: preemption is invisible in \
         the generated tokens (§4.5)."
    );
}
