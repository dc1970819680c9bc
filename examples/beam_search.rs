//! Beam search (Fig. 9): candidates fork and die every step; their KV
//! blocks are shared via reference counts and reclaimed as beams are
//! dropped.
//!
//! Run with: `cargo run --release --example beam_search`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm::model::{ByteTokenizer, CpuModelExecutor, ModelConfig};

fn main() {
    let cache = CacheConfig::new(16, 256, 0).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    let executor = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);

    let tokenizer = ByteTokenizer;
    let prompt = "It is a truth universally acknowledged, that a single";
    let width = 4;
    engine
        .add_request(
            "beam-0",
            tokenizer.encode(prompt),
            SamplingParams::beam(width, 24),
        )
        .expect("request accepted");

    // Track sharing while the beams evolve.
    let mut max_sharing = 0.0f64;
    let mut outputs = Vec::new();
    while engine.has_unfinished() {
        outputs.extend(engine.step().expect("step succeeds"));
        let bm = engine.scheduler().block_manager();
        max_sharing = max_sharing.max(bm.sharing_savings());
    }

    for output in &outputs {
        println!("beam search (k={width}) hypotheses for {prompt:?}, best first:");
        for (i, completion) in output.outputs.iter().enumerate() {
            println!(
                "  #{i} (cum logprob {:8.3}): {:?}",
                completion.cumulative_logprob,
                tokenizer.decode(&completion.tokens)
            );
        }
    }

    let bm = engine.scheduler().block_manager();
    println!(
        "\npeak block sharing: {:.1}% of logical blocks saved (paper reports \
         37.6%-66.3% for beam search workloads)",
        max_sharing * 100.0
    );
    let copies = &engine.engine_metrics().block_manager.cow_copies_total;
    println!("copy-on-write events: {}", copies.get());
    println!(
        "all {} blocks returned to the pool",
        bm.num_free_gpu_blocks()
    );
}
