//! Parallel sampling (Fig. 8): one prompt, several sampled continuations
//! sharing the prompt's KV blocks with copy-on-write on the last block.
//!
//! Run with: `cargo run --release --example parallel_sampling`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm::model::{ByteTokenizer, CpuModelExecutor, ModelConfig};

fn main() {
    let cache = CacheConfig::new(16, 256, 0).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    let executor = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);

    let tokenizer = ByteTokenizer;
    let prompt = "The quick brown fox jumps over the lazy dog; meanwhile the";
    let n = 4;
    engine
        .add_request(
            "parallel-0",
            tokenizer.encode(prompt),
            SamplingParams::parallel(n, 32).with_seed(7),
        )
        .expect("request accepted");

    // After the prompt step the request forks into `n` sequences that share
    // every prompt block; inspect the sharing before finishing the run.
    engine.step().expect("prompt step");
    let bm = engine.scheduler().block_manager();
    println!(
        "after prefill+fork: {} logical blocks mapped onto {} physical blocks",
        bm.num_logical_gpu_blocks(),
        bm.num_allocated_gpu_blocks()
    );
    println!(
        "block sharing saves {:.1}% of KV memory (Fig. 15 metric)",
        bm.sharing_savings() * 100.0
    );

    let outputs = engine.run_to_completion().expect("generation succeeds");
    for output in &outputs {
        println!(
            "\n{} samples for prompt {:?}:",
            output.outputs.len(),
            prompt
        );
        for (i, completion) in output.outputs.iter().enumerate() {
            println!("  sample {i}: {:?}", tokenizer.decode(&completion.tokens));
        }
    }
    println!(
        "\ncopy-on-write events: {} (samples diverged out of the shared last block)",
        engine.engine_metrics().block_manager.cow_copies_total.get()
    );
}
