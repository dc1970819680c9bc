//! Quickstart: serve a prompt end-to-end on the CPU transformer with paged
//! KV cache management.
//!
//! Run with: `cargo run --release --example quickstart`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm::model::{ByteTokenizer, CpuModelExecutor, ModelConfig, Transformer};

fn main() {
    // A paged KV cache of 256 blocks × 16 tokens, plus a CPU swap pool.
    let cache = CacheConfig::new(16, 256, 256).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");

    // A small byte-level model with deterministic random weights. The model
    // is untrained — the point is the serving machinery, not the prose.
    let model = Transformer::new(ModelConfig::small());
    let executor = CpuModelExecutor::new(model, &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);

    let tokenizer = ByteTokenizer;
    let prompt = "Four score and seven years ago our";
    println!("prompt: {prompt:?}");

    engine
        .add_request(
            "quickstart-0",
            tokenizer.encode(prompt),
            SamplingParams::parallel(1, 48).with_seed(42),
        )
        .expect("request accepted");

    // The engine runs one iteration per step: a prompt (prefill) step first,
    // then one generation step per output token.
    let outputs = engine.run_to_completion().expect("generation succeeds");
    for output in &outputs {
        for completion in &output.outputs {
            println!(
                "generated {} tokens: {:?}",
                completion.tokens.len(),
                tokenizer.decode(&completion.tokens)
            );
        }
        println!(
            "finished at t={:.3}s after {} preemptions",
            output.finish_time, output.num_preemptions
        );
    }

    let bm = engine.scheduler().block_manager();
    println!(
        "KV pool: {} blocks total, {} free after completion (all returned)",
        bm.num_total_gpu_blocks(),
        bm.num_free_gpu_blocks()
    );
    println!(
        "executor processed {} tokens over {} iterations",
        engine.executor().tokens_processed,
        engine.engine_metrics().steps_total.get()
    );
}
