//! Shared prefix (§4.4, Fig. 10): a long system prompt is prefilled once and
//! every request whose prompt starts with it maps its full blocks, skipping
//! that computation. This happens by itself — the first request to compute a
//! block leaves it indexed by content — so `register_prefix` is only a
//! warm-up that spares the first request too.
//!
//! Run with: `cargo run --release --example shared_prefix`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm::model::{ByteTokenizer, CpuModelExecutor, ModelConfig};

fn main() {
    let cache = CacheConfig::new(16, 512, 0).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    let executor = CpuModelExecutor::from_config(ModelConfig::small(), &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);

    let tokenizer = ByteTokenizer;
    let system_prompt = "Translate English to German. Example: sea otter => \
                         Seeotter. peppermint => Pfefferminze. plush girafe => \
                         Plueschgiraffe. Now translate: ";
    let prefix_tokens = tokenizer.encode(system_prompt);
    println!(
        "warming a {}-token shared prefix (provider-side prefill)",
        prefix_tokens.len()
    );
    engine
        .register_prefix(&prefix_tokens)
        .expect("prefix fits the free pool");
    let warmup_tokens = engine.executor().tokens_processed;
    println!("prefix warm-up computed {warmup_tokens} tokens once");

    let tasks = ["cheese", "black holes", "the paged attention algorithm"];
    for (i, task) in tasks.iter().enumerate() {
        let mut prompt = prefix_tokens.clone();
        prompt.extend(tokenizer.encode(task).into_iter().skip(1)); // Skip BOS.
        engine
            .add_request(format!("translate-{i}"), prompt, SamplingParams::greedy(16))
            .expect("request accepted");
    }

    let outputs = engine.run_to_completion().expect("generation succeeds");
    for output in &outputs {
        println!(
            "{}: generated {:?}",
            output.request_id,
            tokenizer.decode(&output.outputs[0].tokens)
        );
    }

    let per_request_tokens =
        (engine.executor().tokens_processed - warmup_tokens) as f64 / tasks.len() as f64;
    println!(
        "\nper-request computed tokens: {per_request_tokens:.1} \
         (vs {} if the prefix were recomputed per request)",
        prefix_tokens.len()
    );
    println!(
        "the prefix's full blocks were mapped, not computed, on every request; \
         only its partial last block and the task are each request's own"
    );
}
