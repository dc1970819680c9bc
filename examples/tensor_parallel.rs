//! Tensor-parallel serving (§4.6): Megatron-style head sharding with a
//! single centralized block table; per-worker KV pools hold only their
//! heads' slice. One executor serves every degree, one worker included, and
//! the outputs are identical across them.
//!
//! Run with: `cargo run --release --example tensor_parallel`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig, TokenId};
use vllm::model::{ByteTokenizer, CpuModelExecutor, ModelConfig, Transformer};

fn generate(workers: usize, prompt: &[TokenId]) -> Vec<TokenId> {
    let cache = CacheConfig::new(16, 128, 16).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 32, 1024).expect("valid scheduler config");
    let model = Transformer::new(ModelConfig::small());
    let executor = CpuModelExecutor::sharded(model, workers, &cache);
    let mut engine = LlmEngine::new(executor, cache, sched);
    engine
        .add_request("tp", prompt.to_vec(), SamplingParams::greedy(24))
        .expect("accepted");
    let outs = engine.run_to_completion().expect("completes");
    outs[0].outputs[0].tokens.clone()
}

fn main() {
    let tokenizer = ByteTokenizer;
    let prompt = tokenizer.encode("We hold these truths to be self-evident");

    let one = generate(1, &prompt);
    println!("1 worker:    {:?}", tokenizer.decode(&one));
    for workers in [2, 4, 8] {
        let tokens = generate(workers, &prompt);
        println!(
            "{workers} workers:   {:?}  (identical: {})",
            tokenizer.decode(&tokens),
            tokens == one
        );
        assert_eq!(tokens, one, "N workers must match one worker");
    }
    println!(
        "\nevery worker saw the same physical block ids (one centralized \
         block table, §4.6) but stored only its attention heads' KV slice."
    );
}
