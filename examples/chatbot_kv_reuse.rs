//! Keeping the KV cache across chat rounds.
//!
//! The paper's chatbot workload (§6.5) drops the KV cache between
//! conversation rounds. Here every full block a request computes stays
//! indexed by its content after the request finishes — in a *free* block,
//! evicted only when the pool needs it — so the next round's prefill maps
//! the conversation so far and computes only the new user query. Nothing is
//! asked for and nothing is released. This example compares computed tokens
//! with the block cache on (the default) and off.
//!
//! Run with: `cargo run --release --example chatbot_kv_reuse`

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig, TokenId};
use vllm::model::{CpuModelExecutor, ModelConfig};

const ROUNDS: usize = 5;
const QUERY_LEN: usize = 24;
const REPLY_LEN: usize = 16;

fn make_engine() -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(16, 512, 128).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 1024).expect("valid scheduler config");
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    LlmEngine::new(exec, cache, sched)
}

fn query_tokens(round: usize) -> Vec<TokenId> {
    (0..QUERY_LEN as u32)
        .map(|i| 1 + (round as u32 * 31 + i) % 100)
        .collect()
}

fn run(reuse: bool) -> (u64, Vec<Vec<TokenId>>) {
    let mut engine = make_engine();
    engine.set_auto_prefix_match(reuse);
    let mut history: Vec<TokenId> = Vec::new();
    let mut replies = Vec::new();
    for round in 0..ROUNDS {
        history.extend(query_tokens(round));
        engine
            .add_request(
                format!("round-{round}"),
                history.clone(),
                SamplingParams::greedy(REPLY_LEN),
            )
            .expect("request accepted");
        let outs = engine.run_to_completion().expect("round completes");
        let reply = outs[0].outputs[0].tokens.clone();
        history.extend(&reply);
        replies.push(reply);
    }
    let manager = engine.scheduler().block_manager();
    assert_eq!(
        manager.num_free_gpu_blocks(),
        manager.num_total_gpu_blocks(),
        "cached history occupies free blocks only"
    );
    (engine.executor().tokens_processed, replies)
}

fn main() {
    let (tokens_drop, replies_drop) = run(false);
    let (tokens_reuse, replies_reuse) = run(true);

    println!("chat with {ROUNDS} rounds, {QUERY_LEN}-token queries, {REPLY_LEN}-token replies");
    println!("  KV dropped between rounds (paper §6.5): {tokens_drop:>6} computed tokens");
    println!("  KV kept in the block cache (default):   {tokens_reuse:>6} computed tokens");
    println!(
        "  compute reduction: {:.1}%",
        (1.0 - tokens_reuse as f64 / tokens_drop as f64) * 100.0
    );
    assert_eq!(
        replies_drop, replies_reuse,
        "KV reuse must not change the conversation"
    );
    println!("  replies identical across both modes: true");
    println!(
        "\nnote: the paper declines this optimization because retained \
         conversation KV competes with other requests for block space; here \
         it cannot — cached blocks are free blocks, handed out (oldest first) \
         the moment a running request needs them."
    );
}
