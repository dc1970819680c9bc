//! Integration tests reproducing the paper's worked examples (Figs. 6–10)
//! on the real numeric engine.

use vllm::core::{CacheConfig, Device, LlmEngine, SamplingParams, SchedulerConfig, SequenceStatus};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn engine(block_size: usize, gpu_blocks: usize) -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(block_size, gpu_blocks, gpu_blocks).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512).unwrap();
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    LlmEngine::new(exec, cache, sched)
}

/// Fig. 6: a 7-token prompt maps two logical blocks onto (arbitrary)
/// physical blocks; the 8th token fills the last slot, the 9th allocates a
/// third block.
#[test]
fn fig6_block_table_growth() {
    let mut e = engine(4, 64);
    e.add_request("r", (10..17).collect(), SamplingParams::greedy(8))
        .unwrap();
    // Prompt step: 7 tokens → 2 blocks; the first output token fills slot 8.
    e.step().unwrap();
    {
        let bm = e.scheduler().block_manager();
        let table = bm.block_table(0).unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.iter().all(|b| b.device == Device::Gpu));
    }
    // Decode step 1: token 8 lands in the last slot of block 1 (no growth).
    e.step().unwrap();
    assert_eq!(
        e.scheduler().block_manager().block_table(0).unwrap().len(),
        2
    );
    // Decode step 2: token 9 opens logical block 2 → physical block 3.
    e.step().unwrap();
    assert_eq!(
        e.scheduler().block_manager().block_table(0).unwrap().len(),
        3
    );
}

/// Fig. 7: two concurrent requests hold disjoint physical blocks from one
/// pool; logical adjacency does not imply physical adjacency.
#[test]
fn fig7_two_requests_disjoint_blocks() {
    let mut e = engine(4, 64);
    e.add_request("a", (0..7).collect(), SamplingParams::greedy(4))
        .unwrap();
    e.add_request("b", (20..25).collect(), SamplingParams::greedy(4))
        .unwrap();
    e.step().unwrap();
    let bm = e.scheduler().block_manager();
    let ta = bm.gpu_block_ids(0).unwrap();
    let tb = bm.gpu_block_ids(1).unwrap();
    for x in &ta {
        assert!(!tb.contains(x), "requests must not share blocks");
    }
    assert_eq!(bm.num_allocated_gpu_blocks(), ta.len() + tb.len());
}

/// Fig. 8: parallel sampling shares the prompt blocks with reference count
/// 2 and copy-on-write splits only the last (partial) block.
#[test]
fn fig8_parallel_sampling_copy_on_write() {
    let mut e = engine(4, 64);
    // 7-token prompt: blocks 0 (full) and 1 (3/4 filled).
    e.add_request("r", (0..7).collect(), SamplingParams::parallel(2, 6))
        .unwrap();
    e.step().unwrap(); // Prefill + fork; each sample appended one token.
    {
        let bm = e.scheduler().block_manager();
        // Both sequences map the same two physical blocks.
        assert_eq!(bm.block_table(0).unwrap(), bm.block_table(1).unwrap());
        assert_eq!(bm.num_allocated_gpu_blocks(), 2);
    }
    // The next decode step writes into the shared partial block → CoW.
    e.step().unwrap();
    let bm = e.scheduler().block_manager();
    let t0 = bm.block_table(0).unwrap();
    let t1 = bm.block_table(1).unwrap();
    assert_eq!(t0[0], t1[0], "full prompt block stays shared");
    assert_ne!(t0[1], t1[1], "partial block split by copy-on-write");
    let copies = &e.engine_metrics().block_manager.cow_copies_total;
    assert_eq!(copies.get(), 1, "the step carried one block copy");
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs[0].outputs.len(), 2);
}

/// Fig. 9: beam search frees dropped candidates' blocks and new candidates
/// fork from the surviving ones; everything is reclaimed at the end.
#[test]
fn fig9_beam_search_block_lifecycle() {
    let mut e = engine(4, 128);
    e.add_request("r", (0..16).collect(), SamplingParams::beam(4, 12))
        .unwrap();
    let mut saw_drop = false;
    let mut peak_sharing = 0.0f64;
    while e.has_unfinished() {
        e.step().unwrap();
        peak_sharing = peak_sharing.max(e.scheduler().block_manager().sharing_savings());
        if let Some(g) = e.scheduler().group("r") {
            saw_drop |= g
                .seqs()
                .iter()
                .any(|s| s.status == SequenceStatus::FinishedDropped);
        }
    }
    assert!(peak_sharing > 0.3, "beam candidates must share blocks");
    assert!(saw_drop, "beam search must drop candidates");
    assert_eq!(
        e.scheduler().block_manager().num_free_gpu_blocks(),
        128,
        "all blocks reclaimed"
    );
}

/// Fig. 10: two nested system prompts; requests map the longest cached run
/// of their prompt's blocks.
#[test]
fn fig10_nested_shared_prefixes() {
    let mut e = engine(4, 128);
    let short: Vec<u32> = (0..8).collect();
    let mut long = short.clone();
    long.extend(50..62);
    e.register_prefix(&short).unwrap();
    e.register_prefix(&long).unwrap();

    // A prompt extending the long prefix matches it.
    let mut p_long = long.clone();
    p_long.extend([100, 101, 102]);
    e.add_request("long", p_long, SamplingParams::greedy(3))
        .unwrap();
    // A prompt extending only the short prefix matches the short one.
    let mut p_short = short.clone();
    p_short.extend([110, 111]);
    e.add_request("short", p_short, SamplingParams::greedy(3))
        .unwrap();
    e.step().unwrap();
    let g_long = e.scheduler().group("long").unwrap();
    let g_short = e.scheduler().group("short").unwrap();
    assert_eq!(g_long.cached_tokens, long.len());
    assert_eq!(g_short.cached_tokens, short.len());
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs.len(), 2);
}

/// §4.5: the number of blocks in the CPU swap pool never exceeds the GPU
/// pool's (swap space bounded by the KV budget).
#[test]
fn swap_space_bound_invariant() {
    use vllm::core::config::PreemptionMode;
    let cache = CacheConfig::new(4, 8, 8).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512)
        .unwrap()
        .with_preemption_mode(PreemptionMode::Swap);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    for i in 0..4 {
        e.add_request_at(
            format!("r{i}"),
            (0..8).map(|t| t + i * 10).collect(),
            SamplingParams::greedy(10),
            i as f64 * 1e-6,
        )
        .unwrap();
    }
    while e.has_unfinished() {
        e.step().unwrap();
        let bm = e.scheduler().block_manager();
        let cpu_used = 8 - bm.num_free_cpu_blocks();
        assert!(cpu_used <= 8, "swap usage bounded by the GPU pool size");
    }
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 8);
    assert_eq!(e.scheduler().block_manager().num_free_cpu_blocks(), 8);
}
