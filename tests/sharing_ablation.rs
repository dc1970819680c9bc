//! The block-sharing ablation must be output-transparent: eager-copy forks
//! (contiguous-system behaviour) produce exactly the same tokens as
//! copy-on-write sharing, while allocating more blocks and issuing more
//! copies.

use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm::model::{CpuModelExecutor, ModelConfig};

fn run(sharing: bool) -> (Vec<Vec<Vec<u32>>>, u64, usize) {
    let cache = CacheConfig::new(4, 128, 64).unwrap();
    let sched = SchedulerConfig::new(512, 32, 512).unwrap();
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    e.set_block_sharing(sharing);
    e.add_request(
        "parallel",
        (1..=10).collect(),
        SamplingParams::parallel(3, 6).with_seed(9),
    )
    .unwrap();
    e.add_request_at(
        "beam",
        (20..=33).collect(),
        SamplingParams::beam(3, 6),
        1e-6,
    )
    .unwrap();

    let mut peak_allocated = 0usize;
    let mut outs = Vec::new();
    while e.has_unfinished() {
        outs.extend(e.step().unwrap());
        peak_allocated =
            peak_allocated.max(e.scheduler().block_manager().num_allocated_gpu_blocks());
    }
    outs.sort_by_key(|o| o.request_id.clone());
    let tokens: Vec<Vec<Vec<u32>>> = outs
        .into_iter()
        .map(|o| {
            let mut seqs: Vec<Vec<u32>> = o.outputs.into_iter().map(|c| c.tokens).collect();
            seqs.sort();
            seqs
        })
        .collect();
    let copies = e.engine_metrics().block_manager.cow_copies_total.get();
    assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 128);
    (tokens, copies, peak_allocated)
}

#[test]
fn eager_fork_is_output_transparent() {
    let (shared_tokens, shared_copies, shared_peak) = run(true);
    let (eager_tokens, eager_copies, eager_peak) = run(false);
    assert_eq!(
        shared_tokens, eager_tokens,
        "sharing must not change tokens"
    );
    assert!(
        eager_copies > shared_copies,
        "eager mode must copy more ({eager_copies} vs {shared_copies})"
    );
    assert!(
        eager_peak > shared_peak,
        "eager mode must allocate more blocks ({eager_peak} vs {shared_peak})"
    );
}

#[test]
fn fork_eager_respects_pool_accounting() {
    use vllm::core::{BlockSpaceManager, Sequence, SequenceGroup};
    let cfg = CacheConfig::new(4, 16, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let mut m = BlockSpaceManager::new(&cfg);
    let seq = Sequence::new(0, (0..10).collect(), 4);
    let group = SequenceGroup::new("r", seq, SamplingParams::greedy(4), 0.0);
    m.allocate(&group).unwrap();
    assert_eq!(m.num_allocated_gpu_blocks(), 3);

    let copies = m.fork_eager(0, 1).unwrap();
    assert_eq!(copies.len(), 3);
    assert_eq!(m.num_allocated_gpu_blocks(), 6);
    // Tables are disjoint.
    let t0 = m.gpu_block_ids(0).unwrap();
    let t1 = m.gpu_block_ids(1).unwrap();
    assert!(t0.iter().all(|b| !t1.contains(b)));
    // Copies map parent block i to child block i.
    for (c, (s, d)) in copies.iter().map(|c| (c.src, c.dst)).enumerate() {
        assert_eq!(s, t0[c]);
        assert_eq!(d, t1[c]);
    }
    m.free(0).unwrap();
    m.free(1).unwrap();
    assert_eq!(m.num_free_gpu_blocks(), 16);
}
