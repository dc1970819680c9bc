//! Property tests over the block manager: arbitrary interleavings of
//! allocate / append / compute / fork / copy-on-write / swap / resize / free
//! must preserve the pool invariants — no leak, no double free, reference
//! counts equal to table references, the content index one-to-one with the
//! blocks that hold a hash, and swap-space usage bounded by the GPU pool.
//! Every prompt is a run of the same token, so once sequences are marked
//! computed nearly every admission maps cached blocks, live and free.

use proptest::prelude::*;

use vllm_core::{
    AllocStatus, BlockSpaceManager, CacheConfig, SamplingParams, Sequence, SequenceGroup,
    SequenceStatus,
};

#[derive(Debug, Clone)]
enum Op {
    /// Admit a new single-sequence group with this prompt length.
    Allocate(usize),
    /// Append one token to the i-th live sequence (mod live count).
    Append(usize),
    /// Fork the i-th live sequence.
    Fork(usize),
    /// Mark every token of the i-th live sequence computed (its full blocks
    /// enter the content index).
    Computed(usize),
    /// Free the i-th live sequence: as finished (its blocks stay cached) for
    /// even `i`, as recompute-preempted (they leave the index) for odd.
    Free(usize),
    /// Resize the GPU pool to this many blocks (at least the live ones),
    /// compacting when it shrinks.
    Resize(usize),
    /// Swap the i-th live group out and immediately back in.
    SwapRoundTrip(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..40).prop_map(Op::Allocate),
        (0usize..16).prop_map(Op::Append),
        (0usize..16).prop_map(Op::Fork),
        (0usize..16).prop_map(Op::Computed),
        (0usize..16).prop_map(Op::Computed),
        (0usize..16).prop_map(Op::Free),
        (8usize..65).prop_map(Op::Resize),
        (0usize..16).prop_map(Op::SwapRoundTrip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_op_sequences_preserve_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        block_size in 1usize..9,
    ) {
        let gpu_blocks = 64;
        let cfg = CacheConfig::new(block_size, gpu_blocks, gpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let mut m = BlockSpaceManager::new(&cfg);
        // Live sequences, each wrapped in its own group for swap ops.
        let mut groups: Vec<SequenceGroup> = Vec::new();
        let mut next_id: u64 = 0;

        for op in ops {
            match op {
                Op::Allocate(prompt_len) => {
                    let seq = Sequence::new(next_id, vec![1; prompt_len], block_size);
                    let group = SequenceGroup::new(
                        format!("g{next_id}"),
                        seq,
                        SamplingParams::greedy(8),
                        0.0,
                    );
                    next_id += 1;
                    if m.can_allocate(&group) == AllocStatus::Ok {
                        m.allocate(&group).unwrap();
                        let mut group = group;
                        group.set_status_all(SequenceStatus::Running);
                        groups.push(group);
                    }
                }
                Op::Append(i) => {
                    if groups.is_empty() {
                        continue;
                    }
                    let idx = i % groups.len();
                    let group = &mut groups[idx];
                    let sid = group.seqs()[0].seq_id;
                    // Only append while the sequence is GPU-resident.
                    if !m.has_table(sid) || m.gpu_block_ids(sid).is_err() {
                        continue;
                    }
                    if m.num_free_gpu_blocks() == 0 {
                        // The scheduler would preempt here; skip the append
                        // so the sequence never outgrows its table.
                        continue;
                    }
                    group.get_mut(sid).unwrap().data.append_token(7);
                    let seq_ref = group.get(sid).unwrap();
                    let _ = m.append_slot(seq_ref).unwrap();
                }
                Op::Fork(i) => {
                    if groups.is_empty() || m.num_free_gpu_blocks() == 0 {
                        continue;
                    }
                    let idx = i % groups.len();
                    let parent_id = groups[idx].seqs()[0].seq_id;
                    if !m.has_table(parent_id) {
                        continue;
                    }
                    let child = groups[idx].get(parent_id).unwrap().fork(next_id);
                    next_id += 1;
                    let child_id = child.seq_id;
                    m.fork(parent_id, child_id).unwrap();
                    let mut g = SequenceGroup::new(
                        format!("g{child_id}"),
                        child,
                        SamplingParams::greedy(8),
                        0.0,
                    );
                    g.set_status_all(SequenceStatus::Running);
                    groups.push(g);
                }
                Op::Computed(i) => {
                    if groups.is_empty() {
                        continue;
                    }
                    let idx = i % groups.len();
                    let group = &mut groups[idx];
                    let sid = group.seqs()[0].seq_id;
                    if m.gpu_block_ids(sid).is_err() {
                        continue;
                    }
                    let seq = group.get_mut(sid).unwrap();
                    let was_computed = seq.data.num_computed_tokens();
                    seq.data.set_num_computed_tokens(seq.len());
                    m.mark_computed(seq, was_computed);
                }
                Op::Free(i) => {
                    if groups.is_empty() {
                        continue;
                    }
                    let idx = i % groups.len();
                    let g = groups.swap_remove(idx);
                    for s in g.seqs() {
                        if i % 2 == 0 {
                            m.free(s.seq_id).unwrap();
                        } else {
                            m.free_for_recompute(s.seq_id).unwrap();
                        }
                    }
                }
                Op::Resize(blocks) => {
                    let target = blocks.max(m.num_allocated_gpu_blocks());
                    m.resize(target, gpu_blocks).unwrap();
                    prop_assert_eq!(m.num_total_gpu_blocks(), target);
                }
                Op::SwapRoundTrip(i) => {
                    if groups.is_empty() {
                        continue;
                    }
                    let idx = i % groups.len();
                    let group = &mut groups[idx];
                    if !m.can_swap_out(group) {
                        continue;
                    }
                    let out = m.swap_out(group).unwrap();
                    group.set_status_all(SequenceStatus::Swapped);
                    prop_assert!(
                        out.len() <= gpu_blocks,
                        "swap-space bound violated: {} blocks",
                        out.len()
                    );
                    if m.can_swap_in(group) {
                        m.swap_in(group).unwrap();
                        group.set_status_all(SequenceStatus::Running);
                    } else {
                        // Leave it swapped; free it to keep the walk simple.
                        let g = groups.swap_remove(idx);
                        for s in g.seqs() {
                            m.free(s.seq_id).unwrap();
                        }
                    }
                }
            }
            m.assert_consistent();
        }

        // Drain everything; the pools must return to full.
        for g in groups {
            for s in g.seqs() {
                m.free(s.seq_id).unwrap();
            }
        }
        prop_assert_eq!(m.num_free_gpu_blocks(), m.num_total_gpu_blocks());
        prop_assert_eq!(m.num_free_cpu_blocks(), gpu_blocks);
        m.assert_consistent();
    }

    #[test]
    fn sharing_savings_bounded(
        prompt_len in 1usize..64,
        n_forks in 1usize..8,
    ) {
        let cfg = CacheConfig::new(4, 256, 0).unwrap();
        let mut m = BlockSpaceManager::new(&cfg);
        let seq = Sequence::new(0, vec![1; prompt_len], 4);
        let group = SequenceGroup::new("g", seq, SamplingParams::greedy(8), 0.0);
        m.allocate(&group).unwrap();
        for child in 1..=n_forks as u64 {
            m.fork(0, child).unwrap();
        }
        let savings = m.sharing_savings();
        // n+1 sequences sharing identical tables: savings = n/(n+1).
        let expected = n_forks as f64 / (n_forks + 1) as f64;
        prop_assert!((savings - expected).abs() < 1e-9, "{savings} vs {expected}");
        for id in 0..=n_forks as u64 {
            m.free(id).unwrap();
        }
        prop_assert_eq!(m.num_free_gpu_blocks(), 256);
    }
}
