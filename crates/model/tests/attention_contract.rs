//! The PagedAttention kernel's contract, checked on every backend over
//! random shapes: context lengths of 1, a partial last tile and many
//! blocks; block sizes 1, 4, 16 and 32; head widths 8, 12, 32 and 64 (12 is
//! not a whole vector); scrambled block tables.
//!
//! - (a) within 1e-5 of the contiguous two-pass oracle run over the pool's
//!   own (dequantized) contents;
//! - (b) batched ≡ solo, bit for bit, for any batch order and any
//!   worker-pool width;
//! - (c) every chunk split of a prompt ≡ the monolithic call, bit for bit;
//! - (d) a prefill row ≡ the decode row at the same position, bit for bit;
//! - (e) permuting physical block ids changes no bit;
//! - (f) quant-kv8 stores every vector within its documented `scale / 2`
//!   of the original, which with (a) bounds its whole deviation;
//! - outputs are convex combinations of the value vectors, and the block
//!   size only moves them within rounding.

use proptest::prelude::*;

use vllm_model::backend::{by_kind, BackendKind};
use vllm_model::{contiguous_causal_attention, KvPool, SeqRows, WorkerPool};

const BLOCK_SIZES: [usize; 4] = [1, 4, 16, 32];
const HEAD_DIMS: [usize; 4] = [8, 12, 32, 64];

/// xorshift stream of values in `[-2, 2)`.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 4000) as f32 / 1000.0) - 2.0
        })
        .collect()
}

/// One random shape. `ctx_pick` spreads contexts over the three classes:
/// a single position, one partial tile, several blocks.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ctx: usize,
    bs: usize,
    n_heads: usize,
    head_dim: usize,
}

impl Shape {
    fn new(ctx_pick: usize, bs_pick: usize, hd_pick: usize, n_heads: usize) -> Self {
        let bs = BLOCK_SIZES[bs_pick];
        let ctx = match ctx_pick % 3 {
            0 => 1,
            1 => 1 + ctx_pick % bs.max(2),
            _ => bs + 1 + ctx_pick % (4 * bs + 7),
        };
        Self {
            ctx,
            bs,
            n_heads,
            head_dim: HEAD_DIMS[hd_pick],
        }
    }

    fn hidden(&self) -> usize {
        self.n_heads * self.head_dim
    }
}

/// A pool in `kind`'s KV layout holding `k`/`v` for positions `0..ctx`
/// behind a block table that is a `scramble`-chosen permutation.
fn build_pool(
    kind: BackendKind,
    k: &[f32],
    v: &[f32],
    shape: &Shape,
    scramble: u64,
) -> (KvPool, Vec<usize>) {
    let hidden = shape.hidden();
    let n_blocks = shape.ctx.div_ceil(shape.bs);
    let element = by_kind(kind).kv_layout().element;
    let mut pool = KvPool::with_element(1, n_blocks + 3, shape.bs, hidden, element);
    let mut table: Vec<usize> = (0..n_blocks + 3).collect();
    // Fisher–Yates with a deterministic stream.
    let mut s = scramble.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..table.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        table.swap(i, (s as usize) % (i + 1));
    }
    table.truncate(n_blocks);
    for t in 0..shape.ctx {
        pool.write(
            0,
            table[t / shape.bs],
            t % shape.bs,
            &k[t * hidden..(t + 1) * hidden],
            &v[t * hidden..(t + 1) * hidden],
        );
    }
    (pool, table)
}

fn attend(
    kind: BackendKind,
    q: &[f32],
    pool: &KvPool,
    seqs: &[SeqRows<'_>],
    shape: &Shape,
    workers: &WorkerPool,
) -> Vec<f32> {
    let mut out = vec![f32::NAN; q.len()];
    by_kind(kind).paged_attention(
        q,
        pool,
        0,
        seqs,
        shape.n_heads,
        shape.head_dim,
        workers,
        &mut out,
    );
    out
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// All rows `0..ctx` of one sequence as a single segment.
fn all_rows(table: &[usize], ctx: usize) -> SeqRows<'_> {
    SeqRows {
        block_table: table,
        first_position: 0,
        n_rows: ctx,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) + (f): every row of a whole-prompt call is within 1e-5 of the
    /// oracle over what the pool stores, and what an int8 pool stores is
    /// within `scale / 2` of what was written.
    #[test]
    fn rows_match_the_contiguous_oracle(
        ctx_pick in 0usize..1000,
        bs_pick in 0usize..4,
        hd_pick in 0usize..4,
        n_heads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new(ctx_pick, bs_pick, hd_pick, n_heads);
        let (ctx, hidden) = (shape.ctx, shape.hidden());
        let q = fill(seed, ctx * hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let workers = WorkerPool::new(1);
        for kind in BackendKind::all() {
            let (pool, table) = build_pool(kind, &k, &v, &shape, seed + 3);
            let (k_stored, v_stored) = pool.gather(0, &table, ctx);
            for (written, stored) in [(&k, &k_stored), (&v, &v_stored)] {
                for (w, s) in written.chunks(hidden).zip(stored.chunks(hidden)) {
                    let bound = match kind {
                        BackendKind::QuantKv8 => {
                            w.iter().fold(0.0f32, |m, x| m.max(x.abs())) / 127.0 / 2.0 + 1e-6
                        }
                        _ => 0.0,
                    };
                    for (a, b) in w.iter().zip(s) {
                        prop_assert!((a - b).abs() <= bound, "{}: stored {b} for {a}", kind.name());
                    }
                }
            }
            let mut oracle = vec![0.0f32; ctx * hidden];
            contiguous_causal_attention(
                &q, &k_stored, &v_stored, ctx, ctx, 0, shape.n_heads, shape.head_dim, &mut oracle,
            );
            let paged = attend(kind, &q, &pool, &[all_rows(&table, ctx)], &shape, &workers);
            for (i, (a, b)) in oracle.iter().zip(&paged).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-5,
                    "{} {shape:?} idx {i}: oracle {a} vs paged {b}",
                    kind.name()
                );
            }
        }
    }

    /// (c) + (d): however a prompt's rows are split into calls, and also
    /// one decode row at a time, every row comes out with the same bits.
    #[test]
    fn chunked_and_decode_rows_equal_monolithic_rows_bitwise(
        ctx_pick in 0usize..1000,
        bs_pick in 0usize..4,
        hd_pick in 0usize..4,
        n_heads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new(ctx_pick, bs_pick, hd_pick, n_heads);
        let (ctx, hidden) = (shape.ctx, shape.hidden());
        let q = fill(seed, ctx * hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let workers = WorkerPool::new(1);
        for kind in BackendKind::all() {
            let (pool, table) = build_pool(kind, &k, &v, &shape, seed + 3);
            let whole = attend(kind, &q, &pool, &[all_rows(&table, ctx)], &shape, &workers);

            let mut chunked = Vec::new();
            let (mut start, mut s) = (0, seed | 1);
            while start < ctx {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let n_rows = (1 + (s as usize) % 9).min(ctx - start);
                let chunk = SeqRows { block_table: &table, first_position: start, n_rows };
                let q_chunk = &q[start * hidden..(start + n_rows) * hidden];
                chunked.extend(attend(kind, q_chunk, &pool, &[chunk], &shape, &workers));
                start += n_rows;
            }
            prop_assert_eq!(bits(&whole), bits(&chunked), "{} {:?}: chunked", kind.name(), shape);

            for p in 0..ctx {
                let row = SeqRows::decode(&table, p + 1);
                let q_row = &q[p * hidden..(p + 1) * hidden];
                let decoded = attend(kind, q_row, &pool, &[row], &shape, &workers);
                prop_assert_eq!(
                    bits(&whole[p * hidden..(p + 1) * hidden]),
                    bits(&decoded),
                    "{} {:?}: prefill row {} vs decode row", kind.name(), shape, p
                );
            }
        }
    }

    /// (b): sequences of different lengths sharing one pool — decode rows
    /// and multi-row segments mixed — give the same bits alone and batched
    /// in any order over any number of workers.
    #[test]
    fn batched_equals_solo_bitwise_for_any_order_and_pool_width(
        bs_pick in 0usize..4,
        hd_pick in 0usize..4,
        n_heads in 1usize..5,
        n_seqs in 2usize..6,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new(2, bs_pick, hd_pick, n_heads);
        let (bs, hidden) = (shape.bs, shape.hidden());
        // Sequence i: `ctx[i]` positions, the last `rows[i]` of them queried.
        let ctxs: Vec<usize> = (0..n_seqs).map(|i| 1 + (seed as usize * 7 + i * 13) % (3 * bs + 5)).collect();
        let rows: Vec<usize> = ctxs.iter().enumerate().map(|(i, &c)| if i % 2 == 0 { 1 } else { 1 + c / 2 }).collect();
        let blocks: usize = ctxs.iter().map(|c| c.div_ceil(bs)).sum();
        for kind in BackendKind::all() {
            let element = by_kind(kind).kv_layout().element;
            let mut pool = KvPool::with_element(1, blocks, bs, hidden, element);
            // Interleave the sequences' blocks through the pool.
            let mut tables: Vec<Vec<usize>> = vec![Vec::new(); n_seqs];
            let mut next = 0;
            for j in 0..blocks {
                for (i, t) in tables.iter_mut().enumerate() {
                    if j < ctxs[i].div_ceil(bs) {
                        t.push(next);
                        next += 1;
                    }
                }
            }
            let qs: Vec<Vec<f32>> = (0..n_seqs).map(|i| fill(seed + 100 + i as u64, rows[i] * hidden)).collect();
            for (i, table) in tables.iter().enumerate() {
                let k = fill(seed + 200 + i as u64, ctxs[i] * hidden);
                let v = fill(seed + 300 + i as u64, ctxs[i] * hidden);
                for t in 0..ctxs[i] {
                    pool.write(0, table[t / bs], t % bs, &k[t * hidden..(t + 1) * hidden], &v[t * hidden..(t + 1) * hidden]);
                }
            }
            let segment = |i: usize| SeqRows {
                block_table: &tables[i],
                first_position: ctxs[i] - rows[i],
                n_rows: rows[i],
            };
            let serial = WorkerPool::new(1);
            let solo: Vec<Vec<f32>> = (0..n_seqs)
                .map(|i| attend(kind, &qs[i], &pool, &[segment(i)], &shape, &serial))
                .collect();
            for (round, threads) in [1usize, 2, 3, 5].into_iter().enumerate() {
                // A different rotation-and-reversal of the batch each round.
                let mut order: Vec<usize> = (0..n_seqs).collect();
                order.rotate_left((seed as usize + round) % n_seqs);
                if round % 2 == 1 {
                    order.reverse();
                }
                let q: Vec<f32> = order.iter().flat_map(|&i| qs[i].iter().copied()).collect();
                let seqs: Vec<SeqRows<'_>> = order.iter().map(|&i| segment(i)).collect();
                let batched = attend(kind, &q, &pool, &seqs, &shape, &WorkerPool::new(threads));
                let expect: Vec<f32> = order.iter().flat_map(|&i| solo[i].iter().copied()).collect();
                prop_assert_eq!(
                    bits(&batched), bits(&expect),
                    "{} {:?} order {:?} threads {}", kind.name(), shape, order, threads
                );
            }
        }
    }

    /// (e): where the blocks sit physically is invisible in the output.
    #[test]
    fn physical_block_placement_changes_no_bit(
        ctx_pick in 0usize..1000,
        bs_pick in 0usize..4,
        hd_pick in 0usize..4,
        n_heads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new(ctx_pick, bs_pick, hd_pick, n_heads);
        let (ctx, hidden) = (shape.ctx, shape.hidden());
        let q = fill(seed, ctx * hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let workers = WorkerPool::new(1);
        for kind in BackendKind::all() {
            let (pool_a, table_a) = build_pool(kind, &k, &v, &shape, seed + 3);
            let (pool_b, table_b) = build_pool(kind, &k, &v, &shape, seed + 4);
            let a = attend(kind, &q, &pool_a, &[all_rows(&table_a, ctx)], &shape, &workers);
            let b = attend(kind, &q, &pool_b, &[all_rows(&table_b, ctx)], &shape, &workers);
            prop_assert_eq!(bits(&a), bits(&b), "{} {:?}", kind.name(), shape);
        }
    }

    /// Softmax weights are a convex combination: every output coordinate
    /// lies within [min, max] of the stored values at that coordinate.
    #[test]
    fn attention_output_within_value_hull(
        ctx_pick in 0usize..1000,
        bs_pick in 0usize..4,
        hd_pick in 0usize..4,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new(ctx_pick, bs_pick, hd_pick, 2);
        let (ctx, hidden) = (shape.ctx, shape.hidden());
        let q = fill(seed, hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let workers = WorkerPool::new(1);
        for kind in BackendKind::all() {
            let (pool, table) = build_pool(kind, &k, &v, &shape, seed + 3);
            let (_, v_stored) = pool.gather(0, &table, ctx);
            let out = attend(kind, &q, &pool, &[SeqRows::decode(&table, ctx)], &shape, &workers);
            for (j, o) in out.iter().enumerate() {
                let col = (0..ctx).map(|t| v_stored[t * hidden + j]);
                let lo = col.clone().fold(f32::INFINITY, f32::min) - 1e-4;
                let hi = col.fold(f32::NEG_INFINITY, f32::max) + 1e-4;
                prop_assert!((lo..=hi).contains(o), "{} coord {j}: {o} not in [{lo},{hi}]", kind.name());
            }
        }
    }

    /// The same KV content through different block sizes yields the same
    /// attention output up to rounding (the tile boundaries move, so the
    /// bits may).
    #[test]
    fn block_size_only_moves_rounding(
        ctx in 1usize..96,
        seed in 0u64..1000,
    ) {
        let (n_heads, head_dim) = (2usize, 8usize);
        let hidden = n_heads * head_dim;
        let q = fill(seed, hidden);
        let k = fill(seed + 1, ctx * hidden);
        let v = fill(seed + 2, ctx * hidden);
        let workers = WorkerPool::new(1);
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let mut first: Option<Vec<f32>> = None;
            for bs in [1usize, 3, 8, 16, 64] {
                let shape = Shape { ctx, bs, n_heads, head_dim };
                let (pool, table) = build_pool(kind, &k, &v, &shape, seed + bs as u64);
                let out = attend(kind, &q, &pool, &[SeqRows::decode(&table, ctx)], &shape, &workers);
                match &first {
                    None => first = Some(out),
                    Some(reference) => {
                        for (a, b) in reference.iter().zip(&out) {
                            prop_assert!((a - b).abs() < 1e-5, "{} bs={bs}: {a} vs {b}", kind.name());
                        }
                    }
                }
            }
        }
    }
}
