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

use vllm_model::attention::paged_attention;
use vllm_model::backend::{by_kind, BackendKind};
use vllm_model::{contiguous_causal_attention, Isa, KvPool, SeqRows, WorkerPool};

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
        for kind in BackendKind::all() {
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

// ---------------------------------------------------------------------
// The kernel's seams: partition boundaries, the fixed-shape instances, the
// instruction sets, slots past a row's position. Deterministic cases,
// every backend. (That the fixed-shape and run-time-shape instances, under
// any instruction set, over f32 and int8 tiles, give the same bits is
// checked where they can be called one by one: `attention.rs`'s unit tests.)
// ---------------------------------------------------------------------

/// The kernel's partition: logical blocks per softmax.
const PARTITION_BLOCKS: usize = 32;

/// `(n_heads, head_dim, block size)`: four shapes with a fixed-shape
/// instance — head counts that fill whole groups of accumulator chunks and
/// that leave a remainder — then two that run the run-time-shape instance
/// (a head width and a block size that are not whole vectors).
const SEAM_SHAPES: [(usize, usize, usize); 6] = [
    (8, 8, 16),
    (5, 16, 16),
    (8, 32, 16),
    (3, 64, 16),
    (3, 12, 16),
    (2, 8, 4),
];

fn seam_shape(ctx: usize, (n_heads, head_dim, bs): (usize, usize, usize)) -> Shape {
    Shape {
        ctx,
        bs,
        n_heads,
        head_dim,
    }
}

/// Contexts on, before and after the first two partition boundaries of a
/// block size, the same around one tile, and one of three partitions plus a
/// partial tile (1, 15, 16, 17, 511, 512, 513, 1024, 1025, 1113 at block 16).
fn seam_contexts(bs: usize) -> Vec<usize> {
    let part = PARTITION_BLOCKS * bs;
    let mut ctxs = vec![1, bs + 1, part - 1, part, part + 1];
    ctxs.extend([2 * part, 2 * part + 1, 2 * part + 5 * bs + bs / 2 + 1]);
    if bs > 1 {
        ctxs.extend([bs - 1, bs]);
    }
    ctxs.sort_unstable();
    ctxs
}

/// The segment `first .. first + n_rows` of the sequence behind `table`.
fn segment(table: &[usize], first: usize, n_rows: usize) -> SeqRows<'_> {
    SeqRows {
        block_table: table,
        first_position: first,
        n_rows,
    }
}

/// One sequence of `ctx` positions in `kind`'s layout with a query row per
/// position: `(q, pool, table)`.
fn seam_sequence(kind: BackendKind, shape: &Shape, seed: u64) -> (Vec<f32>, KvPool, Vec<usize>) {
    let len = shape.ctx * shape.hidden();
    let (k, v) = (fill(seed + 1, len), fill(seed + 2, len));
    let (pool, table) = build_pool(kind, &k, &v, shape, seed + 3);
    (fill(seed, len), pool, table)
}

#[test]
fn seam_contexts_match_the_contiguous_oracle() {
    let workers = WorkerPool::new(1);
    assert_eq!(
        seam_contexts(16),
        [1, 15, 16, 17, 511, 512, 513, 1024, 1025, 1113]
    );
    for dims in SEAM_SHAPES {
        let ctxs = seam_contexts(dims.2);
        let shape = seam_shape(*ctxs.last().expect("contexts"), dims);
        let hidden = shape.hidden();
        for kind in BackendKind::all() {
            let (q, pool, table) = seam_sequence(kind, &shape, 11);
            let (k_stored, v_stored) = pool.gather(0, &table, shape.ctx);
            for &ctx in &ctxs {
                let q_row = &q[(ctx - 1) * hidden..ctx * hidden];
                let mut oracle = vec![0.0f32; hidden];
                contiguous_causal_attention(
                    q_row,
                    &k_stored[..ctx * hidden],
                    &v_stored[..ctx * hidden],
                    1,
                    ctx,
                    ctx - 1,
                    shape.n_heads,
                    shape.head_dim,
                    &mut oracle,
                );
                let row = [SeqRows::decode(&table, ctx)];
                let paged = attend(kind, q_row, &pool, &row, &shape, &workers);
                for (i, (a, b)) in oracle.iter().zip(&paged).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "{} {dims:?} ctx {ctx} idx {i}: oracle {a} vs paged {b}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn rows_around_a_partition_boundary_are_bitwise_stable() {
    for dims in SEAM_SHAPES {
        let part = PARTITION_BLOCKS * dims.2;
        let shape = seam_shape(2 * part + 9, dims);
        let hidden = shape.hidden();
        for kind in BackendKind::all() {
            let (q, pool, table) = seam_sequence(kind, &shape, 23);
            let serial = WorkerPool::new(1);
            let rows_of = |first: usize, n: usize, workers: &WorkerPool| {
                let q_rows = &q[first * hidden..(first + n) * hidden];
                let seg = [segment(&table, first, n)];
                attend(kind, q_rows, &pool, &seg, &shape, workers)
            };
            let what = |case: &str| format!("{} {dims:?}: {case}", kind.name());
            // Eleven rows across the first boundary, six across the second.
            let (first, n) = (part - 5, 11);
            let whole = rows_of(first, n, &serial);
            for threads in [2usize, 3] {
                let pooled = rows_of(first, n, &WorkerPool::new(threads));
                assert_eq!(bits(&whole), bits(&pooled), "{}", what("worker count"));
            }
            // Chunk splits before, on and after the boundary.
            for split in [part - 1, part, part + 1] {
                let mut chunked = rows_of(first, split - first, &serial);
                chunked.extend(rows_of(split, first + n - split, &serial));
                assert_eq!(bits(&whole), bits(&chunked), "{}", what("chunk split"));
            }
            // Prefill row ≡ decode row.
            for p in first..first + n {
                let decoded = rows_of(p, 1, &serial);
                let prefill = &whole[(p - first) * hidden..(p - first + 1) * hidden];
                assert_eq!(bits(prefill), bits(&decoded), "{}", what("decode row"));
            }
            // Batched ≡ solo: both windows and one decode row in one call.
            let second = rows_of(2 * part - 3, 6, &serial);
            let decode = rows_of(part / 2, 1, &serial);
            let segs = [
                segment(&table, 2 * part - 3, 6),
                segment(&table, part / 2, 1),
                segment(&table, first, n),
            ];
            let q_batch: Vec<f32> = segs
                .iter()
                .flat_map(|s| &q[s.first_position * hidden..(s.first_position + s.n_rows) * hidden])
                .copied()
                .collect();
            let solo: Vec<f32> = [second, decode, whole.clone()].concat();
            for threads in [1usize, 2, 3] {
                let workers = WorkerPool::new(threads);
                let batched = attend(kind, &q_batch, &pool, &segs, &shape, &workers);
                assert_eq!(bits(&solo), bits(&batched), "{}", what("batched"));
            }
        }
    }
}

/// Rows at every seam context plus one segment across the first partition
/// boundary, through `run`.
fn seam_rows(
    q: &[f32],
    table: &[usize],
    shape: &Shape,
    run: impl Fn(&[f32], &[SeqRows<'_>]) -> Vec<f32>,
) -> Vec<f32> {
    let hidden = shape.hidden();
    let part = PARTITION_BLOCKS * shape.bs;
    let mut segs: Vec<SeqRows<'_>> = seam_contexts(shape.bs)
        .into_iter()
        .map(|ctx| SeqRows::decode(table, ctx))
        .collect();
    segs.push(segment(table, part - 4, 9));
    let q_rows: Vec<f32> = segs
        .iter()
        .flat_map(|s| &q[s.first_position * hidden..(s.first_position + s.n_rows) * hidden])
        .copied()
        .collect();
    run(&q_rows, &segs)
}

#[test]
fn best_instantiation_equals_the_portable_one_bitwise() {
    // Every backend runs the best instruction set this CPU has (AVX2 or
    // AVX-512); the portable instance of the same kernel body, over the same
    // KV element, is its reference. Every set one by one is `attention.rs`'s
    // unit test.
    let workers = WorkerPool::new(1);
    for dims in SEAM_SHAPES {
        let shape = seam_shape(*seam_contexts(dims.2).last().expect("contexts"), dims);
        for kind in BackendKind::all() {
            let (q, pool, table) = seam_sequence(kind, &shape, 41);
            let portable = seam_rows(&q, &table, &shape, |q, segs| {
                let mut out = vec![f32::NAN; q.len()];
                let (n_heads, head_dim) = (shape.n_heads, shape.head_dim);
                let isa = Isa::Portable;
                paged_attention(
                    isa, q, &pool, 0, segs, n_heads, head_dim, &workers, &mut out,
                );
                out
            });
            let best = seam_rows(&q, &table, &shape, |q, segs| {
                attend(kind, q, &pool, segs, &shape, &workers)
            });
            assert!(portable.iter().all(|v| v.is_finite()));
            assert_eq!(bits(&portable), bits(&best), "{} {dims:?}", kind.name());
        }
    }
}

#[test]
fn stale_garbage_never_reaches_an_output() {
    let workers = WorkerPool::new(1);
    for dims in SEAM_SHAPES {
        let bs = dims.2;
        // Two partitions and a last tile with one slot filled (block size 1
        // aside, where every tile is full).
        let shape = seam_shape(PARTITION_BLOCKS * bs + 3 * bs + 1, dims);
        let (ctx, hidden) = (shape.ctx, shape.hidden());
        for kind in BackendKind::all() {
            let (q, mut pool, table) = seam_sequence(kind, &shape, 53);
            let rows = [all_rows(&table, ctx)];
            let clean = attend(kind, &q, &pool, &rows, &shape, &workers);
            assert!(clean.iter().all(|v| v.is_finite()));

            // NaN and both infinities into every slot past the sequence's
            // end and into every block its table does not name. (An int8
            // pool stores an infinite vector as zeros under an infinite
            // scale, which dequantizes to NaN.)
            let garbage = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let vector = |i: usize| vec![garbage[i % 3]; hidden];
            let last = *table.last().expect("blocks");
            for slot in ctx % bs..bs {
                pool.write(0, last, slot, &vector(slot), &vector(slot + 1));
            }
            for block in (0..pool.num_blocks()).filter(|b| !table.contains(b)) {
                for slot in 0..bs {
                    pool.write(0, block, slot, &vector(block + slot), &vector(slot));
                }
            }
            let planted = (ctx % bs..bs).flat_map(|slot| pool.key(0, last, slot));
            assert!(
                planted.into_iter().any(|v| !v.is_finite()),
                "nothing planted"
            );

            let dirty = attend(kind, &q, &pool, &rows, &shape, &workers);
            assert_eq!(
                bits(&clean),
                bits(&dirty),
                "{} {dims:?}: garbage reached an output",
                kind.name()
            );
        }
    }
}

/// Softmax attention of one query row over contiguous K/V in f64.
fn attention_f64(q: &[f32], k: &[f32], v: &[f32], ctx: usize, shape: &Shape) -> Vec<f64> {
    let (hd, hidden) = (shape.head_dim, shape.hidden());
    let mut out = vec![0.0f64; hidden];
    for h in 0..shape.n_heads {
        let at = |x: &[f32], t: usize, d: usize| f64::from(x[t * hidden + h * hd + d]);
        let scores: Vec<f64> = (0..ctx)
            .map(|t| (0..hd).map(|d| at(q, 0, d) * at(k, t, d)).sum::<f64>() / (hd as f64).sqrt())
            .collect();
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let total: f64 = weights.iter().sum();
        for d in 0..hd {
            let sum: f64 = (0..ctx).map(|t| weights[t] * at(v, t, d)).sum();
            out[h * hd + d] = sum / total;
        }
    }
    out
}

#[test]
fn error_against_an_f64_reference_is_pinned() {
    // Values in [-2, 2): outputs are convex combinations of them, so the
    // bound is absolute on a range of 4.
    let workers = WorkerPool::new(1);
    // Worst error over the contexts within one tile, and over the longer ones.
    let mut worst = [0.0f64; 2];
    for dims in SEAM_SHAPES {
        let ctxs = seam_contexts(dims.2);
        let shape = seam_shape(*ctxs.last().expect("contexts"), dims);
        let hidden = shape.hidden();
        // The bounds below are the f32 element's (int8 values round the same
        // dot products differently: 6.05e-7 within one tile).
        let kind = BackendKind::Simd;
        for seed in [61u64, 67, 71] {
            let (q, pool, table) = seam_sequence(kind, &shape, seed);
            let (k, v) = pool.gather(0, &table, shape.ctx);
            for &ctx in &ctxs {
                let q_row = &q[(ctx - 1) * hidden..ctx * hidden];
                let exact = attention_f64(q_row, &k, &v, ctx, &shape);
                let row = [SeqRows::decode(&table, ctx)];
                let paged = attend(kind, q_row, &pool, &row, &shape, &workers);
                let class = &mut worst[usize::from(ctx > shape.bs)];
                for (a, b) in exact.iter().zip(&paged) {
                    *class = class.max((a - f64::from(*b)).abs());
                }
            }
        }
    }
    // Measured 5.1e-7 within one tile and 6.7e-7 beyond — to every digit
    // what the per-tile online recurrence this kernel replaced gives on the
    // same rows: at this level the error is the f32 dot product's, which
    // both compute in the same order.
    assert!(
        worst[0] <= 6e-7 && worst[1] <= 7e-7,
        "max |paged - f64 reference| = {worst:?}"
    );
}
