//! Attention kernels: the contiguous reference and the PagedAttention
//! kernel that reads K/V in place through a block table (§4.1, Eq. 4).
//!
//! There is one paged kernel, [`paged_attention`], for decode rows and
//! prefill/chunk rows alike. Its tile is a *logical* KV block — positions
//! `j·B .. (j+1)·B` of the sequence, one contiguous `B × hidden` region of
//! the pool — and per (query row, tile) it does what Eq. 4 says:
//!
//! 1. **scores** for every slot of the tile and every head at once from the
//!    dimension-major K tile, slots as lanes ([`TileLanes::scores`]);
//! 2. **softmax step**: one tile max, one `exp(m − m_new)` correction per
//!    head and the slot weights `exp(s − m_new)`, through the deterministic
//!    vector `exp` of the `wide` shim ([`softmax_step`]);
//! 3. **accumulate** `acc = acc·corr + Σ_slot w·V` from the V tile
//!    ([`TileLanes::accumulate`]).
//!
//! Backends supply only the two tile primitives; the row loop, the tiling
//! and the softmax recurrence exist once, here.
//!
//! **Determinism contract.** A row's output is a pure function of its query
//! vector, the KV contents at positions `0 ..= p`, and the block size:
//! tiles are logical blocks counted from position 0 (never chunk-, batch-
//! or physical-block-relative), every reduction runs in a fixed order
//! (`d`-ascending dot products, slot-ascending sums), and rows share no
//! state. So per backend, bit for bit: batched ≡ solo, chunked ≡
//! monolithic, any worker count, any physical block placement — and a
//! prefill row ≡ the decode row at the same position.

use wide::f32x8;

use crate::kv_cache::{KvPool, KvTile};
use crate::ops::{axpy, dot, softmax, timing};
use crate::pool::WorkerPool;

/// Multi-head causal attention over contiguous K/V buffers.
///
/// Queries `q` are `nq × hidden` at absolute positions `q_start ..
/// q_start + nq`; keys/values are `nk × hidden` at positions `0 .. nk`.
/// Query at absolute position `p` attends to keys `0 ..= p`. A two-pass
/// softmax over materialized score rows: the oracle the paged kernel is
/// tested against and the FasterTransformer-style baseline of Fig. 18a —
/// not on the serving path.
///
/// # Panics
///
/// Panics if shapes disagree or `q_start + nq > nk`.
#[allow(clippy::too_many_arguments)]
pub fn contiguous_causal_attention(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    nq: usize,
    nk: usize,
    q_start: usize,
    n_heads: usize,
    head_dim: usize,
    out: &mut [f32],
) {
    let hidden = n_heads * head_dim;
    assert_eq!(q.len(), nq * hidden);
    assert_eq!(k.len(), nk * hidden);
    assert_eq!(v.len(), nk * hidden);
    assert_eq!(out.len(), nq * hidden);
    assert!(q_start + nq <= nk, "queries attend beyond provided keys");
    let scale = 1.0 / (head_dim as f32).sqrt();

    let mut scores = vec![0.0f32; nk];
    for qi in 0..nq {
        let pos = q_start + qi;
        let ctx = pos + 1;
        for h in 0..n_heads {
            let ho = h * head_dim;
            let q_h = &q[qi * hidden + ho..qi * hidden + ho + head_dim];
            let s = &mut scores[..ctx];
            for (t, s_t) in s.iter_mut().enumerate() {
                let k_h = &k[t * hidden + ho..t * hidden + ho + head_dim];
                *s_t = dot(q_h, k_h) * scale;
            }
            softmax(s);
            let o = &mut out[qi * hidden + ho..qi * hidden + ho + head_dim];
            o.fill(0.0);
            for (t, &w) in s.iter().enumerate() {
                let v_h = &v[t * hidden + ho..t * hidden + ho + head_dim];
                axpy(o, w, v_h);
            }
        }
    }
}

/// Single-query attention over contiguous K/V (the FasterTransformer-style
/// decode kernel used as the Fig. 18a baseline).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn contiguous_attention_decode(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    context_len: usize,
    n_heads: usize,
    head_dim: usize,
    out: &mut [f32],
) {
    contiguous_causal_attention(
        q,
        k,
        v,
        1,
        context_len,
        context_len - 1,
        n_heads,
        head_dim,
        out,
    );
}

/// One sequence's query rows for [`paged_attention`]: `n_rows` consecutive
/// positions starting at `first_position`, attending through `block_table`.
/// The row at position `p` sees KV positions `0 ..= p`, all of which —
/// its own included — must already be written. A decode step is a one-row
/// segment; a prefill chunk is one segment of many rows.
#[derive(Debug, Clone, Copy)]
pub struct SeqRows<'a> {
    /// Physical block indices for the sequence's logical blocks.
    pub block_table: &'a [usize],
    /// Absolute position of the first query row.
    pub first_position: usize,
    /// Number of consecutive query rows.
    pub n_rows: usize,
}

impl<'a> SeqRows<'a> {
    /// The single decode row of a sequence holding `context_len` KV slots
    /// (the query token's own K/V at position `context_len − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `context_len` is zero.
    #[must_use]
    pub fn decode(block_table: &'a [usize], context_len: usize) -> Self {
        assert!(context_len > 0, "empty context");
        Self {
            block_table,
            first_position: context_len - 1,
            n_rows: 1,
        }
    }
}

/// Shapes the tile primitives need.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileDims {
    pub n_heads: usize,
    pub head_dim: usize,
    /// `n_heads * head_dim`, the width of one K/V slot.
    pub hidden: usize,
    /// Length of one head's score row: the block size rounded up to whole
    /// `f32x8` vectors.
    pub stride: usize,
    /// `1 / sqrt(head_dim)`.
    pub scale: f32,
}

/// The two tile primitives a backend supplies to the kernel. Score and
/// weight buffers are head-major: head `h`, slot `s` at `h * stride + s`.
pub(crate) trait TileLanes {
    /// `scores[h·stride + s] = (q_h · K[s]_h) · scale` for every head and
    /// every slot `s < fill` of the dimension-major K tile, each dot
    /// product summed in ascending `d` (an int8 tile folds the slot's
    /// dequantization scale in). May leave anything in slots `fill ..`.
    fn scores(q: &[f32], k: KvTile<'_>, fill: usize, dims: &TileDims, scores: &mut [f32]);

    /// `acc_h = acc_h · corr[h] + Σ_{s < fill} w[h·stride + s] · V[s]_h`
    /// over the slot-major V tile, slots added in ascending order.
    fn accumulate(
        corr: &[f32],
        w: &[f32],
        v: KvTile<'_>,
        fill: usize,
        dims: &TileDims,
        acc: &mut [f32],
    );

    /// Runs [`attend_rows`] with these primitives. A backend with a wider
    /// instruction set overrides this to re-instantiate the row loop under
    /// its `#[target_feature]`.
    fn attend(task: &RowTask<'_>, out: &mut [f32])
    where
        Self: Sized,
    {
        attend_rows::<Self>(task, out);
    }
}

/// Plain-loop tile primitives over f32 or int8 tiles (the scalar and
/// quant-kv8 backends, and the SIMD backend's fallback for shapes that are
/// not whole vectors).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlainLanes;

impl TileLanes for PlainLanes {
    #[inline(always)]
    fn scores(q: &[f32], k: KvTile<'_>, fill: usize, dims: &TileDims, scores: &mut [f32]) {
        match k {
            KvTile::F32(k) => plain_scores(q, k, None, fill, dims, scores),
            KvTile::Int8 { q: kq, scales } => plain_scores(q, kq, Some(scales), fill, dims, scores),
        }
    }

    #[inline(always)]
    fn accumulate(
        corr: &[f32],
        w: &[f32],
        v: KvTile<'_>,
        fill: usize,
        dims: &TileDims,
        acc: &mut [f32],
    ) {
        match v {
            KvTile::F32(v) => plain_accumulate(corr, w, v, None, fill, dims, acc),
            KvTile::Int8 { q: vq, scales } => {
                plain_accumulate(corr, w, vq, Some(scales), fill, dims, acc);
            }
        }
    }
}

#[inline(always)]
fn plain_scores<E: Copy + Into<f32>>(
    q: &[f32],
    k: &[E],
    slot_scales: Option<&[f32]>,
    fill: usize,
    dims: &TileDims,
    scores: &mut [f32],
) {
    let bs = k.len() / dims.hidden;
    for (h, q_h) in q.chunks_exact(dims.head_dim).enumerate() {
        let row = &mut scores[h * dims.stride..h * dims.stride + fill];
        row.fill(0.0);
        for (d, &q_d) in q_h.iter().enumerate() {
            let column = (h * dims.head_dim + d) * bs;
            for (sum, &x) in row.iter_mut().zip(&k[column..column + fill]) {
                let x: f32 = x.into();
                *sum += q_d * x;
            }
        }
        for (s, sum) in row.iter_mut().enumerate() {
            if let Some(scales) = slot_scales {
                *sum *= scales[s];
            }
            *sum *= dims.scale;
        }
    }
}

#[inline(always)]
fn plain_accumulate<E: Copy + Into<f32>>(
    corr: &[f32],
    w: &[f32],
    v: &[E],
    slot_scales: Option<&[f32]>,
    fill: usize,
    dims: &TileDims,
    acc: &mut [f32],
) {
    for (h, acc_h) in acc.chunks_exact_mut(dims.head_dim).enumerate() {
        for a in acc_h.iter_mut() {
            *a *= corr[h];
        }
        for (s, v_row) in v.chunks_exact(dims.hidden).take(fill).enumerate() {
            let mut w_s = w[h * dims.stride + s];
            if let Some(scales) = slot_scales {
                w_s *= scales[s];
            }
            let v_h = &v_row[h * dims.head_dim..(h + 1) * dims.head_dim];
            for (a, &x) in acc_h.iter_mut().zip(v_h) {
                let x: f32 = x.into();
                *a += w_s * x;
            }
        }
    }
}

/// One query row: where its KV lives and how far it may look.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    block_table: &'a [usize],
    position: usize,
}

/// A contiguous run of query rows handed to one worker.
#[derive(Debug)]
pub(crate) struct RowTask<'a> {
    /// The rows' query vectors, `rows.len() × hidden`.
    q: &'a [f32],
    rows: &'a [Row<'a>],
    pool: &'a KvPool,
    layer: usize,
    dims: TileDims,
}

/// Online-softmax state of one query row plus the per-tile work buffers;
/// allocated once per [`RowTask`] and reused for every row and tile.
struct RowState {
    /// Scores, then in place the slot weights: `n_heads × stride`.
    scores: Vec<f32>,
    /// Running max per head. Like `m_new`, `corr` and `l` it is padded to
    /// whole vectors; the padding lanes hold 0 so their `exp` stays finite.
    m: Vec<f32>,
    m_new: Vec<f32>,
    corr: Vec<f32>,
    /// Running softmax denominator per head.
    l: Vec<f32>,
    /// Running weighted-V sum, `hidden`.
    acc: Vec<f32>,
}

impl RowState {
    fn new(dims: &TileDims) -> Self {
        let padded_heads = dims.n_heads.next_multiple_of(f32x8::LANES);
        Self {
            scores: vec![0.0; dims.n_heads * dims.stride],
            m: vec![0.0; padded_heads],
            m_new: vec![0.0; padded_heads],
            corr: vec![0.0; padded_heads],
            l: vec![0.0; padded_heads],
            acc: vec![0.0; dims.hidden],
        }
    }

    fn reset(&mut self, n_heads: usize) {
        self.m[..n_heads].fill(f32::NEG_INFINITY);
        self.l.fill(0.0);
        self.acc.fill(0.0);
    }
}

/// Phase 2 of a tile: turns `st.scores` into slot weights in place and
/// advances `(m, l)`, leaving the accumulator correction in `st.corr`.
/// Slots `fill ..` are masked to `-inf`, so their weight is exactly 0.
#[inline(always)]
fn softmax_step(fill: usize, dims: &TileDims, st: &mut RowState) {
    for (h, row) in st.scores.chunks_exact_mut(dims.stride).enumerate() {
        row[fill..].fill(f32::NEG_INFINITY);
        let mut tile_max = f32x8::splat(f32::NEG_INFINITY);
        for c in row.chunks_exact(f32x8::LANES) {
            tile_max = tile_max.max(f32x8::from_slice(c));
        }
        let tile_max = tile_max.reduce_max();
        st.m_new[h] = if st.m[h] > tile_max {
            st.m[h]
        } else {
            tile_max
        };
    }
    for ((m, m_new), corr) in
        st.m.chunks_exact(f32x8::LANES)
            .zip(st.m_new.chunks_exact(f32x8::LANES))
            .zip(st.corr.chunks_exact_mut(f32x8::LANES))
    {
        (f32x8::from_slice(m) - f32x8::from_slice(m_new))
            .exp()
            .write_to_slice(corr);
    }
    // The weights, as a pass of nothing but `exp` (kept apart from the sums
    // below so it compiles to straight whole-vector code).
    for (h, row) in st.scores.chunks_exact_mut(dims.stride).enumerate() {
        let m_new = f32x8::splat(st.m_new[h]);
        for c in row.chunks_exact_mut(f32x8::LANES) {
            (f32x8::from_slice(c) - m_new).exp().write_to_slice(c);
        }
    }
    for (h, row) in st.scores.chunks_exact(dims.stride).enumerate() {
        let mut sum = f32x8::ZERO;
        for c in row.chunks_exact(f32x8::LANES) {
            sum = sum + f32x8::from_slice(c);
        }
        st.l[h] = st.l[h] * st.corr[h] + sum.reduce_add();
        st.m[h] = st.m_new[h];
    }
}

/// The row loop: for each query row, walk its logical KV blocks
/// `0 ..= position / B` and run the three phases per tile, then normalize.
#[inline(always)]
pub(crate) fn attend_rows<L: TileLanes>(task: &RowTask<'_>, out: &mut [f32]) {
    let dims = &task.dims;
    let bs = task.pool.block_size();
    let mut st = RowState::new(dims);
    let rows = task
        .rows
        .iter()
        .zip(task.q.chunks_exact(dims.hidden))
        .zip(out.chunks_exact_mut(dims.hidden));
    for ((row, q), o) in rows {
        st.reset(dims.n_heads);
        let ctx = row.position + 1;
        for (j, &block) in row.block_table[..ctx.div_ceil(bs)].iter().enumerate() {
            let fill = (ctx - j * bs).min(bs);
            L::scores(
                q,
                task.pool.key_tile(task.layer, block),
                fill,
                dims,
                &mut st.scores,
            );
            softmax_step(fill, dims, &mut st);
            L::accumulate(
                &st.corr,
                &st.scores,
                task.pool.value_tile(task.layer, block),
                fill,
                dims,
                &mut st.acc,
            );
        }
        let heads = o
            .chunks_exact_mut(dims.head_dim)
            .zip(st.acc.chunks_exact(dims.head_dim));
        for (h, (o_h, acc_h)) in heads.enumerate() {
            for (dst, a) in o_h.iter_mut().zip(acc_h) {
                *dst = a / st.l[h];
            }
        }
    }
}

/// PagedAttention (§4.1, §5.1) over any mix of decode rows and prefill
/// rows: `q` and `out` are `total_rows × hidden`, rows laid out sequence
/// after sequence in the order of `seqs`. K/V are read tile by tile through
/// each sequence's block table from `pool`; nothing is gathered. Rows are
/// split into contiguous ranges across `workers` — the split cannot change
/// any output (see the module's determinism contract). The call is
/// recorded as one span in the attention kernel counters.
///
/// # Panics
///
/// Panics if shapes disagree or a block table is too short for its rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn paged_attention<L: TileLanes>(
    q: &[f32],
    pool: &KvPool,
    layer: usize,
    seqs: &[SeqRows<'_>],
    n_heads: usize,
    head_dim: usize,
    workers: &WorkerPool,
    out: &mut [f32],
) {
    let start = std::time::Instant::now();
    let hidden = n_heads * head_dim;
    assert_eq!(pool.hidden(), hidden);
    let bs = pool.block_size();
    let mut rows = Vec::with_capacity(seqs.iter().map(|s| s.n_rows).sum());
    for s in seqs {
        let num_blocks = (s.first_position + s.n_rows).div_ceil(bs);
        assert!(
            s.block_table.len() >= num_blocks,
            "block table has {} entries, context needs {num_blocks}",
            s.block_table.len()
        );
        rows.extend((0..s.n_rows).map(|i| Row {
            block_table: s.block_table,
            position: s.first_position + i,
        }));
    }
    assert_eq!(q.len(), rows.len() * hidden);
    assert_eq!(out.len(), rows.len() * hidden);
    if rows.is_empty() {
        return;
    }
    let dims = TileDims {
        n_heads,
        head_dim,
        hidden,
        stride: bs.next_multiple_of(f32x8::LANES),
        scale: 1.0 / (head_dim as f32).sqrt(),
    };
    let task = |q, rows| RowTask {
        q,
        rows,
        pool,
        layer,
        dims,
    };
    let threads = workers.parallelism();
    if threads == 1 || rows.len() == 1 {
        L::attend(&task(q, &rows[..]), out);
    } else {
        // A few ranges per thread: later rows of a prefill see longer
        // contexts, so equal row counts are not equal work.
        let per_task = rows.len().div_ceil(4 * threads);
        workers.scoped(|scope| {
            let chunks = rows
                .chunks(per_task)
                .zip(q.chunks(per_task * hidden))
                .zip(out.chunks_mut(per_task * hidden));
            for ((rows, q), out) in chunks {
                scope.spawn(move || L::attend(&task(q, rows), out));
            }
        });
    }
    timing::record_attention(start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KvElement;

    const H: usize = 2;
    const HD: usize = 4;
    const HIDDEN: usize = H * HD;

    /// Deterministic pseudo-random fill.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    /// A pool holding `k`/`v` for positions `0..ctx` behind a scrambled
    /// (distinct, non-monotonic) block table.
    fn build_pool(
        k: &[f32],
        v: &[f32],
        ctx: usize,
        bs: usize,
        element: KvElement,
    ) -> (KvPool, Vec<usize>) {
        let num_blocks = ctx.div_ceil(bs) + 2;
        let mut pool = KvPool::with_element(1, num_blocks, bs, HIDDEN, element);
        let mut seen = std::collections::HashSet::new();
        let table: Vec<usize> = (0..ctx.div_ceil(bs))
            .map(|j| {
                let mut b = (j * 7 + 3) % num_blocks;
                while !seen.insert(b) {
                    b = (b + 1) % num_blocks;
                }
                b
            })
            .collect();
        for t in 0..ctx {
            pool.write(
                0,
                table[t / bs],
                t % bs,
                &k[t * HIDDEN..(t + 1) * HIDDEN],
                &v[t * HIDDEN..(t + 1) * HIDDEN],
            );
        }
        (pool, table)
    }

    fn plain(q: &[f32], pool: &KvPool, seqs: &[SeqRows<'_>], workers: &WorkerPool) -> Vec<f32> {
        let mut out = vec![0.0; q.len()];
        paged_attention::<PlainLanes>(q, pool, 0, seqs, H, HD, workers, &mut out);
        out
    }

    #[test]
    fn paged_matches_contiguous_across_shapes() {
        let workers = WorkerPool::new(1);
        for &ctx in &[1usize, 2, 5, 16, 17, 33, 64] {
            for &bs in &[1usize, 2, 4, 16] {
                let q = fill(1, HIDDEN);
                let k = fill(2 + ctx as u64, ctx * HIDDEN);
                let v = fill(3 + ctx as u64, ctx * HIDDEN);
                let mut reference = vec![0.0; HIDDEN];
                contiguous_attention_decode(&q, &k, &v, ctx, H, HD, &mut reference);

                let (pool, table) = build_pool(&k, &v, ctx, bs, KvElement::F32);
                let paged = plain(&q, &pool, &[SeqRows::decode(&table, ctx)], &workers);
                for (i, (a, b)) in reference.iter().zip(&paged).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "ctx={ctx} bs={bs} idx={i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn causal_mask_respected() {
        // With a single key visible, output must equal that value vector.
        let q = fill(10, HIDDEN);
        let k = fill(11, 4 * HIDDEN);
        let v = fill(12, 4 * HIDDEN);
        let mut out = vec![0.0; HIDDEN];
        contiguous_causal_attention(&q, &k, &v, 1, 4, 0, H, HD, &mut out);
        for (o, expect) in out.iter().zip(&v[0..HIDDEN]) {
            assert!((o - expect).abs() < 1e-5);
        }
        // And the paged kernel on the same data.
        let (pool, table) = build_pool(&k, &v, 4, 2, KvElement::F32);
        let paged = plain(
            &q,
            &pool,
            &[SeqRows::decode(&table, 1)],
            &WorkerPool::new(1),
        );
        for (o, expect) in paged.iter().zip(&v[0..HIDDEN]) {
            assert!((o - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn contiguous_prefill_last_row_matches_decode() {
        let ctx = 9;
        let q = fill(20, ctx * HIDDEN);
        let k = fill(21, ctx * HIDDEN);
        let v = fill(22, ctx * HIDDEN);
        let mut full = vec![0.0; ctx * HIDDEN];
        contiguous_causal_attention(&q, &k, &v, ctx, ctx, 0, H, HD, &mut full);
        let mut last = vec![0.0; HIDDEN];
        contiguous_attention_decode(&q[(ctx - 1) * HIDDEN..], &k, &v, ctx, H, HD, &mut last);
        for (a, b) in full[(ctx - 1) * HIDDEN..].iter().zip(&last) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn offset_queries_attend_prefix() {
        // Queries starting at position 2 must see keys 0..=2, 0..=3.
        let nk = 4;
        let q = fill(30, 2 * HIDDEN);
        let k = fill(31, nk * HIDDEN);
        let v = fill(32, nk * HIDDEN);
        let mut out = vec![0.0; 2 * HIDDEN];
        contiguous_causal_attention(&q, &k, &v, 2, nk, 2, H, HD, &mut out);
        // Row 0 == decode over ctx 3 with the same query.
        let mut d = vec![0.0; HIDDEN];
        contiguous_attention_decode(
            &q[0..HIDDEN],
            &k[..3 * HIDDEN],
            &v[..3 * HIDDEN],
            3,
            H,
            HD,
            &mut d,
        );
        for (a, b) in out[..HIDDEN].iter().zip(&d) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn prefill_rows_match_contiguous_and_equal_decode_rows_bitwise() {
        // Rows 5..19 of a 19-token context as one segment: each row within
        // tolerance of the oracle, and bit-equal to the decode row at its
        // position — whatever the block size.
        let (ctx, first) = (19usize, 5usize);
        let n = ctx - first;
        let q = fill(30, n * HIDDEN);
        let k = fill(31, ctx * HIDDEN);
        let v = fill(32, ctx * HIDDEN);
        let mut oracle = vec![0.0; n * HIDDEN];
        contiguous_causal_attention(&q, &k, &v, n, ctx, first, H, HD, &mut oracle);
        let workers = WorkerPool::new(1);
        for &bs in &[1usize, 4, 16] {
            let (pool, table) = build_pool(&k, &v, ctx, bs, KvElement::F32);
            let segment = SeqRows {
                block_table: &table,
                first_position: first,
                n_rows: n,
            };
            let rows = plain(&q, &pool, &[segment], &workers);
            for (i, (a, b)) in oracle.iter().zip(&rows).enumerate() {
                assert!((a - b).abs() < 1e-5, "bs={bs} idx={i}: {a} vs {b}");
            }
            for i in 0..n {
                let q_i = &q[i * HIDDEN..(i + 1) * HIDDEN];
                let solo = plain(
                    q_i,
                    &pool,
                    &[SeqRows::decode(&table, first + i + 1)],
                    &workers,
                );
                assert_eq!(
                    &rows[i * HIDDEN..(i + 1) * HIDDEN],
                    &solo[..],
                    "bs={bs} row={i}"
                );
            }
        }
    }

    #[test]
    fn batched_rows_bit_identical_to_solo_for_any_pool_width() {
        for &bs in &[1usize, 4, 16] {
            let ctxs = [1usize, 5, 17, 33];
            // One shared physical pool holding all sequences.
            let blocks_needed: usize = ctxs.iter().map(|c| c.div_ceil(bs)).sum();
            let mut pool = KvPool::new(1, blocks_needed + 1, bs, HIDDEN);
            let mut tables: Vec<Vec<usize>> = Vec::new();
            let mut next_block = 0;
            for (si, &ctx) in ctxs.iter().enumerate() {
                let nb = ctx.div_ceil(bs);
                let table: Vec<usize> = (next_block..next_block + nb).collect();
                next_block += nb;
                let k = fill(100 + si as u64, ctx * HIDDEN);
                let v = fill(200 + si as u64, ctx * HIDDEN);
                for t in 0..ctx {
                    pool.write(
                        0,
                        table[t / bs],
                        t % bs,
                        &k[t * HIDDEN..(t + 1) * HIDDEN],
                        &v[t * HIDDEN..(t + 1) * HIDDEN],
                    );
                }
                tables.push(table);
            }
            let q = fill(300, ctxs.len() * HIDDEN);
            let seqs: Vec<SeqRows<'_>> = ctxs
                .iter()
                .zip(&tables)
                .map(|(&ctx, table)| SeqRows::decode(table, ctx))
                .collect();
            let solo: Vec<f32> = seqs
                .iter()
                .enumerate()
                .flat_map(|(si, s)| {
                    plain(
                        &q[si * HIDDEN..(si + 1) * HIDDEN],
                        &pool,
                        &[*s],
                        &WorkerPool::new(1),
                    )
                })
                .collect();
            for threads in [1usize, 2, 3, 8] {
                let batched = plain(&q, &pool, &seqs, &WorkerPool::new(threads));
                assert_eq!(batched, solo, "bs={bs} threads={threads}");
            }
        }
    }

    #[test]
    fn int8_tiles_stay_close_to_f32_tiles() {
        let (ctx, bs) = (33usize, 4usize);
        let q = fill(1, HIDDEN);
        let k = fill(2, ctx * HIDDEN);
        let v = fill(3, ctx * HIDDEN);
        let workers = WorkerPool::new(1);
        let (f32_pool, table) = build_pool(&k, &v, ctx, bs, KvElement::F32);
        let (q8_pool, q8_table) = build_pool(&k, &v, ctx, bs, KvElement::Int8Scaled);
        assert_eq!(table, q8_table);
        let exact = plain(&q, &f32_pool, &[SeqRows::decode(&table, ctx)], &workers);
        let quant = plain(&q, &q8_pool, &[SeqRows::decode(&table, ctx)], &workers);
        // The output is a convex combination of values whose per-element
        // quantization error is <= scale/2 <= max|v|/254, so it stays
        // within ~1% of the value range here.
        for (i, (a, b)) in exact.iter().zip(&quant).enumerate() {
            assert!((a - b).abs() < 2e-2, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "block table")]
    fn short_block_table_panics() {
        let pool = KvPool::new(1, 2, 4, HIDDEN);
        let q = vec![0.0; HIDDEN];
        plain(&q, &pool, &[SeqRows::decode(&[0], 9)], &WorkerPool::new(1));
    }
}
