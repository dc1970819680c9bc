//! Attention kernels: the contiguous reference and the PagedAttention
//! kernel that reads K/V in place through a block table (§4.1, Eq. 4).
//!
//! There is one paged kernel, `paged_attention` (reached through
//! [`crate::KernelBackend::paged_attention`]), for decode rows and
//! prefill/chunk rows alike, shaped like the paper's (§5.1; vLLM's
//! `paged_attention_v1` / `v2`). Its tile is a *logical* KV block —
//! positions `j·B .. (j+1)·B` of the sequence, one contiguous `B × hidden`
//! region of the pool — and a *partition* is 32 consecutive logical blocks
//! counted from position 0. Per query row and
//! partition it makes three passes over the row's tiles:
//!
//! 1. **scores**: every scaled `q·k` logit of the partition goes into one
//!    scratch, `[tile][head][slot]`, from the dimension-major K tiles; the
//!    last tile's empty slots are masked to `-inf`, and a lane-wise running
//!    max per head is reduced horizontally once;
//! 2. **weights**: `exp(s − m)` in place, every element through one lane of
//!    the deterministic vector `exp` of the `wide` shim, with lane-wise
//!    running sums per head, reduced once;
//! 3. **accumulate**: `acc += Σ_slot w·V` over the slot-major V tiles,
//!    slot-ascending, slots past the row's position skipped (never
//!    multiplied by 0).
//!
//! Partitions are combined by the online-softmax recurrence on
//! `(m, l, acc)` — once per 512 positions at block 16, so a context within
//! one partition never rescales anything.
//!
//! The body exists once, generic over a `Shape`, which is the three sizes
//! and the inner loops of passes 1 and 3: `Fixed` instances for whole-vector
//! head widths at block 16 — every model this repository builds, whatever
//! its head count (compile-time head width and block size, so those loops
//! work on `[f32; N]` views held in registers, with no bounds check,
//! division or stride multiply left in them) — and `RunTime` for every
//! other shape. Both do the same operations in the same order; `Isa` picks
//! the instruction set the body is compiled for. A backend supplies nothing
//! but that choice and the element type of its tiles (`f32`, or `i8` with
//! the slot's scale folded into the score and the weight).
//!
//! **Determinism contract.** A row's output is a pure function of its query
//! vector, the KV contents at positions `0 ..= p`, and the block size:
//! tiles and partitions are logical blocks counted from position 0 (never
//! chunk-, batch- or physical-block-relative), every reduction runs in a
//! fixed order (`d`-ascending dot products, tile-ascending lane-wise max
//! and sum, slot-ascending accumulation), and rows share no state. So per
//! backend, bit for bit: batched ≡ solo, chunked ≡ monolithic, any worker
//! count, any physical block placement — and a prefill row ≡ the decode row
//! at the same position. The AVX2 instantiation ≡ the portable one, and
//! every fixed-shape instance ≡ the run-time-shape instance, also bit for
//! bit.

use wide::{exp_lane, f32x8};

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

/// One sequence's query rows for the paged kernel: `n_rows` consecutive
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

/// Logical blocks per softmax partition: 512 positions at block 16, the
/// partition of vLLM's `paged_attention_v2`. A context within one partition
/// (every serving context of this repository's benches) is one plain
/// two-pass softmax.
const PARTITION_BLOCKS: usize = 32;

const LANES: usize = f32x8::LANES;

/// The instruction set the kernel body is instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's baseline features (the scalar and quant-kv8 backends).
    Portable,
    /// Re-instantiated under `#[target_feature(enable = "avx2")]` where the
    /// CPU has it, the portable instance elsewhere (the simd backend).
    /// Lane-wise identical arithmetic — same operations, same order, no FMA
    /// contraction — so the two are bit-equal.
    Avx2,
}

/// The shape the kernel body is instantiated over, and the body's two inner
/// loops, which are all that is written per implementor.
pub(crate) trait Shape: Copy {
    fn n_heads(self) -> usize;
    fn head_dim(self) -> usize;
    /// Slots per block.
    fn block(self) -> usize;

    /// Pass 1's inner loop, one head against one tile: `row[s] = Σ_d q_h[d]
    /// · k_h[d·B + s]` for every slot `s` of the block, each sum starting
    /// from 0 and taking `d` in ascending order. `k_h` is the head's
    /// `head_dim × B` panel of the dimension-major K tile.
    fn dot_rows<E: Copy + Into<f32>>(self, q_h: &[f32], k_h: &[E], row: &mut [f32]);

    /// Pass 3's inner loop, every head against one tile: `acc[h][d] +=
    /// w[h·stride + s] · v[s][h][d]` for the slots `s < fill` in ascending
    /// order (an int8 tile folds `slot_scales[s]` into the weight first).
    fn accumulate<E: Copy + Into<f32>>(
        self,
        w: &[f32],
        v: &[E],
        slot_scales: Option<&[f32]>,
        fill: usize,
        acc: &mut [f32],
    );
}

/// `acc[i] += w · x[i]`: the one multiply-add both shapes' loops are made of.
#[inline(always)]
fn axpy_tile<E: Copy + Into<f32>>(acc: &mut [f32], w: f32, x: &[E]) {
    for (a, &x) in acc.iter_mut().zip(x) {
        let x: f32 = x.into();
        *a += w * x;
    }
}

/// A shape known only at run time: plain loops over slices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunTime {
    n_heads: usize,
    head_dim: usize,
    block: usize,
}

impl Shape for RunTime {
    fn n_heads(self) -> usize {
        self.n_heads
    }

    fn head_dim(self) -> usize {
        self.head_dim
    }

    fn block(self) -> usize {
        self.block
    }

    #[inline(always)]
    fn dot_rows<E: Copy + Into<f32>>(self, q_h: &[f32], k_h: &[E], row: &mut [f32]) {
        row.fill(0.0);
        for (&q_d, k_d) in q_h.iter().zip(k_h.chunks_exact(self.block)) {
            axpy_tile(row, q_d, k_d);
        }
    }

    #[inline(always)]
    fn accumulate<E: Copy + Into<f32>>(
        self,
        w: &[f32],
        v: &[E],
        slot_scales: Option<&[f32]>,
        fill: usize,
        acc: &mut [f32],
    ) {
        let stride = self.block.next_multiple_of(LANES);
        let slots = v.chunks_exact(self.n_heads * self.head_dim).take(fill);
        for (s, v_s) in slots.enumerate() {
            let slot_scale = slot_scales.map(|x| x[s]);
            let heads = acc
                .chunks_exact_mut(self.head_dim)
                .zip(v_s.chunks_exact(self.head_dim))
                .zip(w.chunks_exact(stride));
            for ((acc_h, v_h), w_h) in heads {
                axpy_tile(acc_h, slot_scale.map_or(w_h[s], |x| w_h[s] * x), v_h);
            }
        }
    }
}

/// Block size of the [`Fixed`] shapes: two vectors of slots.
const FIXED_BLOCK: usize = 16;

/// Accumulator vectors pass 3 of a [`Fixed`] shape keeps in registers: one
/// dependent mul→add step is ~8 cycles deep, eight of them fill both FP
/// pipes.
const CHAINS: usize = 8;

/// A shape whose head width and block size ([`FIXED_BLOCK`]) are known at
/// compile time, its head count at run time: the same operations in the
/// same order as [`RunTime`] over `[f32; N]` views that stay in registers,
/// every trip count, offset and bound of the two inner loops a constant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed<const HD: usize> {
    n_heads: usize,
}

impl<const HD: usize> Shape for Fixed<HD> {
    fn n_heads(self) -> usize {
        self.n_heads
    }

    fn head_dim(self) -> usize {
        HD
    }

    fn block(self) -> usize {
        FIXED_BLOCK
    }

    #[inline(always)]
    fn dot_rows<E: Copy + Into<f32>>(self, q_h: &[f32], k_h: &[E], row: &mut [f32]) {
        let q_h: &[f32; HD] = q_h.try_into().expect("one head of the query");
        let k_h: &[[E; FIXED_BLOCK]] = k_h.as_chunks().0;
        // The head's running row: lanes along the slots, held in registers
        // over the whole `d` loop.
        let mut sums = [0.0f32; FIXED_BLOCK];
        for d in 0..HD {
            axpy_tile(&mut sums, q_h[d], &k_h[d]);
        }
        row.copy_from_slice(&sums);
    }

    #[inline(always)]
    fn accumulate<E: Copy + Into<f32>>(
        self,
        w: &[f32],
        v: &[E],
        slot_scales: Option<&[f32]>,
        fill: usize,
        acc: &mut [f32],
    ) {
        // `CHAINS` chunks of the accumulator at a time, then what a head
        // count that is no multiple of `CHAINS · 8 / HD` leaves, by halves.
        let c = accumulate_chunks::<HD, CHAINS, E>(0, w, v, slot_scales, fill, acc);
        let c = accumulate_chunks::<HD, { CHAINS / 2 }, E>(c, w, v, slot_scales, fill, acc);
        let c = accumulate_chunks::<HD, { CHAINS / 4 }, E>(c, w, v, slot_scales, fill, acc);
        accumulate_chunks::<HD, { CHAINS / 8 }, E>(c, w, v, slot_scales, fill, acc);
    }
}

/// Pass 3 of a [`Fixed`] shape over the accumulator's 8-wide chunks from
/// chunk `c0` on, `N` adjacent ones at a time for as long as `N` are left:
/// the `N` running sums held in registers across all the tile's slots,
/// chunk `c` belonging to head `c·8 / HD`. Returns the first chunk not done.
#[inline(always)]
fn accumulate_chunks<const HD: usize, const N: usize, E: Copy + Into<f32>>(
    mut c0: usize,
    w: &[f32],
    v: &[E],
    slot_scales: Option<&[f32]>,
    fill: usize,
    acc: &mut [f32],
) -> usize {
    const { assert!(HD.is_multiple_of(LANES)) }
    let hidden = acc.len();
    while (c0 + N) * LANES <= hidden {
        let acc_g = &mut acc[c0 * LANES..][..N * LANES];
        let mut w_c = [&w[..0]; N];
        let mut a = [[0.0f32; LANES]; N];
        for i in 0..N {
            w_c[i] = &w[(c0 + i) * LANES / HD * FIXED_BLOCK..][..fill];
            a[i].copy_from_slice(&acc_g[i * LANES..][..LANES]);
        }
        for (s, v_s) in v.chunks_exact(hidden).take(fill).enumerate() {
            let v_g: &[[E; LANES]] = v_s[c0 * LANES..][..N * LANES].as_chunks().0;
            let slot_scale = slot_scales.map(|x| x[s]);
            for i in 0..N {
                axpy_tile(
                    &mut a[i],
                    slot_scale.map_or(w_c[i][s], |x| w_c[i][s] * x),
                    &v_g[i],
                );
            }
        }
        for i in 0..N {
            acc_g[i * LANES..][..LANES].copy_from_slice(&a[i]);
        }
        c0 += N;
    }
    c0
}

/// One query row: where its KV lives and how far it may look.
#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    block_table: &'a [usize],
    position: usize,
}

/// A contiguous run of query rows handed to one worker.
#[derive(Debug, Clone, Copy)]
struct RowTask<'a> {
    /// The rows' query vectors, `rows.len() × hidden`.
    q: &'a [f32],
    rows: &'a [Row<'a>],
    pool: &'a KvPool,
    layer: usize,
    shape: RunTime,
    isa: Isa,
}

/// Pass 1 over one tile: every head's scaled scores into `rows`
/// (`n_heads × stride`), slots `fill ..` masked to `-inf`, and the heads'
/// lane-wise running maxima in `lane_max` (`n_heads × 8`) advanced.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_tile<S: Shape, E: Copy + Into<f32>>(
    shape: S,
    q: &[f32],
    k: &[E],
    slot_scales: Option<&[f32]>,
    fill: usize,
    scale: f32,
    rows: &mut [f32],
    lane_max: &mut [f32],
) {
    let (hd, bs) = (shape.head_dim(), shape.block());
    let heads = q
        .chunks_exact(hd)
        .zip(k.chunks_exact(hd * bs))
        .zip(rows.chunks_exact_mut(bs.next_multiple_of(LANES)))
        .zip(lane_max.chunks_exact_mut(LANES));
    for (((q_h, k_h), row), lane_max_h) in heads {
        shape.dot_rows(q_h, k_h, &mut row[..bs]);
        match slot_scales {
            Some(scales) => {
                for (x, slot_scale) in row[..bs].iter_mut().zip(scales) {
                    *x = *x * slot_scale * scale;
                }
            }
            None => {
                for x in row[..bs].iter_mut() {
                    *x *= scale;
                }
            }
        }
        row[fill..].fill(f32::NEG_INFINITY);
        let mut max = f32x8::from_slice(lane_max_h);
        for c in row.chunks_exact(LANES) {
            max = max.max(f32x8::from_slice(c));
        }
        max.write_to_slice(lane_max_h);
    }
}

/// The row loop: for each query row, walk its logical KV blocks
/// `0 ..= position / B` a partition at a time — scores, weights, weighted
/// V sum — carrying `(m, l, acc)` from one partition to the next, then
/// normalize.
#[inline(always)]
fn attend_rows<S: Shape>(shape: S, task: &RowTask<'_>, out: &mut [f32]) {
    let (n_heads, hd, bs) = (shape.n_heads(), shape.head_dim(), shape.block());
    let hidden = n_heads * hd;
    // One tile's scores: a row of `bs` rounded up to whole vectors per head.
    let stride = bs.next_multiple_of(LANES);
    let tile_len = n_heads * stride;
    let scale = 1.0 / (hd as f32).sqrt();
    let longest = task.rows.iter().map(|r| r.position / bs + 1).max();
    let tiles = longest.unwrap_or(0).min(PARTITION_BLOCKS);
    // The task's one scratch: a partition's scores `[tile][head][slot]` (in
    // place, its weights), the heads' running lanes, `acc`, `m` and `l`.
    let mut scratch = vec![0.0f32; tiles * tile_len + n_heads * LANES + hidden + 2 * n_heads];
    let (scores, rest) = scratch.split_at_mut(tiles * tile_len);
    let (lane, rest) = rest.split_at_mut(n_heads * LANES);
    let (acc, rest) = rest.split_at_mut(hidden);
    let (m, l) = rest.split_at_mut(n_heads);
    let rows = task
        .rows
        .iter()
        .zip(task.q.chunks_exact(hidden))
        .zip(out.chunks_exact_mut(hidden));
    for ((row, q), o) in rows {
        l.fill(0.0);
        acc.fill(0.0);
        let ctx = row.position + 1;
        let partitions = row.block_table[..ctx.div_ceil(bs)].chunks(PARTITION_BLOCKS);
        for (p, blocks) in partitions.enumerate() {
            let scores = &mut scores[..blocks.len() * tile_len];
            // Slots of tile `t` of this partition at or before the row.
            let fill = |t: usize| (ctx - (p * PARTITION_BLOCKS + t) * bs).min(bs);

            // Pass 1: the scores, and per head their lane-wise maximum.
            lane.fill(f32::NEG_INFINITY);
            let tiles = blocks.iter().zip(scores.chunks_exact_mut(tile_len));
            for (t, (&block, rows)) in tiles.enumerate() {
                match task.pool.key_tile(task.layer, block) {
                    KvTile::F32(k) => score_tile(shape, q, k, None, fill(t), scale, rows, lane),
                    KvTile::Int8 { q: k, scales } => {
                        score_tile(shape, q, k, Some(scales), fill(t), scale, rows, lane);
                    }
                }
            }

            // The maxima reduced once. The first partition's are the row's
            // so far; after it, what the earlier partitions hold is rescaled
            // to the new maximum.
            let heads = lane
                .chunks_exact(LANES)
                .zip(acc.chunks_exact_mut(hd))
                .zip(m.iter_mut().zip(l.iter_mut()));
            for ((lane_max_h, acc_h), (m_h, l_h)) in heads {
                let max = f32x8::from_slice(lane_max_h).reduce_max();
                if p == 0 {
                    *m_h = max;
                    continue;
                }
                let m_new = if *m_h > max { *m_h } else { max };
                let corr = exp_lane(*m_h - m_new);
                for a in acc_h.iter_mut() {
                    *a *= corr;
                }
                *l_h *= corr;
                *m_h = m_new;
            }

            // Pass 2: the weights in place, then per head their lane-wise
            // sum. The `exp` sweep is a loop of its own over each row's
            // contiguous scalars: the form the loop vectoriser turns into
            // whole vectors along the slots (as a loop over `f32x8` chunks
            // it transposes eight chunks at a time, or gathers across tiles).
            lane.fill(0.0);
            for rows in scores.chunks_exact_mut(tile_len) {
                for (row, &m_h) in rows.chunks_exact_mut(stride).zip(m.iter()) {
                    for x in row.iter_mut() {
                        *x = exp_lane(*x - m_h);
                    }
                }
                let heads = rows.chunks_exact(stride).zip(lane.chunks_exact_mut(LANES));
                for (row, lane_sum_h) in heads {
                    let mut sum = f32x8::from_slice(lane_sum_h);
                    for c in row.chunks_exact(LANES) {
                        sum = sum + f32x8::from_slice(c);
                    }
                    sum.write_to_slice(lane_sum_h);
                }
            }
            for (l_h, lane_sum_h) in l.iter_mut().zip(lane.chunks_exact(LANES)) {
                *l_h += f32x8::from_slice(lane_sum_h).reduce_add();
            }

            // Pass 3: the weighted V rows.
            let tiles = blocks.iter().zip(scores.chunks_exact(tile_len));
            for (t, (&block, w)) in tiles.enumerate() {
                match task.pool.value_tile(task.layer, block) {
                    KvTile::F32(v) => shape.accumulate(w, v, None, fill(t), acc),
                    KvTile::Int8 { q: v, scales } => {
                        shape.accumulate(w, v, Some(scales), fill(t), acc);
                    }
                }
            }
        }
        let heads = o
            .chunks_exact_mut(hd)
            .zip(acc.chunks_exact(hd))
            .zip(l.iter());
        for ((o_h, acc_h), l_h) in heads {
            for (dst, a) in o_h.iter_mut().zip(acc_h) {
                *dst = a / l_h;
            }
        }
    }
}

/// AVX2 instantiation of the kernel body — both inner loops and the vector
/// `exp` included; lane-wise identical arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_rows_avx2<S: Shape>(shape: S, task: &RowTask<'_>, out: &mut [f32]) {
    attend_rows(shape, task, out);
}

/// Runs the instance of [`attend_rows`] for `shape` and the task's
/// instruction set.
fn attend_shaped<S: Shape>(shape: S, task: &RowTask<'_>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if task.isa == Isa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { attend_rows_avx2(shape, task, out) };
        return;
    }
    attend_rows(shape, task, out);
}

/// Picks the shape instance for a task: a [`Fixed`] one for whole-vector
/// head widths at block [`FIXED_BLOCK`] — every model this repository
/// builds, and their tensor-parallel shards — [`RunTime`] otherwise.
fn attend(task: &RowTask<'_>, out: &mut [f32]) {
    let n_heads = task.shape.n_heads;
    match (task.shape.head_dim, task.shape.block) {
        (8, FIXED_BLOCK) => attend_shaped(Fixed::<8> { n_heads }, task, out),
        (16, FIXED_BLOCK) => attend_shaped(Fixed::<16> { n_heads }, task, out),
        (32, FIXED_BLOCK) => attend_shaped(Fixed::<32> { n_heads }, task, out),
        (64, FIXED_BLOCK) => attend_shaped(Fixed::<64> { n_heads }, task, out),
        _ => attend_shaped(task.shape, task, out),
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
pub(crate) fn paged_attention(
    isa: Isa,
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
    let task = |q, rows| RowTask {
        q,
        rows,
        pool,
        layer,
        shape: RunTime {
            n_heads,
            head_dim,
            block: bs,
        },
        isa,
    };
    let threads = workers.parallelism();
    if threads == 1 || rows.len() == 1 {
        attend(&task(q, &rows[..]), out);
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
                scope.spawn(move || attend(&task(q, rows), out));
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
        paged_attention(Isa::Portable, q, pool, 0, seqs, H, HD, workers, &mut out);
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
    fn every_instance_of_the_body_gives_the_same_bits() {
        // Fixed-shape ≡ run-time-shape instance and AVX2 ≡ portable
        // instantiation, f32 and int8 tiles: the four instances of the body
        // on one task. Head counts that fill whole groups of `CHAINS`
        // accumulator chunks and that leave every size of remainder; the
        // last shape has no fixed instance (its two are the same one).
        let bs = FIXED_BLOCK;
        for (n_heads, head_dim) in [(8, 8), (5, 8), (7, 16), (8, 32), (3, 64), (3, 12)] {
            let hidden = n_heads * head_dim;
            // Rows in the first tile, across the first partition boundary
            // and in a third partition's partial tile.
            let positions = [
                0,
                bs - 2,
                bs,
                PARTITION_BLOCKS * bs - 1,
                PARTITION_BLOCKS * bs,
            ];
            let ctx = 2 * PARTITION_BLOCKS * bs + 3 * bs + 5;
            let (k, v) = (fill(41, ctx * hidden), fill(42, ctx * hidden));
            let table: Vec<usize> = (0..ctx.div_ceil(bs)).rev().collect();
            for element in [KvElement::F32, KvElement::Int8Scaled] {
                let mut pool = KvPool::with_element(1, table.len(), bs, hidden, element);
                for t in 0..ctx {
                    let at = t * hidden..(t + 1) * hidden;
                    pool.write(0, table[t / bs], t % bs, &k[at.clone()], &v[at]);
                }
                let rows: Vec<Row<'_>> = positions
                    .iter()
                    .chain(&[ctx - 1])
                    .map(|&position| Row {
                        block_table: &table,
                        position,
                    })
                    .collect();
                let q = fill(43, rows.len() * hidden);
                let task = |isa| RowTask {
                    q: &q,
                    rows: &rows,
                    pool: &pool,
                    layer: 0,
                    shape: RunTime {
                        n_heads,
                        head_dim,
                        block: bs,
                    },
                    isa,
                };
                let run = |isa, run_time: bool| {
                    let (task, mut out) = (task(isa), vec![f32::NAN; q.len()]);
                    if run_time {
                        attend_shaped(task.shape, &task, &mut out);
                    } else {
                        attend(&task, &mut out);
                    }
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                let reference = run(Isa::Portable, true);
                assert!(reference.iter().all(|&b| f32::from_bits(b).is_finite()));
                for (isa, run_time) in [
                    (Isa::Portable, false),
                    (Isa::Avx2, true),
                    (Isa::Avx2, false),
                ] {
                    assert_eq!(
                        run(isa, run_time),
                        reference,
                        "{n_heads} x {head_dim} {element:?} {isa:?} run-time shape: {run_time}"
                    );
                }
            }
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
