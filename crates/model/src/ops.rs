//! Dense kernels for the CPU transformer: matmul, layer norm, GELU,
//! softmax. All tensors are row-major `f32` slices with explicit shapes.
//!
//! The matmul family is cache-blocked: the right-hand side is walked in
//! `KB × NB` panels (packed into a contiguous scratch when enough rows
//! amortize the copy) and the inner accumulation is unrolled four-deep so
//! the autovectorizer can lift it to SIMD. Per output element the
//! accumulation order depends only on `k`, never on `m`, `n`, or the
//! blocking — so a row of a batched matmul is bit-identical to the same
//! row computed alone, which is what makes batched decode exactly match
//! per-sequence decode.
//!
//! These are the scalar backend's serial kernels; pool dispatch for large
//! shapes lives in the [`crate::backend`] seam, which all callers go
//! through.

use wide::f32x8;

use crate::pool;

/// Depth (`k`) of one cache block of the right-hand side.
const KB: usize = 128;
/// Width (`n`) of one cache block of the right-hand side.
const NB: usize = 256;
/// Minimum row count for which packing a B panel pays for itself.
const PACK_MIN_ROWS: usize = 4;

/// Kernel timing accumulators (see [`timing`]).
pub mod timing {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    static MATMUL_NS: AtomicU64 = AtomicU64::new(0);
    static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);
    static ATTENTION_NS: AtomicU64 = AtomicU64::new(0);
    static ATTENTION_CALLS: AtomicU64 = AtomicU64::new(0);
    static LOGITS_NS: AtomicU64 = AtomicU64::new(0);
    static LOGITS_CALLS: AtomicU64 = AtomicU64::new(0);
    static ACTIVATION_NS: AtomicU64 = AtomicU64::new(0);
    static SAMPLING_NS: AtomicU64 = AtomicU64::new(0);
    static ELEMENTWISE_NS: AtomicU64 = AtomicU64::new(0);

    /// The op classes a step's time is attributed to: the name each one's
    /// telemetry series and step-result entry carry, and what it covers.
    pub const CLASSES: [(&str, &str); 6] = [
        (
            "matmul",
            "Time in dense matmul kernels per step (summed across pool threads).",
        ),
        (
            "paged_attention",
            "Time in the PagedAttention kernel per step (decode and prefill rows).",
        ),
        ("logits", "Time in the LM-head logits projection per step."),
        ("activation", "Time in the MLP activation (GELU) per step."),
        (
            "sampling",
            "Time turning logits into sampled candidates per step.",
        ),
        (
            "elementwise",
            "Time between a forward pass's kernel calls per step (norms, bias and residual adds, embedding, K/V writes).",
        ),
    ];

    /// Cumulative process-wide kernel counters. Executors snapshot these
    /// around a step and observe the deltas into their telemetry
    /// histograms; benches read them for per-kernel nanosecond reports.
    ///
    /// Times are summed across threads (worker-pool tasks record their own
    /// spans), so they measure kernel CPU time, not wall time.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct KernelSnapshot {
        /// Nanoseconds spent in dense matmul kernels.
        pub matmul_ns: u64,
        /// Dense matmul invocations.
        pub matmul_calls: u64,
        /// Nanoseconds spent in PagedAttention decode kernels.
        pub attention_ns: u64,
        /// PagedAttention decode invocations.
        pub attention_calls: u64,
        /// Nanoseconds spent in the logits (LM head) projection.
        pub logits_ns: u64,
        /// Logits projection invocations.
        pub logits_calls: u64,
        /// Nanoseconds spent in the MLP activation (GELU).
        pub activation_ns: u64,
        /// Nanoseconds spent turning logits into sampled candidates.
        pub sampling_ns: u64,
        /// Nanoseconds a forward pass spent between its kernel calls:
        /// layer norm, bias and residual adds, embedding, K/V writes and
        /// the buffers they work in.
        pub elementwise_ns: u64,
    }

    impl KernelSnapshot {
        /// Counter increments since `earlier`.
        #[must_use]
        pub fn delta_since(&self, earlier: &Self) -> Self {
            Self {
                matmul_ns: self.matmul_ns.wrapping_sub(earlier.matmul_ns),
                matmul_calls: self.matmul_calls.wrapping_sub(earlier.matmul_calls),
                attention_ns: self.attention_ns.wrapping_sub(earlier.attention_ns),
                attention_calls: self.attention_calls.wrapping_sub(earlier.attention_calls),
                logits_ns: self.logits_ns.wrapping_sub(earlier.logits_ns),
                logits_calls: self.logits_calls.wrapping_sub(earlier.logits_calls),
                activation_ns: self.activation_ns.wrapping_sub(earlier.activation_ns),
                sampling_ns: self.sampling_ns.wrapping_sub(earlier.sampling_ns),
                elementwise_ns: self.elementwise_ns.wrapping_sub(earlier.elementwise_ns),
            }
        }

        /// Every class's nanoseconds, in the order of [`CLASSES`].
        #[must_use]
        pub fn ns(&self) -> [u64; 6] {
            [
                self.matmul_ns,
                self.attention_ns,
                self.logits_ns,
                self.activation_ns,
                self.sampling_ns,
                self.elementwise_ns,
            ]
        }
    }

    /// Reads the current cumulative counters.
    #[must_use]
    pub fn snapshot() -> KernelSnapshot {
        KernelSnapshot {
            matmul_ns: MATMUL_NS.load(Ordering::Relaxed),
            matmul_calls: MATMUL_CALLS.load(Ordering::Relaxed),
            attention_ns: ATTENTION_NS.load(Ordering::Relaxed),
            attention_calls: ATTENTION_CALLS.load(Ordering::Relaxed),
            logits_ns: LOGITS_NS.load(Ordering::Relaxed),
            logits_calls: LOGITS_CALLS.load(Ordering::Relaxed),
            activation_ns: ACTIVATION_NS.load(Ordering::Relaxed),
            sampling_ns: SAMPLING_NS.load(Ordering::Relaxed),
            elementwise_ns: ELEMENTWISE_NS.load(Ordering::Relaxed),
        }
    }

    /// Records one dense matmul span.
    pub fn record_matmul(elapsed: Duration) {
        MATMUL_NS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one PagedAttention decode span.
    pub fn record_attention(elapsed: Duration) {
        ATTENTION_NS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        ATTENTION_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one logits-projection span.
    pub fn record_logits(elapsed: Duration) {
        LOGITS_NS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        LOGITS_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one step's sampling span.
    pub fn record_sampling(elapsed: Duration) {
        SAMPLING_NS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Attributes the stretches of a forward pass that lie *between* its
    /// kernel calls. The kernels record themselves, so the caller marks
    /// each boundary: [`Self::elementwise`] or [`Self::activation`] charges
    /// everything since the previous mark to that class, [`Self::skip`]
    /// drops it (a kernel ran). One clock read per mark; the totals reach
    /// the process-wide counters once, when the clock is dropped.
    #[derive(Debug)]
    pub(crate) struct OpClock {
        mark: Instant,
        activation_ns: u64,
        elementwise_ns: u64,
    }

    impl OpClock {
        /// Starts the first stretch.
        pub(crate) fn start() -> Self {
            Self {
                mark: Instant::now(),
                activation_ns: 0,
                elementwise_ns: 0,
            }
        }

        fn lap(&mut self) -> u64 {
            let now = Instant::now();
            let ns = (now - self.mark).as_nanos() as u64;
            self.mark = now;
            ns
        }

        /// The stretch since the last mark was a self-recording kernel.
        pub(crate) fn skip(&mut self) {
            self.mark = Instant::now();
        }

        /// The stretch since the last mark was norm / bias / residual /
        /// embedding / K/V-write work.
        pub(crate) fn elementwise(&mut self) {
            self.elementwise_ns += self.lap();
        }

        /// The stretch since the last mark was the activation function.
        pub(crate) fn activation(&mut self) {
            self.activation_ns += self.lap();
        }
    }

    impl Drop for OpClock {
        fn drop(&mut self) {
            ACTIVATION_NS.fetch_add(self.activation_ns, Ordering::Relaxed);
            ELEMENTWISE_NS.fetch_add(self.elementwise_ns, Ordering::Relaxed);
        }
    }
}

/// The seed repository's scalar ikj matmul, kept verbatim (including its
/// branch-per-element sparsity check) as the baseline for equivalence
/// tests and the `kernels` bench.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// Accumulates `out_row += a_blk @ panel` where panel row `p` starts at
/// `rows[base + p * stride]` and spans `nb` columns. Four B rows are
/// consumed per iteration so each output element gets four fused
/// multiply-adds of independent streams; the remainder is handled one row
/// at a time. The per-element accumulation order is a function of the row
/// index alone, keeping results independent of packing and of `m`.
#[inline]
fn accumulate_panel(
    a_blk: &[f32],
    rows: &[f32],
    base: usize,
    stride: usize,
    nb: usize,
    out_row: &mut [f32],
) {
    let kb = a_blk.len();
    let out_row = &mut out_row[..nb];
    let mut p = 0;
    while p + 4 <= kb {
        let (a0, a1, a2, a3) = (a_blk[p], a_blk[p + 1], a_blk[p + 2], a_blk[p + 3]);
        let r0 = &rows[base + p * stride..base + p * stride + nb];
        let r1 = &rows[base + (p + 1) * stride..base + (p + 1) * stride + nb];
        let r2 = &rows[base + (p + 2) * stride..base + (p + 2) * stride + nb];
        let r3 = &rows[base + (p + 3) * stride..base + (p + 3) * stride + nb];
        for j in 0..nb {
            out_row[j] += a0 * r0[j] + a1 * r1[j] + a2 * r2[j] + a3 * r3[j];
        }
        p += 4;
    }
    while p < kb {
        let ap = a_blk[p];
        let r = &rows[base + p * stride..base + p * stride + nb];
        for (o, &v) in out_row.iter_mut().zip(r) {
            *o += ap * v;
        }
        p += 1;
    }
}

/// `out[m×n] = a[m×k] @ b[k×n]`, row-major, accumulating in `f32`.
///
/// Cache-blocked over `KB × NB` panels of `b`; panels are packed into a
/// contiguous scratch buffer when `m` is large enough to amortize the
/// copy. Each output row is bit-identical to the `m = 1` product of that
/// row, regardless of batching or blocking.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    out.fill(0.0);
    let pack = m >= PACK_MIN_ROWS;
    let mut panel = if pack {
        vec![0.0f32; KB.min(k) * NB.min(n)]
    } else {
        Vec::new()
    };
    let mut kk = 0;
    while kk < k {
        let kb = KB.min(k - kk);
        let mut nn = 0;
        while nn < n {
            let nb = NB.min(n - nn);
            if pack {
                for p in 0..kb {
                    let src = (kk + p) * n + nn;
                    panel[p * nb..(p + 1) * nb].copy_from_slice(&b[src..src + nb]);
                }
            }
            for i in 0..m {
                let a_blk = &a[i * k + kk..i * k + kk + kb];
                let out_row = &mut out[i * n + nn..i * n + nn + nb];
                if pack {
                    accumulate_panel(a_blk, &panel, 0, nb, nb, out_row);
                } else {
                    accumulate_panel(a_blk, b, kk * n + nn, n, nb, out_row);
                }
            }
            nn += nb;
        }
        kk += kb;
    }
}

/// Work size (in multiply-adds) above which the backend dispatch
/// ([`crate::backend`]) splits a matmul across the worker pool.
pub const PARALLEL_MATMUL_THRESHOLD: usize = 1 << 21;

/// One output-column window of a single-row product: `out` receives
/// columns `j0 .. j0 + out.len()` of `a[1×k] @ b[k×n]`. Same `KB`/`NB`
/// panel walk as [`matmul`]; per-element accumulation order depends only
/// on `k`, so stripes are bit-identical to the full serial product. The
/// scalar backend's column-stripe kernel for the pooled m=1 path.
pub(crate) fn matmul_one_row_cols(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    let width = out.len();
    let mut kk = 0;
    while kk < k {
        let kb = KB.min(k - kk);
        let a_blk = &a[kk..kk + kb];
        let mut nn = 0;
        while nn < width {
            let nb = NB.min(width - nn);
            accumulate_panel(a_blk, b, kk * n + j0 + nn, n, nb, &mut out[nn..nn + nb]);
            nn += nb;
        }
        kk += kb;
    }
}

/// Transposes a row-major `rows × cols` matrix into `cols × rows`.
/// Used once at model build to lay the tied embedding out as
/// `hidden × vocab` for the blocked LM-head kernel.
///
/// # Panics
///
/// Panics if `src.len() != rows * cols`.
#[must_use]
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(src.len(), rows * cols, "shape mismatch");
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    out
}

/// Dot product with four independent accumulators (fixed combination
/// order), so the autovectorizer can keep four SIMD streams in flight.
#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut p = 0;
    while p + 4 <= k {
        s0 += a[p] * b[p];
        s1 += a[p + 1] * b[p + 1];
        s2 += a[p + 2] * b[p + 2];
        s3 += a[p + 3] * b[p + 3];
        p += 4;
    }
    while p < k {
        s0 += a[p] * b[p];
        p += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// Four simultaneous [`dot_unrolled`] products sharing one `b` stream.
/// Each lane follows the accumulation order of [`dot_unrolled`] exactly,
/// so lane results are bit-identical to four separate calls; interleaving
/// only multiplies the independent accumulator chains (16 instead of 4)
/// and reuses each loaded `b` chunk across four rows.
#[inline]
fn dot_unrolled_x4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f32; 4] {
    let k = b.len();
    debug_assert!(a0.len() == k && a1.len() == k && a2.len() == k && a3.len() == k);
    let (mut r0s0, mut r0s1, mut r0s2, mut r0s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let (mut r1s0, mut r1s1, mut r1s2, mut r1s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let (mut r2s0, mut r2s1, mut r2s2, mut r2s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let (mut r3s0, mut r3s1, mut r3s2, mut r3s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut p = 0;
    while p + 4 <= k {
        let (b0, b1, b2, b3) = (b[p], b[p + 1], b[p + 2], b[p + 3]);
        r0s0 += a0[p] * b0;
        r0s1 += a0[p + 1] * b1;
        r0s2 += a0[p + 2] * b2;
        r0s3 += a0[p + 3] * b3;
        r1s0 += a1[p] * b0;
        r1s1 += a1[p + 1] * b1;
        r1s2 += a1[p + 2] * b2;
        r1s3 += a1[p + 3] * b3;
        r2s0 += a2[p] * b0;
        r2s1 += a2[p + 1] * b1;
        r2s2 += a2[p + 2] * b2;
        r2s3 += a2[p + 3] * b3;
        r3s0 += a3[p] * b0;
        r3s1 += a3[p + 1] * b1;
        r3s2 += a3[p + 2] * b2;
        r3s3 += a3[p + 3] * b3;
        p += 4;
    }
    while p < k {
        r0s0 += a0[p] * b[p];
        r1s0 += a1[p] * b[p];
        r2s0 += a2[p] * b[p];
        r3s0 += a3[p] * b[p];
        p += 1;
    }
    [
        (r0s0 + r0s1) + (r0s2 + r0s3),
        (r1s0 + r1s1) + (r1s2 + r1s3),
        (r2s0 + r2s1) + (r2s2 + r2s3),
        (r3s0 + r3s1) + (r3s2 + r3s3),
    ]
}

/// `out[m×n] = a[m×k] @ bt[n×k]ᵀ` — B is given transposed (row `j` of
/// `bt` is column `j` of B), so both operands stream row-major. This is
/// the LM-head layout: logits are dot products of hidden states against
/// embedding rows. The loop nest keeps `a` (small) hot and streams each
/// `bt` row exactly once across all batch rows.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_transb(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(bt.len(), n * k, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    for j in 0..n {
        let b_row = &bt[j * k..(j + 1) * k];
        let mut i = 0;
        while i + 4 <= m {
            let r = dot_unrolled_x4(
                &a[i * k..(i + 1) * k],
                &a[(i + 1) * k..(i + 2) * k],
                &a[(i + 2) * k..(i + 3) * k],
                &a[(i + 3) * k..(i + 4) * k],
                b_row,
            );
            out[i * n + j] = r[0];
            out[(i + 1) * n + j] = r[1];
            out[(i + 2) * n + j] = r[2];
            out[(i + 3) * n + j] = r[3];
            i += 4;
        }
        while i < m {
            out[i * n + j] = dot_unrolled(&a[i * k..(i + 1) * k], b_row);
            i += 1;
        }
    }
}

/// [`matmul_transb`] with the output columns split across the worker pool
/// for large shapes (the vocab dimension of the logits projection).
/// Results are bit-identical to the serial kernel. Untimed — the backend
/// dispatch ([`crate::backend`]) wraps it with the logits counters.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub(crate) fn matmul_transb_pooled(
    a: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(bt.len(), n * k, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    let work = m * k * n;
    let workers = pool::global();
    let threads = workers.parallelism();
    if work < PARALLEL_MATMUL_THRESHOLD || threads < 2 || n < 2 * threads {
        matmul_transb(a, bt, m, k, n, out);
        return;
    }
    // Split the n (vocab) dimension into one stripe per worker. Each task
    // owns a disjoint column range of every output row; the rows are split
    // at the stripe boundaries so the borrows are disjoint `&mut` slices.
    let n_stripes = threads.min(n);
    let cols = n.div_ceil(n_stripes);
    let mut stripes: Vec<Vec<&mut [f32]>> = (0..n_stripes).map(|_| Vec::with_capacity(m)).collect();
    for mut row in out.chunks_mut(n) {
        for stripe in stripes.iter_mut() {
            let w = cols.min(row.len());
            let (head, tail) = row.split_at_mut(w);
            stripe.push(head);
            row = tail;
        }
    }
    workers.scoped(|s| {
        for (t, stripe_rows) in stripes.into_iter().enumerate() {
            let j0 = t * cols;
            s.spawn(move || {
                let mut rows = stripe_rows;
                let width = rows.first().map_or(0, |r| r.len());
                for local in 0..width {
                    let b_row = &bt[(j0 + local) * k..(j0 + local + 1) * k];
                    let mut i = 0;
                    while i + 4 <= rows.len() {
                        let r = dot_unrolled_x4(
                            &a[i * k..(i + 1) * k],
                            &a[(i + 1) * k..(i + 2) * k],
                            &a[(i + 2) * k..(i + 3) * k],
                            &a[(i + 3) * k..(i + 4) * k],
                            b_row,
                        );
                        rows[i][local] = r[0];
                        rows[i + 1][local] = r[1];
                        rows[i + 2][local] = r[2];
                        rows[i + 3][local] = r[3];
                        i += 4;
                    }
                    while i < rows.len() {
                        rows[i][local] = dot_unrolled(&a[i * k..(i + 1) * k], b_row);
                        i += 1;
                    }
                }
            });
        }
    });
}

/// `out[n] = x[k] @ w[k×n]` (one-token linear layer).
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub fn matvec(x: &[f32], w: &[f32], k: usize, n: usize, out: &mut [f32]) {
    matmul(x, w, 1, k, n, out);
}

/// Adds `bias[n]` to every row of `x[m×n]`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    let n = bias.len();
    assert_eq!(x.len() % n, 0, "bias length must divide tensor length");
    for row in x.chunks_exact_mut(n) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Element-wise `a += b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_inplace(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Layer normalization of each `n`-sized row: `(x - mean) / sqrt(var + eps)
/// * gamma + beta`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn layer_norm(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = gamma.len();
    assert_eq!(beta.len(), n);
    assert_eq!(x.len() % n, 0);
    for row in x.chunks_exact_mut(n) {
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - mean) * inv * g + b;
        }
    }
}

/// `2·√(2/π)`: the tanh-GELU's inner scale, doubled (`tanh z = 2σ(2z) − 1`).
const GELU_SCALE: f32 = 1.595_769;
/// Inputs below this give `−0.0` whatever they are; clamping to it keeps
/// `−inf · 0` from making a NaN.
const GELU_FLOOR: f32 = -1.0e4;

/// Eight elements of [`gelu`]: `u · σ(a)` with `a = GELU_SCALE · (u +
/// 0.044715 u³)` and σ taken from `e = exp(−|a|)` — `1 / (1 + e)` for
/// `a ≥ 0`, `e / (1 + e)` below — so `exp` only ever sees the `[-87, 0]`
/// range the `wide` shim verifies (further out `e` is exactly 0 and the
/// result exactly `u` or `−0.0`). Every step is one separately rounded
/// operation on one lane, so a lane's result depends on that lane alone.
#[inline(always)]
fn gelu_lanes(u: [f32; 8]) -> [f32; 8] {
    let u = u.map(|v| if v < GELU_FLOOR { GELU_FLOOR } else { v });
    let a = u.map(|v| GELU_SCALE * (v + 0.044_715 * v * v * v));
    let e = f32x8::new(a.map(|a| -a.abs())).exp().to_array();
    let mut out = [0.0f32; 8];
    for (((o, u), a), e) in out.iter_mut().zip(u).zip(a).zip(e) {
        let numerator = if a >= 0.0 { 1.0 } else { e };
        *o = u * (numerator / (1.0 + e));
    }
    out
}

/// Tanh-approximation GELU, `0.5 u (1 + tanh(√(2/π)(u + 0.044715 u³)))`,
/// applied element-wise through the deterministic vector `exp`: whole
/// vectors of eight, then the tail padded into one more vector. An
/// element's result is a pure function of that element — the same bits at
/// any offset, in any slice length, beside any neighbours, under the AVX2
/// and the portable instantiation — which is what lets every backend share
/// it without touching batched ≡ solo or chunked ≡ monolithic identity.
pub fn gelu(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { gelu_avx2(x) };
        return;
    }
    gelu_impl(x);
}

/// AVX2 instantiation of [`gelu_impl`]; lane-wise identical arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_avx2(x: &mut [f32]) {
    gelu_impl(x);
}

#[inline(always)]
fn gelu_impl(x: &mut [f32]) {
    let (vectors, tail) = x.as_chunks_mut::<8>();
    for lanes in vectors {
        *lanes = gelu_lanes(*lanes);
    }
    if !tail.is_empty() {
        let mut lanes = [0.0f32; 8];
        lanes[..tail.len()].copy_from_slice(tail);
        tail.copy_from_slice(&gelu_lanes(lanes)[..tail.len()]);
    }
}

/// In-place softmax over a single row.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// In-place log-softmax over a single row.
pub fn log_softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum: f32 = x.iter().map(|v| (v - max).exp()).sum();
    let log_sum = sum.ln() + max;
    for v in x.iter_mut() {
        *v -= log_sum;
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `acc += s * v` (scaled accumulate).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(acc: &mut [f32], s: f32, v: &[f32]) {
    assert_eq!(acc.len(), v.len());
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += s * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 100) as f32 / 50.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let id = vec![1.0, 0.0, 0.0, 1.0];
        let mut out = vec![0.0; 4];
        matmul(&a, &id, 2, 2, 2, &mut out);
        assert_close(&out, &a, 1e-6);
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut out = vec![0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_close(&out, &[19.0, 22.0, 43.0, 50.0], 1e-6);
    }

    #[test]
    fn matmul_rectangular() {
        // 1×3 @ 3×2.
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut out = vec![0.0; 2];
        matmul(&a, &b, 1, 3, 2, &mut out);
        assert_close(&out, &[4.0, 5.0], 1e-6);
    }

    #[test]
    fn blocked_matmul_matches_reference_across_shapes() {
        // Shapes straddling the KB/NB panel boundaries, including tails.
        for &(m, k, n) in &[
            (1usize, 7usize, 5usize),
            (3, 130, 9),
            (5, 128, 256),
            (7, 129, 257),
            (2, 300, 40),
            (9, 64, 511),
        ] {
            let a = fill(m as u64 + 1, m * k);
            let b = fill(n as u64 + 2, k * n);
            let mut reference = vec![0.0; m * n];
            let mut blocked = vec![0.0; m * n];
            matmul_reference(&a, &b, m, k, n, &mut reference);
            matmul(&a, &b, m, k, n, &mut blocked);
            assert_close(&reference, &blocked, 1e-4);
        }
    }

    #[test]
    fn matmul_rows_independent_of_batching() {
        // Row i of an m-row product must be bit-identical to the m=1
        // product of that row: the guarantee batched decode relies on.
        let (m, k, n) = (16usize, 96usize, 192usize);
        let a = fill(11, m * k);
        let b = fill(12, k * n);
        let mut batched = vec![0.0; m * n];
        matmul(&a, &b, m, k, n, &mut batched);
        for i in 0..m {
            let mut solo = vec![0.0; n];
            matmul(&a[i * k..(i + 1) * k], &b, 1, k, n, &mut solo);
            assert_eq!(
                &batched[i * n..(i + 1) * n],
                &solo[..],
                "row {i} differs between batched and solo"
            );
        }
    }

    #[test]
    fn one_row_column_stripes_bit_identical_to_full_product() {
        // Stripes at arbitrary (non-panel-aligned) boundaries must
        // reassemble into exactly the serial m=1 product: the guarantee
        // the column-parallel LM-head path relies on.
        let (k, n) = (130usize, 700usize);
        let a = fill(41, k);
        let b = fill(42, k * n);
        let mut full = vec![0.0; n];
        matmul(&a, &b, 1, k, n, &mut full);
        for &cols in &[1usize, 33, 256, 300, 699] {
            let mut striped = vec![0.0; n];
            for (t, chunk) in striped.chunks_mut(cols).enumerate() {
                matmul_one_row_cols(&a, &b, k, n, t * cols, chunk);
            }
            assert_eq!(full, striped, "stripe width {cols} diverged");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let (rows, cols) = (5usize, 7usize);
        let src = fill(51, rows * cols);
        let t = transpose(&src, rows, cols);
        assert_eq!(t[3 * rows + 2], src[2 * cols + 3]);
        assert_eq!(transpose(&t, cols, rows), src);
    }

    #[test]
    fn transb_matches_reference() {
        let (m, k, n) = (3usize, 37usize, 19usize);
        let a = fill(21, m * k);
        let bt = fill(22, n * k); // n×k (transposed B)
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut reference = vec![0.0; m * n];
        matmul_reference(&a, &b, m, k, n, &mut reference);
        let mut got = vec![0.0; m * n];
        matmul_transb(&a, &bt, m, k, n, &mut got);
        assert_close(&reference, &got, 1e-4);
    }

    #[test]
    fn transb_pooled_matches_serial() {
        // Above the parallel threshold so the striped path runs.
        let (m, k, n) = (4usize, 64usize, 16384usize);
        let a = fill(31, m * k);
        let bt = fill(32, n * k);
        let mut serial = vec![0.0; m * n];
        let mut pooled = vec![0.0; m * n];
        matmul_transb(&a, &bt, m, k, n, &mut serial);
        matmul_transb_pooled(&a, &bt, m, k, n, &mut pooled);
        assert_eq!(serial, pooled, "striped transb must be bit-identical");
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut x = vec![1000.0, 1000.0];
        softmax(&mut x);
        assert_close(&x, &[0.5, 0.5], 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut a = vec![0.5, -1.0, 2.0];
        let mut b = a.clone();
        softmax(&mut a);
        log_softmax(&mut b);
        for (p, lp) in a.iter().zip(&b) {
            assert!((p.ln() - lp).abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        layer_norm(&mut x, &gamma, &beta, 1e-5);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_known_points() {
        let mut x = vec![0.0, 1.0, -1.0];
        gelu(&mut x);
        assert!((x[0]).abs() < 1e-6);
        assert!((x[1] - 0.8412).abs() < 1e-3);
        assert!((x[2] + 0.1588).abs() < 1e-3);
    }

    /// The accuracy oracle: tanh-GELU in f64, with `0.5 (1 + tanh z)`
    /// written as `1 / (1 + e^(-2z))` so that the negative tail keeps its
    /// digits (`1 + tanh z` cancels to 0 beyond `z = -19` even in f64).
    fn gelu_tanh_f64(u: f64) -> f64 {
        let z = (2.0 / std::f64::consts::PI).sqrt() * (u + 0.044_715 * u * u * u);
        u / (1.0 + (-2.0 * z).exp())
    }

    /// The function [`gelu`] replaced: the same form through libm's f32
    /// `tanh`, one element at a time.
    fn gelu_libm(u: f32) -> f32 {
        0.5 * u * (1.0 + (0.797_884_6 * (u + 0.044_715 * u * u * u)).tanh())
    }

    #[test]
    fn gelu_within_pinned_error_of_the_f64_tanh_form() {
        // 24 * 4096 + 1 points on [-12, 12]; 0 is one of them.
        let input: Vec<f32> = (0..=24 * 4096).map(|i| i as f32 / 4096.0 - 12.0).collect();
        let mut x = input.clone();
        gelu(&mut x);
        // Also relative to the result, so the small negative tail counts
        // (down to where f32 runs out of exponent).
        let errors = |got: f32, u: f32| {
            let want = gelu_tanh_f64(f64::from(u));
            let abs = (f64::from(got) - want).abs();
            let counts = want.abs() > 1e-30;
            (abs, if counts { abs / want.abs() } else { 0.0 })
        };
        let (mut abs, mut rel, mut libm_rel, mut apart) = (0.0f64, 0.0f64, 0.0f64, 0.0f32);
        for (&u, &got) in input.iter().zip(&x) {
            let (a, r) = errors(got, u);
            (abs, rel) = (abs.max(a), rel.max(r));
            libm_rel = libm_rel.max(errors(gelu_libm(u), u).1);
            apart = apart.max((got - gelu_libm(u)).abs());
        }
        // Measured: 5.2e-7 absolute — half an ulp of the largest results
        // plus the rounding of `a` — and 1.4e-5 relative, at the far end of
        // the negative tail, where libm's `1 + tanh` has cancelled to
        // nothing (relative error 1). The two forms are at most 4.8e-7 apart.
        assert!(abs <= 6e-7, "max abs error {abs:e}");
        assert!(rel <= 2e-5, "max rel error {rel:e}");
        assert!(libm_rel > 0.5, "libm's tail got better: {libm_rel:e}");
        assert!(apart <= 1e-6, "vector and libm forms {apart:e} apart");
    }

    #[test]
    fn gelu_special_values() {
        let mut x = [
            0.0,
            -0.0,
            40.0,
            -40.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        gelu(&mut x);
        let bits = |v: f32| v.to_bits();
        assert_eq!(bits(x[0]), bits(0.0));
        assert_eq!(bits(x[1]), bits(-0.0));
        assert_eq!(x[2], 40.0);
        assert_eq!(bits(x[3]), bits(-0.0));
        assert_eq!(x[4], 1e30);
        assert_eq!(bits(x[5]), bits(-0.0));
        assert_eq!(x[6], f32::INFINITY);
        assert_eq!(bits(x[7]), bits(-0.0));
        assert!(x[8].is_nan());
        assert_eq!(x[9], f32::MAX);
        assert_eq!(bits(x[10]), bits(-0.0));
    }

    /// One element alone in a slice: the tail path, at offset 0.
    fn gelu_one(u: f32) -> u32 {
        let mut x = [u];
        gelu(&mut x);
        x[0].to_bits()
    }

    proptest::proptest! {
        #[test]
        fn gelu_element_is_independent_of_offset_length_and_neighbours(
            draws in proptest::collection::vec(0u32..u32::MAX, 0..40),
            offset in 0usize..8,
        ) {
            // Two bits pick the magnitude (|u| < 12, < 100, < 1e-3, or one
            // of the special points), the rest the value.
            let values: Vec<f32> = draws
                .iter()
                .map(|&d| {
                    let unit = (d >> 2) as f32 / (1u32 << 30) as f32 - 0.5;
                    match d & 3 {
                        0 => unit * 24.0,
                        1 => unit * 200.0,
                        2 => unit * 2e-3,
                        _ => [0.0, -0.0, f32::NEG_INFINITY, 1e30][(d >> 2) as usize % 4],
                    }
                })
                .collect();
            // The slice sits at `offset` inside a longer buffer, so its
            // elements land in every lane and in the tail.
            let mut buf = vec![7.5f32; offset + values.len()];
            buf[offset..].copy_from_slice(&values);
            gelu(&mut buf[offset..]);
            for (&u, got) in values.iter().zip(&buf[offset..]) {
                proptest::prop_assert_eq!(got.to_bits(), gelu_one(u), "u = {}", u);
            }
            proptest::prop_assert!(buf[..offset].iter().all(|&v| v == 7.5));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gelu_avx2_instantiation_bit_identical_to_portable() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let input: Vec<f32> = (0..40_003)
            .map(|i| (i as f32 - 20_000.0) * 7.3e-4)
            .collect();
        let mut portable = input.clone();
        gelu_impl(&mut portable);
        let mut avx2 = input.clone();
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { gelu_avx2(&mut avx2) };
        for ((u, p), a) in input.iter().zip(&portable).zip(&avx2) {
            assert_eq!(p.to_bits(), a.to_bits(), "u = {u}");
        }
    }

    #[test]
    fn bias_and_residual() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        add_bias(&mut x, &[10.0, 20.0]);
        assert_close(&x, &[11.0, 22.0, 13.0, 24.0], 1e-6);
        let mut a = vec![1.0, 1.0];
        add_inplace(&mut a, &[2.0, 3.0]);
        assert_close(&a, &[3.0, 4.0], 1e-6);
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut acc = vec![1.0, 1.0];
        axpy(&mut acc, 2.0, &[1.0, 2.0]);
        assert_close(&acc, &[3.0, 5.0], 1e-6);
    }

    #[test]
    fn op_clock_charges_each_stretch_to_one_class() {
        let pause = std::time::Duration::from_millis(2);
        let before = timing::snapshot();
        let mut clock = timing::OpClock::start();
        std::thread::sleep(pause);
        clock.elementwise();
        std::thread::sleep(pause);
        clock.skip();
        std::thread::sleep(pause);
        clock.activation();
        // Nothing reaches the process-wide counters before the drop. (Other
        // tests' forwards may add to them at any time, so only lower bounds
        // can be asserted after it.)
        let marks = 100_000;
        let start = std::time::Instant::now();
        for _ in 0..marks {
            clock.elementwise();
        }
        let per_mark = start.elapsed().as_nanos() as f64 / f64::from(marks);
        drop(clock);
        let d = timing::snapshot().delta_since(&before);
        assert!(d.elementwise_ns >= 2_000_000 && d.activation_ns >= 2_000_000);
        // A forward makes 9 marks per layer + 2: what the attribution costs.
        // Measured 34 ns per mark in a release build: 1.3 us of a 400 us
        // decode step on the 4-layer serving model.
        assert!(per_mark < 1_000.0, "{per_mark:.0} ns per mark");
    }

    #[test]
    fn kernel_timing_counters_advance() {
        let before = timing::snapshot();
        timing::record_matmul(std::time::Duration::from_nanos(7));
        timing::record_logits(std::time::Duration::from_nanos(9));
        timing::record_attention(std::time::Duration::from_nanos(11));
        timing::record_sampling(std::time::Duration::from_nanos(13));
        let delta = timing::snapshot().delta_since(&before);
        assert!(delta.matmul_calls >= 1 && delta.matmul_ns >= 7);
        assert!(delta.logits_calls >= 1 && delta.logits_ns >= 9);
        assert!(delta.attention_calls >= 1 && delta.attention_ns >= 11);
        assert!(delta.sampling_ns >= 13);
    }
}
