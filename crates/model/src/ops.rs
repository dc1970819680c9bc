//! Dense kernels for the CPU transformer besides the GEMM
//! ([`crate::gemm`]): layer norm, GELU, softmax, the seed's reference
//! matmul, and the kernel-time counters. All tensors are row-major `f32`
//! slices with explicit shapes.

use wide::f32x8;

use crate::isa::{Isa, Kernel};

/// Kernel timing: a step's op clock, and the process-wide sum of every
/// finished clock (see [`timing::snapshot`]).
pub mod timing {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// Each class's nanoseconds, in the order of [`CLASSES`].
    static NS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
    /// The calls of the first three classes (the kernels).
    static CALLS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
    static CLOCK_READS: AtomicU64 = AtomicU64::new(0);
    static CLOCKS: AtomicU64 = AtomicU64::new(0);

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

    /// Kernel counters: what one op clock read when it finished, or the
    /// process-wide sum of every finished clock ([`snapshot`]), which
    /// benches difference around a run for per-kernel nanosecond reports.
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
        /// Counter reads the op clocks made to attribute these times: one
        /// per kernel-call boundary.
        pub clock_reads: u64,
        /// Op clocks that made them (about one per step, plus one per pool
        /// task of a tensor-parallel forward).
        pub clocks: u64,
    }

    impl KernelSnapshot {
        fn from_parts(ns: [u64; 6], calls: [u64; 3], clock_reads: u64, clocks: u64) -> Self {
            let [matmul_ns, attention_ns, logits_ns, activation_ns, sampling_ns, elementwise_ns] =
                ns;
            let [matmul_calls, attention_calls, logits_calls] = calls;
            Self {
                matmul_ns,
                matmul_calls,
                attention_ns,
                attention_calls,
                logits_ns,
                logits_calls,
                activation_ns,
                sampling_ns,
                elementwise_ns,
                clock_reads,
                clocks,
            }
        }

        /// Counter increments since `earlier`.
        #[must_use]
        pub fn delta_since(&self, earlier: &Self) -> Self {
            let (ns, earlier_ns) = (self.ns(), earlier.ns());
            let (calls, earlier_calls) = (self.calls(), earlier.calls());
            Self::from_parts(
                std::array::from_fn(|i| ns[i].wrapping_sub(earlier_ns[i])),
                std::array::from_fn(|i| calls[i].wrapping_sub(earlier_calls[i])),
                self.clock_reads.wrapping_sub(earlier.clock_reads),
                self.clocks.wrapping_sub(earlier.clocks),
            )
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

        /// The kernel classes' calls, in the order of [`CLASSES`].
        fn calls(&self) -> [u64; 3] {
            [self.matmul_calls, self.attention_calls, self.logits_calls]
        }
    }

    /// Reads the process-wide sum of every finished op clock.
    #[must_use]
    pub fn snapshot() -> KernelSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        KernelSnapshot::from_parts(
            NS.each_ref().map(load),
            CALLS.each_ref().map(load),
            load(&CLOCK_READS),
            load(&CLOCKS),
        )
    }

    /// What an [`OpClock`] mark reads: the time-stamp counter on x86-64,
    /// where one read costs about half a monotonic clock read; elsewhere
    /// nanoseconds since `origin`.
    #[inline(always)]
    fn ticks(origin: Instant) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            let _ = origin;
            // SAFETY: RDTSC is part of every x86-64 CPU, has no operands
            // and no preconditions; it only reads the time-stamp counter.
            unsafe { std::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            origin.elapsed().as_nanos() as u64
        }
    }

    /// Attributes a step's time to op classes from one counter read per
    /// boundary: each mark charges everything since the previous mark to
    /// one class — [`Self::elementwise`] or [`Self::activation`] the work
    /// between kernel calls, [`Self::matmul`], [`Self::attention`] or
    /// [`Self::logits`] the kernel call that just returned, [`Self::skip`]
    /// nothing (pool tasks on clocks of their own ran, and reported to this
    /// one through [`Self::absorb`]). Marks read the cheap tick counter of
    /// [`ticks`]; the clock reads the monotonic clock at its start and at
    /// [`Self::finish`], which returns its reading to the clock's owner and
    /// adds it to the process-wide sum, once.
    #[derive(Debug)]
    pub(crate) struct OpClock {
        origin: Instant,
        first: u64,
        mark: u64,
        reads: u64,
        /// This clock and the pool tasks' clocks that reported to it.
        clocks: u64,
        ticks: [u64; 6],
        calls: [u64; 3],
    }

    impl OpClock {
        /// Starts the first stretch.
        pub(crate) fn start() -> Self {
            let origin = Instant::now();
            let first = ticks(origin);
            Self {
                origin,
                first,
                mark: first,
                reads: 1,
                clocks: 1,
                ticks: [0; 6],
                calls: [0; 3],
            }
        }

        /// Charges the stretch since the last mark to class `class` (an
        /// index into [`CLASSES`]).
        #[inline(always)]
        fn lap(&mut self, class: usize) {
            let now = ticks(self.origin);
            self.ticks[class] += now.saturating_sub(self.mark);
            self.mark = now;
            self.reads += 1;
        }

        /// The stretch since the last mark recorded itself (pool tasks with
        /// clocks of their own ran).
        pub(crate) fn skip(&mut self) {
            self.mark = ticks(self.origin);
            self.reads += 1;
        }

        /// The stretch since the last mark was norm / bias / residual /
        /// embedding / K/V-write work.
        pub(crate) fn elementwise(&mut self) {
            self.lap(5);
        }

        /// The stretch since the last mark was the activation function.
        pub(crate) fn activation(&mut self) {
            self.lap(3);
        }

        /// The stretch since the last mark was one dense matmul.
        pub(crate) fn matmul(&mut self) {
            self.lap(0);
            self.calls[0] += 1;
        }

        /// The stretch since the last mark was one PagedAttention call.
        pub(crate) fn attention(&mut self) {
            self.lap(1);
            self.calls[1] += 1;
        }

        /// The stretch since the last mark was the logits projection.
        pub(crate) fn logits(&mut self) {
            self.lap(2);
            self.calls[2] += 1;
        }

        /// The stretch since the last mark was a step's sampling.
        pub(crate) fn sampling(&mut self) {
            self.lap(4);
        }

        /// A pool task's clock ended: its ticks, calls and reads become
        /// this clock's, which marked the task's stretch with
        /// [`Self::skip`]. Both count the same ticks: the time-stamp counter
        /// on x86-64, elsewhere nanoseconds.
        pub(crate) fn absorb(&mut self, task: Self) {
            self.ticks = std::array::from_fn(|i| self.ticks[i] + task.ticks[i]);
            self.calls = std::array::from_fn(|i| self.calls[i] + task.calls[i]);
            self.reads += task.reads;
            self.clocks += task.clocks;
        }

        /// Ends the clock: turns its classes' ticks into nanoseconds of its
        /// wall time, returns that reading (with the kernel calls and
        /// counter reads) to its owner and adds it to the process-wide sum
        /// [`snapshot`] reads.
        pub(crate) fn finish(self) -> KernelSnapshot {
            let wall_ns = self.origin.elapsed().as_nanos() as f64;
            let span = ticks(self.origin).saturating_sub(self.first).max(1);
            let ns_per_tick = wall_ns / span as f64;
            let ns = self.ticks.map(|t| (t as f64 * ns_per_tick) as u64);
            let reading = KernelSnapshot::from_parts(ns, self.calls, self.reads, self.clocks);
            let counters = NS.iter().zip(ns);
            for (counter, n) in counters.chain(CALLS.iter().zip(self.calls)) {
                if n > 0 {
                    counter.fetch_add(n, Ordering::Relaxed);
                }
            }
            CLOCK_READS.fetch_add(self.reads, Ordering::Relaxed);
            CLOCKS.fetch_add(self.clocks, Ordering::Relaxed);
            reading
        }
    }

    /// Runs `f` on an op clock of its own and finishes it: a kernel or
    /// forward call from outside a step, which feeds the process-wide sum
    /// alone.
    pub(crate) fn alone<R>(f: impl FnOnce(&mut OpClock) -> R) -> R {
        let mut clock = OpClock::start();
        let out = f(&mut clock);
        clock.finish();
        out
    }

    /// Runs one op clock through `marks` marks charged to no class and
    /// returns how long that took: what attributing `marks` kernel-call
    /// boundaries of one forward pass costs, start and finish included.
    #[must_use]
    pub fn time_op_clock(marks: u64) -> Duration {
        let start = Instant::now();
        let mut clock = OpClock::start();
        for _ in 1..marks {
            clock.skip();
        }
        clock.finish();
        start.elapsed()
    }
}

/// The seed repository's scalar ikj matmul, kept verbatim (including its
/// branch-per-element sparsity check) as the `kernels` bench's baseline.
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
/// A row's two sums are serial chains, so rows go eight at a time (then
/// four, two, one) with their chains side by side: each row still sums its
/// own elements in order from `-0.0`, as `Iterator::sum` does, so every bit
/// is the row-at-a-time result's, in any batch.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn layer_norm(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = gamma.len();
    assert_eq!(beta.len(), n);
    assert_eq!(x.len() % n, 0);
    let mut groups = x.chunks_exact_mut(8 * n);
    for rows in &mut groups {
        layer_norm_rows::<8>(rows, gamma, beta, eps);
    }
    let mut rest = groups.into_remainder();
    for r in [4, 2, 1] {
        if rest.len() >= r * n {
            let (rows, tail) = rest.split_at_mut(r * n);
            match r {
                4 => layer_norm_rows::<4>(rows, gamma, beta, eps),
                2 => layer_norm_rows::<2>(rows, gamma, beta, eps),
                _ => layer_norm_rows::<1>(rows, gamma, beta, eps),
            }
            rest = tail;
        }
    }
}

/// [`layer_norm`] of exactly `R` rows, their sums interleaved.
#[inline(always)]
fn layer_norm_rows<const R: usize>(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = gamma.len();
    let (mean, sq) = {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * n..][..n]);
        let mean = row_sums(&rows, |v, _| v).map(|s| s / n as f32);
        let sq = row_sums(&rows, |v, r| (v - mean[r]) * (v - mean[r]));
        (mean, sq)
    };
    for ((row, s), m) in x.chunks_exact_mut(n).zip(sq).zip(mean) {
        let inv = 1.0 / (s / n as f32 + eps).sqrt();
        for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - m) * inv * g + b;
        }
    }
}

/// Each row's sum of `term(element, row index)` over its elements, in
/// order from `-0.0`. The rows' chains run side by side, eight columns at a
/// time: the compiler turns each column of `R` rows into vector adds.
#[inline(always)]
fn row_sums<const R: usize>(rows: &[&[f32]; R], term: impl Fn(f32, usize) -> f32) -> [f32; R] {
    const COLUMNS: usize = 8;
    let mut sum = [-0.0f32; R];
    let mut add = |column: [f32; R]| {
        for (r, (s, v)) in sum.iter_mut().zip(column).enumerate() {
            *s += term(v, r);
        }
    };
    let n = rows[0].len();
    let whole = n - n % COLUMNS;
    for start in (0..whole).step_by(COLUMNS) {
        let tile: [[f32; COLUMNS]; R] = std::array::from_fn(|r| {
            let columns = &rows[r][start..][..COLUMNS];
            columns.try_into().expect("COLUMNS columns")
        });
        let columns: [[f32; R]; COLUMNS] =
            std::array::from_fn(|k| std::array::from_fn(|r| tile[r][k]));
        for column in columns {
            add(column);
        }
    }
    for column in (whole..n).map(|j| std::array::from_fn(|r| rows[r][j])) {
        add(column);
    }
    sum
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
/// applied element-wise through the deterministic vector `exp`, compiled for
/// `isa`: whole vectors of eight, then the tail padded into one more vector.
/// An element's result is a pure function of that element — the same bits
/// at any offset, in any slice length, beside any neighbours, under every
/// instruction set — which is what lets every backend share it without
/// touching batched ≡ solo or chunked ≡ monolithic identity.
///
/// # Panics
///
/// Panics if the CPU lacks `isa`.
pub fn gelu(isa: Isa, x: &mut [f32]) {
    isa.run(Gelu(x));
}

/// [`gelu`]'s body, to instantiate per instruction set.
struct Gelu<'a>(&'a mut [f32]);

impl Kernel for Gelu<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let (vectors, tail) = self.0.as_chunks_mut::<8>();
        for lanes in vectors {
            *lanes = gelu_lanes(*lanes);
        }
        if !tail.is_empty() {
            let mut lanes = [0.0f32; 8];
            lanes[..tail.len()].copy_from_slice(tail);
            tail.copy_from_slice(&gelu_lanes(lanes)[..tail.len()]);
        }
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

    /// [`layer_norm`] one row at a time, as it was before its rows were
    /// interleaved.
    fn layer_norm_row_at_a_time(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let n = gamma.len();
        for row in x.chunks_exact_mut(n) {
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
                *v = (*v - mean) * inv * g + b;
            }
        }
    }

    #[test]
    fn interleaved_layer_norm_matches_row_at_a_time_bits() {
        for n in [1usize, 3, 64, 256] {
            let gamma: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32 * 0.1).collect();
            let beta: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * -0.03).collect();
            for rows in 1..=40usize {
                let mut s = (rows * 1000 + n) as u64 | 1;
                let x: Vec<f32> = (0..rows * n)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        ((s % 20_000) as f32 / 1000.0 - 10.0)
                            * if s.is_multiple_of(3) { 1e-3 } else { 1.0 }
                    })
                    .collect();
                let (mut got, mut want) = (x.clone(), x);
                layer_norm(&mut got, &gamma, &beta, 1e-5);
                layer_norm_row_at_a_time(&mut want, &gamma, &beta, 1e-5);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{rows} rows of {n}");
            }
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
        gelu(Isa::Portable, &mut x);
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
        gelu(Isa::Portable, &mut x);
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
        gelu(Isa::Portable, &mut x);
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
        gelu(Isa::Portable, &mut x);
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
            gelu(Isa::best(), &mut buf[offset..]);
            for (&u, got) in values.iter().zip(&buf[offset..]) {
                proptest::prop_assert_eq!(got.to_bits(), gelu_one(u), "u = {}", u);
            }
            proptest::prop_assert!(buf[..offset].iter().all(|&v| v == 7.5));
        }
    }

    #[test]
    fn gelu_every_instance_bit_identical_to_portable() {
        let input: Vec<f32> = (0..40_003)
            .map(|i| (i as f32 - 20_000.0) * 7.3e-4)
            .collect();
        let mut portable = input.clone();
        gelu(Isa::Portable, &mut portable);
        for isa in Isa::ALL {
            if !isa.is_available() {
                eprintln!("skipping {}: this CPU lacks it", isa.name());
                continue;
            }
            let mut got = input.clone();
            gelu(isa, &mut got);
            for ((u, p), g) in input.iter().zip(&portable).zip(&got) {
                assert_eq!(p.to_bits(), g.to_bits(), "{} u = {u}", isa.name());
            }
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
        let mut clock = timing::OpClock::start();
        std::thread::sleep(pause);
        clock.elementwise();
        std::thread::sleep(pause);
        clock.skip();
        std::thread::sleep(pause);
        clock.activation();
        let marks = 100_000u32;
        let start = std::time::Instant::now();
        for _ in 0..marks {
            clock.elementwise();
        }
        let per_mark = start.elapsed().as_nanos() as f64 / f64::from(marks);
        let reading = clock.finish();
        assert!(reading.elementwise_ns >= 2_000_000 && reading.activation_ns >= 2_000_000);
        assert_eq!(reading.ns()[..3], [0; 3], "no kernel stretch was marked");
        assert_eq!(
            reading.clock_reads,
            u64::from(marks) + 4,
            "every mark is one counted read"
        );
        // A decode step makes 45 marks on the 4-layer serving model, one
        // per kernel boundary (a kernel call is timed by the marks on
        // either side of it): what the attribution costs. Measured about
        // 25 ns per mark (a time-stamp read) in a release build: about
        // 1.2 us of a 400 us decode step.
        assert!(per_mark < 1_000.0, "{per_mark:.0} ns per mark");
    }

    #[test]
    fn kernel_timing_counters_advance() {
        let before = timing::snapshot();
        let mut clock = timing::OpClock::start();
        let pause = std::time::Duration::from_micros(50);
        for mark in [
            timing::OpClock::matmul,
            timing::OpClock::logits,
            timing::OpClock::attention,
            timing::OpClock::sampling,
        ] {
            std::thread::sleep(pause);
            mark(&mut clock);
        }
        let reading = clock.finish();
        let least = pause.as_nanos() as u64;
        assert_eq!(
            [
                reading.matmul_calls,
                reading.logits_calls,
                reading.attention_calls
            ],
            [1; 3]
        );
        assert!(reading.matmul_ns >= least && reading.logits_ns >= least);
        assert!(reading.attention_ns >= least && reading.sampling_ns >= least);
        assert_eq!((reading.clocks, reading.clock_reads), (1, 5));
        // Other tests' clocks may finish at any time: the process-wide sum
        // holds at least this one's reading.
        let delta = timing::snapshot().delta_since(&before);
        for (sum, own) in delta.ns().into_iter().zip(reading.ns()) {
            assert!(sum >= own);
        }
        assert!(delta.clocks >= 1 && delta.clock_reads >= 5);
    }

    #[test]
    fn a_pool_task_clock_reports_to_its_caller() {
        let pause = std::time::Duration::from_micros(200);
        let mut caller = timing::OpClock::start();
        let mut task = timing::OpClock::start();
        std::thread::sleep(pause);
        task.matmul();
        caller.absorb(task);
        caller.skip();
        std::thread::sleep(pause);
        caller.elementwise();
        let reading = caller.finish();
        assert_eq!((reading.matmul_calls, reading.clocks), (1, 2));
        assert_eq!(
            reading.clock_reads,
            2 + 3,
            "the task's reads and the caller's"
        );
        let least = pause.as_nanos() as u64;
        assert!(reading.matmul_ns >= least && reading.elementwise_ns >= least);
    }
}
