//! The one GEMM, `out[m×n] = a[m×k] · B[k×n]`, over weights packed once,
//! when the model is built or loaded, in the order the kernel reads them.
//!
//! **Layout.** [`Panels`] holds `B` as `⌈n / 16⌉` stripes of 16 columns; a
//! stripe is `k` rows of 16 contiguous floats, zero past `n`. A product
//! walks each stripe front to back, 64 bytes per `k`, where row-major `B`
//! made a one-row product (a decode step) read 64 bytes every `n · 4`. The
//! width is the same for every instruction set, so a packed model does not
//! depend on the backend serving it.
//!
//! **Body.** Plain loops over `[f32; 16]`: a tile of `R` rows by `S` stripes
//! holds its `R · S` accumulators across the whole `k` loop. Per output
//! element that is one accumulator, starting from 0, `k` ascending, a
//! multiply and an add rounded separately. So neither the tile, nor the
//! split across the worker pool, nor the instruction set can change a bit:
//! a row of a batched product ≡ that row alone, and every [`Isa`] instance
//! ≡ every other.

use crate::isa::{Isa, Kernel};

/// Columns per stripe.
pub const STRIPE: usize = 16;

/// Work size (in multiply-adds) above which
/// [`crate::KernelBackend::matmul`] splits a product across the worker
/// pool.
pub const PARALLEL_MATMUL_THRESHOLD: usize = 1 << 21;

/// One row of a stripe: 16 columns, a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct Lanes([f32; STRIPE]);

/// A `k × n` weight matrix packed into stripe-major panels (see the
/// module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Panels {
    k: usize,
    n: usize,
    /// Stripe `s` row `p` at `s · k + p`.
    data: Vec<Lanes>,
}

impl Panels {
    /// Packs the `k × n` matrix whose element `(p, c)` is `f(p, c)`, calling
    /// `f` in row-major order — so a stream of values in row-major order
    /// (an RNG, checkpoint bytes) packs as it is read.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `n` is zero.
    pub fn from_fn(k: usize, n: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        assert!(k > 0 && n > 0, "empty weight matrix");
        let mut data = vec![Lanes([0.0; STRIPE]); n.div_ceil(STRIPE) * k];
        for p in 0..k {
            for c in 0..n {
                data[c / STRIPE * k + p].0[c % STRIPE] = f(p, c);
            }
        }
        Self { k, n, data }
    }

    /// Rows (the reduction depth).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element `(p, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(p, c)` is out of range.
    #[must_use]
    pub fn get(&self, p: usize, c: usize) -> f32 {
        assert!(p < self.k && c < self.n, "({p}, {c}) outside {self:?}");
        self.data[c / STRIPE * self.k + p].0[c % STRIPE]
    }

    /// The matrix in row-major order (checkpoints store it so).
    #[must_use]
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.k * self.n);
        for p in 0..self.k {
            out.extend((0..self.n).map(|c| self.get(p, c)));
        }
        out
    }
}

/// `out[m×n] = a[m×k] · b`, serial, compiled for `isa`.
///
/// # Panics
///
/// Panics if `a` is not whole rows of `b.k()`, `out` does not hold `m × n`,
/// or the CPU lacks `isa`.
pub fn gemm(isa: Isa, a: &[f32], b: &Panels, out: &mut [f32]) {
    gemm_stripes(isa, a, b, 0, out);
}

/// Columns `first · 16 ..` of `a · b` — as many as `out` holds for each row
/// of `a`, which must end on a stripe or at `n`. The stripe split of a
/// one-row product.
pub(crate) fn gemm_stripes(isa: Isa, a: &[f32], b: &Panels, first: usize, out: &mut [f32]) {
    let k = b.k;
    assert_eq!(a.len() % k, 0, "lhs is not whole rows of {k}");
    let m = a.len() / k;
    let cols = out.len().checked_div(m).unwrap_or(0);
    assert_eq!(out.len(), m * cols, "out is not whole rows");
    let end = first * STRIPE + cols;
    assert!(
        end <= b.n && (end == b.n || end.is_multiple_of(STRIPE)),
        "columns {}..{end} do not end a stripe of {b:?}",
        first * STRIPE
    );
    let stripes = &b.data[first * k..end.div_ceil(STRIPE) * k];
    let task = Task {
        a,
        k,
        stripes,
        cols,
        out,
    };
    // The fastest tiles on a 33-row prefill and one- and two-row decode
    // steps at the serving shapes (measured on an AVX-512 Xeon): 12 zmm, 8
    // ymm and 12 xmm accumulators.
    match isa {
        Isa::Avx512 => isa.run(Gemm::<3, 4>(task)),
        Isa::Avx2 => isa.run(Gemm::<2, 2>(task)),
        Isa::Portable => isa.run(Gemm::<1, 3>(task)),
    }
}

/// One serial product: the rows of `a`, the stripes of `b` that `out`'s
/// `cols` columns cover.
struct Task<'a> {
    a: &'a [f32],
    k: usize,
    stripes: &'a [Lanes],
    cols: usize,
    out: &'a mut [f32],
}

/// The body with a tile of `R` rows by `S` stripes.
struct Gemm<'a, const R: usize, const S: usize>(Task<'a>);

impl<const R: usize, const S: usize> Kernel for Gemm<'_, R, S> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Task {
            a,
            k,
            stripes,
            cols,
            out,
        } = self.0;
        let m = a.len() / k;
        let groups = stripes.len() / k / S;
        // Whole groups of `S` stripes, then the stripes left one at a time:
        // each group is read from L1 by every row tile.
        for g in 0..groups + stripes.len() / k % S {
            let (first, width) = if g < groups {
                (g * S, S)
            } else {
                (groups * S + g - groups, 1)
            };
            let b = &stripes[first * k..(first + width) * k];
            let c0 = first * STRIPE;
            let mut i = 0;
            while i < m {
                let rows = if m - i >= R { R } else { 1 };
                let a = &a[i * k..(i + rows) * k];
                let out = &mut out[i * cols..(i + rows) * cols];
                match (rows == R, width == S) {
                    (true, true) => tile::<R, S>(a, b, k, c0, cols, out),
                    (false, true) => tile::<1, S>(a, b, k, c0, cols, out),
                    (true, false) => tile::<R, 1>(a, b, k, c0, cols, out),
                    (false, false) => tile::<1, 1>(a, b, k, c0, cols, out),
                }
                i += rows;
            }
        }
    }
}

impl Lanes {
    /// `x · b + self`, lane by lane. By value, like a vector register:
    /// written as a multiply-add into an accumulator array, tiles of 64 or
    /// more floats stayed scalar code on the stack.
    #[inline(always)]
    fn madd(self, x: f32, b: &Self) -> Self {
        let mut out = self.0;
        for (acc, &b) in out.iter_mut().zip(&b.0) {
            *acc += x * b;
        }
        Self(out)
    }
}

/// `R` rows of `a` times the `S` stripes of `b`, into columns `c0 ..` of
/// each `cols`-wide row of `out` (those before `cols`).
#[inline(always)]
fn tile<const R: usize, const S: usize>(
    a: &[f32],
    b: &[Lanes],
    k: usize,
    c0: usize,
    cols: usize,
    out: &mut [f32],
) {
    let mut a_rows = [&a[..0]; R];
    for (r, row) in a_rows.iter_mut().enumerate() {
        *row = &a[r * k..(r + 1) * k];
    }
    let mut b_stripes = [&b[..0]; S];
    for (s, stripe) in b_stripes.iter_mut().enumerate() {
        *stripe = &b[s * k..(s + 1) * k];
    }
    let mut acc = [[Lanes([0.0; STRIPE]); S]; R];
    for p in 0..k {
        for s in 0..S {
            let b_p = &b_stripes[s][p];
            for r in 0..R {
                acc[r][s] = acc[r][s].madd(a_rows[r][p], b_p);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (s, acc_rs) in acc_r.iter().enumerate() {
            let c = c0 + s * STRIPE;
            let width = cols.saturating_sub(c).min(STRIPE);
            out[r * cols + c..][..width].copy_from_slice(&acc_rs.0[..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The plain triple loop: per element one accumulator, `k` ascending.
    fn triple_loop(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<u32> {
        let mut out = vec![0u32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = s.to_bits();
            }
        }
        out
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn packing_round_trips_and_pads_with_zeros() {
        let (k, n) = (5, 21);
        let b = fill(3, k * n);
        let panels = Panels::from_fn(k, n, |p, c| b[p * n + c]);
        assert_eq!(panels.to_row_major(), b);
        assert_eq!((panels.k(), panels.n(), panels.data.len()), (5, 21, 2 * 5));
        assert!(panels.data[k..]
            .iter()
            .all(|l| l.0[n % STRIPE..] == [0.0; 11]));
        // Row-major order of the calls.
        let mut calls = Vec::new();
        Panels::from_fn(2, 3, |p, c| {
            calls.push((p, c));
            0.0
        });
        assert_eq!(calls, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn every_instance_equals_the_triple_loop_bitwise() {
        // Column counts on and off a stripe and a stripe group, k = 1,
        // every row count to 40 (each tile height and remainder).
        for &(k, n) in &[
            (1usize, 5usize),
            (1, 64),
            (7, 16),
            (33, 17),
            (64, 100),
            (9, 200),
        ] {
            let b = fill(k as u64 * 31 + n as u64, k * n);
            let panels = Panels::from_fn(k, n, |p, c| b[p * n + c]);
            for m in 1..=40 {
                let a = fill(m as u64, m * k);
                let want = triple_loop(&a, &b, m, k, n);
                for isa in Isa::ALL {
                    if !isa.is_available() {
                        eprintln!("skipping {}: this CPU lacks it", isa.name());
                        continue;
                    }
                    let mut out = vec![f32::NAN; m * n];
                    gemm(isa, &a, &panels, &mut out);
                    assert_eq!(bits(&out), want, "{} {m}x{k}x{n}", isa.name());
                }
            }
        }
    }

    #[test]
    fn serving_and_shard_shapes_equal_the_triple_loop_bitwise() {
        // Every projection and the LM head of the serving models (hidden 64,
        // vocab 260; hidden 256, vocab 2048), and the tiny model's
        // tensor-parallel shards at two and four workers; decode and prefill
        // row counts.
        let mut shapes = Vec::new();
        for (h, vocab) in [(64usize, 260usize), (256, 2048)] {
            shapes.extend([(h, 3 * h), (h, h), (h, 4 * h), (4 * h, h), (h, vocab)]);
        }
        for hl in [16usize, 8] {
            shapes.extend([(32, 3 * hl), (hl, 32), (32, 4 * hl), (4 * hl, 32)]);
        }
        for (k, n) in shapes {
            let b = fill(k as u64 + 7 * n as u64, k * n);
            let panels = Panels::from_fn(k, n, |p, c| b[p * n + c]);
            for m in [1usize, 2, 8, 33] {
                let a = fill(m as u64 + 3, m * k);
                let want = triple_loop(&a, &b, m, k, n);
                for isa in Isa::ALL.into_iter().filter(|isa| isa.is_available()) {
                    let mut out = vec![f32::NAN; m * n];
                    gemm(isa, &a, &panels, &mut out);
                    assert_eq!(bits(&out), want, "{} {m}x{k}x{n}", isa.name());
                }
            }
        }
    }

    #[test]
    fn stripe_ranges_reassemble_the_one_row_product() {
        let (k, n) = (40usize, 150usize);
        let b = fill(8, k * n);
        let panels = Panels::from_fn(k, n, |p, c| b[p * n + c]);
        let a = fill(9, k);
        let want = triple_loop(&a, &b, 1, k, n);
        for per in [1usize, 2, 3, 9, 10] {
            let mut out = vec![f32::NAN; n];
            for (t, chunk) in out.chunks_mut(per * STRIPE).enumerate() {
                gemm_stripes(Isa::best(), &a, &panels, t * per, chunk);
            }
            assert_eq!(bits(&out), want, "{per} stripes a task");
        }
    }
}
