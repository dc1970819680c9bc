//! The SIMD backend: explicit 8-lane f32 vector kernels over the portable
//! `wide` shim.
//!
//! The matmul is register-tiled: a `4 × 16` output tile (four rows, two
//! `f32x8` lanes each) is held in eight accumulator vectors across the
//! *entire* sequential `k` loop, so each output element sees exactly one
//! accumulator updated in ascending-`k` order — the k-only
//! accumulation-order contract — and the per-4-k output load/store traffic
//! of the scalar panel kernel disappears. Tails (rows mod 4, columns
//! mod 16) use single-accumulator sequential-`k` loops with the same
//! per-element order, so tiling and pool striping never change results.
//!
//! For attention the backend runs the AVX2 instantiation of the shared
//! PagedAttention kernel ([`crate::attention`]).

use wide::f32x8;

use super::{BackendKind, KernelBackend, KvElement, KvLayout};

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (two `f32x8` lanes).
const NR: usize = 16;

/// Serial register-tiled matmul: `out[m×n] = a[m×k] @ b[k×n]`.
///
/// On x86-64 with AVX2 the tile kernel is re-instantiated under
/// `#[target_feature(enable = "avx2")]` so the 8-lane shim ops lower to
/// single 256-bit instructions instead of baseline SSE pairs. The
/// arithmetic is lane-wise identical either way — same operations, same
/// per-element order, no FMA contraction — so results are bit-equal
/// across the two instantiations.
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { matmul_avx2(a, b, m, k, n, out) };
        return;
    }
    matmul_impl(a, b, m, k, n, out);
}

/// AVX2 instantiation of [`matmul_impl`]; lane-wise identical arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_impl(a, b, m, k, n, out);
}

#[inline(always)]
fn matmul_impl(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let n_main = n - n % NR;
    let m_main = m - m % MR;
    let mut jj = 0;
    while jj < n_main {
        let mut ii = 0;
        while ii < m_main {
            // 4×16 output tile held in eight accumulator registers across
            // the whole k loop.
            let mut acc = [[f32x8::ZERO; 2]; MR];
            for p in 0..k {
                let b_row = &b[p * n + jj..p * n + jj + NR];
                let b0 = f32x8::from_slice(&b_row[..8]);
                let b1 = f32x8::from_slice(&b_row[8..]);
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a_rp = f32x8::splat(a[(ii + r) * k + p]);
                    acc_r[0] = a_rp.mul_add(b0, acc_r[0]);
                    acc_r[1] = a_rp.mul_add(b1, acc_r[1]);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                let o = (ii + r) * n + jj;
                acc_r[0].write_to_slice(&mut out[o..o + 8]);
                acc_r[1].write_to_slice(&mut out[o + 8..o + NR]);
            }
            ii += MR;
        }
        // Leftover rows: one row at a time, same two lanes, same k order.
        for i in m_main..m {
            let mut acc0 = f32x8::ZERO;
            let mut acc1 = f32x8::ZERO;
            for p in 0..k {
                let a_ip = f32x8::splat(a[i * k + p]);
                let b_row = &b[p * n + jj..p * n + jj + NR];
                acc0 = a_ip.mul_add(f32x8::from_slice(&b_row[..8]), acc0);
                acc1 = a_ip.mul_add(f32x8::from_slice(&b_row[8..]), acc1);
            }
            let o = i * n + jj;
            acc0.write_to_slice(&mut out[o..o + 8]);
            acc1.write_to_slice(&mut out[o + 8..o + NR]);
        }
        jj += NR;
    }
    // Leftover columns: scalar single-accumulator sequential-k loops.
    if n_main < n {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in n_main..n {
                let mut s = 0.0f32;
                for (p, &a_ip) in a_row.iter().enumerate() {
                    s += a_ip * b[p * n + j];
                }
                out[i * n + j] = s;
            }
        }
    }
}

/// One output-column window of a single-row product (the column-stripe
/// kernel for the pooled m=1 path): `out` receives columns
/// `j0 .. j0 + out.len()` of `a[1×k] @ b[k×n]`. Per-element accumulation
/// order is identical to [`matmul`]'s, so stripes reassemble bit-exactly.
pub(crate) fn matmul_one_row_cols(
    a: &[f32],
    b: &[f32],
    _k: usize,
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { one_row_cols_avx2(a, b, n, j0, out) };
        return;
    }
    one_row_cols_impl(a, b, n, j0, out);
}

/// AVX2 instantiation of [`one_row_cols_impl`]; lane-wise identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn one_row_cols_avx2(a: &[f32], b: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    one_row_cols_impl(a, b, n, j0, out);
}

#[inline(always)]
fn one_row_cols_impl(a: &[f32], b: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    let width = out.len();
    let w_main = width - width % 8;
    let mut jj = 0;
    while jj < w_main {
        let mut acc = f32x8::ZERO;
        for (p, &a_p) in a.iter().enumerate() {
            acc = f32x8::splat(a_p).mul_add(f32x8::from_slice(&b[p * n + j0 + jj..]), acc);
        }
        acc.write_to_slice(&mut out[jj..jj + 8]);
        jj += 8;
    }
    for j in w_main..width {
        let mut s = 0.0f32;
        for (p, &a_p) in a.iter().enumerate() {
            s += a_p * b[p * n + j0 + j];
        }
        out[j] = s;
    }
}

/// Explicit 8-lane f32 vector kernels with f32 KV storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn kv_layout(&self) -> KvLayout {
        KvLayout {
            element: KvElement::F32,
        }
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_matmul_timed(matmul, matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_serial(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        matmul(a, b, m, k, n, out);
    }

    fn matmul_logits(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_logits_timed(matmul, matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_transb(&self, a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_transb_timed(a, bt, m, k, n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::SeqRows;
    use crate::backend::ScalarBackend;
    use crate::kv_cache::KvPool;
    use crate::ops;
    use crate::pool::WorkerPool;

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
    fn simd_matmul_matches_reference_across_shapes() {
        // Shapes straddling the 4×16 tile boundaries, including tails.
        for &(m, k, n) in &[
            (1usize, 7usize, 5usize),
            (4, 32, 16),
            (5, 33, 17),
            (3, 130, 9),
            (7, 129, 257),
            (16, 64, 48),
        ] {
            let a = fill(m as u64 + 1, m * k);
            let b = fill(n as u64 + 2, k * n);
            let mut reference = vec![0.0; m * n];
            let mut got = vec![0.0; m * n];
            ops::matmul_reference(&a, &b, m, k, n, &mut reference);
            matmul(&a, &b, m, k, n, &mut got);
            for (i, (x, y)) in reference.iter().zip(&got).enumerate() {
                assert!((x - y).abs() <= 1e-4, "{m}x{k}x{n} idx {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn simd_rows_independent_of_batching() {
        // Row i of an m-row product must be bit-identical to the m=1
        // product of that row (the k-only accumulation-order contract).
        let (m, k, n) = (13usize, 96usize, 50usize);
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
    fn simd_column_stripes_bit_identical_to_full_product() {
        let (k, n) = (65usize, 700usize);
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
    fn vector_tile_primitives_match_the_plain_loops_bit_for_bit() {
        // The simd backend's attention is the scalar backend's, instantiated
        // under AVX2. Shapes with and without a fixed instance: block sizes
        // that are and are not whole vectors, head widths that are and are
        // not, partial last tiles.
        let workers = WorkerPool::new(1);
        for &(n_heads, hd, bs, ctx) in &[
            (8usize, 8usize, 16usize, 45usize),
            (9, 8, 16, 33),
            (8, 32, 16, 64),
            (3, 64, 32, 70),
            (4, 12, 16, 21),
            (2, 8, 4, 11),
            (10, 16, 8, 25),
        ] {
            let hidden = n_heads * hd;
            let mut pool = KvPool::new(1, ctx.div_ceil(bs), bs, hidden);
            let k = fill(7, ctx * hidden);
            let v = fill(8, ctx * hidden);
            let table: Vec<usize> = (0..ctx.div_ceil(bs)).rev().collect();
            for t in 0..ctx {
                let (block, slot) = (table[t / bs], t % bs);
                pool.write(
                    0,
                    block,
                    slot,
                    &k[t * hidden..(t + 1) * hidden],
                    &v[t * hidden..(t + 1) * hidden],
                );
            }
            let q = fill(9, ctx * hidden);
            let rows = [SeqRows {
                block_table: &table,
                first_position: 0,
                n_rows: ctx,
            }];
            let mut plain = vec![0.0; ctx * hidden];
            ScalarBackend.paged_attention(&q, &pool, 0, &rows, n_heads, hd, &workers, &mut plain);
            let mut simd = vec![0.0; ctx * hidden];
            SimdBackend.paged_attention(&q, &pool, 0, &rows, n_heads, hd, &workers, &mut simd);
            assert_eq!(plain, simd, "heads={n_heads} hd={hd} bs={bs} ctx={ctx}");
        }
    }
}
