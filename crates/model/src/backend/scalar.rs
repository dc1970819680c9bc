//! The scalar backend: the PR 4 cache-blocked f32 kernels, bit-for-bit.
//!
//! This is the baseline every other backend is compared against, and the
//! backend whose logits must stay bit-identical to the pre-refactor
//! kernels (the `logits_match` gate in `BENCH_kernels.json`).

use super::{BackendKind, KernelBackend, KvElement, KvLayout};
use crate::ops;

/// Cache-blocked scalar f32 kernels with f32 KV storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn kv_layout(&self) -> KvLayout {
        KvLayout {
            element: KvElement::F32,
        }
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_matmul_timed(ops::matmul, ops::matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_serial(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        ops::matmul(a, b, m, k, n, out);
    }

    fn matmul_logits(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_logits_timed(ops::matmul, ops::matmul_one_row_cols, a, b, m, k, n, out);
    }

    fn matmul_transb(&self, a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::dispatch_transb_timed(a, bt, m, k, n, out);
    }
}
