//! The quantized-KV backend: scalar matmul kernels with int8 KV block
//! storage.
//!
//! K/V vectors are quantized on write with one f32 scale per stored vector
//! (`scale = max|x| / 127`, so the reconstruction error per element is at
//! most `scale / 2`), shrinking [`KvLayout::bytes_per_block`] by ~4× at
//! typical widths — which the block manager converts into proportionally
//! more blocks per memory budget, and the scheduler into a larger
//! concurrent batch (the paper's Fig. 12 capacity argument).
//!
//! The matmul family and the attention kernel are the scalar backend's —
//! the kernel reads int8 tiles by folding each slot's scale into its score
//! and its weight — so logits differ from
//! scalar only through the quantized KV, keeping greedy decode token-stable
//! on ordinary prompts.

use super::{BackendKind, KernelBackend, KvElement, KvLayout};
use crate::ops;

/// Scalar matmul kernels over int8-with-per-slot-scale KV storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantKv8Backend;

impl KernelBackend for QuantKv8Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::QuantKv8
    }

    fn kv_layout(&self) -> KvLayout {
        KvLayout {
            element: KvElement::Int8Scaled,
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
