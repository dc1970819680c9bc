//! The model's kernel backends.
//!
//! A [`KernelBackend`] is a value, `(Isa, KvElement)`: the instruction set
//! every kernel runs under — the GEMM ([`crate::gemm`]), PagedAttention
//! ([`crate::attention`]) and the GELU, each one body
//! instantiated per [`Isa`] — and the element type of the KV block storage
//! its attention reads ([`KvLayout`]). The executor sizes the KV cache from
//! the element's byte width, so a backend that stores KV in fewer bytes per
//! token yields more blocks from the same memory budget (the paper's
//! Fig. 12 capacity argument).
//!
//! Two named backends ship ([`BackendKind`], selected by
//! `VLLM_KERNEL_BACKEND` through [`vllm_core::Env`]):
//!
//! | backend            | instruction set | KV layout        |
//! |--------------------|-----------------|------------------|
//! | `simd` (default)   | best detected   | f32              |
//! | `quant-kv8`        | best detected   | int8 + f32 scale |
//!
//! Every instance of every kernel does the same operations in the same
//! order, so the instruction set never shows in a result: the portable
//! instance — run on CPUs without AVX2, and the reference the tests and
//! benches compare the others against — computes the same bits as the best
//! one, and `quant-kv8` differs from `simd` only through its quantized KV.
//! Within a backend a batched row is bit-identical to the same row computed
//! solo (the k-only accumulation order of the GEMM, the per-row attention
//! contract).

use crate::attention::{self, SeqRows};
use crate::gemm::{self, Panels, PARALLEL_MATMUL_THRESHOLD, STRIPE};
use crate::isa::Isa;
use crate::kv_cache::{token_bytes, KvPool};
use crate::ops::timing::{self, OpClock};
use crate::pool::{self, WorkerPool};

pub use vllm_core::env::BackendKind;

/// Element type of one KV scalar in block storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvElement {
    /// Plain `f32`, 4 bytes per element.
    F32,
    /// `i8` with one `f32` scale per stored vector (per token slot, K and V
    /// scaled independently): `q = round(x * 127 / max|x|)`, dequantized as
    /// `q * scale` with `scale = max|x| / 127`.
    Int8Scaled,
}

/// KV block storage layout: element type plus the byte math the block
/// manager uses to turn a memory budget into a block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvLayout {
    /// Element type of stored K/V scalars.
    pub element: KvElement,
}

impl KvLayout {
    /// Bytes one token occupies in one layer (its K vector plus its V
    /// vector, including any per-vector scale).
    #[must_use]
    pub const fn bytes_per_token(&self, hidden: usize) -> usize {
        match self.element {
            KvElement::F32 => token_bytes::<f32>(hidden),
            KvElement::Int8Scaled => token_bytes::<i8>(hidden),
        }
    }

    /// Bytes one physical block occupies across all layers.
    #[must_use]
    pub const fn bytes_per_block(
        &self,
        n_layers: usize,
        block_size: usize,
        hidden: usize,
    ) -> usize {
        n_layers * block_size * self.bytes_per_token(hidden)
    }
}

/// A kernel backend: the instruction set every kernel runs under and the KV
/// element its attention reads. The two [`BackendKind`]s are the only
/// public ones ([`by_kind`]), and only name instruction sets this CPU has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelBackend {
    isa: Isa,
    element: KvElement,
}

impl KernelBackend {
    /// The instruction set every kernel of this backend runs under.
    #[must_use]
    pub fn isa(self) -> Isa {
        self.isa
    }

    /// The KV block storage layout this backend's attention kernel reads.
    /// Executors must allocate pools with this layout.
    #[must_use]
    pub fn kv_layout(self) -> KvLayout {
        KvLayout {
            element: self.element,
        }
    }

    /// This backend's KV element under another instruction set: the
    /// portable instance the tests compare the served one against.
    #[cfg(test)]
    pub(crate) fn with_isa(self, isa: Isa) -> Self {
        Self { isa, ..self }
    }

    /// `out[m×n] = a[m×k] · b`, split across the global worker pool for
    /// large shapes and recorded into the dense-matmul kernel counters.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not whole rows of `b.k()` or `out` does not hold
    /// `m × b.n()`.
    pub fn matmul(self, a: &[f32], b: &Panels, out: &mut [f32]) {
        timing::alone(|clock| self.matmul_clocked(a, b, out, clock));
    }

    /// [`Self::matmul`] timed from `clock`'s last mark: the forward pass's
    /// one clock read per kernel boundary.
    pub(crate) fn matmul_clocked(
        self,
        a: &[f32],
        b: &Panels,
        out: &mut [f32],
        clock: &mut OpClock,
    ) {
        self.pooled(a, b, pool::global(), out);
        clock.matmul();
    }

    /// [`Self::matmul`] recorded into the logits kernel counters: the LM
    /// head goes through here so telemetry separates it from layer matmuls.
    ///
    /// # Panics
    ///
    /// As [`Self::matmul`].
    pub fn matmul_logits(self, a: &[f32], b: &Panels, out: &mut [f32]) {
        timing::alone(|clock| self.matmul_logits_clocked(a, b, out, clock));
    }

    /// [`Self::matmul_logits`] timed from `clock`'s last mark.
    pub(crate) fn matmul_logits_clocked(
        self,
        a: &[f32],
        b: &Panels,
        out: &mut [f32],
        clock: &mut OpClock,
    ) {
        self.pooled(a, b, pool::global(), out);
        clock.logits();
    }

    /// Serial below [`PARALLEL_MATMUL_THRESHOLD`] multiply-adds or on one
    /// thread; otherwise a one-row product by stripe ranges and a larger one
    /// by rows. The split cannot change a bit (see [`crate::gemm`]).
    fn pooled(self, a: &[f32], b: &Panels, workers: &WorkerPool, out: &mut [f32]) {
        let threads = workers.parallelism();
        let (k, n) = (b.k(), b.n());
        let m = a.len() / k;
        if m * k * n < PARALLEL_MATMUL_THRESHOLD || threads < 2 {
            gemm::gemm(self.isa, a, b, out);
        } else if m == 1 {
            let per_task = n.div_ceil(STRIPE).div_ceil(threads);
            workers.scoped(|s| {
                for (t, out) in out.chunks_mut(per_task * STRIPE).enumerate() {
                    s.spawn(move || gemm::gemm_stripes(self.isa, a, b, t * per_task, out));
                }
            });
        } else {
            let rows = m.div_ceil(threads.min(m));
            workers.scoped(|s| {
                for (a, out) in a.chunks(rows * k).zip(out.chunks_mut(rows * n)) {
                    s.spawn(move || gemm::gemm(self.isa, a, b, out));
                }
            });
        }
    }

    /// PagedAttention (§4.1) over any mix of decode rows and prefill rows
    /// — the one attention entry point (see [`crate::attention`] for the
    /// kernel and its determinism contract). `q` and `out` are
    /// `total_rows × hidden`, rows laid out sequence after sequence in the
    /// order of `seqs`; K/V are read in place through each block table from
    /// a pool allocated with this backend's [`Self::kv_layout`]. Rows are
    /// split across `workers`; the call is recorded into the attention
    /// kernel counters.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a block table is too short for its
    /// rows.
    #[allow(clippy::too_many_arguments)]
    pub fn paged_attention(
        self,
        q: &[f32],
        pool: &KvPool,
        layer: usize,
        seqs: &[SeqRows<'_>],
        n_heads: usize,
        head_dim: usize,
        workers: &WorkerPool,
        out: &mut [f32],
    ) {
        attention::paged_attention(
            self.isa, q, pool, layer, seqs, n_heads, head_dim, workers, out,
        );
    }

    /// [`Self::paged_attention`] timed from `clock`'s last mark.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn paged_attention_clocked(
        self,
        q: &[f32],
        pool: &KvPool,
        layer: usize,
        seqs: &[SeqRows<'_>],
        n_heads: usize,
        head_dim: usize,
        workers: &WorkerPool,
        out: &mut [f32],
        clock: &mut OpClock,
    ) {
        attention::attend_all(
            self.isa, q, pool, layer, seqs, n_heads, head_dim, workers, out,
        );
        clock.attention();
    }
}

/// The backend `kind` names on this CPU.
#[must_use]
pub fn by_kind(kind: BackendKind) -> KernelBackend {
    let element = match kind {
        BackendKind::Simd => KvElement::F32,
        BackendKind::QuantKv8 => KvElement::Int8Scaled,
    };
    KernelBackend {
        isa: Isa::best(),
        element,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn panels(seed: u64, k: usize, n: usize) -> Panels {
        let b = fill(seed, k * n);
        Panels::from_fn(k, n, |p, c| b[p * n + c])
    }

    #[test]
    fn both_kinds_run_the_best_instruction_set() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(by_kind(kind).isa(), Isa::best(), "{}", kind.name());
        }
        assert_eq!(BackendKind::from_name("scalar"), None);
        assert_eq!(BackendKind::from_name("avx-512"), None);
        assert_eq!(
            by_kind(BackendKind::Simd).kv_layout().element,
            KvElement::F32
        );
        assert_eq!(
            by_kind(BackendKind::QuantKv8).kv_layout().element,
            KvElement::Int8Scaled
        );
    }

    #[test]
    fn kv_layout_byte_math() {
        let f32_layout = KvLayout {
            element: KvElement::F32,
        };
        let q8_layout = KvLayout {
            element: KvElement::Int8Scaled,
        };
        // hidden=256: f32 K+V = 2048 B/token; int8 = 2*(256+4) = 520 B.
        assert_eq!(f32_layout.bytes_per_token(256), 2048);
        assert_eq!(q8_layout.bytes_per_token(256), 520);
        assert_eq!(f32_layout.bytes_per_block(2, 16, 256), 2 * 16 * 2048);
        assert_eq!(q8_layout.bytes_per_block(2, 16, 256), 2 * 16 * 520);
        // The quantized layout must be at most half the f32 layout's bytes
        // per block (the capacity gate relies on this).
        assert!(
            q8_layout.bytes_per_block(2, 16, 256) * 2 <= f32_layout.bytes_per_block(2, 16, 256)
        );
    }

    #[test]
    fn matmul_counters_split_by_entry_point() {
        let be = by_kind(BackendKind::Simd);
        let before = timing::snapshot();
        let (m, k, n) = (2usize, 16usize, 16usize);
        let a = fill(61, m * k);
        let b = panels(62, k, n);
        let mut via_logits = vec![0.0; m * n];
        be.matmul_logits(&a, &b, &mut via_logits);
        let mut via_matmul = vec![0.0; m * n];
        be.matmul(&a, &b, &mut via_matmul);
        let delta = timing::snapshot().delta_since(&before);
        assert!(delta.matmul_calls >= 1, "matmul counter must advance");
        assert!(delta.logits_calls >= 1, "logits counter must advance");
        assert_eq!(via_logits, via_matmul);
    }

    #[test]
    fn pool_splits_match_the_serial_product_for_every_backend() {
        // Below the parallel threshold, above it by rows (uneven chunks),
        // and the one wide row the LM head is, by stripe ranges (one that
        // does not end on a stripe), on pools of one, two and three workers.
        let pools = [1, 2, 3].map(WorkerPool::new);
        for kind in BackendKind::all() {
            let be = by_kind(kind);
            for &(m, k, n) in &[
                (3usize, 5usize, 7usize),
                (97, 160, 140),
                (1, 128, 32768),
                (1, 256, 8195),
            ] {
                let a = fill(kind.name().len() as u64, m * k);
                let b = panels(kind.name().len() as u64 + 1, k, n);
                let mut serial = vec![0.0; m * n];
                gemm::gemm(Isa::Portable, &a, &b, &mut serial);
                for workers in &pools {
                    let mut pooled = vec![f32::NAN; m * n];
                    be.pooled(&a, &b, workers, &mut pooled);
                    let threads = workers.parallelism();
                    assert_eq!(serial, pooled, "{} {m}x{k}x{n} {threads}", kind.name());
                }
            }
        }
    }
}
