//! Pluggable numeric backends for the model's kernels.
//!
//! A [`KernelBackend`] owns every dense-kernel entry point the transformer
//! uses — matmul (pool-dispatched and serial), the LM-head/logits
//! projections, and PagedAttention — plus the KV block storage layout
//! ([`KvLayout`]) its attention reads. Attention is one kernel shared by
//! all backends ([`crate::attention`]); a backend contributes only the
//! element type of its tiles and the instruction set the kernel body is
//! instantiated for. The executor sizes the KV cache from the backend's
//! byte-width, so a backend that stores KV in fewer bytes per token yields
//! more blocks from the same memory budget (the paper's Fig. 12 capacity
//! argument).
//!
//! Three backends ship:
//!
//! | backend     | matmul                        | attention kernel | KV layout        |
//! |-------------|-------------------------------|------------------|------------------|
//! | `scalar`    | cache-blocked, 4-deep unroll  | portable         | f32              |
//! | `simd`      | f32x8 register-tiled lanes    | AVX2             | f32              |
//! | `quant-kv8` | scalar matmul                 | portable         | int8 + f32 scale |
//!
//! Every backend upholds the *k-only accumulation-order contract*: per
//! output element, the floating-point accumulation order is a function of
//! the reduction index alone, never of the batch size, output position, or
//! pool split. That makes a batched result row bit-identical to the same
//! row computed solo *within* a backend (results may differ *across*
//! backends, which order their reductions differently).
//!
//! The active backend is picked at config time: [`BackendKind::from_env`]
//! reads [`BACKEND_ENV`] (`VLLM_KERNEL_BACKEND=scalar|simd|quant-kv8`) and
//! [`crate::ModelConfig`] carries the choice to executors and caches.

mod quant;
mod scalar;
mod simd;

pub use quant::QuantKv8Backend;
pub use scalar::ScalarBackend;
pub use simd::SimdBackend;

use crate::attention::{self, Isa, SeqRows};
use crate::kv_cache::KvPool;
use crate::ops::{self, timing};
use crate::pool::{self, WorkerPool};

/// Environment variable selecting the kernel backend
/// (`scalar` | `simd` | `quant-kv8`; default `scalar`).
pub const BACKEND_ENV: &str = "VLLM_KERNEL_BACKEND";

/// The available kernel backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Cache-blocked scalar f32 kernels (the PR 4 kernels, bit-for-bit).
    Scalar,
    /// Explicit 8-lane f32 vector kernels over the portable `wide` shim.
    Simd,
    /// Scalar matmul with int8-quantized KV block storage (per-slot scale).
    QuantKv8,
}

impl BackendKind {
    /// Stable name used in env selection, bench records, and metric labels.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
            Self::QuantKv8 => "quant-kv8",
        }
    }

    /// Parses a backend name (the inverse of [`Self::name`]).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "simd" => Some(Self::Simd),
            "quant-kv8" => Some(Self::QuantKv8),
            _ => None,
        }
    }

    /// Reads [`BACKEND_ENV`], defaulting to [`Self::Scalar`] when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typo'd backend silently falling
    /// back to scalar would invalidate capacity and perf comparisons.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV) {
            Ok(s) if s.is_empty() => Self::Scalar,
            Ok(s) => Self::from_name(&s).unwrap_or_else(|| {
                panic!("unknown {BACKEND_ENV} value `{s}` (expected scalar|simd|quant-kv8)")
            }),
            Err(_) => Self::Scalar,
        }
    }

    /// All backends, in a fixed order (scalar first — the baseline).
    #[must_use]
    pub const fn all() -> [Self; 3] {
        [Self::Scalar, Self::Simd, Self::QuantKv8]
    }
}

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
            KvElement::F32 => 2 * hidden * std::mem::size_of::<f32>(),
            // K and V vectors at 1 byte/element, plus one f32 scale each.
            KvElement::Int8Scaled => 2 * (hidden + std::mem::size_of::<f32>()),
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

/// A numeric backend: every dense kernel the transformer calls, plus the
/// KV storage layout its attention kernel reads.
///
/// Implementations are zero-sized and accessed as `&'static dyn` handles
/// through [`by_kind`] / [`selected`]; the trait is the single dispatch
/// seam that replaced the old `matmul_auto` threshold free functions.
pub trait KernelBackend: Send + Sync + std::fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Stable name for bench records and metric labels.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The KV block storage layout this backend's attention kernel reads.
    /// Executors must allocate pools with this layout.
    fn kv_layout(&self) -> KvLayout;

    /// `out[m×n] = a[m×k] @ b[k×n]`, dispatched across the worker pool for
    /// large shapes and recorded into the dense-matmul kernel counters.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the shapes.
    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

    /// Serial (single-task) matmul — the building block tensor-parallel
    /// worker shards run inside their own pool tasks, so it neither
    /// re-enters the pool nor records timing.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the shapes.
    fn matmul_serial(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

    /// [`Self::matmul`] recorded into the logits kernel counters instead:
    /// the LM-head projection over the pre-transposed tied embedding goes
    /// through here so telemetry separates logits time from layer matmuls.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the shapes.
    fn matmul_logits(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

    /// `out[m×n] = a[m×k] @ bt[n×k]ᵀ` (B given transposed), column-striped
    /// across the pool for large shapes; recorded into the logits counters.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the shapes.
    fn matmul_transb(&self, a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

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
    fn paged_attention(
        &self,
        q: &[f32],
        pool: &KvPool,
        layer: usize,
        seqs: &[SeqRows<'_>],
        n_heads: usize,
        head_dim: usize,
        workers: &WorkerPool,
        out: &mut [f32],
    ) {
        // The simd backend's attention is the AVX2 instantiation of the
        // kernel every backend runs.
        let isa = match self.kind() {
            BackendKind::Simd => Isa::Avx2,
            BackendKind::Scalar | BackendKind::QuantKv8 => Isa::Portable,
        };
        attention::paged_attention(isa, q, pool, layer, seqs, n_heads, head_dim, workers, out);
    }
}

static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend;
static QUANT: QuantKv8Backend = QuantKv8Backend;

/// The backend singleton for `kind`.
#[must_use]
pub fn by_kind(kind: BackendKind) -> &'static dyn KernelBackend {
    match kind {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd => &SIMD,
        BackendKind::QuantKv8 => &QUANT,
    }
}

/// The backend selected by [`BACKEND_ENV`] (re-read on each call so tests
/// and benches can vary the selection within one process).
#[must_use]
pub fn selected() -> &'static dyn KernelBackend {
    by_kind(BackendKind::from_env())
}

/// A serial matmul kernel: `(a, b, m, k, n, out)`.
pub(crate) type SerialMatmulFn = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

/// A single-row column-window kernel: `(a, b, k, n, j0, out)` computes
/// columns `j0 .. j0 + out.len()` of `a[1×k] @ b[k×n]`.
pub(crate) type OneRowColsFn = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

/// The shared pool-dispatch policy all backends use for `a @ b`: serial
/// below [`ops::PARALLEL_MATMUL_THRESHOLD`] multiply-adds, column stripes
/// for a single wide row (the solo LM-head shape), row chunks otherwise.
/// Backends plug in their own serial kernel and column-window kernel; the
/// split geometry never changes results because both kernels keep the
/// per-element accumulation order a function of `k` alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pooled_matmul(
    serial: SerialMatmulFn,
    one_row: OneRowColsFn,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let work = m * k * n;
    let workers = pool::global();
    let threads = workers.parallelism();
    if work < ops::PARALLEL_MATMUL_THRESHOLD || threads < 2 {
        serial(a, b, m, k, n, out);
        return;
    }
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "out shape mismatch");
    if m == 1 {
        // A single wide row: stripe the output columns across the pool.
        if n < 2 * threads {
            serial(a, b, m, k, n, out);
            return;
        }
        let cols = n.div_ceil(threads);
        workers.scoped(|s| {
            for (t, out_chunk) in out.chunks_mut(cols).enumerate() {
                s.spawn(move || one_row(a, b, k, n, t * cols, out_chunk));
            }
        });
        return;
    }
    let n_chunks = threads.min(m);
    let rows_per_chunk = m.div_ceil(n_chunks);
    workers.scoped(|s| {
        for (a_chunk, out_chunk) in a
            .chunks(rows_per_chunk * k)
            .zip(out.chunks_mut(rows_per_chunk * n))
        {
            s.spawn(move || {
                let rows = a_chunk.len() / k;
                serial(a_chunk, b, rows, k, n, out_chunk);
            });
        }
    });
}

/// [`pooled_matmul`] recorded into the dense-matmul kernel counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_matmul_timed(
    serial: SerialMatmulFn,
    one_row: OneRowColsFn,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let start = std::time::Instant::now();
    pooled_matmul(serial, one_row, a, b, m, k, n, out);
    timing::record_matmul(start.elapsed());
}

/// [`pooled_matmul`] recorded into the logits kernel counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_logits_timed(
    serial: SerialMatmulFn,
    one_row: OneRowColsFn,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let start = std::time::Instant::now();
    pooled_matmul(serial, one_row, a, b, m, k, n, out);
    timing::record_logits(start.elapsed());
}

/// Pool-striped `a @ btᵀ`, recorded into the logits kernel counters.
pub(crate) fn dispatch_transb_timed(
    a: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let start = std::time::Instant::now();
    ops::matmul_transb_pooled(a, bt, m, k, n, out);
    timing::record_logits(start.elapsed());
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

    #[test]
    fn kind_names_round_trip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(by_kind(kind).kind(), kind);
            assert_eq!(by_kind(kind).name(), kind.name());
        }
        assert_eq!(BackendKind::from_name("avx-512"), None);
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
        let be = by_kind(BackendKind::Scalar);
        let before = timing::snapshot();
        let (m, k, n) = (2usize, 16usize, 16usize);
        let a = fill(61, m * k);
        let b = fill(62, k * n);
        let mut via_logits = vec![0.0; m * n];
        be.matmul_logits(&a, &b, m, k, n, &mut via_logits);
        let mut via_matmul = vec![0.0; m * n];
        be.matmul(&a, &b, m, k, n, &mut via_matmul);
        be.matmul_transb(&a, &b, m, k, n, &mut via_matmul);
        let delta = timing::snapshot().delta_since(&before);
        assert!(delta.matmul_calls >= 1, "matmul counter must advance");
        assert!(delta.logits_calls >= 2, "logits counter must advance");
        assert_eq!(via_logits.len(), via_matmul.len());
    }

    #[test]
    fn pooled_dispatch_matches_serial_for_every_backend() {
        // Above the parallel threshold (256×128×128 = 4.2M mul-adds) and
        // below it, with uneven row splits, every backend's pooled matmul
        // must be bit-identical to its own serial kernel.
        for kind in BackendKind::all() {
            let be = by_kind(kind);
            for &(m, k, n) in &[(3usize, 5usize, 7usize), (256, 128, 128), (97, 160, 140)] {
                let a = fill(kind.name().len() as u64, m * k);
                let b = fill(kind.name().len() as u64 + 1, k * n);
                let mut serial = vec![0.0; m * n];
                let mut pooled = vec![0.0; m * n];
                be.matmul_serial(&a, &b, m, k, n, &mut serial);
                be.matmul(&a, &b, m, k, n, &mut pooled);
                assert_eq!(
                    serial,
                    pooled,
                    "{}: pooled split must be bit-identical at {m}x{k}x{n}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn one_wide_row_stripes_match_serial_for_every_backend() {
        // The solo LM-head shape (m=1, wide n) above the threshold takes
        // the column-stripe path; it must still be bit-identical.
        let (k, n) = (128usize, 32768usize);
        for kind in BackendKind::all() {
            let be = by_kind(kind);
            let a = fill(71, k);
            let b = fill(72, k * n);
            let mut serial = vec![0.0; n];
            let mut pooled = vec![0.0; n];
            be.matmul_serial(&a, &b, 1, k, n, &mut serial);
            be.matmul(&a, &b, 1, k, n, &mut pooled);
            assert_eq!(serial, pooled, "{}: column stripes diverged", kind.name());
        }
    }

    #[test]
    fn backends_agree_within_tolerance() {
        // Different backends may round differently but must agree closely.
        let (m, k, n) = (5usize, 130usize, 37usize);
        let a = fill(81, m * k);
        let b = fill(82, k * n);
        let mut reference = vec![0.0; m * n];
        ops::matmul_reference(&a, &b, m, k, n, &mut reference);
        for kind in BackendKind::all() {
            let mut got = vec![0.0; m * n];
            by_kind(kind).matmul_serial(&a, &b, m, k, n, &mut got);
            for (i, (x, y)) in reference.iter().zip(&got).enumerate() {
                assert!((x - y).abs() <= 1e-3, "{} idx {i}: {x} vs {y}", kind.name());
            }
        }
    }
}
