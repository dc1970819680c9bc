//! The model-executor interface between the engine and a backend.
//!
//! The engine (scheduler + block manager) is backend-agnostic: the numeric
//! CPU transformer in `vllm-model` and the discrete-event cost model in
//! `vllm-sim` both implement [`ModelExecutor`]. This mirrors Fig. 4, where
//! the centralized scheduler sends per-iteration control messages (token
//! ids, positions, block tables, cache operations) to the GPU workers.

use crate::block::{Device, PhysicalBlockId};
use crate::block_manager::BlockCopy;
use crate::error::Result;
use crate::handoff::{KvBlockBytes, KvBlockInstall};
use crate::plan::StepPlan;
use crate::sampling::{DecodingMode, TokenId};
use crate::sequence::SeqId;

/// One sequence's slice of an iteration.
#[derive(Debug, Clone)]
pub struct SeqStepInput {
    /// Sequence identifier.
    pub seq_id: SeqId,
    /// Tokens to process this step: the whole prompt for a prefill, or the
    /// single newest token for a generation step.
    pub tokens: Vec<TokenId>,
    /// Position of `tokens[0]` within the sequence.
    pub first_position: usize,
    /// Number of leading tokens whose KV cache already exists (shared-prefix
    /// prefills skip recomputing these; 0 otherwise).
    pub num_cached_tokens: usize,
    /// Physical GPU block ids backing this sequence, in logical order.
    pub block_table: Vec<PhysicalBlockId>,
    /// Number of `(token, logprob)` candidates to return: 1 for greedy /
    /// single sampling, `n` for the prompt step of parallel sampling, `2k`
    /// for beam search, 0 for KV-only runs (prefix warm-up).
    pub num_candidates: usize,
    /// Decoding mode governing candidate selection.
    pub mode: DecodingMode,
    /// Seed for this sequence's sampling stream.
    pub seed: u64,
    /// The sequence's index among its request's parallel samples
    /// ([`crate::sequence::Sequence::sample_index`]); executors mix it, not
    /// the engine-global `seq_id`, into the stream.
    pub sample_index: u64,
    /// Whether this item is a scheduler-budgeted prefill chunk. Chunked
    /// items must run the prefill attention path even when only one new row
    /// remains, so chunked logits stay bit-identical to an unchunked
    /// prefill (which computes every row with the same kernel).
    pub chunked: bool,
}

impl SeqStepInput {
    /// Context length after this step completes.
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.first_position + self.tokens.len()
    }

    /// Rows this step computes: all of `tokens` past the cached ones, and at
    /// least one (a fully cached prompt still needs its last row's logits).
    #[must_use]
    pub fn num_new_tokens(&self) -> usize {
        let cached = self
            .num_cached_tokens
            .min(self.tokens.len().saturating_sub(1));
        self.tokens.len() - cached
    }

    /// Whether this item is a prompt (multi-token) run.
    #[must_use]
    pub fn is_prompt(&self) -> bool {
        self.first_position == 0
    }
}

/// One defragmentation migration: the contents of block `src` move to block
/// `dst` within the same device's pool, after which `src` is free. Recorded
/// by the block manager's compactor and replayed by executors in journal
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMove {
    /// Pool the migration happens in.
    pub device: Device,
    /// Source physical block id (live before the move, free after).
    pub src: PhysicalBlockId,
    /// Destination physical block id (free before the move, live after).
    pub dst: PhysicalBlockId,
}

/// Cache-management operations the executor must apply before computing the
/// step (§4.3: the scheduler piggybacks memory-management instructions on the
/// step's control message).
///
/// Ordering contract (what `KvCache::apply` and the sim cost model follow):
///
/// 1. pool **growth** to a larger `gpu_capacity`/`cpu_capacity`, so later
///    operations may reference newly minted block ids;
/// 2. **moves**, in journal order — the compactor only targets blocks that
///    were free when the move was recorded, and the allocator cannot re-issue
///    a destination, so replay is conflict-free;
/// 3. pool **shrinkage** to a smaller capacity (every id above the new bound
///    has been vacated by step 2);
/// 4. `swap_out`, then `swap_in`, then `copies`, as before;
/// 5. **installs** last — KV-handoff payloads written into freshly
///    allocated blocks, which no earlier operation in the step can
///    reference.
#[derive(Debug, Clone, Default)]
pub struct CacheOps {
    /// CPU→GPU block transfers (swap in).
    pub swap_in: Vec<BlockCopy>,
    /// GPU→CPU block transfers (swap out).
    pub swap_out: Vec<BlockCopy>,
    /// GPU→GPU block copies (copy-on-write), batched into one kernel in the
    /// paper (§5.1 "fused block copy").
    pub copies: Vec<BlockCopy>,
    /// Defragmentation migrations (elastic pool compaction), in journal
    /// order.
    pub moves: Vec<BlockMove>,
    /// New GPU pool size in blocks, when the pool was resized this step.
    pub gpu_capacity: Option<usize>,
    /// New CPU pool size in blocks, when the pool was resized this step.
    pub cpu_capacity: Option<usize>,
    /// KV-handoff installations: serialized block contents (shipped from a
    /// prefill replica or the shared prefix tier) written into blocks the
    /// manager allocated for them, applied after all other operations.
    pub installs: Vec<KvBlockInstall>,
}

impl CacheOps {
    /// Whether no operation is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.swap_in.is_empty()
            && self.swap_out.is_empty()
            && self.copies.is_empty()
            && self.moves.is_empty()
            && self.gpu_capacity.is_none()
            && self.cpu_capacity.is_none()
            && self.installs.is_empty()
    }
}

/// One sequence's output for the step.
#[derive(Debug, Clone)]
pub struct SeqStepOutput {
    /// Sequence identifier.
    pub seq_id: SeqId,
    /// Candidate `(token, logprob)` pairs, most preferred first; length
    /// equals the requested `num_candidates`.
    pub candidates: Vec<(TokenId, f32)>,
}

/// One kernel dispatch executed during a step, reported by the backend so
/// the engine can lay kernel spans under the request's trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name (e.g. `matmul`, `paged_attention`, `forward`).
    pub name: String,
    /// Time spent in the kernel this step, in seconds.
    pub seconds: f64,
}

/// The result of executing one iteration.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    /// Per-sequence outputs, in the same order as the batch items.
    pub outputs: Vec<SeqStepOutput>,
    /// Time the iteration took, in seconds: wall-clock for the numeric
    /// backend, modeled time for the simulator.
    pub elapsed: f64,
    /// Per-kernel dispatch timings for this step, in dispatch order. May be
    /// empty for backends that don't break the step down.
    pub kernels: Vec<KernelTiming>,
}

/// A backend that executes planned iterations.
///
/// The contract is batch-oriented: the executor receives the step's whole
/// [`StepPlan`] — materialized per-sequence inputs plus the batched cache
/// operations — applies the cache operations (swap in/out, block copies)
/// before any KV access, runs one model iteration over `plan.items`, and
/// returns one [`SeqStepOutput`] per item in order. A plan with no items but
/// non-empty cache operations (e.g. a step that only swaps a preempted group
/// out) must still apply those operations and return an empty output list.
pub trait ModelExecutor {
    /// Applies the plan's cache operations and runs one model iteration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::VllmError::Executor`] on backend failure.
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult>;

    /// Hands the executor the engine's telemetry bundle so it can register
    /// backend-specific instruments (forward-pass timings, all-reduce
    /// timings, ...). Called once when the engine is constructed; the
    /// default implementation registers nothing.
    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<vllm_telemetry::Telemetry>) {
        let _ = telemetry;
    }

    /// Short stable label of the serving backend, used to tag kernel spans
    /// and metrics (`backend="..."`). Defaults to `"mock"`.
    fn backend_label(&self) -> &str {
        "mock"
    }

    /// Serializes the contents of the given GPU blocks for a KV handoff,
    /// one [`KvBlockBytes`] per block in order. Backends without
    /// addressable KV storage (scripted mock, discrete-event simulator)
    /// return empty-bodied blocks from the default implementation: the
    /// handoff bookkeeping still runs end to end, installation is a no-op.
    fn export_kv_blocks(&self, blocks: &[PhysicalBlockId]) -> Vec<KvBlockBytes> {
        blocks.iter().map(|_| KvBlockBytes::empty()).collect()
    }
}
