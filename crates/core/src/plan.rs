//! The first-class artifacts of the staged step pipeline.
//!
//! One engine iteration flows through four explicit stages:
//!
//! 1. **schedule** — [`crate::scheduler::Scheduler::schedule`] produces an
//!    immutable [`StepPlan`]: the scheduled groups, the batched cache
//!    operations drained from the block manager, the preemption events, and
//!    the token budget spent.
//! 2. **prepare** — [`materialize_batch`] commits the plan by filling in the
//!    per-sequence model inputs (token slices, positions, block tables,
//!    candidate counts) from the scheduler's live state.
//! 3. **execute** — a [`crate::executor::ModelExecutor`] consumes the plan
//!    via `begin_step(&StepPlan)` and returns a
//!    [`crate::executor::StepResult`].
//! 4. **postprocess** — `crate::postprocess` applies sampled tokens, forks,
//!    beam updates, and stop conditions, then reaps finished requests.
//!
//! Every stage reports into a [`StepTrace`], the structured per-step record
//! exposed through `LlmEngine::last_trace` and aggregated by
//! [`crate::metrics::TraceStats`].

use crate::error::{Result, VllmError};
use crate::executor::{CacheOps, SeqStepInput};
use crate::sampling::DecodingMode;
use crate::scheduler::{ScheduledGroup, Scheduler};

/// How a preempted group's state is recovered (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptionKind {
    /// Blocks moved to the CPU pool, restored by swap-in later.
    Swap,
    /// Blocks freed; the sequence re-enters the waiting queue and recomputes
    /// its KV cache as one prefill.
    Recompute,
}

/// One preemption performed while planning a step.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptionEvent {
    /// Request id of the preempted group.
    pub request_id: String,
    /// Recovery mechanism chosen for the group.
    pub kind: PreemptionKind,
    /// Blocks written to the CPU pool (0 for recomputation).
    pub blocks_swapped_out: usize,
}

/// Token/sequence budget of a planned step, against the scheduler limits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepBudget {
    /// Tokens this iteration processes.
    pub num_batched_tokens: usize,
    /// Configured cap on batched tokens per iteration.
    pub max_num_batched_tokens: usize,
    /// Configured cap on concurrently running sequences.
    pub max_num_seqs: usize,
}

/// The plan for one iteration, produced by the schedule stage and completed
/// by the prepare stage. Execute and postprocess treat it as read-only.
#[derive(Debug, Clone, Default)]
pub struct StepPlan {
    /// Groups participating in this iteration.
    pub scheduled: Vec<ScheduledGroup>,
    /// Whether this is a prompt (prefill) iteration.
    pub is_prompt_run: bool,
    /// Batched cache operations (swap in/out, copy-on-write) the executor
    /// must apply before computing the step, drained from the block manager.
    pub cache_ops: CacheOps,
    /// Groups preempted while planning this iteration.
    pub preemptions: Vec<PreemptionEvent>,
    /// Groups swapped back to GPU memory this iteration, as
    /// `(request_id, blocks_swapped_in)` pairs.
    pub swapped_in: Vec<(String, usize)>,
    /// Token budget spent vs. the configured limits.
    pub budget: StepBudget,
    /// Requests rejected this round (prompt can never fit).
    pub ignored: Vec<String>,
    /// Per-sequence model inputs, filled by the prepare stage.
    pub items: Vec<SeqStepInput>,
    /// KV block size in tokens.
    pub block_size: usize,
}

impl StepPlan {
    /// Whether the iteration has no work at all: nothing scheduled and no
    /// cache traffic (swaps, migrations, pool resizes) to carry out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.cache_ops.is_empty()
    }

    /// Number of groups preempted while planning this step.
    #[must_use]
    pub fn num_preempted(&self) -> usize {
        self.preemptions.len()
    }

    /// Total number of token rows the iteration computes (prepare stage
    /// must have run): an item's leading rows whose KV is already cached
    /// are carried for their positions, not processed.
    #[must_use]
    pub fn num_tokens(&self) -> usize {
        self.items.iter().map(SeqStepInput::num_new_tokens).sum()
    }
}

/// FNV-1a hash used to derive deterministic per-request sampling seeds.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The prepare stage: fills [`StepPlan::items`] with per-sequence model
/// inputs for every scheduled group, reading block tables and sampling
/// parameters from the scheduler's live state.
///
/// # Errors
///
/// Returns [`VllmError::UnknownRequest`] / [`VllmError::UnknownSequence`]
/// if the plan references state the scheduler no longer holds (a pipeline
/// bug, not a recoverable condition).
pub fn materialize_batch(scheduler: &Scheduler, plan: &mut StepPlan) -> Result<()> {
    let mut items = Vec::new();
    for sg in &plan.scheduled {
        let group = scheduler
            .group(&sg.request_id)
            .ok_or_else(|| VllmError::UnknownRequest(sg.request_id.clone()))?;
        let params = &group.sampling_params;
        let base_seed = params
            .seed
            .unwrap_or_else(|| fnv1a(group.request_id.as_bytes()));
        for &seq_id in &sg.seq_ids {
            let seq = group
                .get(seq_id)
                .ok_or(VllmError::UnknownSequence(seq_id))?;
            let block_table = scheduler.block_manager().gpu_block_ids(seq_id)?;
            if let Some(chunk) = sg.chunk {
                // Chunked prefill: the item carries the prompt up to the
                // chunk's end; rows before `chunk.start` are already cached,
                // and only a final chunk samples.
                debug_assert!(chunk.end <= seq.len());
                let num_candidates = if chunk.is_final {
                    match params.mode {
                        DecodingMode::Beam { width } => 2 * width,
                        _ => params.n,
                    }
                } else {
                    0
                };
                items.push(SeqStepInput {
                    seq_id,
                    tokens: seq.data.tokens()[..chunk.end].to_vec(),
                    first_position: 0,
                    num_cached_tokens: chunk.start,
                    block_table,
                    num_candidates,
                    mode: params.mode,
                    seed: base_seed,
                    sample_index: seq.sample_index,
                    chunked: true,
                });
                continue;
            }
            let (tokens, first_position) = if sg.is_prompt {
                (seq.data.tokens().to_vec(), 0)
            } else {
                let last = seq
                    .data
                    .last_token()
                    .ok_or(VllmError::UnknownSequence(seq_id))?;
                (vec![last], seq.len() - 1)
            };
            let num_candidates = if sg.is_prompt {
                match params.mode {
                    DecodingMode::Beam { width } => 2 * width,
                    _ => params.n,
                }
            } else {
                params.candidates_per_seq()
            };
            items.push(SeqStepInput {
                seq_id,
                tokens,
                first_position,
                num_cached_tokens: if sg.is_prompt {
                    sg.num_cached_tokens
                } else {
                    0
                },
                block_table,
                num_candidates,
                mode: params.mode,
                seed: base_seed,
                sample_index: seq.sample_index,
                chunked: false,
            });
        }
    }
    plan.items = items;
    Ok(())
}

/// Wall-clock duration of each pipeline stage, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Schedule stage (scheduler planning + cache-op batching).
    pub schedule: f64,
    /// Prepare stage (batch materialization).
    pub prepare: f64,
    /// Execute stage (model forward / cost model), host wall time.
    pub execute: f64,
    /// Postprocess stage (sampling bookkeeping, forks, stops, reaping).
    pub postprocess: f64,
}

impl StageTimings {
    /// Cumulative end time of each stage relative to the step start:
    /// monotone non-decreasing by construction.
    #[must_use]
    pub fn stage_ends(&self) -> [f64; 4] {
        let s = self.schedule;
        let p = s + self.prepare;
        let e = p + self.execute;
        [s, p, e, e + self.postprocess]
    }

    /// Total wall time of the step across all stages.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.schedule + self.prepare + self.execute + self.postprocess
    }
}

/// Structured record of one engine step, emitted by every
/// `LlmEngine::step` call (including empty iterations).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTrace {
    /// Monotone step counter (0 for the engine's first step).
    pub step_index: u64,
    /// Per-stage wall-clock durations.
    pub stages: StageTimings,
    /// Whether the step was a prompt (prefill) iteration.
    pub is_prompt_run: bool,
    /// Tokens scheduled into the iteration.
    pub tokens_scheduled: usize,
    /// Sequences that ran in the iteration.
    pub num_seqs: usize,
    /// Copy-on-write block copies carried by the step.
    pub blocks_copied: usize,
    /// Blocks swapped CPU→GPU by the step.
    pub blocks_swapped_in: usize,
    /// Blocks swapped GPU→CPU by the step.
    pub blocks_swapped_out: usize,
    /// Live blocks migrated by pool compaction in the step.
    pub blocks_migrated: usize,
    /// Preemption events recorded while planning the step.
    pub preemptions: Vec<PreemptionEvent>,
}

impl StepTrace {
    /// Builds the trace skeleton from a completed plan (stage timings are
    /// filled in as the stages run).
    #[must_use]
    pub fn from_plan(step_index: u64, plan: &StepPlan) -> Self {
        Self {
            step_index,
            stages: StageTimings::default(),
            is_prompt_run: plan.is_prompt_run,
            tokens_scheduled: plan.budget.num_batched_tokens,
            num_seqs: plan.scheduled.iter().map(|g| g.seq_ids.len()).sum(),
            blocks_copied: plan.cache_ops.copies.len(),
            blocks_swapped_in: plan.cache_ops.swap_in.len(),
            blocks_swapped_out: plan.cache_ops.swap_out.len(),
            blocks_migrated: plan.cache_ops.moves.len(),
            preemptions: plan.preemptions.clone(),
        }
    }

    /// Preemptions recovered by swapping.
    #[must_use]
    pub fn num_swap_preemptions(&self) -> usize {
        self.preemptions
            .iter()
            .filter(|p| p.kind == PreemptionKind::Swap)
            .count()
    }

    /// Preemptions recovered by recomputation.
    #[must_use]
    pub fn num_recompute_preemptions(&self) -> usize {
        self.preemptions
            .iter()
            .filter(|p| p.kind == PreemptionKind::Recompute)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ends_are_monotone() {
        let t = StageTimings {
            schedule: 0.1,
            prepare: 0.0,
            execute: 0.5,
            postprocess: 0.2,
        };
        let ends = t.stage_ends();
        for w in ends.windows(2) {
            assert!(w[1] >= w[0], "stage ends must be monotone: {ends:?}");
        }
        assert!((t.total() - 0.8).abs() < 1e-12);
        assert!((ends[3] - t.total()).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_detection() {
        let mut plan = StepPlan::default();
        assert!(plan.is_empty());
        plan.cache_ops
            .swap_out
            .push(crate::block_manager::BlockCopy { src: 0, dst: 1 });
        assert!(!plan.is_empty(), "swap traffic alone is still work");
    }

    #[test]
    fn trace_counts_preemption_kinds() {
        let mut plan = StepPlan::default();
        plan.preemptions.push(PreemptionEvent {
            request_id: "a".into(),
            kind: PreemptionKind::Swap,
            blocks_swapped_out: 2,
        });
        plan.preemptions.push(PreemptionEvent {
            request_id: "b".into(),
            kind: PreemptionKind::Recompute,
            blocks_swapped_out: 0,
        });
        let trace = StepTrace::from_plan(3, &plan);
        assert_eq!(trace.step_index, 3);
        assert_eq!(trace.num_swap_preemptions(), 1);
        assert_eq!(trace.num_recompute_preemptions(), 1);
    }
}
