//! Iteration-level FCFS scheduler with all-or-nothing preemption (§4.5).
//!
//! Each call to [`Scheduler::schedule`] plans one model iteration: either a
//! *prompt step* (one or more newly admitted requests run their prefill) or a
//! *generation step* (every running sequence advances by one token). When
//! GPU blocks run out, the latest-arrived running group is preempted —
//! swapped to CPU memory or rolled back for recomputation — and, as in the
//! paper, no new request is admitted while any group remains swapped out.
//!
//! With a step token budget configured
//! ([`SchedulerConfig::step_token_budget`]), the prompt/generation
//! dichotomy dissolves into **chunked prefill**: every step first schedules
//! all decode-phase sequences, then spends the leftover budget advancing
//! prompts in bounded chunks ([`PrefillChunk`]) co-batched into the same
//! plan, so one long prompt no longer stalls the decoders behind it. Both
//! orderings admit through one loop (`admit`). Prompt *memory* is still
//! reserved all-or-nothing at admission; only the compute is chunked, which
//! keeps preemption accounting unchanged.

use std::collections::VecDeque;

use crate::block_manager::{AllocStatus, BlockSpaceManager};
use crate::config::{CacheConfig, PreemptionMode, SchedulerConfig, VictimPolicy};
use crate::error::{Result, VllmError};
use crate::plan::{PreemptionEvent, PreemptionKind, StepBudget, StepPlan};
use crate::sequence::{SeqId, SequenceGroup, SequenceStatus};

/// One prefill chunk scheduled for an iteration (chunked-prefill mode): the
/// sequence's prompt rows `[start, end)` run this step, attending over every
/// previously computed position plus a causal intra-chunk mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillChunk {
    /// First prompt row computed this step (the group's chunk cursor).
    pub start: usize,
    /// One past the last prompt row computed this step.
    pub end: usize,
    /// Whether this is the group's first scheduled chunk (admission).
    pub is_first: bool,
    /// Whether this chunk completes the prompt. Only a final chunk samples;
    /// earlier chunks are KV-only.
    pub is_final: bool,
}

impl PrefillChunk {
    /// Tokens computed by this chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk computes no tokens (never produced by the
    /// scheduler; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Per-group slice of a scheduled iteration.
#[derive(Debug, Clone)]
pub struct ScheduledGroup {
    /// Request id of the group.
    pub request_id: String,
    /// Whether this group runs its prompt (prefill) this iteration.
    pub is_prompt: bool,
    /// Sequences participating in this iteration.
    pub seq_ids: Vec<SeqId>,
    /// Number of tokens this group contributes to the iteration's batch.
    pub num_tokens: usize,
    /// Number of leading prompt tokens whose KV cache is already present
    /// (shared-prefix requests skip recomputing these; for a chunk, every
    /// row before `chunk.start`).
    pub num_cached_tokens: usize,
    /// The prompt chunk this group runs when scheduled under a step token
    /// budget; `None` for decode groups and legacy all-or-nothing prefills.
    pub chunk: Option<PrefillChunk>,
    /// Trace context of the group (inactive when the request is unsampled),
    /// so the engine can attribute step work to request spans.
    pub trace: vllm_telemetry::TraceContext,
}

/// Cached telemetry handles for the scheduler's queue gauges, set every step
/// via [`Scheduler::publish_metrics`], and its preemption counters, which the
/// engine counts from each plan's preemptions ([`crate::EngineMetrics`]).
#[derive(Debug, Clone)]
pub struct SchedulerMetrics {
    /// `vllm_scheduler_waiting_requests` gauge.
    pub waiting_requests: vllm_telemetry::Gauge,
    /// `vllm_scheduler_running_requests` gauge.
    pub running_requests: vllm_telemetry::Gauge,
    /// `vllm_scheduler_swapped_requests` gauge.
    pub swapped_requests: vllm_telemetry::Gauge,
    /// `vllm_scheduler_preemptions_total` counter.
    pub preemptions_total: vllm_telemetry::Counter,
    /// `vllm_scheduler_swap_preemptions_total` counter.
    pub swap_preemptions_total: vllm_telemetry::Counter,
    /// `vllm_scheduler_recompute_preemptions_total` counter.
    pub recompute_preemptions_total: vllm_telemetry::Counter,
}

impl SchedulerMetrics {
    /// Registers the scheduler's instruments in `telemetry`.
    #[must_use]
    pub fn register(telemetry: &vllm_telemetry::Telemetry) -> Self {
        let r = telemetry.registry();
        Self {
            waiting_requests: r.gauge(
                "vllm_scheduler_waiting_requests",
                "Requests queued but not yet admitted.",
            ),
            running_requests: r.gauge(
                "vllm_scheduler_running_requests",
                "Requests in the running batch.",
            ),
            swapped_requests: r.gauge(
                "vllm_scheduler_swapped_requests",
                "Requests preempted to CPU memory awaiting swap-in.",
            ),
            preemptions_total: r.counter(
                "vllm_scheduler_preemptions_total",
                "Preemption events (swap + recompute).",
            ),
            swap_preemptions_total: r.counter(
                "vllm_scheduler_swap_preemptions_total",
                "Preemptions recovered by swapping blocks to CPU memory.",
            ),
            recompute_preemptions_total: r.counter(
                "vllm_scheduler_recompute_preemptions_total",
                "Preemptions recovered by freeing blocks and recomputing.",
            ),
        }
    }
}

/// FCFS iteration-level scheduler owning all live sequence groups.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    block_manager: BlockSpaceManager,
    /// Sorted by arrival time (FCFS).
    waiting: VecDeque<SequenceGroup>,
    running: Vec<SequenceGroup>,
    /// Sorted by arrival time (FCFS).
    swapped: VecDeque<SequenceGroup>,
    finished: Vec<SequenceGroup>,
}

impl Scheduler {
    /// Creates a scheduler over a fresh block manager.
    #[must_use]
    pub fn new(scheduler_config: SchedulerConfig, cache_config: &CacheConfig) -> Self {
        Self {
            config: scheduler_config,
            block_manager: BlockSpaceManager::new(cache_config),
            waiting: VecDeque::new(),
            running: Vec::new(),
            swapped: VecDeque::new(),
            finished: Vec::new(),
        }
    }

    /// The scheduler configuration.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Immutable view of the block manager (metrics).
    #[must_use]
    pub fn block_manager(&self) -> &BlockSpaceManager {
        &self.block_manager
    }

    /// Mutable access to the block manager (engine fork/free callbacks).
    pub fn block_manager_mut(&mut self) -> &mut BlockSpaceManager {
        &mut self.block_manager
    }

    /// Turns on scheduler-budgeted chunked prefill, or changes its budget,
    /// between steps (see [`SchedulerConfig::with_step_token_budget`]). A
    /// new budget only resizes the chunks still to come. There is no way
    /// back to the legacy ordering.
    pub fn set_step_token_budget(&mut self, budget: usize) {
        self.config = self.config.clone().with_step_token_budget(budget);
    }

    /// Publishes the current queue depths to the cached telemetry handles.
    pub fn publish_metrics(&self, m: &SchedulerMetrics) {
        m.waiting_requests.set(self.waiting.len() as f64);
        m.running_requests.set(self.running.len() as f64);
        m.swapped_requests.set(self.swapped.len() as f64);
    }

    /// Whether `a` ranks strictly after `b` in a scheduling queue: higher
    /// priority first, ties broken FCFS by arrival time. With all priorities
    /// at their default (0) this degenerates to pure arrival order.
    fn ranks_after(a: &SequenceGroup, b: &SequenceGroup) -> bool {
        a.priority < b.priority || (a.priority == b.priority && a.arrival_time > b.arrival_time)
    }

    /// Enqueues a new request, keeping the waiting queue in (priority,
    /// arrival) order.
    pub fn add_group(&mut self, group: SequenceGroup) {
        let pos = self
            .waiting
            .iter()
            .position(|g| Self::ranks_after(g, &group))
            .unwrap_or(self.waiting.len());
        self.waiting.insert(pos, group);
    }

    /// Number of queued (not yet admitted) requests.
    #[must_use]
    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Number of running requests.
    #[must_use]
    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Number of swapped-out requests.
    #[must_use]
    pub fn num_swapped(&self) -> usize {
        self.swapped.len()
    }

    /// Whether any request is still queued, running, or swapped.
    #[must_use]
    pub fn has_unfinished(&self) -> bool {
        !(self.waiting.is_empty() && self.running.is_empty() && self.swapped.is_empty())
    }

    /// Estimated tokens of work still owed to admitted requests: for every
    /// unfinished sequence, uncomputed prompt/history tokens plus the decode
    /// budget left before `max_tokens`. Join-shortest-queue routing compares
    /// replicas by this rather than raw request counts so one long prompt
    /// weighs more than many short ones.
    #[must_use]
    pub fn outstanding_tokens(&self) -> u64 {
        let group_tokens = |g: &SequenceGroup| -> u64 {
            let max_tokens = g.sampling_params.max_tokens;
            g.seqs()
                .into_iter()
                .filter(|s| !s.is_finished())
                .map(|s| {
                    let prefill = s.len().saturating_sub(s.data.num_computed_tokens());
                    let decode = max_tokens.saturating_sub(s.data.num_output_tokens());
                    (prefill + decode) as u64
                })
                .sum()
        };
        self.waiting
            .iter()
            .chain(self.running.iter())
            .chain(self.swapped.iter())
            .map(group_tokens)
            .sum()
    }

    /// Looks up a live group by request id.
    #[must_use]
    pub fn group(&self, request_id: &str) -> Option<&SequenceGroup> {
        self.running
            .iter()
            .chain(self.waiting.iter())
            .chain(self.swapped.iter())
            .find(|g| g.request_id == request_id)
    }

    /// Looks up a live group by request id, mutably.
    pub fn group_mut(&mut self, request_id: &str) -> Option<&mut SequenceGroup> {
        self.running
            .iter_mut()
            .chain(self.waiting.iter_mut())
            .chain(self.swapped.iter_mut())
            .find(|g| g.request_id == request_id)
    }

    /// Records that the KV of `seq_ids` (running sequences of `request_id`)
    /// now covers their first `computed` tokens — all they have, for `None`
    /// — and indexes every block that completes.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] / [`VllmError::UnknownSequence`]
    /// if the scheduler no longer holds them.
    pub fn set_computed(
        &mut self,
        request_id: &str,
        seq_ids: &[SeqId],
        computed: Option<usize>,
    ) -> Result<()> {
        let group = self
            .running
            .iter_mut()
            .find(|g| g.request_id == request_id)
            .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
        // Once a request has forked, each sequence computes one of several
        // alternatives: at most one of them can ever be a later prompt's
        // prefix, so none is worth a cache entry (its prompt already is one).
        let alone = group.len() == 1;
        for &seq_id in seq_ids {
            let seq = group
                .get_mut(seq_id)
                .ok_or(VllmError::UnknownSequence(seq_id))?;
            let was_computed = seq.data.num_computed_tokens();
            seq.data
                .set_num_computed_tokens(computed.unwrap_or(seq.len()));
            if alone {
                self.block_manager.mark_computed(seq, was_computed);
            }
        }
        Ok(())
    }

    /// Aborts a request wherever it lives, freeing its blocks.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] if no live group matches.
    pub fn abort(&mut self, request_id: &str) -> Result<()> {
        self.finish_with_status(request_id, SequenceStatus::FinishedAborted)
    }

    /// Removes a live group from whichever queue holds it, frees its blocks,
    /// marks its sequences with `status`, and moves it to the finished list.
    fn finish_with_status(&mut self, request_id: &str, status: SequenceStatus) -> Result<()> {
        let from_queue = |q: &mut Vec<SequenceGroup>, id: &str| {
            q.iter()
                .position(|g| g.request_id == id)
                .map(|i| q.remove(i))
        };
        let mut group = from_queue(&mut self.running, request_id)
            .or_else(|| {
                self.waiting
                    .iter()
                    .position(|g| g.request_id == request_id)
                    .and_then(|i| self.waiting.remove(i))
            })
            .or_else(|| {
                self.swapped
                    .iter()
                    .position(|g| g.request_id == request_id)
                    .and_then(|i| self.swapped.remove(i))
            })
            .ok_or_else(|| VllmError::UnknownRequest(request_id.to_string()))?;
        for seq in group.seqs().iter().map(|s| s.seq_id).collect::<Vec<_>>() {
            self.block_manager.free(seq)?;
        }
        group.set_status_all(status);
        self.finished.push(group);
        Ok(())
    }

    /// Cancels every live group whose deadline has passed at virtual time
    /// `now`, freeing its blocks and marking it
    /// [`SequenceStatus::FinishedDeadline`]. Returns `(request_id,
    /// missed_by_seconds)` for each cancellation, in queue order.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn cancel_expired(&mut self, now: f64) -> Result<Vec<(String, f64)>> {
        let expired: Vec<(String, f64)> = self
            .running
            .iter()
            .chain(self.waiting.iter())
            .chain(self.swapped.iter())
            .filter_map(|g| {
                g.deadline
                    .filter(|&d| now >= d)
                    .map(|d| (g.request_id.clone(), now - d))
            })
            .collect();
        for (id, _) in &expired {
            self.finish_with_status(id, SequenceStatus::FinishedDeadline)?;
        }
        Ok(expired)
    }

    /// Aborts every live group (waiting, running, and swapped), freeing all
    /// their blocks and forgetting what any block cached. Used to recover a
    /// consistent (empty) state after an executor failure: the paper's
    /// all-or-nothing eviction applied to the whole engine. Returns the
    /// aborted request ids in queue order.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn abort_all(&mut self) -> Result<Vec<String>> {
        let ids: Vec<String> = self
            .running
            .iter()
            .chain(self.waiting.iter())
            .chain(self.swapped.iter())
            .map(|g| g.request_id.clone())
            .collect();
        for id in &ids {
            self.finish_with_status(id, SequenceStatus::FinishedAborted)?;
        }
        self.block_manager.clear_cache();
        Ok(ids)
    }

    /// Plans one iteration: the schedule stage of the step pipeline.
    ///
    /// Returns an immutable [`StepPlan`] carrying the scheduled groups, the
    /// batched cache operations drained from the block manager, the
    /// preemption events, and the token budget spent. The prepare stage
    /// ([`crate::plan::materialize_batch`]) fills in the per-sequence model
    /// inputs afterwards.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors, which indicate a bug rather than
    /// a recoverable condition.
    pub fn schedule(&mut self) -> Result<StepPlan> {
        let mut plan = StepPlan {
            block_size: self.block_manager.block_size(),
            budget: StepBudget {
                num_batched_tokens: 0,
                max_num_batched_tokens: self.config.max_num_batched_tokens,
                max_num_seqs: self.config.max_num_seqs,
            },
            ..StepPlan::default()
        };

        if let Some(budget) = self.config.step_token_budget {
            // Chunked-prefill mode: decode work and prompt chunks co-batch
            // inside one plan under a per-step token budget.
            self.schedule_chunked(budget, &mut plan)?;
        } else {
            // Phase 1: rerun any prompt whose forward failed, then admit
            // whole prompts, but only when nothing is swapped out (§4.5:
            // stop accepting new requests until preempted ones complete).
            // A step that runs prompts runs nothing else.
            let budget =
                self.continue_prefills(&mut plan, self.config.max_num_batched_tokens, false)?;
            if self.swapped.is_empty() {
                self.admit(&mut plan, budget, false)?;
            }
            plan.is_prompt_run = !plan.scheduled.is_empty();
            if !plan.is_prompt_run {
                // Phase 2: one generation step for every running sequence,
                // preempting the lowest-priority groups if blocks run out.
                self.schedule_decodes(&mut plan)?;

                // Phase 3: swap groups back in while memory allows (FCFS).
                // Skipped if this very step had to preempt.
                if plan.preemptions.is_empty() {
                    self.schedule_swap_in(&mut plan)?;
                }

                // Emit the generation-step plan.
                self.emit_decode_groups(&mut plan);
            }
        }

        // Batch every cache operation this round produced into the plan
        // before the emptiness check: a step that only swapped a preempted
        // group out still carries work the executor must apply.
        plan.cache_ops = self.block_manager.take_pending();

        // Stall resolution: a request whose working set alone exceeds GPU
        // memory (e.g. many long parallel sequences) can neither run nor be
        // resumed, and nothing else will ever free memory for it. Abort it
        // rather than loop forever.
        if plan.is_empty()
            && plan.ignored.is_empty()
            && self.has_unfinished()
            && self.running.is_empty()
        {
            let victim = if !self.swapped.is_empty() {
                self.swapped.pop_front()
            } else if !self.waiting.is_empty() {
                // Waiting but not admittable with an otherwise idle pool
                // (the prompt fits the pool but not beside the watermark).
                self.waiting.pop_front()
            } else {
                None
            };
            if let Some(mut group) = victim {
                for seq_id in group.seqs().iter().map(|s| s.seq_id).collect::<Vec<_>>() {
                    self.block_manager.free(seq_id)?;
                }
                group.set_status_all(SequenceStatus::FinishedAborted);
                plan.ignored.push(group.request_id.clone());
                self.finished.push(group);
            }
        }
        Ok(plan)
    }

    /// Whether any running sequence of `group` still has uncomputed prompt
    /// tokens: a partially prefilled group under chunked-prefill mode, or
    /// one whose prompt step's forward failed.
    fn group_in_prefill(group: &SequenceGroup) -> bool {
        group
            .seqs_any_order()
            .any(|s| s.status == SequenceStatus::Running && s.data.in_prefill())
    }

    /// Emits one generation-step [`ScheduledGroup`] per running group whose
    /// prompt is fully computed.
    fn emit_decode_groups(&self, plan: &mut StepPlan) {
        for group in &self.running {
            if Self::group_in_prefill(group) {
                continue;
            }
            let seq_ids = group.seq_ids_with_status(SequenceStatus::Running);
            if seq_ids.is_empty() {
                continue;
            }
            let num_tokens = seq_ids.len();
            plan.budget.num_batched_tokens += num_tokens;
            plan.scheduled.push(ScheduledGroup {
                request_id: group.request_id.clone(),
                is_prompt: false,
                seq_ids,
                num_tokens,
                num_cached_tokens: 0,
                chunk: None,
                trace: group.trace,
            });
        }
    }

    /// Plans one chunked-prefill iteration: decodes first (they are latency
    /// critical and cheap), then prompt chunks from whatever budget remains,
    /// all co-batched into the same plan. In-flight partial prefills advance
    /// before new requests are admitted, and — as in the legacy path — no new
    /// request is admitted while anything is swapped out.
    fn schedule_chunked(&mut self, budget: usize, plan: &mut StepPlan) -> Result<()> {
        // Phase 1: keep the running set feasible. Partially prefilled groups
        // already hold their full prompt allocation and pass through; decode
        // groups reserve their next-token slot, preempting if blocks run out.
        self.schedule_decodes(plan)?;
        if plan.preemptions.is_empty() {
            self.schedule_swap_in(plan)?;
        }

        // Phase 2: decode tokens are mandatory — they come out of the budget
        // first so chunk sizing sees only the remainder.
        self.emit_decode_groups(plan);
        let decode_tokens: usize = plan
            .scheduled
            .iter()
            .filter(|sg| !sg.is_prompt)
            .map(|sg| sg.num_tokens)
            .sum();
        let budget_left = budget.saturating_sub(decode_tokens);

        // Phase 3: advance in-flight partial prefills. When requests are
        // waiting and this step could admit (nothing swapped, no
        // preemption), each continuation chunk takes at most half the
        // then-remaining budget, leaving room for the queue head to start
        // its own prefill. Without the cap a long in-flight prompt absorbs
        // every step's full budget and short requests behind it see the
        // same TTFT as under all-or-nothing admission.
        let reserve_for_admission =
            !self.waiting.is_empty() && self.swapped.is_empty() && plan.preemptions.is_empty();
        let budget_left = self.continue_prefills(plan, budget_left, reserve_for_admission)?;

        // Phase 4: admit new prompts into the leftover budget (§4.5 gate:
        // nothing swapped out, and not on a step that had to preempt).
        if self.swapped.is_empty() && plan.preemptions.is_empty() {
            self.admit(plan, budget_left, true)?;
        }

        plan.is_prompt_run = plan.scheduled.iter().any(|sg| sg.is_prompt);
        Ok(())
    }

    /// Schedules the uncomputed prompt rows of every running group still in
    /// prefill (FCFS: the running queue is in (priority, arrival) order)
    /// as continuation chunks, out of `budget_left` tokens, and returns the
    /// budget left. Such a group is mid-way through a chunked prefill, or
    /// its prompt step's forward failed and its prompt runs again (either
    /// ordering). With `reserve_for_admission` a chunk takes at most half
    /// the budget left.
    fn continue_prefills(
        &self,
        plan: &mut StepPlan,
        mut budget_left: usize,
        reserve_for_admission: bool,
    ) -> Result<usize> {
        for group in &self.running {
            if budget_left == 0 {
                break;
            }
            if !Self::group_in_prefill(group) {
                continue;
            }
            let seq_ids = group.seq_ids_with_status(SequenceStatus::Running);
            let seq = match seq_ids[..] {
                [] => continue,
                [seq_id] => group
                    .get(seq_id)
                    .ok_or(VllmError::UnknownSequence(seq_id))?,
                _ => {
                    // A fan-out group was admitted whole (see `admit`) and
                    // its prompt step failed: it runs whole again.
                    let running = group.seqs_with_status(SequenceStatus::Running);
                    let num_tokens: usize = running.iter().map(|s| s.len()).sum();
                    if num_tokens > budget_left {
                        break;
                    }
                    budget_left -= num_tokens;
                    plan.budget.num_batched_tokens += num_tokens;
                    plan.scheduled.push(ScheduledGroup {
                        request_id: group.request_id.clone(),
                        is_prompt: true,
                        seq_ids,
                        num_tokens,
                        num_cached_tokens: 0,
                        chunk: None,
                        trace: group.trace,
                    });
                    continue;
                }
            };
            let start = seq.data.num_computed_tokens();
            let prompt_len = seq.data.prompt_len();
            let share = if reserve_for_admission {
                (budget_left / 2).max(1)
            } else {
                budget_left
            };
            let end = (start + share).min(prompt_len);
            debug_assert!(end > start, "in-prefill sequences have rows left");
            budget_left -= end - start;
            plan.budget.num_batched_tokens += end - start;
            plan.scheduled.push(ScheduledGroup {
                request_id: group.request_id.clone(),
                is_prompt: true,
                seq_ids,
                num_tokens: end - start,
                num_cached_tokens: start,
                chunk: Some(PrefillChunk {
                    start,
                    end,
                    is_first: false,
                    is_final: end == prompt_len,
                }),
                trace: group.trace,
            });
        }
        Ok(budget_left)
    }

    /// Admits waiting requests, in queue order, into `budget_left` tokens
    /// of prompt work. Each admission allocates the prompt's full block
    /// table up front (the paper's all-or-nothing *memory* reservation).
    /// With `split` (chunked prefill) a single-sequence prompt runs a first
    /// chunk sized to the budget left; otherwise, and always for a fan-out
    /// group (a recompute-returned one, whose sequences carry independent
    /// cursors a single chunk range cannot describe), the whole prompt must
    /// fit the budget.
    fn admit(&mut self, plan: &mut StepPlan, mut budget_left: usize, split: bool) -> Result<()> {
        let mut num_seqs: usize = self
            .running
            .iter()
            .map(|g| g.seqs_with_status(SequenceStatus::Running).len())
            .sum();

        while let Some(group) = self.waiting.front() {
            if split && budget_left == 0 {
                break;
            }
            let waiting_seqs = group.seqs_with_status(SequenceStatus::Waiting);
            let prompt_len: usize = waiting_seqs.iter().map(|s| s.len()).sum();
            let whole = !split || waiting_seqs.len() > 1;

            // Reject prompts that can never run.
            if prompt_len > self.config.max_model_len
                || self.block_manager.can_allocate(group) == AllocStatus::Never
            {
                let mut group = self.waiting.pop_front().expect("front exists");
                group.set_status_all(SequenceStatus::FinishedAborted);
                plan.ignored.push(group.request_id.clone());
                self.finished.push(group);
                continue;
            }
            if self.block_manager.can_allocate(group) != AllocStatus::Ok
                || (whole && prompt_len > budget_left)
                || num_seqs + group.max_num_seqs() > self.config.max_num_seqs
            {
                break;
            }

            let mut group = self.waiting.pop_front().expect("front exists");
            let num_cached_tokens = self.block_manager.allocate(&group)?;
            group.set_status_all(SequenceStatus::Running);
            num_seqs += group.max_num_seqs();
            let (num_tokens, num_cached_tokens, chunk) = if whole {
                (prompt_len, num_cached_tokens, None)
            } else {
                // At least one prompt row must run so a fully cached prompt
                // still produces logits for its first sampled token.
                let start = num_cached_tokens.min(prompt_len - 1);
                let end = (start + budget_left).min(prompt_len);
                let chunk = PrefillChunk {
                    start,
                    end,
                    is_first: true,
                    is_final: end == prompt_len,
                };
                (end - start, start, Some(chunk))
            };
            budget_left -= num_tokens;
            plan.budget.num_batched_tokens += num_tokens;
            plan.scheduled.push(ScheduledGroup {
                request_id: group.request_id.clone(),
                is_prompt: true,
                seq_ids: group.seq_ids_with_status(SequenceStatus::Running),
                num_tokens,
                num_cached_tokens,
                chunk,
                trace: group.trace,
            });
            self.running.push(group);
        }
        Ok(())
    }

    fn schedule_decodes(&mut self, plan: &mut StepPlan) -> Result<()> {
        // Priority then FCFS: highest priority and earliest arrival served
        // first, the back of the queue preempted first.
        self.running.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then(a.arrival_time.total_cmp(&b.arrival_time))
        });

        let mut survivors: Vec<SequenceGroup> = Vec::with_capacity(self.running.len());
        let mut queue: VecDeque<SequenceGroup> = std::mem::take(&mut self.running).into();

        'groups: while let Some(group) = queue.pop_front() {
            // Groups still in prefill hold their full prompt allocation
            // from admission: no next-token slot to reserve. They stay
            // eligible as preemption victims below.
            if Self::group_in_prefill(&group) {
                survivors.push(group);
                continue;
            }
            // Make room for this group, preempting lower-priority groups if
            // needed (the paper preempts latest arrivals first).
            while !self.block_manager.can_append_slot(&group) {
                let victim = match self.config.victim_policy {
                    VictimPolicy::LatestArrival => queue.pop_back(),
                    VictimPolicy::LargestFootprint => {
                        let idx = queue
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, g)| {
                                g.seqs()
                                    .iter()
                                    .map(|s| {
                                        self.block_manager
                                            .block_table(s.seq_id)
                                            .map_or(0, <[_]>::len)
                                    })
                                    .sum::<usize>()
                            })
                            .map(|(i, _)| i);
                        idx.and_then(|i| queue.remove(i))
                    }
                };
                if let Some(victim) = victim {
                    self.preempt(victim, plan)?;
                } else {
                    // `group` itself is the lowest-priority survivor.
                    self.preempt(group, plan)?;
                    continue 'groups;
                }
            }
            // Reserve the slot for each running sequence's next token; any
            // copy-on-write split is recorded in the pending cache ops.
            let seq_ids = group.seq_ids_with_status(SequenceStatus::Running);
            for seq_id in seq_ids {
                let seq = group
                    .get(seq_id)
                    .ok_or(VllmError::UnknownSequence(seq_id))?;
                self.block_manager.append_slot(seq)?;
            }
            survivors.push(group);
        }
        self.running = survivors;
        Ok(())
    }

    fn schedule_swap_in(&mut self, plan: &mut StepPlan) -> Result<()> {
        while let Some(group) = self.swapped.front() {
            if !self.block_manager.can_swap_in(group) {
                break;
            }
            let mut group = self.swapped.pop_front().expect("front exists");
            let copies = self.block_manager.swap_in(&group)?;
            plan.swapped_in
                .push((group.request_id.clone(), copies.len()));
            group.set_status_all(SequenceStatus::Running);
            // Reserve next-token slots for the newly resumed sequences. A
            // sequence swapped out mid-prefill (chunked mode) resumes from
            // its chunk cursor with its prompt allocation intact: nothing to
            // reserve.
            for seq_id in group.seq_ids_with_status(SequenceStatus::Running) {
                let seq = group
                    .get(seq_id)
                    .ok_or(VllmError::UnknownSequence(seq_id))?;
                if seq.data.in_prefill() {
                    continue;
                }
                self.block_manager.append_slot(seq)?;
            }
            self.running.push(group);
        }
        Ok(())
    }

    fn preempt(&mut self, mut group: SequenceGroup, plan: &mut StepPlan) -> Result<()> {
        group.num_preemptions += 1;

        // Single-sequence groups may use either recovery mode; groups with
        // multiple sequences can share blocks, so they must be swapped to
        // preserve that sharing.
        let mode = if group.num_unfinished() <= 1 {
            self.config.preemption_mode
        } else {
            PreemptionMode::Swap
        };

        match mode {
            PreemptionMode::Swap if self.block_manager.can_swap_out(&group) => {
                let copies = self.block_manager.swap_out(&group)?;
                plan.preemptions.push(PreemptionEvent {
                    request_id: group.request_id.clone(),
                    kind: PreemptionKind::Swap,
                    blocks_swapped_out: copies.len(),
                });
                group.set_status_all(SequenceStatus::Swapped);
                let pos = self
                    .swapped
                    .iter()
                    .position(|g| Self::ranks_after(g, &group))
                    .unwrap_or(self.swapped.len());
                self.swapped.insert(pos, group);
            }
            _ => {
                // Recompute: free all blocks and roll the sequences back to
                // the waiting state with their outputs merged into the prompt
                // (§4.5). Also the fallback when the CPU swap space is full.
                plan.preemptions.push(PreemptionEvent {
                    request_id: group.request_id.clone(),
                    kind: PreemptionKind::Recompute,
                    blocks_swapped_out: 0,
                });
                let seq_ids: Vec<SeqId> = group.seqs().iter().map(|s| s.seq_id).collect();
                for seq_id in seq_ids {
                    self.block_manager.free_for_recompute(seq_id)?;
                    if let Some(seq) = group.get_mut(seq_id) {
                        if !seq.is_finished() {
                            seq.data.reset_for_recompute();
                            seq.status = SequenceStatus::Waiting;
                        }
                    }
                }
                let pos = self
                    .waiting
                    .iter()
                    .position(|g| Self::ranks_after(g, &group))
                    .unwrap_or(self.waiting.len());
                self.waiting.insert(pos, group);
            }
        }
        Ok(())
    }

    /// Frees a single sequence's blocks (beam-search drop, finished sample).
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn free_seq(&mut self, seq_id: SeqId) -> Result<()> {
        self.block_manager.free(seq_id)
    }

    /// Forks `child` from `parent` in the block manager (engine-side fork).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownSequence`] if the parent has no table.
    pub fn fork_seq(&mut self, parent: SeqId, child: SeqId) -> Result<()> {
        self.block_manager.fork(parent, child)
    }

    /// Removes finished groups from the running queue, frees any remaining
    /// blocks, and returns them together with previously aborted groups.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn reap_finished(&mut self) -> Result<Vec<SequenceGroup>> {
        let mut done: Vec<SequenceGroup> = std::mem::take(&mut self.finished);
        let mut still_running = Vec::with_capacity(self.running.len());
        for group in self.running.drain(..) {
            if group.is_finished() {
                done.push(group);
            } else {
                still_running.push(group);
            }
        }
        self.running = still_running;
        for group in &done {
            for seq in group.seqs() {
                self.block_manager.free(seq.seq_id)?;
            }
        }
        Ok(done)
    }

    /// Running groups, for the engine's batch construction and metrics.
    #[must_use]
    pub fn running_groups(&self) -> &[SequenceGroup] {
        &self.running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingParams;
    use crate::sequence::Sequence;

    const BS: usize = 4;

    fn make_scheduler(gpu_blocks: usize, cpu_blocks: usize) -> Scheduler {
        let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched_cfg = SchedulerConfig::new(2048, 64, 2048).unwrap();
        Scheduler::new(sched_cfg, &cache)
    }

    fn group(id: u64, prompt_len: usize, arrival: f64) -> SequenceGroup {
        let seq = Sequence::new(id, (0..prompt_len as u32).collect(), BS);
        SequenceGroup::new(
            format!("r{id}"),
            seq,
            SamplingParams::greedy(64).with_ignore_eos(),
            arrival,
        )
    }

    /// `make()` under each ordering: legacy, and chunked with a budget that
    /// covers every prompt the admission tests queue, so both must admit and
    /// ignore the same requests.
    fn orderings(make: impl Fn() -> Scheduler) -> [(&'static str, Scheduler); 2] {
        let mut chunked = make();
        chunked.set_step_token_budget(2048);
        [("legacy", make()), ("chunked", chunked)]
    }

    fn ids(scheduled: &[ScheduledGroup]) -> Vec<&str> {
        scheduled.iter().map(|sg| sg.request_id.as_str()).collect()
    }

    /// Appends a fake generated token to every running sequence of every
    /// running group (simulating one decode step's output).
    fn append_all(s: &mut Scheduler) {
        let ids: Vec<String> = s
            .running_groups()
            .iter()
            .map(|g| g.request_id.clone())
            .collect();
        for rid in ids {
            let g = s.group_mut(&rid).unwrap();
            for sid in g.seq_ids_with_status(SequenceStatus::Running) {
                let seq = g.get_mut(sid).unwrap();
                seq.data.append_token(1);
                let n = seq.len();
                seq.data.set_num_computed_tokens(n);
            }
        }
    }

    #[test]
    fn prompt_step_admits_fcfs() {
        for (ordering, mut s) in orderings(|| make_scheduler(16, 0)) {
            s.add_group(group(0, 4, 0.0));
            s.add_group(group(1, 4, 1.0));
            let out = s.schedule().unwrap();
            assert!(out.is_prompt_run, "{ordering}");
            assert_eq!(ids(&out.scheduled), ["r0", "r1"], "{ordering}");
            assert_eq!(out.budget.num_batched_tokens, 8, "{ordering}");
            assert_eq!(s.num_running(), 2, "{ordering}");
        }
    }

    #[test]
    fn waiting_queue_sorted_by_arrival() {
        let mut s = make_scheduler(16, 0);
        s.add_group(group(1, 4, 5.0));
        s.add_group(group(0, 4, 1.0));
        let out = s.schedule().unwrap();
        assert_eq!(out.scheduled[0].request_id, "r0");
        assert_eq!(out.scheduled[1].request_id, "r1");
    }

    #[test]
    fn oversized_prompt_ignored() {
        for (ordering, mut s) in orderings(|| make_scheduler(2, 0)) {
            s.add_group(group(0, 100, 0.0));
            s.add_group(group(1, 4, 1.0));
            let out = s.schedule().unwrap();
            assert_eq!(out.ignored, ["r0"], "{ordering}");
            assert_eq!(ids(&out.scheduled), ["r1"], "{ordering}");
            assert_eq!(s.num_running(), 1, "{ordering}");
            let done = s.reap_finished().unwrap();
            assert_eq!(done.len(), 1, "{ordering}");
        }
    }

    #[test]
    fn decode_step_follows_prompt_step() {
        let mut s = make_scheduler(16, 0);
        s.add_group(group(0, 4, 0.0));
        let out = s.schedule().unwrap();
        assert!(out.is_prompt_run);
        append_all(&mut s);
        let out = s.schedule().unwrap();
        assert!(!out.is_prompt_run);
        assert_eq!(out.scheduled.len(), 1);
        assert_eq!(out.budget.num_batched_tokens, 1);
    }

    #[test]
    fn preempts_latest_arrival_with_recompute() {
        // 4 blocks of 4 slots; two requests of 8-token prompts fill the pool.
        let mut s = make_scheduler(4, 0);
        s.add_group(group(0, 8, 0.0));
        s.add_group(group(1, 8, 1.0));
        let out = s.schedule().unwrap();
        assert_eq!(out.scheduled.len(), 2);
        // Both prompts admitted; pool now full. Next decode needs new blocks
        // (prompts fill blocks exactly), so the later request is preempted.
        append_all(&mut s);
        let out = s.schedule().unwrap();
        assert!(!out.is_prompt_run);
        assert_eq!(out.num_preempted(), 1);
        assert_eq!(out.preemptions[0].kind, PreemptionKind::Recompute);
        assert_eq!(out.scheduled.len(), 1);
        assert_eq!(out.scheduled[0].request_id, "r0");
        assert_eq!(s.num_waiting(), 1);
        // The preempted sequence merged its output into the prompt.
        let g = s.group("r1").unwrap();
        assert_eq!(g.seqs()[0].data.prompt_len(), 9);
    }

    #[test]
    fn preempts_with_swap_when_configured() {
        let cache = CacheConfig::new(BS, 4, 8)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let cfg = SchedulerConfig::new(2048, 64, 2048)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let mut s = Scheduler::new(cfg, &cache);
        s.add_group(group(0, 8, 0.0));
        s.add_group(group(1, 8, 1.0));
        s.schedule().unwrap();
        append_all(&mut s);
        let out = s.schedule().unwrap();
        assert_eq!(out.num_preempted(), 1);
        assert_eq!(out.preemptions[0].kind, PreemptionKind::Swap);
        assert_eq!(out.preemptions[0].blocks_swapped_out, 2);
        assert_eq!(s.num_swapped(), 1);
        assert_eq!(out.cache_ops.swap_out.len(), 2);

        // Finish request 0; its blocks free and r1 swaps back in.
        {
            let g = s.group_mut("r0").unwrap();
            for sid in g.seq_ids_with_status(SequenceStatus::Running) {
                g.get_mut(sid).unwrap().status = SequenceStatus::FinishedStopped;
            }
        }
        s.reap_finished().unwrap();
        let out = s.schedule().unwrap();
        assert!(!out.cache_ops.swap_in.is_empty());
        assert_eq!(s.num_swapped(), 0);
        assert_eq!(s.num_running(), 1);
    }

    #[test]
    fn no_admission_while_swapped() {
        let cache = CacheConfig::new(BS, 4, 8)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let cfg = SchedulerConfig::new(2048, 64, 2048)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let mut s = Scheduler::new(cfg, &cache);
        s.add_group(group(0, 8, 0.0));
        s.add_group(group(1, 8, 1.0));
        s.schedule().unwrap();
        append_all(&mut s);
        s.schedule().unwrap(); // r1 swapped out.
        assert_eq!(s.num_swapped(), 1);
        s.add_group(group(2, 4, 2.0));
        append_all(&mut s);
        let out = s.schedule().unwrap();
        // r2 must NOT be admitted while r1 is swapped.
        assert!(!out.is_prompt_run);
        assert!(out.scheduled.iter().all(|g| g.request_id != "r2"));
        assert_eq!(s.num_waiting(), 1);
    }

    #[test]
    fn token_budget_limits_prompt_batch() {
        let cache = CacheConfig::new(BS, 1024, 0).unwrap();
        let cfg = SchedulerConfig::new(2048, 64, 2048).unwrap();
        let mut s = Scheduler::new(cfg, &cache);
        s.add_group(group(0, 1500, 0.0));
        s.add_group(group(1, 1500, 1.0));
        let out = s.schedule().unwrap();
        assert_eq!(out.scheduled.len(), 1);
        assert_eq!(s.num_waiting(), 1);
    }

    #[test]
    fn max_num_seqs_limits_admission() {
        let make = || {
            let cache = CacheConfig::new(BS, 1024, 0).unwrap();
            Scheduler::new(SchedulerConfig::new(4096, 2, 2048).unwrap(), &cache)
        };
        for (ordering, mut s) in orderings(make) {
            for i in 0..3 {
                s.add_group(group(i, 4, i as f64));
            }
            let out = s.schedule().unwrap();
            assert_eq!(ids(&out.scheduled), ["r0", "r1"], "{ordering}");
            assert_eq!(s.num_waiting(), 1, "{ordering}");
        }
    }

    #[test]
    fn abort_frees_blocks() {
        let mut s = make_scheduler(16, 0);
        s.add_group(group(0, 8, 0.0));
        s.schedule().unwrap();
        let free_before = s.block_manager().num_free_gpu_blocks();
        s.abort("r0").unwrap();
        assert_eq!(s.block_manager().num_free_gpu_blocks(), free_before + 2);
        assert!(!s.has_unfinished());
        assert!(s.abort("nope").is_err());
    }

    #[test]
    fn priority_outranks_arrival_in_admission() {
        for (ordering, mut s) in orderings(|| make_scheduler(16, 0)) {
            s.add_group(group(0, 4, 0.0));
            let mut urgent = group(1, 4, 5.0);
            urgent.priority = 3;
            s.add_group(urgent);
            let out = s.schedule().unwrap();
            assert_eq!(ids(&out.scheduled), ["r1", "r0"], "{ordering}");
        }
    }

    #[test]
    fn cancel_expired_frees_blocks_and_reports_miss() {
        let mut s = make_scheduler(16, 0);
        let mut g0 = group(0, 8, 0.0);
        g0.deadline = Some(1.0);
        s.add_group(g0);
        s.add_group(group(1, 4, 0.0));
        s.schedule().unwrap();
        assert!(s.cancel_expired(0.5).unwrap().is_empty());
        let cancelled = s.cancel_expired(1.25).unwrap();
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].0, "r0");
        assert!((cancelled[0].1 - 0.25).abs() < 1e-9);
        let done = s.reap_finished().unwrap();
        assert!(done.iter().any(
            |g| g.request_id == "r0" && g.seqs()[0].status == SequenceStatus::FinishedDeadline
        ));
        // r1 keeps running; r0's blocks are back in the pool.
        assert_eq!(s.num_running(), 1);
        assert_eq!(s.block_manager().num_free_gpu_blocks(), 16 - 1);
    }

    #[test]
    fn abort_all_empties_every_queue_with_zero_leak() {
        let cache = CacheConfig::new(BS, 4, 8)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let cfg = SchedulerConfig::new(2048, 64, 2048)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let mut s = Scheduler::new(cfg, &cache);
        s.add_group(group(0, 8, 0.0));
        s.add_group(group(1, 8, 1.0));
        s.add_group(group(2, 4, 2.0));
        s.schedule().unwrap();
        append_all(&mut s);
        s.schedule().unwrap(); // r1 swapped out, r2 still waiting.
        let ids = s.abort_all().unwrap();
        assert_eq!(ids.len(), 3);
        assert!(!s.has_unfinished());
        assert_eq!(s.block_manager().num_free_gpu_blocks(), 4);
        assert_eq!(s.reap_finished().unwrap().len(), 3);
    }

    fn make_chunked_scheduler(gpu_blocks: usize, cpu_blocks: usize, budget: usize) -> Scheduler {
        let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched_cfg = SchedulerConfig::new(2048, 64, 2048)
            .unwrap()
            .with_step_token_budget(budget);
        Scheduler::new(sched_cfg, &cache)
    }

    /// Applies a chunked plan's effect on sequence state, mirroring the
    /// postprocess stage: non-final chunks advance the cursor, final chunks
    /// and decodes append a sampled token.
    fn apply_plan(s: &mut Scheduler, plan: &StepPlan) {
        for sg in &plan.scheduled {
            let rid = sg.request_id.clone();
            let chunk = sg.chunk;
            let g = s.group_mut(&rid).unwrap();
            for sid in sg.seq_ids.clone() {
                let seq = g.get_mut(sid).unwrap();
                if let Some(c) = chunk.filter(|c| !c.is_final) {
                    seq.data.set_num_computed_tokens(c.end);
                } else {
                    let n = seq.len();
                    seq.data.set_num_computed_tokens(n);
                    seq.data.append_token(1);
                }
            }
        }
    }

    #[test]
    fn chunked_prefill_splits_prompt_across_steps() {
        let mut s = make_chunked_scheduler(16, 0, 4);
        s.add_group(group(0, 10, 0.0));
        // Chunk 1: rows [0, 4).
        let out = s.schedule().unwrap();
        assert!(out.is_prompt_run);
        assert_eq!(out.scheduled.len(), 1);
        let c = out.scheduled[0].chunk.expect("chunked admission");
        assert_eq!(
            (c.start, c.end, c.is_first, c.is_final),
            (0, 4, true, false)
        );
        assert_eq!(out.scheduled[0].num_tokens, 4);
        assert_eq!(out.budget.num_batched_tokens, 4);
        // Full prompt allocation up front (10 tokens → 3 blocks).
        assert_eq!(s.block_manager().num_free_gpu_blocks(), 16 - 3);
        apply_plan(&mut s, &out);
        // Chunk 2: rows [4, 8).
        let out = s.schedule().unwrap();
        let c = out.scheduled[0].chunk.unwrap();
        assert_eq!(
            (c.start, c.end, c.is_first, c.is_final),
            (4, 8, false, false)
        );
        apply_plan(&mut s, &out);
        // Chunk 3 (final): rows [8, 10) samples the first token.
        let out = s.schedule().unwrap();
        let c = out.scheduled[0].chunk.unwrap();
        assert_eq!((c.start, c.end, c.is_final), (8, 10, true));
        apply_plan(&mut s, &out);
        // Next step is a plain decode.
        let out = s.schedule().unwrap();
        assert!(!out.is_prompt_run);
        assert!(out.scheduled[0].chunk.is_none());
        assert!(!out.scheduled[0].is_prompt);
    }

    #[test]
    fn chunked_prefill_cobatches_with_decodes() {
        let mut s = make_chunked_scheduler(32, 0, 6);
        s.add_group(group(0, 4, 0.0));
        // r0 prefills whole prompt in one (first+final) chunk.
        let out = s.schedule().unwrap();
        let c = out.scheduled[0].chunk.unwrap();
        assert!(c.is_first && c.is_final);
        apply_plan(&mut s, &out);
        // r1 arrives with a long prompt: decode for r0 co-batches with r1's
        // first chunk, and the chunk only gets the leftover budget.
        s.add_group(group(1, 20, 1.0));
        let out = s.schedule().unwrap();
        assert!(out.is_prompt_run, "mixed plan contains a prompt chunk");
        assert_eq!(out.scheduled.len(), 2);
        let decode = &out.scheduled[0];
        assert!(!decode.is_prompt);
        assert_eq!(decode.request_id, "r0");
        let chunk_sg = &out.scheduled[1];
        assert_eq!(chunk_sg.request_id, "r1");
        let c = chunk_sg.chunk.unwrap();
        assert_eq!(
            (c.start, c.end),
            (0, 5),
            "1 decode token + 5 chunk rows = budget 6"
        );
        assert_eq!(out.budget.num_batched_tokens, 6);
    }

    #[test]
    fn chunked_recompute_preemption_restarts_from_zero_without_leaks() {
        // Budget 2: r0 (4-token prompt) decodes 1 token/step while r1's
        // 20-token prompt crawls at 1 chunk row/step, so r0's decode growth
        // exhausts the pool while r1 is still mid-prefill.
        let mut s = make_chunked_scheduler(8, 0, 2);
        s.add_group(group(0, 4, 0.0));
        s.add_group(group(1, 20, 1.0));
        let mut preempted = false;
        for _ in 0..40 {
            let out = s.schedule().unwrap();
            if out.num_preempted() > 0 {
                assert_eq!(out.preemptions[0].request_id, "r1");
                assert_eq!(out.preemptions[0].kind, PreemptionKind::Recompute);
                let g = s.group("r1").unwrap();
                let seq = &g.seqs()[0];
                assert!(
                    seq.data.prompt_len() == 20 && seq.data.num_output_tokens() == 0,
                    "r1 was preempted mid-prefill, before any output"
                );
                assert_eq!(
                    seq.data.num_computed_tokens(),
                    0,
                    "recompute resets the chunk cursor"
                );
                preempted = true;
                break;
            }
            // r1 must be making chunk progress until the preemption.
            apply_plan(&mut s, &out);
        }
        assert!(
            preempted,
            "pool pressure must preempt the mid-prefill group"
        );
        // Zero leak: abort everything and the pool drains completely.
        s.abort_all().unwrap();
        assert_eq!(s.block_manager().num_free_gpu_blocks(), 8);
        s.block_manager().assert_consistent();
    }

    #[test]
    fn chunked_admission_respects_budget_before_new_prompts() {
        let mut s = make_chunked_scheduler(64, 0, 8);
        s.add_group(group(0, 32, 0.0));
        s.add_group(group(1, 4, 0.5));
        let out = s.schedule().unwrap();
        // FCFS: all budget goes to r0's first chunk; r1 waits.
        assert_eq!(out.scheduled.len(), 1);
        assert_eq!(out.scheduled[0].request_id, "r0");
        assert_eq!(out.scheduled[0].chunk.unwrap().end, 8);
        assert_eq!(s.num_waiting(), 1);
        apply_plan(&mut s, &out);
        // With r1 still waiting, the fairness cap halves r0's continuation
        // chunk and the leftover admits r1's whole (short) prompt — the
        // short request is not stuck behind the long in-flight prefill.
        let out = s.schedule().unwrap();
        assert_eq!(out.scheduled.len(), 2);
        assert_eq!(out.scheduled[0].request_id, "r0");
        let c0 = out.scheduled[0].chunk.unwrap();
        assert_eq!((c0.start, c0.end), (8, 12), "continuation capped at half");
        assert_eq!(out.scheduled[1].request_id, "r1");
        let c1 = out.scheduled[1].chunk.unwrap();
        assert!(c1.is_first && c1.is_final, "short prompt prefills whole");
        assert_eq!(s.num_waiting(), 0);
        apply_plan(&mut s, &out);
        // Queue drained: r0's next continuation reclaims the full budget
        // minus r1's mandatory decode token.
        let out = s.schedule().unwrap();
        let cont = out
            .scheduled
            .iter()
            .find(|sg| sg.request_id == "r0")
            .unwrap();
        assert_eq!(cont.chunk.unwrap().len(), 7, "budget 8 - 1 decode token");
        apply_plan(&mut s, &out);
    }

    #[test]
    fn a_failed_prompt_step_runs_again_under_both_orderings() {
        // A prompt step whose forward fails leaves its groups running with
        // nothing computed: the next step runs their prompts again (one
        // sequence's as a chunk from its cursor, a fan-out group's whole)
        // and decodes nothing.
        for (ordering, mut s) in orderings(|| make_scheduler(16, 0)) {
            s.add_group(group(0, 6, 0.0));
            let mut fan_out = group(1, 5, 1.0);
            fan_out.add(Sequence::new(2, (0..7).collect(), BS));
            s.add_group(fan_out);
            let failed = s.schedule().unwrap();
            assert_eq!(ids(&failed.scheduled), ["r0", "r1"], "{ordering}");
            let again = s.schedule().unwrap();
            assert!(again.is_prompt_run, "{ordering}");
            assert_eq!(ids(&again.scheduled), ["r0", "r1"], "{ordering}");
            let chunk = again.scheduled[0].chunk.unwrap();
            assert_eq!((chunk.start, chunk.end), (0, 6), "{ordering}");
            assert!(chunk.is_final, "{ordering}");
            let whole = &again.scheduled[1];
            assert_eq!(whole.chunk, None, "{ordering}");
            assert_eq!(whole.num_tokens, 12, "{ordering}");
            assert_eq!(whole.seq_ids, [1, 2], "{ordering}");
        }
    }

    #[test]
    fn reap_finished_frees_and_returns() {
        let mut s = make_scheduler(16, 0);
        s.add_group(group(0, 4, 0.0));
        s.schedule().unwrap();
        {
            let g = s.group_mut("r0").unwrap();
            g.get_mut(0).unwrap().status = SequenceStatus::FinishedStopped;
        }
        let done = s.reap_finished().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(s.block_manager().num_free_gpu_blocks(), 16);
        assert!(!s.has_unfinished());
    }
}
