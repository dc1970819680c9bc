//! The LLM serving engine (Fig. 4): an explicit four-stage step pipeline
//! coupling the scheduler and block manager with a pluggable
//! [`ModelExecutor`].
//!
//! Each [`LlmEngine::step`] call runs the stages in order:
//!
//! 1. **schedule** — [`crate::scheduler::Scheduler::schedule`] plans the
//!    iteration as an immutable [`StepPlan`], batching all cache operations
//!    (swap in/out, copy-on-write) drained from the block manager.
//! 2. **prepare** — [`crate::plan::materialize_batch`] fills the plan with
//!    per-sequence model inputs.
//! 3. **execute** — the executor consumes the plan via
//!    [`ModelExecutor::begin_step`] and returns sampled candidates.
//! 4. **postprocess** — `crate::postprocess` applies the outputs (appended
//!    tokens, parallel-sampling forks, beam updates, stop conditions) and
//!    reaps finished requests.
//!
//! Every step — including empty ones — emits a [`StepTrace`] with per-stage
//! wall times and cache-op counts, queryable via [`LlmEngine::last_trace`]
//! and counted once into the telemetry registry ([`EngineMetrics`]), the
//! engine's only cumulative books. Serving time stays virtual:
//! the executor reports how long the iteration took (wall-clock for the
//! numeric backend, modeled for the simulator), so the same engine drives
//! both real inference and trace-driven evaluation.

use std::sync::Arc;
use std::time::Instant;

use vllm_telemetry::{
    splitmix64, trace_seed, EventKind, MetricsSnapshot, SloMonitor, Span, Telemetry, TraceContext,
};

use crate::config::{CacheConfig, SchedulerConfig};
use crate::elastic::{ElasticController, PoolPressure};
use crate::env::Env;
use crate::error::{Result, VllmError};
use crate::executor::{ModelExecutor, SeqStepInput, StepResult};
use crate::handoff::{KvBlockBytes, KvBlockInstall};
use crate::metrics::EngineMetrics;
use crate::plan::{materialize_batch, StageTimings, StepPlan, StepTrace};
use crate::request::GenerationRequest;
use crate::sampling::{DecodingMode, SamplingParams, TokenId};
use crate::scheduler::Scheduler;
use crate::sequence::{SeqId, Sequence, SequenceGroup, SequenceStatus};

/// One finished output sequence of a request.
#[derive(Debug, Clone)]
pub struct CompletionOutput {
    /// Sequence id.
    pub seq_id: SeqId,
    /// Generated tokens (relative to the original user prompt).
    pub tokens: Vec<TokenId>,
    /// Cumulative log-probability (meaningful for beam search).
    pub cumulative_logprob: f64,
    /// Terminal status of the sequence.
    pub finish_reason: SequenceStatus,
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct RequestOutput {
    /// Request id.
    pub request_id: String,
    /// Original prompt length in tokens.
    pub prompt_len: usize,
    /// Output sequences (the best `n` for beam search).
    pub outputs: Vec<CompletionOutput>,
    /// Arrival time (virtual seconds).
    pub arrival_time: f64,
    /// Completion time (virtual seconds).
    pub finish_time: f64,
    /// Time the first output token was produced, if any.
    pub first_token_time: Option<f64>,
    /// How often the request was preempted.
    pub num_preemptions: u32,
}

impl RequestOutput {
    /// Mean number of generated tokens per output sequence.
    #[must_use]
    pub fn mean_output_len(&self) -> f64 {
        if self.outputs.is_empty() {
            return 0.0;
        }
        self.outputs.iter().map(|o| o.tokens.len()).sum::<usize>() as f64
            / self.outputs.len() as f64
    }
}

/// Point-in-time load summary of one engine, published by replica threads
/// and consumed by cluster routing policies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineLoad {
    /// Requests queued but not yet admitted.
    pub waiting: usize,
    /// Requests currently in the running batch.
    pub running: usize,
    /// Requests preempted to CPU memory.
    pub swapped: usize,
    /// Free GPU KV blocks.
    pub free_blocks: usize,
    /// Total GPU KV blocks.
    pub total_blocks: usize,
    /// Estimated tokens of work still owed to admitted requests
    /// (see [`Scheduler::outstanding_tokens`]).
    pub outstanding_tokens: u64,
    /// Median normalized latency over finished requests (s/token): the
    /// quantile of `vllm_request_normalized_latency_seconds`; 0 until the
    /// first request finishes. No routing policy reads it.
    pub norm_lat_p50: f64,
}

/// An executor call outside [`LlmEngine::step`] (a prefix warm-up, a KV
/// install): it is no scheduler iteration — the step counters stay put — but
/// it is execute time and model time, so it joins the same totals the
/// per-replica wall identity sums, and the block traffic of the journal it
/// carries is counted like a step's.
struct OutsideStep<'a, E>(&'a mut E, &'a EngineMetrics);

impl<E: ModelExecutor> OutsideStep<'_, E> {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<()> {
        let t = Instant::now();
        let result = self.0.begin_step(plan)?;
        self.1
            .step_execute_seconds
            .observe(t.elapsed().as_secs_f64());
        self.1.executor_forward_seconds.observe(result.elapsed);
        self.1.observe_block_traffic(&StepTrace::from_plan(0, plan));
        Ok(())
    }
}

/// The serving engine, generic over the execution backend.
#[derive(Debug)]
pub struct LlmEngine<E: ModelExecutor> {
    pub(crate) scheduler: Scheduler,
    pub(crate) executor: E,
    pub(crate) cache_config: CacheConfig,
    pub(crate) next_seq_id: SeqId,
    pub(crate) clock: f64,
    /// Whether forked sequences share blocks (copy-on-write). Disabling
    /// this replicates blocks eagerly — the contiguous-system behaviour —
    /// for the sharing ablation.
    pub(crate) sharing_enabled: bool,
    /// Monotone step counter for trace indexing.
    step_counter: u64,
    /// Trace of the most recent step.
    last_trace: Option<StepTrace>,
    /// Shared telemetry bundle (metrics registry + lifecycle event log).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Cached engine/scheduler/block-manager instrument handles.
    pub(crate) tmetrics: EngineMetrics,
    /// Fraction of requests sampled for tracing (`VLLM_TRACE_SAMPLE`,
    /// default 1.0). The per-request decision is deterministic in the
    /// request id, so replays trace the same requests.
    trace_sample: f64,
    /// SLO monitor, present when any `VLLM_SLO_*` objective is configured;
    /// evaluated on every [`LlmEngine::metrics_snapshot`].
    slo: Option<SloMonitor>,
    /// Elastic pool controller, consulted at the top of every step when set.
    elastic: Option<ElasticController>,
    /// GPU pool size the engine was constructed with, the restore point for
    /// fault-injected deflations.
    base_gpu_blocks: usize,
    /// CPU pool size the engine was constructed with.
    base_cpu_blocks: usize,
}

impl<E: ModelExecutor> LlmEngine<E> {
    /// Creates an engine over a fresh scheduler and block manager, taking
    /// trace sampling, SLO objectives and log capacities from
    /// [`Env::global`].
    ///
    /// # Panics
    ///
    /// Panics if a `VLLM_*` variable is malformed (see [`crate::env`]).
    #[must_use]
    pub fn new(executor: E, cache_config: CacheConfig, scheduler_config: SchedulerConfig) -> Self {
        let env = Env::global();
        let scheduler = Scheduler::new(scheduler_config, &cache_config);
        let telemetry = Arc::new(env.telemetry());
        let tmetrics = EngineMetrics::register(&telemetry);
        let slo = (!env.slo.is_empty()).then(|| SloMonitor::register(&telemetry, env.slo));
        let base_gpu_blocks = cache_config.num_gpu_blocks;
        let base_cpu_blocks = cache_config.num_cpu_blocks;
        let mut executor = executor;
        executor.attach_telemetry(&telemetry);
        Self {
            scheduler,
            executor,
            cache_config,
            next_seq_id: 0,
            clock: 0.0,
            sharing_enabled: true,
            step_counter: 0,
            last_trace: None,
            telemetry,
            tmetrics,
            trace_sample: env.trace_sample,
            slo,
            elastic: None,
            base_gpu_blocks,
            base_cpu_blocks,
        }
    }

    /// Turns content-addressed block caching off (or back on): the
    /// ablation switch, and the uncached reference the parity tests compare
    /// against. Off, no block is indexed and every prompt is computed whole.
    pub fn set_auto_prefix_match(&mut self, enabled: bool) {
        self.scheduler
            .block_manager_mut()
            .set_prefix_caching(enabled);
    }

    /// Enables or disables block sharing between forked sequences
    /// (ablation). With sharing off, every fork eagerly copies the parent's
    /// blocks, as a contiguous-KV system must, and admission reserves the
    /// request's full fan-out.
    pub fn set_block_sharing(&mut self, enabled: bool) {
        self.sharing_enabled = enabled;
        self.scheduler.block_manager_mut().fanout_admission = !enabled;
    }

    /// Turns on scheduler-budgeted chunked prefill, or changes its budget,
    /// between steps (see [`Scheduler::set_step_token_budget`]).
    pub fn set_step_token_budget(&mut self, budget: usize) {
        self.scheduler.set_step_token_budget(budget);
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the virtual clock (used by trace drivers while idle).
    pub fn advance_clock_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// The scheduler (queue/occupancy introspection).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The KV cache geometry this engine was built with.
    #[must_use]
    pub fn cache_config(&self) -> &CacheConfig {
        &self.cache_config
    }

    /// A point-in-time load summary for routing decisions. Cheap except for
    /// `outstanding_tokens`, which walks the live queues.
    #[must_use]
    pub fn load_snapshot(&self) -> EngineLoad {
        let bm = self.scheduler.block_manager();
        EngineLoad {
            waiting: self.scheduler.num_waiting(),
            running: self.scheduler.num_running(),
            swapped: self.scheduler.num_swapped(),
            free_blocks: bm.num_free_gpu_blocks(),
            total_blocks: bm.num_total_gpu_blocks(),
            outstanding_tokens: self.scheduler.outstanding_tokens(),
            norm_lat_p50: self
                .tmetrics
                .request_normalized_latency_seconds
                .snapshot()
                .quantile(0.5)
                .unwrap_or(0.0),
        }
    }

    /// The sorted hashes of every block-aligned prefix whose KV is resident
    /// in this engine's pool (see [`BlockSpaceManager::cached_hashes`]);
    /// [`prefix_coverage_version`](Self::prefix_coverage_version) lets
    /// callers cache the result.
    ///
    /// [`BlockSpaceManager::cached_hashes`]: crate::BlockSpaceManager::cached_hashes
    #[must_use]
    pub fn prefix_coverage(&self) -> Vec<u64> {
        self.scheduler.block_manager().cached_hashes()
    }

    /// Counter that moves whenever [`prefix_coverage`](Self::prefix_coverage)
    /// would.
    #[must_use]
    pub fn prefix_coverage_version(&self) -> u64 {
        self.scheduler.block_manager().cache_version()
    }

    /// The execution backend.
    #[must_use]
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// The execution backend, mutably.
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// The shared telemetry bundle: metrics registry plus the per-request
    /// lifecycle event log. Clone the `Arc` to observe the engine from
    /// another thread (the frontend does this for `METRICS`/`EVENTS`).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Cached engine instrument handles: the engine's cumulative counts and
    /// latency distributions, read without a registry snapshot.
    #[must_use]
    pub fn engine_metrics(&self) -> &EngineMetrics {
        &self.tmetrics
    }

    /// Publishes the current scheduler/block-manager gauges and returns a
    /// point-in-time snapshot of every registered metric.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.publish_gauges();
        let snap = self.telemetry.registry().snapshot();
        if let Some(slo) = &self.slo {
            // Evaluation updates the `vllm_slo_*` burn gauges and breach
            // counters; re-snapshot so callers see them.
            slo.evaluate(&snap);
            return self.telemetry.registry().snapshot();
        }
        snap
    }

    /// The structured trace of the most recent step, if any step has run.
    #[must_use]
    pub fn last_trace(&self) -> Option<&StepTrace> {
        self.last_trace.as_ref()
    }

    /// Whether any request is queued, running, or swapped.
    #[must_use]
    pub fn has_unfinished(&self) -> bool {
        self.scheduler.has_unfinished()
    }

    /// Adds a request arriving now.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] for invalid sampling parameters.
    pub fn add_request(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        params: SamplingParams,
    ) -> Result<()> {
        let now = self.clock;
        self.add_request_at(request_id, prompt, params, now)
    }

    /// Adds a request with an explicit arrival time (trace replay).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] for invalid sampling parameters
    /// or an empty prompt.
    pub fn add_request_at(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        params: SamplingParams,
        arrival_time: f64,
    ) -> Result<()> {
        self.add_request_traced(request_id.into(), prompt, params, arrival_time, None)
    }

    /// Shared admission path: mints the group's trace context (or adopts a
    /// propagated one) and records the `admit` instant span.
    fn add_request_traced(
        &mut self,
        request_id: String,
        prompt: Vec<TokenId>,
        params: SamplingParams,
        arrival_time: f64,
        trace: Option<TraceContext>,
    ) -> Result<()> {
        params.validate()?;
        if prompt.is_empty() {
            return Err(VllmError::InvalidConfig("empty prompt".into()));
        }
        let seq = Sequence::new(self.alloc_seq_id(), prompt, self.cache_config.block_size);
        let mut group = SequenceGroup::new(request_id, seq, params, arrival_time);
        group.trace = trace.unwrap_or_else(|| {
            TraceContext::mint(
                trace_seed(&group.request_id),
                self.sample_decision(&group.request_id),
            )
        });
        self.tmetrics.requests_arrived_total.inc();
        self.telemetry
            .events()
            .record(&group.request_id, arrival_time, EventKind::Arrived);
        if group.trace.is_active() {
            let admit = group.trace.child(0);
            self.telemetry.spans().record(Span {
                trace_id: admit.trace_id,
                span_id: admit.span_id,
                parent_span_id: admit.parent_span_id,
                name: "admit".to_string(),
                start: arrival_time,
                end: arrival_time,
                attrs: vec![("request_id".to_string(), group.request_id.clone())],
            });
        }
        self.scheduler.add_group(group);
        Ok(())
    }

    /// Deterministic per-request sampling decision: hash the request id and
    /// compare against `trace_sample`, so replays trace the same subset.
    fn sample_decision(&self, request_id: &str) -> bool {
        if self.trace_sample >= 1.0 {
            return true;
        }
        if self.trace_sample <= 0.0 {
            return false;
        }
        let h = splitmix64(trace_seed(request_id) ^ 0x5bf0_3635_4cb6_28d9);
        (h as f64 / u64::MAX as f64) < self.trace_sample
    }

    /// Adds a typed [`GenerationRequest`] arriving now. This is the serving
    /// entry point used by the frontend, the replica admission loop, and the
    /// cluster simulator.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] for inconsistent request fields
    /// and [`VllmError::InvalidConfig`] for an empty prompt.
    pub fn add_generation_request(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        request: &GenerationRequest,
    ) -> Result<()> {
        let now = self.clock;
        self.add_generation_request_at(request_id, prompt, request, now)
    }

    /// Adds a typed [`GenerationRequest`] with an explicit arrival time
    /// (trace replay). The request's relative deadline, if any, becomes an
    /// absolute virtual-time deadline of `arrival_time + deadline`; its
    /// priority feeds the scheduler's (priority, arrival) queue order.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] for inconsistent request fields
    /// and [`VllmError::InvalidConfig`] for an empty prompt.
    pub fn add_generation_request_at(
        &mut self,
        request_id: impl Into<String>,
        prompt: Vec<TokenId>,
        request: &GenerationRequest,
        arrival_time: f64,
    ) -> Result<()> {
        let params = request.sampling_params()?;
        let request_id = request_id.into();
        self.add_request_traced(
            request_id.clone(),
            prompt,
            params,
            arrival_time,
            request.trace,
        )?;
        if request.deadline.is_some() || request.priority != 0 {
            let group = self
                .scheduler
                .group_mut(&request_id)
                .expect("group was just added");
            group.deadline = request.deadline.map(|d| arrival_time + d);
            group.priority = request.priority;
        }
        Ok(())
    }

    /// Aborts a live request.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::UnknownRequest`] if no live group matches.
    pub fn abort_request(&mut self, request_id: &str) -> Result<()> {
        self.scheduler.abort(request_id)
    }

    /// Aborts every live request, freeing all their blocks and restoring
    /// the engine to an empty, consistent state. Used by serving loops to
    /// recover after an executor failure mid-step (the affected iteration's
    /// reservations are released wholesale). The aborted groups are
    /// delivered, output-less, by the next [`Self::step`]'s reap.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors.
    pub fn abort_all(&mut self) -> Result<Vec<String>> {
        self.scheduler.abort_all()
    }

    /// Enables or disables the CPU swap pool (fault injection: an exhausted
    /// or failed swap device). While disabled, preemption falls back to
    /// recomputation exactly as when the pool is full (§4.5).
    pub fn set_swap_disabled(&mut self, disabled: bool) {
        self.scheduler
            .block_manager_mut()
            .set_swap_disabled(disabled);
    }

    /// Installs (or removes) an elastic pool controller. When set, the
    /// engine samples [`PoolPressure`] at the top of every step and applies
    /// the controller's resize proposals before scheduling, so the resize's
    /// migration journal rides that step's [`StepPlan`].
    pub fn set_elastic(&mut self, controller: Option<ElasticController>) {
        self.elastic = controller;
    }

    /// The installed elastic controller, if any.
    #[must_use]
    pub fn elastic(&self) -> Option<&ElasticController> {
        self.elastic.as_ref()
    }

    /// Point-in-time pool pressure, the controller's input signal.
    #[must_use]
    pub fn pool_pressure(&self) -> PoolPressure {
        let bm = self.scheduler.block_manager();
        PoolPressure {
            total_blocks: bm.num_total_gpu_blocks(),
            free_blocks: bm.num_free_gpu_blocks(),
            allocated_blocks: bm.num_allocated_gpu_blocks(),
            waiting: self.scheduler.num_waiting(),
            swapped: self.scheduler.num_swapped(),
        }
    }

    /// Resizes the GPU and CPU block pools at runtime. Shrinking compacts
    /// first (live blocks migrate into holes below the new bound, journaled
    /// as `moves` in the next step's cache ops); block ids live only inside
    /// the block manager, which follows its own moves.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if a pool would shrink below its
    /// live working set (the pools are left unchanged).
    pub fn resize_pools(&mut self, gpu_blocks: usize, cpu_blocks: usize) -> Result<()> {
        self.scheduler
            .block_manager_mut()
            .resize(gpu_blocks, cpu_blocks)?;
        self.cache_config.num_gpu_blocks = gpu_blocks;
        self.cache_config.num_cpu_blocks = cpu_blocks;
        Ok(())
    }

    /// Fully defragments both pools without resizing: live blocks pack into
    /// the lowest ids, the data moves journaled into the next step's cache
    /// ops.
    ///
    /// # Errors
    ///
    /// Propagates block-accounting errors (corrupted accounting).
    pub fn compact_pools(&mut self) -> Result<()> {
        self.scheduler.block_manager_mut().compact()
    }

    /// Deflates the GPU pool to `fraction` of its configured size (fault
    /// injection: external memory pressure reclaiming KV capacity). The
    /// target is clamped so the live working set always fits. Returns the
    /// new pool size in blocks.
    ///
    /// # Errors
    ///
    /// Propagates resize errors.
    pub fn deflate_pool(&mut self, fraction: f64) -> Result<usize> {
        let fraction = fraction.clamp(0.0, 1.0);
        let target = ((self.base_gpu_blocks as f64 * fraction) as usize)
            .max(self.scheduler.block_manager().num_allocated_gpu_blocks())
            .max(1);
        let cpu = self.scheduler.block_manager().num_total_cpu_blocks();
        self.resize_pools(target, cpu)?;
        Ok(target)
    }

    /// Restores both pools to the sizes the engine was constructed with
    /// (recovery from [`Self::deflate_pool`]).
    ///
    /// # Errors
    ///
    /// Propagates resize errors.
    pub fn restore_pool(&mut self) -> Result<()> {
        self.resize_pools(self.base_gpu_blocks, self.base_cpu_blocks)
    }

    /// Warms the block cache with a shared prefix (§4.4): runs a KV-only
    /// prefill over the full blocks of `tokens` that are not cached yet (as
    /// many as the free pool holds) and leaves them cached, so later prompts
    /// that start with them skip that compute and share the blocks. Nothing
    /// is pinned and there is nothing to release: the blocks are free
    /// blocks, evicted like any other cached content once the pool needs
    /// them.
    ///
    /// This is an offline provisioning step; it does not advance the serving
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns executor errors from the warm-up run.
    pub fn register_prefix(&mut self, tokens: &[TokenId]) -> Result<()> {
        let bs = self.cache_config.block_size;
        let mut outside = OutsideStep(&mut self.executor, &self.tmetrics);
        let manager = self.scheduler.block_manager_mut();
        manager.cache_blocks(tokens, |cached_blocks, run, cache_ops| {
            let warmup = StepPlan {
                is_prompt_run: true,
                cache_ops,
                items: vec![SeqStepInput {
                    // No request sequence ever gets this id.
                    seq_id: u64::MAX,
                    tokens: tokens[..run.len() * bs].to_vec(),
                    first_position: 0,
                    num_cached_tokens: cached_blocks * bs,
                    block_table: run.to_vec(),
                    num_candidates: 0,
                    mode: DecodingMode::Greedy,
                    seed: 0,
                    sample_index: 0,
                    chunked: false,
                }],
                block_size: bs,
                ..StepPlan::default()
            };
            outside.begin_step(&warmup)
        })
    }

    /// Serializes the KV of the longest still-cached run of `tokens`'
    /// leading full blocks for a handoff: the tokens that run covers plus
    /// one [`KvBlockBytes`] per block, read from the executor's KV storage.
    /// Backends without addressable KV (mock, simulator) export empty-bodied
    /// blocks — the handoff bookkeeping is identical, only the install
    /// becomes a no-op.
    #[must_use]
    pub fn export_kv(&self, tokens: &[TokenId]) -> (Vec<TokenId>, Vec<KvBlockBytes>) {
        let manager = self.scheduler.block_manager();
        let blocks = manager.cached_blocks(tokens, usize::MAX);
        let resident = blocks.len() * self.cache_config.block_size;
        (
            tokens[..resident].to_vec(),
            self.executor.export_kv_blocks(&blocks),
        )
    }

    /// Installs KV computed *elsewhere* (the receiving half of a handoff,
    /// §4.4 sharing stretched across replicas) for the full blocks of
    /// `tokens`. `data` holds their *last* `data.len()` blocks — all of them,
    /// or only the tail a sender that knows this replica's coverage chose to
    /// ship. Blocks already cached here are skipped, the rest (as many
    /// leading ones as the free pool holds — a full pool installs nothing
    /// and the request computes its prompt) are journaled as
    /// [`CacheOps`](crate::executor::CacheOps) `installs` — applied by the
    /// executor under the same ordering contract as swaps and copies, never
    /// behind the journal's back — and left cached. There is no forward
    /// pass: the KV arrives in the payload, which is the entire point of
    /// disaggregated prefill.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::Protocol`] when `data` holds more blocks than
    /// the tokens have, or when the blocks before a shipped tail are no
    /// longer cached here (the sender's view was stale; nothing is
    /// installed); or executor errors from the install step.
    pub fn install_kv(&mut self, tokens: &[TokenId], data: Vec<KvBlockBytes>) -> Result<()> {
        let bs = self.cache_config.block_size;
        // A partial last block may travel with the payload; it is not
        // installable.
        let Some(first_shipped) = tokens.len().div_ceil(bs).checked_sub(data.len()) else {
            return Err(VllmError::Protocol(format!(
                "KV install carries {} blocks but {} tokens have {}",
                data.len(),
                tokens.len(),
                tokens.len().div_ceil(bs)
            )));
        };
        let mut outside = OutsideStep(&mut self.executor, &self.tmetrics);
        let manager = self.scheduler.block_manager_mut();
        manager.cache_blocks(tokens, |cached_blocks, run, mut cache_ops| {
            if cached_blocks < first_shipped {
                return Err(VllmError::Protocol(format!(
                    "KV install starts at block {first_shipped} but only {cached_blocks} are cached"
                )));
            }
            let shipped = data.into_iter().skip(cached_blocks - first_shipped);
            cache_ops.installs = run[cached_blocks..]
                .iter()
                .zip(shipped)
                .map(|(&dst, data)| KvBlockInstall { dst, data })
                .collect();
            let install = StepPlan {
                cache_ops,
                block_size: bs,
                ..StepPlan::default()
            };
            outside.begin_step(&install)
        })
    }

    /// Runs one iteration through the four pipeline stages (schedule →
    /// prepare → execute → postprocess) and returns the requests that
    /// finished during the step. A [`StepTrace`] is recorded for every call,
    /// including steps that found no work.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and executor errors.
    pub fn step(&mut self) -> Result<Vec<RequestOutput>> {
        let step_index = self.step_counter;
        self.step_counter += 1;

        // Deadline enforcement precedes scheduling so an expired request
        // never consumes another iteration's worth of blocks or batch slots.
        // The cancelled groups are delivered by this step's reap, which also
        // records their `finished reason=deadline` lifecycle events.
        for (_request_id, missed_by) in self.scheduler.cancel_expired(self.clock)? {
            self.tmetrics.deadline_cancellations_total.inc();
            self.tmetrics
                .request_deadline_miss_seconds
                .observe(missed_by);
        }

        // Elastic pool control: apply any resize before scheduling so its
        // migration journal drains into this step's plan.
        if self.elastic.is_some() {
            let pressure = self.pool_pressure();
            let action = self
                .elastic
                .as_mut()
                .expect("checked above")
                .decide(&pressure);
            if let Some(action) = action {
                let cpu = self.scheduler.block_manager().num_total_cpu_blocks();
                self.resize_pools(action.target(), cpu)?;
            }
        }

        // Stage 1: schedule.
        let t = Instant::now();
        let mut plan = self.scheduler.schedule()?;
        let schedule = t.elapsed().as_secs_f64();
        self.record_plan_telemetry(&plan);
        if plan.is_prompt_run {
            self.record_queue_spans(&plan);
        }

        if plan.is_empty() {
            // Nothing to run, but finished/aborted groups may still need
            // reaping, and the step still emits a trace.
            let t = Instant::now();
            let outs = self.reap()?;
            let mut trace = StepTrace::from_plan(step_index, &plan);
            trace.stages.schedule = schedule;
            trace.stages.postprocess = t.elapsed().as_secs_f64();
            self.finish_trace(trace);
            return Ok(outs);
        }

        // Stage 2: prepare (materialize per-sequence model inputs).
        let t = Instant::now();
        materialize_batch(&self.scheduler, &mut plan)?;
        let prepare = t.elapsed().as_secs_f64();

        // Stage 3: execute.
        let t = Instant::now();
        let result = self.executor.begin_step(&plan)?;
        let execute = t.elapsed().as_secs_f64();
        self.clock += result.elapsed;
        self.tmetrics
            .executor_forward_seconds
            .observe(result.elapsed);

        // Stage 4: postprocess (sampling bookkeeping, forks, stops, reap,
        // and freeing the step's plan and results).
        let t = Instant::now();
        self.record_kernel_spans(&plan, &result, step_index);
        self.process_outputs(&plan, &result)?;
        let outs = self.reap()?;
        let mut trace = StepTrace::from_plan(step_index, &plan);
        drop((plan, result));
        let postprocess = t.elapsed().as_secs_f64();

        trace.stages = StageTimings {
            schedule,
            prepare,
            execute,
            postprocess,
        };
        self.finish_trace(trace);
        Ok(outs)
    }

    /// Runs steps until every request finishes, returning all outputs.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_to_completion(&mut self) -> Result<Vec<RequestOutput>> {
        let mut all = Vec::new();
        while self.has_unfinished() {
            all.extend(self.step()?);
        }
        Ok(all)
    }

    pub(crate) fn alloc_seq_id(&mut self) -> SeqId {
        let id = self.next_seq_id;
        self.next_seq_id += 1;
        id
    }

    fn finish_trace(&mut self, trace: StepTrace) {
        self.tmetrics.observe_trace(&trace);
        self.record_stage_spans(&trace);
        self.publish_gauges();
        self.last_trace = Some(trace);
    }

    /// Emits untraced (`trace_id == 0`) per-step stage spans: the four
    /// pipeline stages laid sequentially from the step's virtual start so
    /// the exported timeline shows where host time went. Skipped for steps
    /// that did no work. They are annotations, rendered when read, so a
    /// step allocates nothing for them.
    fn record_stage_spans(&self, trace: &StepTrace) {
        if trace.tokens_scheduled == 0 && trace.stages.total() == 0.0 {
            return;
        }
        let stages = [
            ("step.schedule", trace.stages.schedule),
            ("step.prepare", trace.stages.prepare),
            ("step.execute", trace.stages.execute),
            ("step.postprocess", trace.stages.postprocess),
        ];
        let mut cursor = self.clock;
        let spans = stages
            .into_iter()
            .filter(|&(_, dur)| dur > 0.0)
            .map(|(name, dur)| {
                let start = cursor;
                cursor += dur;
                (name, start, cursor)
            });
        self.telemetry
            .spans()
            .record_annotations(("step", trace.step_index), spans);
    }

    /// Sets each newly scheduled prompt group's `first_scheduled_time` and
    /// emits its `queue` span (`[arrival, first schedule]`) if sampled.
    fn record_queue_spans(&mut self, plan: &StepPlan) {
        for sg in &plan.scheduled {
            if !sg.is_prompt {
                continue;
            }
            let Some(group) = self.scheduler.group_mut(&sg.request_id) else {
                continue;
            };
            if group.first_scheduled_time.is_some() {
                continue;
            }
            group.first_scheduled_time = Some(self.clock);
            group.cached_tokens = sg.num_cached_tokens;
            if group.trace.is_active() {
                let q = group.trace.child(1);
                self.telemetry.spans().record(Span {
                    trace_id: q.trace_id,
                    span_id: q.span_id,
                    parent_span_id: q.parent_span_id,
                    name: "queue".to_string(),
                    start: group.arrival_time,
                    end: self.clock,
                    attrs: Vec::new(),
                });
            }
        }
    }

    /// Emits kernel spans for every sampled group that ran this step, laid
    /// end-to-end across the step's virtual interval with widths
    /// proportional to the backend-reported kernel timings. To bound span
    /// volume, kernels are attributed only to a group's prefill steps and
    /// its first decode step.
    fn record_kernel_spans(&self, plan: &StepPlan, result: &StepResult, step_index: u64) {
        let traced = plan.scheduled.iter().any(|sg| sg.trace.is_active());
        if !traced || result.kernels.is_empty() {
            return;
        }
        let backend = self.executor.backend_label();
        let t0 = self.clock - result.elapsed;
        let total: f64 = result.kernels.iter().map(|k| k.seconds).sum();
        let scale = if total > 0.0 {
            result.elapsed / total
        } else {
            0.0
        };
        for sg in &plan.scheduled {
            if !sg.trace.is_active() {
                continue;
            }
            let Some(group) = self.scheduler.group(&sg.request_id) else {
                continue;
            };
            // Prefill steps hang kernels under the `prefill` span; the
            // first decode step (first and last token coincide) hangs them
            // under `decode`; later decode steps are skipped.
            let parent = match group.first_token_time {
                None => group.trace.child(2),
                Some(ft) => {
                    if group.last_token_time != Some(ft) {
                        continue;
                    }
                    group.trace.child(3)
                }
            };
            let mut cursor = t0;
            for (k, timing) in result.kernels.iter().enumerate() {
                let width = timing.seconds * scale;
                let ctx = parent.child(16 + step_index.wrapping_mul(1024) + k as u64);
                self.telemetry.spans().record(Span {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent_span_id: ctx.parent_span_id,
                    name: format!("kernel:{}", timing.name),
                    start: cursor,
                    end: cursor + width,
                    attrs: vec![("backend".to_string(), backend.to_string())],
                });
                cursor += width;
            }
        }
    }

    /// Pushes the current queue depths and block-pool state into the
    /// telemetry gauges (called after every step and before snapshots).
    fn publish_gauges(&self) {
        self.scheduler.publish_metrics(&self.tmetrics.scheduler);
        let groups = self.scheduler.running_groups();
        let all_seqs = groups.iter().flat_map(SequenceGroup::seqs_any_order);
        let used_slots = self.scheduler.block_manager().used_gpu_slots(all_seqs);
        self.scheduler
            .block_manager()
            .publish_metrics(&self.tmetrics.block_manager, used_slots);
    }

    /// Records the lifecycle events and counters a freshly scheduled plan
    /// implies: prompt admissions with their prefix lookups, preemptions,
    /// swap-ins, and rejections.
    fn record_plan_telemetry(&self, plan: &StepPlan) {
        let events = self.telemetry.events();
        let lookups = self.scheduler.block_manager().prefix_caching();
        let bm = &self.tmetrics.block_manager;
        for sg in &plan.scheduled {
            // A prompt's `Scheduled` event fires once, at admission: legacy
            // prefills always, chunked prefills on their first chunk only.
            if !sg.is_prompt || sg.chunk.is_some_and(|c| !c.is_first) {
                continue;
            }
            // A single-sequence admission looked its tokens up in the block
            // index, and its cached count is exactly what it found.
            if let (true, &[seq_id]) = (lookups, sg.seq_ids.as_slice()) {
                let group = self.scheduler.group(&sg.request_id);
                let looked_up = group.and_then(|g| g.get(seq_id)).map_or(0, |s| s.len());
                bm.prefix_lookup_tokens_total.inc_by(looked_up as u64);
                bm.prefix_hit_tokens_total
                    .inc_by(sg.num_cached_tokens as u64);
            }
            // For a chunked admission the event reports the whole prompt the
            // chunks will cover, not just the first chunk's slice.
            let prompt_tokens = if sg.chunk.is_some() {
                self.scheduler
                    .group(&sg.request_id)
                    .map_or(sg.num_tokens, |g| {
                        g.seqs().iter().map(|s| s.data.prompt_len()).sum()
                    })
            } else {
                sg.num_tokens
            };
            events.record(
                &sg.request_id,
                self.clock,
                EventKind::Scheduled {
                    prompt_tokens,
                    cached_tokens: sg.num_cached_tokens,
                },
            );
        }
        let chunks = plan
            .scheduled
            .iter()
            .filter(|sg| sg.chunk.is_some())
            .count() as u64;
        if chunks > 0 {
            self.tmetrics.prefill_chunks_total.inc_by(chunks);
        }
        for p in &plan.preemptions {
            let mode = match p.kind {
                crate::plan::PreemptionKind::Swap => "swap",
                crate::plan::PreemptionKind::Recompute => "recompute",
            };
            events.record(
                &p.request_id,
                self.clock,
                EventKind::Preempted {
                    mode: mode.to_string(),
                    blocks: p.blocks_swapped_out,
                },
            );
        }
        for (request_id, blocks) in &plan.swapped_in {
            events.record(
                request_id,
                self.clock,
                EventKind::SwappedIn { blocks: *blocks },
            );
        }
        if !plan.cache_ops.is_empty() {
            self.telemetry.spans().record(Span {
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
                name: "cache_ops".to_string(),
                start: self.clock,
                end: self.clock,
                attrs: vec![
                    (
                        "swap_in".to_string(),
                        plan.cache_ops.swap_in.len().to_string(),
                    ),
                    (
                        "swap_out".to_string(),
                        plan.cache_ops.swap_out.len().to_string(),
                    ),
                    (
                        "copies".to_string(),
                        plan.cache_ops.copies.len().to_string(),
                    ),
                    ("moves".to_string(), plan.cache_ops.moves.len().to_string()),
                ],
            });
        }
        self.tmetrics
            .requests_ignored_total
            .inc_by(plan.ignored.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockExecutor;

    const BS: usize = 4;

    fn engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    #[test]
    fn greedy_generation_end_to_end() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3, 4, 5], SamplingParams::greedy(8))
            .unwrap();
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 1);
        let out = &outs[0];
        assert_eq!(out.request_id, "r0");
        assert_eq!(out.prompt_len, 5);
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].tokens.len(), 8);
        assert_eq!(
            out.outputs[0].finish_reason,
            SequenceStatus::FinishedLengthCapped
        );
        // All blocks returned to the pool.
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
        assert!(e.clock() > 0.0);
    }

    // Preemption round-trip and step-trace tests live in
    // `tests/step_trace.rs`.

    #[test]
    fn warmed_prefix_is_cached_not_pinned_and_shared_by_extensions() {
        let mut e = engine(64, 0);
        let prefix: Vec<TokenId> = (0..8).collect();
        e.register_prefix(&prefix).unwrap();
        let bm = e.scheduler().block_manager();
        assert_eq!(bm.num_free_gpu_blocks(), 64, "a warmed prefix pins nothing");
        assert_eq!(bm.num_cached_free_gpu_blocks(), 2);

        for (id, tail) in [("r0", 200..204), ("r1", 300..304)] {
            let mut prompt = prefix.clone();
            prompt.extend(tail);
            e.add_request(id, prompt, SamplingParams::greedy(4))
                .unwrap();
        }
        e.step().unwrap(); // Prompt step.
        let bm = e.scheduler().block_manager();
        // Both map the two prefix blocks and own one block for their suffix.
        assert_eq!(bm.num_allocated_gpu_blocks(), 4);
        assert_eq!(bm.num_logical_gpu_blocks(), 6);
        let m = &e.engine_metrics().block_manager;
        assert_eq!(m.prefix_lookup_tokens_total.get(), 24);
        assert_eq!(m.prefix_hit_tokens_total.get(), 16);
        assert_eq!(e.scheduler().group("r1").unwrap().cached_tokens, 8);
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs[0].outputs[0].tokens.len(), 4);
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
        e.scheduler().block_manager().assert_consistent();
    }

    #[test]
    fn prompt_equal_to_a_cached_prefix_still_computes_its_last_block() {
        let mut e = engine(64, 0);
        e.register_prefix(&(0..8).collect::<Vec<_>>()).unwrap();
        // The strict-prefix rule: a row must run to produce logits, so the
        // prompt's last block is its own even when all of it is cached.
        e.add_request("same", (0..8).collect(), SamplingParams::greedy(2))
            .unwrap();
        // A prompt that does not start with the prefix shares nothing.
        e.add_request("other", (50..60).collect(), SamplingParams::greedy(2))
            .unwrap();
        e.step().unwrap();
        assert_eq!(e.scheduler().group("same").unwrap().cached_tokens, 4);
        assert_eq!(e.scheduler().group("other").unwrap().cached_tokens, 0);
        e.run_to_completion().unwrap();
    }

    #[test]
    fn forked_requests_index_their_prompt_only() {
        let mut e = engine(64, 0);
        let prompt: Vec<TokenId> = (0..10).collect();
        e.add_request("beam", prompt.clone(), SamplingParams::beam(3, 9))
            .unwrap();
        e.add_request("samples", prompt.clone(), SamplingParams::parallel(3, 9))
            .unwrap();
        e.add_request("one", prompt, SamplingParams::greedy(9))
            .unwrap();
        e.run_to_completion().unwrap();
        // The prompt's two full blocks, plus what the single sequence
        // computed past them (10 + 8 tokens with KV: two more blocks). The
        // alternatives the other two requests generated are not cached.
        assert_eq!(e.prefix_coverage().len(), 2 + 2);
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
        e.scheduler().block_manager().assert_consistent();
    }

    #[test]
    fn cache_off_shares_nothing_and_indexes_nothing() {
        let mut e = engine(64, 0);
        e.set_auto_prefix_match(false);
        e.register_prefix(&(0..8).collect::<Vec<_>>()).unwrap();
        for id in ["a", "b"] {
            e.add_request(id, (0..12).collect(), SamplingParams::greedy(2))
                .unwrap();
            e.run_to_completion().unwrap();
        }
        let m = &e.engine_metrics().block_manager;
        assert_eq!(m.prefix_lookup_tokens_total.get(), 0);
        assert_eq!(m.prefix_hit_tokens_total.get(), 0);
        assert_eq!(
            e.scheduler().block_manager().num_cached_free_gpu_blocks(),
            0
        );
        assert!(e.prefix_coverage().is_empty());
    }

    #[test]
    fn finished_requests_reach_the_latency_histograms() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(4))
            .unwrap();
        let mut steps = 0;
        while e.has_unfinished() {
            e.step().unwrap();
            steps += 1;
        }
        let m = e.engine_metrics();
        assert_eq!(m.request_normalized_latency_seconds.count(), 1);
        assert!(m.request_normalized_latency_seconds.sum() > 0.0);
        assert_eq!(m.steps_total.get(), steps);
    }

    #[test]
    fn abort_request_mid_flight() {
        let mut e = engine(64, 0);
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(100))
            .unwrap();
        e.step().unwrap();
        e.abort_request("r0").unwrap();
        let outs = e.step().unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
        assert!(!e.has_unfinished());
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn empty_prompt_rejected() {
        let mut e = engine(64, 0);
        assert!(e
            .add_request("r0", vec![], SamplingParams::greedy(4))
            .is_err());
    }

    #[test]
    fn oversized_prompt_reported_ignored() {
        let mut e = engine(2, 0);
        e.add_request("r0", (0..1000).collect(), SamplingParams::greedy(4))
            .unwrap();
        let outs = e.step().unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
    }

    #[test]
    fn many_requests_all_complete() {
        let mut e = engine(128, 0);
        for i in 0..20 {
            e.add_request_at(
                format!("r{i}"),
                (0..(5 + i % 7) as u32).collect(),
                SamplingParams::greedy(3 + (i % 5) as usize),
                i as f64 * 0.01,
            )
            .unwrap();
        }
        let outs = e.run_to_completion().unwrap();
        assert_eq!(outs.len(), 20);
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 128);
        let m = e.engine_metrics();
        assert_eq!(m.request_normalized_latency_seconds.count(), 20);
    }
}
