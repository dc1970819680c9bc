//! One deterministic driver for every in-process fleet.
//!
//! [`Fleet`] drives N real engines — [`LlmEngine`]s behind a
//! [`FaultInjector`], built by a caller-supplied factory — under one router,
//! one request trace and an optional [`FaultPlan`], with no threads. It runs
//! one event loop. Each replica's clock is its engine's own; each request
//! carries a virtual *cursor* (its arrival, then the finish time of each
//! reply, plus any transfer or backoff since). Arrivals, fault events and
//! parked commands are injected once every busy replica's clock has reached
//! their time (idle replicas fast-forward to it); otherwise the loop steps
//! the busy replica furthest behind. Replicas interact only through the
//! router and the shared prefix tier — the independence a real fleet has —
//! so runs are reproducible bit for bit and policy comparisons (throughput
//! scaling, affinity hit rate, p99 latency) come out analytically.
//!
//! The executor sets the clock ([`FleetTime`]). Under the cost model
//! ([`SimExecutor`], [`sim_replica`]) a step costs its modeled latency and a
//! transfer its swap-bandwidth time. Under the lockstep clock
//! ([`MockExecutor`], [`lockstep_replica`]) every step costs one unit.
//!
//! Requests run through the same [`RequestFlow`] the TCP frontend runs: this
//! module decides nothing about a request's path. It performs the flow's
//! effects, executes its commands at the request's cursor and turns fault
//! events into the flow's failure inputs. `Submit`, `Transfer` and `Backoff`
//! park on one queue at the cursor and resume when the fleet's clocks get
//! there; a transfer whose target was killed meanwhile wakes as
//! `ReplicaDied`, so a mid-transfer kill restarts the attempt and delivery
//! stays exactly-once. A woken `Submit` is one replica message, as on a
//! replica thread: its install runs and the request is admitted at once, and
//! its export runs right after the step that finishes it. Neither executor
//! holds tensor content: the engines export and install empty-bodied
//! blocks, so installed and cached prefixes save prompt compute and occupy
//! free blocks.
//!
//! Under a plan the degradation machinery runs for real: bounded admission
//! (a full, draining or dead replica answers `Rejected` with a
//! `retry_after` hint), retry with re-routing under fresh engine ids
//! (`vllm_cluster_retries_total`), restart with drain (a live replica
//! drains first, a dead one returns at once; the fresh engine starts at the
//! fleet clock), and step-error recovery (an injected forward fault aborts
//! the replica's live groups and re-routes them). Fault events count in the
//! `vllm_fault_*` series and are recorded as instant spans on the fleet
//! clock, the time base of every span a fleet records.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vllm_baselines::types::StepWork;
use vllm_core::mock::MockExecutor;
use vllm_core::telemetry::{Counter, MetricsSnapshot, Span, Telemetry};
use vllm_core::{
    CacheConfig, FaultControls, FaultInjector, GenerationRequest, LatencyTracker, LlmEngine,
    ModelExecutor, PreemptionMode, RequestOutput, SchedulerConfig, TokenId, VllmError,
};
use vllm_sim::{sim_engine_parts, ServerConfig, SimExecutor};

use crate::config::ClusterConfig;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::flow::{
    backoff_seconds, FlowCommand, FlowEffect, FlowInput, HandoffMetrics, RequestFlow,
    MAX_SUBMIT_ATTEMPTS,
};
use crate::replica::{admit, Admitted, REJECT_RETRY_AFTER};
use crate::router::{ReplicaSnapshot, Router, RouterStats};
use crate::stats::merge_labeled;
use crate::tier::PrefixTier;

/// One request of a fleet trace.
#[derive(Debug, Clone)]
pub struct ClusterRequest {
    /// Request id (unique within the trace; also the sampling seed).
    pub id: u64,
    /// Arrival time on the fleet clock.
    pub arrival: f64,
    /// Prompt tokens (the router hashes their leading block chunks).
    pub prompt: Vec<TokenId>,
    /// Scripted output length in tokens.
    pub output_len: usize,
}

impl ClusterRequest {
    /// The typed generation request this trace entry describes: greedy
    /// decoding of the scripted length, seeded with the request id, never
    /// stopping early on EOS (so lengths stay scripted).
    #[must_use]
    pub fn request(&self) -> GenerationRequest {
        GenerationRequest::greedy(self.output_len)
            .with_ignore_eos()
            .with_seed(self.id)
    }
}

/// What a fleet's clock charges besides the engines' own steps (a step costs
/// what its engine's clock says). One impl per clock: the cost model's and
/// the lockstep mock's.
pub trait FleetTime: ModelExecutor {
    /// Time `blocks` KV blocks take over the interconnect to this replica.
    fn transfer_time(&self, blocks: usize) -> f64;
    /// Time a request waits after failed attempt `attempt`; `hint` is the
    /// error's own `retry_after`.
    fn backoff_time(&self, attempt: u32, hint: Option<f64>) -> f64;
}

/// The cost model: swap-bandwidth transfers, the frontend's backoff.
impl FleetTime for SimExecutor {
    fn transfer_time(&self, blocks: usize) -> f64 {
        let work = StepWork {
            swapped_blocks: blocks,
            ..StepWork::default()
        };
        self.cost.step_latency(&work) // nothing to move costs nothing
    }

    fn backoff_time(&self, attempt: u32, hint: Option<f64>) -> f64 {
        backoff_seconds(attempt, hint)
    }
}

/// Lockstep, in the mock's steps: a transfer takes two (a window for a fault
/// to land mid-transfer); backpressure (an error with a hint) backs off
/// 2^(attempt+1), capped at 16, and work lost with its replica or step
/// re-routes one step later.
impl FleetTime for MockExecutor {
    fn transfer_time(&self, _blocks: usize) -> f64 {
        2.0 * self.step_time
    }

    fn backoff_time(&self, attempt: u32, hint: Option<f64>) -> f64 {
        let steps = hint.map_or(1, |_| (1u32 << (attempt + 1).min(6)).min(16));
        f64::from(steps) * self.step_time
    }
}

/// A cost-model replica of a simulated Table 1 server
/// ([`sim_engine_parts`]) behind a fault injector with nothing armed (so it
/// passes every call through).
#[must_use]
pub fn sim_replica(
    server: ServerConfig,
    block_size: usize,
    preemption: PreemptionMode,
) -> LlmEngine<FaultInjector<SimExecutor>> {
    let (exec, cache, sched) = sim_engine_parts(server, block_size, preemption);
    LlmEngine::new(FaultInjector::new(exec, FaultControls::new()), cache, sched)
}

/// A lockstep replica: `exec` with every step costing one unit of fleet
/// time, on a small pool (64 GPU and 16 CPU blocks of 4 tokens), behind a
/// fault injector with nothing armed.
#[must_use]
pub fn lockstep_replica(mut exec: MockExecutor) -> LlmEngine<FaultInjector<MockExecutor>> {
    exec.step_time = 1.0;
    let cache = CacheConfig::new(4, 64, 16).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 2048).expect("valid scheduler config");
    LlmEngine::new(FaultInjector::new(exec, FaultControls::new()), cache, sched)
}

/// Outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Routing policy name.
    pub policy: &'static str,
    /// Whether the fleet ran with specialized prefill/decode roles.
    pub disaggregated: bool,
    /// Requests in the trace.
    pub num_requests: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests that finished with an error (attempts exhausted, or a
    /// failure that is not retryable).
    pub rejected: usize,
    /// Requests with no terminal outcome when the fleet drained (must be
    /// zero).
    pub lost: usize,
    /// Terminal outcomes beyond the first for one request (must be zero).
    pub duplicates: usize,
    /// Makespan: the latest replica clock when the fleet drained.
    pub duration: f64,
    /// Completed requests per unit of fleet time.
    pub throughput: f64,
    /// Mean normalized latency (§6.1: end-to-end time per output token) of
    /// the completed requests.
    pub norm_lat_mean: f64,
    /// Median normalized latency.
    pub norm_lat_p50: f64,
    /// 90th percentile normalized latency.
    pub norm_lat_p90: f64,
    /// 99th percentile normalized latency.
    pub norm_lat_p99: f64,
    /// Mean time to first token.
    pub ttft_mean: f64,
    /// Median time to first token.
    pub ttft_p50: f64,
    /// 99th percentile time to first token (the latency the prefill/decode
    /// split is meant to protect).
    pub ttft_p99: f64,
    /// The router's counters: placements, affinity and cache hits,
    /// failovers, retries, decode picks.
    pub router: RouterStats,
    /// `router.prefix_cache_hits / num_requests` (0 for an empty trace).
    pub cache_hit_rate: f64,
    /// Replica of each request's first placement, in placement order
    /// (determinism checks compare these across runs).
    pub assignments: Vec<(u64, usize)>,
    /// KV handoffs whose decode phase replied (`vllm_cluster_handoffs_total`).
    pub handoffs: u64,
    /// KV blocks those handoffs installed on decode replicas.
    pub handoff_blocks: u64,
    /// Handoff attempts that failed and were retried on a fresh route.
    pub handoff_retries: u64,
    /// Requests whose first prefix-tier lookup found a usable prefix (a
    /// retried attempt looks up again; that is not counted here).
    pub tier_hits: u64,
    /// Requests whose first prefix-tier lookup found nothing.
    pub tier_misses: u64,
    /// `tier_hits / (tier_hits + tier_misses)` (0 when the tier is off).
    pub tier_hit_rate: f64,
    /// Fault events that fired.
    pub faults_injected: u64,
    /// Replica kills that fired.
    pub kills: u64,
    /// Engine steps failed by an injected forward fault.
    pub forward_failures: u64,
    /// GPU blocks still allocated when the fleet drained, over every engine
    /// the run used — dead and replaced ones included (must be zero).
    pub leaked_blocks: usize,
    /// Order-independent hash of every request's terminal outcome and token
    /// streams; equal across runs ⇔ identical outputs.
    pub token_fingerprint: u64,
    /// Replica messages (submissions) sent by each request that completed
    /// on its first attempt, as `(two-phase, messages) → requests`.
    pub replica_messages: BTreeMap<(bool, u32), usize>,
}

/// One replica slot.
struct Slot<E: ModelExecutor> {
    engine: LlmEngine<FaultInjector<E>>,
    alive: bool,
    draining: bool,
    /// Engine-side id → what was admitted here, waited on by its trace
    /// request id.
    inflight: HashMap<String, Admitted<u64>>,
}

impl<E: ModelExecutor> Slot<E> {
    fn new(engine: LlmEngine<FaultInjector<E>>) -> Self {
        Self {
            engine,
            alive: true,
            draining: false,
            inflight: HashMap::new(),
        }
    }

    /// Busy: alive with work to step.
    fn busy(&self) -> bool {
        self.alive && self.engine.has_unfinished()
    }

    /// The executor under the fault injector (what prices fleet time).
    fn exec(&self) -> &E {
        self.engine.executor().inner()
    }

    fn used_blocks(&self) -> usize {
        let bm = self.engine.scheduler().block_manager();
        bm.num_total_gpu_blocks() - bm.num_free_gpu_blocks()
    }
}

/// One request in flight through its flow.
struct Active {
    flow: RequestFlow,
    arrival: f64,
    cursor: f64,
    ttft_seen: bool,
    /// Submissions sent so far.
    messages: u32,
}

/// Per-run bookkeeping.
#[derive(Default)]
struct Run {
    active: HashMap<u64, Active>,
    /// Commands waiting for the fleet's clocks to reach their request's
    /// cursor, `(at, request id, Submit | Transfer | Backoff)`, latest
    /// first.
    parked: Vec<(f64, u64, FlowCommand)>,
    /// Terminal outcomes: a completed request's token streams, or `None`.
    outcomes: BTreeMap<u64, Option<Vec<Vec<TokenId>>>>,
    duplicates: usize,
    latency: LatencyTracker,
    ttfts: Vec<f64>,
    assignments: Vec<(u64, usize)>,
    /// First-attempt tier lookups: `[misses, hits]`.
    tier_lookups: [u64; 2],
    replica_messages: BTreeMap<(bool, u32), usize>,
}

/// Fault counters on the fleet-level telemetry.
struct FaultCounters {
    injected: Counter,
    kills: Counter,
    forward_failures: Counter,
    swap_exhaustions: Counter,
    pool_pressures: Counter,
    prefill_stalls: Counter,
}

/// N engines behind one router, driven by one event loop. See the module
/// docs.
pub struct Fleet<E: FleetTime> {
    slots: Vec<Slot<E>>,
    factory: Box<dyn FnMut() -> LlmEngine<FaultInjector<E>>>,
    router: Router,
    tier: Option<PrefixTier>,
    disaggregated: bool,
    max_inflight: usize,
    block_size: usize,
    telemetry: Arc<Telemetry>,
    handoff: HandoffMetrics,
    faults: FaultCounters,
    /// Spans and metrics of engines a restart replaced, `(replica, spans,
    /// metrics)`, so a replaced generation's failed attempts stay in the
    /// trace and its samples in the merged snapshot.
    archived: Vec<(usize, Vec<Span>, MetricsSnapshot)>,
    /// Span-log drops and allocated blocks of the replaced engines.
    archived_drops: u64,
    archived_leaks: usize,
    /// Longest prompt of the current trace ([`FaultKind::StallPrefill`]'s
    /// budget).
    max_prompt_len: usize,
    st: Run,
}

/// The router's per-replica view. Coverage is read fresh: a replica's block
/// index moves with nearly every step it takes between routes.
fn snapshots<E: ModelExecutor>(slots: &[Slot<E>]) -> Vec<ReplicaSnapshot> {
    slots
        .iter()
        .map(|s| ReplicaSnapshot {
            load: s.engine.load_snapshot(),
            coverage: Arc::new(s.engine.prefix_coverage()),
        })
        .collect()
}

/// Steps `engine` once; debug builds then check its block accounting
/// exactly, so every fleet test checks it at every step.
fn step<E: ModelExecutor>(engine: &mut LlmEngine<E>) -> vllm_core::Result<Vec<RequestOutput>> {
    let outs = engine.step();
    #[cfg(debug_assertions)]
    engine.scheduler().block_manager().assert_consistent();
    outs
}

impl<E: FleetTime> Fleet<E> {
    /// A fleet shaped by `cfg` (roles, routing, admission bound, tier
    /// capacity) whose replicas `factory` builds — once each now, and again
    /// for every restart.
    pub fn new(
        cfg: &ClusterConfig,
        mut factory: impl FnMut() -> LlmEngine<FaultInjector<E>> + 'static,
    ) -> Self {
        let n = cfg.num_replicas();
        let slots: Vec<Slot<E>> = (0..n).map(|_| Slot::new(factory())).collect();
        let block_size = slots[0].engine.cache_config().block_size;
        let telemetry = Arc::new(Telemetry::new());
        let mut router = Router::new(cfg.router, n);
        router.attach_telemetry(&telemetry);
        router.set_roles(cfg.roles.clone());
        let r = telemetry.registry();
        let faults = FaultCounters {
            injected: r.counter("vllm_fault_injected_total", "Fault events fired."),
            kills: r.counter("vllm_fault_kills_total", "Replica kills fired."),
            forward_failures: r.counter(
                "vllm_fault_forward_failures_total",
                "Engine steps failed by an injected forward fault.",
            ),
            swap_exhaustions: r.counter(
                "vllm_fault_swap_exhaustions_total",
                "Swap-pool exhaustion events fired.",
            ),
            pool_pressures: r.counter(
                "vllm_fault_pool_pressure_total",
                "Elastic pool-deflation events fired.",
            ),
            prefill_stalls: r.counter(
                "vllm_fault_prefill_stalls_total",
                "Chunked-prefill stall events fired.",
            ),
        };
        Self {
            slots,
            factory: Box::new(factory),
            tier: (cfg.prefix_tier_blocks > 0)
                .then(|| PrefixTier::new(cfg.prefix_tier_blocks, block_size, &telemetry)),
            handoff: HandoffMetrics::attach(&telemetry),
            router,
            disaggregated: cfg.is_disaggregated(),
            max_inflight: cfg.max_inflight,
            block_size,
            telemetry,
            faults,
            archived: Vec::new(),
            archived_drops: 0,
            archived_leaks: 0,
            max_prompt_len: 1,
            st: Run::default(),
        }
    }

    /// Warms a shared prefix into one replica's block cache (the router's
    /// coverage view picks it up).
    ///
    /// # Panics
    ///
    /// Panics if the prefix does not fit the replica's free pool.
    pub fn register_prefix(&mut self, replica: usize, tokens: &[TokenId]) {
        let engine = &mut self.slots[replica].engine;
        engine.register_prefix(tokens).expect("prefix fits");
    }

    /// The router (policy, liveness, counters).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The fleet-level telemetry: router, handoff, tier and fault counters,
    /// and the handoff and fault spans.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One merged snapshot: per-replica engine metrics under
    /// `{replica="i"}` labels — replaced engines under `{replica="i.genG"}`,
    /// so their samples still count — plus the unlabeled fleet counters.
    #[must_use]
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut parts: Vec<(String, MetricsSnapshot)> = (self.slots.iter().enumerate())
            .map(|(i, s)| (i.to_string(), s.engine.metrics_snapshot()))
            .collect();
        parts.extend(
            (self.archived.iter().enumerate())
                .map(|(g, (i, _, snap))| (format!("{i}.gen{g}"), snap.clone())),
        );
        let mut merged = merge_labeled(&parts);
        merged
            .metrics
            .extend(self.telemetry.registry().snapshot().metrics);
        merged.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }

    /// Every engine span, keyed by replica index: replaced engines first (in
    /// replacement order), then the live ones. Fleet-level spans (handoffs,
    /// fault events) live in [`telemetry`](Self::telemetry).
    #[must_use]
    pub fn all_spans(&self) -> Vec<(usize, Vec<Span>)> {
        let archived = self.archived.iter().map(|(i, s, _)| (*i, s.clone()));
        let live = (self.slots.iter().enumerate())
            .map(|(i, s)| (i, s.engine.telemetry().spans().snapshot()));
        archived.chain(live).collect()
    }

    /// Span-log drops across the fleet: live engines, replaced engines and
    /// the fleet-level log. Zero means no span was lost to eviction.
    #[must_use]
    pub fn span_log_drops(&self) -> u64 {
        let live: u64 = (self.slots.iter())
            .map(|s| s.engine.telemetry().spans().total_dropped())
            .sum();
        self.archived_drops + self.telemetry.spans().total_dropped() + live
    }

    /// Runs `requests` to completion while `plan` (if any) fires, and
    /// reports. Every request ends completed or rejected; the report counts
    /// any that did not (`lost`) or ended twice (`duplicates`). The run ends
    /// when the last request has and every replica is idle: a plan event
    /// that was not yet due when the fleet's last step began never fires,
    /// even one timed inside that step (a restart there leaves its replica
    /// dead in the router).
    pub fn run(
        &mut self,
        plan: Option<&FaultPlan>,
        mut requests: Vec<ClusterRequest>,
    ) -> FleetReport {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let events = plan.map_or(&[][..], |p| &p.events[..]);
        self.max_prompt_len = requests.iter().map(|r| r.prompt.len()).max().unwrap_or(1);
        self.st = Run::default();
        let (mut next_event, mut next_arrival) = (0, 0);
        loop {
            let behind = (0..self.slots.len())
                .filter(|&i| self.slots[i].busy())
                .min_by(|&a, &b| self.clock(a).total_cmp(&self.clock(b)));
            // Drained: a fault event still pending was not due when the last
            // step began, so it does not fire.
            if behind.is_none() && self.st.active.is_empty() && next_arrival == requests.len() {
                break;
            }
            // The earliest pending injection; at a tie a fault event goes
            // first, then a parked command (a request already in the fleet
            // moves before new work lands), then an arrival. It is due when
            // no busy replica's pending step precedes it.
            let due = [
                events.get(next_event).map(|e| (e.at, 0)),
                self.st.parked.last().map(|p| (p.0, 1)),
                requests.get(next_arrival).map(|r| (r.arrival, 2)),
            ]
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .filter(|&(at, _)| behind.is_none_or(|i| at <= self.clock(i)));
            match (due, behind) {
                (Some((_, 0)), _) => {
                    self.fire(&events[next_event]);
                    next_event += 1;
                }
                (Some((_, 1)), _) => {
                    let (at, id, cmd) = self.st.parked.pop().expect("due");
                    self.wake(at, id, cmd);
                }
                (Some(_), _) => {
                    self.start(&requests[next_arrival]);
                    next_arrival += 1;
                }
                (None, Some(i)) => self.step_replica(i),
                (None, None) => break,
            }
        }
        self.report(requests.len())
    }

    fn clock(&self, i: usize) -> f64 {
        self.slots[i].engine.clock()
    }

    fn start(&mut self, r: &ClusterRequest) {
        let flow = RequestFlow::new(
            r.id.to_string(),
            r.prompt.clone(),
            r.request(),
            self.block_size,
            self.disaggregated,
            MAX_SUBMIT_ATTEMPTS,
        );
        let active = Active {
            flow,
            arrival: r.arrival,
            cursor: r.arrival,
            ttft_seen: false,
            messages: 0,
        };
        self.st.active.insert(r.id, active);
        self.drive(r.id, FlowInput::Start);
    }

    /// Resumes a parked command at `at`: installs and admits a `Submit`,
    /// ends a `Backoff`, lands a `Transfer` — or reports its target dead.
    fn wake(&mut self, at: f64, id: u64, cmd: FlowCommand) {
        let (replica, job) = match cmd {
            FlowCommand::Submit { replica, job } => (replica, job),
            FlowCommand::Transfer { replica, .. } if !self.slots[replica].alive => {
                return self.drive(id, FlowInput::ReplicaDied { replica });
            }
            _ => return self.drive(id, FlowInput::Done),
        };
        let slot = &mut self.slots[replica];
        // Dead (only routed to when its whole pool is), draining or full:
        // backpressure, as a real replica answers it.
        if !slot.alive || slot.draining || slot.inflight.len() >= self.max_inflight {
            let e = VllmError::Rejected {
                retry_after: REJECT_RETRY_AFTER,
            };
            return self.drive(id, FlowInput::Reply(Err(e)));
        }
        slot.engine.advance_clock_to(at);
        match admit(&mut slot.engine, job, at, id) {
            Ok((engine_id, admitted)) => drop(slot.inflight.insert(engine_id, admitted)),
            Err(e) => self.drive(id, FlowInput::Reply(Err(e))),
        }
    }

    /// Advances request `id`'s flow with `input`, executing its commands at
    /// the request's cursor until one parks it, its replica admits it, or it
    /// finishes.
    fn drive(&mut self, id: u64, mut input: FlowInput) {
        loop {
            let st = &mut self.st;
            let a = st.active.get_mut(&id).expect("flow exists while driven");
            let (effects, cmd) = a.flow.on(input, a.cursor);
            for effect in effects {
                match effect {
                    FlowEffect::PublishTier { tokens, blocks } => {
                        if let Some(tier) = &mut self.tier {
                            tier.publish(&tokens, blocks);
                        }
                    }
                    seen => self.handoff.observe(self.telemetry.spans(), &seen),
                }
            }
            input = match cmd {
                FlowCommand::Route => {
                    let replica = a.flow.route(&mut self.router, &snapshots(&self.slots));
                    if a.flow.attempt() == 0 {
                        st.assignments.push((id, replica));
                    }
                    FlowInput::Routed { replica }
                }
                FlowCommand::RouteDecode => FlowInput::Routed {
                    replica: a
                        .flow
                        .route_decode(&mut self.router, &snapshots(&self.slots)),
                },
                // A hit is fetched over the interconnect. The report counts
                // each request's first lookup only.
                FlowCommand::TierLookup { replica, tokens } => {
                    let hit = self.tier.as_mut().and_then(|t| t.fetch(&tokens));
                    if let Some((_, blocks)) = &hit {
                        a.cursor += self.slots[replica].exec().transfer_time(blocks.len());
                    }
                    if a.flow.attempt() == 0 && self.tier.is_some() {
                        st.tier_lookups[usize::from(hit.is_some())] += 1;
                    }
                    FlowInput::Tier(hit)
                }
                // One park rule: the command waits at the cursor.
                cmd @ (FlowCommand::Submit { .. }
                | FlowCommand::Transfer { .. }
                | FlowCommand::Backoff { .. }) => {
                    a.messages += u32::from(matches!(cmd, FlowCommand::Submit { .. }));
                    a.cursor += match cmd {
                        FlowCommand::Transfer { replica, blocks } => {
                            self.slots[replica].exec().transfer_time(blocks)
                        }
                        // Every replica comes from one factory: any prices it.
                        FlowCommand::Backoff { attempt, hint } => {
                            self.slots[0].exec().backoff_time(attempt, hint)
                        }
                        _ => 0.0,
                    };
                    let key = (a.cursor, id);
                    let pos = st.parked.partition_point(|p| (p.0, p.1) > key);
                    return st.parked.insert(pos, (a.cursor, id, cmd));
                }
                FlowCommand::Finish(result) => {
                    let arrival = a.arrival;
                    if a.flow.attempt() == 0 && result.is_ok() {
                        let key = (a.flow.is_two_phase(), a.messages);
                        *st.replica_messages.entry(key).or_default() += 1;
                    }
                    st.active.remove(&id);
                    let tokens = result.ok().map(|out| {
                        st.latency
                            .record(arrival, out.finish_time, out.mean_output_len());
                        out.outputs.into_iter().map(|c| c.tokens).collect()
                    });
                    if st.outcomes.insert(id, tokens).is_some() {
                        st.duplicates += 1;
                    }
                    return;
                }
            };
        }
    }

    /// Runs one step on replica `i` and feeds its replies to their flows.
    fn step_replica(&mut self, i: usize) {
        let engine = &mut self.slots[i].engine;
        let before = engine.clock();
        let outs = match step(engine) {
            Ok(outs) => outs,
            Err(e) => {
                // Injected forward fault: abort everything live (exact block
                // accounting), reap, and re-route the affected flows.
                self.faults.forward_failures.inc();
                if engine.abort_all().is_ok() {
                    let _ = step(engine);
                }
                let e = VllmError::Unavailable(format!("engine step failed: {e}"));
                return self.fail_inflight(i, before, |_| FlowInput::Reply(Err(e.clone())));
            }
        };
        // A step that ran nothing still moves the clock, so the loop moves.
        engine.advance_clock_to(before + 1e-9);
        for o in outs {
            // Outputs of aborted attempts have no flow waiting.
            let Some(admitted) = self.slots[i].inflight.remove(&o.request_id) else {
                continue;
            };
            let (id, replied) = admitted.reply(&self.slots[i].engine, o);
            let a = self.st.active.get_mut(&id).expect("in flight");
            a.cursor = replied.output.finish_time;
            // The first reply with a token closes TTFT: the unified run's,
            // or the prefill stub's.
            if let (false, Some(first)) = (a.ttft_seen, replied.output.first_token_time) {
                a.ttft_seen = true;
                self.st.ttfts.push(first - a.arrival);
            }
            self.drive(id, FlowInput::Reply(Ok(replied)));
        }
        if self.slots[i].draining && !self.slots[i].engine.has_unfinished() {
            self.replace(i, self.clock(i));
        }
    }

    /// Wakes every flow in flight on replica `i` with a failure input at
    /// `now` (sorted, so the re-routes are deterministic).
    fn fail_inflight(&mut self, i: usize, now: f64, input: impl Fn(usize) -> FlowInput) {
        let mut ids: Vec<u64> = self.slots[i]
            .inflight
            .drain()
            .map(|(_, a)| a.waiter)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let a = self.st.active.get_mut(&id).expect("in flight");
            a.cursor = a.cursor.max(now);
            self.drive(id, input(i));
        }
    }

    /// Swaps a fresh engine into slot `i`, starting at fleet time `at`, and
    /// archives the old one's telemetry and allocated blocks.
    fn replace(&mut self, i: usize, at: f64) {
        let old = &self.slots[i];
        let spans = old.engine.telemetry().spans();
        self.archived_drops += spans.total_dropped();
        self.archived_leaks += old.used_blocks();
        (self.archived).push((i, spans.snapshot(), old.engine.metrics_snapshot()));
        let mut engine = (self.factory)();
        engine.advance_clock_to(at);
        self.slots[i] = Slot::new(engine);
        self.router.mark_alive(i);
    }

    /// Fires one fault event at its time.
    fn fire(&mut self, e: &FaultEvent) {
        let (at, i) = (e.at, e.replica);
        self.faults.injected.inc();
        let name = match e.kind {
            FaultKind::KillReplica => "fault.kill",
            FaultKind::RestartReplica => "fault.restart",
            FaultKind::StallReplica { .. } => "fault.stall",
            FaultKind::StallPrefill { .. } => "fault.stall_prefill",
            FaultKind::FailForwards { .. } => "fault.fail_forwards",
            FaultKind::ExhaustSwap => "fault.exhaust_swap",
            FaultKind::RestoreSwap => "fault.restore_swap",
            FaultKind::DelayCacheOps { .. } => "fault.delay_cache_ops",
            FaultKind::PoolPressure { .. } => "fault.pool_pressure",
            FaultKind::RestorePool => "fault.restore_pool",
        };
        self.telemetry.spans().record(Span {
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            name: name.to_string(),
            start: at,
            end: at,
            attrs: vec![("replica".to_string(), i.to_string())],
        });
        let slot = &mut self.slots[i];
        let controls = Arc::clone(slot.engine.executor().controls());
        match e.kind {
            FaultKind::KillReplica if slot.alive => {
                self.faults.kills.inc();
                self.router.mark_dead(i);
                (slot.alive, slot.draining) = (false, false);
                // Abort and reap once, so the killed attempts' spans land in
                // the log (the outputs are discarded); then every flow in
                // flight here learns of the death and re-routes.
                if slot.engine.abort_all().is_ok() {
                    let _ = step(&mut slot.engine);
                }
                self.fail_inflight(i, at, |replica| FlowInput::ReplicaDied { replica });
            }
            FaultKind::KillReplica => {}
            // A live replica with work drains first (no new traffic); the
            // step loop swaps its engine once idle.
            FaultKind::RestartReplica if slot.busy() => {
                slot.draining = true;
                self.router.mark_dead(i);
            }
            FaultKind::RestartReplica => self.replace(i, at),
            FaultKind::StallReplica { steps } => {
                let resume = slot.engine.clock().max(at) + steps as f64;
                slot.engine.advance_clock_to(resume);
            }
            FaultKind::StallPrefill { chunks } => {
                self.faults.prefill_stalls.inc();
                let budget = self.max_prompt_len.div_ceil((chunks as usize).max(1));
                slot.engine.set_step_token_budget(budget);
            }
            FaultKind::FailForwards { count } => controls.fail_next_forwards(count),
            FaultKind::ExhaustSwap => {
                self.faults.swap_exhaustions.inc();
                slot.engine.set_swap_disabled(true);
            }
            FaultKind::RestoreSwap => slot.engine.set_swap_disabled(false),
            FaultKind::DelayCacheOps { seconds_per_op } => {
                controls.set_cache_op_delay(seconds_per_op);
            }
            FaultKind::PoolPressure { fraction } => {
                self.faults.pool_pressures.inc();
                // deflate_pool clamps to the live working set, so the only
                // failure mode is corrupted accounting — surfaced loudly.
                (slot.engine.deflate_pool(fraction))
                    .expect("pool deflation must always find a feasible size");
            }
            FaultKind::RestorePool => (slot.engine.restore_pool())
                .expect("pool restoration grows back to the configured size"),
        }
    }

    fn report(&mut self, num_requests: usize) -> FleetReport {
        let Run {
            outcomes,
            duplicates,
            latency,
            mut ttfts,
            assignments,
            tier_lookups: [tier_misses, tier_hits],
            replica_messages,
            ..
        } = std::mem::take(&mut self.st);
        ttfts.sort_by(f64::total_cmp);
        let ttft_pct = |p: f64| {
            let idx = ((p / 100.0) * ttfts.len().saturating_sub(1) as f64).round() as usize;
            ttfts.get(idx).copied().unwrap_or(0.0)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let completed = outcomes.values().filter(|o| o.is_some()).count();
        let duration = (0..self.slots.len())
            .map(|i| self.clock(i))
            .fold(0.0, f64::max);
        let router = self.router.stats().clone();
        let norm_lat = |p: f64| latency.percentile_normalized_latency(p).unwrap_or(0.0);
        FleetReport {
            policy: self.router.config().policy.name(),
            disaggregated: self.disaggregated,
            num_requests,
            completed,
            rejected: outcomes.len() - completed,
            lost: num_requests - outcomes.len(),
            duplicates,
            duration,
            throughput: ratio(latency.num_requests() as f64, duration),
            norm_lat_mean: latency.mean_normalized_latency().unwrap_or(0.0),
            norm_lat_p50: norm_lat(50.0),
            norm_lat_p90: norm_lat(90.0),
            norm_lat_p99: norm_lat(99.0),
            ttft_mean: ratio(ttfts.iter().sum(), ttfts.len() as f64),
            ttft_p50: ttft_pct(50.0),
            ttft_p99: ttft_pct(99.0),
            cache_hit_rate: ratio(router.prefix_cache_hits as f64, num_requests as f64),
            router,
            assignments,
            handoffs: self.handoff.handoffs.get(),
            handoff_blocks: self.handoff.blocks.get(),
            handoff_retries: self.handoff.retries.get(),
            tier_hits,
            tier_misses,
            tier_hit_rate: ratio(tier_hits as f64, (tier_hits + tier_misses) as f64),
            faults_injected: self.faults.injected.get(),
            kills: self.faults.kills.get(),
            forward_failures: self.faults.forward_failures.get(),
            leaked_blocks: self.archived_leaks
                + self.slots.iter().map(Slot::used_blocks).sum::<usize>(),
            token_fingerprint: fingerprint(&outcomes),
            replica_messages,
        }
    }
}

/// Order-independent FNV-1a fingerprint of every terminal outcome.
fn fingerprint(outcomes: &BTreeMap<u64, Option<Vec<Vec<TokenId>>>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (&id, outcome) in outcomes {
        mix(id);
        match outcome {
            Some(tokens) => {
                mix(1);
                for seq in tokens {
                    mix(seq.len() as u64);
                    seq.iter().for_each(|&t| mix(u64::from(t)));
                }
            }
            None => mix(2),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutePolicy;
    use vllm_core::telemetry::{trace_seed, TraceContext};
    use vllm_sim::sim_prompt_tokens;

    fn sim_fleet(cfg: &ClusterConfig) -> Fleet<SimExecutor> {
        Fleet::new(cfg, || {
            let mut server = ServerConfig::opt_13b_1gpu();
            server.gpu.mem_bytes_per_gpu = 28.5e9; // ~1.3K KV slots.
            sim_replica(server, 16, PreemptionMode::Recompute)
        })
    }

    /// A lockstep fleet; `seq_invariant` mocks script tokens from the seed
    /// and position alone, so any placement yields the same streams.
    fn mock_fleet(cfg: &ClusterConfig, seq_invariant: bool) -> Fleet<MockExecutor> {
        Fleet::new(cfg, move || {
            let mock = MockExecutor::new(1000);
            lockstep_replica(if seq_invariant {
                mock.seq_invariant()
            } else {
                mock
            })
        })
    }

    fn policy(n: usize, policy: RoutePolicy) -> ClusterConfig {
        ClusterConfig::new(n).with_policy(policy)
    }

    fn sim_trace(n: u64, rate: f64) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival: i as f64 / rate,
                prompt: sim_prompt_tokens(i, 64),
                output_len: 24,
            })
            .collect()
    }

    fn prompt(id: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| 1 + ((id * 31 + i as u64 * 7) % 997) as u32)
            .collect()
    }

    fn trace(n: u64, per_step: f64) -> Vec<ClusterRequest> {
        trace_of(n, per_step, |i| prompt(i, 16))
    }

    fn trace_of(n: u64, per_step: f64, prompt_of: impl Fn(u64) -> Vec<u32>) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival: i as f64 / per_step,
                prompt: prompt_of(i),
                output_len: 12,
            })
            .collect()
    }

    /// Exactly-once delivery of every request, nothing leaked.
    fn assert_exactly_once(r: &FleetReport) {
        assert_eq!(r.completed, r.num_requests, "every request completes");
        assert_eq!((r.lost, r.duplicates, r.rejected), (0, 0, 0));
        assert_eq!(r.leaked_blocks, 0, "no block may outlive its request");
    }

    #[test]
    fn cluster_finishes_every_request() {
        let mut fleet = sim_fleet(&policy(2, RoutePolicy::JoinShortestQueue));
        let report = fleet.run(None, sim_trace(12, 2.0));
        assert_exactly_once(&report);
        assert_eq!(report.router.routed.iter().sum::<u64>(), 12);
        assert!(report.throughput > 0.0);
        assert!(report.norm_lat_p99 >= report.norm_lat_p50);
    }

    #[test]
    fn affinity_routes_to_prefix_holder() {
        let mut fleet = sim_fleet(&policy(2, RoutePolicy::PrefixAffinity));
        // Replica 1 holds a 32-token (two-block) shared prefix.
        let prefix = sim_prompt_tokens(999, 32);
        fleet.register_prefix(1, &prefix);
        let reqs: Vec<ClusterRequest> = (0..6)
            .map(|i| ClusterRequest {
                id: i,
                arrival: i as f64,
                prompt: [prefix.clone(), sim_prompt_tokens(i, 32)].concat(),
                output_len: 8,
            })
            .collect();
        let report = fleet.run(None, reqs);
        assert_eq!(report.completed, 6);
        assert_eq!(report.router.affinity_hits, 6);
        assert_eq!(report.router.prefix_cache_hits, 6);
        assert_eq!(report.router.routed, vec![0, 6]);
        // The router counters round-trip through the merged exposition.
        let merged = fleet.merged_snapshot();
        assert_eq!(
            merged.counter("vllm_cluster_requests_routed_total"),
            Some(6)
        );
        assert_eq!(merged.counter("vllm_cluster_affinity_hits_total"), Some(6));
        let text = merged.to_prometheus_text();
        let parsed = MetricsSnapshot::from_prometheus_text(&text).expect("parses");
        assert_eq!(parsed, merged);
    }

    #[test]
    fn disaggregated_fleet_hands_off_and_reuses_tier() {
        let cfg = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(256);
        let mut fleet = sim_fleet(&cfg);
        // Turn 1 of a conversation, then a follow-up turn that extends the
        // full prior context (ShareGPT-style multi-turn).
        let base = sim_prompt_tokens(0, 64);
        let follow = [base.clone(), sim_prompt_tokens(1, 32)].concat();
        let reqs = [(0.0, base), (50.0, follow)]
            .into_iter()
            .enumerate()
            .map(|(id, (arrival, prompt))| ClusterRequest {
                id: id as u64,
                arrival,
                prompt,
                output_len: 8,
            })
            .collect();
        let report = fleet.run(None, reqs);
        assert!(report.disaggregated);
        assert_eq!(report.completed, 2);
        assert_eq!(report.handoffs, 2);
        assert!(report.handoff_blocks > 0);
        // New requests land only on prefill replicas; handoffs only on
        // decode replicas.
        let stats = &report.router;
        assert_eq!(stats.routed[2] + stats.routed[3], 0);
        assert_eq!(stats.decode_routed.iter().sum::<u64>(), 2);
        assert_eq!(stats.decode_routed[0] + stats.decode_routed[1], 0);
        // The follow-up turn found turn 1's KV in the shared tier.
        assert_eq!(report.tier_hits, 1);
        assert!(report.tier_hit_rate > 0.0);
        assert!(report.ttft_p99 > 0.0);
        assert!(report.ttft_p50 <= report.ttft_p99);
        // Nothing was ever pinned — installs and finished requests leave
        // their KV in free blocks: zero leaks fleet-wide (and every step
        // checked the accounting).
        assert_eq!(report.leaked_blocks, 0);
        // Turn 1's 64-token prompt is block-aligned, so its cut is 3 blocks
        // (published, and shipped to decode); turn 2 installs those 3 from
        // the tier and computes the rest of its 5-block cut, of which the
        // decode replica — the one that decoded turn 1, whose 64 prompt + 8
        // generated tokens left 4 full blocks cached — is sent the last one.
        assert_eq!(report.handoff_blocks, 3 + 1);
        // Handoff + tier counters round-trip through the merged exposition.
        let merged = fleet.merged_snapshot();
        assert_eq!(merged.counter("vllm_cluster_handoffs_total"), Some(2));
        assert_eq!(merged.counter("vllm_prefix_tier_hits_total"), Some(1));
        assert_eq!(
            merged.counter("vllm_cluster_handoff_tier_installs_total"),
            Some(1)
        );
    }

    #[test]
    fn disaggregated_runs_are_deterministic() {
        let run = || {
            let cfg = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(128);
            sim_fleet(&cfg).run(None, sim_trace(10, 4.0))
        };
        let report = run();
        assert_exactly_once(&report);
        assert_eq!(report, run());
    }

    #[test]
    fn unified_fleet_reports_ttft() {
        let mut fleet = sim_fleet(&policy(2, RoutePolicy::JoinShortestQueue));
        let report = fleet.run(None, sim_trace(8, 2.0));
        assert!(!report.disaggregated);
        assert_eq!(report.handoffs, 0);
        assert!(report.ttft_mean > 0.0);
        assert!(report.ttft_p50 <= report.ttft_p99);
        assert_eq!(report.tier_hits + report.tier_misses, 0);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let cfg = policy(2, RoutePolicy::JoinShortestQueue);
        let run = || sim_fleet(&cfg).run(None, sim_trace(10, 4.0));
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_fault_runs_are_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed, 3, 40);
            mock_fleet(&ClusterConfig::new(3), false).run(Some(&plan), trace(24, 2.0))
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the identical report");
        assert_eq!(a.lost, 0);
        assert_eq!(a.duplicates, 0);
        assert_eq!(a.completed + a.rejected, a.num_requests);
        assert_eq!(a.leaked_blocks, 0);
        // A different seed yields a different plan.
        assert_ne!(
            FaultPlan::seeded(7, 3, 40),
            FaultPlan::seeded(8, 3, 40),
            "plans must depend on the seed"
        );
    }

    #[test]
    fn killing_a_replica_mid_decode_loses_zero_requests() {
        let plan = FaultPlan::new(0).with_event(4.0, 0, FaultKind::KillReplica);
        let mut fleet = mock_fleet(&policy(3, RoutePolicy::RoundRobin), false);
        let report = fleet.run(Some(&plan), trace(18, 3.0));
        assert_eq!(report.kills, 1);
        assert_eq!(report.lost, 0, "no request may vanish with its replica");
        assert_eq!(report.duplicates, 0, "no request may complete twice");
        assert_eq!(report.completed, 18, "capacity is ample: all complete");
        assert!(
            report.router.retries > 0,
            "in-flight work must have been re-routed"
        );
        assert_eq!(report.leaked_blocks, 0);
        assert_eq!(fleet.router().num_alive(), 2);
        // Fault and retry counters surface in the merged exposition.
        let merged = fleet.merged_snapshot();
        assert_eq!(merged.counter("vllm_fault_kills_total"), Some(1));
        assert_eq!(
            merged.counter("vllm_cluster_retries_total"),
            Some(report.router.retries)
        );
        let text = merged.to_prometheus_text();
        assert!(text.contains("vllm_fault_injected_total"));
    }

    #[test]
    fn restart_after_kill_restores_the_fleet() {
        let plan = FaultPlan::new(0)
            .with_event(3.0, 1, FaultKind::KillReplica)
            .with_event(10.0, 1, FaultKind::RestartReplica);
        let mut fleet = mock_fleet(&ClusterConfig::new(2), false);
        let report = fleet.run(Some(&plan), trace(16, 1.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 16);
        assert_eq!(fleet.router().num_alive(), 2, "restart rejoins the fleet");
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn events_after_the_drain_do_not_fire() {
        // The trace drains within a few dozen steps; a stall and a kill
        // timed long after it must neither fire nor stretch the clock.
        let plan = FaultPlan::new(0)
            .with_event(500.0, 0, FaultKind::StallReplica { steps: 10 })
            .with_event(1000.0, 1, FaultKind::KillReplica);
        let mut fleet = mock_fleet(&ClusterConfig::new(2), false);
        let report = fleet.run(Some(&plan), trace(8, 2.0));
        assert_exactly_once(&report);
        assert_eq!((report.faults_injected, report.kills), (0, 0));
        assert!(report.duration < 100.0, "drained at {}", report.duration);
        assert_eq!(fleet.router().num_alive(), 2);
    }

    #[test]
    fn swap_exhaustion_degrades_without_losing_requests() {
        let plan = FaultPlan::new(0)
            .with_event(1.0, 0, FaultKind::ExhaustSwap)
            .with_event(1.0, 1, FaultKind::ExhaustSwap);
        let mut fleet = mock_fleet(&ClusterConfig::new(2), false);
        let report = fleet.run(Some(&plan), trace(20, 4.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 20);
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn forward_failures_are_retried_elsewhere() {
        let plan = FaultPlan::new(0).with_event(2.0, 0, FaultKind::FailForwards { count: 2 });
        let mut fleet = mock_fleet(&policy(2, RoutePolicy::RoundRobin), false);
        let report = fleet.run(Some(&plan), trace(10, 2.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 10);
        assert!(report.forward_failures > 0);
        assert!(report.router.retries > 0);
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn kill_archives_spans_and_metrics_and_keeps_sibling_attempts() {
        let plan = FaultPlan::new(0)
            .with_event(4.0, 0, FaultKind::KillReplica)
            .with_event(20.0, 0, FaultKind::RestartReplica);
        let mut fleet = mock_fleet(&policy(2, RoutePolicy::RoundRobin), false);
        let report = fleet.run(Some(&plan), trace(12, 2.0));
        assert_eq!(report.lost, 0);
        assert!(
            report.router.retries > 0,
            "the kill must re-route in-flight work"
        );

        // The killed engine's spans survive the restart via the archive,
        // and a re-routed request's attempts are siblings: same trace,
        // same parent, different span ids.
        let all = fleet.all_spans();
        let mut attempts: HashMap<u64, Vec<Span>> = HashMap::new();
        for (_, spans) in &all {
            for s in spans.iter().filter(|s| s.name == "attempt") {
                attempts.entry(s.trace_id).or_default().push(s.clone());
            }
        }
        let retried = attempts
            .values()
            .find(|a| a.len() >= 2)
            .expect("some request must have attempt spans on two engines");
        assert!(retried
            .iter()
            .all(|a| a.parent_span_id == retried[0].parent_span_id));
        assert_ne!(retried[0].span_id, retried[1].span_id);

        // Archived metrics are labeled by generation in the merged
        // snapshot, so killed-engine samples still count.
        let merged = fleet.merged_snapshot();
        assert!(
            merged.metrics.iter().any(|m| m.name.contains(".gen")),
            "archived engine metrics missing from the merged snapshot"
        );
        assert_eq!(fleet.span_log_drops(), 0);

        // Fault events show up as fleet-level instant spans, on the clock
        // every engine span uses: the restarted generation starts after its
        // restart.
        let fleet_spans = fleet.telemetry().spans().snapshot();
        assert!(fleet_spans.iter().any(|s| s.name == "fault.kill"));
        let restart = fleet_spans
            .iter()
            .find(|s| s.name == "fault.restart")
            .expect("restart instant");
        assert_eq!(restart.start, 20.0);
        let (replica, regen) = &all[all.len() - 2];
        assert_eq!(*replica, 0, "the live generations come last");
        assert!(regen.iter().all(|s| s.start >= restart.start));
    }

    #[test]
    fn kill_between_prefill_chunks_loses_nothing() {
        // Both replicas switch to chunked prefill (16-token prompts split
        // into 4 chunks of 4), then replica 0 is killed while prefills are
        // mid-prompt. Every partially-prefilled request must be re-routed
        // and complete exactly once, with exact block accounting.
        let plan = FaultPlan::new(0)
            .with_event(0.0, 0, FaultKind::StallPrefill { chunks: 4 })
            .with_event(0.0, 1, FaultKind::StallPrefill { chunks: 4 })
            .with_event(3.0, 0, FaultKind::KillReplica)
            .with_event(16.0, 0, FaultKind::RestartReplica);
        let run = || {
            let mut fleet = mock_fleet(&policy(2, RoutePolicy::RoundRobin), false);
            let report = fleet.run(Some(&plan), trace(16, 2.0));
            let merged = fleet.merged_snapshot();
            let spans = fleet.telemetry().spans().snapshot();
            (report, merged, spans)
        };
        let (report, merged, spans) = run();
        assert_eq!(report.kills, 1);
        assert_eq!(report.lost, 0, "mid-prefill kill must not lose requests");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.completed, 16);
        assert!(
            report.router.retries > 0,
            "in-flight chunked prefills re-route"
        );
        assert_eq!(report.leaked_blocks, 0, "chunk cursors must not leak");
        assert_eq!(merged.counter("vllm_fault_prefill_stalls_total"), Some(2));
        assert!(spans.iter().any(|s| s.name == "fault.stall_prefill"));
        // Deterministic under mid-chunk kills.
        assert_eq!(report, run().0);
    }

    #[test]
    fn pool_pressure_mid_decode_leaks_nothing() {
        // Deflate replica 0's GPU pool to 40% mid-decode (forcing a
        // compaction migration of its live blocks), restore it later: every
        // request still completes exactly once and no block leaks.
        let plan = FaultPlan::new(0)
            .with_event(3.0, 0, FaultKind::PoolPressure { fraction: 0.4 })
            .with_event(12.0, 0, FaultKind::RestorePool);
        let run = || {
            let mut fleet = mock_fleet(&policy(2, RoutePolicy::RoundRobin), false);
            let report = fleet.run(Some(&plan), trace(16, 2.0));
            let merged = fleet.merged_snapshot();
            let spans = fleet.telemetry().spans().snapshot();
            (report, merged, spans)
        };
        let (report, merged, spans) = run();
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.completed, 16);
        assert_eq!(report.leaked_blocks, 0, "deflate+compact must not leak");
        assert_eq!(merged.counter("vllm_fault_pool_pressure_total"), Some(1));
        assert!(spans.iter().any(|s| s.name == "fault.pool_pressure"));
        assert!(spans.iter().any(|s| s.name == "fault.restore_pool"));
        // Deterministic under the deflate/restore cycle.
        assert_eq!(report, run().0);
    }

    /// Oracle for the disaggregated tests: the same trace on a healthy
    /// unified fleet with sequence-invariant tokens. Disaggregation must be
    /// a pure placement change — identical token streams, bit for bit.
    fn unified_oracle(n_replicas: usize, requests: Vec<ClusterRequest>) -> FleetReport {
        mock_fleet(&ClusterConfig::new(n_replicas), true).run(None, requests)
    }

    #[test]
    fn disaggregated_fleet_matches_unified_token_streams() {
        let oracle = unified_oracle(4, trace(16, 2.0));
        assert_eq!(oracle.completed, 16, "oracle must complete everything");
        let mut fleet = mock_fleet(&ClusterConfig::disaggregated(2, 2), true);
        let report = fleet.run(None, trace(16, 2.0));
        assert_exactly_once(&report);
        assert_eq!(report.handoffs, 16, "every request hands off exactly once");
        assert_eq!(report.handoff_retries, 0, "healthy fleet: no resends");
        assert_eq!(
            report.token_fingerprint, oracle.token_fingerprint,
            "disaggregation must not change a single output token"
        );
        // New traffic lands only on the prefill pool; decode picks only on
        // the decode pool.
        let stats = fleet.router().stats();
        assert_eq!(stats.routed[2] + stats.routed[3], 0);
        assert_eq!(stats.decode_routed[0] + stats.decode_routed[1], 0);
        assert_eq!(stats.decode_routed[2] + stats.decode_routed[3], 16);
        // Handoff counters surface in the merged exposition.
        let merged = fleet.merged_snapshot();
        assert_eq!(merged.counter("vllm_cluster_handoffs_total"), Some(16));
    }

    /// Replica 2 (decode) dies one step into the two-step transfer window,
    /// before any payload routed to it has landed; replica 3 is stalled at
    /// step 2 and killed at step 3, so requests that committed onto it sit
    /// between handoff commit and their first decode step when the kill
    /// lands. Both restart later.
    fn mid_transfer_plan() -> FaultPlan {
        FaultPlan::new(0)
            .with_event(1.0, 2, FaultKind::KillReplica)
            .with_event(2.0, 3, FaultKind::StallReplica { steps: 1 })
            .with_event(3.0, 3, FaultKind::KillReplica)
            .with_event(20.0, 2, FaultKind::RestartReplica)
            .with_event(20.0, 3, FaultKind::RestartReplica)
    }

    #[test]
    fn decode_death_mid_transfer_delivers_exactly_once() {
        // Both fault windows of the handoff path fire in one run, and
        // still: every request completes exactly once, nothing leaks, and
        // the token streams match the healthy unified fleet's. With a
        // prefix tier behind the prefill pool, requests 4.. extend the
        // prompts of requests 0..4, so the tier serves them.
        let tiered = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(64);
        for (cfg, reqs) in [
            (ClusterConfig::disaggregated(2, 2), trace(8, 4.0)),
            (
                tiered,
                trace_of(8, 4.0, |i| prompt(i % 4, 16 + 8 * (i / 4) as usize)),
            ),
        ] {
            let oracle = unified_oracle(4, reqs.clone());
            let run = || mock_fleet(&cfg, true).run(Some(&mid_transfer_plan()), reqs.clone());
            let report = run();
            assert_eq!(report.kills, 2);
            assert_exactly_once(&report);
            assert_eq!(report.tier_hits > 0, cfg.prefix_tier_blocks > 0);
            assert!(
                report.handoff_retries > 0,
                "a transfer must have been re-routed off the dead target"
            );
            assert_eq!(
                report.token_fingerprint, oracle.token_fingerprint,
                "token streams must survive mid-handoff kills bit-for-bit"
            );
            assert_eq!(report, run(), "faulted handoffs must be deterministic");
        }
    }

    #[test]
    fn handoff_spans_are_well_nested() {
        let mut fleet = mock_fleet(&ClusterConfig::disaggregated(2, 2), true);
        let report = fleet.run(None, trace(4, 2.0));
        assert_eq!(report.completed, 4);
        let spans = fleet.telemetry().spans().snapshot();
        let handoffs: Vec<&Span> = spans.iter().filter(|s| s.name == "handoff").collect();
        assert_eq!(handoffs.len(), 4, "one handoff span per request");
        let engine_spans: Vec<Span> = fleet.all_spans().into_iter().flat_map(|(_, s)| s).collect();
        for h in handoffs {
            assert_ne!(h.trace_id, 0, "handoffs belong to the request trace");
            for name in ["handoff.export", "handoff.transfer"] {
                let child = spans
                    .iter()
                    .find(|s| s.name == name && s.parent_span_id == h.span_id)
                    .unwrap_or_else(|| panic!("missing {name} child"));
                assert_eq!(child.trace_id, h.trace_id);
                assert!(
                    child.start >= h.start && child.end <= h.end,
                    "{name} must nest inside the handoff bounds"
                );
            }
            // The transfer child is the lockstep transfer window: two steps.
            let transfer = spans
                .iter()
                .find(|s| s.name == "handoff.transfer" && s.parent_span_id == h.span_id)
                .expect("checked above");
            assert_eq!(transfer.duration(), 2.0);
            // The install rides the decode submission: the handoff ends
            // where the payload arrives, and has no install span.
            assert_eq!(transfer.end, h.end);
            assert!(!spans.iter().any(|s| s.name == "handoff.install"));
            // One slot numbering per attempt: the stub and decode attempts
            // on the engines are siblings of the handoff under the request
            // root, so the decode span, which starts when the payload
            // arrives, never overhangs a handoff span that would parent it.
            let siblings = engine_spans
                .iter()
                .filter(|s| s.name == "attempt" && s.trace_id == h.trace_id)
                .inspect(|s| assert_eq!(s.parent_span_id, h.parent_span_id))
                .count();
            assert_eq!(siblings, 2, "stub and decode attempts beside the handoff");
        }
    }

    #[test]
    fn simulated_fleet_survives_kills_mid_transfer_and_after_tier_installs() {
        // Two conversations of three turns; each later turn extends the
        // earlier context, so prefill replicas install tier hits.
        let cfg = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(256);
        let reqs: Vec<ClusterRequest> = (0..6u64)
            .map(|id| ClusterRequest {
                id,
                arrival: (id / 2) as f64 * 2.0 + (id % 2) as f64 * 0.01,
                prompt: sim_prompt_tokens(id % 2, 64 + 48 * (id / 2) as usize),
                output_len: 16,
            })
            .collect();
        // A healthy run places the faults: the run is deterministic, so
        // until the first fault fires the faulted run is the same run.
        let mut probe = sim_fleet(&cfg);
        let healthy = probe.run(None, reqs.clone());
        assert!(healthy.tier_hits > 0, "later turns must hit the tier");
        let spans = probe.telemetry().spans().snapshot();
        let span = |id: u64, name: &str| {
            let root = TraceContext::mint(trace_seed(&id.to_string()), true);
            let h = spans
                .iter()
                .find(|s| s.trace_id == root.trace_id && s.name == "handoff");
            let h = h.expect("every request hands off");
            let s = spans
                .iter()
                .find(|s| s.name == name && s.parent_span_id == h.span_id);
            (h.clone(), s.cloned())
        };
        // Request 0's decode replica dies while its KV is on the wire.
        let (h0, wire) = span(0, "handoff.transfer");
        let wire = wire.expect("transfer child");
        let dst = h0.attrs.iter().find(|(k, _)| k == "dst").expect("dst");
        let decode: usize = dst.1.parse().expect("replica index");
        // Request 2 (turn 2 of conversation 0) installs turn 1's KV from the
        // tier on arrival at t = 2; its prefill replica dies before the stub
        // replies.
        let (h2, _) = span(2, "handoff");
        let prefill = healthy.assignments.iter().find(|(id, _)| *id == 2);
        let prefill = prefill.expect("placed").1;
        assert_ne!(prefill, decode);
        let plan = FaultPlan::new(0)
            .with_event(
                (wire.start + wire.end) / 2.0,
                decode,
                FaultKind::KillReplica,
            )
            .with_event((2.0 + h2.start) / 2.0, prefill, FaultKind::KillReplica)
            .with_event(3.0, decode, FaultKind::RestartReplica)
            .with_event(3.0, prefill, FaultKind::RestartReplica);
        let run = || sim_fleet(&cfg).run(Some(&plan), reqs.clone());
        let report = run();
        assert_eq!(report.kills, 2);
        assert_exactly_once(&report);
        assert!(report.tier_hits > 0);
        assert!(
            report.handoff_retries > 0,
            "the mid-transfer kill re-routes"
        );
        assert!(report.router.retries >= 2, "both kills re-route work");
        assert_eq!(report, run(), "two runs give the identical report");
    }

    #[test]
    fn bounded_admission_backpressure_rejects_when_attempts_run_out() {
        // One replica, capacity 1, no faults: a burst cannot all fit, so
        // some requests exhaust their attempts and are rejected — but
        // nothing is lost or duplicated, and the outcome is deterministic.
        let cfg = ClusterConfig::new(1).with_max_inflight(1);
        let run = || mock_fleet(&cfg, false).run(None, trace(12, 12.0));
        let a = run();
        assert_eq!(a.lost, 0);
        assert_eq!(a.duplicates, 0);
        assert_eq!(a.completed + a.rejected, 12);
        assert!(a.rejected > 0, "capacity 1 must shed part of the burst");
        assert!(a.router.retries > 0);
        assert_eq!(a, run(), "backpressure must be deterministic");
    }
}
