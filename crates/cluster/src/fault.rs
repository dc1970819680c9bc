//! Deterministic fault injection and graceful degradation for a cluster.
//!
//! The paper's evaluation (§6) assumes a healthy fleet; this module asks
//! what happens when it is not. A [`FaultPlan`] is a seeded, reproducible
//! schedule of fault events — kill or stall a replica at step N, fail an
//! executor forward pass, exhaust the CPU swap pool (forcing the §4.5
//! recompute fallback), slow down cache operations — and [`FaultCluster`]
//! is a single-threaded lockstep harness that drives N real engines
//! (wrapped in [`FaultInjector`]) through a request trace while the plan
//! fires. Because every component is deterministic — the router is pure,
//! the mock executor's tokens are a hash, faults fire on a step counter
//! rather than wall clocks — the same `(plan, trace)` pair reproduces the
//! same token streams, retry counts, and fault counts bit for bit.
//!
//! Degradation machinery exercised by the harness:
//!
//! * **Bounded admission with backpressure** — a replica holding
//!   `max_inflight` requests refuses new placements; the harness re-routes
//!   with capped exponential backoff and, after `max_attempts`, reports the
//!   request rejected (the wire analog is [`VllmError::Rejected`] with a
//!   `retry_after` hint).
//! * **Retry with re-routing** — requests in flight on a killed replica are
//!   re-routed through the router (which excludes dead replicas but keeps
//!   honoring prefix affinity among the living) and counted in
//!   `vllm_cluster_retries_total`. Re-admissions use a fresh engine-side id
//!   per attempt, so a request can never complete twice.
//! * **Restart with drain** — restarting a live replica first stops new
//!   traffic and lets in-flight work finish, then swaps in a fresh engine;
//!   restarting a dead one resurrects it immediately.
//! * **Step-error recovery** — an injected forward fault aborts the
//!   replica's live groups (restoring exact block accounting) and re-routes
//!   them instead of losing them.
//!
//! Fault telemetry is exported as `vllm_fault_injected_total`,
//! `vllm_fault_kills_total`, `vllm_fault_forward_failures_total`,
//! `vllm_fault_swap_exhaustions_total`, `vllm_fault_pool_pressure_total`,
//! and `vllm_fault_prefill_stalls_total` alongside the router counters in
//! [`FaultCluster::merged_snapshot`].
//!
//! # Disaggregated fleets
//!
//! [`FaultCluster::with_fleet`] accepts a typed [`ClusterConfig`] whose
//! [`ReplicaRole`](crate::ReplicaRole)s split the fleet into prefill and
//! decode pools. The harness is the lockstep driver of the same
//! [`RequestFlow`] the TCP frontend runs — it decides nothing about a
//! request's path, it executes the flow's commands against its engines and
//! turns fault events into the flow's failure inputs. A request runs as a
//! one-token stub on a prefill replica, its cut prefix crosses the wire
//! codec, and a decode replica resumes the token loop from the installed
//! prefix. The handoff is a first-class fault surface: a `Transfer` takes
//! [`TRANSFER_STEPS`] lockstep steps, so a [`FaultKind`] event can kill the
//! decode target mid-transfer (the flow learns `ReplicaDied` and restarts
//! the attempt on a fresh route — nothing reached the client, so delivery
//! stays exactly-once) or between install and the first decode step (the
//! request re-enters placement).
//! Disaggregated fleets force sequence-invariant mock tokens, so the
//! harness asserts the strongest property available: the token streams are
//! bit-identical to a unified fleet's, faults and all.

use std::collections::HashMap;
use std::sync::Arc;

use vllm_core::mock::MockExecutor;
use vllm_core::telemetry::{Counter, MetricsSnapshot, Span, Telemetry};
use vllm_core::{CacheConfig, FaultControls, FaultInjector, LlmEngine, SchedulerConfig, VllmError};

use crate::config::ClusterConfig;
use crate::flow::{FlowCommand, FlowInput, HandoffMetrics, RequestFlow};
use crate::replica::{apply_prefix_op, REJECT_RETRY_AFTER};
use crate::router::{ReplicaSnapshot, RoutePolicy, Router, RouterConfig};
use crate::sim::ClusterRequest;
use crate::stats::merge_labeled;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kill the replica abruptly: its in-flight requests are re-routed, the
    /// router stops sending it traffic, and it stays down until a
    /// [`FaultKind::RestartReplica`] event.
    KillReplica,
    /// Restart the replica. A live replica drains first (no new traffic,
    /// in-flight work finishes) before a fresh engine replaces it; a dead
    /// replica comes back immediately with a fresh engine.
    RestartReplica,
    /// Freeze the replica's engine loop for this many lockstep steps (work
    /// is delayed, never lost).
    StallReplica {
        /// Steps to skip.
        steps: u64,
    },
    /// Switch the replica to scheduler-budgeted chunked prefill with a
    /// per-step token budget that splits the trace's longest prompt into
    /// at least this many chunks. Prefill then spans multiple lockstep
    /// steps, so later kill/fail events land *between* chunks — exercising
    /// recovery of partially-prefilled requests. Cleared when a restart
    /// swaps in a fresh engine.
    StallPrefill {
        /// Minimum chunks the longest prompt is split into (≥ 1).
        chunks: u64,
    },
    /// Fail the replica's next `count` forward passes with an executor
    /// error; the harness aborts and re-routes the affected requests.
    FailForwards {
        /// Forward passes to fail.
        count: u32,
    },
    /// Disable the replica's CPU swap pool: preemptions fall back to §4.5
    /// recomputation until [`FaultKind::RestoreSwap`].
    ExhaustSwap,
    /// Re-enable the replica's CPU swap pool.
    RestoreSwap,
    /// Charge extra virtual seconds per cache operation (swap/copy) on the
    /// replica, modelling a slow swap device.
    DelayCacheOps {
        /// Extra seconds per cache operation (`0.0` disarms).
        seconds_per_op: f64,
    },
    /// Deflate the replica's GPU block pool to this fraction of its
    /// original size mid-decode (elastic shrink: the pool compacts, live
    /// blocks migrate, nothing may leak). Clamped so live blocks always
    /// fit. Undone by [`FaultKind::RestorePool`].
    PoolPressure {
        /// Target pool size as a fraction of the configured size (0..=1).
        fraction: f64,
    },
    /// Restore the replica's block pools to their configured sizes.
    RestorePool,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Lockstep step at which the fault fires.
    pub at_step: u64,
    /// Target replica index.
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, reproducible schedule of fault events.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// The events, in firing order.
    pub events: Vec<FaultEvent>,
}

/// `splitmix64`: the standard 64-bit mixing PRNG (public domain).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (add events with [`with_event`](Self::with_event)).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends one event, keeping the list sorted by firing step.
    #[must_use]
    pub fn with_event(mut self, at_step: u64, replica: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            at_step,
            replica,
            kind,
        });
        self.events.sort_by_key(|e| (e.at_step, e.replica));
        self
    }

    /// Derives a pseudo-random schedule from `seed`: one kill + restart,
    /// one swap exhaustion window (when there is more than one replica),
    /// and a few stalls / prefill-chunking switches / forward failures /
    /// cache-op delays, all within `horizon` steps. The same seed always
    /// yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas` is zero or `horizon < 8`.
    #[must_use]
    pub fn seeded(seed: u64, num_replicas: usize, horizon: u64) -> Self {
        assert!(num_replicas > 0, "need at least one replica");
        assert!(horizon >= 8, "horizon too short for a meaningful plan");
        let mut s = seed ^ 0xA076_1D64_78BD_642F;
        let mut plan = Self::new(seed);
        // One kill mid-run, restarted half a horizon later.
        let victim = (splitmix64(&mut s) as usize) % num_replicas;
        let kill_at = 2 + splitmix64(&mut s) % (horizon / 4);
        plan = plan
            .with_event(kill_at, victim, FaultKind::KillReplica)
            .with_event(kill_at + horizon / 2, victim, FaultKind::RestartReplica);
        // One swap-exhaustion window on a surviving replica.
        if num_replicas > 1 {
            let other = (victim + 1) % num_replicas;
            let at = 1 + splitmix64(&mut s) % (horizon / 2);
            plan = plan
                .with_event(at, other, FaultKind::ExhaustSwap)
                .with_event(at + horizon / 2, other, FaultKind::RestoreSwap);
        }
        // One pool-pressure window: deflate a replica's KV pool mid-decode
        // (forcing compaction and elastic shrink), restore it later.
        {
            let target = (splitmix64(&mut s) as usize) % num_replicas;
            let at = 2 + splitmix64(&mut s) % (horizon / 2);
            let fraction = 0.3 + 0.1 * (splitmix64(&mut s) % 4) as f64;
            plan = plan
                .with_event(at, target, FaultKind::PoolPressure { fraction })
                .with_event(at + horizon / 3, target, FaultKind::RestorePool);
        }
        // A handful of smaller perturbations.
        let extras = 2 + splitmix64(&mut s) % 3;
        for _ in 0..extras {
            let at = splitmix64(&mut s) % horizon;
            let replica = (splitmix64(&mut s) as usize) % num_replicas;
            let kind = match splitmix64(&mut s) % 4 {
                0 => FaultKind::FailForwards {
                    count: 1 + (splitmix64(&mut s) % 2) as u32,
                },
                1 => FaultKind::StallReplica {
                    steps: 1 + splitmix64(&mut s) % 4,
                },
                2 => FaultKind::StallPrefill {
                    chunks: 2 + splitmix64(&mut s) % 3,
                },
                _ => FaultKind::DelayCacheOps {
                    seconds_per_op: 0.005 * (1 + splitmix64(&mut s) % 4) as f64,
                },
            };
            plan = plan.with_event(at, replica, kind);
        }
        plan
    }
}

/// Configuration for a [`FaultCluster`] harness.
#[derive(Debug, Clone, Copy)]
pub struct FaultClusterConfig {
    /// Number of engine replicas.
    pub num_replicas: usize,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Bounded admission: a replica holding this many in-flight requests
    /// refuses new placements (backpressure).
    pub max_inflight: usize,
    /// Placement attempts per request before it is terminally rejected.
    pub max_attempts: u32,
    /// Cap on the exponential retry backoff, in lockstep steps.
    pub max_backoff_steps: u64,
    /// Safety bound on lockstep steps per run (unfinished requests beyond
    /// it are reported as lost).
    pub max_steps: u64,
    /// Force sequence-invariant mock tokens (a token depends only on the
    /// sampling seed and position, not on engine-local sequence ids), so a
    /// unified fleet can serve as the token-identity oracle for a
    /// disaggregated one. Implied by a disaggregated fleet.
    pub seq_invariant_tokens: bool,
}

impl FaultClusterConfig {
    /// Defaults: prefix-affinity routing, 64 in-flight per replica, 8
    /// placement attempts, backoff capped at 16 steps.
    #[must_use]
    pub fn new(num_replicas: usize) -> Self {
        Self {
            num_replicas,
            policy: RoutePolicy::PrefixAffinity,
            max_inflight: 64,
            max_attempts: 8,
            max_backoff_steps: 16,
            max_steps: 100_000,
            seq_invariant_tokens: false,
        }
    }

    /// Forces sequence-invariant mock tokens (see the field docs).
    #[must_use]
    pub fn with_seq_invariant_tokens(mut self) -> Self {
        self.seq_invariant_tokens = true;
        self
    }

    /// Overrides the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the per-replica in-flight bound.
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Overrides the per-request placement-attempt bound.
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }
}

/// Aggregate outcome of one faulted run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Requests in the trace.
    pub num_requests: usize,
    /// Requests that completed (exactly once).
    pub completed: usize,
    /// Requests terminally rejected (attempts exhausted or invalid).
    pub rejected: usize,
    /// Requests with no terminal outcome when the step bound hit (must be
    /// zero for a healthy harness).
    pub lost: usize,
    /// Requests that reached more than one terminal outcome (must be zero).
    pub duplicates: usize,
    /// Re-routing retries across the run (`vllm_cluster_retries_total`).
    pub retries: u64,
    /// Fault events that fired.
    pub faults_injected: u64,
    /// Replica kills that fired.
    pub kills: u64,
    /// Engine steps that failed with an injected forward fault.
    pub forward_failures: u64,
    /// Lockstep steps executed.
    pub steps: u64,
    /// KV handoffs whose decode phase replied (`vllm_cluster_handoffs_total`).
    pub handoffs: u64,
    /// Handoff attempts that failed — a dead or backed-up decode target, a
    /// kill mid-decode — and were retried on a fresh route.
    pub handoff_retries: u64,
    /// GPU blocks still allocated on live replicas after the run drained
    /// (must be zero: exact accounting survives every fault).
    pub leaked_blocks: usize,
    /// Order-independent hash of every request's terminal outcome and token
    /// streams; equal across runs ⇔ identical outputs.
    pub token_fingerprint: u64,
}

/// Per-request terminal outcome.
enum Outcome {
    Completed { tokens: Vec<Vec<u32>> },
    Rejected,
}

/// One replica slot in the harness.
struct ReplicaSlot {
    engine: LlmEngine<FaultInjector<MockExecutor>>,
    controls: Arc<FaultControls>,
    alive: bool,
    draining: bool,
    stall_remaining: u64,
    /// Engine-side id → trace request id for everything in flight here.
    inflight: HashMap<String, u64>,
}

/// Lockstep steps a KV `Transfer` takes to arrive. Two steps open a window
/// for fault events to land *mid-transfer*.
pub const TRANSFER_STEPS: u64 = 2;

/// Mutable bookkeeping for one run.
struct RunState {
    /// Every request's flow, from the start of the run.
    flows: HashMap<u64, RequestFlow>,
    outcomes: HashMap<u64, Outcome>,
    /// Parked flows: `(ready_at_step, request_id, transfer_target)`. A
    /// backoff has no target; a transfer learns at `ready_at` whether its
    /// target is still alive.
    timers: Vec<(u64, u64, Option<usize>)>,
    duplicates: usize,
}

/// Fault counters registered on the cluster-level telemetry.
struct FaultCounters {
    injected: Counter,
    kills: Counter,
    forward_failures: Counter,
    swap_exhaustions: Counter,
    pool_pressures: Counter,
    prefill_stalls: Counter,
}

/// N engines in deterministic lockstep under a router, a request trace, and
/// a [`FaultPlan`].
pub struct FaultCluster {
    cfg: FaultClusterConfig,
    slots: Vec<ReplicaSlot>,
    router: Router,
    telemetry: Arc<Telemetry>,
    counters: FaultCounters,
    handoff: HandoffMetrics,
    block_size: usize,
    /// Whether the fleet is role-specialized (requests may hand off).
    disaggregated: bool,
    /// Whether replacement engines script sequence-invariant tokens.
    seq_invariant: bool,
    /// Spans and metrics salvaged from engines that were replaced (kill +
    /// restart, or graceful drain): `(replica, spans, metrics)`. Without
    /// this a restart would silently discard the killed generation's
    /// telemetry and the trace tree would lose its failed attempts.
    archived: Vec<(usize, Vec<Span>, MetricsSnapshot)>,
    /// Span drops accumulated from archived (replaced) engines.
    archived_drops: u64,
    /// Longest prompt in the current run's trace, used by
    /// [`FaultKind::StallPrefill`] to derive a per-step token budget.
    max_prompt_len: usize,
}

impl FaultCluster {
    /// Builds the harness with fresh engines in a unified fleet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero replicas.
    #[must_use]
    pub fn new(cfg: FaultClusterConfig) -> Self {
        Self::with_fleet(cfg, &ClusterConfig::new(cfg.num_replicas))
    }

    /// Builds the harness over a typed fleet: `fleet.roles` splits the
    /// replicas into prefill and decode pools ([`crate::ReplicaRole`]), routed and
    /// migrated through the KV-handoff path. A disaggregated fleet (or
    /// [`FaultClusterConfig::seq_invariant_tokens`]) switches the mock
    /// executors to sequence-invariant token scripting, so token streams
    /// survive mid-request migration bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero replicas or `fleet` names a
    /// different replica count than `cfg`.
    #[must_use]
    pub fn with_fleet(cfg: FaultClusterConfig, fleet: &ClusterConfig) -> Self {
        assert!(cfg.num_replicas > 0, "cluster needs at least one replica");
        assert_eq!(
            fleet.num_replicas(),
            cfg.num_replicas,
            "fleet roles must cover every replica"
        );
        let seq_invariant = cfg.seq_invariant_tokens || fleet.is_disaggregated();
        let telemetry = Arc::new(Telemetry::new());
        let mut router = Router::new(RouterConfig::new(cfg.policy), cfg.num_replicas);
        router.attach_telemetry(&telemetry);
        router.set_roles(fleet.roles.clone());
        let r = telemetry.registry();
        let counters = FaultCounters {
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
        let handoff = HandoffMetrics::attach(&telemetry);
        let slots: Vec<ReplicaSlot> = (0..cfg.num_replicas)
            .map(|_| fresh_slot(seq_invariant))
            .collect();
        let block_size = slots[0].engine.cache_config().block_size;
        Self {
            cfg,
            slots,
            router,
            telemetry,
            counters,
            handoff,
            block_size,
            disaggregated: fleet.is_disaggregated(),
            seq_invariant,
            archived: Vec::new(),
            archived_drops: 0,
            max_prompt_len: 1,
        }
    }

    /// The router (policy, liveness, retry counters).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The cluster-level telemetry bundle (router + fault counters).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One merged snapshot: per-replica engine metrics under
    /// `{replica="i"}` labels plus the unlabeled cluster counters
    /// (`vllm_cluster_*`, `vllm_fault_*`).
    #[must_use]
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut parts: Vec<(String, MetricsSnapshot)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i.to_string(), s.engine.metrics_snapshot()))
            .collect();
        // Replaced engines still count: their histograms carry the samples
        // recorded before the kill/drain, labeled by generation so names
        // stay unique.
        parts.extend(
            self.archived
                .iter()
                .enumerate()
                .map(|(g, (i, _, snap))| (format!("{i}.gen{g}"), snap.clone())),
        );
        let mut merged = merge_labeled(&parts);
        merged
            .metrics
            .extend(self.telemetry.registry().snapshot().metrics);
        merged.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }

    /// Every span recorded anywhere in the cluster, keyed by replica index:
    /// archived logs from replaced engines first (in replacement order),
    /// then the live engines. Cluster-level spans (fault events) live in
    /// [`telemetry`](Self::telemetry), not here.
    #[must_use]
    pub fn all_spans(&self) -> Vec<(usize, Vec<Span>)> {
        let mut out: Vec<(usize, Vec<Span>)> = self
            .archived
            .iter()
            .map(|(i, spans, _)| (*i, spans.clone()))
            .collect();
        out.extend(
            self.slots
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.engine.telemetry().spans().snapshot())),
        );
        out
    }

    /// Span-log drops across the whole harness: every live engine, the
    /// cluster-level log, and drops counted when replaced engines were
    /// archived. Zero means no span was lost to ring-buffer eviction.
    #[must_use]
    pub fn span_log_drops(&self) -> u64 {
        self.archived_drops
            + self.telemetry.spans().total_dropped()
            + self
                .slots
                .iter()
                .map(|s| s.engine.telemetry().spans().total_dropped())
                .sum::<u64>()
    }

    /// Salvages replica `i`'s spans and metrics before its engine is
    /// replaced.
    fn archive_slot(&mut self, i: usize) {
        let spans = self.slots[i].engine.telemetry().spans().snapshot();
        let snap = self.slots[i].engine.metrics_snapshot();
        self.archived_drops += self.slots[i].engine.telemetry().spans().total_dropped();
        self.archived.push((i, spans, snap));
    }

    /// Runs `requests` against the fleet while `plan` fires, to quiescence
    /// (or the configured step bound).
    ///
    /// Every request ends in exactly one of: completed (token streams
    /// recorded), rejected (placement attempts exhausted), or — only if the
    /// step bound is hit — lost. The report carries the counts plus a
    /// fingerprint of all outputs for determinism comparisons.
    #[must_use]
    pub fn run(&mut self, plan: &FaultPlan, mut requests: Vec<ClusterRequest>) -> FaultReport {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let num_requests = requests.len();
        self.max_prompt_len = requests.iter().map(|r| r.prompt.len()).max().unwrap_or(1);
        let mut events = plan.events.clone();
        events.sort_by_key(|e| (e.at_step, e.replica));
        let mut st = RunState {
            flows: requests
                .iter()
                .map(|r| {
                    // No client context: the flow mints a sampled root from
                    // the id — the harness exists to observe, and volume is
                    // bounded by the trace length.
                    let flow = RequestFlow::new(
                        r.id.to_string(),
                        r.prompt.clone(),
                        r.request(),
                        self.block_size,
                        self.disaggregated,
                        self.cfg.max_attempts,
                    );
                    (r.id, flow)
                })
                .collect(),
            outcomes: HashMap::new(),
            timers: Vec::new(),
            duplicates: 0,
        };
        let mut next_event = 0;
        let mut next_arrival = 0;
        let mut step: u64 = 0;
        loop {
            // 1. Fire due fault events.
            while next_event < events.len() && events[next_event].at_step <= step {
                let e = events[next_event];
                self.apply_event(&e, step, &mut st);
                next_event += 1;
            }
            // 2. Wake due timers (sorted for determinism): an elapsed
            // backoff re-routes; a transfer arrives — or, because this runs
            // after the events, finds its target killed mid-transfer.
            let mut due: Vec<(u64, Option<usize>)> = Vec::new();
            st.timers.retain(|&(ready_at, id, target)| {
                let is_due = ready_at <= step;
                if is_due {
                    due.push((id, target));
                }
                !is_due
            });
            due.sort_unstable();
            for (id, target) in due {
                let input = match target {
                    Some(replica) if !self.slots[replica].alive => {
                        FlowInput::ReplicaDied { replica }
                    }
                    _ => FlowInput::Done,
                };
                self.drive(id, input, step, &mut st);
            }
            // 3. Inject new arrivals.
            while next_arrival < requests.len() && requests[next_arrival].arrival <= step as f64 {
                let id = requests[next_arrival].id;
                next_arrival += 1;
                self.drive(id, FlowInput::Start, step, &mut st);
            }
            // 4. Step every live, unstalled replica with work.
            for i in 0..self.slots.len() {
                self.step_replica(i, step, &mut st);
            }
            // 5. Quiescence: all arrivals in, nothing parked, every request
            // terminal.
            let done = next_arrival == requests.len()
                && st.timers.is_empty()
                && st.outcomes.len() == num_requests;
            if done || step >= self.cfg.max_steps {
                break;
            }
            step += 1;
        }
        let completed = st
            .outcomes
            .values()
            .filter(|o| matches!(o, Outcome::Completed { .. }))
            .count();
        let rejected = st
            .outcomes
            .values()
            .filter(|o| matches!(o, Outcome::Rejected))
            .count();
        let leaked_blocks: usize = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| {
                let bm = s.engine.scheduler().block_manager();
                bm.num_total_gpu_blocks() - bm.num_free_gpu_blocks()
            })
            .sum();
        FaultReport {
            num_requests,
            completed,
            rejected,
            lost: num_requests - st.outcomes.len(),
            duplicates: st.duplicates,
            retries: self.router.stats().retries,
            faults_injected: self.counters.injected.get(),
            kills: self.counters.kills.get(),
            forward_failures: self.counters.forward_failures.get(),
            handoffs: self.handoff.handoffs.get(),
            handoff_retries: self.handoff.retries.get(),
            steps: step,
            leaked_blocks,
            token_fingerprint: fingerprint(&st.outcomes),
        }
    }

    /// Applies one fault event.
    fn apply_event(&mut self, e: &FaultEvent, step: u64, st: &mut RunState) {
        self.counters.injected.inc();
        self.record_fault_span(e, step);
        match e.kind {
            FaultKind::KillReplica => {
                if !self.slots[e.replica].alive {
                    return;
                }
                self.counters.kills.inc();
                self.router.mark_dead(e.replica);
                let slot = &mut self.slots[e.replica];
                slot.alive = false;
                slot.draining = false;
                // Flush before re-routing: abort the live groups and take
                // one reaping step so the killed attempts' spans (and
                // nothing else — the outputs are discarded, leaving the
                // token fingerprint untouched) land in the span log before
                // the engine is mothballed.
                if slot.engine.abort_all().is_ok() {
                    let _ = slot.engine.step();
                }
                // Zero-loss: every flow in flight here learns of the death
                // and re-routes.
                self.fail_inflight(e.replica, step, st, |replica| FlowInput::ReplicaDied {
                    replica,
                });
            }
            FaultKind::RestartReplica => {
                if self.slots[e.replica].alive {
                    // Graceful restart: drain first (no new traffic), the
                    // step loop swaps in a fresh engine once idle.
                    self.slots[e.replica].draining = true;
                    self.router.mark_dead(e.replica);
                } else {
                    self.archive_slot(e.replica);
                    self.slots[e.replica] = fresh_slot(self.seq_invariant);
                    self.router.mark_alive(e.replica);
                }
            }
            FaultKind::StallReplica { steps } => {
                self.slots[e.replica].stall_remaining += steps;
            }
            FaultKind::StallPrefill { chunks } => {
                self.counters.prefill_stalls.inc();
                let budget = self
                    .max_prompt_len
                    .div_ceil((chunks as usize).max(1))
                    .max(1);
                self.slots[e.replica]
                    .engine
                    .set_step_token_budget(Some(budget));
            }
            FaultKind::FailForwards { count } => {
                self.slots[e.replica].controls.fail_next_forwards(count);
            }
            FaultKind::ExhaustSwap => {
                self.counters.swap_exhaustions.inc();
                self.slots[e.replica].engine.set_swap_disabled(true);
            }
            FaultKind::RestoreSwap => {
                self.slots[e.replica].engine.set_swap_disabled(false);
            }
            FaultKind::DelayCacheOps { seconds_per_op } => {
                self.slots[e.replica]
                    .controls
                    .set_cache_op_delay(seconds_per_op);
            }
            FaultKind::PoolPressure { fraction } => {
                self.counters.pool_pressures.inc();
                // deflate_pool clamps to the live working set, so the only
                // failure mode is corrupted accounting — surfaced loudly.
                self.slots[e.replica]
                    .engine
                    .deflate_pool(fraction)
                    .expect("pool deflation must always find a feasible size");
            }
            FaultKind::RestorePool => {
                self.slots[e.replica]
                    .engine
                    .restore_pool()
                    .expect("pool restoration grows back to the configured size");
            }
        }
    }

    /// Records an untraced instant span for a fired fault event, so kills
    /// and restarts line up against request spans on the trace timeline.
    fn record_fault_span(&self, e: &FaultEvent, step: u64) {
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
            start: step as f64,
            end: step as f64,
            attrs: vec![
                ("replica".to_string(), e.replica.to_string()),
                ("step".to_string(), step.to_string()),
            ],
        });
    }

    /// Advances request `id`'s flow with `input`, executing its commands
    /// against the lockstep world until one parks: a `Submit` the engine
    /// admitted (woken by its output, a kill or a step failure), or a
    /// `Transfer` / `Backoff` timer.
    fn drive(&mut self, id: u64, mut input: FlowInput, step: u64, st: &mut RunState) {
        loop {
            let flow = st
                .flows
                .get_mut(&id)
                .expect("flow exists for every request");
            let (effects, cmd) = flow.on(input, step as f64);
            for effect in effects {
                // No tier to publish to; `observe` ignores the rest.
                self.handoff.observe(self.telemetry.spans(), &effect);
            }
            input = match cmd {
                FlowCommand::Route => {
                    let snaps = self.snapshots();
                    FlowInput::Routed {
                        replica: flow.route(&mut self.router, &snaps),
                    }
                }
                FlowCommand::RouteDecode => {
                    let snaps = self.snapshots();
                    FlowInput::Routed {
                        replica: flow.route_decode(&mut self.router, &snaps),
                    }
                }
                // No tier in the harness: every lookup misses.
                FlowCommand::TierLookup { .. } => FlowInput::Tier(None),
                FlowCommand::PrefixOp { replica, op } => {
                    let slot = &mut self.slots[replica];
                    if slot.alive {
                        FlowInput::Prefix(apply_prefix_op(&mut slot.engine, op))
                    } else {
                        FlowInput::ReplicaDied { replica }
                    }
                }
                FlowCommand::Transfer { replica, .. } => {
                    st.timers.push((step + TRANSFER_STEPS, id, Some(replica)));
                    return;
                }
                FlowCommand::Submit {
                    replica,
                    engine_id,
                    prompt,
                    request,
                } => {
                    let cap = self.cfg.max_inflight;
                    let slot = &mut self.slots[replica];
                    // Dead (only routed to when the whole pool is), draining
                    // or full: backpressure, as a real replica answers it.
                    let admitted = if slot.alive && !slot.draining && slot.inflight.len() < cap {
                        slot.engine
                            .add_generation_request(engine_id.clone(), prompt, &request)
                    } else {
                        Err(VllmError::Rejected {
                            retry_after: REJECT_RETRY_AFTER,
                        })
                    };
                    match admitted {
                        Ok(()) => {
                            slot.inflight.insert(engine_id, id);
                            return;
                        }
                        Err(e) => FlowInput::Reply(Err(e)),
                    }
                }
                FlowCommand::Backoff { attempt, hint } => {
                    // Backpressure (the error carried a hint) backs off
                    // exponentially, capped; work lost with its replica or
                    // step re-routes on the next step.
                    let delay = match hint {
                        Some(_) => (1u64 << (attempt + 1).min(6)).min(self.cfg.max_backoff_steps),
                        None => 1,
                    };
                    st.timers.push((step + delay, id, None));
                    return;
                }
                FlowCommand::Finish(result) => {
                    let outcome = match result {
                        Ok(out) => Outcome::Completed {
                            tokens: out.outputs.into_iter().map(|c| c.tokens).collect(),
                        },
                        Err(_) => Outcome::Rejected,
                    };
                    record(st, id, outcome);
                    return;
                }
            };
        }
    }

    /// Wakes every flow in flight on replica `i` with a failure input
    /// (sorted, so the re-routes are deterministic).
    fn fail_inflight(
        &mut self,
        i: usize,
        step: u64,
        st: &mut RunState,
        input: impl Fn(usize) -> FlowInput,
    ) {
        let mut ids: Vec<u64> = self.slots[i].inflight.drain().map(|(_, id)| id).collect();
        ids.sort_unstable();
        for id in ids {
            self.drive(id, input(i), step, st);
        }
    }

    /// Runs one lockstep step on replica `i`.
    fn step_replica(&mut self, i: usize, step: u64, st: &mut RunState) {
        if !self.slots[i].alive {
            return;
        }
        if self.slots[i].stall_remaining > 0 {
            self.slots[i].stall_remaining -= 1;
            return;
        }
        if !self.slots[i].engine.has_unfinished() {
            if self.slots[i].draining {
                // Drained: swap in a fresh engine and rejoin the fleet.
                self.archive_slot(i);
                self.slots[i] = fresh_slot(self.seq_invariant);
                self.router.mark_alive(i);
            }
            return;
        }
        let step_result = self.slots[i].engine.step();
        match step_result {
            Ok(outs) => {
                for out in outs {
                    if let Some(id) = self.slots[i].inflight.remove(&out.request_id) {
                        self.drive(id, FlowInput::Reply(Ok(out)), step, st);
                    }
                }
            }
            Err(e) => {
                // Injected forward fault: abort everything live (exact
                // block accounting), reap the aborted groups, and fail the
                // affected flows so they re-route.
                self.counters.forward_failures.inc();
                let slot = &mut self.slots[i];
                if slot.engine.abort_all().is_ok() {
                    let _ = slot.engine.step();
                }
                let msg = format!("engine step failed: {e}");
                self.fail_inflight(i, step, st, |_| {
                    FlowInput::Reply(Err(VllmError::Unavailable(msg.clone())))
                });
            }
        }
    }

    /// Builds the router's per-replica view.
    fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        self.slots
            .iter()
            .map(|s| ReplicaSnapshot {
                load: s.engine.load_snapshot(),
                coverage: Arc::new(s.engine.prefix_coverage()),
            })
            .collect()
    }
}

/// A fresh replica slot: small identical engine behind a fault injector.
fn fresh_slot(seq_invariant: bool) -> ReplicaSlot {
    let cache = CacheConfig::new(4, 64, 16).expect("valid cache config");
    let sched = SchedulerConfig::new(2048, 64, 2048).expect("valid scheduler config");
    let controls = FaultControls::new();
    let mock = if seq_invariant {
        MockExecutor::new(1000).seq_invariant()
    } else {
        MockExecutor::new(1000)
    };
    let engine = LlmEngine::new(
        FaultInjector::new(mock, Arc::clone(&controls)),
        cache,
        sched,
    );
    ReplicaSlot {
        engine,
        controls,
        alive: true,
        draining: false,
        stall_remaining: 0,
        inflight: HashMap::new(),
    }
}

/// Records a terminal outcome, counting duplicates instead of overwriting
/// silently.
fn record(st: &mut RunState, id: u64, outcome: Outcome) {
    match st.outcomes.entry(id) {
        std::collections::hash_map::Entry::Occupied(_) => st.duplicates += 1,
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(outcome);
        }
    }
}

/// Order-independent FNV-1a fingerprint of every terminal outcome.
fn fingerprint(outcomes: &HashMap<u64, Outcome>) -> u64 {
    let mut ids: Vec<u64> = outcomes.keys().copied().collect();
    ids.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for id in ids {
        mix(id);
        match &outcomes[&id] {
            Outcome::Completed { tokens } => {
                mix(1);
                for seq in tokens {
                    mix(seq.len() as u64);
                    for &t in seq {
                        mix(u64::from(t));
                    }
                }
            }
            Outcome::Rejected => mix(2),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt(id: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| 1 + ((id * 31 + i as u64 * 7) % 997) as u32)
            .collect()
    }

    fn trace(n: u64, per_step: f64) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival: i as f64 / per_step,
                prompt: prompt(i, 16),
                output_len: 12,
            })
            .collect()
    }

    #[test]
    fn seeded_fault_runs_are_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed, 3, 40);
            let mut cluster = FaultCluster::new(FaultClusterConfig::new(3));
            cluster.run(&plan, trace(24, 2.0))
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
        let plan = FaultPlan::new(0).with_event(4, 0, FaultKind::KillReplica);
        let mut cluster =
            FaultCluster::new(FaultClusterConfig::new(3).with_policy(RoutePolicy::RoundRobin));
        let report = cluster.run(&plan, trace(18, 3.0));
        assert_eq!(report.kills, 1);
        assert_eq!(report.lost, 0, "no request may vanish with its replica");
        assert_eq!(report.duplicates, 0, "no request may complete twice");
        assert_eq!(report.completed, 18, "capacity is ample: all complete");
        assert!(
            report.retries > 0,
            "in-flight work must have been re-routed"
        );
        assert_eq!(report.leaked_blocks, 0);
        assert_eq!(cluster.router().num_alive(), 2);
        // Fault and retry counters surface in the merged exposition.
        let merged = cluster.merged_snapshot();
        assert_eq!(merged.counter("vllm_fault_kills_total"), Some(1));
        assert_eq!(
            merged.counter("vllm_cluster_retries_total"),
            Some(report.retries)
        );
        let text = merged.to_prometheus_text();
        assert!(text.contains("vllm_fault_injected_total"));
    }

    #[test]
    fn restart_after_kill_restores_the_fleet() {
        let plan = FaultPlan::new(0)
            .with_event(3, 1, FaultKind::KillReplica)
            .with_event(10, 1, FaultKind::RestartReplica);
        let mut cluster = FaultCluster::new(FaultClusterConfig::new(2));
        let report = cluster.run(&plan, trace(16, 1.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 16);
        assert_eq!(cluster.router().num_alive(), 2, "restart rejoins the fleet");
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn swap_exhaustion_degrades_without_losing_requests() {
        let plan = FaultPlan::new(0)
            .with_event(1, 0, FaultKind::ExhaustSwap)
            .with_event(1, 1, FaultKind::ExhaustSwap);
        let mut cluster = FaultCluster::new(FaultClusterConfig::new(2));
        let report = cluster.run(&plan, trace(20, 4.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 20);
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn forward_failures_are_retried_elsewhere() {
        let plan = FaultPlan::new(0).with_event(2, 0, FaultKind::FailForwards { count: 2 });
        let mut cluster =
            FaultCluster::new(FaultClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin));
        let report = cluster.run(&plan, trace(10, 2.0));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 10);
        assert!(report.forward_failures > 0);
        assert!(report.retries > 0);
        assert_eq!(report.leaked_blocks, 0);
    }

    #[test]
    fn kill_archives_spans_and_metrics_and_keeps_sibling_attempts() {
        let plan = FaultPlan::new(0)
            .with_event(4, 0, FaultKind::KillReplica)
            .with_event(20, 0, FaultKind::RestartReplica);
        let mut cluster =
            FaultCluster::new(FaultClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin));
        let report = cluster.run(&plan, trace(12, 2.0));
        assert_eq!(report.lost, 0);
        assert!(report.retries > 0, "the kill must re-route in-flight work");

        // The killed engine's spans survive the restart via the archive,
        // and a re-routed request's attempts are siblings: same trace,
        // same parent, different span ids.
        let all = cluster.all_spans();
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
        let merged = cluster.merged_snapshot();
        assert!(
            merged.metrics.iter().any(|m| m.name.contains(".gen")),
            "archived engine metrics missing from the merged snapshot"
        );
        assert_eq!(cluster.span_log_drops(), 0);

        // Fault events show up as cluster-level instant spans.
        let cluster_spans = cluster.telemetry().spans().snapshot();
        assert!(cluster_spans.iter().any(|s| s.name == "fault.kill"));
        assert!(cluster_spans.iter().any(|s| s.name == "fault.restart"));
    }

    #[test]
    fn kill_between_prefill_chunks_loses_nothing() {
        // Both replicas switch to chunked prefill (16-token prompts split
        // into 4 chunks of 4), then replica 0 is killed while prefills are
        // mid-prompt. Every partially-prefilled request must be re-routed
        // and complete exactly once, with exact block accounting.
        let plan = FaultPlan::new(0)
            .with_event(0, 0, FaultKind::StallPrefill { chunks: 4 })
            .with_event(0, 1, FaultKind::StallPrefill { chunks: 4 })
            .with_event(3, 0, FaultKind::KillReplica)
            .with_event(16, 0, FaultKind::RestartReplica);
        let run = || {
            let mut cluster =
                FaultCluster::new(FaultClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin));
            let report = cluster.run(&plan, trace(16, 2.0));
            let merged = cluster.merged_snapshot();
            let spans = cluster.telemetry().spans().snapshot();
            (report, merged, spans)
        };
        let (report, merged, spans) = run();
        assert_eq!(report.kills, 1);
        assert_eq!(report.lost, 0, "mid-prefill kill must not lose requests");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.completed, 16);
        assert!(report.retries > 0, "in-flight chunked prefills re-route");
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
            .with_event(3, 0, FaultKind::PoolPressure { fraction: 0.4 })
            .with_event(12, 0, FaultKind::RestorePool);
        let run = || {
            let mut cluster =
                FaultCluster::new(FaultClusterConfig::new(2).with_policy(RoutePolicy::RoundRobin));
            let report = cluster.run(&plan, trace(16, 2.0));
            let merged = cluster.merged_snapshot();
            let spans = cluster.telemetry().spans().snapshot();
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

    /// Oracle for the disaggregated tests: the same trace on a unified
    /// fleet with sequence-invariant tokens. Disaggregation must be a pure
    /// placement change — identical token streams, bit for bit.
    fn unified_oracle(n_replicas: usize, requests: Vec<ClusterRequest>) -> FaultReport {
        let cfg = FaultClusterConfig::new(n_replicas).with_seq_invariant_tokens();
        let mut cluster = FaultCluster::new(cfg);
        cluster.run(&FaultPlan::new(0), requests)
    }

    #[test]
    fn disaggregated_fleet_matches_unified_token_streams() {
        let oracle = unified_oracle(4, trace(16, 2.0));
        assert_eq!(oracle.completed, 16, "oracle must complete everything");
        let mut cluster = FaultCluster::with_fleet(
            FaultClusterConfig::new(4),
            &ClusterConfig::disaggregated(2, 2),
        );
        let report = cluster.run(&FaultPlan::new(0), trace(16, 2.0));
        assert_eq!(report.completed, 16);
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.handoffs, 16, "every request hands off exactly once");
        assert_eq!(report.handoff_retries, 0, "healthy fleet: no resends");
        assert_eq!(
            report.leaked_blocks, 0,
            "imported prefixes must be released at decode completion"
        );
        assert_eq!(
            report.token_fingerprint, oracle.token_fingerprint,
            "disaggregation must not change a single output token"
        );
        // New traffic lands only on the prefill pool; decode picks only on
        // the decode pool.
        let stats = cluster.router().stats();
        assert_eq!(stats.routed[2] + stats.routed[3], 0);
        assert_eq!(stats.decode_routed[0] + stats.decode_routed[1], 0);
        assert_eq!(stats.decode_routed[2] + stats.decode_routed[3], 16);
        // Handoff counters surface in the merged exposition.
        let merged = cluster.merged_snapshot();
        assert_eq!(merged.counter("vllm_cluster_handoffs_total"), Some(16));
    }

    #[test]
    fn decode_death_mid_transfer_delivers_exactly_once() {
        // Replica 2 (decode) dies one step into the two-step transfer
        // window, before any payload routed to it has committed; replica 3
        // is stalled at step 2 and killed at step 3, so requests that
        // committed onto it sit between handoff commit and their first
        // decode step when the kill lands. Both fault windows of the
        // handoff path fire in one run, and still: every request completes
        // exactly once, nothing leaks, and the token streams match the
        // healthy unified fleet's.
        let oracle = unified_oracle(4, trace(8, 4.0));
        let plan = FaultPlan::new(0)
            .with_event(1, 2, FaultKind::KillReplica)
            .with_event(2, 3, FaultKind::StallReplica { steps: 1 })
            .with_event(3, 3, FaultKind::KillReplica)
            .with_event(20, 2, FaultKind::RestartReplica)
            .with_event(20, 3, FaultKind::RestartReplica);
        let run = || {
            let mut cluster = FaultCluster::with_fleet(
                FaultClusterConfig::new(4),
                &ClusterConfig::disaggregated(2, 2),
            );
            cluster.run(&plan, trace(8, 4.0))
        };
        let report = run();
        assert_eq!(report.kills, 2);
        assert_eq!(report.completed, 8, "no request may die with its replica");
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicates, 0, "payloads are delivered exactly once");
        assert_eq!(
            report.leaked_blocks, 0,
            "no pinned prefix may outlive its request"
        );
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

    #[test]
    fn handoff_spans_are_well_nested() {
        let mut cluster = FaultCluster::with_fleet(
            FaultClusterConfig::new(4),
            &ClusterConfig::disaggregated(2, 2),
        );
        let report = cluster.run(&FaultPlan::new(0), trace(4, 2.0));
        assert_eq!(report.completed, 4);
        let spans = cluster.telemetry().spans().snapshot();
        let handoffs: Vec<&Span> = spans.iter().filter(|s| s.name == "handoff").collect();
        assert_eq!(handoffs.len(), 4, "one handoff span per request");
        let engine_spans: Vec<Span> = cluster
            .all_spans()
            .into_iter()
            .flat_map(|(_, s)| s)
            .collect();
        for h in handoffs {
            assert_ne!(h.trace_id, 0, "handoffs belong to the request trace");
            for name in ["handoff.export", "handoff.transfer", "handoff.install"] {
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
            // The transfer child is the lockstep transfer window.
            let transfer = spans
                .iter()
                .find(|s| s.name == "handoff.transfer" && s.parent_span_id == h.span_id)
                .expect("checked above");
            assert_eq!(transfer.duration(), TRANSFER_STEPS as f64);
            // One slot numbering per attempt: the stub and decode attempts
            // on the engines are siblings of the handoff under the request
            // root, so the decode span — which starts when the install ends
            // — no longer overhangs a handoff span that parents it.
            let siblings = engine_spans
                .iter()
                .filter(|s| s.name == "attempt" && s.trace_id == h.trace_id)
                .inspect(|s| assert_eq!(s.parent_span_id, h.parent_span_id))
                .count();
            assert_eq!(siblings, 2, "stub and decode attempts beside the handoff");
        }
    }

    #[test]
    fn bounded_admission_backpressure_rejects_when_attempts_run_out() {
        // One replica, capacity 1, no faults: a burst cannot all fit, so
        // some requests exhaust their attempts and are rejected — but
        // nothing is lost or duplicated, and the outcome is deterministic.
        let cfg = FaultClusterConfig::new(1)
            .with_max_inflight(1)
            .with_max_attempts(3);
        let run = || {
            let mut cluster = FaultCluster::new(cfg);
            cluster.run(&FaultPlan::new(0), trace(12, 12.0))
        };
        let a = run();
        assert_eq!(a.lost, 0);
        assert_eq!(a.duplicates, 0);
        assert_eq!(a.completed + a.rejected, 12);
        assert!(a.rejected > 0, "capacity 1 must shed part of the burst");
        assert!(a.retries > 0);
        assert_eq!(a, run(), "backpressure must be deterministic");
    }
}
