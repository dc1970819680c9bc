//! # vllm-cluster
//!
//! A multi-replica serving layer over the single-engine core: the paper
//! evaluates one vLLM instance (§6), but production traffic is served by N
//! engine replicas behind a router. This crate provides the pieces shared by
//! the real TCP frontend and the deterministic in-process fleet:
//!
//! * [`Replica`] — an [`LlmEngine`](vllm_core::LlmEngine) running on its own
//!   thread, fed over a channel and publishing an [`EngineStats`] load
//!   snapshot plus the chunk-hash coverage of its block cache. On shutdown
//!   the loop *drains*: queued and in-flight requests finish before the
//!   thread exits.
//! * [`Router`] — pluggable routing policies ([`RoutePolicy`]):
//!   round-robin, join-shortest-queue by outstanding tokens, and
//!   prefix-affinity (send a request to the replica that already holds the
//!   KV cache of its leading block-aligned prompt chunks — the cluster-level
//!   analog of §4.4 block sharing). Per-replica health tracking fails over
//!   to the shortest healthy queue when a replica backs up.
//! * [`RequestFlow`] ([`flow`]) — one request's life across replicas as a
//!   pure, I/O-free state machine: two-phase eligibility, the block-aligned
//!   cut, engine ids and trace slots, the tier hit and the export that ride
//!   the stub, publish, the handoff wire round trip, the install that rides
//!   the decode submission, stitch, retry classification, and the handoff
//!   counters and span tree ([`HandoffMetrics`]). The TCP frontend (real
//!   threads) and [`Fleet`] (virtual time) are its two drivers: each
//!   performs the flow's effects and executes its commands in its own world,
//!   feeds the answers back, and decides nothing else.
//! * [`merge_labeled`] / [`aggregate_stats`] — fold per-replica telemetry
//!   into one cluster view: metric names gain a `{replica="i"}` label and
//!   still round-trip through both expositions.
//! * [`Fleet`] — N engines under one trace and one event loop, generic over
//!   the executor, whose [`FleetTime`] is the clock: the cost model
//!   ([`sim_replica`]) yields throughput-scaling, affinity-hit-rate and TTFT
//!   curves analytically; the lockstep mock ([`lockstep_replica`]) charges
//!   one unit per step. An optional [`FaultPlan`] — seeded schedules of
//!   kills, restarts, stalls, forward failures, swap exhaustion, cache-op
//!   delays and pool pressure — fires on the fleet clock and exercises the
//!   degradation machinery: bounded admission with backpressure, retry with
//!   re-routing, restart with drain. One [`FleetReport`] covers both: same
//!   trace and seed ⇒ same token streams, retry counts and latencies.
//! * [`ClusterConfig`] / [`ReplicaRole`] — the typed fleet builder:
//!   per-replica roles (prefill / decode / unified) for disaggregated
//!   serving, admission bounds, and prefix-tier capacity, replacing
//!   env-string-only wiring (env vars remain inputs via
//!   [`ClusterConfig::with_env`]).
//! * [`PrefixTier`] — the cluster-shared CPU prefix store: serialized KV
//!   blocks in the block manager's own content index, found by the same run
//!   walk, copied out to the installing replica, and evicted tail first,
//!   least recently touched first. A prefix prefilled on one replica
//!   installs on any other without recompute.

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod fleet;
pub mod flow;
pub mod replica;
pub mod router;
pub mod stats;
pub mod tier;

pub use config::{ClusterConfig, ReplicaRole};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{lockstep_replica, sim_replica, ClusterRequest, Fleet, FleetReport, FleetTime};
pub use flow::{
    backoff_seconds, handoff_cut, FlowCommand, FlowEffect, FlowInput, HandoffMetrics,
    HandoffRecord, PrefixKv, RequestFlow, MAX_SUBMIT_ATTEMPTS,
};
pub use replica::{EngineReply, EngineStats, KvInstall, Replica, Replied, Submission};
pub use router::{ReplicaSnapshot, RouteDecision, RoutePolicy, Router, RouterConfig, RouterStats};
pub use stats::{aggregate_stats, merge_labeled};
pub use tier::{PrefixTier, TierMetrics};
