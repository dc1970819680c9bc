//! # vllm-cluster
//!
//! A multi-replica serving layer over the single-engine core: the paper
//! evaluates one vLLM instance (§6), but production traffic is served by N
//! engine replicas behind a router. This crate provides the pieces shared by
//! the real TCP frontend and the discrete-event simulator:
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
//!   cut, engine ids and trace slots, tier lookup → install, export/publish,
//!   the handoff wire round trip, decode install, stitch, retry
//!   classification, and the handoff
//!   counters and span tree ([`HandoffMetrics`]). The TCP frontend (real
//!   threads), [`ClusterSystem`] (virtual time) and [`FaultCluster`]
//!   (lockstep) are its three drivers: each performs the flow's effects and
//!   executes its commands in its own world, feeds the answers back, and
//!   decides nothing else.
//! * [`merge_labeled`] / [`aggregate_stats`] — fold per-replica telemetry
//!   into one cluster view: metric names gain a `{replica="i"}` label and
//!   still round-trip through both expositions.
//! * [`ClusterSystem`] — N simulated engines under one trace, producing
//!   throughput-scaling and affinity-hit-rate curves analytically.
//! * [`FaultPlan`] / [`FaultCluster`] — seeded fault schedules (kills,
//!   stalls, forward failures, swap exhaustion, cache-op delays) driven
//!   through a deterministic lockstep harness that exercises the
//!   degradation machinery: bounded admission with backpressure, retry with
//!   re-routing, restart with drain. Same seed ⇒ same token streams and
//!   retry counts.
//! * [`ClusterConfig`] / [`ReplicaRole`] — the typed fleet builder:
//!   per-replica roles (prefill / decode / unified) for disaggregated
//!   serving, admission bounds, and prefix-tier capacity, replacing
//!   env-string-only wiring (env vars remain inputs via
//!   [`ClusterConfig::with_env`]).
//! * [`PrefixTier`] — the cluster-shared CPU prefix store: content-hash
//!   keyed serialized KV blocks, copied out to the installing replica,
//!   evicted by hits-per-block score. A prefix prefilled on one replica
//!   installs on any other without recompute.

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod flow;
pub mod replica;
pub mod router;
pub mod sim;
pub mod stats;
pub mod tier;

pub use config::{ClusterConfig, ReplicaRole};
pub use fault::{FaultCluster, FaultClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultReport};
pub use flow::{
    backoff_seconds, handoff_cut, FlowCommand, FlowEffect, FlowInput, HandoffMetrics,
    HandoffRecord, PrefixKv, RequestFlow, MAX_SUBMIT_ATTEMPTS,
};
pub use replica::{
    apply_prefix_op, EngineCommand, EngineReply, EngineRequest, EngineStats, PrefixOp, PrefixReply,
    PrefixRequest, Replica,
};
pub use router::{ReplicaSnapshot, RouteDecision, RoutePolicy, Router, RouterConfig, RouterStats};
pub use sim::{ClusterReport, ClusterRequest, ClusterSystem};
pub use stats::{aggregate_stats, merge_labeled};
pub use tier::{PrefixTier, TierEntry, TierStats};
