//! Discrete-event simulation of a replica cluster.
//!
//! [`ClusterSystem`] drives N [`VllmSimSystem`] instances (real engines,
//! cost-model executors) under one arrival trace. Each replica keeps its own
//! virtual clock; the driver alternates between injecting the next arrival
//! (whenever it precedes every busy replica's clock) and stepping the
//! furthest-behind busy replica, so replicas only interact through the
//! router — exactly the independence a real fleet has. Throughput-scaling
//! and affinity-hit-rate curves come out analytically, with no threads and
//! full determinism.
//!
//! Requests are driven through the same [`RequestFlow`] the TCP frontend
//! runs — this module decides nothing about a request's path. It performs
//! the flow's effects and executes its commands under virtual time: every
//! request carries its own virtual *cursor* (arrival, then the finish time
//! of each reply), a tier hit or a `Transfer` advances the cursor by the
//! interconnect (swap-bandwidth) cost of its blocks, and a `Submit` is
//! injected when the fleet's clocks reach the cursor. The simulator models
//! timing, not tensor content: its engines answer `Export` and `Install`
//! themselves with empty-bodied blocks standing in for the KV, so installed
//! and cached prefixes do save prompt compute and do occupy (free) blocks.
//!
//! Disaggregated mode ([`ClusterConfig::disaggregated`]): the stub's finish
//! on a prefill replica is the request's TTFT, the cut prefix is published
//! to the shared [`PrefixTier`] and installed on a decode replica
//! ([`Router::route_decode`]) after the transfer delay, and later arrivals
//! that extend a published prompt install its blocks from the tier instead
//! of prefilling them. The point of the split: p99 TTFT no longer queues
//! behind the memory-bound decode batch.

use std::collections::HashMap;
use std::sync::Arc;

use vllm_baselines::types::StepWork;
use vllm_core::telemetry::{MetricsSnapshot, Telemetry};
use vllm_core::{GenerationRequest, LatencyTracker, TokenId};
use vllm_sim::VllmSimSystem;

use crate::config::ClusterConfig;
use crate::flow::{
    backoff_seconds, FlowCommand, FlowEffect, FlowInput, HandoffMetrics, RequestFlow,
    MAX_SUBMIT_ATTEMPTS,
};
use crate::replica::apply_prefix_op;
use crate::router::{ReplicaSnapshot, Router, RouterConfig};
use crate::stats::merge_labeled;
use crate::tier::PrefixTier;

/// One request of a cluster trace.
#[derive(Debug, Clone)]
pub struct ClusterRequest {
    /// Request id (unique within the trace; also the sampling seed).
    pub id: u64,
    /// Arrival time in virtual seconds.
    pub arrival: f64,
    /// Prompt tokens (the router hashes their leading block chunks).
    pub prompt: Vec<TokenId>,
    /// Scripted output length in tokens.
    pub output_len: usize,
}

impl ClusterRequest {
    /// The typed generation request this trace entry describes: greedy
    /// decoding of the scripted length, seeded with the request id, never
    /// stopping early on EOS (so simulated lengths stay scripted).
    #[must_use]
    pub fn request(&self) -> GenerationRequest {
        GenerationRequest::greedy(self.output_len)
            .with_ignore_eos()
            .with_seed(self.id)
    }
}

/// Aggregated outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Routing policy name.
    pub policy: String,
    /// Number of replicas.
    pub num_replicas: usize,
    /// Requests injected.
    pub num_requests: usize,
    /// Requests finished (always equal to injected — nothing is dropped).
    pub num_finished: usize,
    /// Makespan: the latest replica clock when the cluster drained.
    pub duration: f64,
    /// Finished requests per virtual second.
    pub throughput: f64,
    /// Mean normalized latency (s/token, §6.1) across the cluster.
    pub norm_lat_mean: f64,
    /// Median normalized latency.
    pub norm_lat_p50: f64,
    /// 90th percentile normalized latency.
    pub norm_lat_p90: f64,
    /// 99th percentile normalized latency.
    pub norm_lat_p99: f64,
    /// Requests routed to each replica, in index order.
    pub routed_per_replica: Vec<u64>,
    /// Requests redirected away from an unhealthy replica.
    pub failovers: u64,
    /// Requests placed by prefix affinity.
    pub affinity_hits: u64,
    /// Requests whose chosen replica already held leading prompt chunks.
    pub prefix_cache_hits: u64,
    /// `prefix_cache_hits / num_requests` (0 for an empty trace).
    pub cache_hit_rate: f64,
    /// Replica chosen for each request, in injection order (determinism
    /// checks compare these across runs).
    pub assignments: Vec<(u64, usize)>,
    /// Whether the fleet ran with specialized prefill/decode roles.
    pub disaggregated: bool,
    /// Mean time to first token (seconds).
    pub ttft_mean: f64,
    /// Median time to first token.
    pub ttft_p50: f64,
    /// 99th percentile time to first token (the latency the prefill/decode
    /// split is meant to protect).
    pub ttft_p99: f64,
    /// KV handoffs whose decode phase replied (`vllm_cluster_handoffs_total`).
    pub handoffs: u64,
    /// KV blocks those handoffs installed on decode replicas.
    pub handoff_blocks: u64,
    /// Handoffs routed to each replica, in index order.
    pub decode_routed_per_replica: Vec<u64>,
    /// Requests whose first shared prefix-tier lookup found a usable prefix
    /// (a retried attempt looks up again; that is not counted here).
    pub tier_hits: u64,
    /// Requests whose first shared prefix-tier lookup found nothing.
    pub tier_misses: u64,
    /// `tier_hits / (tier_hits + tier_misses)` (0 when the tier is off).
    pub tier_hit_rate: f64,
}

/// One request in flight through its flow.
struct Active {
    flow: RequestFlow,
    arrival: f64,
    /// The request's own virtual time: its arrival, then the finish time of
    /// its latest reply, plus any transfer or backoff since.
    cursor: f64,
    ttft_seen: bool,
}

/// Per-run bookkeeping.
#[derive(Default)]
struct Run {
    active: HashMap<u64, Active>,
    /// `Submit` commands waiting for the fleet's clocks to reach their
    /// request's cursor: `(at, request id, command)`.
    deferred: Vec<(f64, u64, FlowCommand)>,
    /// Engine-side id → request id for everything admitted.
    inflight: HashMap<String, u64>,
    latency: LatencyTracker,
    ttfts: Vec<f64>,
    assignments: Vec<(u64, usize)>,
    /// First-attempt tier lookups: `[misses, hits]`.
    tier_lookups: [u64; 2],
}

/// N simulated engine replicas behind one router.
pub struct ClusterSystem {
    replicas: Vec<VllmSimSystem>,
    router: Router,
    disaggregated: bool,
    tier: Option<PrefixTier>,
    clocks: Vec<f64>,
    block_size: usize,
    telemetry: Arc<Telemetry>,
    handoff: HandoffMetrics,
}

impl ClusterSystem {
    /// Builds a cluster over already-configured replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    #[must_use]
    pub fn new(replicas: Vec<VllmSimSystem>, cfg: RouterConfig) -> Self {
        assert!(!replicas.is_empty(), "cluster needs at least one replica");
        let mut cluster = ClusterConfig::new(replicas.len());
        cluster.router = cfg;
        Self::with_config(replicas, cluster)
    }

    /// Builds a cluster from a typed fleet configuration: per-replica roles
    /// (disaggregated serving) and shared prefix-tier capacity.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or its length disagrees with the
    /// configured roles.
    #[must_use]
    pub fn with_config(replicas: Vec<VllmSimSystem>, cfg: ClusterConfig) -> Self {
        assert!(!replicas.is_empty(), "cluster needs at least one replica");
        assert_eq!(replicas.len(), cfg.num_replicas(), "one role per replica");
        let n = replicas.len();
        let block_size = replicas[0].engine().cache_config().block_size;
        let telemetry = Arc::new(Telemetry::new());
        let mut router = Router::new(cfg.router, n);
        router.attach_telemetry(&telemetry);
        router.set_roles(cfg.roles.clone());
        let tier = (cfg.prefix_tier_blocks > 0).then(|| {
            let mut t = PrefixTier::new(cfg.prefix_tier_blocks, block_size);
            t.attach_telemetry(&telemetry);
            t
        });
        let handoff = HandoffMetrics::attach(&telemetry);
        Self {
            replicas,
            router,
            disaggregated: cfg.is_disaggregated(),
            tier,
            clocks: vec![0.0; n],
            block_size,
            telemetry,
            handoff,
        }
    }

    /// Warms a shared prefix into one replica's block cache (the router's
    /// coverage view picks it up).
    ///
    /// # Panics
    ///
    /// Panics if the prefix does not fit the replica's free pool.
    pub fn register_prefix(&mut self, replica: usize, tokens: &[TokenId]) {
        self.replicas[replica].register_prefix(tokens);
    }

    /// The router (policy, health, counters).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The replicas, in index order (post-run leak and memory inspection).
    #[must_use]
    pub fn replicas(&self) -> &[VllmSimSystem] {
        &self.replicas
    }

    /// The shared prefix tier, when enabled.
    #[must_use]
    pub fn tier(&self) -> Option<&PrefixTier> {
        self.tier.as_ref()
    }

    /// The cluster-level telemetry bundle (router counters).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One merged snapshot: per-replica engine metrics under
    /// `{replica="i"}` labels plus the unlabeled `vllm_cluster_*` router
    /// counters.
    #[must_use]
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let parts: Vec<(String, MetricsSnapshot)> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (i.to_string(), r.engine().metrics_snapshot()))
            .collect();
        let mut merged = merge_labeled(&parts);
        merged
            .metrics
            .extend(self.telemetry.registry().snapshot().metrics);
        merged.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }

    /// The router's per-replica view. Coverage is read fresh: a replica's
    /// block index moves with nearly every step it takes between routes.
    fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        self.replicas
            .iter()
            .map(|r| ReplicaSnapshot {
                load: r.engine().load_snapshot(),
                coverage: Arc::new(r.engine().prefix_coverage()),
            })
            .collect()
    }

    /// Models the interconnect time to ship `nblocks` KV blocks to
    /// `replica` (swap-bandwidth rate from its cost model).
    fn transfer_delay(&self, replica: usize, nblocks: usize) -> f64 {
        if nblocks == 0 {
            return 0.0;
        }
        let work = StepWork {
            swapped_blocks: nblocks,
            ..StepWork::default()
        };
        self.replicas[replica]
            .engine()
            .executor()
            .cost
            .step_latency(&work)
    }

    /// Advances request `id`'s flow with `input`, executing its commands at
    /// the request's cursor until a `Submit` parks it on the deferred queue
    /// or it finishes.
    ///
    /// # Panics
    ///
    /// Panics if the request fails (an inadmissible prompt).
    fn drive(&mut self, id: u64, mut input: FlowInput, run: &mut Run) {
        loop {
            let a = run.active.get_mut(&id).expect("flow exists while driven");
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
                    let snaps = self.snapshots();
                    let replica = a.flow.route(&mut self.router, &snaps);
                    if a.flow.attempt() == 0 {
                        run.assignments.push((id, replica));
                    }
                    FlowInput::Routed { replica }
                }
                FlowCommand::RouteDecode => {
                    let snaps = self.snapshots();
                    FlowInput::Routed {
                        replica: a.flow.route_decode(&mut self.router, &snaps),
                    }
                }
                // A hit is fetched over the interconnect. The report counts
                // each request's first lookup only, so retried attempts do
                // not inflate the hit rate.
                FlowCommand::TierLookup { replica, tokens } => {
                    let hit = self.tier.as_mut().and_then(|t| t.fetch(&tokens));
                    if let Some((_, blocks)) = &hit {
                        a.cursor += self.transfer_delay(replica, blocks.len());
                    }
                    if a.flow.attempt() == 0 && self.tier.is_some() {
                        run.tier_lookups[usize::from(hit.is_some())] += 1;
                    }
                    FlowInput::Tier(hit)
                }
                FlowCommand::Transfer { replica, blocks } => {
                    a.cursor += self.transfer_delay(replica, blocks);
                    FlowInput::Done
                }
                FlowCommand::PrefixOp { replica, op } => {
                    FlowInput::Prefix(apply_prefix_op(self.replicas[replica].engine_mut(), op))
                }
                submit @ FlowCommand::Submit { .. } => {
                    run.deferred.push((a.cursor, id, submit));
                    return;
                }
                FlowCommand::Backoff { attempt, hint } => {
                    a.cursor += backoff_seconds(attempt, hint);
                    FlowInput::Done
                }
                FlowCommand::Finish(result) => {
                    let out = result.unwrap_or_else(|e| panic!("request {id} failed: {e}"));
                    // Latency spans every phase plus the transfers.
                    run.latency
                        .record(a.arrival, out.finish_time, out.mean_output_len());
                    run.active.remove(&id);
                    return;
                }
            };
        }
    }

    /// Admits a deferred `Submit` at virtual time `at`.
    fn inject(&mut self, at: f64, id: u64, submit: FlowCommand, run: &mut Run) {
        let FlowCommand::Submit {
            replica,
            engine_id,
            prompt,
            request,
        } = submit
        else {
            unreachable!("only submits are deferred");
        };
        self.clocks[replica] = self.clocks[replica].max(at);
        let admitted = self.replicas[replica]
            .engine_mut()
            .add_generation_request_at(engine_id.clone(), prompt, &request, at);
        match admitted {
            Ok(()) => {
                run.inflight.insert(engine_id, id);
            }
            Err(e) => self.drive(id, FlowInput::Reply(Err(e)), run),
        }
    }

    /// Runs the trace to completion and reports aggregate metrics.
    ///
    /// # Panics
    ///
    /// Panics if a request is rejected by its replica (oversized prompt).
    pub fn run(&mut self, mut requests: Vec<ClusterRequest>) -> ClusterReport {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let num_requests = requests.len();
        let (handoffs0, blocks0) = (self.handoff.handoffs.get(), self.handoff.blocks.get());
        let mut run = Run::default();
        let mut next = 0;
        loop {
            let min_busy_clock = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.engine().has_unfinished())
                .map(|(i, _)| self.clocks[i])
                .min_by(f64::total_cmp);
            // Earliest pending injection: a deferred submit or the next
            // trace arrival (the submit wins ties, so a request already in
            // the fleet moves before new work lands on its replica).
            let next_deferred = run
                .deferred
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(idx, d)| (idx, d.0));
            let next_arrival = (next < requests.len()).then(|| requests[next].arrival);
            // Inject when no replica's pending step could precede the
            // injection time (idle replicas fast-forward to it).
            let may_inject = |at: f64| min_busy_clock.is_none_or(|c| at <= c);
            match (next_deferred, next_arrival) {
                (Some((idx, at)), arrival) if arrival.is_none_or(|arr| at <= arr) => {
                    if may_inject(at) {
                        let (_, id, submit) = run.deferred.swap_remove(idx);
                        self.inject(at, id, submit, &mut run);
                        continue;
                    }
                }
                (_, Some(arrival)) => {
                    if may_inject(arrival) {
                        let req = requests[next].clone();
                        next += 1;
                        let flow = RequestFlow::new(
                            req.id.to_string(),
                            req.prompt.clone(),
                            req.request(),
                            self.block_size,
                            self.disaggregated,
                            MAX_SUBMIT_ATTEMPTS,
                        );
                        let active = Active {
                            flow,
                            arrival,
                            cursor: arrival,
                            ttft_seen: false,
                        };
                        run.active.insert(req.id, active);
                        self.drive(req.id, FlowInput::Start, &mut run);
                        continue;
                    }
                }
                (_, None) => {}
            }
            // Otherwise advance the furthest-behind busy replica one step.
            let Some(i) = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.engine().has_unfinished())
                .map(|(i, _)| i)
                .min_by(|&a, &b| self.clocks[a].total_cmp(&self.clocks[b]))
            else {
                break; // Trace exhausted and every replica drained.
            };
            let (outs, elapsed) = {
                let engine = self.replicas[i].engine_mut();
                engine.advance_clock_to(self.clocks[i]);
                let before = engine.clock();
                let outs = engine.step().expect("busy replica steps");
                (outs, engine.clock() - before)
            };
            self.clocks[i] += elapsed.max(1e-9);
            for o in outs {
                let id = run.inflight.remove(&o.request_id).expect("admitted here");
                let a = run.active.get_mut(&id).expect("in flight");
                a.cursor = o.finish_time;
                // The first reply with a token closes TTFT: the unified
                // run's, or the prefill stub's.
                if let (false, Some(first)) = (a.ttft_seen, o.first_token_time) {
                    a.ttft_seen = true;
                    run.ttfts.push(first - a.arrival);
                }
                self.drive(id, FlowInput::Reply(Ok(o)), &mut run);
            }
        }
        let Run {
            latency,
            mut ttfts,
            assignments,
            tier_lookups: [tier_misses, tier_hits],
            ..
        } = run;
        let disaggregated = self.disaggregated;
        let handoffs = self.handoff.handoffs.get() - handoffs0;
        let handoff_blocks = self.handoff.blocks.get() - blocks0;
        ttfts.sort_by(f64::total_cmp);
        let ttft_pct = |p: f64| -> f64 {
            if ttfts.is_empty() {
                0.0
            } else {
                let idx = ((p / 100.0) * (ttfts.len() - 1) as f64).round() as usize;
                ttfts[idx.min(ttfts.len() - 1)]
            }
        };
        let stats = self.router.stats();
        let duration = self.clocks.iter().copied().fold(0.0, f64::max);
        ClusterReport {
            policy: self.router.config().policy.name().to_string(),
            num_replicas: self.replicas.len(),
            num_requests,
            num_finished: latency.num_requests(),
            duration,
            throughput: if duration > 0.0 {
                latency.num_requests() as f64 / duration
            } else {
                0.0
            },
            norm_lat_mean: latency.mean_normalized_latency().unwrap_or(0.0),
            norm_lat_p50: latency.percentile_normalized_latency(50.0).unwrap_or(0.0),
            norm_lat_p90: latency.percentile_normalized_latency(90.0).unwrap_or(0.0),
            norm_lat_p99: latency.percentile_normalized_latency(99.0).unwrap_or(0.0),
            routed_per_replica: stats.routed.clone(),
            failovers: stats.failovers,
            affinity_hits: stats.affinity_hits,
            prefix_cache_hits: stats.prefix_cache_hits,
            cache_hit_rate: if num_requests > 0 {
                stats.prefix_cache_hits as f64 / num_requests as f64
            } else {
                0.0
            },
            assignments,
            disaggregated,
            ttft_mean: if ttfts.is_empty() {
                0.0
            } else {
                ttfts.iter().sum::<f64>() / ttfts.len() as f64
            },
            ttft_p50: ttft_pct(50.0),
            ttft_p99: ttft_pct(99.0),
            handoffs,
            handoff_blocks,
            decode_routed_per_replica: stats.decode_routed.clone(),
            tier_hits,
            tier_misses,
            tier_hit_rate: if tier_hits + tier_misses > 0 {
                tier_hits as f64 / (tier_hits + tier_misses) as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutePolicy;
    use vllm_core::PreemptionMode;
    use vllm_sim::{sim_prompt_tokens, ServerConfig};

    fn small_replica() -> VllmSimSystem {
        let mut cfg = ServerConfig::opt_13b_1gpu();
        cfg.gpu.mem_bytes_per_gpu = 28.5e9; // ~1.3K KV slots.
        VllmSimSystem::new(cfg, 16, PreemptionMode::Recompute)
    }

    fn trace(n: u64, rate: f64) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival: i as f64 / rate,
                prompt: sim_prompt_tokens(i, 64),
                output_len: 24,
            })
            .collect()
    }

    #[test]
    fn cluster_finishes_every_request() {
        let replicas = vec![small_replica(), small_replica()];
        let mut cluster =
            ClusterSystem::new(replicas, RouterConfig::new(RoutePolicy::JoinShortestQueue));
        let report = cluster.run(trace(12, 2.0));
        assert_eq!(report.num_finished, 12);
        assert_eq!(report.routed_per_replica.iter().sum::<u64>(), 12);
        assert!(report.throughput > 0.0);
        assert!(report.norm_lat_p99 >= report.norm_lat_p50);
    }

    #[test]
    fn affinity_routes_to_prefix_holder() {
        let replicas = vec![small_replica(), small_replica()];
        let mut cluster =
            ClusterSystem::new(replicas, RouterConfig::new(RoutePolicy::PrefixAffinity));
        // Replica 1 holds a 32-token (two-block) shared prefix.
        let prefix = sim_prompt_tokens(999, 32);
        cluster.register_prefix(1, &prefix);
        let reqs: Vec<ClusterRequest> = (0..6)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.extend(sim_prompt_tokens(i, 32));
                ClusterRequest {
                    id: i,
                    arrival: i as f64,
                    prompt,
                    output_len: 8,
                }
            })
            .collect();
        let report = cluster.run(reqs);
        assert_eq!(report.num_finished, 6);
        assert_eq!(report.affinity_hits, 6);
        assert_eq!(report.prefix_cache_hits, 6);
        assert_eq!(report.routed_per_replica, vec![0, 6]);
        // The router counters round-trip through the merged exposition.
        let merged = cluster.merged_snapshot();
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
        let replicas = (0..4).map(|_| small_replica()).collect();
        let cfg = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(256);
        let mut cluster = ClusterSystem::with_config(replicas, cfg);
        // Turn 1 of a conversation, then a follow-up turn that extends the
        // full prior context (ShareGPT-style multi-turn).
        let base = sim_prompt_tokens(0, 64);
        let mut follow = base.clone();
        follow.extend(sim_prompt_tokens(1, 32));
        let reqs = vec![
            ClusterRequest {
                id: 0,
                arrival: 0.0,
                prompt: base,
                output_len: 8,
            },
            ClusterRequest {
                id: 1,
                arrival: 50.0,
                prompt: follow,
                output_len: 8,
            },
        ];
        let report = cluster.run(reqs);
        assert!(report.disaggregated);
        assert_eq!(report.num_finished, 2);
        assert_eq!(report.handoffs, 2);
        assert!(report.handoff_blocks > 0);
        // New requests land only on prefill replicas; handoffs only on
        // decode replicas.
        assert_eq!(
            report.routed_per_replica[2] + report.routed_per_replica[3],
            0
        );
        assert_eq!(report.decode_routed_per_replica.iter().sum::<u64>(), 2);
        assert_eq!(
            report.decode_routed_per_replica[0] + report.decode_routed_per_replica[1],
            0
        );
        // The follow-up turn found turn 1's KV in the shared tier.
        assert_eq!(report.tier_hits, 1);
        assert!(report.tier_hit_rate > 0.0);
        assert!(report.ttft_p99 > 0.0);
        assert!(report.ttft_p50 <= report.ttft_p99);
        // Nothing was ever pinned — installs and finished requests leave
        // their KV in free blocks: zero leaks fleet-wide.
        for r in cluster.replicas() {
            let bm = r.engine().scheduler().block_manager();
            assert_eq!(bm.num_free_gpu_blocks(), bm.num_total_gpu_blocks());
            bm.assert_consistent();
        }
        // Turn 1's 64-token prompt is block-aligned, so its cut is 3 blocks
        // (published, and shipped to decode); turn 2 installs those 3 from
        // the tier and computes the rest of its 5-block cut, of which the
        // decode replica — the one that decoded turn 1, whose 64 prompt + 8
        // generated tokens left 4 full blocks cached — is sent the last one.
        assert_eq!(report.handoff_blocks, 3 + 1);
        // Handoff + tier counters round-trip through the merged exposition.
        let merged = cluster.merged_snapshot();
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
            let replicas = (0..4).map(|_| small_replica()).collect();
            let cfg = ClusterConfig::disaggregated(2, 2).with_prefix_tier_blocks(128);
            let mut cluster = ClusterSystem::with_config(replicas, cfg);
            let r = cluster.run(trace(10, 4.0));
            (r.assignments.clone(), r.duration, r.ttft_p99, r.handoffs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unified_fleet_reports_ttft() {
        let replicas = vec![small_replica(), small_replica()];
        let mut cluster =
            ClusterSystem::new(replicas, RouterConfig::new(RoutePolicy::JoinShortestQueue));
        let report = cluster.run(trace(8, 2.0));
        assert!(!report.disaggregated);
        assert_eq!(report.handoffs, 0);
        assert!(report.ttft_mean > 0.0);
        assert!(report.ttft_p50 <= report.ttft_p99);
        assert_eq!(report.tier_hits + report.tier_misses, 0);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let run = || {
            let replicas = vec![small_replica(), small_replica()];
            let mut cluster =
                ClusterSystem::new(replicas, RouterConfig::new(RoutePolicy::JoinShortestQueue));
            let r = cluster.run(trace(10, 4.0));
            (r.assignments.clone(), r.duration, r.norm_lat_mean)
        };
        assert_eq!(run(), run());
    }
}
