//! Request routing across engine replicas.
//!
//! The router is deliberately pure: [`Router::route`] maps (prompt chunk
//! hashes, per-replica snapshots) to a replica index with no clocks or
//! randomness, so the threaded frontend and the discrete-event simulator
//! make byte-identical decisions and runs replay deterministically.
//!
//! Policies:
//!
//! * [`RoutePolicy::RoundRobin`] — rotate through replicas.
//! * [`RoutePolicy::JoinShortestQueue`] — pick the replica with the fewest
//!   *outstanding tokens* (uncomputed prefill plus remaining decode budget),
//!   so one long prompt weighs more than many short ones.
//! * [`RoutePolicy::PrefixAffinity`] — prefer the replica whose prefix pool
//!   already covers the prompt's leading block-aligned chunks (longest
//!   coverage wins, outstanding tokens break ties); fall back to
//!   join-shortest-queue when no replica covers any chunk. This extends the
//!   paper's §4.4 block sharing across the fleet: a hit skips the shared
//!   prefill entirely on the chosen replica.
//!
//! Health and failover: a replica whose waiting queue exceeds
//! [`RouterConfig::max_queue_depth`] is marked unhealthy and receives no
//! traffic until its queue falls to half the bound (hysteresis, so a replica
//! hovering at the bound does not flap). When the policy's first choice is
//! unhealthy, the request fails over to the shortest healthy queue; if every
//! replica is unhealthy the policy choice stands (degraded, but requests are
//! never dropped).
//!
//! Replica loss: a replica reported dead via [`Router::mark_dead`] is
//! excluded from every policy (including prefix affinity — coverage on a
//! dead replica is worthless) until [`Router::mark_alive`] restores it after
//! a restart. If *every* replica is dead the policy choice stands, matching
//! the all-unhealthy degraded mode. Retries of in-flight requests re-routed
//! off a dead replica are counted via [`Router::record_retry`] and exported
//! as `vllm_cluster_retries_total`.

//! Roles: under disaggregated serving ([`crate::config::ReplicaRole`]) new
//! requests only route to prefill-capable replicas, and
//! [`Router::route_decode`] picks the decode-capable replica that receives
//! the KV handoff. If every replica of the required role is dead, any alive
//! replica may absorb the traffic (degraded beats dropped), mirroring the
//! all-dead fallback. A unified fleet (the default) behaves exactly as
//! before roles existed.

use crate::config::ReplicaRole;
use vllm_core::telemetry::{Counter, Gauge, Telemetry};
use vllm_core::EngineLoad;

/// A routing policy name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Rotate through replicas in index order.
    RoundRobin,
    /// Fewest outstanding tokens first.
    JoinShortestQueue,
    /// Longest resident prefix coverage first, JSQ fallback.
    PrefixAffinity,
}

impl RoutePolicy {
    /// The canonical CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::RoundRobin => "round-robin",
            Self::JoinShortestQueue => "jsq",
            Self::PrefixAffinity => "prefix-affinity",
        }
    }
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RoutePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round-robin" | "rr" => Ok(Self::RoundRobin),
            "jsq" | "shortest-queue" => Ok(Self::JoinShortestQueue),
            "prefix-affinity" | "affinity" => Ok(Self::PrefixAffinity),
            other => Err(format!(
                "unknown policy {other:?} (expected round-robin | jsq | prefix-affinity)"
            )),
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// The routing policy.
    pub policy: RoutePolicy,
    /// A replica whose waiting queue exceeds this is unhealthy and receives
    /// no traffic until the queue drains to half the bound.
    pub max_queue_depth: usize,
}

impl RouterConfig {
    /// A configuration with the default queue bound.
    #[must_use]
    pub fn new(policy: RoutePolicy) -> Self {
        Self {
            policy,
            max_queue_depth: 256,
        }
    }

    /// Overrides the failover queue bound.
    #[must_use]
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }
}

/// What the router sees of one replica at decision time.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSnapshot {
    /// Queue/memory/latency load.
    pub load: EngineLoad,
    /// Sorted chunk hashes of the computed prefixes resident in the
    /// replica's pool (see `vllm_core::prefix::PrefixPool::coverage_hashes`).
    pub coverage: std::sync::Arc<Vec<u64>>,
}

/// The outcome of one routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Chosen replica index.
    pub replica: usize,
    /// Leading prompt chunks whose KV cache is resident on the chosen
    /// replica (> 0 means the request reuses cached prefix state).
    pub covered_chunks: usize,
    /// Whether prefix affinity (not the fallback) made the choice.
    pub affinity_hit: bool,
    /// Whether the policy's first choice was unhealthy and the request was
    /// redirected to a healthy replica.
    pub failover: bool,
}

/// Plain-counter mirror of the router's telemetry (report writers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed, per replica index.
    pub routed: Vec<u64>,
    /// Requests redirected away from an unhealthy first choice.
    pub failovers: u64,
    /// Requests placed by prefix affinity.
    pub affinity_hits: u64,
    /// Requests whose chosen replica already held at least one leading
    /// prompt chunk (counted under every policy, so hit rates compare).
    pub prefix_cache_hits: u64,
    /// Requests re-routed after a retryable failure (replica death,
    /// backpressure rejection, transient engine error).
    pub retries: u64,
    /// KV handoffs routed to each replica by [`Router::route_decode`]
    /// (disaggregated fleets only; tracked apart from `routed` so a
    /// migrated request is not double-counted).
    pub decode_routed: Vec<u64>,
}

/// Cached telemetry handles for the router.
#[derive(Debug)]
struct RouterMetrics {
    routed_total: Counter,
    per_replica: Vec<Counter>,
    failovers: Counter,
    affinity_hits: Counter,
    cache_hits: Counter,
    retries: Counter,
    replicas: Gauge,
    dead_replicas: Gauge,
}

/// Routes requests across a fixed pool of replicas.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    num_replicas: usize,
    rr_next: usize,
    roles: Vec<ReplicaRole>,
    unhealthy: Vec<bool>,
    dead: Vec<bool>,
    stats: RouterStats,
    metrics: Option<RouterMetrics>,
}

/// Number of leading prompt chunks resident in `coverage` (chunk hashes are
/// cumulative, so coverage stops at the first miss).
pub(crate) fn covered_chunks(prompt_hashes: &[u64], coverage: &[u64]) -> usize {
    prompt_hashes
        .iter()
        .take_while(|h| coverage.binary_search(h).is_ok())
        .count()
}

impl Router {
    /// Creates a router over `num_replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas` is zero.
    #[must_use]
    pub fn new(cfg: RouterConfig, num_replicas: usize) -> Self {
        assert!(num_replicas > 0, "router needs at least one replica");
        Self {
            cfg,
            num_replicas,
            rr_next: 0,
            roles: vec![ReplicaRole::Unified; num_replicas],
            unhealthy: vec![false; num_replicas],
            dead: vec![false; num_replicas],
            stats: RouterStats {
                routed: vec![0; num_replicas],
                decode_routed: vec![0; num_replicas],
                ..RouterStats::default()
            },
            metrics: None,
        }
    }

    /// Assigns per-replica roles (disaggregated serving). A fresh router is
    /// all-[`ReplicaRole::Unified`], which routes exactly as before roles
    /// existed.
    ///
    /// # Panics
    ///
    /// Panics if `roles.len()` differs from the router's replica count.
    pub fn set_roles(&mut self, roles: Vec<ReplicaRole>) {
        assert_eq!(roles.len(), self.num_replicas, "one role per replica");
        self.roles = roles;
    }

    /// The per-replica roles.
    #[must_use]
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.roles
    }

    /// Registers the `vllm_cluster_*` instruments on `telemetry` and mirrors
    /// every subsequent decision into them.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        let per_replica = (0..self.num_replicas)
            .map(|i| {
                r.counter(
                    &format!("vllm_cluster_replica_routed_total{{replica=\"{i}\"}}"),
                    "Requests routed to this replica.",
                )
            })
            .collect();
        let metrics = RouterMetrics {
            routed_total: r.counter(
                "vllm_cluster_requests_routed_total",
                "Requests routed by the cluster router.",
            ),
            per_replica,
            failovers: r.counter(
                "vllm_cluster_failovers_total",
                "Requests redirected away from an unhealthy replica.",
            ),
            affinity_hits: r.counter(
                "vllm_cluster_affinity_hits_total",
                "Requests placed by prefix affinity (not the JSQ fallback).",
            ),
            cache_hits: r.counter(
                "vllm_cluster_prefix_cache_hits_total",
                "Requests whose chosen replica already held leading prompt chunks.",
            ),
            retries: r.counter(
                "vllm_cluster_retries_total",
                "Requests re-routed after a retryable failure.",
            ),
            replicas: r.gauge("vllm_cluster_replicas", "Replicas behind the router."),
            dead_replicas: r.gauge(
                "vllm_cluster_dead_replicas",
                "Replicas currently marked dead.",
            ),
        };
        metrics.replicas.set(self.num_replicas as f64);
        metrics
            .dead_replicas
            .set(self.dead.iter().filter(|d| **d).count() as f64);
        self.metrics = Some(metrics);
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Plain-counter mirror of the routing telemetry.
    #[must_use]
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Current health view (`true` = receiving traffic).
    #[must_use]
    pub fn is_healthy(&self, replica: usize) -> bool {
        !self.unhealthy[replica]
    }

    /// Whether the replica is alive (not reported dead).
    #[must_use]
    pub fn is_alive(&self, replica: usize) -> bool {
        !self.dead[replica]
    }

    /// Number of replicas not currently marked dead.
    #[must_use]
    pub fn num_alive(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Reports a replica dead: it receives no traffic until
    /// [`mark_alive`](Self::mark_alive) restores it.
    pub fn mark_dead(&mut self, replica: usize) {
        self.dead[replica] = true;
        if let Some(m) = &self.metrics {
            m.dead_replicas
                .set(self.dead.iter().filter(|d| **d).count() as f64);
        }
    }

    /// Restores a replica (after restart-with-drain) to the routable set.
    pub fn mark_alive(&mut self, replica: usize) {
        self.dead[replica] = false;
        if let Some(m) = &self.metrics {
            m.dead_replicas
                .set(self.dead.iter().filter(|d| **d).count() as f64);
        }
    }

    /// Counts one retry: an in-flight request re-routed after a retryable
    /// failure (replica death, backpressure rejection, transient error).
    pub fn record_retry(&mut self) {
        self.stats.retries += 1;
        if let Some(m) = &self.metrics {
            m.retries.inc();
        }
    }

    /// Routes one request. `prompt_hashes` are the prompt's cumulative
    /// block-chunk hashes (`vllm_core::chunk_hashes`); `snaps` must have one
    /// entry per replica, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `snaps.len()` differs from the router's replica count.
    pub fn route(&mut self, prompt_hashes: &[u64], snaps: &[ReplicaSnapshot]) -> RouteDecision {
        assert_eq!(snaps.len(), self.num_replicas, "one snapshot per replica");
        self.update_health(snaps);

        // Dead replicas are excluded everywhere — unless every replica is
        // dead, in which case the policy choice stands (requests are never
        // dropped at the router; the submission path reports the failure).
        // New requests prefer prefill-capable replicas; if none is alive,
        // any alive replica absorbs them (degraded beats dropped).
        let any_alive = self.dead.iter().any(|d| !d);
        let dead = &self.dead;
        let roles = &self.roles;
        let any_eligible = (0..self.num_replicas).any(|i| !dead[i] && roles[i].takes_prefill());
        let alive = |i: usize| {
            if any_eligible {
                !dead[i] && roles[i].takes_prefill()
            } else {
                !dead[i] || !any_alive
            }
        };

        let mut affinity_hit = false;
        let pick = match self.cfg.policy {
            RoutePolicy::RoundRobin => {
                let mut pick = self.rr_next % self.num_replicas;
                if any_alive {
                    while !alive(pick) {
                        pick = (pick + 1) % self.num_replicas;
                    }
                }
                self.rr_next = (pick + 1) % self.num_replicas;
                pick
            }
            RoutePolicy::JoinShortestQueue => shortest_queue(snaps, alive),
            RoutePolicy::PrefixAffinity => {
                let best = snaps
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| alive(*i))
                    .map(|(_, s)| covered_chunks(prompt_hashes, &s.coverage))
                    .max()
                    .unwrap_or(0);
                if best > 0 {
                    affinity_hit = true;
                    // Longest coverage wins; outstanding tokens break ties.
                    shortest_queue(snaps, |i| {
                        alive(i) && covered_chunks(prompt_hashes, &snaps[i].coverage) == best
                    })
                } else {
                    shortest_queue(snaps, alive)
                }
            }
        };

        let mut failover = false;
        let replica = if self.unhealthy[pick]
            && self
                .unhealthy
                .iter()
                .enumerate()
                .any(|(i, u)| !u && alive(i))
        {
            failover = true;
            shortest_queue(snaps, |i| !self.unhealthy[i] && alive(i))
        } else {
            pick
        };

        let covered = covered_chunks(prompt_hashes, &snaps[replica].coverage);
        let decision = RouteDecision {
            replica,
            covered_chunks: covered,
            affinity_hit: affinity_hit && replica == pick,
            failover,
        };
        self.record(&decision);
        decision
    }

    /// Picks the decode-capable replica that receives a KV handoff (fewest
    /// outstanding tokens wins; ties break to the lowest index). Healthy
    /// replicas are preferred, dead ones excluded; if every decode-capable
    /// replica is dead, any alive replica absorbs the handoff, and an
    /// all-dead fleet degrades to the overall shortest queue — the handoff
    /// is never dropped at the router.
    ///
    /// Counted under `decode_routed`, not `routed`, so a migrated request
    /// is not double-counted in placement stats.
    ///
    /// # Panics
    ///
    /// Panics if `snaps.len()` differs from the router's replica count.
    pub fn route_decode(&mut self, snaps: &[ReplicaSnapshot]) -> usize {
        assert_eq!(snaps.len(), self.num_replicas, "one snapshot per replica");
        self.update_health(snaps);

        let any_alive = self.dead.iter().any(|d| !d);
        let dead = &self.dead;
        let roles = &self.roles;
        let any_eligible = (0..self.num_replicas).any(|i| !dead[i] && roles[i].takes_decode());
        let keep = |i: usize| {
            if any_eligible {
                !dead[i] && roles[i].takes_decode()
            } else {
                !dead[i] || !any_alive
            }
        };
        let any_healthy = (0..self.num_replicas).any(|i| keep(i) && !self.unhealthy[i]);
        let pick = if any_healthy {
            shortest_queue(snaps, |i| keep(i) && !self.unhealthy[i])
        } else {
            shortest_queue(snaps, keep)
        };
        self.stats.decode_routed[pick] += 1;
        pick
    }

    fn update_health(&mut self, snaps: &[ReplicaSnapshot]) {
        for (i, s) in snaps.iter().enumerate() {
            if s.load.waiting > self.cfg.max_queue_depth {
                self.unhealthy[i] = true;
            } else if self.unhealthy[i] && s.load.waiting <= self.cfg.max_queue_depth / 2 {
                self.unhealthy[i] = false;
            }
        }
    }

    fn record(&mut self, d: &RouteDecision) {
        self.stats.routed[d.replica] += 1;
        if d.failover {
            self.stats.failovers += 1;
        }
        if d.affinity_hit {
            self.stats.affinity_hits += 1;
        }
        if d.covered_chunks > 0 {
            self.stats.prefix_cache_hits += 1;
        }
        if let Some(m) = &self.metrics {
            m.routed_total.inc();
            m.per_replica[d.replica].inc();
            if d.failover {
                m.failovers.inc();
            }
            if d.affinity_hit {
                m.affinity_hits.inc();
            }
            if d.covered_chunks > 0 {
                m.cache_hits.inc();
            }
        }
    }
}

/// Index with the fewest outstanding tokens among replicas passing `keep`
/// (ties break to the lowest index). Falls back to replica 0 if `keep`
/// rejects everything.
fn shortest_queue(snaps: &[ReplicaSnapshot], keep: impl Fn(usize) -> bool) -> usize {
    snaps
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .min_by_key(|(i, s)| (s.load.outstanding_tokens, *i))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn snap(waiting: usize, outstanding: u64, coverage: Vec<u64>) -> ReplicaSnapshot {
        ReplicaSnapshot {
            load: EngineLoad {
                waiting,
                outstanding_tokens: outstanding,
                ..EngineLoad::default()
            },
            coverage: Arc::new(coverage),
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::RoundRobin), 3);
        let snaps = vec![snap(0, 0, vec![]), snap(0, 0, vec![]), snap(0, 0, vec![])];
        let picks: Vec<usize> = (0..6).map(|_| router.route(&[], &snaps).replica).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_picks_fewest_outstanding_tokens() {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::JoinShortestQueue), 3);
        let snaps = vec![
            snap(0, 90, vec![]),
            snap(0, 10, vec![]),
            snap(0, 50, vec![]),
        ];
        assert_eq!(router.route(&[], &snaps).replica, 1);
        // Ties break to the lowest index.
        let tied = vec![
            snap(0, 10, vec![]),
            snap(0, 10, vec![]),
            snap(0, 50, vec![]),
        ];
        assert_eq!(router.route(&[], &tied).replica, 0);
    }

    #[test]
    fn affinity_prefers_covering_replica_and_falls_back_to_jsq() {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::PrefixAffinity), 2);
        // Replica 1 covers the first two chunks despite a longer queue.
        let snaps = vec![snap(0, 5, vec![]), snap(0, 500, vec![7, 11, 13])];
        let d = router.route(&[7, 11, 99], &snaps);
        assert_eq!(d.replica, 1);
        assert!(d.affinity_hit);
        assert_eq!(d.covered_chunks, 2);
        // No coverage anywhere: JSQ fallback, no affinity hit.
        let d = router.route(&[42], &snaps);
        assert_eq!(d.replica, 0);
        assert!(!d.affinity_hit);
        assert_eq!(d.covered_chunks, 0);
        assert_eq!(router.stats().affinity_hits, 1);
        assert_eq!(router.stats().prefix_cache_hits, 1);
    }

    #[test]
    fn coverage_stops_at_first_missing_chunk() {
        // The third chunk is covered but the second is not: only the first
        // counts, because chunk hashes are cumulative.
        assert_eq!(covered_chunks(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(covered_chunks(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(covered_chunks(&[9], &[1, 2, 3]), 0);
    }

    #[test]
    fn overloaded_replica_fails_over_with_hysteresis() {
        let cfg = RouterConfig::new(RoutePolicy::RoundRobin).with_max_queue_depth(10);
        let mut router = Router::new(cfg, 2);
        // Replica 0's queue exceeds the bound: round-robin would pick it
        // first, but the request fails over to replica 1.
        let overloaded = vec![snap(11, 999, vec![]), snap(0, 0, vec![])];
        let d = router.route(&[], &overloaded);
        assert_eq!(d.replica, 1);
        assert!(d.failover);
        // Queue back under the bound but above half of it: still unhealthy.
        // Round-robin's next natural pick is replica 1 (healthy, no
        // failover), then replica 0 again — which fails over.
        let recovering = vec![snap(8, 10, vec![]), snap(0, 0, vec![])];
        let d = router.route(&[], &recovering);
        assert_eq!((d.replica, d.failover), (1, false));
        let d = router.route(&[], &recovering);
        assert_eq!((d.replica, d.failover), (1, true));
        assert!(!router.is_healthy(0));
        // At half the bound the replica recovers and takes traffic again
        // (skip round-robin past replica 1 first).
        let recovered = vec![snap(5, 10, vec![]), snap(0, 0, vec![])];
        assert_eq!(router.route(&[], &recovered).replica, 1);
        let d = router.route(&[], &recovered);
        assert_eq!(d.replica, 0);
        assert!(!d.failover);
        assert!(router.is_healthy(0));
        assert_eq!(router.stats().failovers, 2);
    }

    #[test]
    fn dead_replicas_receive_no_traffic_under_any_policy() {
        let snaps = vec![
            snap(0, 10, vec![7, 11]),
            snap(0, 20, vec![7, 11]),
            snap(0, 30, vec![]),
        ];
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PrefixAffinity,
        ] {
            let mut router = Router::new(RouterConfig::new(policy), 3);
            router.mark_dead(0);
            assert_eq!(router.num_alive(), 2);
            assert!(!router.is_alive(0));
            for _ in 0..6 {
                let d = router.route(&[7, 11], &snaps);
                assert_ne!(d.replica, 0, "dead replica picked by {policy}");
            }
            // Restored after restart: traffic flows again.
            router.mark_alive(0);
            assert!((0..6).any(|_| router.route(&[7, 11], &snaps).replica == 0));
        }
    }

    #[test]
    fn all_dead_falls_back_to_policy_choice() {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::RoundRobin), 2);
        router.mark_dead(0);
        router.mark_dead(1);
        let snaps = vec![snap(0, 0, vec![]), snap(0, 0, vec![])];
        // Requests are still routed (never dropped at the router).
        let picks: Vec<usize> = (0..4).map(|_| router.route(&[], &snaps).replica).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn retries_are_counted() {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::RoundRobin), 2);
        router.record_retry();
        router.record_retry();
        assert_eq!(router.stats().retries, 2);
    }

    #[test]
    fn roles_partition_prefill_and_decode_traffic() {
        let snaps = vec![
            snap(0, 40, vec![7, 11]),
            snap(0, 10, vec![]),
            snap(0, 30, vec![]),
            snap(0, 5, vec![]),
        ];
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PrefixAffinity,
        ] {
            let mut router = Router::new(RouterConfig::new(policy), 4);
            router.set_roles(vec![
                ReplicaRole::Prefill,
                ReplicaRole::Prefill,
                ReplicaRole::Decode,
                ReplicaRole::Decode,
            ]);
            for _ in 0..8 {
                let d = router.route(&[7, 11], &snaps);
                assert!(
                    d.replica < 2,
                    "decode replica took a new request ({policy})"
                );
            }
            for _ in 0..4 {
                let pick = router.route_decode(&snaps);
                assert!(pick >= 2, "prefill replica took a handoff ({policy})");
            }
            // Decode picks go to the shorter decode queue and are tracked
            // separately from prefill placement.
            assert_eq!(router.stats().decode_routed, vec![0, 0, 0, 4]);
            assert_eq!(router.stats().routed[2] + router.stats().routed[3], 0);
        }
    }

    #[test]
    fn dead_role_pool_degrades_to_alive_replicas() {
        let snaps = vec![snap(0, 10, vec![]), snap(0, 20, vec![])];
        let mut router = Router::new(RouterConfig::new(RoutePolicy::JoinShortestQueue), 2);
        router.set_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode]);
        // Kill the only decode replica: handoffs spill to the prefill one
        // rather than being dropped.
        router.mark_dead(1);
        assert_eq!(router.route_decode(&snaps), 0);
        // Kill the only prefill replica instead: new requests spill to the
        // decode one.
        router.mark_alive(1);
        router.mark_dead(0);
        assert_eq!(router.route(&[], &snaps).replica, 1);
    }

    #[test]
    fn routing_is_deterministic() {
        let snaps = vec![
            snap(0, 30, vec![7]),
            snap(0, 20, vec![9]),
            snap(2, 10, vec![]),
        ];
        let hashes: Vec<Vec<u64>> = vec![vec![7, 8], vec![9], vec![1], vec![], vec![9, 9]];
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PrefixAffinity,
        ] {
            let run = || {
                let mut router = Router::new(RouterConfig::new(policy), 3);
                hashes
                    .iter()
                    .map(|h| router.route(h, &snaps))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(), run(), "policy {policy} must be deterministic");
        }
    }
}
