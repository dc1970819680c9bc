//! Typed cluster configuration: replica roles and the fleet builder.
//!
//! Disaggregated serving (the production pattern behind splitwise-style
//! fleets) splits replicas into a **prefill pool** — absorbs the
//! compute-bound prompt phase — and a **decode pool** — runs the
//! memory-bound token loop — with a KV handoff moving each request from one
//! to the other at its first sampled token. [`ReplicaRole`] tags each
//! replica (it is defined in `vllm_core::env`, which parses
//! `VLLM_REPLICA_ROLES`); [`ClusterConfig`] is the typed builder the frontend and the
//! harnesses share, replacing the env-string-only wiring that grew around
//! `spawn_cluster`. Environment variables remain supported as *inputs* to
//! the builder ([`ClusterConfig::with_env`]), never as a parallel config
//! channel.

pub use vllm_core::env::ReplicaRole;
use vllm_core::env::{Env, REPLICA_ROLES};

use crate::router::{RoutePolicy, RouterConfig};

/// Typed fleet configuration: routing, per-replica roles, admission bound,
/// and the shared prefix-tier capacity.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router configuration (policy + health bound).
    pub router: RouterConfig,
    /// One role per replica, in index order.
    pub roles: Vec<ReplicaRole>,
    /// Bounded admission: maximum in-flight requests per replica.
    pub max_inflight: usize,
    /// Capacity of the cluster-shared CPU prefix tier, in KV blocks
    /// (`0` disables the tier).
    pub prefix_tier_blocks: usize,
}

impl ClusterConfig {
    /// A unified fleet of `num_replicas` replicas under prefix-affinity
    /// routing, tier disabled.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas` is zero.
    #[must_use]
    pub fn new(num_replicas: usize) -> Self {
        assert!(num_replicas > 0, "cluster needs at least one replica");
        Self {
            router: RouterConfig::new(RoutePolicy::PrefixAffinity),
            roles: vec![ReplicaRole::Unified; num_replicas],
            max_inflight: 1024,
            prefix_tier_blocks: 0,
        }
    }

    /// A disaggregated fleet: `prefill` prefill replicas followed by
    /// `decode` decode replicas.
    ///
    /// # Panics
    ///
    /// Panics if either pool is empty.
    #[must_use]
    pub fn disaggregated(prefill: usize, decode: usize) -> Self {
        assert!(
            prefill > 0 && decode > 0,
            "a disaggregated fleet needs both pools"
        );
        let mut roles = vec![ReplicaRole::Prefill; prefill];
        roles.extend(std::iter::repeat_n(ReplicaRole::Decode, decode));
        Self {
            roles,
            ..Self::new(prefill + decode)
        }
    }

    /// Overrides the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.router.policy = policy;
        self
    }

    /// Overrides the router's health bound.
    #[must_use]
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.router = self.router.with_max_queue_depth(depth);
        self
    }

    /// Overrides the per-replica in-flight bound.
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets the shared prefix-tier capacity in KV blocks (`0` disables).
    #[must_use]
    pub fn with_prefix_tier_blocks(mut self, blocks: usize) -> Self {
        self.prefix_tier_blocks = blocks;
        self
    }

    /// Number of replicas in the fleet.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.roles.len()
    }

    /// Whether any replica is role-specialized (the fleet needs the
    /// KV-handoff path).
    #[must_use]
    pub fn is_disaggregated(&self) -> bool {
        self.roles.iter().any(|r| *r != ReplicaRole::Unified)
    }

    /// Layers environment overrides onto this configuration:
    ///
    /// * `VLLM_REPLICA_ROLES` — comma-separated roles, one per replica
    ///   (`prefill,prefill,decode,decode`); a single role applies fleet-wide.
    /// * `VLLM_PREFIX_TIER_BLOCKS` — shared prefix-tier capacity in blocks.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed variable, or the role count
    /// that fits no fleet of this size.
    pub fn with_env(mut self) -> Result<Self, String> {
        let env = Env::try_global().map_err(|e| e.to_string())?;
        if let Some(roles) = &env.replica_roles {
            if roles.len() == 1 {
                self.roles = vec![roles[0]; self.roles.len()];
            } else if roles.len() == self.roles.len() {
                self.roles.clone_from(roles);
            } else {
                return Err(format!(
                    "{REPLICA_ROLES} names {} roles for {} replicas",
                    roles.len(),
                    self.roles.len()
                ));
            }
        }
        if let Some(blocks) = env.prefix_tier_blocks {
            self.prefix_tier_blocks = blocks;
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_parse_and_classify() {
        assert_eq!("prefill".parse::<ReplicaRole>(), Ok(ReplicaRole::Prefill));
        assert_eq!("d".parse::<ReplicaRole>(), Ok(ReplicaRole::Decode));
        assert!("frontend".parse::<ReplicaRole>().is_err());
        assert!(ReplicaRole::Prefill.takes_prefill());
        assert!(!ReplicaRole::Prefill.takes_decode());
        assert!(ReplicaRole::Decode.takes_decode());
        assert!(!ReplicaRole::Decode.takes_prefill());
        assert!(ReplicaRole::Unified.takes_prefill() && ReplicaRole::Unified.takes_decode());
    }

    #[test]
    fn builder_composes() {
        let cfg = ClusterConfig::disaggregated(2, 2)
            .with_policy(RoutePolicy::JoinShortestQueue)
            .with_prefix_tier_blocks(128)
            .with_max_inflight(32);
        assert_eq!(cfg.num_replicas(), 4);
        assert!(cfg.is_disaggregated());
        assert_eq!(cfg.roles[0], ReplicaRole::Prefill);
        assert_eq!(cfg.roles[3], ReplicaRole::Decode);
        assert_eq!(cfg.prefix_tier_blocks, 128);
        assert_eq!(cfg.max_inflight, 32);
        assert!(!ClusterConfig::new(3).is_disaggregated());
    }
}
