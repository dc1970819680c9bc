//! Seeded, reproducible fault schedules for an in-process fleet.
//!
//! The paper's evaluation (§6) assumes a healthy fleet; this module asks
//! what happens when it is not. A [`FaultPlan`] is a schedule of
//! [`FaultEvent`]s — kill, restart or stall a replica, fail executor forward
//! passes, exhaust the CPU swap pool (forcing the §4.5 recompute fallback),
//! slow cache operations, deflate the block pool — that
//! [`Fleet::run`](crate::Fleet::run) fires on the fleet clock while it
//! drives a request trace. Every component is deterministic (the router is
//! pure, executors script their tokens, events fire at virtual times), so
//! the same `(plan, trace)` reproduces the same token streams, retry counts
//! and fault counts bit for bit.

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
    /// Freeze the replica for this many units of the fleet clock (lockstep
    /// steps): its clock jumps ahead, so its work is delayed, never lost.
    StallReplica {
        /// Units to skip.
        steps: u64,
    },
    /// Switch the replica to scheduler-budgeted chunked prefill with a
    /// per-step token budget that splits the trace's longest prompt into
    /// at least this many chunks. Prefill then spans multiple steps, so
    /// later kill/fail events land *between* chunks — exercising
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
    /// Fleet time at which the fault fires: a step number under the
    /// lockstep clock, seconds under a cost model.
    pub at: f64,
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

    /// Appends one event, keeping the list sorted by firing time.
    #[must_use]
    pub fn with_event(mut self, at: f64, replica: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, replica, kind });
        self.events
            .sort_by(|a, b| a.at.total_cmp(&b.at).then(a.replica.cmp(&b.replica)));
        self
    }

    /// Derives a pseudo-random schedule from `seed`: one kill + restart,
    /// one swap exhaustion window (when there is more than one replica),
    /// and a few stalls / prefill-chunking switches / forward failures /
    /// cache-op delays, all within `horizon` units of fleet time (lockstep
    /// steps). The same seed always yields the same plan.
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
            .with_event(kill_at as f64, victim, FaultKind::KillReplica)
            .with_event(
                (kill_at + horizon / 2) as f64,
                victim,
                FaultKind::RestartReplica,
            );
        // One swap-exhaustion window on a surviving replica.
        if num_replicas > 1 {
            let other = (victim + 1) % num_replicas;
            let at = 1 + splitmix64(&mut s) % (horizon / 2);
            plan = plan
                .with_event(at as f64, other, FaultKind::ExhaustSwap)
                .with_event((at + horizon / 2) as f64, other, FaultKind::RestoreSwap);
        }
        // One pool-pressure window: deflate a replica's KV pool mid-decode
        // (forcing compaction and elastic shrink), restore it later.
        {
            let target = (splitmix64(&mut s) as usize) % num_replicas;
            let at = 2 + splitmix64(&mut s) % (horizon / 2);
            let fraction = 0.3 + 0.1 * (splitmix64(&mut s) % 4) as f64;
            plan = plan
                .with_event(at as f64, target, FaultKind::PoolPressure { fraction })
                .with_event((at + horizon / 3) as f64, target, FaultKind::RestorePool);
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
            plan = plan.with_event(at as f64, replica, kind);
        }
        plan
    }
}
