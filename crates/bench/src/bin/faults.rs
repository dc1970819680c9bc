//! Fault-injection soak: graceful degradation under seeded fault schedules.
//!
//! Drives lockstep [`Fleet`]s (every step costs one unit of fleet time)
//! under fault plans four ways:
//!
//! 1. **Acceptance scenario** — a hand-built plan against a 3-replica
//!    fleet: one replica is killed mid-run (and later restarted) while a
//!    second has its CPU swap pool exhausted. Every request must complete
//!    exactly once or be terminally rejected with a retryable error; no
//!    request is lost or duplicated, and no KV block leaks.
//! 2. **Chunked-prefill scenario** — every replica is switched to
//!    scheduler-budgeted chunked prefill ([`FaultKind::StallPrefill`]), so
//!    prompts span several lockstep steps; a kill and a forward failure
//!    then land *between* chunks. Partially-prefilled requests must be
//!    re-routed and delivered exactly once with zero block leaks.
//! 3. **Disaggregated scenario** — the acceptance plan against a
//!    2-prefill + 1-decode fleet with a shared prefix tier, on a trace whose
//!    later prompts extend earlier ones (so the tier is hit). Every request
//!    must complete exactly once with zero leaks, and its token streams
//!    must equal a healthy unified fleet's (sequence-invariant mocks make
//!    that the oracle).
//! 4. **Seeded soak** — a batch of [`FaultPlan::seeded`] schedules (which
//!    include prefill-chunking switches), each run twice. The same seed
//!    must reproduce the identical [`FleetReport`] — same retry counts,
//!    same token fingerprint.
//!
//! Prints and writes one record of outcome counts per run to
//! `results/faults.json` (`steps` is the fleet clock when the run drained).
//! With `--ci` the
//! harness asserts the acceptance criteria instead, writing its artifact
//! under `target/ci-faults/` and exiting non-zero on any failure.

use vllm_bench::Gates;
use vllm_cluster::{
    lockstep_replica, ClusterConfig, ClusterRequest, FaultKind, FaultPlan, Fleet, FleetReport,
    RoutePolicy,
};
use vllm_core::mock::MockExecutor;
use vllm_core::telemetry::MetricsSnapshot;

/// Fleet size under test.
const REPLICAS: usize = 3;
/// Requests per run.
const REQUESTS: u64 = 72;
/// Request arrivals per lockstep step.
const ARRIVALS_PER_STEP: f64 = 2.0;
/// Fault-schedule horizon in lockstep steps.
const HORIZON: u64 = 48;
/// Shared prefix-tier capacity of the disaggregated fleet, in blocks.
const TIER_BLOCKS: usize = 256;
/// Seeds for the soak batch.
const SOAK_SEEDS: [u64; 5] = [1, 7, 23, 99, 2026];

fn prompt(id: u64, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| 1 + ((id * 31 + i as u64 * 7) % 997) as u32)
        .collect()
}

/// `n` requests arriving at `ARRIVALS_PER_STEP`; request `i`'s prompt is
/// `prompt(id, len)` for `(id, len) = prompt_of(i)`.
fn trace(n: u64, prompt_of: impl Fn(u64) -> (u64, usize)) -> Vec<ClusterRequest> {
    (0..n)
        .map(|i| ClusterRequest {
            id: i,
            arrival: i as f64 / ARRIVALS_PER_STEP,
            prompt: {
                let (id, len) = prompt_of(i);
                prompt(id, len)
            },
            output_len: 12,
        })
        .collect()
}

/// The acceptance plan: kill replica 0 mid-run (restart it later) while
/// replica 1 loses its swap pool for most of the run and replica 2 has its
/// GPU block pool deflated mid-decode (elastic shrink + compaction).
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new(0)
        .with_event(4.0, 1, FaultKind::ExhaustSwap)
        .with_event(6.0, 0, FaultKind::KillReplica)
        .with_event(8.0, 2, FaultKind::PoolPressure { fraction: 0.4 })
        .with_event(10.0, 2, FaultKind::FailForwards { count: 1 })
        .with_event(24.0, 2, FaultKind::RestorePool)
        .with_event(28.0, 1, FaultKind::RestoreSwap)
        .with_event(30.0, 0, FaultKind::RestartReplica)
}

/// The chunked-prefill plan: all replicas switch to chunked prefill (4
/// chunks per 16-token prompt) before traffic ramps, then replica 0 is
/// killed mid-prefill and replica 1 drops a forward pass — both faults
/// land between chunks of partially-prefilled prompts.
fn chunked_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0);
    for r in 0..REPLICAS {
        plan = plan.with_event(0.0, r, FaultKind::StallPrefill { chunks: 4 });
    }
    plan.with_event(4.0, 0, FaultKind::KillReplica)
        .with_event(7.0, 1, FaultKind::FailForwards { count: 1 })
        .with_event(30.0, 0, FaultKind::RestartReplica)
}

/// Runs `trace` on a lockstep fleet shaped by `cfg` while `plan` fires.
/// Sequence-invariant mocks script tokens from the seed and position alone,
/// so any placement yields the same streams.
fn run(
    cfg: &ClusterConfig,
    seq_invariant: bool,
    plan: Option<&FaultPlan>,
    trace: Vec<ClusterRequest>,
) -> (FleetReport, MetricsSnapshot) {
    let mut fleet = Fleet::new(cfg, move || {
        let mock = MockExecutor::new(1000);
        lockstep_replica(if seq_invariant {
            mock.seq_invariant()
        } else {
            mock
        })
    });
    let report = fleet.run(plan, trace);
    (report, fleet.merged_snapshot())
}

fn run_plan(plan: &FaultPlan, policy: RoutePolicy) -> (FleetReport, MetricsSnapshot) {
    let cfg = ClusterConfig::new(REPLICAS).with_policy(policy);
    run(&cfg, false, Some(plan), trace(REQUESTS, |i| (i, 16)))
}

fn report_json(label: &str, seed: u64, r: &FleetReport) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"seed\":{},\"requests\":{},\"completed\":{},",
            "\"rejected\":{},\"lost\":{},\"duplicates\":{},\"retries\":{},",
            "\"faults_injected\":{},\"kills\":{},\"forward_failures\":{},",
            "\"steps\":{:.2},\"leaked_blocks\":{},\"token_fingerprint\":{}}}"
        ),
        label,
        seed,
        r.num_requests,
        r.completed,
        r.rejected,
        r.lost,
        r.duplicates,
        r.router.retries,
        r.faults_injected,
        r.kills,
        r.forward_failures,
        r.duration,
        r.leaked_blocks,
        r.token_fingerprint
    )
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    // 1. Acceptance scenario.
    let (scenario, snap) = run_plan(&acceptance_plan(), RoutePolicy::PrefixAffinity);
    // 2. Chunked-prefill scenario: kills land between prefill chunks.
    let (chunked, chunked_snap) = run_plan(&chunked_plan(), RoutePolicy::RoundRobin);
    // 3. The acceptance plan on a disaggregated fleet with a tier: requests
    // 24.. extend the prompts of requests 0..24 (and 48.. further).
    let chat = |i: u64| (i % 24, 16 + 8 * (i / 24) as usize);
    let tiered = ClusterConfig::disaggregated(2, 1).with_prefix_tier_blocks(TIER_BLOCKS);
    let (disagg, _) = run(
        &tiered,
        true,
        Some(&acceptance_plan()),
        trace(REQUESTS, chat),
    );
    let unified = ClusterConfig::new(REPLICAS);
    let (oracle, _) = run(&unified, true, None, trace(REQUESTS, chat));

    // 4. Seeded soak, each seed run twice for determinism.
    let soak: Vec<(u64, FleetReport, FleetReport)> = SOAK_SEEDS
        .iter()
        .map(|&seed| {
            let plan = FaultPlan::seeded(seed, REPLICAS, HORIZON);
            let (a, _) = run_plan(&plan, RoutePolicy::PrefixAffinity);
            let (b, _) = run_plan(&plan, RoutePolicy::PrefixAffinity);
            (seed, a, b)
        })
        .collect();

    // One JSON record per run, printed and collected into the artifact.
    let named = [
        ("scenario", &scenario),
        ("chunked", &chunked),
        ("disaggregated", &disagg),
    ];
    let records: Vec<String> = (named.iter().map(|(label, r)| report_json(label, 0, r)))
        .chain(
            soak.iter()
                .map(|(seed, r, _)| report_json("seeded", *seed, r)),
        )
        .inspect(|record| println!("{record}"))
        .collect();
    let json = format!(
        "{{\"replicas\":{REPLICAS},\"requests\":{REQUESTS},\"runs\":[{}]}}",
        records.join(",")
    );
    let dir = if ci { "target/ci-faults" } else { "results" };
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/faults.json");
    std::fs::write(&path, json + "\n").expect("write artifact");
    println!("wrote {path}");

    if !ci {
        return;
    }

    let mut gates = Gates::default();
    // Exactly-once delivery (nothing lost or duplicated, every request
    // completed or rejected) and exact block accounting, for every run.
    let mut delivered = |label: &str, r: &FleetReport| {
        for (ok, what) in [
            (r.lost == 0, "requests were lost"),
            (r.duplicates == 0, "duplicate completions"),
            (
                r.completed + r.rejected == r.num_requests,
                "some requests neither completed nor rejected",
            ),
            (r.leaked_blocks == 0, "KV blocks leaked"),
        ] {
            gates.check(ok, &format!("{label}: {what}"));
        }
    };
    // Under kill + swap exhaustion; with kills landing between prefill
    // chunks (exact accounting for the aborted chunk cursors); on the
    // disaggregated fleet; and for every seed.
    delivered("scenario", &scenario);
    delivered("chunked", &chunked);
    delivered("disaggregated", &disagg);
    for (seed, a, _) in &soak {
        delivered(&format!("seed {seed}"), a);
    }
    let mut check = |ok: bool, what: &str| gates.check(ok, what);
    for (label, r) in [("scenario", &scenario), ("chunked", &chunked)] {
        check(r.kills == 1, &format!("{label}: expected exactly one kill"));
        check(
            r.router.retries > 0,
            &format!("{label}: the kill must force re-routing retries"),
        );
    }

    // Fault and retry telemetry present in both expositions.
    check(
        snap.counter("vllm_fault_kills_total") == Some(scenario.kills),
        "scenario: vllm_fault_kills_total missing or wrong",
    );
    check(
        snap.counter("vllm_cluster_retries_total") == Some(scenario.router.retries),
        "scenario: vllm_cluster_retries_total missing or wrong",
    );
    check(
        snap.counter("vllm_fault_injected_total") == Some(scenario.faults_injected),
        "scenario: vllm_fault_injected_total missing or wrong",
    );
    check(
        snap.counter("vllm_fault_pool_pressure_total") == Some(1),
        "scenario: vllm_fault_pool_pressure_total missing or wrong",
    );
    let (prom, json_expo) = (snap.to_prometheus_text(), snap.to_json());
    for name in [
        "vllm_fault_injected_total",
        "vllm_fault_kills_total",
        "vllm_fault_pool_pressure_total",
        "vllm_cluster_retries_total",
    ] {
        check(
            prom.contains(name),
            &format!("{name} absent from Prometheus exposition"),
        );
        check(
            json_expo.contains(name),
            &format!("{name} absent from JSON exposition"),
        );
    }
    check(
        chunked_snap.counter("vllm_fault_prefill_stalls_total") == Some(REPLICAS as u64),
        "chunked: vllm_fault_prefill_stalls_total missing or wrong",
    );

    // Disaggregated scenario: every request completes through kills, a
    // failed decode step and a deflated decode pool, the tier serves later
    // turns, and the streams are token for token the unified oracle's.
    check(
        disagg.completed == disagg.num_requests,
        "disaggregated: requests were rejected",
    );
    check(disagg.tier_hits > 0, "disaggregated: the tier saw no hits");
    check(
        disagg.token_fingerprint == oracle.token_fingerprint,
        "disaggregated: token streams differ from the unified oracle's",
    );
    // Seeded soak: determinism for every seed.
    for (seed, a, b) in &soak {
        check(
            a == b,
            &format!("seed {seed}: reports differ between identical runs"),
        );
    }

    gates.finish("fault-injection CI gate");
    println!("fault-injection CI gate passed");
}
