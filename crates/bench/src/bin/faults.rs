//! Fault-injection soak: graceful degradation under seeded fault schedules.
//!
//! Exercises the [`FaultCluster`] harness two ways:
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
//! 3. **Seeded soak** — a batch of [`FaultPlan::seeded`] schedules (which
//!    include prefill-chunking switches), each run twice. The same seed
//!    must reproduce the identical [`FaultReport`] — same retry counts,
//!    same token fingerprint.
//!
//! Writes per-run outcome counts to `results/faults.json`. With `--ci` the
//! harness asserts the acceptance criteria instead, writing its artifact
//! under `target/ci-faults/` and exiting non-zero on any failure.

use std::fmt::Write as _;

use vllm_bench::Gates;
use vllm_cluster::{
    ClusterRequest, FaultCluster, FaultClusterConfig, FaultKind, FaultPlan, FaultReport,
    RoutePolicy,
};
use vllm_core::telemetry::MetricsSnapshot;

/// Fleet size under test.
const REPLICAS: usize = 3;
/// Requests per run.
const REQUESTS: u64 = 72;
/// Request arrivals per lockstep step.
const ARRIVALS_PER_STEP: f64 = 2.0;
/// Fault-schedule horizon in lockstep steps.
const HORIZON: u64 = 48;
/// Seeds for the soak batch.
const SOAK_SEEDS: [u64; 5] = [1, 7, 23, 99, 2026];

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

/// The acceptance plan: kill replica 0 mid-run (restart it later) while
/// replica 1 loses its swap pool for most of the run and replica 2 has its
/// GPU block pool deflated mid-decode (elastic shrink + compaction).
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new(0)
        .with_event(4, 1, FaultKind::ExhaustSwap)
        .with_event(6, 0, FaultKind::KillReplica)
        .with_event(8, 2, FaultKind::PoolPressure { fraction: 0.4 })
        .with_event(10, 2, FaultKind::FailForwards { count: 1 })
        .with_event(24, 2, FaultKind::RestorePool)
        .with_event(28, 1, FaultKind::RestoreSwap)
        .with_event(30, 0, FaultKind::RestartReplica)
}

/// The chunked-prefill plan: all replicas switch to chunked prefill (4
/// chunks per 16-token prompt) before traffic ramps, then replica 0 is
/// killed mid-prefill and replica 1 drops a forward pass — both faults
/// land between chunks of partially-prefilled prompts.
fn chunked_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0);
    for r in 0..REPLICAS {
        plan = plan.with_event(0, r, FaultKind::StallPrefill { chunks: 4 });
    }
    plan.with_event(4, 0, FaultKind::KillReplica)
        .with_event(7, 1, FaultKind::FailForwards { count: 1 })
        .with_event(30, 0, FaultKind::RestartReplica)
}

fn run_plan(plan: &FaultPlan, policy: RoutePolicy) -> (FaultReport, MetricsSnapshot) {
    let mut cluster = FaultCluster::new(FaultClusterConfig::new(REPLICAS).with_policy(policy));
    let report = cluster.run(plan, trace(REQUESTS, ARRIVALS_PER_STEP));
    let snap = cluster.merged_snapshot();
    (report, snap)
}

fn report_json(label: &str, seed: u64, r: &FaultReport) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"seed\":{},\"requests\":{},\"completed\":{},",
            "\"rejected\":{},\"lost\":{},\"duplicates\":{},\"retries\":{},",
            "\"faults_injected\":{},\"kills\":{},\"forward_failures\":{},",
            "\"steps\":{},\"leaked_blocks\":{},\"token_fingerprint\":{}}}"
        ),
        label,
        seed,
        r.num_requests,
        r.completed,
        r.rejected,
        r.lost,
        r.duplicates,
        r.retries,
        r.faults_injected,
        r.kills,
        r.forward_failures,
        r.steps,
        r.leaked_blocks,
        r.token_fingerprint
    )
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    // 1. Acceptance scenario.
    let (scenario, snap) = run_plan(&acceptance_plan(), RoutePolicy::PrefixAffinity);
    println!(
        "scenario: {}/{} completed, {} rejected, {} lost, {} dup, {} retries, {} leaked blocks",
        scenario.completed,
        scenario.num_requests,
        scenario.rejected,
        scenario.lost,
        scenario.duplicates,
        scenario.retries,
        scenario.leaked_blocks
    );

    // 2. Chunked-prefill scenario: kills land between prefill chunks.
    let (chunked, chunked_snap) = run_plan(&chunked_plan(), RoutePolicy::RoundRobin);
    println!(
        "chunked:  {}/{} completed, {} rejected, {} lost, {} dup, {} retries, {} leaked blocks",
        chunked.completed,
        chunked.num_requests,
        chunked.rejected,
        chunked.lost,
        chunked.duplicates,
        chunked.retries,
        chunked.leaked_blocks
    );

    // 3. Seeded soak, each seed run twice for determinism.
    let soak: Vec<(u64, FaultReport, FaultReport)> = SOAK_SEEDS
        .iter()
        .map(|&seed| {
            let plan = FaultPlan::seeded(seed, REPLICAS, HORIZON);
            let (a, _) = run_plan(&plan, RoutePolicy::PrefixAffinity);
            let (b, _) = run_plan(&plan, RoutePolicy::PrefixAffinity);
            (seed, a, b)
        })
        .collect();
    for (seed, r, _) in &soak {
        println!(
            "seed {seed:>5}: {}/{} completed, {} rejected, {} retries, {} faults, fp {:#x}",
            r.completed,
            r.num_requests,
            r.rejected,
            r.retries,
            r.faults_injected,
            r.token_fingerprint
        );
    }

    // JSON artifact.
    let mut json = String::new();
    write!(
        json,
        "{{\"replicas\":{REPLICAS},\"requests\":{REQUESTS},\"runs\":[{}",
        report_json("scenario", 0, &scenario)
    )
    .unwrap();
    write!(json, ",{}", report_json("chunked", 0, &chunked)).unwrap();
    for (seed, r, _) in &soak {
        write!(json, ",{}", report_json("seeded", *seed, r)).unwrap();
    }
    json.push_str("]}");
    let dir = if ci { "target/ci-faults" } else { "results" };
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/faults.json");
    std::fs::write(&path, json + "\n").expect("write artifact");
    println!("wrote {path}");

    if !ci {
        return;
    }

    let mut gates = Gates::default();
    let mut check = |ok: bool, what: &str| gates.check(ok, what);

    // Exactly-once delivery under kill + swap exhaustion.
    check(scenario.kills == 1, "scenario: expected exactly one kill");
    check(scenario.lost == 0, "scenario: requests were lost");
    check(scenario.duplicates == 0, "scenario: duplicate completions");
    check(
        scenario.completed + scenario.rejected == scenario.num_requests,
        "scenario: some requests neither completed nor rejected",
    );
    check(
        scenario.retries > 0,
        "scenario: the kill must force re-routing retries",
    );
    check(scenario.leaked_blocks == 0, "scenario: KV blocks leaked");

    // Fault and retry telemetry present in both expositions.
    check(
        snap.counter("vllm_fault_kills_total") == Some(scenario.kills),
        "scenario: vllm_fault_kills_total missing or wrong",
    );
    check(
        snap.counter("vllm_cluster_retries_total") == Some(scenario.retries),
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
    let prom = snap.to_prometheus_text();
    let json_expo = snap.to_json();
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

    // Chunked-prefill scenario: exactly-once delivery with kills landing
    // between prefill chunks, and exact block accounting for the aborted
    // chunk cursors.
    check(chunked.kills == 1, "chunked: expected exactly one kill");
    check(
        chunked.lost == 0,
        "chunked: partially-prefilled requests were lost",
    );
    check(chunked.duplicates == 0, "chunked: duplicate completions");
    check(
        chunked.completed + chunked.rejected == chunked.num_requests,
        "chunked: some requests neither completed nor rejected",
    );
    check(
        chunked.retries > 0,
        "chunked: the mid-prefill kill must force re-routing retries",
    );
    check(
        chunked.leaked_blocks == 0,
        "chunked: KV blocks leaked across chunk-cursor aborts",
    );
    check(
        chunked_snap.counter("vllm_fault_prefill_stalls_total") == Some(REPLICAS as u64),
        "chunked: vllm_fault_prefill_stalls_total missing or wrong",
    );

    // Seeded soak: determinism and zero-loss for every seed.
    for (seed, a, b) in &soak {
        check(
            a == b,
            &format!("seed {seed}: reports differ between identical runs"),
        );
        check(a.lost == 0, &format!("seed {seed}: requests were lost"));
        check(
            a.duplicates == 0,
            &format!("seed {seed}: duplicate completions"),
        );
        check(
            a.completed + a.rejected == a.num_requests,
            &format!("seed {seed}: some requests neither completed nor rejected"),
        );
        check(
            a.leaked_blocks == 0,
            &format!("seed {seed}: KV blocks leaked"),
        );
    }

    gates.finish("fault-injection CI gate");
    println!("fault-injection CI gate passed");
}
