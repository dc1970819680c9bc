//! Telemetry artifact harness.
//!
//! Runs a ShareGPT-style trace through the vLLM simulator with the serving
//! engine's telemetry attached, then writes the end-of-run metrics snapshot
//! to `results/telemetry.json` (one-line JSON) and `results/telemetry.prom`
//! (Prometheus text exposition).
//!
//! With `--ci` the harness runs a short two-phase workload instead, checks
//! the snapshot for internal consistency (non-empty, counters monotone
//! across phases, block-pool gauges within bounds, histogram bucket sums,
//! lossless text/JSON round-trips), writes its artifacts under
//! `target/ci-telemetry/`, and exits non-zero on any failure.

use vllm_bench::{write_metrics_artifacts, Gates};
use vllm_core::config::PreemptionMode;
use vllm_core::telemetry::{MetricValue, MetricsSnapshot};
use vllm_sim::{run_trace_instrumented, trace_to_requests, CostModel, ServerConfig, VllmSimSystem};
use vllm_workloads::{Dataset, Trace};

/// Gauges that must land in `[0, 1]` (fractions/ratios).
const UNIT_INTERVAL_GAUGES: &[&str] = &[
    "vllm_block_manager_fragmentation_ratio",
    "vllm_sim_mem_used_fraction",
    "vllm_sim_mem_allocated_fraction",
];

/// Metrics the acceptance criteria require in the snapshot.
const REQUIRED_METRICS: &[&str] = &[
    "vllm_block_manager_gpu_blocks_free",
    "vllm_block_manager_gpu_blocks_used",
    "vllm_block_manager_gpu_blocks_total",
    "vllm_block_manager_fragmentation_ratio",
    "vllm_scheduler_preemptions_total",
    "vllm_scheduler_swap_preemptions_total",
    "vllm_block_manager_swapped_out_blocks_total",
    "vllm_step_schedule_seconds",
    "vllm_step_execute_seconds",
    "vllm_request_ttft_seconds",
    "vllm_request_normalized_latency_seconds",
    "vllm_sim_normalized_latency_seconds",
    "vllm_executor_forward_seconds",
];

fn small_server() -> ServerConfig {
    let mut cfg = ServerConfig::opt_13b_1gpu();
    cfg.gpu.mem_bytes_per_gpu = 30e9; // ~4.6K KV slots: small enough to preempt.
    cfg
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    if ci {
        run_ci();
    } else {
        run_artifacts();
    }
}

/// Default mode: one loaded ShareGPT trace, artifacts under `results/`.
fn run_artifacts() {
    let server = small_server();
    let cost = CostModel::contiguous(server);
    let trace = Trace::synthesize(&Dataset::sharegpt(), 1.0, 120, 42);
    let requests = trace_to_requests(&trace, 1, false);

    let mut system = VllmSimSystem::new(server, 16, PreemptionMode::Swap);
    let telemetry = system.engine().telemetry().clone();
    let report = run_trace_instrumented(
        &mut system,
        &requests,
        &cost,
        1.0,
        f64::INFINITY,
        Some(&telemetry),
    );
    let snapshot = system.engine().metrics_snapshot();
    let (json_path, prom_path) =
        write_metrics_artifacts(&snapshot, "results", "telemetry").expect("write artifacts");

    println!(
        "telemetry: {} requests finished in {:.1} virtual s; {} metrics registered",
        report.num_finished,
        report.duration,
        snapshot.metrics.len()
    );
    println!("  wrote {}", json_path.display());
    println!("  wrote {}", prom_path.display());
}

/// CI mode: short two-phase run plus consistency assertions.
fn run_ci() {
    let server = small_server();
    let cost = CostModel::contiguous(server);
    let mut system = VllmSimSystem::new(server, 16, PreemptionMode::Swap);
    let telemetry = system.engine().telemetry().clone();

    // Phase 1.
    let trace = Trace::synthesize(&Dataset::alpaca(), 2.0, 40, 42);
    let requests = trace_to_requests(&trace, 1, false);
    let r1 = run_trace_instrumented(
        &mut system,
        &requests,
        &cost,
        2.0,
        f64::INFINITY,
        Some(&telemetry),
    );
    let snap_a = system.engine().metrics_snapshot();

    // Phase 2: more work through the same engine; counters must not regress.
    let trace = Trace::synthesize(&Dataset::alpaca(), 2.0, 20, 7);
    let mut more = trace_to_requests(&trace, 1, false);
    for r in &mut more {
        r.id += 10_000; // Fresh request ids for the shared engine.
    }
    let r2 = run_trace_instrumented(
        &mut system,
        &more,
        &cost,
        2.0,
        f64::INFINITY,
        Some(&telemetry),
    );
    let snap_b = system.engine().metrics_snapshot();

    let mut gates = Gates::default();
    let mut check = |ok: bool, what: &str| gates.check(ok, what);

    check(!snap_b.metrics.is_empty(), "snapshot is empty");
    for name in REQUIRED_METRICS {
        check(
            snap_b.get(name).is_some(),
            &format!("missing metric {name}"),
        );
    }

    // Counters are monotone between the two phases.
    for entry in &snap_a.metrics {
        if let MetricValue::Counter(a) = entry.value {
            let b = snap_b.counter(&entry.name).unwrap_or(0);
            check(
                b >= a,
                &format!("counter {} regressed: {a} -> {b}", entry.name),
            );
        }
    }

    // Block-pool gauges stay within the pool bounds.
    let free = snap_b
        .gauge("vllm_block_manager_gpu_blocks_free")
        .unwrap_or(-1.0);
    let used = snap_b
        .gauge("vllm_block_manager_gpu_blocks_used")
        .unwrap_or(-1.0);
    let total = snap_b
        .gauge("vllm_block_manager_gpu_blocks_total")
        .unwrap_or(-1.0);
    check(
        free >= 0.0 && used >= 0.0 && total > 0.0,
        "block gauges missing",
    );
    check(
        (free + used - total).abs() < 1e-9,
        &format!("free ({free}) + used ({used}) != total ({total})"),
    );
    for name in UNIT_INTERVAL_GAUGES {
        let v = snap_b.gauge(name).unwrap_or(-1.0);
        check(
            (0.0..=1.0).contains(&v),
            &format!("{name} = {v} outside [0, 1]"),
        );
    }

    // Histograms are internally consistent (count == sum of bucket counts).
    for entry in &snap_b.metrics {
        if let MetricValue::Histogram(h) = &entry.value {
            check(
                h.is_consistent(),
                &format!("histogram {} inconsistent", entry.name),
            );
        }
    }

    // Work actually flowed and was observed end to end.
    let finished = (r1.num_finished + r2.num_finished) as u64;
    check(finished > 0, "no requests finished");
    check(
        snap_b.counter("vllm_engine_requests_finished_total") == Some(finished),
        "engine finished counter disagrees with driver report",
    );
    check(
        snap_b.counter("vllm_sim_requests_finished_total") == Some(finished),
        "sim finished counter disagrees with driver report",
    );
    check(
        snap_b
            .histogram("vllm_request_e2e_seconds")
            .is_some_and(|h| h.count == finished),
        "e2e latency histogram count != finished requests",
    );

    // Exposition round-trips losslessly through both formats.
    match MetricsSnapshot::from_prometheus_text(&snap_b.to_prometheus_text()) {
        Ok(rt) => check(
            rt == snap_b,
            "text exposition round-trip changed the snapshot",
        ),
        Err(e) => check(false, &format!("text exposition failed to parse: {e}")),
    }
    match MetricsSnapshot::from_json(&snap_b.to_json()) {
        Ok(rt) => check(rt == snap_b, "JSON round-trip changed the snapshot"),
        Err(e) => check(false, &format!("JSON failed to parse: {e}")),
    }

    write_metrics_artifacts(&snap_b, "target/ci-telemetry", "telemetry")
        .expect("write ci artifacts");

    gates.finish("telemetry CI check");
    println!(
        "telemetry CI check OK: {} metrics, {finished} requests finished",
        snap_b.metrics.len()
    );
}
