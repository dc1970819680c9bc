//! Distributed-tracing soak: span propagation across kill/retry, Perfetto
//! export, and span/metric consistency gates.
//!
//! Replays a mixed workload through a lockstep [`Fleet`] (every step costs
//! one unit of fleet time) while one replica is killed mid-run (and
//! restarted later), so at least one request is re-routed and its retry
//! shows up as a sibling `attempt` span under the same root. Every
//! request's spans — from the cluster's root context down through
//! queue/prefill/decode stage spans to per-backend kernel spans — are
//! collected from all replicas (including engines archived on restart),
//! stitched under one synthesized `router` root per request, and exported
//! two ways:
//!
//! * `results/trace.json` — one-line JSON (`{"tracks": [...]}`), the same
//!   style as the metrics exposition;
//! * `results/trace_perfetto.json` — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`, one track per replica generation.
//!
//! With `--ci` the harness writes under `target/ci-trace/` and gates:
//!
//! 1. every traced request forms a complete, well-nested span tree
//!    (root → attempt → ≥3 engine stages → ≥1 kernel span);
//! 2. at least one killed request carries two sibling `attempt` spans;
//! 3. the Perfetto artifact parses and is structurally valid;
//! 4. the sum of attempt-span durations matches the merged
//!    `vllm_request_e2e_seconds` histogram sums within 1%;
//! 5. no span log reported drops at default capacity;
//! 6. one time base, the fleet clock: every `fault.*` instant lies within
//!    the run's engine-span bounds, and every span of a restarted
//!    generation starts at or after its `fault.restart`.

use std::collections::HashMap;
use std::fmt::Write as _;

use vllm_bench::Gates;
use vllm_cluster::{
    lockstep_replica, ClusterConfig, ClusterRequest, FaultKind, FaultPlan, Fleet, RoutePolicy,
};
use vllm_core::mock::MockExecutor;
use vllm_core::telemetry::{
    spans_to_chrome_trace, spans_to_json, trace_seed, validate_span_tree, Json, MetricValue, Span,
    TraceContext,
};

/// Fleet size under test.
const REPLICAS: usize = 3;
/// Requests in the mixed workload.
const REQUESTS: u64 = 36;
/// Lockstep step at which replica 0 is killed.
const KILL_AT: f64 = 6.0;
/// Lockstep step at which replica 0 is restarted.
const RESTART_AT: f64 = 30.0;

fn prompt(id: u64, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| 1 + ((id * 31 + i as u64 * 7) % 997) as u32)
        .collect()
}

/// A mixed workload: prompt lengths 12–20 tokens, outputs 6–15 tokens, one
/// arrival per lockstep step.
fn workload() -> Vec<ClusterRequest> {
    (0..REQUESTS)
        .map(|i| ClusterRequest {
            id: i,
            arrival: i as f64,
            prompt: prompt(i, 12 + (i % 3) as usize * 4),
            output_len: 6 + (i % 4) as usize * 3,
        })
        .collect()
}

/// The root trace context the cluster mints for request `id` (deterministic,
/// so the bench can re-derive it to stitch attempts together).
fn root_ctx(id: u64) -> TraceContext {
    TraceContext::mint(trace_seed(&id.to_string()), true)
}

/// Synthesizes the per-request `router` root span covering every span its
/// attempts produced, so the attempts' shared parent id resolves and the
/// tree has exactly one root.
fn synthesize_roots(tracks: &[(String, Vec<Span>)]) -> Vec<Span> {
    let mut bounds: HashMap<u64, (f64, f64)> = HashMap::new();
    for (_, spans) in tracks {
        for s in spans {
            if s.trace_id == 0 {
                continue;
            }
            let e = bounds.entry(s.trace_id).or_insert((s.start, s.end));
            e.0 = e.0.min(s.start);
            e.1 = e.1.max(s.end);
        }
    }
    let mut roots = Vec::new();
    for id in 0..REQUESTS {
        let ctx = root_ctx(id);
        if let Some(&(start, end)) = bounds.get(&ctx.trace_id) {
            roots.push(Span {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_span_id: 0,
                name: "router".to_string(),
                start,
                end,
                attrs: vec![("request_id".to_string(), id.to_string())],
            });
        }
    }
    roots
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    let plan = FaultPlan::new(0)
        .with_event(KILL_AT, 0, FaultKind::KillReplica)
        .with_event(RESTART_AT, 0, FaultKind::RestartReplica);
    let cfg = ClusterConfig::new(REPLICAS).with_policy(RoutePolicy::RoundRobin);
    let mut cluster = Fleet::new(&cfg, || lockstep_replica(MockExecutor::new(1000)));
    let report = cluster.run(Some(&plan), workload());
    println!(
        "run: {}/{} completed, {} rejected, {} retries, {} kills, {} steps",
        report.completed,
        report.num_requests,
        report.rejected,
        report.router.retries,
        report.kills,
        report.duration
    );

    // One track per replica generation (archived engines first, the live
    // fleet last), plus the cluster-level fault-event track and the
    // synthesized per-request roots.
    let all = cluster.all_spans();
    let live_start = all.len() - REPLICAS;
    let mut tracks: Vec<(String, Vec<Span>)> = (all.iter().cloned())
        .enumerate()
        .map(|(pos, (i, spans))| {
            let label = if pos < live_start {
                format!("replica{i}.gen{pos}")
            } else {
                format!("replica{i}")
            };
            (label, spans)
        })
        .collect();
    tracks.push((
        "cluster".to_string(),
        cluster.telemetry().spans().snapshot(),
    ));
    let roots = synthesize_roots(&tracks);
    tracks.insert(0, ("router".to_string(), roots));
    let span_count: usize = tracks.iter().map(|(_, s)| s.len()).sum();
    println!(
        "collected {span_count} spans across {} tracks",
        tracks.len()
    );

    let dir = if ci { "target/ci-trace" } else { "results" };
    std::fs::create_dir_all(dir).expect("create output dir");
    let json_path = format!("{dir}/trace.json");
    let perfetto_path = format!("{dir}/trace_perfetto.json");
    std::fs::write(&json_path, spans_to_json(&tracks).to_string() + "\n")
        .expect("write trace.json");
    let perfetto = spans_to_chrome_trace(&tracks).to_string();
    std::fs::write(&perfetto_path, perfetto.clone() + "\n").expect("write trace_perfetto.json");
    println!("wrote {json_path}");
    println!("wrote {perfetto_path}");

    // Per-trace span sets (traced spans only; untraced step/fault spans have
    // trace id 0 and live outside request trees).
    let mut by_trace: HashMap<u64, Vec<Span>> = HashMap::new();
    for (_, spans) in &tracks {
        for s in spans {
            if s.trace_id != 0 {
                by_trace.entry(s.trace_id).or_default().push(s.clone());
            }
        }
    }

    // Span/metric consistency: each `attempt` span that has a `decode`
    // child ends exactly when the e2e histogram observed its sample, so the
    // two sums must agree.
    let mut attempt_sum = 0.0f64;
    for spans in by_trace.values() {
        for a in spans.iter().filter(|s| s.name == "attempt") {
            // Truncated decode spans (attempt died mid-generation) have no
            // matching e2e sample, so only clean decodes pair with the
            // histogram.
            if spans.iter().any(|s| {
                s.name == "decode"
                    && s.parent_span_id == a.span_id
                    && !s.attrs.iter().any(|(k, _)| k == "truncated")
            }) {
                attempt_sum += a.duration();
            }
        }
    }
    let merged = cluster.merged_snapshot();
    let e2e_sum: f64 = merged
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("vllm_request_e2e_seconds{"))
        .filter_map(|m| match &m.value {
            MetricValue::Histogram(h) => Some(h.sum),
            _ => None,
        })
        .sum();
    let rel = if e2e_sum > 0.0 {
        (attempt_sum - e2e_sum).abs() / e2e_sum
    } else {
        f64::INFINITY
    };
    println!(
        "attempt-span sum {attempt_sum:.6}s vs e2e histogram sum {e2e_sum:.6}s \
         (rel diff {:.4}%)",
        rel * 100.0
    );
    println!("span-log drops: {}", cluster.span_log_drops());

    // Summary artifact alongside the trace dumps.
    let mut summary = String::new();
    write!(
        summary,
        concat!(
            "{{\"requests\":{},\"completed\":{},\"retries\":{},\"kills\":{},",
            "\"spans\":{},\"traces\":{},\"attempt_span_sum\":{:.6},",
            "\"e2e_histogram_sum\":{:.6},\"span_log_drops\":{}}}"
        ),
        report.num_requests,
        report.completed,
        report.router.retries,
        report.kills,
        span_count,
        by_trace.len(),
        attempt_sum,
        e2e_sum,
        cluster.span_log_drops()
    )
    .unwrap();
    std::fs::write(format!("{dir}/trace_summary.json"), summary + "\n")
        .expect("write trace_summary.json");

    if !ci {
        return;
    }

    let mut gates = Gates::default();
    let mut check = |ok: bool, what: &str| gates.check(ok, what);

    check(report.kills == 1, "expected exactly one kill");
    check(report.lost == 0, "requests were lost");
    check(report.duplicates == 0, "duplicate completions");
    check(
        report.completed == report.num_requests,
        "capacity is ample: every request must complete",
    );
    check(
        report.router.retries > 0,
        "the kill must force re-routing retries",
    );

    // Gate 1: every traced request forms a complete, well-nested tree.
    check(
        by_trace.len() == REQUESTS as usize,
        "every request must leave a trace",
    );
    let mut deep_validated = 0usize;
    let mut sibling_retries = 0usize;
    for (trace_id, spans) in &by_trace {
        if let Err(e) = validate_span_tree(spans) {
            check(false, &format!("trace {trace_id:016x}: {e}"));
            continue;
        }
        let attempts: Vec<&Span> = spans.iter().filter(|s| s.name == "attempt").collect();
        check(
            !attempts.is_empty(),
            &format!("trace {trace_id:016x}: no attempt span"),
        );
        if attempts.len() >= 2 {
            sibling_retries += 1;
            check(
                attempts
                    .iter()
                    .all(|a| a.parent_span_id == attempts[0].parent_span_id),
                &format!("trace {trace_id:016x}: retry attempts are not siblings"),
            );
        }
        // Depth: root → attempt → ≥3 engine stage spans → ≥1 kernel span.
        let deep = attempts.iter().any(|a| {
            let stages = spans
                .iter()
                .filter(|s| {
                    s.parent_span_id == a.span_id
                        && matches!(s.name.as_str(), "admit" | "queue" | "prefill" | "decode")
                })
                .count();
            stages >= 3
        });
        let kernels = spans.iter().any(|s| s.name.starts_with("kernel:"));
        if deep && kernels {
            deep_validated += 1;
        }
    }
    check(
        deep_validated > 0,
        "no request produced the full router → replica → stages → kernel tree",
    );
    check(
        sibling_retries > 0,
        "the killed requests must show retry attempts as sibling spans",
    );

    // Gate 2: kernel spans carry the backend label.
    let backend_labeled = tracks
        .iter()
        .flat_map(|(_, s)| s)
        .any(|s| s.name.starts_with("kernel:") && s.attrs.iter().any(|(k, _)| k == "backend"));
    check(backend_labeled, "kernel spans must carry a backend label");

    // Gate 3: the Perfetto artifact parses and is structurally valid.
    match Json::parse(&perfetto) {
        Err(e) => check(false, &format!("perfetto JSON does not parse: {e}")),
        Ok(doc) => {
            let events = doc.get("traceEvents").and_then(Json::as_arr);
            check(events.is_some(), "perfetto JSON lacks traceEvents");
            if let Some(events) = events {
                check(!events.is_empty(), "perfetto traceEvents is empty");
                let well_formed = events.iter().all(|e| {
                    let ph = e.get("ph").and_then(Json::as_str);
                    e.get("pid").and_then(Json::as_f64).is_some()
                        && e.get("tid").and_then(Json::as_f64).is_some()
                        && e.get("name").and_then(Json::as_str).is_some()
                        && match ph {
                            Some("X") => {
                                e.get("ts").and_then(Json::as_f64).is_some()
                                    && e.get("dur").and_then(Json::as_f64).is_some()
                            }
                            Some("M") => true,
                            _ => false,
                        }
                });
                check(well_formed, "perfetto traceEvents are malformed");
            }
            check(
                doc.get("displayTimeUnit").and_then(Json::as_str) == Some("ms"),
                "perfetto JSON lacks displayTimeUnit",
            );
        }
    }

    // Gate 4: span durations vs e2e histogram within 1%.
    check(
        rel <= 0.01,
        &format!("span/e2e consistency off by {:.4}% (> 1%)", rel * 100.0),
    );

    // Gate 5: no span-log drops at default capacity.
    check(
        cluster.span_log_drops() == 0,
        "span logs dropped spans at default capacity",
    );

    // Gate 6: one time base. Fault instants fall within the engine spans'
    // bounds, and the k-th restart of a replica precedes every span of its
    // (k+1)-th generation.
    let (lo, hi) = (all.iter().flat_map(|(_, s)| s)).fold((f64::MAX, f64::MIN), |(lo, hi), s| {
        (lo.min(s.start), hi.max(s.end))
    });
    let fleet_spans = cluster.telemetry().spans().snapshot();
    let mut restarted: HashMap<&str, usize> = HashMap::new();
    for f in fleet_spans.iter().filter(|s| s.name.starts_with("fault.")) {
        let inside = lo <= f.start && f.end <= hi;
        check(
            inside,
            &format!("{} at {} outside the run's spans", f.name, f.start),
        );
        if f.name == "fault.restart" {
            let replica = f.attrs[0].1.as_str(); // a fault's one attribute
            let k = restarted.entry(replica).or_default();
            *k += 1;
            let next = (all.iter())
                .filter(|(i, _)| i.to_string() == replica)
                .nth(*k);
            let ok = next.is_some_and(|(_, g)| g.iter().all(|s| s.start >= f.start));
            check(
                ok,
                &format!("replica {replica}'s generation {k} starts before its restart"),
            );
        }
    }

    gates.finish("tracing CI gate");
    println!("tracing CI gate passed");
}
