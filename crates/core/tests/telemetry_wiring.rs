//! End-to-end wiring tests for the telemetry subsystem: engine counters,
//! block-manager gauges, latency histograms, and the sequence-lifecycle
//! event log must all agree with the engine's own state after real runs,
//! including preemption under memory pressure.

use vllm_core::mock::MockExecutor;
use vllm_core::telemetry::{EventKind, MetricValue, MetricsSnapshot};
use vllm_core::{CacheConfig, LlmEngine, PreemptionMode, SamplingParams, SchedulerConfig};

const BS: usize = 4;

fn engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

fn swap_engine(gpu_blocks: usize, cpu_blocks: usize) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048)
        .unwrap()
        .with_preemption_mode(PreemptionMode::Swap);
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

#[test]
fn counters_and_gauges_match_engine_state() {
    let mut e = engine(64, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(6))
        .unwrap();
    e.add_request("b", (100..108).collect(), SamplingParams::greedy(4))
        .unwrap();
    let outs = e.run_to_completion().unwrap();
    assert_eq!(outs.len(), 2);

    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter("vllm_engine_requests_arrived_total"), Some(2));
    assert_eq!(snap.counter("vllm_engine_requests_finished_total"), Some(2));
    assert_eq!(
        snap.counter("vllm_engine_steps_total"),
        Some(e.trace_stats().num_steps())
    );
    assert_eq!(
        snap.counter("vllm_engine_tokens_scheduled_total"),
        Some(e.trace_stats().tokens_scheduled())
    );

    // End-of-run pool gauges: everything freed, nothing fragmented.
    let bm = e.scheduler().block_manager();
    assert_eq!(
        snap.gauge("vllm_block_manager_gpu_blocks_free"),
        Some(bm.num_free_gpu_blocks() as f64)
    );
    assert_eq!(
        snap.gauge("vllm_block_manager_gpu_blocks_total"),
        Some(bm.num_total_gpu_blocks() as f64)
    );
    assert_eq!(snap.gauge("vllm_block_manager_gpu_blocks_used"), Some(0.0));
    assert_eq!(
        snap.gauge("vllm_block_manager_fragmentation_ratio"),
        Some(0.0)
    );

    // Latency histograms saw exactly the finished requests; TTFT never
    // exceeds end-to-end latency.
    let ttft = snap.histogram("vllm_request_ttft_seconds").unwrap();
    let e2e = snap.histogram("vllm_request_e2e_seconds").unwrap();
    assert_eq!(ttft.count, 2);
    assert_eq!(e2e.count, 2);
    assert!(ttft.max <= e2e.max);
    let norm = snap
        .histogram("vllm_request_normalized_latency_seconds")
        .unwrap();
    assert_eq!(norm.count, 2);
    assert!(norm.min > 0.0);

    // Every histogram in the snapshot is internally consistent.
    for entry in &snap.metrics {
        if let MetricValue::Histogram(h) = &entry.value {
            assert!(h.is_consistent(), "{} inconsistent", entry.name);
        }
    }
}

#[test]
fn event_log_captures_request_lifecycle() {
    let mut e = engine(64, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(5))
        .unwrap();
    e.run_to_completion().unwrap();

    let events = e.telemetry().events().events_for("a");
    let labels: Vec<&str> = events.iter().map(|ev| ev.kind.label()).collect();
    assert_eq!(labels.first(), Some(&"arrived"));
    assert_eq!(labels.get(1), Some(&"scheduled"));
    assert_eq!(labels.get(2), Some(&"first_token"));
    assert_eq!(labels.last(), Some(&"finished"));
    assert!(labels.iter().filter(|l| **l == "decoded").count() >= 1);

    // Timestamps are monotone non-decreasing along the lifecycle.
    for w in events.windows(2) {
        assert!(w[1].time >= w[0].time);
    }
    // Scheduled carries the prompt length; finished carries the reason.
    assert!(matches!(
        events[1].kind,
        EventKind::Scheduled {
            prompt_tokens: 8,
            cached_tokens: 0
        }
    ));
    match &events[events.len() - 1].kind {
        EventKind::Finished { reason } => assert_eq!(reason, "length_capped"),
        other => panic!("expected Finished, got {other:?}"),
    }
}

#[test]
fn ttft_closes_at_first_sampled_token_not_first_chunk_dispatch() {
    use vllm_core::telemetry::{trace_seed, TraceContext};
    // A 16-token prompt under a 4-token step budget prefills in 4 chunks.
    // TTFT must close when the final chunk samples the first token, not
    // when the first chunk is dispatched.
    let mut e = engine(64, 0);
    e.set_step_token_budget(Some(4));
    e.add_request("a", (0..16).collect(), SamplingParams::greedy(4))
        .unwrap();

    // The first three chunks are KV-only: no token, no first_token event,
    // nothing observed into the TTFT histogram.
    for _ in 0..3 {
        e.step().unwrap();
        assert!(
            e.telemetry()
                .events()
                .events_for("a")
                .iter()
                .all(|ev| ev.kind.label() != "first_token"),
            "first_token must not fire on a KV-only chunk"
        );
        assert_eq!(
            e.metrics_snapshot()
                .histogram("vllm_request_ttft_seconds")
                .unwrap()
                .count,
            0
        );
    }
    let t_before_final = e.clock();

    // The final chunk samples the first token and closes TTFT.
    e.step().unwrap();
    let events = e.telemetry().events().events_for("a");
    let ft = events
        .iter()
        .find(|ev| ev.kind.label() == "first_token")
        .expect("final chunk must emit first_token");
    assert!(ft.time >= t_before_final);
    let snap = e.metrics_snapshot();
    let ttft = snap.histogram("vllm_request_ttft_seconds").unwrap();
    assert_eq!(ttft.count, 1);
    assert!(
        ttft.min >= t_before_final,
        "TTFT {} must span all four chunks (>= {}), not close at dispatch",
        ttft.min,
        t_before_final
    );
    assert_eq!(snap.counter("vllm_engine_prefill_chunks_total"), Some(4));

    e.run_to_completion().unwrap();
    // The prefill span covers [first schedule, first token], with one
    // child span per chunk.
    let trace_id = TraceContext::mint(trace_seed("a"), true).trace_id;
    let spans = e.telemetry().spans().spans_for_trace(trace_id);
    let prefill = spans
        .iter()
        .find(|s| s.name == "prefill")
        .expect("prefill span");
    assert!((prefill.end - ft.time).abs() < 1e-12);
    let chunks: Vec<_> = spans.iter().filter(|s| s.name == "prefill.chunk").collect();
    assert_eq!(chunks.len(), 4, "one child span per chunk");
    assert!(chunks.iter().all(|c| c.parent_span_id == prefill.span_id));
}

#[test]
fn swap_preemption_reaches_metrics_and_events() {
    let mut e = swap_engine(6, 16);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    e.run_to_completion().unwrap();
    assert!(e.scheduler().stats().num_swap_preemptions > 0);

    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counter("vllm_scheduler_swap_preemptions_total"),
        Some(e.scheduler().stats().num_swap_preemptions)
    );
    assert_eq!(
        snap.counter("vllm_scheduler_preemptions_total"),
        Some(e.scheduler().stats().num_preemptions)
    );
    assert!(snap.counter("vllm_block_manager_swapped_out_blocks_total") > Some(0));
    assert_eq!(
        snap.counter("vllm_block_manager_swapped_out_blocks_total"),
        snap.counter("vllm_block_manager_swapped_in_blocks_total")
    );

    // The victim's lifecycle shows the preemption and the swap back in.
    let victim_events: Vec<_> = ["a", "b"]
        .iter()
        .flat_map(|id| e.telemetry().events().events_for(id))
        .collect();
    let preempted = victim_events
        .iter()
        .find(|ev| matches!(&ev.kind, EventKind::Preempted { mode, blocks } if mode == "swap" && *blocks > 0))
        .expect("a preempted event with mode=swap");
    assert!(victim_events
        .iter()
        .any(|ev| matches!(&ev.kind, EventKind::SwappedIn { blocks } if *blocks > 0)));
    assert!(preempted.time > 0.0);
}

#[test]
fn recompute_preemption_reaches_metrics_and_events() {
    let mut e = engine(6, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(12))
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    e.run_to_completion().unwrap();

    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counter("vllm_scheduler_recompute_preemptions_total"),
        Some(e.scheduler().stats().num_recompute_preemptions)
    );
    assert!(snap.counter("vllm_scheduler_recompute_preemptions_total") > Some(0));
    assert_eq!(
        snap.counter("vllm_block_manager_swapped_out_blocks_total"),
        Some(0)
    );
    let any_preempt =
        ["a", "b"].iter().any(|id| {
            e.telemetry().events().events_for(id).iter().any(
                |ev| matches!(&ev.kind, EventKind::Preempted { mode, .. } if mode == "recompute"),
            )
        });
    assert!(any_preempt, "recompute preemption must be logged");
}

#[test]
fn elastic_pool_gauges_and_migration_counter_reach_exposition() {
    let mut e = engine(64, 8);
    // A short request that finishes first (freeing the lowest block ids)
    // and a longer one whose blocks end up above the compaction bound.
    e.add_request("a", (0..16).collect(), SamplingParams::greedy(2))
        .unwrap();
    e.add_request("b", (100..116).collect(), SamplingParams::greedy(20))
        .unwrap();
    while e.step().unwrap().iter().all(|out| out.request_id != "a") {
        assert!(e.has_unfinished(), "request a must finish");
    }

    // Deflate mid-decode: b's live blocks sit above the shrunken bound, so
    // the resize compacts and journals migrations.
    e.deflate_pool(0.0).unwrap();
    e.run_to_completion().unwrap();

    let bm = e.scheduler().block_manager();
    assert!(bm.num_block_migrations() > 0, "deflate must migrate blocks");
    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.gauge("vllm_block_pool_gpu_blocks"),
        Some(bm.num_total_gpu_blocks() as f64)
    );
    assert!(
        snap.gauge("vllm_block_pool_gpu_blocks").unwrap() < 64.0,
        "pool gauge must reflect the deflated size"
    );
    assert_eq!(
        snap.gauge("vllm_block_pool_cpu_blocks"),
        Some(bm.num_total_cpu_blocks() as f64)
    );
    assert_eq!(
        snap.gauge("vllm_block_pool_fragmentation_ratio"),
        Some(bm.pool_fragmentation_ratio())
    );
    assert_eq!(
        snap.counter("vllm_block_migrations_total"),
        Some(bm.num_block_migrations())
    );
    // Migrations ride StepPlan cache ops and are aggregated by the trace
    // stats like any other plan-carried work.
    assert_eq!(e.trace_stats().blocks_migrated(), bm.num_block_migrations());

    // The new instruments survive both exposition round-trips.
    let text = snap.to_prometheus_text();
    let json = snap.to_json();
    for name in [
        "vllm_block_pool_gpu_blocks",
        "vllm_block_pool_cpu_blocks",
        "vllm_block_pool_fragmentation_ratio",
        "vllm_block_migrations_total",
    ] {
        assert!(text.contains(name), "{name} absent from Prometheus text");
        assert!(json.contains(name), "{name} absent from JSON exposition");
    }

    // Restoring the pool grows the gauge back to the configured size.
    e.restore_pool().unwrap();
    e.add_request("c", (0..8).collect(), SamplingParams::greedy(2))
        .unwrap();
    e.run_to_completion().unwrap();
    let snap = e.metrics_snapshot();
    assert_eq!(snap.gauge("vllm_block_pool_gpu_blocks"), Some(64.0));
}

#[test]
fn counters_are_monotone_across_runs_and_snapshot_round_trips() {
    let mut e = engine(64, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(4))
        .unwrap();
    e.run_to_completion().unwrap();
    let first = e.metrics_snapshot();

    e.add_request("b", (50..60).collect(), SamplingParams::greedy(4))
        .unwrap();
    e.run_to_completion().unwrap();
    let second = e.metrics_snapshot();

    for entry in &first.metrics {
        if let MetricValue::Counter(a) = entry.value {
            let b = second.counter(&entry.name).unwrap();
            assert!(b >= a, "{} regressed: {a} -> {b}", entry.name);
        }
    }

    // The golden exposition checks: Prometheus text parses back to the same
    // snapshot, and so does the JSON document.
    let text = second.to_prometheus_text();
    let reparsed = MetricsSnapshot::from_prometheus_text(&text).unwrap();
    assert_eq!(reparsed, second);
    let json = second.to_json();
    let reparsed = MetricsSnapshot::from_json(&json).unwrap();
    assert_eq!(reparsed, second);
}

#[test]
fn model_kernel_histograms_are_registered_and_observed() {
    // The real CPU executor must register the per-kernel timing histograms
    // — labeled with the serving backend — and observe into them on every
    // step (the three kernels, and the activation / sampling / elementwise
    // classes that account for the rest of the forward pass).
    use vllm_model::{BackendKind, CpuModelExecutor, ModelConfig};
    let cache = CacheConfig::new(BS, 64, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 16, 2048).unwrap();
    let mut mc = ModelConfig::tiny();
    mc.backend = BackendKind::Scalar;
    let exec = CpuModelExecutor::from_config(mc, &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    e.add_request("a", vec![1, 2, 3, 4], SamplingParams::greedy(4))
        .unwrap();
    e.add_request("b", vec![5, 6, 7], SamplingParams::greedy(3))
        .unwrap();
    e.run_to_completion().unwrap();

    let snap = e.metrics_snapshot();
    for name in [
        "vllm_model_kernel_matmul_seconds{backend=\"scalar\"}",
        "vllm_model_kernel_paged_attention_seconds{backend=\"scalar\"}",
        "vllm_model_kernel_logits_seconds{backend=\"scalar\"}",
        "vllm_model_kernel_activation_seconds{backend=\"scalar\"}",
        "vllm_model_kernel_sampling_seconds{backend=\"scalar\"}",
        "vllm_model_kernel_elementwise_seconds{backend=\"scalar\"}",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert!(h.count > 0, "{name} registered but never observed");
    }

    // The backend label must survive both exposition formats round-trip.
    let reparsed = MetricsSnapshot::from_prometheus_text(&snap.to_prometheus_text()).unwrap();
    assert_eq!(reparsed, snap);
    assert!(reparsed
        .histogram("vllm_model_kernel_matmul_seconds{backend=\"scalar\"}")
        .is_some());
    let reparsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(reparsed, snap);
    assert!(reparsed
        .histogram("vllm_model_kernel_logits_seconds{backend=\"scalar\"}")
        .is_some());
}

/// Times every `begin_step` from outside, as the serving bench's decorator
/// does, and makes each one long enough to see.
struct TimedExecutor {
    inner: MockExecutor,
    begin_step_seconds: std::sync::Arc<std::sync::Mutex<f64>>,
}

impl vllm_core::ModelExecutor for TimedExecutor {
    fn begin_step(
        &mut self,
        plan: &vllm_core::StepPlan,
    ) -> vllm_core::Result<vllm_core::StepResult> {
        let start = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let result = self.inner.begin_step(plan);
        *self.begin_step_seconds.lock().unwrap() += start.elapsed().as_secs_f64();
        result
    }
}

#[test]
fn prefix_registration_forward_counts_as_execute_time_but_not_as_a_step() {
    // The per-replica wall identity sums the stage totals; a forward pass
    // that runs outside `step()` has to be in them or the identity leaks.
    let cache = CacheConfig::new(BS, 64, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
    let begin_step_seconds = std::sync::Arc::new(std::sync::Mutex::new(0.0));
    let exec = TimedExecutor {
        inner: MockExecutor::new(1000),
        begin_step_seconds: std::sync::Arc::clone(&begin_step_seconds),
    };
    let mut e = LlmEngine::new(exec, cache, sched);

    e.register_prefix(&(0..16).collect::<Vec<_>>()).unwrap();
    assert_eq!(e.trace_stats().num_steps(), 0, "a registration is no step");
    let registration = *begin_step_seconds.lock().unwrap();
    assert!(registration >= 0.002);
    assert!(e.trace_stats().stage_totals().execute >= registration);

    let mut prompt: Vec<u32> = (0..16).collect();
    prompt.extend([90, 91, 92]);
    e.add_request("a", prompt, SamplingParams::greedy(5))
        .unwrap();
    e.run_to_completion().unwrap();

    // The execute total brackets every `begin_step` from outside: never
    // less than what the executor saw, and only call overhead more.
    let inside = *begin_step_seconds.lock().unwrap();
    let execute = e.trace_stats().stage_totals().execute;
    assert!(execute >= inside, "execute {execute} < begin_step {inside}");
    assert!(
        execute < inside * 1.05,
        "execute {execute} vs begin_step {inside}"
    );
    // The histogram exposition carries the same total.
    let snap = e.metrics_snapshot();
    let h = snap.histogram("vllm_step_execute_seconds").unwrap();
    assert!((h.sum - execute).abs() < 1e-9 * execute.max(1.0) + 1e-9);
    assert_eq!(h.count, e.trace_stats().num_steps() + 1);
}

#[test]
fn prefix_cache_hits_reach_counters_gauge_event_and_span() {
    let mut e = engine(64, 0);
    e.add_request("t1", (0..10).collect(), SamplingParams::greedy(3))
        .unwrap();
    e.run_to_completion().unwrap();
    // 10 prompt + 2 generated tokens have KV: three full blocks, all cached
    // in free blocks once the request is gone.
    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counter("vllm_cache_prefix_lookup_tokens_total"),
        Some(10)
    );
    assert_eq!(snap.counter("vllm_cache_prefix_hit_tokens_total"), Some(0));
    assert_eq!(
        snap.gauge("vllm_block_manager_gpu_blocks_cached_free"),
        Some(3.0)
    );
    assert_eq!(snap.gauge("vllm_block_manager_gpu_blocks_free"), Some(64.0));

    // The follow-up turn maps two of them (the strict-prefix rule keeps the
    // block its last prompt token is in), counted at admission.
    e.add_request("t2", (0..12).collect(), SamplingParams::greedy(2))
        .unwrap();
    e.step().unwrap();
    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counter("vllm_cache_prefix_lookup_tokens_total"),
        Some(22)
    );
    assert_eq!(snap.counter("vllm_cache_prefix_hit_tokens_total"), Some(8));
    assert_eq!(
        snap.gauge("vllm_block_manager_gpu_blocks_cached_free"),
        Some(1.0),
        "two cached blocks were revived, one is still free"
    );
    e.run_to_completion().unwrap();

    let events = e.telemetry().events().events_for("t2");
    assert!(events.iter().any(|ev| ev.kind
        == EventKind::Scheduled {
            prompt_tokens: 12,
            cached_tokens: 8
        }));
    // One `prefill` span per request, each saying what it skipped.
    let spans = e.telemetry().spans().snapshot();
    let cached: Vec<&str> = spans
        .iter()
        .filter(|s| s.name == "prefill")
        .map(|s| {
            assert_eq!(s.attrs.len(), 1);
            assert_eq!(s.attrs[0].0, "cached_tokens");
            s.attrs[0].1.as_str()
        })
        .collect();
    assert_eq!(cached, ["0", "8"]);
}

#[test]
fn span_pipeline_round_trips_and_validates() {
    use vllm_core::telemetry::{
        spans_to_chrome_trace, spans_to_json, trace_seed, validate_span_tree, Json, TraceContext,
    };
    let mut e = engine(64, 0);
    e.add_request("a", (0..8).collect(), SamplingParams::greedy(6))
        .unwrap();
    e.add_request("b", (0..5).collect(), SamplingParams::greedy(4))
        .unwrap();
    e.run_to_completion().unwrap();

    // The engine mints trace contexts deterministically from the request
    // id, so the test can re-derive the trace to query it.
    let trace_id = TraceContext::mint(trace_seed("a"), true).trace_id;
    let spans = e.telemetry().spans().spans_for_trace(trace_id);
    assert!(!spans.is_empty(), "request a must leave spans");
    validate_span_tree(&spans).expect("request a's spans form a well-nested tree");
    for name in ["admit", "queue", "prefill", "decode", "attempt"] {
        assert!(spans.iter().any(|s| s.name == name), "missing {name} span");
    }
    // Kernel spans carry the executor's backend label.
    let kernel = spans
        .iter()
        .find(|s| s.name.starts_with("kernel:"))
        .expect("at least one kernel span");
    assert_eq!(
        kernel
            .attrs
            .iter()
            .find(|(k, _)| k == "backend")
            .map(|(_, v)| v.as_str()),
        Some("mock")
    );

    // Both span exporters emit parseable JSON with the expected shape.
    let tracks = vec![("engine".to_string(), spans)];
    let doc = Json::parse(&spans_to_json(&tracks).to_string()).unwrap();
    let parsed_tracks = doc.get("tracks").and_then(Json::as_arr).unwrap();
    assert_eq!(parsed_tracks.len(), 1);
    assert!(parsed_tracks[0]
        .get("spans")
        .and_then(Json::as_arr)
        .is_some_and(|s| !s.is_empty()));
    let perfetto = Json::parse(&spans_to_chrome_trace(&tracks).to_string()).unwrap();
    let events = perfetto.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events.len() > 1, "metadata event plus span events");
    assert_eq!(
        perfetto.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );

    // No span was lost to ring-buffer eviction at default capacity.
    assert_eq!(e.telemetry().spans().total_dropped(), 0);
}

#[test]
fn slo_metrics_round_trip_with_replica_labels() {
    use vllm_core::telemetry::{BucketSpec, SloMonitor, SloObjectives, Telemetry};
    // Labeled per-replica histograms, as the cluster's merged snapshot
    // produces them: the monitor must merge both replicas' samples.
    let t = Telemetry::new();
    for (replica, ttft) in [("0", 0.05), ("1", 0.8)] {
        t.registry()
            .histogram(
                &format!("vllm_request_ttft_seconds{{replica=\"{replica}\"}}"),
                "TTFT.",
                BucketSpec::seconds(),
            )
            .observe(ttft);
        t.registry()
            .histogram(
                &format!("vllm_request_e2e_seconds{{replica=\"{replica}\"}}"),
                "E2E.",
                BucketSpec::seconds(),
            )
            .observe(ttft * 2.0);
    }
    let slo = SloMonitor::register(
        &t,
        SloObjectives::default()
            .with_ttft_p99(0.1)
            .with_e2e_p99(10.0),
    );
    let status = slo.evaluate(&t.registry().snapshot());
    assert!(
        status.ttft_breached,
        "replica 1's 0.8s TTFT must breach the 0.1s objective"
    );
    assert!(!status.e2e_breached);

    // The SLO instruments and the replica-labeled histograms survive both
    // exposition round-trips.
    let snap = t.registry().snapshot();
    assert_eq!(snap.counter("vllm_slo_ttft_breaches_total"), Some(1));
    assert!(snap.counter("vllm_slo_e2e_breaches_total") == Some(0));
    let from_text = MetricsSnapshot::from_prometheus_text(&snap.to_prometheus_text()).unwrap();
    assert_eq!(from_text, snap);
    let from_json = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(from_json, snap);
    assert!(from_text
        .histogram("vllm_request_ttft_seconds{replica=\"1\"}")
        .is_some());
    assert!(from_json.counter("vllm_slo_ttft_breaches_total") == Some(1));
    let burn = from_json
        .metrics
        .iter()
        .find(|m| m.name == "vllm_slo_ttft_burn_ratio")
        .expect("burn-ratio gauge exported");
    assert!(matches!(burn.value, MetricValue::Gauge(v) if v > 1.0));
}
