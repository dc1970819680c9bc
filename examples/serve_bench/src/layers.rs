//! Per-layer metrics of a traced pass, measured from outside each layer:
//! counts from `replica_stats()`, `TIER` and `METRICS\tjson`; times from the
//! `SpanExecutor` spans; and a probe phase that times direct calls of the
//! layers' public functions on the workload's own inputs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vllm::cluster::{ReplicaSnapshot, Router};
use vllm::core::telemetry::{spans_to_chrome_trace, trace_seed, MetricsSnapshot, Span};
use vllm::core::{
    chunk_hashes, BlockSpaceManager, EngineLoad, HandoffPayload, KvBlockBytes, SamplingParams,
    Sequence, SequenceGroup,
};
use vllm::frontend::{Client, EngineStats};
use vllm::model::{ByteTokenizer, ModelConfig};
use vllm::protocol::{Command, Response, TierSnapshot};

use crate::pass::{Live, Pass};
use crate::report::Metrics;
use crate::span_exec::StepSpan;
use crate::stats::{median, percentile};
use crate::workloads::{Kind, Request, Workload, BLOCK_SIZE, CLIENTS};

/// Probe repetitions: each probe reports the best of this many rounds of a
/// fixed number of iterations.
const PROBE_ROUNDS: usize = 3;

/// `HELLO` round trips on the idle server. Each costs about 88 ms today (the
/// client's `writeln!` reaches the socket as several small writes, and
/// without `TCP_NODELAY` the second waits for a delayed ACK), so two dozen is
/// what the run's time cap affords; the timer makes them near-identical.
const HELLO_ROUND_TRIPS: usize = 24;

/// Best of [`PROBE_ROUNDS`] rounds of `iters` calls of `f`, in ns per call.
fn ns_per_op(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..PROBE_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Everything `--trace 1` reports for one workload, except
/// `telemetry.trace_overhead_share`, which compares with untraced passes.
pub fn per_layer(
    w: &Workload,
    lists: &[Vec<Request>; CLIENTS],
    traced: &Pass,
    live: &Live,
) -> Metrics {
    let mut m = Metrics::default();
    let wall = traced.wall_s();
    let sum = |f: fn(&EngineStats) -> f64| traced.stats.iter().map(f).sum::<f64>();
    let count = |f: fn(&EngineStats) -> u64| traced.stats.iter().map(f).sum::<u64>() as f64;
    let steps: Vec<&StepSpan> = traced.steps.iter().flatten().collect();
    let requests: Vec<&Request> = lists.iter().flatten().collect();
    let model = w.model.config();

    // frontend
    let busy = busy_intervals(&steps);
    let stalls: Vec<f64> = lists
        .iter()
        .zip(&traced.samples)
        .flat_map(|(list, samples)| list.iter().zip(samples))
        .filter(|(r, _)| r.kind == Kind::Probe)
        .map(|(_, s)| s.latency_ms() - overlap(&busy, s.start, s.end) * 1e3)
        .collect();
    m.set("frontend.req_stall_ms_p50", percentile(&stalls, 50.0));
    let stage_s = sum(|s| s.schedule_time + s.prepare_time + s.execute_time + s.postprocess_time);
    m.set(
        "frontend.engine_idle_share",
        1.0 - stage_s / (wall * traced.stats.len() as f64),
    );
    m.set("frontend.hello_rtt_us_p50", hello_rtt_us_p50(live));

    // protocol
    let lines: Vec<String> = requests.iter().map(|r| r.wire_line()).collect();
    m.set(
        "protocol.parse_generate_ns",
        ns_per_op(20, || {
            for line in &lines {
                let Ok(Command::Generate(spec)) = Command::parse(black_box(line)) else {
                    unreachable!("the bench's own GENERATE lines parse");
                };
                black_box(spec.build().expect("the bench's own requests are valid"));
            }
        }) / lines.len() as f64,
    );
    let frames = [
        Response::Stats(traced.stats[0]),
        Response::Tier(TierSnapshot::default()),
        Response::Err {
            kind: vllm::core::ErrorKind::Resource,
            retryable: true,
            message: "replica at capacity; retry after 0.05s".to_string(),
        },
    ];
    m.set(
        "protocol.response_wire_ns",
        ns_per_op(2000, || {
            for frame in &frames {
                black_box(Response::parse(&black_box(frame).wire()).expect("own frames parse"));
            }
        }) / frames.len() as f64,
    );

    // cluster
    let prompts: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| ByteTokenizer.encode(&r.spec.prompt))
        .collect();
    m.set("cluster.route_ns", route_ns(w, &prompts, &traced.stats));
    let scrape_start = Instant::now();
    let scraped = live.admin("METRICS\tjson").expect("METRICS over a socket");
    m.set(
        "telemetry.metrics_scrape_ms",
        scrape_start.elapsed().as_secs_f64() * 1e3,
    );
    let scraped = MetricsSnapshot::from_json(&scraped).expect("METRICS json parses");
    // A single replica exposes its own registry: no cluster counters, and
    // indeed no handoffs. Counters cover the whole pass, warm-up included.
    let counter = |name: &str| scraped.counter(name).unwrap_or(0) as f64;
    m.set("cluster.handoffs", counter("vllm_cluster_handoffs_total"));
    m.set(
        "cluster.handoff_blocks",
        counter("vllm_cluster_handoff_blocks_total"),
    );
    m.set(
        "cluster.handoff_retries",
        counter("vllm_cluster_handoff_retries_total"),
    );
    let tier = live.admin("TIER").expect("TIER over a socket");
    let Ok(Response::Tier(tier)) = Response::parse(&tier) else {
        panic!("unexpected TIER reply {tier:?}");
    };
    let lookups = (tier.hits + tier.misses).max(1);
    m.set("cluster.tier_hit_share", tier.hits as f64 / lookups as f64);
    m.set(
        "cluster.handoff_codec_us_per_block",
        handoff_codec_us_per_block(&model, &prompts),
    );

    // core
    let core_steps = count(|s| s.steps);
    m.set("core.schedule_s", sum(|s| s.schedule_time));
    m.set("core.prepare_s", sum(|s| s.prepare_time));
    m.set("core.postprocess_s", sum(|s| s.postprocess_time));
    m.set(
        "core.schedule_us_per_step",
        sum(|s| s.schedule_time) * 1e6 / core_steps.max(1.0),
    );
    m.set("core.steps", core_steps);
    m.set("core.tokens_scheduled", count(|s| s.tokens_scheduled));
    m.set(
        "core.tokens_per_step",
        count(|s| s.tokens_scheduled) / core_steps.max(1.0),
    );
    m.set("core.preemptions", count(|s| s.preemptions));
    m.set("core.blocks_swapped", count(|s| s.blocks_swapped));
    m.set("core.blocks_cow_copied", count(|s| s.blocks_copied));
    let sent: usize = requests.iter().map(|r| r.prompt_tokens()).sum();
    let computed: usize = steps.iter().map(|s| s.prompt_tokens_computed).sum();
    m.set(
        "core.prefix_hit_token_share",
        1.0 - computed as f64 / sent as f64,
    );
    m.set("core.block_ops_ns", block_ops_ns(w));

    // model
    let (prefill, decode): (Vec<&StepSpan>, Vec<&StepSpan>) =
        steps.iter().partition(|s| s.is_prompt_run);
    let seconds = |steps: &[&StepSpan]| steps.iter().map(|s| s.end - s.start).sum::<f64>();
    let tokens = |steps: &[&StepSpan]| steps.iter().map(|s| s.tokens).sum::<usize>() as f64;
    m.set("model.execute_s", seconds(&steps));
    m.set("model.prefill_s", seconds(&prefill));
    m.set("model.decode_s", seconds(&decode));
    m.set("model.steps_prefill", prefill.len() as f64);
    m.set("model.steps_decode", decode.len() as f64);
    m.set("model.prefill_tokens", tokens(&prefill));
    m.set("model.decode_tokens", tokens(&decode));
    let decode_ms: Vec<f64> = decode.iter().map(|s| (s.end - s.start) * 1e3).collect();
    m.set(
        "model.decode_step_ms_p50",
        if decode_ms.is_empty() {
            0.0
        } else {
            percentile(&decode_ms, 50.0)
        },
    );
    m.set(
        "model.prefill_us_per_token",
        seconds(&prefill) * 1e6 / tokens(&prefill).max(1.0),
    );
    // Process-wide kernel clocks: exact for any number of replicas, where
    // summing each replica's `StepResult.kernels` would count a concurrent
    // replica's kernels twice.
    m.set(
        "model.kernel_matmul_s",
        traced.kernels.matmul_ns as f64 / 1e9,
    );
    m.set(
        "model.kernel_paged_attention_s",
        traced.kernels.attention_ns as f64 / 1e9,
    );
    m.set(
        "model.kernel_logits_s",
        traced.kernels.logits_ns as f64 / 1e9,
    );
    // Computed, not measured: K and V, every layer, f32.
    let bytes_per_position = (2 * model.n_layers * model.hidden * 4) as f64;
    let positions: u64 = steps.iter().map(|s| s.kv_positions_read).sum();
    m.set("model.kv_bytes_read", positions as f64 * bytes_per_position);
    m.set(
        "model.cache_op_blocks",
        steps.iter().map(|s| s.cache_op_blocks).sum::<usize>() as f64,
    );
    let texts: Vec<&str> = requests.iter().map(|r| r.spec.prompt.as_str()).collect();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    m.set(
        "model.tokenize_ns_per_byte",
        ns_per_op(20, || {
            for text in &texts {
                black_box(ByteTokenizer.encode(black_box(text)));
            }
        }) / bytes as f64,
    );

    m
}

/// Median of [`HELLO_ROUND_TRIPS`] `Client::hello()` round trips on the idle
/// server: what the repository's own client pays per exchange. A `HELLO` the
/// server answers with `ERR` (see `wire.rs`) is reported and left out.
fn hello_rtt_us_p50(live: &Live) -> f64 {
    let mut client = Client::connect(live.server.addr()).expect("connect to own server");
    let mut rtts = Vec::new();
    for _ in 0..HELLO_ROUND_TRIPS {
        let t = Instant::now();
        match client.hello() {
            Ok(_) => rtts.push(t.elapsed().as_secs_f64() * 1e6),
            Err(e) => eprintln!("FINDING: a Client::hello() on an idle server failed: {e}"),
        }
    }
    percentile(&rtts, 50.0)
}

/// Per replica: `wall = execute + schedule + prepare + postprocess + idle`,
/// and the execute time seen from outside against the engine's own.
pub fn identity_lines(traced: &Pass) -> Vec<String> {
    let wall = traced.wall_s();
    traced
        .stats
        .iter()
        .zip(&traced.steps)
        .enumerate()
        .map(|(replica, (s, steps))| {
            let stages = s.execute_time + s.schedule_time + s.prepare_time + s.postprocess_time;
            let outside: f64 = steps.iter().map(|x| x.end - x.start).sum();
            let gap = (outside - s.execute_time) / s.execute_time.max(1e-9);
            let bookkeeping: f64 = steps.iter().map(|x| x.bookkeeping_s).sum();
            format!(
                "replica {replica}: wall {wall:.3} s = execute {:.3} + schedule {:.3} + prepare {:.3} \
                 + postprocess {:.3} + idle {:.3}; begin_step seen from outside {outside:.3} s vs \
                 replica_stats execute_time {:.3} s ({:+.2} %{}); SpanExecutor's own bookkeeping \
                 {:.4} s = {:.3} % of wall",
                s.execute_time,
                s.schedule_time,
                s.prepare_time,
                s.postprocess_time,
                wall - stages,
                s.execute_time,
                gap * 100.0,
                if gap.abs() > 0.02 { ", FINDING: beyond 2 %" } else { "" },
                bookkeeping,
                bookkeeping / wall * 100.0,
            )
        })
        .collect()
}

/// The sorted, merged intervals during which any replica was in `begin_step`.
fn busy_intervals(steps: &[&StepSpan]) -> Vec<(f64, f64)> {
    let mut all: Vec<(f64, f64)> = steps.iter().map(|s| (s.start, s.end)).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (start, end) in all {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Seconds of `[start, end]` covered by the merged `intervals`.
fn overlap(intervals: &[(f64, f64)], start: f64, end: f64) -> f64 {
    intervals
        .iter()
        .map(|&(s, e)| (e.min(end) - s.max(start)).max(0.0))
        .sum()
}

/// `chunk_hashes` + `Router::route` per prompt, against snapshots shaped
/// like the live ones: the pass's final load and a coverage set holding the
/// chunk hashes of a quarter of the prompts.
fn route_ns(w: &Workload, prompts: &[Vec<u32>], stats: &[EngineStats]) -> f64 {
    let cfg = w.cluster_config();
    let mut router = Router::new(cfg.router, cfg.num_replicas());
    router.set_roles(cfg.roles.clone());
    let mut coverage: Vec<u64> = prompts
        .iter()
        .step_by(4)
        .flat_map(|p| chunk_hashes(p, BLOCK_SIZE))
        .collect();
    coverage.sort_unstable();
    coverage.dedup();
    let coverage = Arc::new(coverage);
    let snaps: Vec<ReplicaSnapshot> = stats
        .iter()
        .map(|s| ReplicaSnapshot {
            load: EngineLoad {
                waiting: s.waiting,
                running: s.running,
                swapped: s.swapped,
                free_blocks: s.free_blocks,
                total_blocks: s.total_blocks,
                outstanding_tokens: s.outstanding_tokens,
                norm_lat_p50: s.norm_lat_p50,
            },
            coverage: Arc::clone(&coverage),
        })
        .collect();
    ns_per_op(20, || {
        for prompt in prompts {
            let hashes = chunk_hashes(black_box(prompt), BLOCK_SIZE);
            black_box(router.route(&hashes, &snaps));
        }
    }) / prompts.len() as f64
}

/// `HandoffPayload::encode_wire` → `decode_wire` on a payload of the
/// workload's median prompt block count, in µs per block.
fn handoff_codec_us_per_block(model: &ModelConfig, prompts: &[Vec<u32>]) -> f64 {
    let blocks_of: Vec<f64> = prompts
        .iter()
        .map(|p| (p.len() / BLOCK_SIZE).max(1) as f64)
        .collect();
    let blocks = median(&blocks_of) as usize;
    let values = model.n_layers * BLOCK_SIZE * model.hidden;
    let payload = HandoffPayload {
        request_id: "req-0".to_string(),
        tokens: prompts[0]
            .iter()
            .copied()
            .cycle()
            .take(blocks * BLOCK_SIZE)
            .collect(),
        first_token: Some(1),
        seed: 7,
        block_size: BLOCK_SIZE,
        blocks: (0..blocks)
            .map(|b| KvBlockBytes::F32 {
                k: (0..values).map(|i| (i + b) as f32 * 0.001).collect(),
                v: (0..values).map(|i| (i + b) as f32 * -0.002).collect(),
            })
            .collect(),
    };
    ns_per_op(3, || {
        let wire = black_box(&payload).encode_wire();
        black_box(HandoffPayload::decode_wire(&wire).expect("own payload decodes"));
    }) / 1e3
        / blocks as f64
}

/// One `BlockSpaceManager` cycle — allocate a prompt of the workload's
/// length, `append_slot` × 32, `fork` × 3, `free` × 4 — in ns per operation.
fn block_ops_ns(w: &Workload) -> f64 {
    const APPENDS: usize = 32;
    const FORKS: u64 = 3;
    let ops = 1 + APPENDS + 2 * FORKS as usize + 1;
    let mut manager = BlockSpaceManager::new(&w.cache_config());
    let prompt: Vec<u32> = (0..129).collect();
    ns_per_op(2000, || {
        let seq = Sequence::new(0, prompt.clone(), BLOCK_SIZE);
        let mut group = SequenceGroup::new("probe", seq, SamplingParams::greedy(APPENDS), 0.0);
        manager
            .allocate(&group)
            .expect("an empty pool fits one prompt");
        for token in 0..APPENDS {
            let seq = group.get_mut(0).expect("sequence 0 is in its group");
            seq.data.append_token(token as u32);
            manager.append_slot(seq).expect("a free block for the slot");
        }
        for child in 1..=FORKS {
            manager.fork(0, child).expect("parent has a block table");
        }
        for seq in 0..=FORKS {
            manager.free(seq).expect("table exists");
        }
        black_box(manager.take_pending());
    }) / ops as f64
}

/// Writes the traced pass as Chrome trace-event JSON (Perfetto-loadable):
/// one track per client with a root `request` span per call, one track per
/// replica with a span per `begin_step` and its kernels as children.
pub fn write_spans(
    w: &Workload,
    lists: &[Vec<Request>; CLIENTS],
    traced: &Pass,
    path: &std::path::Path,
) -> std::io::Result<()> {
    let mut tracks: Vec<(String, Vec<Span>)> = Vec::new();
    for (client, (list, samples)) in lists.iter().zip(&traced.samples).enumerate() {
        let spans = list
            .iter()
            .zip(samples)
            .enumerate()
            .map(|(index, (request, sample))| {
                let id = format!("{}/{client}/{index}", w.name);
                Span {
                    trace_id: trace_seed(&id),
                    span_id: 1,
                    parent_span_id: 0,
                    name: "request".to_string(),
                    start: sample.start,
                    end: sample.end,
                    attrs: vec![
                        ("id".to_string(), id),
                        ("kind".to_string(), format!("{:?}", request.kind)),
                        (
                            "server_request_id".to_string(),
                            sample
                                .reply
                                .as_ref()
                                .map_or("failed", |r| r.request_id.as_str())
                                .to_string(),
                        ),
                    ],
                }
            })
            .collect();
        tracks.push((format!("client{client}"), spans));
    }
    for (replica, steps) in traced.steps.iter().enumerate() {
        let mut spans = Vec::new();
        for (index, step) in steps.iter().enumerate() {
            // Step spans are process annotations (trace id 0): the client
            // never learns the server's request id, so a request is matched
            // to its steps by time window and the `requests` attribute.
            let span_id = (index as u64 + 1) << 8;
            spans.push(Span {
                trace_id: 0,
                span_id,
                parent_span_id: 0,
                name: if step.is_prompt_run {
                    "begin_step:prefill"
                } else {
                    "begin_step:decode"
                }
                .to_string(),
                start: step.start,
                end: step.end,
                attrs: vec![
                    ("tokens".to_string(), step.tokens.to_string()),
                    ("seqs".to_string(), step.seqs.to_string()),
                    (
                        "cache_op_blocks".to_string(),
                        step.cache_op_blocks.to_string(),
                    ),
                    ("requests".to_string(), step.request_ids.join(",")),
                ],
            });
            // Kernel timings are totals, not intervals: lay them end to end
            // from the step's start.
            let mut at = step.start;
            for (k, kernel) in step.kernels.iter().enumerate() {
                spans.push(Span {
                    trace_id: 0,
                    span_id: span_id + k as u64 + 1,
                    parent_span_id: span_id,
                    name: format!("kernel:{}", kernel.name),
                    start: at,
                    end: (at + kernel.seconds).min(step.end),
                    attrs: Vec::new(),
                });
                at = (at + kernel.seconds).min(step.end);
            }
        }
        tracks.push((format!("replica{replica}"), spans));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans_to_chrome_trace(&tracks).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_is_latency_minus_engine_busy_time() {
        let step = |start: f64, end: f64| StepSpan {
            start,
            end,
            is_prompt_run: false,
            tokens: 1,
            seqs: 1,
            prompt_tokens_computed: 0,
            kv_positions_read: 0,
            cache_op_blocks: 0,
            request_ids: Vec::new(),
            kernels: Vec::new(),
            bookkeeping_s: 0.0,
        };
        // Two replicas overlap on [2, 3]: counted once.
        let steps = [step(1.0, 3.0), step(2.0, 4.0), step(6.0, 7.0)];
        let busy = busy_intervals(&steps.iter().collect::<Vec<_>>());
        assert_eq!(busy, vec![(1.0, 4.0), (6.0, 7.0)]);
        assert_eq!(overlap(&busy, 0.0, 10.0), 4.0);
        assert_eq!(overlap(&busy, 3.5, 6.5), 1.0);
        assert_eq!(overlap(&busy, 4.5, 5.5), 0.0);
    }

    /// A real traced `--quick` pass of the small-model workload: the whole
    /// path from sockets to the per-layer catalogue.
    #[test]
    fn quick_traced_pass_fills_every_per_layer_metric() {
        let w = Workload::by_name("disagg_chat").unwrap();
        let lists = w.request_lists(42, true);
        let (pass, live) = crate::pass::run_pass(w, &lists, true);
        for sample in pass.samples.iter().flatten() {
            assert_eq!(sample.reply.as_ref().map(|r| r.outputs.len()), Ok(1));
        }
        assert_eq!(pass.steps.len(), 2, "one step log per replica");
        let sent = lists.iter().flatten().count() as f64;
        let mut metrics = per_layer(w, &lists, &pass, &live);
        metrics.set("telemetry.trace_overhead_share", 0.0);
        let _ = metrics.json(&crate::report::PER_LAYER); // panics on a gap
        assert!(metrics.get("cluster.handoffs").unwrap() > 0.0);
        assert!(metrics.get("cluster.tier_hit_share").unwrap() > 0.0);
        assert_eq!(metrics.get("core.preemptions"), Some(0.0));
        assert!(metrics.get("model.steps_prefill").unwrap() > 0.0);
        assert_eq!(identity_lines(&pass).len(), 2);

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test.spans.json");
        write_spans(w, &lists, &pass, &path).unwrap();
        let doc = vllm::core::telemetry::Json::parse(&std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let events = doc.unwrap();
        let events = events.get("traceEvents").unwrap().as_arr().unwrap();
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .count()
        };
        assert_eq!(named("request") as f64, sent);
        assert!(named("begin_step:prefill") > 0 && named("kernel:matmul") > 0);
    }
}
