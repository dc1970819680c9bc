//! Cluster routing bench: throughput scaling and cache-aware placement.
//!
//! Drives a shared-prefix-heavy trace (many requests extending one of a few
//! long system prompts) through [`Fleet`]s of simulated replicas (the
//! cost-model clock) and compares the routing policies against a
//! single-replica baseline:
//!
//! 1. Calibrate: saturate one replica to measure its capacity `C1` and p99
//!    normalized latency.
//! 2. Run a 4-replica cluster at an offered load of `3.6 * C1` under each
//!    policy (`round-robin`, `jsq`, `prefix-affinity`).
//!
//! A second comparison pits a disaggregated prefill/decode fleet against a
//! monolithic (unified) fleet of the same size under a ShareGPT-style
//! multi-turn chat trace: each conversation's later turns extend the full
//! earlier context, so the cluster-shared prefix tier serves the re-covered
//! KV from CPU memory instead of re-prefilling it.
//!
//! First it times the handoff codec on real wall clock, in interleaved
//! rounds: the binary round trip every disaggregated request pays
//! (`HandoffPayload::decode(&p.encode())`) against the hex edge of the
//! `HANDOFF` text line (`decode_wire(&p.encode_wire())`), on a small-model
//! (32 KB) and a base-model (64 KB) block, printed in µs per block.
//!
//! Writes per-policy throughput, prefix-cache hit rate, and latency
//! percentiles — plus the disaggregated-vs-monolithic records — to
//! `results/cluster.json`. With `--ci` the harness asserts the acceptance
//! criteria instead — every run delivers every request exactly once (none
//! lost, duplicated or rejected) and leaks no block, JSQ and
//! prefix-affinity sustain at least `3 * C1`
//! without exceeding the baseline's p99, prefix-affinity strictly beats
//! round-robin's cache hit rate, runs are deterministic, every routing
//! decision shows up in the merged telemetry, the disaggregated fleet
//! holds p99 TTFT at or below the monolithic fleet's at equal replica count
//! with a warm tier (hit rate above zero), every request that completed on
//! its first attempt sent exactly one replica message per phase (1 unified,
//! 2 prefill → decode), and the binary round trip is at
//! least 5× the hex edge on both blocks (median of paired rounds) —
//! writing its artifact under `target/ci-cluster/` and exiting non-zero on
//! any failure.

use std::fmt::Write as _;
use std::hint::black_box;

use vllm_bench::{best_ns, interleaved_rounds_ns, paired_speedup, Gates};
use vllm_cluster::{sim_replica, ClusterConfig, ClusterRequest, Fleet, FleetReport, RoutePolicy};
use vllm_core::telemetry::MetricsSnapshot;
use vllm_core::{Env, HandoffPayload, KvBlockBytes, PreemptionMode, TokenId};
use vllm_sim::{sim_prompt_tokens, ServerConfig, SimExecutor};

/// Distinct shared prefixes (system prompts) in the trace.
const NUM_PREFIXES: usize = 8;
/// Shared prefix length in tokens (three 16-token blocks).
const PREFIX_LEN: usize = 48;
/// Unique per-request suffix length in tokens.
const SUFFIX_LEN: usize = 32;
/// Scripted output length in tokens.
const OUTPUT_LEN: usize = 128;
/// Cluster size under test.
const REPLICAS: usize = 4;
/// Requests in the single-replica calibration run.
const CAL_REQUESTS: u64 = 192;
/// Requests in each cluster run.
const RUN_REQUESTS: u64 = 720;
/// Offered load relative to single-replica capacity for cluster runs.
const LOAD_FACTOR: f64 = 3.6;
/// Conversations in the multi-turn chat trace.
const CHAT_CONVS: u64 = 48;
/// Turns per conversation; turn `t+1`'s prompt extends turn `t`'s full
/// context so the shared prefix tier gets real continuation hits.
const CHAT_TURNS: u64 = 4;
/// Prefill replicas in the disaggregated fleet (decode gets the rest).
const PREFILL_REPLICAS: usize = 2;
/// Shared CPU prefix-tier capacity in KV blocks.
const TIER_BLOCKS: usize = 4096;
/// Offered chat load relative to single-replica capacity. Lower than
/// `LOAD_FACTOR`: chat turns carry whole conversations as prompt tokens.
const CHAT_LOAD_FACTOR: f64 = 2.0;

/// A fleet shaped by `cfg` of simulated OPT-13B replicas.
fn fleet(cfg: &ClusterConfig) -> Fleet<SimExecutor> {
    Fleet::new(cfg, || {
        let mut server = ServerConfig::opt_13b_1gpu();
        server.gpu.mem_bytes_per_gpu = 30e9; // Small KV pool: placement matters.
        sim_replica(server, 16, PreemptionMode::Recompute)
    })
}

fn prefixes() -> Vec<Vec<TokenId>> {
    (0..NUM_PREFIXES)
        .map(|p| sim_prompt_tokens(1_000 + p as u64, PREFIX_LEN))
        .collect()
}

/// A shared-prefix-heavy trace. The prefix index is decorrelated from the
/// request index (a plain `i % NUM_PREFIXES` would let round-robin placement
/// line up with the prefix cycle by accident).
fn trace(n: u64, rate: f64) -> Vec<ClusterRequest> {
    let prefixes = prefixes();
    (0..n)
        .map(|i| {
            let p = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % NUM_PREFIXES;
            let mut prompt = prefixes[p].clone();
            prompt.extend(sim_prompt_tokens(10_000 + i, SUFFIX_LEN));
            ClusterRequest {
                id: i,
                arrival: i as f64 / rate,
                prompt,
                output_len: OUTPUT_LEN,
            }
        })
        .collect()
}

/// Cheap decorrelating hash (Fibonacci multiplier, top bits).
fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33
}

/// ShareGPT-style multi-turn chat trace. Each conversation opens with a
/// prompt of mixed length; every later turn's prompt is the full prior
/// context (prompt + scripted reply + fresh user message), so turn `t+1`
/// re-covers turn `t`'s KV — the access pattern the cluster-shared prefix
/// tier exists for. Turns arrive turn-major (all first turns, then all
/// second turns, ...) so continuations land after their parents publish.
fn chat_trace(rate: f64) -> Vec<ClusterRequest> {
    let mut contexts: Vec<Vec<TokenId>> = (0..CHAT_CONVS)
        .map(|c| sim_prompt_tokens(20_000 + c, 32 + (mix(c) % 5) as usize * 16))
        .collect();
    let mut reqs = Vec::with_capacity((CHAT_CONVS * CHAT_TURNS) as usize);
    let mut i = 0u64;
    for t in 0..CHAT_TURNS {
        for c in 0..CHAT_CONVS {
            let output_len = 48 + (mix(c * 31 + t) % 4) as usize * 16;
            reqs.push(ClusterRequest {
                id: i,
                arrival: i as f64 / rate,
                prompt: contexts[c as usize].clone(),
                output_len,
            });
            // Grow the context for the next turn: a stand-in for the reply
            // (the sim scripts output lengths, not tokens) plus new input.
            // Only the prompt needs to extend the parent for a tier hit.
            let ctx = &mut contexts[c as usize];
            ctx.extend(sim_prompt_tokens(30_000 + i, output_len));
            ctx.extend(sim_prompt_tokens(
                40_000 + i,
                16 + (mix(i) % 3) as usize * 8,
            ));
            i += 1;
        }
    }
    reqs
}

/// Tokens per KV block in the timed handoffs.
const BLOCK_SIZE: usize = 16;
/// KV blocks per timed handoff (`disagg_chat` averages 4.4).
const CODEC_BLOCKS: usize = 4;
/// Interleaved timing rounds per codec cell.
const CODEC_ROUNDS: usize = 15;
/// The binary round trip must beat the hex edge by this much (median of
/// paired rounds).
const CODEC_GATE: f64 = 5.0;

/// One handoff codec measurement: µs per block (best round) of the binary
/// round trip (`decode(encode(·))`, what every disaggregated request pays)
/// and of the hex edge (`decode_wire(encode_wire(·))`, the `HANDOFF` text
/// line), and the median of their per-round ratio.
struct CodecTiming {
    model: &'static str,
    kb_per_block: usize,
    binary_us: f64,
    hex_us: f64,
    paired: f64,
}

/// Times the handoff codec on an f32 block of the small model (4 layers ×
/// hidden 64: 32 KB) and of `serve_bench`'s base model (2 × 256: 64 KB).
fn codec_timings() -> Vec<CodecTiming> {
    [("small", 4, 64), ("base", 2, 256)]
        .into_iter()
        .map(|(model, n_layers, hidden)| {
            let values = n_layers * BLOCK_SIZE * hidden;
            let payload = HandoffPayload {
                request_id: "req-0".into(),
                tokens: (0..(CODEC_BLOCKS * BLOCK_SIZE) as TokenId).collect(),
                first_token: Some(1),
                seed: 7,
                block_size: BLOCK_SIZE,
                blocks: (0..CODEC_BLOCKS)
                    .map(|b| KvBlockBytes::F32 {
                        k: (0..values).map(|i| (i + b) as f32 * 0.001).collect(),
                        v: (0..values).map(|i| (i + b) as f32 * -0.002).collect(),
                    })
                    .collect(),
            };
            let mut binary = || {
                let frame = black_box(&payload).encode();
                black_box(HandoffPayload::decode(&frame).expect("own frame decodes"));
            };
            let mut hex = || {
                let line = black_box(&payload).encode_wire();
                black_box(HandoffPayload::decode_wire(&line).expect("own line decodes"));
            };
            let rounds = interleaved_rounds_ns(&mut [&mut binary, &mut hex], 20, CODEC_ROUNDS);
            let per_block = |ns: &[f64]| best_ns(ns) / 1e3 / CODEC_BLOCKS as f64;
            CodecTiming {
                model,
                kb_per_block: payload.kv_bytes() / CODEC_BLOCKS / 1024,
                binary_us: per_block(&rounds[0]),
                hex_us: per_block(&rounds[1]),
                paired: paired_speedup(&rounds[1], &rounds[0]),
            }
        })
        .collect()
}

/// Runs the chat trace through a fleet built from `cfg` (monolithic or
/// disaggregated; both route with prefix affinity).
fn run_chat(cfg: &ClusterConfig, rate: f64) -> (FleetReport, MetricsSnapshot) {
    let mut fleet = fleet(cfg);
    let report = fleet.run(None, chat_trace(rate));
    (report, fleet.merged_snapshot())
}

/// Runs an `n`-replica fleet with the shared prefixes spread round-robin
/// across replicas (a single replica holds them all).
fn run_cluster(
    n: usize,
    policy: RoutePolicy,
    num_requests: u64,
    rate: f64,
) -> (FleetReport, MetricsSnapshot) {
    let mut fleet = fleet(&ClusterConfig::new(n).with_policy(policy));
    for (p, tokens) in prefixes().into_iter().enumerate() {
        fleet.register_prefix(p % n, &tokens);
    }
    let report = fleet.run(None, trace(num_requests, rate));
    (report, fleet.merged_snapshot())
}

fn report_json(r: &FleetReport, speedup: f64) -> String {
    let routed: Vec<String> = r.router.routed.iter().map(u64::to_string).collect();
    format!(
        concat!(
            "{{\"policy\":\"{}\",\"throughput\":{:.4},\"speedup\":{:.3},",
            "\"norm_lat_p50\":{:.6},\"norm_lat_p99\":{:.6},",
            "\"cache_hit_rate\":{:.4},\"affinity_hits\":{},\"failovers\":{},",
            "\"routed_per_replica\":[{}]}}"
        ),
        r.policy,
        r.throughput,
        speedup,
        r.norm_lat_p50,
        r.norm_lat_p99,
        r.cache_hit_rate,
        r.router.affinity_hits,
        r.router.failovers,
        routed.join(",")
    )
}

/// A chat-trace run's fleet: monolithic or disaggregated.
fn mode(r: &FleetReport) -> &'static str {
    ["monolithic", "disaggregated"][usize::from(r.disaggregated)]
}

/// JSON record for one chat-trace run.
fn chat_report_json(r: &FleetReport) -> String {
    format!(
        concat!(
            "{{\"mode\":\"{}\",\"throughput\":{:.4},",
            "\"ttft_p50\":{:.6},\"ttft_p99\":{:.6},",
            "\"norm_lat_p99\":{:.6},\"handoffs\":{},\"handoff_blocks\":{},",
            "\"tier_hits\":{},\"tier_misses\":{},\"tier_hit_rate\":{:.4},",
            "\"num_finished\":{}}}"
        ),
        mode(r),
        r.throughput,
        r.ttft_p50,
        r.ttft_p99,
        r.norm_lat_p99,
        r.handoffs,
        r.handoff_blocks,
        r.tier_hits,
        r.tier_misses,
        r.tier_hit_rate,
        r.completed
    )
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    let codec = codec_timings();
    for c in &codec {
        println!(
            "handoff codec, {} model ({} KB block): binary round trip {:.1} us/block, hex edge {:.1} us/block ({:.1}x paired)",
            c.model, c.kb_per_block, c.binary_us, c.hex_us, c.paired
        );
    }

    // Calibrate one replica at saturation.
    let (single, _) = run_cluster(1, RoutePolicy::RoundRobin, CAL_REQUESTS, 50.0);
    let c1 = single.throughput;
    let rate = LOAD_FACTOR * c1;
    println!(
        "single replica: {:.2} req/s (p99 norm lat {:.4} s/tok); cluster offered load {:.2} req/s",
        c1, single.norm_lat_p99, rate
    );

    let policies = [
        RoutePolicy::RoundRobin,
        RoutePolicy::JoinShortestQueue,
        RoutePolicy::PrefixAffinity,
    ];
    let runs: Vec<(FleetReport, MetricsSnapshot)> = policies
        .iter()
        .map(|&p| run_cluster(REPLICAS, p, RUN_REQUESTS, rate))
        .collect();
    for (r, _) in &runs {
        println!(
            "{:>15}: {:.2} req/s ({:.2}x single), p99 norm lat {:.4}, cache hit rate {:.0}%, routed {:?}",
            r.policy,
            r.throughput,
            r.throughput / c1,
            r.norm_lat_p99,
            100.0 * r.cache_hit_rate,
            r.router.routed
        );
    }

    // Disaggregated vs monolithic at equal replica count under the
    // multi-turn chat trace. Prefill replicas only ever run prompt-phase
    // stubs, so first tokens never queue behind decode batches; the shared
    // tier turns continuation turns into CPU-side installs.
    let chat_rate = CHAT_LOAD_FACTOR * c1;
    let (mono, _) = run_chat(&ClusterConfig::new(REPLICAS), chat_rate);
    let (disagg, disagg_snap) = run_chat(
        &ClusterConfig::disaggregated(PREFILL_REPLICAS, REPLICAS - PREFILL_REPLICAS)
            .with_prefix_tier_blocks(TIER_BLOCKS),
        chat_rate,
    );
    for r in [&mono, &disagg] {
        println!(
            "{:>15}: {:.2} req/s, ttft p50 {:.3}s p99 {:.3}s, handoffs {}, tier hit rate {:.0}%, replica messages per request {:?}",
            mode(r),
            r.throughput,
            r.ttft_p50,
            r.ttft_p99,
            r.handoffs,
            100.0 * r.tier_hit_rate,
            r.replica_messages
        );
    }

    // JSON artifact. The backend field records which kernel backend the
    // environment selects for real serving runs alongside these sim numbers.
    let backend = Env::global().kernel_backend.name();
    let mut json = String::new();
    write!(
        json,
        "{{\"backend\":\"{backend}\",\"num_replicas\":{REPLICAS},\"offered_rate\":{rate:.4},\"single\":{},\"policies\":[",
        report_json(&single, 1.0)
    )
    .unwrap();
    for (i, (r, _)) in runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&report_json(r, r.throughput / c1));
    }
    json.push_str("],");
    write!(
        json,
        concat!(
            "\"disaggregated\":{{\"num_replicas\":{},\"prefill_replicas\":{},",
            "\"tier_blocks\":{},\"offered_rate\":{:.4},\"runs\":[{},{}]}}}}"
        ),
        REPLICAS,
        PREFILL_REPLICAS,
        TIER_BLOCKS,
        chat_rate,
        chat_report_json(&mono),
        chat_report_json(&disagg)
    )
    .unwrap();
    let dir = if ci { "target/ci-cluster" } else { "results" };
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/cluster.json");
    std::fs::write(&path, json + "\n").expect("write artifact");
    println!("wrote {path}");

    if !ci {
        return;
    }

    let mut gates = Gates::default();
    let mut check = |ok: bool, what: &str| gates.check(ok, what);

    for c in &codec {
        check(
            c.paired >= CODEC_GATE,
            &format!(
                "{} model: binary handoff round trip is {:.2}x the hex edge (median of {CODEC_ROUNDS} paired rounds), below the {CODEC_GATE}x gate",
                c.model, c.paired
            ),
        );
    }

    let rr = &runs[0].0;
    for (r, _) in &runs[1..] {
        check(
            r.throughput >= 3.0 * c1,
            &format!(
                "{} throughput {:.2} < 3x single ({:.2})",
                r.policy,
                r.throughput,
                3.0 * c1
            ),
        );
        check(
            r.norm_lat_p99 <= single.norm_lat_p99,
            &format!(
                "{} p99 norm lat {:.4} exceeds single baseline {:.4}",
                r.policy, r.norm_lat_p99, single.norm_lat_p99
            ),
        );
    }
    let affinity = &runs[2].0;
    check(
        affinity.cache_hit_rate > rr.cache_hit_rate,
        &format!(
            "prefix-affinity hit rate {:.3} not above round-robin {:.3}",
            affinity.cache_hit_rate, rr.cache_hit_rate
        ),
    );

    // Disaggregated serving gates: at equal hardware the split fleet must
    // hold first-token latency at or below the monolithic fleet's, with the
    // shared tier actually serving continuations (warm, not decorative).
    check(
        disagg.ttft_p99 <= mono.ttft_p99,
        &format!(
            "disaggregated p99 TTFT {:.4}s exceeds monolithic {:.4}s at equal replica count",
            disagg.ttft_p99, mono.ttft_p99
        ),
    );
    check(
        disagg.tier_hit_rate > 0.0,
        "prefix tier saw no hits under the multi-turn chat trace",
    );
    check(
        disagg.handoffs > 0,
        "disaggregated run recorded no handoffs",
    );
    check(
        disagg_snap.counter("vllm_cluster_handoffs_total") == Some(disagg.handoffs),
        "handoff counter disagrees with report",
    );
    check(
        disagg_snap
            .counter("vllm_cluster_handoff_tier_installs_total")
            .unwrap_or(0)
            > 0,
        "tier hits produced no KV installs on routed replicas",
    );

    // Determinism: identical trace + policy => identical placements.
    let (again, _) = run_cluster(REPLICAS, RoutePolicy::JoinShortestQueue, RUN_REQUESTS, rate);
    check(
        again.assignments == runs[1].0.assignments,
        "JSQ placements differ between identical runs",
    );

    // Every run delivers every request exactly once and leaks nothing.
    let all = [
        &single, &runs[0].0, &runs[1].0, &runs[2].0, &mono, &disagg, &again,
    ];
    for (r, run) in all.into_iter().zip([
        "single",
        "rr",
        "jsq",
        "affinity",
        "chat",
        "disagg",
        "jsq again",
    ]) {
        check(
            r.completed == r.num_requests
                && (r.lost, r.duplicates, r.rejected, r.leaked_blocks) == (0, 0, 0, 0),
            &format!(
                "{run}: {}/{} requests finished, {} lost, {} duplicated, {} rejected, {} blocks leaked",
                r.completed, r.num_requests, r.lost, r.duplicates, r.rejected, r.leaked_blocks
            ),
        );
    }

    // The mechanism, by count: a request that completed on its first
    // attempt sent one replica message per phase — its install, export and
    // admission ride the submissions.
    for (r, run) in [
        (&mono, "chat"),
        (&disagg, "disagg"),
        (&runs[2].0, "affinity"),
    ] {
        let off: Vec<_> = (r.replica_messages.iter())
            .filter(|(&(two_phase, messages), _)| messages != 1 + u32::from(two_phase))
            .collect();
        check(
            off.is_empty() && !r.replica_messages.is_empty(),
            &format!("{run}: replica messages per first-attempt request {off:?}, want 1 unified / 2 two-phase"),
        );
    }
    check(
        disagg.replica_messages.get(&(true, 2)) == Some(&disagg.completed),
        "disagg: not every request completed as a two-phase request in two messages",
    );

    // Every routing decision lands in the merged telemetry, losslessly in
    // both expositions.
    for (r, snap) in &runs {
        check(
            snap.counter("vllm_cluster_requests_routed_total") == Some(RUN_REQUESTS),
            &format!("{}: routed counter misses requests", r.policy),
        );
        let per_replica: u64 = (0..REPLICAS)
            .map(|i| {
                snap.counter(&format!(
                    "vllm_cluster_replica_routed_total{{replica=\"{i}\"}}"
                ))
                .unwrap_or(0)
            })
            .sum();
        check(
            per_replica == RUN_REQUESTS,
            &format!(
                "{}: per-replica routed counters sum to {per_replica}",
                r.policy
            ),
        );
        check(
            snap.counter("vllm_cluster_affinity_hits_total") == Some(r.router.affinity_hits),
            &format!("{}: affinity counter disagrees with report", r.policy),
        );
        let text = MetricsSnapshot::from_prometheus_text(&snap.to_prometheus_text());
        let json = MetricsSnapshot::from_json(&snap.to_json());
        for (parsed, expo) in [(text, "text exposition"), (json, "JSON")] {
            check(
                parsed.is_ok_and(|rt| &rt == snap),
                &format!("{}: {expo} fails to parse or round-trip", r.policy),
            );
        }
    }

    gates.finish("cluster CI check");
    println!(
        "cluster CI check OK: jsq {:.2}x, prefix-affinity {:.2}x single throughput, hit rate {:.0}% vs {:.0}%",
        runs[1].0.throughput / c1,
        affinity.throughput / c1,
        100.0 * affinity.cache_hit_rate,
        100.0 * rr.cache_hit_rate
    );
    println!(
        "disaggregated CI check OK: p99 TTFT {:.3}s vs monolithic {:.3}s, tier hit rate {:.0}%",
        disagg.ttft_p99,
        mono.ttft_p99,
        100.0 * disagg.tier_hit_rate
    );
}
