//! Cluster routing bench: throughput scaling and cache-aware placement.
//!
//! Drives a shared-prefix-heavy trace (many requests extending one of a few
//! long system prompts) through [`ClusterSystem`] fleets and compares the
//! routing policies against a single-replica baseline:
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
//! Writes per-policy throughput, prefix-cache hit rate, and latency
//! percentiles — plus the disaggregated-vs-monolithic records — to
//! `results/cluster.json`. With `--ci` the harness asserts the acceptance
//! criteria instead — JSQ and prefix-affinity sustain at least `3 * C1`
//! without exceeding the baseline's p99, prefix-affinity strictly beats
//! round-robin's cache hit rate, runs are deterministic, every routing
//! decision shows up in the merged telemetry, and the disaggregated fleet
//! holds p99 TTFT at or below the monolithic fleet's at equal replica count
//! with a warm tier (hit rate above zero) — writing its artifact under
//! `target/ci-cluster/` and exiting non-zero on any failure.

use std::fmt::Write as _;

use vllm_cluster::{
    ClusterConfig, ClusterReport, ClusterRequest, ClusterSystem, RoutePolicy, RouterConfig,
};
use vllm_core::telemetry::MetricsSnapshot;
use vllm_core::{PreemptionMode, TokenId};
use vllm_model::BackendKind;
use vllm_sim::{sim_prompt_tokens, ServerConfig, VllmSimSystem};

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

fn replica() -> VllmSimSystem {
    let mut cfg = ServerConfig::opt_13b_1gpu();
    cfg.gpu.mem_bytes_per_gpu = 30e9; // Small KV pool: placement matters.
    VllmSimSystem::new(cfg, 16, PreemptionMode::Recompute)
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

/// Runs the chat trace through a fleet built from `cfg` (monolithic or
/// disaggregated; both route with prefix affinity).
fn run_chat(cfg: ClusterConfig, rate: f64) -> (ClusterReport, MetricsSnapshot) {
    let n = cfg.num_replicas();
    let mut cluster = ClusterSystem::with_config((0..n).map(|_| replica()).collect(), cfg);
    let report = cluster.run(chat_trace(rate));
    let snap = cluster.merged_snapshot();
    (report, snap)
}

/// Builds an `n`-replica cluster with the shared prefixes spread round-robin
/// across replicas (a single replica holds them all).
fn build_cluster(n: usize, policy: RoutePolicy) -> ClusterSystem {
    let mut cluster = ClusterSystem::new(
        (0..n).map(|_| replica()).collect(),
        RouterConfig::new(policy),
    );
    for (p, tokens) in prefixes().into_iter().enumerate() {
        cluster.register_prefix(p % n, &tokens);
    }
    cluster
}

fn run_cluster(
    n: usize,
    policy: RoutePolicy,
    num_requests: u64,
    rate: f64,
) -> (ClusterReport, MetricsSnapshot) {
    let mut cluster = build_cluster(n, policy);
    let report = cluster.run(trace(num_requests, rate));
    (report, cluster.merged_snapshot())
}

fn report_json(r: &ClusterReport, speedup: f64) -> String {
    let routed: Vec<String> = r.routed_per_replica.iter().map(u64::to_string).collect();
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
        r.affinity_hits,
        r.failovers,
        routed.join(",")
    )
}

/// JSON record for one chat-trace run (monolithic or disaggregated).
fn chat_report_json(r: &ClusterReport) -> String {
    format!(
        concat!(
            "{{\"mode\":\"{}\",\"throughput\":{:.4},",
            "\"ttft_p50\":{:.6},\"ttft_p99\":{:.6},",
            "\"norm_lat_p99\":{:.6},\"handoffs\":{},\"handoff_blocks\":{},",
            "\"tier_hits\":{},\"tier_misses\":{},\"tier_hit_rate\":{:.4},",
            "\"num_finished\":{}}}"
        ),
        if r.disaggregated {
            "disaggregated"
        } else {
            "monolithic"
        },
        r.throughput,
        r.ttft_p50,
        r.ttft_p99,
        r.norm_lat_p99,
        r.handoffs,
        r.handoff_blocks,
        r.tier_hits,
        r.tier_misses,
        r.tier_hit_rate,
        r.num_finished
    )
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

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
    let runs: Vec<(ClusterReport, MetricsSnapshot)> = policies
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
            r.routed_per_replica
        );
    }

    // Disaggregated vs monolithic at equal replica count under the
    // multi-turn chat trace. Prefill replicas only ever run prompt-phase
    // stubs, so first tokens never queue behind decode batches; the shared
    // tier turns continuation turns into CPU-side installs.
    let chat_rate = CHAT_LOAD_FACTOR * c1;
    let (mono, _) = run_chat(ClusterConfig::new(REPLICAS), chat_rate);
    let (disagg, disagg_snap) = run_chat(
        ClusterConfig::disaggregated(PREFILL_REPLICAS, REPLICAS - PREFILL_REPLICAS)
            .with_prefix_tier_blocks(TIER_BLOCKS),
        chat_rate,
    );
    for r in [&mono, &disagg] {
        println!(
            "{:>15}: {:.2} req/s, ttft p50 {:.3}s p99 {:.3}s, handoffs {}, tier hit rate {:.0}%",
            if r.disaggregated {
                "disaggregated"
            } else {
                "monolithic"
            },
            r.throughput,
            r.ttft_p50,
            r.ttft_p99,
            r.handoffs,
            100.0 * r.tier_hit_rate
        );
    }

    // JSON artifact. The backend field records which kernel backend the
    // environment selects for real serving runs alongside these sim numbers.
    let backend = BackendKind::from_env().name();
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

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures += 1;
        }
    };

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
    for (r, _) in std::iter::once(&(single.clone(), runs[0].1.clone())).chain(runs.iter()) {
        check(
            r.num_finished == r.num_requests,
            &format!(
                "{}: {}/{} requests finished",
                r.policy, r.num_finished, r.num_requests
            ),
        );
    }

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
    for r in [&mono, &disagg] {
        check(
            r.num_finished == r.num_requests,
            &format!(
                "chat trace ({}): {}/{} requests finished",
                if r.disaggregated {
                    "disaggregated"
                } else {
                    "monolithic"
                },
                r.num_finished,
                r.num_requests
            ),
        );
    }
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
            snap.counter("vllm_cluster_affinity_hits_total") == Some(r.affinity_hits),
            &format!("{}: affinity counter disagrees with report", r.policy),
        );
        match MetricsSnapshot::from_prometheus_text(&snap.to_prometheus_text()) {
            Ok(rt) => check(
                &rt == snap,
                &format!(
                    "{}: text exposition round-trip changed the snapshot",
                    r.policy
                ),
            ),
            Err(e) => check(
                false,
                &format!("{}: text exposition failed to parse: {e}", r.policy),
            ),
        }
        match MetricsSnapshot::from_json(&snap.to_json()) {
            Ok(rt) => check(
                &rt == snap,
                &format!("{}: JSON round-trip changed the snapshot", r.policy),
            ),
            Err(e) => check(false, &format!("{}: JSON failed to parse: {e}", r.policy)),
        }
    }

    if failures > 0 {
        eprintln!("cluster CI check: {failures} failure(s)");
        std::process::exit(1);
    }
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
