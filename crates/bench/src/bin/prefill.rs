//! Chunked-prefill benchmark: scheduler-budgeted prefill admission
//! (`VLLM_STEP_TOKEN_BUDGET`) against the all-or-nothing baseline.
//!
//! Three sections:
//!
//! * **mixed** — a mixed long/short trace (10% of requests carry 4k-token
//!   prompts) replayed through the simulated engine, unchunked vs chunked
//!   at several step budgets. Records mean/p99 TTFT and generation
//!   throughput; the CI gate requires chunked p99 TTFT to improve while
//!   throughput stays within tolerance ("equal throughput").
//! * **bit_identity** — the real CPU engine on every kernel backend
//!   (scalar / simd / quant-kv8): greedy outputs and cumulative logprobs
//!   must be *bit-identical* between chunked and unchunked runs (the
//!   k-only accumulation-order contract of the prefill kernels).
//! * **smoke32k** — a 32k-token synthetic long-context prompt streamed
//!   through the simulated engine in 2k chunks: must complete end-to-end
//!   with the expected chunk count and block-table depth, leaking nothing.
//!
//! Results go to `results/prefill.json` and `BENCH_prefill.json` (JSON
//! lines). With `--ci` the gates are asserted and the artifact is copied
//! under `target/ci-prefill/`, exiting non-zero on failure.

use std::fmt::Write as _;

use vllm_baselines::types::BatchSystem;
use vllm_bench::{append_trajectory, repo_root};
use vllm_core::config::{CacheConfig, PreemptionMode, SchedulerConfig};
use vllm_core::engine::{LlmEngine, RequestOutput};
use vllm_core::sampling::SamplingParams;
use vllm_model::backend::BackendKind;
use vllm_model::config::ModelConfig;
use vllm_model::executor::CpuModelExecutor;
use vllm_sim::{ServerConfig, VllmSimSystem, ACTIVATION_RESERVE_FRACTION};
use vllm_workloads::{long_context_prompt, synthesize_mixed_trace, Trace, LONG_CONTEXT_PROMPT_LEN};

/// Paged block size (tokens per KV block).
const BLOCK_SIZE: usize = 16;
/// Vocabulary for synthetic sim prompts.
const SIM_VOCAB: u32 = 50_000;
/// Mixed-trace shape: offered rate, request count, long fraction/length,
/// short prompt bounds, scripted output length.
const MIXED_RATE: f64 = 3.0;
const MIXED_REQUESTS: usize = 240;
const LONG_FRACTION: f64 = 0.1;
const LONG_PROMPT: usize = 4096;
const SHORT_MIN: usize = 16;
const SHORT_MAX: usize = 128;
const OUTPUT_LEN: usize = 32;
const TRACE_SEED: u64 = 42;
/// Step budgets swept in the mixed section; the CI gate reads the middle.
const BUDGETS: [usize; 3] = [256, 512, 1024];
/// CI gate: overall chunked p99 TTFT must be at most this fraction of
/// unchunked (the tail is dominated by the long prompts' own prefill time,
/// so "no regression" is the meaningful bound here).
const TTFT_GATE: f64 = 1.0;
/// CI gate: short-request p99 TTFT must be at most this fraction of
/// unchunked — the headline win of chunked prefill is that short requests
/// stop queueing behind multi-second monolithic prefills.
const SHORT_TTFT_GATE: f64 = 0.5;
/// CI gate: chunked throughput must be at least this fraction of unchunked.
const THROUGHPUT_GATE: f64 = 0.9;
/// Chunk budget for the 32k smoke.
const SMOKE_BUDGET: usize = 2048;
/// Output tokens for the 32k smoke.
const SMOKE_OUTPUT: usize = 16;

/// An OPT-13B-shaped server stretched for long contexts: `max_len` model
/// context and memory solved so the KV budget holds `kv_slots` tokens.
fn long_context_server(max_len: usize, kv_slots: usize) -> ServerConfig {
    let mut cfg = ServerConfig::opt_13b_1gpu();
    cfg.model.max_len = max_len;
    cfg.gpu.mem_bytes_per_gpu = (kv_slots as f64 * cfg.model.kv_bytes_per_token()
        + cfg.model.weight_bytes())
        / (1.0 - ACTIVATION_RESERVE_FRACTION);
    cfg
}

/// Replays `trace` through a simulated engine, enqueuing requests as the
/// virtual clock passes their arrivals, and returns every finished request
/// (with first-token timestamps).
fn drive_trace(sys: &mut VllmSimSystem, trace: &Trace) -> Vec<RequestOutput> {
    let e = sys.engine_mut();
    let mut outs = Vec::new();
    let mut next = 0usize;
    while next < trace.requests.len() || e.has_unfinished() {
        if !e.has_unfinished() {
            e.advance_clock_to(trace.requests[next].arrival);
        }
        while next < trace.requests.len() && trace.requests[next].arrival <= e.clock() {
            let r = &trace.requests[next];
            e.add_request_at(
                r.id.to_string(),
                r.prompt_tokens(SIM_VOCAB),
                SamplingParams::greedy(r.output_len)
                    .with_ignore_eos()
                    .with_seed(r.id),
                r.arrival,
            )
            .expect("valid request");
            next += 1;
        }
        outs.extend(e.step().expect("engine step"));
    }
    outs
}

/// TTFT and throughput summary of one mixed-trace run.
struct MixedRow {
    system: String,
    budget: Option<usize>,
    mean_ttft: f64,
    p99_ttft: f64,
    p99_short_ttft: f64,
    throughput: f64,
    preemptions: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn run_mixed(budget: Option<usize>, trace: &Trace) -> MixedRow {
    let server = long_context_server(8192, 40_000);
    let mut sys = VllmSimSystem::new(server, BLOCK_SIZE, PreemptionMode::Recompute);
    if let Some(b) = budget {
        sys = sys.with_chunked_prefill(b);
    }
    let outs = drive_trace(&mut sys, trace);
    assert_eq!(outs.len(), trace.requests.len(), "all requests finish");

    let ttft = |o: &RequestOutput| o.first_token_time.expect("finished") - o.arrival_time;
    let mut all: Vec<f64> = outs.iter().map(ttft).collect();
    let mut short: Vec<f64> = outs
        .iter()
        .filter(|o| o.prompt_len < LONG_PROMPT)
        .map(ttft)
        .collect();
    all.sort_by(f64::total_cmp);
    short.sort_by(f64::total_cmp);
    let makespan = outs.iter().map(|o| o.finish_time).fold(0.0, f64::max);
    let tokens: usize = outs.iter().map(|o| o.mean_output_len() as usize).sum();
    MixedRow {
        system: sys.name(),
        budget,
        mean_ttft: all.iter().sum::<f64>() / all.len() as f64,
        p99_ttft: percentile(&all, 0.99),
        p99_short_ttft: percentile(&short, 0.99),
        throughput: tokens as f64 / makespan,
        preemptions: sys.engine().scheduler().stats().num_preemptions,
    }
}

/// One backend's chunked-vs-unchunked comparison on the real CPU engine.
struct IdentityRow {
    backend: &'static str,
    budget: usize,
    identical: bool,
}

fn run_engine(kind: BackendKind, budget: Option<usize>) -> Vec<RequestOutput> {
    let cache = CacheConfig::new(4, 128, 128).expect("cache config");
    let sched = SchedulerConfig::new(512, 32, 512).expect("scheduler config");
    let mut mc = ModelConfig::tiny();
    mc.backend = kind;
    let exec = CpuModelExecutor::from_config(mc, &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    e.set_step_token_budget(budget);
    // A long prompt that chunks unevenly plus a short one arriving just
    // behind it, so chunks co-batch with the short request's decodes.
    let long: Vec<u32> = (0..23u32).map(|i| (i * 7 + 3) % 128).collect();
    let short: Vec<u32> = (0..6u32).map(|i| (i * 11 + 5) % 128).collect();
    e.add_request("long", long, SamplingParams::greedy(8))
        .expect("add long");
    e.add_request_at("short", short, SamplingParams::greedy(8), 1e-6)
        .expect("add short");
    let mut outs = e.run_to_completion().expect("run");
    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    outs
}

fn bit_identical(kind: BackendKind, budget: usize) -> bool {
    let base = run_engine(kind, None);
    let chunked = run_engine(kind, Some(budget));
    base.len() == chunked.len()
        && base.iter().zip(&chunked).all(|(a, b)| {
            a.request_id == b.request_id
                && a.outputs.len() == b.outputs.len()
                && a.outputs.iter().zip(&b.outputs).all(|(x, y)| {
                    x.tokens == y.tokens
                        && x.cumulative_logprob.to_bits() == y.cumulative_logprob.to_bits()
                })
        })
}

/// 32k-prompt smoke result.
struct SmokeRow {
    prompt_tokens: usize,
    chunk_steps: usize,
    peak_blocks: usize,
    leaked_blocks: usize,
    output_tokens: usize,
}

fn run_smoke() -> SmokeRow {
    let server = long_context_server(LONG_CONTEXT_PROMPT_LEN + 256, 40_000);
    let mut sys = VllmSimSystem::new(server, BLOCK_SIZE, PreemptionMode::Recompute)
        .with_chunked_prefill(SMOKE_BUDGET);
    let e = sys.engine_mut();
    e.add_request(
        "long32k",
        long_context_prompt(7, LONG_CONTEXT_PROMPT_LEN, SIM_VOCAB),
        SamplingParams::greedy(SMOKE_OUTPUT).with_ignore_eos(),
    )
    .expect("add 32k request");
    let mut chunk_steps = 0usize;
    let mut peak_blocks = 0usize;
    let mut outs = Vec::new();
    while e.has_unfinished() {
        outs.extend(e.step().expect("engine step"));
        if !e.executor().last_work.prefill_tokens.is_empty() {
            chunk_steps += 1;
        }
        let bm = e.scheduler().block_manager();
        peak_blocks = peak_blocks.max(bm.num_allocated_gpu_blocks());
    }
    let bm = e.scheduler().block_manager();
    SmokeRow {
        prompt_tokens: LONG_CONTEXT_PROMPT_LEN,
        chunk_steps,
        peak_blocks,
        leaked_blocks: bm.num_total_gpu_blocks() - bm.num_free_gpu_blocks(),
        output_tokens: outs
            .first()
            .map_or(0, |o| o.outputs.first().map_or(0, |c| c.tokens.len())),
    }
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    let mut lines = String::new();

    // Section 1: mixed long/short TTFT.
    let trace = synthesize_mixed_trace(
        MIXED_RATE,
        MIXED_REQUESTS,
        LONG_FRACTION,
        LONG_PROMPT,
        SHORT_MIN..=SHORT_MAX,
        OUTPUT_LEN,
        TRACE_SEED,
    );
    println!("== mixed long/short traffic: {MIXED_REQUESTS} requests at {MIXED_RATE}/s, {:.0}% x {LONG_PROMPT}-token prompts ==", LONG_FRACTION * 100.0);
    println!(
        "  {:<18} {:>8} {:>12} {:>12} {:>14} {:>12} {:>9}",
        "system", "budget", "mean-ttft", "p99-ttft", "p99-short-ttft", "tput(tok/s)", "preempt"
    );
    let mut mixed: Vec<MixedRow> = Vec::new();
    let baseline = run_mixed(None, &trace);
    for row in std::iter::once(baseline).chain(BUDGETS.iter().map(|&b| run_mixed(Some(b), &trace)))
    {
        println!(
            "  {:<18} {:>8} {:>12.4} {:>12.4} {:>14.4} {:>12.2} {:>9}",
            row.system,
            row.budget.map_or("-".to_string(), |b| b.to_string()),
            row.mean_ttft,
            row.p99_ttft,
            row.p99_short_ttft,
            row.throughput,
            row.preemptions
        );
        writeln!(
            lines,
            concat!(
                "{{\"section\":\"mixed\",\"system\":\"{}\",\"budget\":{},",
                "\"mean_ttft_s\":{:.6},\"p99_ttft_s\":{:.6},",
                "\"p99_short_ttft_s\":{:.6},\"throughput_tok_s\":{:.3},",
                "\"preemptions\":{}}}"
            ),
            row.system,
            row.budget.map_or("null".to_string(), |b| b.to_string()),
            row.mean_ttft,
            row.p99_ttft,
            row.p99_short_ttft,
            row.throughput,
            row.preemptions
        )
        .unwrap();
        mixed.push(row);
    }

    // Section 2: chunked/unchunked bit identity on the real engine.
    println!("\n== greedy bit-identity: chunked vs unchunked, per backend ==");
    let mut identities: Vec<IdentityRow> = Vec::new();
    for kind in [
        BackendKind::Scalar,
        BackendKind::Simd,
        BackendKind::QuantKv8,
    ] {
        for budget in [5usize, 16] {
            let ok = bit_identical(kind, budget);
            println!(
                "  {:<10} budget {:>3}: {}",
                kind.name(),
                budget,
                if ok { "identical" } else { "DIVERGED" }
            );
            writeln!(
                lines,
                "{{\"section\":\"bit_identity\",\"backend\":\"{}\",\"budget\":{},\"identical\":{}}}",
                kind.name(),
                budget,
                ok
            )
            .unwrap();
            identities.push(IdentityRow {
                backend: kind.name(),
                budget,
                identical: ok,
            });
        }
    }

    // Section 3: 32k long-context smoke.
    let smoke = run_smoke();
    println!(
        "\n== 32k smoke: {} prompt tokens in {} chunks, peak {} blocks, {} leaked, {} output tokens ==",
        smoke.prompt_tokens, smoke.chunk_steps, smoke.peak_blocks, smoke.leaked_blocks, smoke.output_tokens
    );
    writeln!(
        lines,
        concat!(
            "{{\"section\":\"smoke32k\",\"prompt_tokens\":{},\"chunk_steps\":{},",
            "\"peak_blocks\":{},\"leaked_blocks\":{},\"output_tokens\":{}}}"
        ),
        smoke.prompt_tokens,
        smoke.chunk_steps,
        smoke.peak_blocks,
        smoke.leaked_blocks,
        smoke.output_tokens
    )
    .unwrap();

    let root = repo_root();
    std::fs::create_dir_all(root.join("results")).expect("create results dir");
    std::fs::write(root.join("results/prefill.json"), &lines).expect("write results/prefill.json");
    // `results/` holds the latest run, `BENCH_prefill.json` the trajectory.
    let records: Vec<String> = lines.lines().map(str::to_string).collect();
    let appended = append_trajectory("BENCH_prefill.json", &records).len();
    println!("wrote results/prefill.json, appended {appended} records to BENCH_prefill.json");
    if ci {
        std::fs::create_dir_all(root.join("target/ci-prefill")).expect("create ci dir");
        std::fs::write(root.join("target/ci-prefill/prefill.json"), &lines)
            .expect("write ci artifact");
    }

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

    let base = &mixed[0];
    let gated = mixed
        .iter()
        .find(|r| r.budget == Some(BUDGETS[1]))
        .expect("gated budget row");
    check(
        gated.p99_ttft <= base.p99_ttft * TTFT_GATE,
        &format!(
            "p99 TTFT regressed: chunked {:.4}s vs unchunked {:.4}s (gate {:.0}%)",
            gated.p99_ttft,
            base.p99_ttft,
            TTFT_GATE * 100.0
        ),
    );
    check(
        gated.p99_short_ttft <= base.p99_short_ttft * SHORT_TTFT_GATE,
        &format!(
            "short-request p99 TTFT not improved: chunked {:.4}s vs unchunked {:.4}s (gate {:.0}%)",
            gated.p99_short_ttft,
            base.p99_short_ttft,
            SHORT_TTFT_GATE * 100.0
        ),
    );
    check(
        gated.throughput >= base.throughput * THROUGHPUT_GATE,
        &format!(
            "throughput not preserved: chunked {:.2} vs unchunked {:.2} tok/s (gate {:.0}%)",
            gated.throughput,
            base.throughput,
            THROUGHPUT_GATE * 100.0
        ),
    );

    for id in &identities {
        check(
            id.identical,
            &format!(
                "backend {} budget {}: chunked outputs diverge from unchunked",
                id.backend, id.budget
            ),
        );
    }

    check(
        smoke.chunk_steps == LONG_CONTEXT_PROMPT_LEN.div_ceil(SMOKE_BUDGET),
        &format!(
            "32k smoke: {} chunk steps, expected {}",
            smoke.chunk_steps,
            LONG_CONTEXT_PROMPT_LEN.div_ceil(SMOKE_BUDGET)
        ),
    );
    check(
        smoke.peak_blocks >= (LONG_CONTEXT_PROMPT_LEN + SMOKE_OUTPUT).div_ceil(BLOCK_SIZE),
        &format!(
            "32k smoke: peak block-table depth {} below prompt residency {}",
            smoke.peak_blocks,
            (LONG_CONTEXT_PROMPT_LEN + SMOKE_OUTPUT).div_ceil(BLOCK_SIZE)
        ),
    );
    check(
        smoke.leaked_blocks == 0,
        &format!("32k smoke: {} blocks leaked", smoke.leaked_blocks),
    );
    check(
        smoke.output_tokens == SMOKE_OUTPUT,
        &format!(
            "32k smoke: {} output tokens, expected {SMOKE_OUTPUT}",
            smoke.output_tokens
        ),
    );

    if failures > 0 {
        eprintln!("{failures} chunked-prefill check(s) failed");
        std::process::exit(1);
    }
    println!("chunked-prefill CI gate passed");
}
