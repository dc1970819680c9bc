//! Elastic block-pool capacity curves: fixed-pool paged vs elastic paged vs
//! the vAttention-style contiguous baseline, at an equal KV memory budget.
//!
//! Two KV layouts are swept (Fig. 12-style rate sweep each):
//!
//! * **simd** — fp16 KV, the paper's Table 1 budget.
//! * **quant-kv8** — int8 KV halves the bytes per token, doubling the slot
//!   count the same byte budget buys.
//!
//! For each (layout, system, rate) the harness replays the same synthesized
//! trace and records normalized latency, the time-weighted and peak batch
//! sizes, and the memory-waste breakdown. Results go to `results/elastic.json`
//! and `BENCH_elastic.json` (JSON lines). With `--ci` the run additionally
//! asserts the capacity gates (elastic peak batch >= fixed-pool baseline at
//! equal budget; contiguous completes with zero external fragmentation) and
//! writes its artifact under `target/ci-elastic/`, exiting non-zero on any
//! failure.

use vllm_bench::{append_trajectory, repo_root, Gates, SystemKind};
use vllm_sim::{
    run_trace_with_timeline, trace_to_requests, CostModel, RunReport, ServerConfig,
    ACTIVATION_RESERVE_FRACTION,
};
use vllm_workloads::{Dataset, Trace};

/// Paged block size (tokens per KV block).
const BLOCK_SIZE: usize = 16;
/// Virtual trace duration per sweep point, seconds.
const TRACE_SECONDS: f64 = 60.0;
/// Offered rates; the highest point saturates the small server's KV budget
/// (ShareGPT's long sequences make capacity, not compute, the binding
/// constraint).
const RATES: [f64; 2] = [0.5, 1.5];
/// Timeline sampling interval for peak-batch detection, seconds.
const SAMPLE_DT: f64 = 0.25;
/// Trace synthesis seed.
const SEED: u64 = 42;

/// One (layout, system, rate) measurement.
struct Row {
    layout: &'static str,
    rate: f64,
    capacity_slots: usize,
    peak_running: usize,
    report: RunReport,
}

/// The small test server: OPT-13B shape with memory trimmed so sweeps run
/// in seconds (~4.6K KV slots at fp16).
fn simd_server() -> ServerConfig {
    let mut cfg = ServerConfig::opt_13b_1gpu();
    cfg.gpu.mem_bytes_per_gpu = 30e9;
    cfg
}

/// Same server with int8 KV: half the bytes per token means the identical
/// byte budget holds twice the slots. Modeled by solving for the total
/// memory whose KV budget is doubled at unchanged weights and reserve
/// fraction.
fn quant_kv8_server() -> ServerConfig {
    let base = simd_server();
    let kv2 = 2.0 * base.kv_cache_bytes();
    let mut cfg = base;
    cfg.gpu.mem_bytes_per_gpu = (kv2 + base.model.weight_bytes())
        / ((1.0 - ACTIVATION_RESERVE_FRACTION) * base.gpu.num_gpus as f64);
    cfg
}

fn run_point(layout: &'static str, kind: SystemKind, server: ServerConfig, rate: f64) -> Row {
    let trace = Trace::synthesize(
        &Dataset::sharegpt(),
        rate,
        (rate * TRACE_SECONDS).ceil() as usize,
        SEED,
    );
    let requests = trace_to_requests(&trace, 1, false);
    let cost = CostModel::contiguous(server);
    let mut system = kind.build(server, BLOCK_SIZE);
    let report = run_trace_with_timeline(system.as_mut(), &requests, &cost, rate, SAMPLE_DT);
    let peak_running = report
        .timeline
        .iter()
        .map(|p| p.running_requests)
        .max()
        .unwrap_or(0);
    Row {
        layout,
        rate,
        capacity_slots: server.max_kv_slots(),
        peak_running,
        report,
    }
}

fn row_json(r: &Row) -> String {
    format!(
        concat!(
            "{{\"layout\":\"{}\",\"system\":\"{}\",\"rate\":{:.2},",
            "\"capacity_slots\":{},\"requests\":{},\"finished\":{},",
            "\"mean_norm_latency_s\":{:.4},\"p90_norm_latency_s\":{:.4},",
            "\"avg_running\":{:.2},\"peak_running\":{},",
            "\"mem_used_frac\":{:.4},\"mem_internal_frac\":{:.4},",
            "\"mem_external_frac\":{:.4},\"preemptions\":{},",
            "\"copied_tokens\":{}}}"
        ),
        r.layout,
        r.report.system,
        r.rate,
        r.capacity_slots,
        r.report.num_requests,
        r.report.num_finished,
        r.report.mean_normalized_latency,
        r.report.p90_normalized_latency,
        r.report.avg_running_requests,
        r.peak_running,
        r.report.mem.used,
        r.report.mem.internal,
        r.report.mem.external,
        r.report.preemptions,
        r.report.copied_tokens,
    )
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");

    let layouts: [(&'static str, ServerConfig); 2] =
        [("simd", simd_server()), ("quant-kv8", quant_kv8_server())];

    let mut rows: Vec<Row> = Vec::new();
    for (layout, server) in layouts {
        println!(
            "== layout {layout}: {} KV slots at equal byte budget ==",
            server.max_kv_slots()
        );
        println!(
            "  {:<24} {:>6} {:>10} {:>6} {:>12} {:>8}",
            "system", "rate", "finished", "peak", "norm-lat(s)", "preempt"
        );
        for kind in SystemKind::capacity_set() {
            for rate in RATES {
                let row = run_point(layout, kind, server, rate);
                println!(
                    "  {:<24} {:>6.1} {:>10} {:>6} {:>12.4} {:>8}",
                    row.report.system,
                    rate,
                    format!("{}/{}", row.report.num_finished, row.report.num_requests),
                    row.peak_running,
                    row.report.mean_normalized_latency,
                    row.report.preemptions
                );
                rows.push(row);
            }
        }
        println!();
    }

    // JSON-lines artifact (one row per measurement): `results/` holds the
    // latest run, `BENCH_elastic.json` the trajectory across runs.
    let records: Vec<String> = rows.iter().map(row_json).collect();
    let lines = records.join("\n") + "\n";
    let root = repo_root();
    std::fs::create_dir_all(root.join("results")).expect("create results dir");
    std::fs::write(root.join("results/elastic.json"), &lines).expect("write results/elastic.json");
    let appended = append_trajectory("BENCH_elastic.json", &records).len();
    println!("wrote results/elastic.json, appended {appended} records to BENCH_elastic.json");
    if ci {
        std::fs::create_dir_all(root.join("target/ci-elastic")).expect("create ci dir");
        std::fs::write(root.join("target/ci-elastic/elastic.json"), &lines)
            .expect("write ci artifact");
    }

    if !ci {
        return;
    }

    let mut gates = Gates::default();
    let mut check = |ok: bool, what: &str| gates.check(ok, what);

    let find = |layout: &str, system: &str, rate: f64| -> &Row {
        rows.iter()
            .find(|r| {
                r.layout == layout && r.report.system == system && (r.rate - rate).abs() < 1e-9
            })
            .unwrap_or_else(|| panic!("missing row {layout}/{system}/{rate}"))
    };

    for layout in ["simd", "quant-kv8"] {
        for rate in RATES {
            let fixed = find(layout, "vLLM", rate);
            let elastic = find(layout, "vLLM (elastic)", rate);
            let contig = find(layout, "vAttention (contiguous)", rate);

            // Everyone drains the trace.
            for r in [fixed, elastic, contig] {
                check(
                    r.report.num_finished == r.report.num_requests,
                    &format!(
                        "{layout}@{rate}: {} finished {}/{}",
                        r.report.system, r.report.num_finished, r.report.num_requests
                    ),
                );
            }
            // Capacity gate: the elastic pool inflates to at least the
            // fixed-pool batch at the same budget.
            check(
                elastic.peak_running >= fixed.peak_running,
                &format!(
                    "{layout}@{rate}: elastic peak batch {} < fixed {}",
                    elastic.peak_running, fixed.peak_running
                ),
            );
            // Contiguous has commit-on-demand semantics: no allocator holes.
            check(
                contig.report.mem.external.abs() < 1e-12,
                &format!("{layout}@{rate}: contiguous reported external fragmentation"),
            );
        }
    }

    // quant-kv8 doubles the slot budget, which must not lower the peak batch.
    for rate in RATES {
        let simd = find("simd", "vLLM (elastic)", rate);
        let quant = find("quant-kv8", "vLLM (elastic)", rate);
        check(
            quant.peak_running >= simd.peak_running,
            &format!(
                "quant-kv8@{rate}: peak batch {} < simd {}",
                quant.peak_running, simd.peak_running
            ),
        );
    }

    gates.finish("elastic capacity CI gate");
    println!("elastic capacity CI gate passed");
}
