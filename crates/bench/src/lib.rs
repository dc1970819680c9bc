//! # vllm-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (§6–§7). Each `src/bin/figNN.rs` binary prints the same
//! rows/series the paper reports; `benches/` holds Criterion
//! microbenchmarks over the real CPU kernels.
//!
//! Shared helpers: system factories over a Table 1 server configuration,
//! request-rate sweeps, and plain-text table printing.

#![warn(missing_docs)]

use vllm_baselines::{
    BatchSystem, ContiguousSystem, FasterTransformerSystem, OrcaSystem, ReservationPolicy,
    DEFAULT_PAGE_SLOTS,
};
use vllm_core::config::PreemptionMode;
use vllm_sim::{run_trace, trace_to_requests, CostModel, RunReport, ServerConfig, VllmSimSystem};
use vllm_workloads::{Dataset, Trace};

/// Default virtual trace duration per sweep point, seconds. The paper uses
/// 1-hour traces; 600 s is enough for stable means at laptop speed.
pub const DEFAULT_TRACE_SECONDS: f64 = 600.0;

/// Which serving system to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// vLLM with recomputation recovery (the paper's default).
    Vllm,
    /// vLLM with swapping recovery.
    VllmSwap,
    /// vLLM with an elastic block pool (starts at a quarter of the budget,
    /// inflates under pressure, deflates and compacts when idle).
    VllmElastic,
    /// vAttention-style contiguous virtual allocation (reserve-max virtual,
    /// commit-on-demand physical pages, no sharing).
    Contiguous,
    /// Orca with oracle reservations.
    OrcaOracle,
    /// Orca with power-of-two reservations.
    OrcaPow2,
    /// Orca with max-length reservations.
    OrcaMax,
    /// FasterTransformer-style request-level batching.
    FasterTransformer,
}

impl SystemKind {
    /// The five systems of Fig. 12.
    #[must_use]
    pub fn fig12_set() -> Vec<Self> {
        vec![
            Self::Vllm,
            Self::OrcaOracle,
            Self::OrcaPow2,
            Self::OrcaMax,
            Self::FasterTransformer,
        ]
    }

    /// The systems of the elastic capacity comparison: fixed-pool paged,
    /// elastic paged, and the contiguous-virtual-allocation baseline, all
    /// at the same memory budget.
    #[must_use]
    pub fn capacity_set() -> Vec<Self> {
        vec![Self::Vllm, Self::VllmElastic, Self::Contiguous]
    }

    /// The systems of Figs. 14/16/17 (FasterTransformer excluded, as in the
    /// paper's multi-sequence workloads).
    #[must_use]
    pub fn orca_comparison_set() -> Vec<Self> {
        vec![Self::Vllm, Self::OrcaOracle, Self::OrcaPow2, Self::OrcaMax]
    }

    /// Instantiates the system for a server configuration.
    #[must_use]
    pub fn build(self, server: ServerConfig, block_size: usize) -> Box<dyn BatchSystem> {
        let slots = server.max_kv_slots();
        let max_len = server.model.max_len;
        match self {
            Self::Vllm => Box::new(VllmSimSystem::new(
                server,
                block_size,
                PreemptionMode::Recompute,
            )),
            Self::VllmSwap => Box::new(
                VllmSimSystem::new(server, block_size, PreemptionMode::Swap)
                    .with_label("vLLM (swap)"),
            ),
            Self::VllmElastic => Box::new(
                VllmSimSystem::new(server, block_size, PreemptionMode::Recompute)
                    .with_elastic(0.25),
            ),
            Self::Contiguous => Box::new(ContiguousSystem::new(
                slots,
                DEFAULT_PAGE_SLOTS,
                max_len,
                256,
            )),
            Self::OrcaOracle => Box::new(OrcaSystem::new(
                ReservationPolicy::Oracle,
                slots,
                max_len,
                256,
            )),
            Self::OrcaPow2 => Box::new(OrcaSystem::new(
                ReservationPolicy::Pow2,
                slots,
                max_len,
                256,
            )),
            Self::OrcaMax => Box::new(OrcaSystem::new(ReservationPolicy::Max, slots, max_len, 256)),
            Self::FasterTransformer => Box::new(FasterTransformerSystem::new(slots, max_len)),
        }
    }
}

/// One point of a rate sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered rate (req/s).
    pub rate: f64,
    /// Aggregated run metrics.
    pub report: RunReport,
}

/// Runs `kind` over `dataset` at each rate for `seconds` of virtual trace,
/// with `n_seqs`/`is_beam` decoding options.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    kind: SystemKind,
    server: ServerConfig,
    block_size: usize,
    dataset: &Dataset,
    rates: &[f64],
    seconds: f64,
    n_seqs: usize,
    is_beam: bool,
) -> Vec<SweepPoint> {
    let cost = CostModel::contiguous(server);
    rates
        .iter()
        .map(|&rate| {
            let trace = Trace::synthesize(dataset, rate, (rate * seconds).ceil() as usize, 42);
            let requests = trace_to_requests(&trace, n_seqs, is_beam);
            let mut system = kind.build(server, block_size);
            let report = run_trace(system.as_mut(), &requests, &cost, rate);
            SweepPoint { rate, report }
        })
        .collect()
}

/// Runs one system over an explicit request list.
#[must_use]
pub fn run_one(
    kind: SystemKind,
    server: ServerConfig,
    block_size: usize,
    requests: &[vllm_baselines::SimRequest],
    rate: f64,
) -> RunReport {
    let cost = CostModel::contiguous(server);
    let mut system = kind.build(server, block_size);
    run_trace(system.as_mut(), requests, &cost, rate)
}

/// Prints a header line for a figure harness.
pub fn print_figure_header(figure: &str, description: &str) {
    println!("=== {figure} ===");
    println!("{description}");
    println!();
}

/// Prints a normalized-latency-vs-rate series in the Fig. 12/14/16/17
/// layout.
pub fn print_latency_series(points: &[SweepPoint]) {
    println!(
        "  {:<22} {:>8} {:>14} {:>10} {:>10} {:>10}",
        "system", "rate", "norm-lat(s)", "p90(s)", "batched", "finished"
    );
    for p in points {
        println!(
            "  {:<22} {:>8.2} {:>14.4} {:>10.3} {:>10.1} {:>10}",
            p.report.system,
            p.rate,
            p.report.mean_normalized_latency,
            p.report.p90_normalized_latency,
            p.report.avg_running_requests,
            p.report.num_finished
        );
    }
}

/// Writes a metrics snapshot under `dir` as `<stem>.json` (one-line JSON
/// document) and `<stem>.prom` (Prometheus text exposition), creating the
/// directory as needed. Returns the two paths written.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing the
/// files.
pub fn write_metrics_artifacts(
    snapshot: &vllm_core::telemetry::MetricsSnapshot,
    dir: impl AsRef<std::path::Path>,
    stem: &str,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{stem}.json"));
    let prom_path = dir.join(format!("{stem}.prom"));
    let mut json = snapshot.to_json();
    json.push('\n');
    std::fs::write(&json_path, json)?;
    std::fs::write(&prom_path, snapshot.to_prometheus_text())?;
    Ok((json_path, prom_path))
}

/// The repository root (two levels above the bench crate manifest).
#[must_use]
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// The commit the numbers belong to, `-dirty` if the tree has local edits.
#[must_use]
pub fn commit_label() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Appends one run's record set to the trajectory file `file` (relative to
/// the repository root): every record — a flat one-line JSON object — gains
/// leading `commit` and `nproc` fields, so the file reads as the history of
/// these numbers across PRs and machines. Returns the set's lines as read
/// back from the file.
///
/// # Panics
///
/// Panics on I/O failure, or if a record is not a one-line JSON object.
#[must_use]
pub fn append_trajectory(file: &str, records: &[String]) -> Vec<String> {
    use std::io::Write;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let tag = format!("{{\"commit\":\"{}\",\"nproc\":{nproc},", commit_label());
    let mut text = String::new();
    for r in records {
        let body = r.strip_prefix('{').filter(|b| !b.contains('\n'));
        text.push_str(&tag);
        text.push_str(body.expect("a record is a one-line JSON object"));
        text.push('\n');
    }
    let path = repo_root().join(file);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .unwrap_or_else(|e| panic!("append to {file}: {e}"));
    let written = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
    let lines: Vec<&str> = written.lines().collect();
    let tail = &lines[lines.len() - records.len()..];
    tail.iter().map(ToString::to_string).collect()
}

/// The highest offered rate whose mean normalized latency stays under the
/// threshold (the paper's "sustained request rate at similar latency").
#[must_use]
pub fn sustained_rate(points: &[SweepPoint], latency_threshold: f64) -> f64 {
    points
        .iter()
        .filter(|p| p.report.mean_normalized_latency <= latency_threshold)
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

/// Times every cell in `rounds` interleaved rounds — each cell `iters`
/// calls per round, the starting cell rotated — and returns each cell's
/// nanoseconds per call in every round, as `[cell][round]`. A slow spell of
/// the host lands on every cell of a round, so ratios between cells stay
/// meaningful.
pub fn interleaved_rounds_ns(
    cells: &mut [&mut dyn FnMut()],
    iters: usize,
    rounds: usize,
) -> Vec<Vec<f64>> {
    let mut ns = vec![Vec::with_capacity(rounds); cells.len()];
    for cell in cells.iter_mut() {
        cell(); // warm
    }
    for round in 0..rounds {
        for i in 0..cells.len() {
            let c = (i + round) % cells.len();
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                cells[c]();
            }
            ns[c].push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    ns
}

/// A cell's best round.
#[must_use]
pub fn best_ns(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// How many times faster `cell` ran than `base`: the median over the rounds
/// of `base / cell` *within* a round. The two sides of each ratio ran
/// milliseconds apart, so a host that changes speed every few seconds moves
/// both or spoils one round, not the figure — which the ratio of two minima
/// found seconds apart did about one run in three.
#[must_use]
pub fn paired_speedup(base: &[f64], cell: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = base.iter().zip(cell).map(|(b, c)| b / c).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_server() -> ServerConfig {
        let mut cfg = ServerConfig::opt_13b_1gpu();
        cfg.gpu.mem_bytes_per_gpu = 30e9;
        cfg
    }

    #[test]
    fn sweep_produces_points() {
        let pts = sweep(
            SystemKind::Vllm,
            tiny_server(),
            16,
            &Dataset::alpaca(),
            &[1.0, 4.0],
            20.0,
            1,
            false,
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[0].report.num_finished > 0);
    }

    #[test]
    fn sustained_rate_picks_threshold() {
        let pts = sweep(
            SystemKind::Vllm,
            tiny_server(),
            16,
            &Dataset::alpaca(),
            &[1.0, 2.0],
            15.0,
            1,
            false,
        );
        let s = sustained_rate(&pts, 1.0);
        assert!(s >= 1.0);
    }

    #[test]
    fn all_kinds_build() {
        for kind in SystemKind::fig12_set()
            .into_iter()
            .chain(SystemKind::capacity_set())
        {
            let sys = kind.build(tiny_server(), 16);
            assert!(!sys.name().is_empty());
        }
    }
}
