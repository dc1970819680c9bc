//! `serve_bench`: a repeatable wall-clock serving benchmark over the real TCP
//! frontend (`vllm::frontend::Server::spawn_cluster` in-process, driven by
//! two closed-loop `Client` connections), with a per-layer traced run.
//!
//! ```text
//! serve_bench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! serve_bench [--seed <u64>] [--seconds <n>] [--quick]     every workload, both runs
//! serve_bench --aa [--seed <u64>] [--seconds <n>]          A/A self-check
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. See `README.md` beside this package.

mod layers;
mod pass;
mod report;
mod span_exec;
mod stats;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vllm::core::telemetry::Json;
use vllm::core::GenerationMode;
use vllm::frontend::ClientOutput;
use vllm::model::pool;

use pass::{run_pass, Live, Pass, Sample};
use report::{result_line, Metrics, END_TO_END, PER_LAYER};
use stats::{mean, median, percentile};
use workloads::{Kind, Request, Workload, CLIENTS, WORKLOADS};

/// Passes a full run never goes below; the request counts shrink instead.
const MIN_PASSES: usize = 3;
/// Requests re-sent alone on one connection after the passes.
const SOLO_GEN: usize = 8;
const SOLO_PROBE: usize = 4;
/// Seconds of `--seconds` kept back for those re-sends, so that a run ends
/// inside its budget.
const SOLO_RESERVE_S: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Self {
            workload: None,
            seed: 42,
            seconds: 33.0,
            trace: false,
            quick: false,
            aa: false,
        };
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} takes a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--quick" => args.quick = true,
                "--aa" => args.aa = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }

    /// The arguments of a child run of one workload.
    fn child(&self, workload: &str, trace: bool) -> Vec<String> {
        let mut argv = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(trace).to_string(),
        ];
        if self.quick {
            argv.push("--quick".to_string());
        }
        argv
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.aa {
        run_aa(&args)
    } else if let Some(name) = &args.workload {
        match Workload::by_name(name) {
            Some(w) => run_workload(w, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("serve_bench: unknown workload {name:?} (have {names:?})");
                return ExitCode::from(2);
            }
        }
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this executable again for one workload and returns its standard
/// output. One workload per process, so `peak_rss_mb` is that workload's.
fn run_child(args: &Args, workload: &str, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(args.child(workload, trace))
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("re-execute self");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    out.status.success().then_some(stdout)
}

/// Every workload, the end-to-end run then the traced run.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("# {} --trace {}: {}", w.name, u8::from(trace), w.why);
            ok &= run_child(args, w.name, trace).is_some();
        }
    }
    ok
}

/// The pinned configuration, set by the bench and not by the environment:
/// no `VLLM_*` variable reaches the server, and kernels run on one thread
/// (one engine thread per replica plus two mostly blocked clients is what
/// two cores hold). Must run before the first use of the kernel pool.
fn pin_environment() {
    for (key, _) in std::env::vars() {
        if key.starts_with("VLLM_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var(pool::NUM_THREADS_ENV, "1");
}

/// Outputs of every request of one pass, per client in list order.
type Outputs = [Vec<Option<Vec<ClientOutput>>>; CLIENTS];

fn outputs(sample: &Sample) -> Option<Vec<ClientOutput>> {
    sample.reply.as_ref().ok().map(|r| r.outputs.clone())
}

/// Counts requests sent and failed across passes, and holds the first pass's
/// replies as the reference the later ones must equal.
#[derive(Default)]
struct Checker {
    attempted: usize,
    failed: usize,
    reference: Option<Outputs>,
}

impl Checker {
    /// Sampled outputs depend on engine-global sequence ids, hence on the
    /// order two racing clients' requests arrive in: only greedy and beam
    /// outputs are comparable between passes.
    fn comparable(request: &Request) -> bool {
        request.spec.mode != GenerationMode::Sample
    }

    fn reply_ok(request: &Request, sample: &Sample) -> bool {
        match &sample.reply {
            Ok(reply) => reply.outputs.len() == request.spec.n,
            Err(e) => {
                eprintln!("request failed: {e}");
                false
            }
        }
    }

    /// Checks one pass: every reply well-formed, and byte-equal `(text,
    /// cumulative_logprob)` with the first pass wherever comparable.
    fn pass(&mut self, lists: &[Vec<Request>; CLIENTS], pass: &Pass) {
        for (client, (list, samples)) in lists.iter().zip(&pass.samples).enumerate() {
            for (index, (request, sample)) in list.iter().zip(samples).enumerate() {
                self.attempted += 1;
                let same = self.reference.as_ref().is_none_or(|reference| {
                    !Self::comparable(request) || reference[client][index] == outputs(sample)
                });
                if !same {
                    eprintln!("output of {client}/{index} differs from the first pass");
                }
                if !Self::reply_ok(request, sample) || !same {
                    self.failed += 1;
                }
            }
        }
        if self.reference.is_none() {
            let of_client = |c: usize| pass.samples[c].iter().map(outputs).collect();
            self.reference = Some(std::array::from_fn(of_client));
        }
    }

    /// Re-sends a few comparable requests alone on one connection: batched ≡
    /// solo, swapped ≡ resident, tier-installed ≡ recomputed.
    fn solo(&mut self, lists: &[Vec<Request>; CLIENTS], live: &Live) {
        let reference = self.reference.as_ref().expect("a pass ran first");
        let mut client = live.connect();
        let epoch = Instant::now();
        let mut budget = [SOLO_GEN, SOLO_PROBE];
        for (c, list) in lists.iter().enumerate() {
            for (i, request) in list.iter().enumerate() {
                let left = &mut budget[usize::from(request.kind == Kind::Probe)];
                if *left == 0 || !Self::comparable(request) {
                    continue;
                }
                *left -= 1;
                self.attempted += 1;
                let sample = pass::timed_send(request, &mut client, epoch);
                if outputs(&sample) != reference[c][i] {
                    eprintln!("output of {c}/{i} sent alone differs from its output under load");
                    self.failed += 1;
                }
            }
        }
    }
}

/// The client-side latencies of one pass, in ms, by request class, scaled by
/// the share of the pass during which the VM ran (`Pass::ran_share`).
struct Latencies {
    gen: Vec<f64>,
    probe: Vec<f64>,
}

impl Latencies {
    fn of(lists: &[Vec<Request>; CLIENTS], pass: &Pass) -> Self {
        let of_kind = |kind: Kind| -> Vec<f64> {
            lists
                .iter()
                .zip(&pass.samples)
                .flat_map(|(list, samples)| list.iter().zip(samples))
                .filter(|(r, _)| r.kind == kind)
                .map(|(_, s)| s.latency_ms() * pass.ran_share())
                .collect()
        };
        Self {
            gen: of_kind(Kind::Gen),
            probe: of_kind(Kind::Probe),
        }
    }
}

/// What the untraced passes of a run measured, pass by pass.
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    /// Timed wall, less what the hypervisor stole.
    ran_s: Vec<f64>,
    stolen_share: Vec<f64>,
    latencies: Vec<Latencies>,
}

impl Timed {
    fn push(&mut self, lists: &[Vec<Request>; CLIENTS], pass: &Pass) {
        self.setup_s.push(pass.setup_s);
        self.ran_s.push(pass.ran_s());
        self.stolen_share.push(pass.stolen_s / pass.wall_s());
        self.latencies.push(Latencies::of(lists, pass));
    }

    fn passes(&self) -> usize {
        self.ran_s.len()
    }

    /// The end-to-end timing metrics over `passes`, whose timed requests are
    /// one sample: completed requests over timed wall, and the latency
    /// statistics over every request of a class. `setup_s` is the median
    /// set-up. All are times the VM ran, not times the hypervisor stole.
    fn metrics(&self, passes: std::ops::Range<usize>) -> [(&'static str, f64); 5] {
        let all = |class: fn(&Latencies) -> &Vec<f64>| -> Vec<f64> {
            let of_passes = self.latencies[passes.clone()].iter();
            of_passes.flat_map(class).copied().collect()
        };
        let (gen, probe) = (all(|l| &l.gen), all(|l| &l.probe));
        let ran_s: f64 = self.ran_s[passes.clone()].iter().sum();
        [
            ("setup_s", median(&self.setup_s[passes.clone()])),
            ("req_per_s", (gen.len() + probe.len()) as f64 / ran_s),
            ("e2e_ms_mean", mean(&gen)),
            ("e2e_ms_p90", percentile(&gen, 90.0)),
            ("ttft_ms_mean", mean(&probe)),
        ]
    }

    /// Each pass's own values, for the record line.
    fn per_pass(&self) -> Json {
        let pass = |i: usize| {
            let mut values = self.metrics(i..i + 1).to_vec();
            values.push(("stolen_share", self.stolen_share[i]));
            Json::obj(values.into_iter().map(|(n, v)| (n, Json::Num(v))).collect())
        };
        Json::Arr((0..self.passes()).map(pass).collect())
    }
}

/// One workload in this process: passes until `--seconds` are used up (never
/// fewer than [`MIN_PASSES`]; `--quick` makes one), the output checks, then
/// the record line and the result line.
fn run_workload(w: &Workload, args: &Args) -> bool {
    pin_environment();
    let started = Instant::now();
    let lists = w.request_lists(args.seed, args.quick);
    let min_passes = match (args.quick, args.trace) {
        (true, false) => 1,
        (_, true) => 2,
        (false, false) => MIN_PASSES,
    };

    let mut checker = Checker::default();
    let mut timed = Timed::default();
    let mut traced: Option<Traced> = None;
    let mut first_pass_rss_mb = 0.0;
    let mut live: Option<Live> = None;
    let mut longest_pass = 0.0f64;
    for index in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + longest_pass + SOLO_RESERVE_S;
        if index >= min_passes && (args.quick || next_ends > args.seconds) {
            break;
        }
        // One server at a time: the previous pass's goes away first.
        drop(live.take());
        // The traced run alternates untraced and traced passes so that the
        // two throughputs it compares see the same host conditions.
        let trace_this = args.trace && index % 2 == 1;
        let (pass, server) = run_pass(w, &lists, trace_this);
        checker.pass(&lists, &pass);
        if trace_this {
            traced = Some(Traced::measure(w, &lists, &pass, &server));
        } else {
            timed.push(&lists, &pass);
        }
        if index == 0 {
            first_pass_rss_mb = peak_rss_mb();
        }
        live = Some(server);
        longest_pass = longest_pass.max(started.elapsed().as_secs_f64() - elapsed);
    }
    checker.solo(&lists, live.as_ref().expect("at least one pass ran"));
    drop(live);

    let end_to_end = timed.metrics(0..timed.passes());
    let mut record = vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("commit", Json::Str(commit())),
        (
            "backend",
            Json::Str(w.model.config().backend.name().to_string()),
        ),
        (
            "kernel_threads",
            Json::Num(pool::global().parallelism() as f64),
        ),
        ("nproc", Json::Num(nproc() as f64)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("untraced_passes", Json::Num(timed.passes() as f64)),
        (
            "gen_per_pass",
            Json::Num(count_kind(&lists, Kind::Gen) as f64),
        ),
        (
            "probes_per_pass",
            Json::Num(count_kind(&lists, Kind::Probe) as f64),
        ),
        ("requests_sent", Json::Num(checker.attempted as f64)),
        (
            "requests_succeeded",
            Json::Num((checker.attempted - checker.failed) as f64),
        ),
        ("requests_failed", Json::Num(checker.failed as f64)),
        ("per_pass", timed.per_pass()),
    ];

    let metrics = if let Some(mut traced) = traced {
        // One run cannot resolve a few percent of overhead against the
        // host's pass-to-pass noise; judge it over several runs.
        let (_, untraced_req_per_s) = end_to_end
            .into_iter()
            .find(|(name, _)| *name == "req_per_s")
            .expect("a timing metric");
        traced.metrics.set(
            "telemetry.trace_overhead_share",
            1.0 - traced.req_per_s / untraced_req_per_s,
        );
        record.push((
            "identity",
            Json::Arr(traced.identity.into_iter().map(Json::Str).collect()),
        ));
        if let Some(path) = traced.spans {
            record.push(("spans", Json::Str(path.display().to_string())));
        }
        traced.metrics.json(&PER_LAYER)
    } else {
        let mut metrics = Metrics::default();
        for (name, value) in end_to_end {
            metrics.set(name, value);
        }
        metrics.set("peak_rss_mb", first_pass_rss_mb);
        metrics.json(&END_TO_END)
    };

    println!("{}", Json::obj(vec![("record", Json::obj(record))]));
    println!(
        "{}",
        result_line(
            checker.failed == 0,
            checker.attempted,
            checker.failed,
            metrics
        )
    );
    checker.failed == 0
}

/// What a traced pass yields, taken while its server is still up.
struct Traced {
    /// Every per-layer metric but `telemetry.trace_overhead_share`, which
    /// needs the untraced passes' throughput.
    metrics: Metrics,
    req_per_s: f64,
    identity: Vec<String>,
    spans: Option<PathBuf>,
}

impl Traced {
    fn measure(w: &Workload, lists: &[Vec<Request>; CLIENTS], pass: &Pass, live: &Live) -> Self {
        let identity = layers::identity_lines(pass);
        for line in &identity {
            eprintln!("{}: {line}", w.name);
        }
        let path = spans_path(w);
        let spans = match layers::write_spans(w, lists, pass, &path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                None
            }
        };
        Self {
            metrics: layers::per_layer(w, lists, pass, live),
            req_per_s: lists.iter().flatten().count() as f64 / pass.ran_s(),
            identity,
            spans,
        }
    }
}

fn count_kind(lists: &[Vec<Request>; CLIENTS], kind: Kind) -> usize {
    lists.iter().flatten().filter(|r| r.kind == kind).count()
}

/// Span files go under the build directory: `target/serve_bench/`, or
/// `$CARGO_TARGET_DIR/serve_bench/` when that is set.
fn spans_path(w: &Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("serve_bench")
        .join(format!("{}.spans.json", w.name))
}

/// `VmHWM` of this process, in MB. Reported as of the end of the first pass:
/// one fresh server having served the whole list once. Later passes add only
/// what the allocator happens to retain (a 30 MB step on some runs).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// `--aa`: the whole end-to-end benchmark twice, alternating, and a table of
/// how far the two sets disagree. Fails unless every metric of every
/// workload agrees within its bound in `BENCHMARK.json`.
fn run_aa(args: &Args) -> bool {
    let bounds = match read_bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("serve_bench --aa: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut table = vec![format!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    )];
    for w in &WORKLOADS {
        let sets: Vec<Option<Json>> = (0..2)
            .map(|_| {
                let stdout = run_child(args, w.name, false)?;
                Json::parse(stdout.lines().last()?).ok()
            })
            .collect();
        let (Some(a), Some(b)) = (&sets[0], &sets[1]) else {
            eprintln!("serve_bench --aa: a run of {} failed", w.name);
            ok = false;
            continue;
        };
        for d in &END_TO_END {
            let value = |set: &Json| {
                set.get("metrics")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("every end-to-end metric is in the result line")
            };
            let (a, b) = (value(a), value(b));
            let diff = d.better.worsening(a, b).max(d.better.worsening(b, a));
            let bound = bounds
                .iter()
                .find(|(name, _)| name == d.name)
                .map_or(0.0, |(_, bound)| *bound);
            let within = diff <= bound;
            ok &= within;
            table.push(format!(
                "{:<14} {:<12} {a:>12.4} {b:>12.4} {:>7.2}% {:>5.0}%{}",
                w.name,
                d.name,
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  DISAGREE" },
            ));
        }
    }
    println!("{}", table.join("\n"));
    println!("aa: {}", if ok { "pass" } else { "FAIL" });
    ok
}

/// `(metric, bound)` of every end-to-end metric in `BENCHMARK.json`, looked
/// for in the working directory and then at the repository root.
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| {
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
        })
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}
