//! One pass: a fresh server, two closed-loop clients, a discarded warm-up,
//! then the timed replay of the fixed request lists.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use vllm::core::{LlmEngine, ModelExecutor};
use vllm::frontend::{EngineStats, Server};
use vllm::model::ops::timing::{self, KernelSnapshot};
use vllm::model::CpuModelExecutor;

use crate::span_exec::{SpanExecutor, StepLog, StepSpan};
use crate::wire::{self, Connection, Reply};
use crate::workloads::{Request, Workload, CLIENTS, WARMUP_REQUESTS};

/// One request as its client saw it. Times are seconds since the pass epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    pub start: f64,
    pub end: f64,
    /// The reply, or the `ERR` / I/O message.
    pub reply: Result<Reply, String>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A running server plus what the traced pass recorded about it.
pub struct Live {
    pub server: Server,
    /// One step log per replica when the pass is traced, none otherwise.
    pub logs: Vec<StepLog>,
}

impl Live {
    fn start(w: &Workload, epoch: Instant, traced: bool) -> Self {
        let cache = w.cache_config();
        let executors =
            (0..w.num_replicas()).map(|_| CpuModelExecutor::from_config(w.model.config(), &cache));
        if !traced {
            return Self {
                server: spawn(w, executors),
                logs: Vec::new(),
            };
        }
        let logs: Vec<StepLog> = (0..w.num_replicas()).map(|_| StepLog::default()).collect();
        let wrapped = executors
            .zip(&logs)
            .map(|(e, log)| SpanExecutor::new(e, epoch, Arc::clone(log)));
        Self {
            server: spawn(w, wrapped),
            logs,
        }
    }

    /// Sends one admin verb that has a single-line reply (`TIER`,
    /// `METRICS\tjson`) over a plain socket and returns that line.
    pub fn admin(&self, verb: &str) -> std::io::Result<String> {
        wire::one_line(self.server.addr(), verb)
    }

    pub fn connect(&self) -> Connection {
        Connection::open(self.server.addr()).expect("connect and HELLO to own server")
    }
}

/// One engine per executor behind a server on an ephemeral loopback port.
fn spawn<E>(w: &Workload, executors: impl Iterator<Item = E>) -> Server
where
    E: ModelExecutor + Send + 'static,
{
    let engines = executors
        .map(|e| LlmEngine::new(e, w.cache_config(), w.scheduler_config()))
        .collect();
    Server::spawn_cluster("127.0.0.1:0", engines, w.cluster_config())
        .expect("bind an ephemeral loopback port")
}

/// Per CPU, in ticks of 10 ms since boot: busy, idle, and stolen (the CPU had
/// work and the hypervisor did not run it) — the `cpuN` lines of `/proc/stat`.
/// Empty where there is no such file.
///
/// The sandbox's host now and then takes half of both CPUs away for minutes
/// (measured: every workload ran 1.6–2.3x slower for four minutes, and
/// `steal` grew by as much as the runs lost), and a few percent at other
/// times. A pass subtracts what was stolen during it.
struct CpuTicks(Vec<[f64; 3]>);

impl CpuTicks {
    fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let per_cpu = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
            .filter_map(|l| {
                // user nice system idle iowait irq softirq steal
                let t: Vec<f64> = l
                    .split_whitespace()
                    .skip(1)
                    .map_while(|x| x.parse().ok())
                    .collect();
                (t.len() >= 8).then(|| [t[0] + t[1] + t[2] + t[5] + t[6], t[3] + t[4], t[7]])
            });
        Self(per_cpu.collect())
    }

    /// Seconds the hypervisor kept the result waiting since `earlier`: each
    /// CPU's stolen time, weighted by how busy that CPU was when it did run.
    /// What is stolen from a CPU delays a request only while a thread the
    /// request waits for is on it, which is about as often as the CPU is
    /// busy: nearly always for the one engine thread of a single replica,
    /// half the time for each of `disagg_chat`'s two, hardly ever for a CPU
    /// that only wakes pollers. Fitted over 260 passes, the unweighted sum
    /// explained 0.8–1.2x the slowdown of the single-replica workloads and
    /// 0.5x that of `disagg_chat`.
    fn stolen_s_since(&self, earlier: &Self) -> f64 {
        const TICKS_PER_S: f64 = 100.0;
        let of_cpu = |(now, then): (&[f64; 3], &[f64; 3])| {
            let [busy, idle, stolen]: [f64; 3] = std::array::from_fn(|i| now[i] - then[i]);
            if busy > 0.0 {
                busy / (busy + idle) * stolen / TICKS_PER_S
            } else {
                0.0
            }
        };
        self.0.iter().zip(&earlier.0).map(of_cpu).sum()
    }
}

/// `wall` minus `stolen`, but never less than a tenth of `wall`: the weighting
/// is a first-order estimate.
fn ran_s(wall: f64, stolen: f64) -> f64 {
    (wall - stolen).max(wall * 0.1)
}

/// What one pass measured.
pub struct Pass {
    /// Start of the pass (before engine build) to the first timed request:
    /// engine build, `spawn_cluster`, connect, `HELLO`, warm-up; less what
    /// the hypervisor stole meanwhile.
    pub setup_s: f64,
    /// The timed phase: first request sent to last reply received.
    pub window: (f64, f64),
    /// What the hypervisor stole during the timed phase, see [`CpuTicks`].
    pub stolen_s: f64,
    /// Per client, in list order.
    pub samples: [Vec<Sample>; CLIENTS],
    /// Per replica: what the timed phase added to the cumulative counters.
    pub stats: Vec<EngineStats>,
    /// Process-wide kernel time the timed phase added.
    pub kernels: KernelSnapshot,
    /// Per replica: the steps that began inside the timed phase (traced
    /// passes only).
    pub steps: Vec<Vec<StepSpan>>,
}

impl Pass {
    /// The timed phase as the clock saw it.
    pub fn wall_s(&self) -> f64 {
        self.window.1 - self.window.0
    }

    /// The timed phase less what the hypervisor stole: what throughput is
    /// counted over.
    pub fn ran_s(&self) -> f64 {
        ran_s(self.wall_s(), self.stolen_s)
    }

    /// The share of the timed phase during which the VM ran: what the
    /// client-side latencies are scaled by.
    pub fn ran_share(&self) -> f64 {
        self.ran_s() / self.wall_s()
    }
}

/// Runs one pass of `w` and leaves the server up for the caller.
pub fn run_pass(w: &Workload, lists: &[Vec<Request>; CLIENTS], traced: bool) -> (Pass, Live) {
    let epoch = Instant::now();
    let ticks_at_start = CpuTicks::now();
    let live = Live::start(w, epoch, traced);
    let mut clients: [Connection; CLIENTS] = std::array::from_fn(|_| live.connect());
    let warmup = std::array::from_fn(|c| &lists[c][..WARMUP_REQUESTS.min(lists[c].len())]);
    replay(&mut clients, warmup, epoch);

    let stats_before = live.server.replica_stats();
    let kernels_before = timing::snapshot();
    let ticks_at_first_request = CpuTicks::now();
    let setup_s = ran_s(
        epoch.elapsed().as_secs_f64(),
        ticks_at_first_request.stolen_s_since(&ticks_at_start),
    );
    let samples = replay(&mut clients, std::array::from_fn(|c| &lists[c][..]), epoch);
    let stolen_s = CpuTicks::now().stolen_s_since(&ticks_at_first_request);
    let kernels = timing::snapshot().delta_since(&kernels_before);
    let stats = live
        .server
        .replica_stats()
        .iter()
        .zip(&stats_before)
        .map(|(after, before)| stats_delta(after, before))
        .collect();

    let all = || samples.iter().flatten();
    let window = (
        all().map(|s| s.start).fold(f64::INFINITY, f64::min),
        all().map(|s| s.end).fold(0.0, f64::max),
    );
    let steps = live
        .logs
        .iter()
        .map(|log| {
            let log = log.lock().expect("no holder of the step log panics");
            log.iter()
                .filter(|s| s.start >= window.0)
                .cloned()
                .collect()
        })
        .collect();
    let pass = Pass {
        setup_s,
        window,
        stolen_s,
        samples,
        stats,
        kernels,
        steps,
    };
    (pass, live)
}

/// Each client replays its list on its own thread, one request at a time,
/// both starting together.
fn replay(
    clients: &mut [Connection; CLIENTS],
    lists: [&[Request]; CLIENTS],
    epoch: Instant,
) -> [Vec<Sample>; CLIENTS] {
    let barrier = Barrier::new(CLIENTS);
    let out: [Mutex<Vec<Sample>>; CLIENTS] = Default::default();
    std::thread::scope(|scope| {
        for ((client, list), out) in clients.iter_mut().zip(lists).zip(&out) {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let samples = list.iter().map(|r| timed_send(r, client, epoch)).collect();
                *out.lock().expect("only this thread locks its slot") = samples;
            });
        }
    });
    out.map(|m| m.into_inner().expect("client thread did not panic"))
}

pub fn timed_send(request: &Request, client: &mut Connection, epoch: Instant) -> Sample {
    let line = request.wire_line();
    let start = epoch.elapsed().as_secs_f64();
    let reply = client.generate(&line);
    Sample {
        start,
        end: epoch.elapsed().as_secs_f64(),
        reply,
    }
}

/// `after - before` on the cumulative fields; gauges keep `after`'s value.
fn stats_delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        finished: after.finished - before.finished,
        preemptions: after.preemptions - before.preemptions,
        steps: after.steps - before.steps,
        tokens_scheduled: after.tokens_scheduled - before.tokens_scheduled,
        blocks_copied: after.blocks_copied - before.blocks_copied,
        blocks_swapped: after.blocks_swapped - before.blocks_swapped,
        schedule_time: after.schedule_time - before.schedule_time,
        prepare_time: after.prepare_time - before.prepare_time,
        execute_time: after.execute_time - before.execute_time,
        postprocess_time: after.postprocess_time - before.postprocess_time,
        ..*after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_time_counts_by_how_busy_its_cpu_was() {
        let then = CpuTicks(vec![[1000.0, 50.0, 10.0], [100.0, 900.0, 0.0]]);
        // CPU 0 ran flat out and lost 2 s; CPU 1 was busy a tenth of the
        // time it ran and lost 1 s.
        let now = CpuTicks(vec![[1400.0, 50.0, 210.0], [140.0, 1260.0, 100.0]]);
        assert!((now.stolen_s_since(&then) - 2.1).abs() < 1e-9);
        // No `/proc/stat`, nothing subtracted.
        assert_eq!(CpuTicks(Vec::new()).stolen_s_since(&then), 0.0);
        assert_eq!(ran_s(10.0, 2.1), 7.9);
        assert_eq!(ran_s(10.0, 12.0), 1.0);
    }
}
