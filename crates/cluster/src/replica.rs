//! An engine replica on its own thread.
//!
//! This is the engine-loop machinery the TCP frontend used to own privately:
//! requests arrive over a channel, the loop admits them, runs iterations,
//! and routes finished outputs back to per-request reply channels. Extracted
//! here so the cluster frontend can run N loops behind one router, each
//! publishing the load/coverage snapshots routing policies consume.
//!
//! Shutdown semantics: setting the shutdown flag stops *admission of new
//! work from connections* at the server layer, but the loop itself keeps
//! stepping until every queued and in-flight request has finished (and the
//! channel backlog is drained), so no accepted request is ever dropped.
//!
//! Degradation semantics (PR 5):
//!
//! * Replies are typed: `Result<RequestOutput, VllmError>`, so admission
//!   failures and degradation outcomes carry their [`vllm_core::ErrorKind`]
//!   and retryability to the caller instead of being smuggled through a
//!   sentinel request id.
//! * Admission is bounded: when the number of in-flight requests reaches
//!   the replica's capacity, new submissions are answered with
//!   [`VllmError::Rejected`] (`retry_after` hint) rather than queued
//!   silently — callers see backpressure and can re-route.
//! * An engine step error is no longer fatal: the loop aborts every live
//!   request (restoring exact block accounting), answers each in-flight
//!   reply with a retryable [`VllmError::Unavailable`], and keeps serving.
//! * A kill switch ([`Replica::inject_kill`]) makes the loop die abruptly —
//!   in-flight replies get [`VllmError::Unavailable`] — so routers and
//!   frontends can be exercised against replica loss.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use vllm_core::telemetry::{HistogramSnapshot, Telemetry};
use vllm_core::{
    GenerationRequest, KvBlockBytes, LlmEngine, ModelExecutor, RequestOutput, VllmError,
};

use crate::flow::PrefixKv;

/// Default bound on requests a replica holds in flight (queued + running)
/// before it answers submissions with [`VllmError::Rejected`].
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// The `retry_after` hint (seconds) carried by backpressure rejections.
pub const REJECT_RETRY_AFTER: f64 = 0.05;

/// A snapshot of serving state published by a replica's engine loop after
/// every iteration (the `/metrics` analog of production servers). Queue and
/// pool fields are read from the engine and `finished` is the loop's count;
/// every other field is read from the engine's telemetry registry, so STATS
/// and `METRICS` report one set of numbers: the series named on each field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Queued requests not yet admitted.
    pub waiting: usize,
    /// Requests currently running.
    pub running: usize,
    /// Requests swapped out to CPU memory.
    pub swapped: usize,
    /// Estimated tokens of work still owed to admitted requests (prefill
    /// remainder plus decode budget; the join-shortest-queue signal).
    pub outstanding_tokens: u64,
    /// Free KV blocks in the GPU pool.
    pub free_blocks: usize,
    /// Total KV blocks in the GPU pool.
    pub total_blocks: usize,
    /// Requests completed since startup.
    pub finished: u64,
    /// Preemptions since startup (`vllm_scheduler_preemptions_total`).
    pub preemptions: u64,
    /// Engine steps executed since startup (`vllm_engine_steps_total`).
    pub steps: u64,
    /// Tokens scheduled across all steps
    /// (`vllm_engine_tokens_scheduled_total`).
    pub tokens_scheduled: u64,
    /// GPU block copies — copy-on-write splits and eager-fork copies —
    /// across all journals (`vllm_block_manager_cow_copies_total`).
    pub blocks_copied: u64,
    /// Blocks swapped in + out across all journals
    /// (`vllm_block_manager_swapped_{in,out}_blocks_total`).
    pub blocks_swapped: u64,
    /// Cumulative host seconds in the schedule stage (the sum of
    /// `vllm_step_schedule_seconds`).
    pub schedule_time: f64,
    /// Cumulative host seconds in the prepare stage (`vllm_step_prepare_seconds`).
    pub prepare_time: f64,
    /// Cumulative host seconds in the execute stage, forward passes outside
    /// steps included (`vllm_step_execute_seconds`).
    pub execute_time: f64,
    /// Cumulative host seconds in the postprocess stage
    /// (`vllm_step_postprocess_seconds`).
    pub postprocess_time: f64,
    /// Mean normalized latency over finished requests (s/token, §6.1;
    /// `vllm_request_normalized_latency_seconds`).
    pub norm_lat_mean: f64,
    /// Median normalized latency (a histogram quantile).
    pub norm_lat_p50: f64,
    /// 90th percentile normalized latency (a histogram quantile).
    pub norm_lat_p90: f64,
    /// 99th percentile normalized latency (a histogram quantile).
    pub norm_lat_p99: f64,
    /// Mean time to first token over requests that produced one
    /// (`vllm_request_ttft_seconds`).
    pub ttft_mean: f64,
    /// Median time to first token (a histogram quantile).
    pub ttft_p50: f64,
    /// 99th percentile time to first token (a histogram quantile).
    pub ttft_p99: f64,
}

/// The typed reply a submitted request eventually receives.
pub type EngineReply = Result<Replied, VllmError>;

/// KV computed elsewhere that rides a submission: installed into the
/// replica's cache just before the request is admitted (blocks not resident
/// yet are journaled as `CacheOps` installs and left cached).
#[derive(Debug, Clone)]
pub struct KvInstall {
    /// Prefix tokens.
    pub tokens: Vec<u32>,
    /// Serialized KV of the prefix's last `blocks.len()` blocks: all of
    /// them, or only the tail the sender believes is not resident yet.
    pub blocks: Vec<KvBlockBytes>,
    /// Whether a retryable refusal fails the submission (the sender will
    /// retry elsewhere) instead of admitting the request without the prefix.
    pub required: bool,
}

/// One submission to a replica: a generation request plus the KV work that
/// travels with it, so a handoff phase is one replica message.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Engine-side request id.
    pub request_id: String,
    /// Tokenized prompt.
    pub prompt: Vec<u32>,
    /// Typed request description (decoding mode, limits, deadline,
    /// priority).
    pub request: GenerationRequest,
    /// KV to install before admission.
    pub install: Option<KvInstall>,
    /// Tokens whose longest resident run of leading blocks is exported in
    /// the iteration that finishes the request.
    pub export: Option<Vec<u32>>,
}

impl Submission {
    /// A plain generation request: nothing to install, nothing to export.
    #[must_use]
    pub fn new(
        request_id: impl Into<String>,
        prompt: Vec<u32>,
        request: GenerationRequest,
    ) -> Self {
        Self {
            request_id: request_id.into(),
            prompt,
            request,
            install: None,
            export: None,
        }
    }
}

/// A replica's answer to a [`Submission`] that ran.
#[derive(Debug, Clone)]
pub struct Replied {
    /// The finished output.
    pub output: RequestOutput,
    /// Whether the submission's install landed (`false` without one).
    pub installed: bool,
    /// The exported run: the tokens it covers and one serialized block
    /// each — empty when nothing was resident or no export was asked.
    pub exported: PrefixKv,
}

/// One command over a replica's channel: a submission, or a KV install
/// outside any request (the `HANDOFF` verb's pre-seed; handled at the next
/// admission pass and exempt from the in-flight bound — nothing is pinned).
enum EngineCommand {
    Generate(Queued),
    Install(PrefixKv, Sender<Result<(), VllmError>>),
}

/// A submission on its way through a replica's channel. One the loop never
/// takes — it exited, killed or drained, while the submission was still
/// queued, and the channel dropped it — answers itself with a retryable
/// [`VllmError::Unavailable`], so every reply sender is answered exactly
/// once.
struct Queued(Option<(Submission, Sender<EngineReply>)>);

impl Queued {
    fn take(mut self) -> (Submission, Sender<EngineReply>) {
        self.0.take().expect("taken once")
    }
}

impl Drop for Queued {
    fn drop(&mut self) {
        if let Some((_, reply)) = self.0.take() {
            let gone = VllmError::Unavailable("replica exited with the request queued".into());
            let _ = reply.send(Err(gone));
        }
    }
}

/// Handle to an engine running on its own thread.
///
/// Shutdown and join take `&self` (the thread handle sits behind a mutex) so
/// a server can share replicas with its connection handlers via `Arc` and
/// still stop them. Dropping the handle initiates shutdown and joins the
/// thread; because the loop drains first, drop blocks until all accepted
/// requests finish.
pub struct Replica {
    id: usize,
    tx: Sender<EngineCommand>,
    stats: Arc<Mutex<EngineStats>>,
    coverage: Arc<Mutex<Arc<Vec<u64>>>>,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Replica {
    /// Spawns the engine loop for `engine` on a new thread with the default
    /// in-flight capacity ([`DEFAULT_MAX_INFLIGHT`]).
    pub fn spawn<E>(id: usize, engine: LlmEngine<E>) -> Self
    where
        E: ModelExecutor + Send + 'static,
    {
        Self::spawn_with_capacity(id, engine, DEFAULT_MAX_INFLIGHT)
    }

    /// Spawns the engine loop with an explicit bound on in-flight requests.
    /// Submissions beyond the bound are answered with
    /// [`VllmError::Rejected`] instead of queueing without limit.
    pub fn spawn_with_capacity<E>(id: usize, engine: LlmEngine<E>, max_inflight: usize) -> Self
    where
        E: ModelExecutor + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<EngineCommand>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(EngineStats::default()));
        let coverage = Arc::new(Mutex::new(Arc::new(Vec::new())));
        let telemetry = Arc::clone(engine.telemetry());
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let killed = Arc::clone(&killed);
            let stats = Arc::clone(&stats);
            let coverage = Arc::clone(&coverage);
            std::thread::spawn(move || {
                engine_loop(
                    engine,
                    &rx,
                    &EngineLoopFlags {
                        shutdown: &shutdown,
                        killed: &killed,
                        max_inflight,
                    },
                    &stats,
                    &coverage,
                );
            })
        };
        Self {
            id,
            tx,
            stats,
            coverage,
            telemetry,
            shutdown,
            killed,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// The replica's index in its pool.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sends one submission to the engine loop; `reply` receives exactly
    /// one [`EngineReply`]: the finished output, or a typed error
    /// (admission failure, backpressure rejection, refused install, replica
    /// loss). Returns the submission back, unanswered, if the replica's loop
    /// has already exited.
    ///
    /// # Errors
    ///
    /// Returns `Err(job)` when the loop is no longer accepting work.
    #[allow(clippy::result_large_err)] // The caller needs the request back to report the failure.
    pub fn submit(&self, job: Submission, reply: Sender<EngineReply>) -> Result<(), Submission> {
        let queued = EngineCommand::Generate(Queued(Some((job, reply))));
        self.tx.send(queued).map_err(|e| {
            let EngineCommand::Generate(queued) = e.0 else {
                unreachable!("sent a Generate command");
            };
            queued.take().0
        })
    }

    /// Installs KV computed elsewhere into free blocks of the replica's
    /// cache on the engine thread and waits for the outcome (the `HANDOFF`
    /// verb; a handoff's own install rides its decode [`Submission`]).
    ///
    /// # Errors
    ///
    /// Returns a retryable [`VllmError::Unavailable`] when the loop is gone,
    /// or the engine's own refusal.
    pub fn install_kv(&self, tokens: Vec<u32>, blocks: Vec<KvBlockBytes>) -> Result<(), VllmError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(EngineCommand::Install((tokens, blocks), reply))
            .map_err(|_| VllmError::Unavailable("replica not accepting work".into()))?;
        rx.recv()
            .map_err(|_| VllmError::Unavailable("replica dropped the install".into()))?
    }

    /// The latest published stats snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// The latest published prefix coverage (sorted hashes of every
    /// block-aligned prefix whose KV is resident in the replica's pool).
    #[must_use]
    pub fn coverage(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.coverage.lock())
    }

    /// The replica engine's telemetry bundle.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether the replica was killed by fault injection.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Fault injection: makes the engine loop die abruptly at its next
    /// iteration boundary. Queued and in-flight requests are answered with a
    /// retryable [`VllmError::Unavailable`] so callers can re-route them;
    /// nothing is drained.
    pub fn inject_kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Signals the loop to stop once drained. Non-blocking; pair with
    /// [`join`](Self::join).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the engine loop to drain and exit.
    pub fn join(&self) {
        let handle = self.thread.lock().take();
        if let Some(t) = handle {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.join();
    }
}

/// Builds a serving snapshot from the engine's queues and pool and its
/// registry: each cumulative field is a counter or a histogram sum, each mean
/// a histogram's sum / count, each percentile a histogram quantile — the
/// numbers `METRICS` reports.
fn snapshot_stats<E: ModelExecutor>(engine: &LlmEngine<E>, finished_total: u64) -> EngineStats {
    let scheduler = engine.scheduler();
    let bm = scheduler.block_manager();
    let m = engine.engine_metrics();
    let stages = m.stage_totals();
    let norm_lat = m.request_normalized_latency_seconds.snapshot();
    let ttft = m.request_ttft_seconds.snapshot();
    let quantile = |h: &HistogramSnapshot, q| h.quantile(q).unwrap_or(0.0);
    let blocks = &m.block_manager;
    EngineStats {
        waiting: scheduler.num_waiting(),
        running: scheduler.num_running(),
        swapped: scheduler.num_swapped(),
        outstanding_tokens: scheduler.outstanding_tokens(),
        free_blocks: bm.num_free_gpu_blocks(),
        total_blocks: bm.num_total_gpu_blocks(),
        finished: finished_total,
        preemptions: m.scheduler.preemptions_total.get(),
        steps: m.steps_total.get(),
        tokens_scheduled: m.tokens_scheduled_total.get(),
        blocks_copied: blocks.cow_copies_total.get(),
        blocks_swapped: blocks.swapped_in_blocks_total.get()
            + blocks.swapped_out_blocks_total.get(),
        schedule_time: stages.schedule,
        prepare_time: stages.prepare,
        execute_time: stages.execute,
        postprocess_time: stages.postprocess,
        norm_lat_mean: norm_lat.mean().unwrap_or(0.0),
        norm_lat_p50: quantile(&norm_lat, 0.5),
        norm_lat_p90: quantile(&norm_lat, 0.9),
        norm_lat_p99: quantile(&norm_lat, 0.99),
        ttft_mean: ttft.mean().unwrap_or(0.0),
        ttft_p50: quantile(&ttft, 0.5),
        ttft_p99: quantile(&ttft, 0.99),
    }
}

/// Control flags and limits shared with a replica's engine loop.
struct EngineLoopFlags<'a> {
    shutdown: &'a AtomicBool,
    killed: &'a AtomicBool,
    max_inflight: usize,
}

/// How long an idle engine loop sleeps on its command channel before it
/// looks at the kill and shutdown flags again.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// What a replica does with a submission, on its thread or in a fleet:
/// runs its install, then admits the request at `at`. Returns the engine id
/// and what waits for the output. A refused install fails the submission
/// only when it is `required` and the refusal retryable; otherwise the
/// request is admitted without the prefix and computes it.
///
/// # Errors
///
/// Returns that refusal, or the admission's own error.
pub(crate) fn admit<E: ModelExecutor, W>(
    engine: &mut LlmEngine<E>,
    job: Submission,
    at: f64,
    waiter: W,
) -> Result<(String, Admitted<W>), VllmError> {
    let installed = match job.install {
        None => false,
        Some(kv) => match engine.install_kv(&kv.tokens, kv.blocks) {
            Ok(()) => true,
            Err(e) if kv.required && e.is_retryable() => return Err(e),
            Err(_) => false,
        },
    };
    engine.add_generation_request_at(job.request_id.clone(), job.prompt, &job.request, at)?;
    let export = job.export;
    Ok((
        job.request_id,
        Admitted {
            waiter,
            installed,
            export,
        },
    ))
}

/// A submission an engine admitted, until its output leaves: who waits for
/// it (a reply channel, or a fleet's request id), whether its install
/// landed, and what it exports.
pub(crate) struct Admitted<W> {
    pub(crate) waiter: W,
    installed: bool,
    export: Option<Vec<u32>>,
}

impl<W> Admitted<W> {
    /// The reply to the finished request. Its cut is exported now, in the
    /// iteration that finished it, while its blocks are certainly resident.
    pub(crate) fn reply<E: ModelExecutor>(
        self,
        engine: &LlmEngine<E>,
        output: RequestOutput,
    ) -> (W, Replied) {
        let exported = (self.export).map_or_else(PrefixKv::default, |t| engine.export_kv(&t));
        let installed = self.installed;
        (
            self.waiter,
            Replied {
                output,
                installed,
                exported,
            },
        )
    }
}

/// What a replica thread has admitted, by engine id.
type Pending = (String, Admitted<Sender<EngineReply>>);

/// Applies one command to the engine: a submission's install runs and the
/// request is admitted (or answered with its rejection); a bare install
/// runs synchronously. Returns whether a request joined the engine.
fn handle_command<E: ModelExecutor>(
    engine: &mut LlmEngine<E>,
    pending: &mut Vec<Pending>,
    flags: &EngineLoopFlags<'_>,
    cmd: EngineCommand,
) -> bool {
    let before = pending.len();
    match cmd {
        EngineCommand::Generate(queued) => {
            let (job, reply) = queued.take();
            if pending.len() >= flags.max_inflight {
                // Bounded admission: explicit backpressure instead of
                // silent queueing.
                let _ = reply.send(Err(VllmError::Rejected {
                    retry_after: REJECT_RETRY_AFTER,
                }));
                return false;
            }
            let now = engine.clock();
            match admit(engine, job, now, reply.clone()) {
                Ok(admitted) => pending.push(admitted),
                Err(e) => drop(reply.send(Err(e))),
            }
            pending.len() > before
        }
        EngineCommand::Install((tokens, blocks), reply) => {
            // It rewrites free blocks and leaves them free, so nothing the
            // stats snapshot shows has changed.
            let _ = reply.send(engine.install_kv(&tokens, blocks));
            false
        }
    }
}

/// The engine loop: drain new requests, run one iteration, route finished
/// outputs back to their reply channels.
///
/// A fresh [`EngineStats`] snapshot (and refreshed telemetry gauges) is
/// published on startup, after admitting requests, after every iteration,
/// and when the engine drains — never only at step boundaries, so load
/// queries reflect completions even while the loop sits idle. The prefix
/// coverage snapshot is recomputed only when the block index's version
/// changes.
///
/// The loop exits when the shutdown flag is set (or every sender is gone)
/// *and* all accepted work has finished — or immediately when the kill
/// switch fires, answering in-flight replies with a retryable error.
fn engine_loop<E: ModelExecutor>(
    mut engine: LlmEngine<E>,
    rx: &Receiver<EngineCommand>,
    flags: &EngineLoopFlags<'_>,
    stats: &Mutex<EngineStats>,
    coverage: &Mutex<Arc<Vec<u64>>>,
) {
    let mut pending: Vec<Pending> = Vec::new();
    let mut finished_total: u64 = 0;
    let mut coverage_version: Option<u64> = None;
    // Seed the snapshot (and the registry's gauges) so load/metrics queries
    // are meaningful before the first request arrives.
    let _ = engine.metrics_snapshot();
    *stats.lock() = snapshot_stats(&engine, finished_total);
    loop {
        if flags.killed.load(Ordering::SeqCst) {
            // Abrupt death: no drain. Everything in flight is aborted (so
            // the last snapshot holds no block) and answered with a
            // retryable error so the caller can re-route; whatever is still
            // in the channel answers itself as the channel drops (`Queued`).
            let _ = engine.abort_all();
            for (_, p) in pending.drain(..) {
                let _ = p
                    .waiter
                    .send(Err(VllmError::Unavailable("replica killed".into())));
            }
            *stats.lock() = snapshot_stats(&engine, finished_total);
            return;
        }
        if coverage_version != Some(engine.prefix_coverage_version()) {
            coverage_version = Some(engine.prefix_coverage_version());
            *coverage.lock() = Arc::new(engine.prefix_coverage());
        }
        // Admit everything that arrived since the last iteration; with
        // nothing in flight, sleep on the channel until something does (the
        // kill and shutdown flags are looked at again within `IDLE_WAIT`).
        // A closed channel is not an exit condition by itself: accepted
        // work still drains below.
        let mut admitted = false;
        let mut disconnected = false;
        let mut next = if engine.has_unfinished() {
            rx.try_recv()
        } else {
            rx.recv_timeout(IDLE_WAIT).map_err(|e| match e {
                RecvTimeoutError::Timeout => TryRecvError::Empty,
                RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
            })
        };
        loop {
            match next {
                Ok(cmd) => {
                    admitted |= handle_command(&mut engine, &mut pending, flags, cmd);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
            next = rx.try_recv();
        }
        if admitted {
            *stats.lock() = snapshot_stats(&engine, finished_total);
        }
        if !engine.has_unfinished() {
            if flags.shutdown.load(Ordering::SeqCst) || disconnected {
                break; // Drained: nothing queued, nothing in flight.
            }
            continue;
        }
        let outputs = match engine.step() {
            Ok(outputs) => outputs,
            Err(e) => {
                // Degrade instead of dying: abort everything live (releasing
                // every block the failed iteration had reserved), answer the
                // in-flight replies with a retryable error, and keep serving.
                let msg = format!("engine step failed: {e}");
                if engine.abort_all().is_err() {
                    // Accounting is corrupt; this loop cannot continue.
                    for (_, p) in pending.drain(..) {
                        let _ = p.waiter.send(Err(VllmError::Unavailable(msg.clone())));
                    }
                    return;
                }
                // Deliver the aborted groups out of the scheduler.
                let _ = engine.step();
                for (_, p) in pending.drain(..) {
                    let _ = p.waiter.send(Err(VllmError::Unavailable(msg.clone())));
                }
                *stats.lock() = snapshot_stats(&engine, finished_total);
                continue;
            }
        };
        let mut ready = Vec::new();
        for output in outputs {
            finished_total += 1;
            if let Some(pos) = pending.iter().position(|(id, _)| *id == output.request_id) {
                ready.push((pending.swap_remove(pos).1, output));
            }
        }
        // Publish the post-step snapshot BEFORE answering the in-flight
        // replies: anyone who has received a completion must find it
        // already reflected in the published stats. Replies that export
        // nothing leave first, so no other request's token waits for a
        // stub's export copy; the exports still run before the next
        // admission can reuse their blocks.
        *stats.lock() = snapshot_stats(&engine, finished_total);
        ready.sort_by_key(|(admitted, _)| admitted.export.is_some());
        for (admitted, output) in ready {
            let (reply, replied) = admitted.reply(&engine, output);
            let _ = reply.send(Ok(replied));
        }
    }
    *stats.lock() = snapshot_stats(&engine, finished_total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use vllm_core::mock::MockExecutor;
    use vllm_core::{CacheConfig, FaultControls, FaultInjector, SchedulerConfig};

    fn small_engine() -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(4, 64, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 256).unwrap();
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    fn request(id: &str, max_tokens: usize) -> Submission {
        long_request(id, vec![1, 2, 3, 4, 5], max_tokens)
    }

    fn long_request(id: &str, prompt: Vec<u32>, max_tokens: usize) -> Submission {
        Submission::new(id, prompt, GenerationRequest::greedy(max_tokens))
    }

    /// Submits `job` and waits for its reply.
    fn run(replica: &Replica, job: Submission) -> EngineReply {
        let (reply, rx) = mpsc::channel();
        replica.submit(job, reply).expect("accepting");
        rx.recv().expect("one reply")
    }

    #[test]
    fn replica_serves_and_publishes_stats() {
        let replica = Replica::spawn(0, small_engine());
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r0", 4), reply_tx)
            .expect("accepting");
        let out = reply_rx.recv().expect("one reply").expect("success");
        assert_eq!(out.output.request_id, "r0");
        assert_eq!(out.output.outputs.len(), 1);
        assert!(!out.installed && out.exported.1.is_empty());
        // The published snapshot catches up with the completion.
        for _ in 0..200 {
            if replica.stats().finished == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(replica.stats().finished, 1);
        assert!(replica.stats().total_blocks > 0);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let replica = Replica::spawn(0, small_engine());
        let mut replies = Vec::new();
        for i in 0..4 {
            let (reply_tx, reply_rx) = mpsc::channel();
            let req = long_request(&format!("r{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8], 6);
            replica.submit(req, reply_tx).expect("accepting");
            replies.push(reply_rx);
        }
        // Shut down immediately: every accepted request must still finish.
        replica.begin_shutdown();
        replica.join();
        for rx in replies {
            let out = rx.recv().expect("drained reply").expect("success");
            assert_eq!(out.output.outputs.len(), 1);
        }
        assert_eq!(replica.stats().finished, 4);
    }

    #[test]
    fn admission_failure_is_typed() {
        let replica = Replica::spawn(0, small_engine());
        // Empty prompt: admission fails.
        let err = run(
            &replica,
            Submission::new("bad", Vec::new(), GenerationRequest::greedy(4)),
        )
        .unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn bounded_admission_rejects_with_retry_after() {
        // Capacity 1: the second of two quickly submitted long requests is
        // rejected with a retryable backpressure error (timing-dependent
        // which one, so submit enough to guarantee at least one rejection).
        let replica = Replica::spawn_with_capacity(0, small_engine(), 1);
        let mut replies = Vec::new();
        for i in 0..6 {
            let (reply_tx, reply_rx) = mpsc::channel();
            let req = long_request(&format!("r{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8], 32);
            replica.submit(req, reply_tx).expect("accepting");
            replies.push(reply_rx);
        }
        replica.begin_shutdown();
        replica.join();
        let results: Vec<EngineReply> = replies.iter().map(|rx| rx.recv().unwrap()).collect();
        let rejected: Vec<&VllmError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert!(!rejected.is_empty(), "expected at least one rejection");
        for e in rejected {
            assert!(matches!(e, VllmError::Rejected { .. }));
            assert!(e.is_retryable());
            assert!(e.retry_after().unwrap() > 0.0);
        }
        // Every request got exactly one reply (completed or rejected).
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn injected_kill_answers_inflight_with_retryable_error() {
        let replica = Replica::spawn(0, small_engine());
        let mut replies = Vec::new();
        for i in 0..3 {
            let (reply_tx, reply_rx) = mpsc::channel();
            let req = long_request(&format!("r{i}"), vec![1, 2, 3, 4, 5, 6, 7, 8], 64);
            replica.submit(req, reply_tx).expect("accepting");
            replies.push(reply_rx);
        }
        replica.inject_kill();
        replica.join();
        assert!(replica.is_killed());
        // Every reply arrives: either the request finished before the kill
        // landed, or it carries a retryable unavailability error.
        for rx in replies {
            match rx.recv().expect("reply delivered") {
                Ok(out) => assert_eq!(out.output.outputs.len(), 1),
                Err(e) => assert!(e.is_retryable()),
            }
        }
    }

    #[test]
    fn idle_replica_wakes_on_arrival_not_on_a_timer() {
        // 200 back-to-back control-plane round trips (installing an empty
        // run: the cheapest command) against an idle engine loop. When the
        // loop slept out a 1 ms tick between looks at its channel this took
        // over 200 ms; woken by the arrival it is thread hand-offs only.
        let replica = Replica::spawn(0, small_engine());
        assert!(replica.install_kv(Vec::new(), Vec::new()).is_ok()); // loop is up
        let start = std::time::Instant::now();
        for _ in 0..200 {
            assert!(replica.install_kv(Vec::new(), Vec::new()).is_ok());
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "200 idle round trips took {elapsed:?}"
        );
    }

    #[test]
    fn fused_submissions_hand_kv_across_replicas() {
        // A stub exports its cut in the reply that carries its output, and
        // a submission to another replica installs it before admission: the
        // §4.4 handoff as two replica messages, with nothing to release on
        // either side.
        let src = Replica::spawn(0, small_engine());
        let dst = Replica::spawn(1, small_engine());
        let tokens: Vec<u32> = (1..=32).collect();
        let mut prompt = tokens.clone();
        prompt.extend([100, 101, 102]);
        let job = |id: &str, prompt: &[u32], install: Option<KvInstall>, export: &[u32]| {
            let mut job = Submission::new(id, prompt.to_vec(), GenerationRequest::greedy(4));
            job.install = install;
            job.export = Some(export.to_vec()).filter(|t| !t.is_empty());
            job
        };
        let install = |(tokens, blocks): PrefixKv| {
            let required = true;
            Some(KvInstall {
                tokens,
                blocks,
                required,
            })
        };
        let warm = run(&src, job("warm", &prompt, None, &tokens)).expect("success");
        assert!(!warm.installed);
        assert_eq!(warm.exported.0, tokens);
        assert_eq!(warm.exported.1.len(), 8); // 32 tokens / block size 4.
        let out = run(&dst, job("r0", &prompt, install(warm.exported), &[])).expect("success");
        assert!(out.installed);
        assert_eq!(out.output.outputs.len(), 1);
        // The request mapped the installed prefix, and the installed blocks
        // were free all along.
        for _ in 0..200 {
            if dst.stats().finished == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(dst.stats().free_blocks, dst.stats().total_blocks);
        let hit = dst.telemetry().registry().snapshot();
        assert_eq!(hit.counter("vllm_cache_prefix_hit_tokens_total"), Some(32));
        // A sender that knows what a replica holds ships only the tail: the
        // last two blocks of a ten-block run extending the eight above.
        let mut longer = tokens.clone();
        longer.extend(200..208);
        let mut longer_prompt = longer.clone();
        longer_prompt.push(300);
        let (_, mut blocks) = run(&src, job("longer", &longer_prompt, None, &longer))
            .expect("success")
            .exported;
        let tail = blocks.split_off(8);
        let shipped = (longer.clone(), tail.clone());
        let out = run(&dst, job("r1", &longer_prompt, install(shipped), &longer));
        let out = out.expect("success");
        assert!(out.installed);
        assert_eq!(out.exported.0, longer, "the whole run is resident");
        // r1 mapped all ten blocks (40 tokens) instead of computing the
        // tail: the shipped blocks landed.
        let hit = dst.telemetry().registry().snapshot();
        assert_eq!(hit.counter("vllm_cache_prefix_hit_tokens_total"), Some(72));
        // A tail whose prefix is not there (the sender's view was stale) is
        // refused whole and for good: the request runs without it. More
        // blocks than tokens is malformed; the bare install reports it.
        let mut unknown = longer.clone();
        unknown[0] = 999;
        let stale = job(
            "r2",
            &unknown,
            install((unknown.clone(), tail.clone())),
            &[],
        );
        let out = run(&dst, stale).expect("admitted without the prefix");
        assert!(!out.installed);
        let refused = dst.install_kv(tokens[..4].to_vec(), tail);
        assert!(!refused.expect_err("malformed").is_retryable());
        // Both commands against a dead replica degrade to a retryable error.
        src.inject_kill();
        src.join();
        assert!(src
            .install_kv(Vec::new(), Vec::new())
            .unwrap_err()
            .is_retryable());
        let (reply, _rx) = mpsc::channel();
        assert!(src.submit(job("late", &prompt, None, &[]), reply).is_err());
    }

    #[test]
    fn step_error_degrades_without_killing_the_loop() {
        let controls = FaultControls::new();
        let cache = CacheConfig::new(4, 64, 16).unwrap();
        let sched = SchedulerConfig::new(512, 16, 256).unwrap();
        let engine = LlmEngine::new(
            FaultInjector::new(MockExecutor::new(1000), Arc::clone(&controls)),
            cache,
            sched,
        );
        let replica = Replica::spawn(0, engine);

        // First request hits an injected forward fault.
        controls.fail_next_forwards(1);
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r0", 4), reply_tx)
            .expect("accepting");
        let err = reply_rx.recv().expect("reply").unwrap_err();
        assert!(err.is_retryable());

        // The loop survived: a follow-up request completes normally.
        let (reply_tx, reply_rx) = mpsc::channel();
        replica
            .submit(request("r1", 4), reply_tx)
            .expect("accepting");
        let out = reply_rx.recv().expect("reply").expect("success");
        assert_eq!(out.output.request_id, "r1");
        assert_eq!(out.output.outputs.len(), 1);
    }

    #[test]
    fn stats_equal_the_registry() {
        use vllm_core::{PreemptionMode, SamplingParams};
        // Swap preemption, a compaction mid-run, and eager forks: block
        // sharing off, so every fork copies its parent's blocks.
        let cache = CacheConfig::new(4, 16, 32)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched = SchedulerConfig::new(512, 16, 256)
            .unwrap()
            .with_preemption_mode(PreemptionMode::Swap);
        let mut e = LlmEngine::new(MockExecutor::new(1000), cache, sched);
        e.set_block_sharing(false);
        e.add_request("a", (0..6).collect(), SamplingParams::parallel(3, 12))
            .unwrap();
        e.add_request("b", (10..18).collect(), SamplingParams::greedy(12))
            .unwrap();
        e.add_request("c", (20..27).collect(), SamplingParams::parallel(2, 10))
            .unwrap();
        for step in 0.. {
            if !e.has_unfinished() {
                break;
            }
            if step == 6 {
                e.compact_pools().unwrap();
            }
            e.step().unwrap();
        }

        let stats = snapshot_stats(&e, 0);
        let snap = e.metrics_snapshot();
        let counter = |name: &str| snap.counter(name).expect(name);
        let sum = |name: &str| snap.histogram(name).expect(name).sum;
        assert!(
            stats.preemptions > 0 && stats.blocks_swapped > 0,
            "{stats:?}"
        );
        assert!(
            stats.blocks_copied > 0,
            "eager forks copy blocks: {stats:?}"
        );
        assert_eq!(stats.steps, counter("vllm_engine_steps_total"));
        assert_eq!(
            stats.tokens_scheduled,
            counter("vllm_engine_tokens_scheduled_total")
        );
        assert_eq!(
            stats.preemptions,
            counter("vllm_scheduler_preemptions_total")
        );
        assert_eq!(
            stats.blocks_copied,
            counter("vllm_block_manager_cow_copies_total")
        );
        assert_eq!(
            stats.blocks_swapped,
            counter("vllm_block_manager_swapped_in_blocks_total")
                + counter("vllm_block_manager_swapped_out_blocks_total")
        );
        assert_eq!(stats.schedule_time, sum("vllm_step_schedule_seconds"));
        assert_eq!(stats.prepare_time, sum("vllm_step_prepare_seconds"));
        assert_eq!(stats.execute_time, sum("vllm_step_execute_seconds"));
        assert_eq!(stats.postprocess_time, sum("vllm_step_postprocess_seconds"));
    }
}
