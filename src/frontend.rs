//! A minimal serving frontend (§5's FastAPI analog): a TCP server speaking
//! wire protocol v2 (see [`crate::protocol`]) in front of one or more
//! [`LlmEngine`] replicas, each running on its own thread behind a
//! cache-aware, role-aware router (`vllm_cluster`).
//!
//! Every inbound line parses into a typed [`Command`]; every reply line is
//! the [`Response::wire`] rendering of a typed [`Response`]. The verbs:
//!
//! ```text
//! -> HELLO\tversion=<n>                        version negotiation
//! <- HELLO\tversion=2                          (or ERR\tprotocol on skew)
//!
//! -> GENERATE\tmax_tokens=<n>\t[n=<n>\t]mode=<mode>[\t<k>=<v>...]\t<prompt>
//! <- OK\t<request_id>\t<num_outputs>
//! <- OUT\t<index>\t<cumulative_logprob>\t<text>      (repeated)
//! <- END
//!    Optional fields: temperature, top_p, seed, deadline, priority, trace —
//!    each validated by the typed `GenerationRequest` builder; unknown keys
//!    are rejected, never swallowed into the prompt. The old positional
//!    form (`GENERATE\t<max_tokens>\t<n>\t<mode>\t...`) is REMOVED in v2
//!    and answered with `ERR\tprotocol\tfalse\t...` naming the replacement.
//!
//! -> STATS                                     aggregated + per-replica
//! <- STATS\t<key=value...>                     (RSTATS\t<i>\t... per
//!                                              replica, then END, when the
//!                                              fleet has more than one)
//!
//! -> METRICS | METRICS\tjson                   telemetry registry
//! -> EVENTS\t<request_id>                      lifecycle replay
//! -> TRACE\t<trace_id>                         span dump (adds a "cluster"
//!                                              track carrying handoff spans)
//! -> HANDOFF\t<payload-hex>                    install serialized KV prefix
//! <- HANDOFF\treplica=<i>\tblocks=<n>
//! -> TIER                                      shared prefix-tier snapshot
//! <- TIER\tblocks=..\tcapacity=..\thits=..\tmisses=..\tinsertions=..\tevictions=..
//!                                              (per-block counts: blocks
//!                                              held, inserted, evicted)
//! -> SHUTDOWN
//! <- OK\tshutdown
//! ```
//!
//! Failed requests get `ERR\t<kind>\t<retryable>\t<message>` with `<kind>`
//! the [`vllm_core::ErrorKind`] wire name (`resource` | `request` |
//! `internal` | `unavailable` | `protocol`); unknown verbs, version
//! mismatches, and the retired positional form map to `protocol` (never
//! retryable). The connection stays usable after every error.
//!
//! # Request flow
//!
//! A `GENERATE` is served by [`RequestFlow`] (`vllm_cluster::flow`), the one
//! state machine that owns every decision of a request's life across
//! replicas; this file is its thread-world driver (`serve`): each effect and
//! command the flow emits is a blocking call on the connection's thread — a
//! router pick under the router lock, a submission round trip over a
//! replica's channel (its install, admission and export ride that one
//! message), a tier lookup or publish under the tier lock, a sleep for a
//! backoff — and a command's answer is fed straight back.
//!
//! [`Server::spawn_cluster`] takes a typed [`ClusterConfig`]: per-replica
//! roles (prefill / decode / unified), the admission bound, and the shared
//! prefix-tier capacity. In a disaggregated fleet, a greedy single-sequence
//! multi-token `GENERATE` runs in two phases:
//!
//! 1. **Prefill**: the router places the request on a prefill replica
//!    (prefix-affinity over the prefill pool). The longest run of leading
//!    blocks of the prompt's longest block-aligned strict prefix
//!    (`handoff_cut`) that the cluster-shared [`PrefixTier`] holds — found
//!    by the walk the replica's own admission uses — rides a 1-token stub
//!    and is installed into the replica's block cache just before the stub
//!    is admitted (skipping that recompute fleet-wide); the stub computes
//!    whatever of the prompt is not cached plus the first sampled token
//!    (TTFT), and the iteration that finishes it exports the cut.
//! 2. **Handoff + decode**: the stub's reply brings the cut as serialized
//!    KV blocks, published to the tier when the lookup missed (the tier
//!    stores blocks, each once), round-tripped through the
//!    [`HandoffPayload`] binary frame, and carried by the decode submission,
//!    which a decode replica installs (journaled as `CacheOps` installs)
//!    and then admits with the stub token appended; the streams are
//!    stitched. Two replica messages in all. `handoff`/
//!    `handoff.{export,transfer,install}` spans land on the cluster track;
//!    `vllm_cluster_handoff*_total` counters track volume and retries.
//!
//! Everything else runs whole on the prefill pool. If every decode replica
//! is dead, `route_decode` spills the token loop back onto the surviving
//! replicas — degraded beats dropped. A retryable failure in either phase
//! restarts the whole flow on a fresh route (nothing was pinned, so there is
//! nothing to give back), up to `MAX_SUBMIT_ATTEMPTS` placements with capped
//! exponential backoff (the stub re-runs; nothing was delivered, so the
//! client still sees exactly-once).
//!
//! `SHUTDOWN` stops accepting connections and drains: every accepted
//! request finishes before the engine threads exit. Dropping the
//! [`Server`] handle has the same semantics. Engine threads batch
//! concurrent requests through the normal scheduler.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vllm_cluster::{
    aggregate_stats, backoff_seconds, merge_labeled, FlowCommand, FlowEffect, FlowInput,
    HandoffMetrics, PrefixTier, Replica, ReplicaSnapshot, RequestFlow, Router, Submission,
    MAX_SUBMIT_ATTEMPTS,
};
use vllm_core::telemetry::{fnv1a, spans_to_json, EventQuery, Span, Telemetry};
use vllm_core::{
    ElasticController, EngineLoad, Env, GenerationRequest, HandoffPayload, LlmEngine,
    ModelExecutor, RequestOutput, VllmError,
};
use vllm_model::ByteTokenizer;

use crate::protocol::{
    negotiate, Command, GenerateSpec, MetricsFormat, Response, TierSnapshot, PROTOCOL_VERSION,
};

pub use vllm_cluster::{ClusterConfig, EngineStats, ReplicaRole, RoutePolicy};

/// State shared between the accept loop, connection handlers, and the
/// server handle.
struct Shared {
    replicas: Vec<Replica>,
    router: Mutex<Router>,
    /// Registry holding the router's `vllm_cluster_*` counters, the tier's
    /// instruments, and the handoff span track.
    cluster_telemetry: Arc<Telemetry>,
    /// Per-replica serving roles (index order).
    roles: Vec<ReplicaRole>,
    /// Cluster-shared CPU prefix tier (`None` when disabled).
    tier: Option<Mutex<PrefixTier>>,
    handoff: HandoffMetrics,
    /// Whether any replica is role-specialized (enables the handoff path).
    disaggregated: bool,
    /// Wall-clock epoch for frontend-side (handoff) span timestamps.
    started: Instant,
    /// KV block size (uniform across replicas; prompt chunk hashing).
    block_size: usize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Where the listener is reachable from this host: shutdown connects
    /// here once to wake the accept loop out of its blocking `accept`.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Raises the shutdown flag and wakes the accept loop, which sleeps in
    /// `accept` rather than polling.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake_addr);
    }

    fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        self.replicas
            .iter()
            .map(|r| {
                let s = r.stats();
                ReplicaSnapshot {
                    load: EngineLoad {
                        waiting: s.waiting,
                        running: s.running,
                        swapped: s.swapped,
                        free_blocks: s.free_blocks,
                        total_blocks: s.total_blocks,
                        outstanding_tokens: s.outstanding_tokens,
                        norm_lat_p50: s.norm_lat_p50,
                    },
                    coverage: r.coverage(),
                }
            })
            .collect()
    }
}

/// Handle to a running frontend server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a single-replica server on `addr` (use port 0 for an
    /// ephemeral port) over the given engine.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot bind.
    pub fn spawn<E>(addr: &str, engine: LlmEngine<E>) -> std::io::Result<Self>
    where
        E: ModelExecutor + Send + 'static,
    {
        Self::spawn_cluster(
            addr,
            vec![engine],
            ClusterConfig::new(1).with_policy(RoutePolicy::RoundRobin),
        )
    }

    /// Starts a server routing across one engine replica per element of
    /// `engines`, wired by the typed fleet builder: routing policy,
    /// per-replica roles (a disaggregated fleet enables the KV-handoff
    /// path), admission bound, and shared prefix-tier capacity. Layer
    /// `VLLM_REPLICA_ROLES` / `VLLM_PREFIX_TIER_BLOCKS` on with
    /// [`ClusterConfig::with_env`]. All replicas must share a block size
    /// (prompt chunk hashes are computed once).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot bind, `engines` is
    /// empty, the config names a different replica count, or the
    /// `VLLM_ELASTIC_*` variables describe no valid controller for some
    /// replica's pool.
    pub fn spawn_cluster<E>(
        addr: &str,
        engines: Vec<LlmEngine<E>>,
        cfg: ClusterConfig,
    ) -> std::io::Result<Self>
    where
        E: ModelExecutor + Send + 'static,
    {
        if engines.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "server needs at least one engine replica",
            ));
        }
        if cfg.num_replicas() != engines.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "cluster config names {} replicas for {} engines",
                    cfg.num_replicas(),
                    engines.len()
                ),
            ));
        }
        // Opt-in elastic pool control: any VLLM_ELASTIC_* variable attaches
        // the hysteresis controller to every replica, checked against every
        // replica's pool before any replica starts.
        let invalid = |e: VllmError| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        let env = Env::try_global().map_err(invalid)?;
        let elastic = engines
            .iter()
            .map(|e| env.elastic_config(e.cache_config().num_gpu_blocks))
            .collect::<Result<Vec<_>, _>>()
            .map_err(invalid)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut wake_addr = local;
        if local.ip().is_unspecified() {
            wake_addr.set_ip(match local {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let block_size = engines[0].cache_config().block_size;
        let max_inflight = cfg.max_inflight;
        let replicas: Vec<Replica> = engines
            .into_iter()
            .zip(elastic)
            .enumerate()
            .map(|(i, (mut e, elastic))| {
                if let Some(cfg) = elastic {
                    e.set_elastic(Some(ElasticController::new(cfg)));
                }
                Replica::spawn_with_capacity(i, e, max_inflight)
            })
            .collect();
        let cluster_telemetry = Arc::new(env.telemetry());
        let mut router = Router::new(cfg.router, replicas.len());
        router.attach_telemetry(&cluster_telemetry);
        router.set_roles(cfg.roles.clone());
        let tier = (cfg.prefix_tier_blocks > 0).then(|| {
            let tier = PrefixTier::new(cfg.prefix_tier_blocks, block_size, &cluster_telemetry);
            Mutex::new(tier)
        });
        let handoff = HandoffMetrics::attach(&cluster_telemetry);
        let shared = Arc::new(Shared {
            replicas,
            router: Mutex::new(router),
            cluster_telemetry,
            roles: cfg.roles.clone(),
            tier,
            handoff,
            disaggregated: cfg.is_disaggregated(),
            started: Instant::now(),
            block_size,
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            wake_addr,
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The per-replica serving roles, in replica order.
    #[must_use]
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.shared.roles
    }

    /// The latest serving stats, aggregated across replicas (identical to
    /// the single replica's stats when there is only one).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        aggregate_stats(&self.replica_stats())
    }

    /// The latest per-replica stats snapshots, in replica order.
    #[must_use]
    pub fn replica_stats(&self) -> Vec<EngineStats> {
        self.shared.replicas.iter().map(Replica::stats).collect()
    }

    /// The first replica engine's telemetry bundle (metrics registry + event
    /// log), shared with its engine thread.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.shared.replicas[0].telemetry()
    }

    /// Fault injection: kills replica `i` abruptly (no drain) and tells the
    /// router. In-flight requests on the replica are answered with a
    /// retryable error, which the `GENERATE` retry path re-routes to the
    /// surviving replicas.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kill_replica(&self, i: usize) {
        self.shared.replicas[i].inject_kill();
        self.shared.router.lock().mark_dead(i);
    }

    /// Stops the server, drains all accepted requests, and joins its
    /// threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.begin_shutdown();
        // Handlers first: one may still be waiting on an in-flight request,
        // which the (still running) engine loops will deliver.
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Then drain the engines; queued work finishes before the join.
        for r in &self.shared.replicas {
            r.begin_shutdown();
        }
        for r in &self.shared.replicas {
            r.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    // Sleeps in `accept`; `Shared::begin_shutdown` connects once to end it.
    while let Ok((stream, _)) = listener.accept() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let shared = Arc::clone(shared);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &shared);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Converts a parsed [`GenerateSpec`] into prompt tokens plus the validated
/// typed request: seed defaults to a hash of the request id, the model's EOS
/// token is attached, and sampling parameters are checked up front so
/// protocol errors surface before routing.
fn build_request(
    spec: &GenerateSpec,
    request_id: &str,
) -> Result<(Vec<u32>, GenerationRequest), VllmError> {
    let mut req = spec.build()?;
    if req.seed.is_none() {
        req.seed = Some(fnv1a(request_id.as_bytes()));
    }
    req = req.with_eos(vllm_model::EOS);
    // Validate now so protocol errors surface before routing; the replica
    // converts again on admission.
    req.sampling_params()?;
    Ok((ByteTokenizer.encode(&spec.prompt), req))
}

/// The metrics snapshot a `METRICS` query serves: the engine's own registry
/// for a single replica (unlabeled, as before clustering), or the labeled
/// per-replica merge plus the router's counters for a cluster.
fn metrics_snapshot(shared: &Shared) -> vllm_core::telemetry::MetricsSnapshot {
    if shared.replicas.len() == 1 {
        return shared.replicas[0].telemetry().registry().snapshot();
    }
    let parts: Vec<(String, vllm_core::telemetry::MetricsSnapshot)> = shared
        .replicas
        .iter()
        .map(|r| (r.id().to_string(), r.telemetry().registry().snapshot()))
        .collect();
    let mut merged = merge_labeled(&parts);
    merged
        .metrics
        .extend(shared.cluster_telemetry.registry().snapshot().metrics);
    merged.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    merged
}

/// Sends one submission to `replica` and blocks for the reply. A replica
/// that proves dead (its loop exited, or its reply channel dropped) is
/// reported to the router so subsequent routes avoid it.
fn await_reply(shared: &Shared, replica: usize, job: Submission) -> FlowInput {
    let (reply, reply_rx) = mpsc::channel();
    let sent = shared.replicas[replica].submit(job, reply);
    // `None`: the loop is gone (killed, or the server is draining), or its
    // thread died with the reply channel unanswered.
    let Some(reply) = sent.ok().and_then(|()| reply_rx.recv().ok()) else {
        shared.router.lock().mark_dead(replica);
        return FlowInput::ReplicaDied { replica };
    };
    if let Err(e) = &reply {
        if e.is_retryable() && shared.replicas[replica].is_killed() {
            shared.router.lock().mark_dead(replica);
        }
    }
    FlowInput::Reply(reply)
}

/// Runs one request to its single outcome: the thread-world driver of
/// [`RequestFlow`], which owns every decision (two-phase or not, cut, ids,
/// what each submission installs and exports, stitch, retries). Each effect
/// and command is a blocking call on this connection's thread; `Transfer`
/// has nothing left to do because the payload crossed the binary frame
/// inside the flow.
fn serve(
    shared: &Shared,
    request_id: &str,
    prompt: Vec<u32>,
    request: GenerationRequest,
) -> Result<RequestOutput, VllmError> {
    let mut flow = RequestFlow::new(
        request_id,
        prompt,
        request,
        shared.block_size,
        shared.disaggregated,
        MAX_SUBMIT_ATTEMPTS,
    );
    let mut input = FlowInput::Start;
    loop {
        let (effects, cmd) = flow.on(input, shared.started.elapsed().as_secs_f64());
        for effect in effects {
            match effect {
                FlowEffect::PublishTier { tokens, blocks } => {
                    if let Some(tier) = &shared.tier {
                        tier.lock().publish(&tokens, blocks);
                    }
                }
                seen => shared
                    .handoff
                    .observe(shared.cluster_telemetry.spans(), &seen),
            }
        }
        input = match cmd {
            FlowCommand::Route => {
                let snaps = shared.snapshots();
                let replica = flow.route(&mut shared.router.lock(), &snaps);
                FlowInput::Routed { replica }
            }
            FlowCommand::RouteDecode => {
                let snaps = shared.snapshots();
                let replica = flow.route_decode(&mut shared.router.lock(), &snaps);
                FlowInput::Routed { replica }
            }
            FlowCommand::TierLookup { tokens, .. } => {
                FlowInput::Tier(shared.tier.as_ref().and_then(|t| t.lock().fetch(&tokens)))
            }
            FlowCommand::Submit { replica, job } => await_reply(shared, replica, job),
            FlowCommand::Transfer { .. } => FlowInput::Done,
            FlowCommand::Backoff { attempt, hint } => {
                std::thread::sleep(Duration::from_secs_f64(backoff_seconds(attempt, hint)));
                FlowInput::Done
            }
            FlowCommand::Finish(result) => return result,
        };
    }
}

/// Installs an operator-shipped `HANDOFF` payload: the KV prefix lands in
/// free blocks of a decode-capable replica's cache (evictable like anything
/// else cached there — a client can pre-seed a pool, never pin it) and is
/// published to the shared tier so prefix-affinity routing and future
/// handoffs reuse it fleet-wide.
fn install_handoff(shared: &Shared, payload: HandoffPayload) -> Result<Response, VllmError> {
    let replica = {
        let snaps = shared.snapshots();
        shared.router.lock().route_decode(&snaps)
    };
    let blocks = payload.blocks.len();
    shared.replicas[replica].install_kv(payload.tokens.clone(), payload.blocks.clone())?;
    if let Some(tier) = &shared.tier {
        tier.lock().publish(&payload.tokens, payload.blocks);
    }
    Ok(Response::Handoff { replica, blocks })
}

/// The `TIER` snapshot: all zeros when the tier is disabled.
fn tier_snapshot(shared: &Shared) -> TierSnapshot {
    match &shared.tier {
        None => TierSnapshot::default(),
        Some(tier) => {
            let t = tier.lock();
            let m = t.metrics();
            TierSnapshot {
                blocks: t.used_blocks(),
                capacity: t.capacity(),
                hits: m.hits.get(),
                misses: m.misses.get(),
                insertions: m.insertions.get(),
                evictions: m.evictions.get(),
            }
        }
    }
}

/// Appends one protocol line to a reply under construction.
fn push_line(reply: &mut String, line: &str) {
    reply.push_str(line);
    reply.push('\n');
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    // A read timeout lets the handler notice server shutdown even while a
    // client keeps its connection open but idle. Replies are small and the
    // client waits for each one: Nagle's algorithm would only hold them back
    // for the peer's delayed ACK.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let tokenizer = ByteTokenizer;
    // Bytes of the line being received. It lives across read timeouts: a
    // request may arrive in several segments, more than a timeout apart.
    let mut pending = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut pending) {
            Ok(0) => break, // Client closed the connection.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let line = String::from_utf8_lossy(&pending).trim_end().to_string();
        pending.clear();
        if line.is_empty() {
            continue;
        }
        // Every inbound line becomes a typed Command or a typed error; the
        // string form never crosses this point. The whole reply is built
        // first and leaves in one write, so it is one segment on the wire
        // where its size allows.
        let mut reply = String::new();
        let (mut shut_down, mut close) = (false, false);
        match Command::parse(&line) {
            Err(e) => push_line(&mut reply, &Response::from_error(&e).wire()),
            Ok(Command::Hello { version }) => {
                let hello = match negotiate(version) {
                    Ok(v) => Response::Hello { version: v },
                    Err(e) => Response::from_error(&e),
                };
                push_line(&mut reply, &hello.wire());
            }
            Ok(Command::Stats) => {
                let stats = shared
                    .replicas
                    .iter()
                    .map(Replica::stats)
                    .collect::<Vec<_>>();
                push_line(&mut reply, &Response::Stats(aggregate_stats(&stats)).wire());
                if shared.replicas.len() > 1 {
                    for (replica, s) in stats.iter().enumerate() {
                        push_line(&mut reply, &Response::RStats { replica, stats: *s }.wire());
                    }
                    push_line(&mut reply, &Response::End.wire());
                }
            }
            Ok(Command::Metrics(MetricsFormat::Prometheus)) => {
                reply.push_str(&metrics_snapshot(shared).to_prometheus_text());
                push_line(&mut reply, &Response::End.wire());
            }
            Ok(Command::Metrics(MetricsFormat::Json)) => {
                push_line(&mut reply, &metrics_snapshot(shared).to_json());
            }
            Ok(Command::Events { request_id }) => {
                // Distinguish "never seen" from "seen but evicted" across
                // the fleet: any replica with retained events wins;
                // otherwise any eviction marker wins.
                let mut wrote = false;
                let mut evicted = false;
                for r in &shared.replicas {
                    match r.telemetry().events().query(&request_id) {
                        EventQuery::Events(events) => {
                            for ev in events {
                                let event = Response::Event {
                                    time: ev.time,
                                    kind: ev.kind.label().to_string(),
                                    detail: ev.kind.detail(),
                                };
                                push_line(&mut reply, &event.wire());
                            }
                            wrote = true;
                        }
                        EventQuery::Evicted => evicted = true,
                        EventQuery::Unknown => {}
                    }
                }
                if !wrote {
                    push_line(&mut reply, &Response::NoEvents { evicted }.wire());
                }
                push_line(&mut reply, &Response::End.wire());
            }
            Ok(Command::Trace { trace_id }) => {
                let mut tracks: Vec<(String, Vec<Span>)> = shared
                    .replicas
                    .iter()
                    .map(|r| {
                        (
                            format!("replica{}", r.id()),
                            r.telemetry().spans().spans_for_trace(trace_id),
                        )
                    })
                    .collect();
                // Frontend-side handoff spans ride a synthetic track.
                tracks.push((
                    "cluster".to_string(),
                    shared.cluster_telemetry.spans().spans_for_trace(trace_id),
                ));
                tracks.retain(|(_, spans)| !spans.is_empty());
                push_line(&mut reply, &spans_to_json(&tracks).to_string());
            }
            Ok(Command::Handoff(payload)) => {
                let installed = install_handoff(shared, payload);
                let installed = installed.unwrap_or_else(|e| Response::from_error(&e));
                push_line(&mut reply, &installed.wire());
            }
            Ok(Command::Tier) => {
                push_line(&mut reply, &Response::Tier(tier_snapshot(shared)).wire());
            }
            Ok(Command::Shutdown) => {
                push_line(&mut reply, &Response::OkShutdown.wire());
                shut_down = true;
            }
            Ok(Command::Generate(spec)) => {
                let request_id = format!("req-{}", shared.next_id.fetch_add(1, Ordering::SeqCst));
                let result = build_request(&spec, &request_id)
                    .and_then(|(prompt, request)| serve(shared, &request_id, prompt, request));
                match result {
                    Ok(out) => {
                        let ok = Response::Ok {
                            request_id,
                            num_outputs: out.outputs.len(),
                        };
                        push_line(&mut reply, &ok.wire());
                        for (index, c) in out.outputs.iter().enumerate() {
                            let out = Response::Out {
                                index,
                                cumulative_logprob: c.cumulative_logprob,
                                text: tokenizer.decode(&c.tokens).replace(['\t', '\n'], " "),
                            };
                            push_line(&mut reply, &out.wire());
                        }
                        push_line(&mut reply, &Response::End.wire());
                    }
                    Err(e) => {
                        push_line(&mut reply, &Response::from_error(&e).wire());
                        close = shared.shutdown.load(Ordering::SeqCst);
                    }
                }
            }
        }
        writer.write_all(reply.as_bytes())?;
        if shut_down {
            // Acknowledged first, then acted on.
            shared.begin_shutdown();
        }
        if close {
            break;
        }
    }
    Ok(())
}

/// A small blocking client for the frontend protocol (used by tests and the
/// `server` example).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One generation result returned by [`Client::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutput {
    /// Index of the output sequence.
    pub index: usize,
    /// Cumulative log-probability.
    pub cumulative_logprob: f64,
    /// Generated text.
    pub text: String,
}

/// Optional `GENERATE` fields for [`Client::generate_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerateOptions {
    /// Sampling temperature (mode `sample` only).
    pub temperature: Option<f32>,
    /// Nucleus truncation in (0, 1] (mode `sample` only).
    pub top_p: Option<f32>,
    /// Sampling RNG seed (defaults to a hash of the request id).
    pub seed: Option<u64>,
    /// Relative deadline in engine seconds; the server cancels the request
    /// if it is still unfinished when the deadline passes.
    pub deadline: Option<f64>,
    /// Scheduling priority (higher admitted first; default 0).
    pub priority: Option<i32>,
}

impl Client {
    /// Connects to a frontend server.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the connection fails.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One small request, then a wait for its reply: nothing to coalesce.
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line as a single write.
    fn send_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Performs `HELLO` version negotiation and returns the server's
    /// protocol version.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection failure, or `InvalidData` when
    /// the server rejects this client's [`PROTOCOL_VERSION`].
    pub fn hello(&mut self) -> std::io::Result<u32> {
        self.send_line(format!("HELLO\tversion={PROTOCOL_VERSION}"))?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let line = line.trim_end();
        match Response::parse(line) {
            Ok(Response::Hello { version }) => Ok(version),
            Ok(Response::Err { message, .. }) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                message,
            )),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected HELLO reply {line:?}"),
            )),
        }
    }

    /// Sends one generation request and waits for its outputs.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection failure, or `InvalidData` wrapping
    /// a server-side `ERR` message.
    pub fn generate(
        &mut self,
        prompt: &str,
        max_tokens: usize,
        n: usize,
        mode: &str,
    ) -> std::io::Result<Vec<ClientOutput>> {
        self.generate_with(prompt, max_tokens, n, mode, GenerateOptions::default())
    }

    /// Sends one generation request with optional sampling fields and waits
    /// for its outputs.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection failure, or `InvalidData` wrapping
    /// a server-side `ERR` message.
    pub fn generate_with(
        &mut self,
        prompt: &str,
        max_tokens: usize,
        n: usize,
        mode: &str,
        opts: GenerateOptions,
    ) -> std::io::Result<Vec<ClientOutput>> {
        let mut req = format!("GENERATE\tmax_tokens={max_tokens}\tn={n}\tmode={mode}");
        if let Some(t) = opts.temperature {
            req.push_str(&format!("\ttemperature={t}"));
        }
        if let Some(p) = opts.top_p {
            req.push_str(&format!("\ttop_p={p}"));
        }
        if let Some(s) = opts.seed {
            req.push_str(&format!("\tseed={s}"));
        }
        if let Some(d) = opts.deadline {
            req.push_str(&format!("\tdeadline={d}"));
        }
        if let Some(p) = opts.priority {
            req.push_str(&format!("\tpriority={p}"));
        }
        self.send_line(format!("{req}\t{prompt}"))?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let line = line.trim_end();
        if let Some(msg) = line.strip_prefix("ERR\t") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                msg.to_string(),
            ));
        }
        let mut outputs = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                break;
            }
            let line = line.trim_end();
            if line == "END" {
                break;
            }
            if let Some(rest) = line.strip_prefix("OUT\t") {
                let mut f = rest.splitn(3, '\t');
                let index = f.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let cumulative_logprob = f.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
                let text = f.next().unwrap_or_default().to_string();
                outputs.push(ClientOutput {
                    index,
                    cumulative_logprob,
                    text,
                });
            }
        }
        Ok(outputs)
    }

    /// Asks the server to shut down (stop accepting work and drain), and
    /// returns its acknowledgement line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection failure.
    pub fn shutdown_server(&mut self) -> std::io::Result<String> {
        self.send_line("SHUTDOWN".to_string())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
    use vllm_cluster::{EngineReply, KvInstall};
    use vllm_core::mock::MockExecutor;
    use vllm_core::{CacheConfig, SchedulerConfig};

    /// Rounds of the replica-channel stress test.
    const STRESS_ROUNDS: u64 = 10_000;
    /// Bound on any one wait for a reply: a hang fails the test instead.
    const REPLY_BOUND: Duration = Duration::from_secs(10);

    fn mock_engine() -> LlmEngine<MockExecutor> {
        let cache = CacheConfig::new(4, 32, 8).expect("valid cache config");
        let sched = SchedulerConfig::new(256, 8, 128).expect("valid scheduler config");
        LlmEngine::new(MockExecutor::new(1000), cache, sched)
    }

    /// Spins for a round-dependent while, so the racing threads interleave
    /// differently from round to round.
    fn stagger(round: u64, salt: u64) {
        for _ in 0..(round.wrapping_mul(2_654_435_761) ^ salt) % 2_000 {
            std::hint::spin_loop();
        }
    }

    /// Sends `job` to `replica` and waits (bounded) for its one reply.
    /// `None` means the loop was gone and handed the request back — an
    /// answer too. Every receiver is returned for the exactly-once check.
    fn send(
        shared: &Shared,
        replica: usize,
        job: Submission,
        receivers: &mut Vec<Receiver<EngineReply>>,
    ) -> Option<EngineReply> {
        let (reply, rx) = mpsc::channel();
        if shared.replicas[replica].submit(job, reply).is_err() {
            return None;
        }
        let answer = match rx.recv_timeout(REPLY_BOUND) {
            Ok(answer) => answer,
            Err(RecvTimeoutError::Timeout) => panic!("a reply wait hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("a reply sender was dropped unanswered"),
        };
        receivers.push(rx);
        Some(answer)
    }

    /// One client's two-phase request, as two fused submissions: a stub
    /// that exports its cut (and, for odd clients, installs a one-block
    /// run first), then a decode submission that installs the exported run.
    fn two_phase(shared: &Shared, round: u64, client: u64) -> Vec<Receiver<EngineReply>> {
        let mut receivers = Vec::new();
        let prompt: Vec<u32> = (0..9)
            .map(|i| 1 + (round * 7 + client * 13 + i) as u32 % 50)
            .collect();
        let id = format!("r{client}");
        let mut stub = Submission::new(&id, prompt.clone(), GenerationRequest::greedy(1));
        stub.export = Some(prompt[..8].to_vec());
        stub.install = (client % 2 == 1).then(|| KvInstall {
            tokens: prompt[..4].to_vec(),
            blocks: vec![vllm_core::KvBlockBytes::empty()],
            required: false,
        });
        let Some(Ok(stub)) = send(shared, 0, stub, &mut receivers) else {
            return receivers;
        };
        let mut prompt = prompt;
        prompt.push(stub.output.outputs[0].tokens[0]);
        let mut decode = Submission::new(format!("{id}.d"), prompt, GenerationRequest::greedy(3));
        let (tokens, blocks) = stub.exported;
        decode.install = Some(KvInstall {
            tokens,
            blocks,
            required: true,
        });
        send(shared, 1, decode, &mut receivers);
        receivers
    }

    /// Concurrent fused submissions race a replica kill and the server's
    /// shutdown. Every reply sender is answered exactly once, no wait
    /// hangs, and after the drain every replica holds no block.
    #[test]
    #[ignore = "10 000 rounds: its own `scripts/ci.sh` stage runs it in release"]
    fn fused_submissions_race_kill_and_shutdown() {
        for round in 0..STRESS_ROUNDS {
            let engines = vec![mock_engine(), mock_engine()];
            let cfg = ClusterConfig::disaggregated(1, 1);
            let server = Server::spawn_cluster("127.0.0.1:0", engines, cfg).expect("spawn");
            let shared = Arc::clone(&server.shared);
            let receivers: Vec<Receiver<EngineReply>> = std::thread::scope(|s| {
                let shared = &shared;
                let clients: Vec<_> = (0..3)
                    .map(|client| s.spawn(move || two_phase(shared, round, client)))
                    .collect();
                // A third of the rounds kill the prefill replica, a third
                // the decode replica.
                if round % 3 < 2 {
                    s.spawn(|| {
                        stagger(round, 1);
                        let i = (round % 3) as usize;
                        shared.replicas[i].inject_kill();
                        shared.router.lock().mark_dead(i);
                    });
                }
                s.spawn(|| {
                    stagger(round, 2);
                    shared.begin_shutdown();
                    shared.replicas.iter().for_each(Replica::begin_shutdown);
                });
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("client"))
                    .collect()
            });
            server.shutdown();
            for rx in receivers {
                match rx.try_recv() {
                    Err(TryRecvError::Disconnected) => {}
                    other => panic!("round {round}: a second answer or a live sender: {other:?}"),
                }
            }
            for (i, r) in shared.replicas.iter().enumerate() {
                let s = r.stats();
                assert_eq!(
                    s.free_blocks, s.total_blocks,
                    "round {round}: replica {i} holds blocks"
                );
            }
        }
    }
}
