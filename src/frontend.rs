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
//! <- HANDOFF\treplica=<i>\tprefix=<id>\tblocks=<n>
//! -> TIER                                      shared prefix-tier snapshot
//! <- TIER\tentries=..\tblocks=..\tcapacity=..\thits=..\t...
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
//! # Disaggregated serving
//!
//! [`Server::spawn_cluster`] takes a typed [`ClusterConfig`]: per-replica
//! roles (prefill / decode / unified), the admission bound, and the shared
//! prefix-tier capacity. In a disaggregated fleet, a greedy single-sequence
//! `GENERATE` runs in two phases:
//!
//! 1. **Prefill**: the router places the request on a prefill replica
//!    (prefix-affinity over the prefill pool). The longest block-aligned
//!    strict prefix of the prompt is made resident first — installed from
//!    the cluster-shared [`PrefixTier`] when published there (skipping the
//!    prompt recompute fleet-wide), registered otherwise — and a 1-token
//!    stub computes the prompt phase plus the first sampled token (TTFT).
//! 2. **Handoff + decode**: the covered prefix is exported as serialized
//!    KV blocks, published to the tier, round-tripped through the
//!    [`HandoffPayload`] wire codec, and installed into a decode replica
//!    (journaled as `CacheOps` installs); the request resumes there with
//!    the stub token appended, and the streams are stitched. `handoff`/
//!    `handoff.{export,transfer,install}` spans land on the cluster track;
//!    `vllm_cluster_handoff*_total` counters track volume and retries.
//!
//! Non-greedy, multi-sequence, and single-token requests run entirely on
//! the prefill pool. If every decode replica is dead, `route_decode` spills
//! the token loop back onto the surviving replicas — degraded beats
//! dropped. Retryable failures in either phase restart the whole flow on a
//! fresh route (the stub re-runs; nothing was delivered, so the client
//! still sees exactly-once).
//!
//! `SHUTDOWN` stops accepting connections and drains: every accepted
//! request finishes before the engine threads exit. Dropping the
//! [`Server`] handle has the same semantics. The `GENERATE` path retries
//! retryable failures up to a small bound with capped exponential backoff,
//! re-routing each attempt; engine threads batch concurrent requests
//! through the normal scheduler.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vllm_cluster::{
    aggregate_stats, merge_labeled, EngineRequest, PrefixOp, PrefixReply, PrefixTier, Replica,
    ReplicaSnapshot, Router,
};
use vllm_core::telemetry::{
    spans_to_json, trace_seed, Counter, EventQuery, Span, Telemetry, TraceContext,
};
use vllm_core::{
    chunk_hashes, ElasticConfig, ElasticController, EngineLoad, GenerationMode, GenerationRequest,
    HandoffPayload, KvBlockBytes, LlmEngine, ModelExecutor, PrefixId, RequestOutput, VllmError,
};
use vllm_model::ByteTokenizer;

use crate::protocol::{
    negotiate, Command, GenerateSpec, MetricsFormat, Response, TierSnapshot, PROTOCOL_VERSION,
};

pub use vllm_cluster::{ClusterConfig, EngineStats, ReplicaRole, RoutePolicy};

/// The frontend's handoff instruments, registered on the cluster registry.
struct HandoffMetrics {
    /// Completed prefill→decode handoffs.
    handoffs: Counter,
    /// KV blocks shipped across handoffs.
    blocks: Counter,
    /// Handoff attempts that failed and were retried on a fresh route.
    retries: Counter,
}

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
    /// Capacity the tier was built with (for the `TIER` snapshot).
    tier_capacity: usize,
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
    /// empty, or the config names a different replica count.
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
            .enumerate()
            .map(|(i, mut e)| {
                // Opt-in elastic pool control: any VLLM_ELASTIC_* variable
                // attaches the hysteresis controller to every replica.
                if let Ok(Some(cfg)) =
                    ElasticConfig::enabled_from_env(e.cache_config().num_gpu_blocks)
                {
                    e.set_elastic(Some(ElasticController::new(cfg)));
                }
                Replica::spawn_with_capacity(i, e, max_inflight)
            })
            .collect();
        let cluster_telemetry = Arc::new(Telemetry::new());
        let mut router = Router::new(cfg.router, replicas.len());
        router.attach_telemetry(&cluster_telemetry);
        router.set_roles(cfg.roles.clone());
        let tier = (cfg.prefix_tier_blocks > 0).then(|| {
            let mut t = PrefixTier::new(cfg.prefix_tier_blocks, block_size);
            t.attach_telemetry(&cluster_telemetry);
            Mutex::new(t)
        });
        let r = cluster_telemetry.registry();
        let handoff = HandoffMetrics {
            handoffs: r.counter(
                "vllm_cluster_handoffs_total",
                "Prefill→decode KV handoffs completed by the frontend.",
            ),
            blocks: r.counter(
                "vllm_cluster_handoff_blocks_total",
                "KV blocks shipped across frontend handoffs.",
            ),
            retries: r.counter(
                "vllm_cluster_handoff_retries_total",
                "Handoff attempts retried on a fresh route.",
            ),
        };
        let shared = Arc::new(Shared {
            replicas,
            router: Mutex::new(router),
            cluster_telemetry,
            roles: cfg.roles.clone(),
            tier,
            tier_capacity: cfg.prefix_tier_blocks,
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
        req.seed = Some(fnv(request_id.as_bytes()));
    }
    req = req.with_eos(vllm_model::EOS);
    // Validate now so protocol errors surface before routing; the replica
    // converts again on admission.
    req.sampling_params()?;
    Ok((ByteTokenizer.encode(&spec.prompt), req))
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// Placement attempts per `GENERATE` request before the typed error is
/// surfaced to the client.
const MAX_SUBMIT_ATTEMPTS: u32 = 4;

/// Submits one request to `replica` and blocks for the reply. A replica
/// that proves dead (its loop exited, or its reply channel dropped) is
/// reported to the router so subsequent routes avoid it.
fn await_reply(
    shared: &Shared,
    replica: usize,
    engine_id: String,
    prompt: Vec<u32>,
    request: GenerationRequest,
) -> Result<RequestOutput, VllmError> {
    let (reply_tx, reply_rx) = mpsc::channel();
    let sent = shared.replicas[replica].submit(EngineRequest {
        request_id: engine_id,
        prompt,
        request,
        reply: reply_tx,
    });
    if sent.is_err() {
        // The loop is gone: killed, or the server is draining.
        shared.router.lock().mark_dead(replica);
        return Err(VllmError::Unavailable("replica not accepting work".into()));
    }
    match reply_rx.recv() {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => {
            if e.is_retryable() && shared.replicas[replica].is_killed() {
                shared.router.lock().mark_dead(replica);
            }
            Err(e)
        }
        Err(_) => {
            // Reply channel dropped without an answer: replica died.
            shared.router.lock().mark_dead(replica);
            Err(VllmError::Unavailable("replica dropped the request".into()))
        }
    }
}

/// Capped exponential backoff before retry `attempt + 1`, seeded by the
/// error's own hint.
fn backoff(err: &VllmError, attempt: u32) {
    let base = err.retry_after().unwrap_or(0.01);
    let delay = (base * f64::from(1u32 << attempt)).min(0.2);
    std::thread::sleep(Duration::from_secs_f64(delay));
}

/// Routes and submits one request, retrying retryable failures on a fresh
/// route with capped exponential backoff; each retry increments
/// `vllm_cluster_retries_total`.
fn submit_with_retry(
    shared: &Shared,
    request_id: &str,
    prompt: Vec<u32>,
    request: &GenerationRequest,
) -> Result<RequestOutput, VllmError> {
    let hashes = chunk_hashes(&prompt, shared.block_size);
    // Root trace context: adopt the client's (`trace=` field) or mint one
    // from the request id. Each placement attempt gets a sibling child
    // context so retries show up side by side under one root in the tree.
    let root = request
        .trace
        .unwrap_or_else(|| TraceContext::mint(trace_seed(request_id), true));
    let mut last_err: Option<VllmError> = None;
    for attempt in 0..MAX_SUBMIT_ATTEMPTS {
        let replica = {
            let snaps = shared.snapshots();
            shared.router.lock().route(&hashes, &snaps).replica
        };
        // A fresh engine-side id per attempt keeps retries from colliding
        // with stale state on a previously tried replica.
        let engine_id = if attempt == 0 {
            request_id.to_string()
        } else {
            format!("{request_id}.{attempt}")
        };
        let mut attempt_request = request.clone();
        attempt_request.trace = Some(root.child(100 + u64::from(attempt) * 8 + 1));
        match await_reply(shared, replica, engine_id, prompt.clone(), attempt_request) {
            Ok(out) => return Ok(out),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                shared.router.lock().record_retry();
                backoff(&e, attempt);
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| VllmError::Unavailable("retries exhausted".into())))
}

/// Whether a request takes the two-phase prefill→decode path: the fleet is
/// role-specialized and the request is a greedy single-sequence multi-token
/// generation (the shape whose first-token/decode split is well defined —
/// everything else runs entirely on the prefill pool).
fn wants_handoff(shared: &Shared, request: &GenerationRequest) -> bool {
    shared.disaggregated
        && request.mode == GenerationMode::Greedy
        && request.n == 1
        && request.max_tokens > 1
}

/// What the prefill replica holds pinned before its stub runs.
struct PrefillPrefix {
    id: PrefixId,
    /// The tier entry's data when the prefix came from the shared tier
    /// (`None` when it was registered fresh and must be exported after the
    /// stub computes it).
    tier: Option<(Vec<u32>, Vec<KvBlockBytes>)>,
}

/// Makes `want` (a block-aligned strict prefix of the prompt) resident on
/// `replica`: installed from the cluster-shared tier on a published hit
/// (skipping the recompute), registered fresh otherwise. Returns `None` on
/// failure — callers degrade to running the full prompt phase.
fn install_tier_prefix(shared: &Shared, replica: usize, want: &[u32]) -> Option<PrefillPrefix> {
    if let Some(tier) = &shared.tier {
        // Pin the entry only across the clone; the replica install works on
        // the copy, so eviction afterwards is safe.
        let hit = {
            let mut t = tier.lock();
            t.lookup(want).map(|key| {
                t.acquire(key);
                let e = t.get(key).expect("acquired tier entry");
                let data = (e.tokens.clone(), e.blocks.clone());
                t.release(key);
                data
            })
        };
        if let Some((tokens, blocks)) = hit {
            if let Ok(PrefixReply::Installed { id }) =
                shared.replicas[replica].prefix_op(PrefixOp::Install {
                    tokens: tokens.clone(),
                    blocks: blocks.clone(),
                })
            {
                return Some(PrefillPrefix {
                    id,
                    tier: Some((tokens, blocks)),
                });
            }
        }
    }
    match shared.replicas[replica].prefix_op(PrefixOp::Register {
        tokens: want.to_vec(),
    }) {
        Ok(PrefixReply::Registered { id }) => Some(PrefillPrefix { id, tier: None }),
        _ => None,
    }
}

/// Best-effort release of a pinned prefix — the target may have died, which
/// the enclosing retry loop handles separately.
fn release_prefix_quiet(shared: &Shared, replica: usize, id: PrefixId) {
    let _ = shared.replicas[replica].prefix_op(PrefixOp::Release { id });
}

/// Runs one request through the two-phase disaggregated flow, retrying the
/// whole flow on retryable failures. Each failed attempt increments
/// `vllm_cluster_handoff_retries_total` and re-routes from scratch; nothing
/// was delivered, so the client still sees exactly-once.
fn submit_disaggregated(
    shared: &Shared,
    request_id: &str,
    prompt: &[u32],
    request: &GenerationRequest,
) -> Result<RequestOutput, VllmError> {
    let hashes = chunk_hashes(prompt, shared.block_size);
    let root = request
        .trace
        .unwrap_or_else(|| TraceContext::mint(trace_seed(request_id), true));
    let mut last_err: Option<VllmError> = None;
    for attempt in 0..MAX_SUBMIT_ATTEMPTS {
        match handoff_attempt(shared, request_id, prompt, request, &hashes, root, attempt) {
            Ok(out) => return Ok(out),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                shared.handoff.retries.inc();
                shared.router.lock().record_retry();
                backoff(&e, attempt);
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| VllmError::Unavailable("retries exhausted".into())))
}

/// One attempt of the disaggregated flow: prefill stub (prompt phase plus
/// the first sampled token — TTFT — on a prefill replica), KV export and
/// tier publication, wire-codec round trip, install on a decode replica,
/// decode continuation, stitch. Greedy continuation from `prompt + [t0]`
/// makes the stitched stream token-identical to a unified run.
fn handoff_attempt(
    shared: &Shared,
    request_id: &str,
    prompt: &[u32],
    request: &GenerationRequest,
    hashes: &[u64],
    root: TraceContext,
    attempt: u32,
) -> Result<RequestOutput, VllmError> {
    let bs = shared.block_size;
    // Longest block-aligned STRICT prefix of the prompt: the prefix pool
    // only matches prompts longer than the prefix, and `prompt + [t0]` on
    // the decode side is longer still, so one cut serves both phases.
    let keep = ((prompt.len() - 1) / bs) * bs;

    // Phase 1: prefill. Prefix-affinity routing over the prefill pool.
    let prefill = {
        let snaps = shared.snapshots();
        shared.router.lock().route(hashes, &snaps).replica
    };
    let prefix = if keep > 0 {
        install_tier_prefix(shared, prefill, &prompt[..keep])
    } else {
        None
    };
    let stub_id = if attempt == 0 {
        request_id.to_string()
    } else {
        format!("{request_id}.p{attempt}")
    };
    let mut stub_req = request.clone();
    stub_req.max_tokens = 1;
    stub_req.trace = Some(root.child(100 + u64::from(attempt) * 8 + 1));
    let stub_started = shared.started.elapsed().as_secs_f64();
    let stub = match await_reply(shared, prefill, stub_id, prompt.to_vec(), stub_req) {
        Ok(out) => out,
        Err(e) => {
            if let Some(p) = &prefix {
                release_prefix_quiet(shared, prefill, p.id);
            }
            return Err(e);
        }
    };
    let first = stub.outputs.first().and_then(|c| c.tokens.first()).copied();
    let stub_logprob = stub
        .outputs
        .first()
        .map(|c| c.cumulative_logprob)
        .unwrap_or_default();
    let done = match first {
        // No token sampled (deadline hit at admission): the stub result is
        // the whole answer. EOS first: a unified run stops there too.
        None => true,
        Some(t) => t == vllm_model::EOS,
    };
    if done {
        if let Some(p) = prefix {
            release_prefix_quiet(shared, prefill, p.id);
        }
        return Ok(stub);
    }
    let t0 = first.expect("first token present");

    // Collect the prefix KV for the decode install: already in hand on a
    // tier hit, exported (and published to the tier for the rest of the
    // fleet) otherwise. The prefill pin is dropped either way — the tier
    // and the payload own copies.
    let mut kv: Option<(Vec<u32>, Vec<KvBlockBytes>)> = None;
    if let Some(p) = prefix {
        if let Some(data) = p.tier {
            kv = Some(data);
        } else if let Ok(PrefixReply::Exported { tokens, blocks }) =
            shared.replicas[prefill].prefix_op(PrefixOp::Export { id: p.id })
        {
            if let Some(tier) = &shared.tier {
                tier.lock().publish(&tokens, blocks.clone());
            }
            kv = Some((tokens, blocks));
        }
        release_prefix_quiet(shared, prefill, p.id);
    }
    let export_done = shared.started.elapsed().as_secs_f64();

    // Phase 2: ship and decode. The transport is the wire codec — encode,
    // move, decode — so the payload semantics (checksum, validation) are
    // exactly what a remote decode replica would see.
    let payload = kv
        .map(|(tokens, blocks)| {
            let p = HandoffPayload {
                request_id: request_id.to_string(),
                tokens,
                first_token: Some(t0),
                seed: request.seed.unwrap_or_default(),
                block_size: bs,
                blocks,
            };
            HandoffPayload::decode_wire(&p.encode_wire())
        })
        .transpose()?;
    let decode = {
        let snaps = shared.snapshots();
        shared.router.lock().route_decode(&snaps)
    };
    let mut decode_prefix: Option<PrefixId> = None;
    let mut shipped = (0usize, 0usize); // (blocks, kv_bytes)
    if let Some(p) = &payload {
        match shared.replicas[decode].prefix_op(PrefixOp::Install {
            tokens: p.tokens.clone(),
            blocks: p.blocks.clone(),
        }) {
            Ok(PrefixReply::Installed { id }) => {
                decode_prefix = Some(id);
                shipped = (p.blocks.len(), p.kv_bytes());
            }
            // A dying decode target mid-transfer restarts the whole flow
            // (exactly-once: nothing reached the client yet). Non-retryable
            // install failures degrade — the decode replica recomputes.
            Err(e) if e.is_retryable() => return Err(e),
            _ => {}
        }
    }
    let install_done = shared.started.elapsed().as_secs_f64();

    let mut dprompt = prompt.to_vec();
    dprompt.push(t0);
    let mut dreq = request.clone();
    dreq.max_tokens = request.max_tokens - 1;
    dreq.trace = Some(root.child(100 + u64::from(attempt) * 8 + 2));
    let result = await_reply(
        shared,
        decode,
        format!("{request_id}.d{attempt}"),
        dprompt,
        dreq,
    );
    if let Some(id) = decode_prefix {
        release_prefix_quiet(shared, decode, id);
    }
    let mut out = result?;

    // Stitch the stub's token back onto the front of the stream.
    match out.outputs.first_mut() {
        Some(c) => {
            c.tokens.insert(0, t0);
            c.cumulative_logprob += stub_logprob;
        }
        None => return Ok(stub), // decode produced nothing; TTFT stands
    }
    record_handoff_spans(
        shared,
        &root.child(200 + u64::from(attempt)),
        decode,
        shipped,
        (stub_started, export_done, install_done),
    );
    shared.handoff.handoffs.inc();
    shared.handoff.blocks.inc_by(shipped.0 as u64);
    Ok(out)
}

/// Records the handoff span tree on the cluster telemetry track (the same
/// scheme the fault harness uses): a `handoff` parent under the request
/// root with `handoff.{export,transfer,install}` children.
fn record_handoff_spans(
    shared: &Shared,
    ctx: &TraceContext,
    dst: usize,
    (blocks, kv_bytes): (usize, usize),
    (start, transfer, end): (f64, f64, f64),
) {
    let spans = shared.cluster_telemetry.spans();
    spans.record(Span {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span_id: ctx.parent_span_id,
        name: "handoff".to_string(),
        start,
        end,
        attrs: vec![
            ("dst".to_string(), dst.to_string()),
            ("kv_bytes".to_string(), kv_bytes.to_string()),
            ("blocks".to_string(), blocks.to_string()),
        ],
    });
    let child = |slot: u64, name: &str, s: f64, e: f64| Span {
        trace_id: ctx.trace_id,
        span_id: ctx.child(slot).span_id,
        parent_span_id: ctx.span_id,
        name: name.to_string(),
        start: s,
        end: e,
        attrs: Vec::new(),
    };
    spans.record(child(1, "handoff.export", start, transfer));
    spans.record(child(2, "handoff.transfer", transfer, transfer));
    spans.record(child(3, "handoff.install", transfer, end));
}

/// Installs an operator-shipped `HANDOFF` payload: the KV prefix lands in a
/// decode-capable replica's pool (left pinned — this is deliberate
/// pre-seeding, reclaimed on replica teardown) and is published to the
/// shared tier so prefix-affinity routing and future handoffs reuse it
/// fleet-wide.
fn install_handoff(shared: &Shared, payload: HandoffPayload) -> Result<Response, VllmError> {
    let replica = {
        let snaps = shared.snapshots();
        shared.router.lock().route_decode(&snaps)
    };
    let blocks = payload.blocks.len();
    let reply = shared.replicas[replica].prefix_op(PrefixOp::Install {
        tokens: payload.tokens.clone(),
        blocks: payload.blocks.clone(),
    })?;
    let PrefixReply::Installed { id } = reply else {
        return Err(VllmError::Protocol("unexpected prefix reply".into()));
    };
    if let Some(tier) = &shared.tier {
        tier.lock().publish(&payload.tokens, payload.blocks);
    }
    Ok(Response::Handoff {
        replica,
        prefix: id,
        blocks,
    })
}

/// The `TIER` snapshot: all zeros when the tier is disabled.
fn tier_snapshot(shared: &Shared) -> TierSnapshot {
    match &shared.tier {
        None => TierSnapshot::default(),
        Some(tier) => {
            let t = tier.lock();
            let s = t.stats();
            TierSnapshot {
                entries: t.len(),
                blocks: t.used_blocks(),
                capacity: shared.tier_capacity,
                hits: s.hits,
                misses: s.misses,
                insertions: s.insertions,
                evictions: s.evictions,
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
                let result = build_request(&spec, &request_id).and_then(|(prompt, request)| {
                    if wants_handoff(shared, &request) {
                        submit_disaggregated(shared, &request_id, &prompt, &request)
                    } else {
                        submit_with_retry(shared, &request_id, prompt, &request)
                    }
                });
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
