//! One request's life across replicas, as a pure state machine.
//!
//! [`RequestFlow`] owns every *decision* between "a request arrived" and
//! "here is its one reply": whether it takes the two-phase prefill → decode
//! path, the stub and decode request shapes, the block-aligned cut
//! ([`handoff_cut`]), per-attempt engine ids and trace slots, the tier
//! lookup whose hit rides the stub, the export the stub carries and its
//! publish, decode route, which blocks cross (those the decode replica's
//! coverage does not show), their [`HandoffPayload`] wire round trip and the
//! install that rides the decode submission, the stitch of the stub's token
//! and logprob, which failures retry, attempt counting, and the handoff
//! counters and span tree ([`HandoffMetrics`]). A two-phase request is two
//! replica messages — the stub's [`Submission`] and the decode's — and a
//! unified one is one. There is nothing to release on any path: installed
//! and computed KV sits in free blocks of the replica's content-addressed
//! cache (`vllm_core::BlockSpaceManager`).
//!
//! It performs no I/O and reads no clock. [`RequestFlow::on`] takes the
//! answer to the previous [`FlowCommand`] (plus the driver's `now`) and
//! returns the next command, preceded by the [`FlowEffect`]s — work nothing
//! is fed back from — the driver performs first. A driver is the loop
//! "perform the effects, execute the command in my world, feed the answer
//! back" until [`FlowCommand::Finish`]. Two drivers share it, each
//! substituting only its world:
//!
//! | driver | clock | KV bodies | `Submit` | tier | `Transfer` | `Backoff` |
//! |---|---|---|---|---|---|---|
//! | `src/frontend.rs` (threads) | wall seconds | real | one message on the replica's channel: its loop installs, admits, and exports in the iteration that finishes the request | shared, locked | nothing to do: the payload already crossed the codec | sleeps `hint·2^attempt`, capped |
//! | [`Fleet`](crate::Fleet) (one event loop) | the request's own virtual cursor on the fleet clock (cost-model seconds, or lockstep steps) | cost-model or mock engine, empty-bodied | parks at the cursor; installs and admits when woken, exports when the step that finishes it ends | its own; a hit advances the cursor by the fetch's [`FleetTime::transfer_time`](crate::FleetTime::transfer_time) | parks for the transfer time, then `ReplicaDied` if the target is down | parks for [`FleetTime::backoff_time`](crate::FleetTime::backoff_time) |
//!
//! The transition table — the specification the drivers and
//! `tests/flow_exhaustive.rs` share — is in DESIGN.md §14.

use vllm_core::telemetry::{trace_seed, Counter, Span, SpanLog, Telemetry, TraceContext};
use vllm_core::{
    chunk_hashes, GenerationMode, GenerationRequest, HandoffPayload, KvBlockBytes, RequestOutput,
    TokenId, VllmError,
};

use crate::replica::{KvInstall, Replied, Submission};
use crate::router::{covered_chunks, ReplicaSnapshot, Router};

/// Tokens of the longest block-aligned *strict* prefix of a prompt: what the
/// prefill replica exports once the stub has run and what crosses to the
/// decode replica. Strict because admission maps at most that many cached
/// tokens, so a request always keeps at least one row to compute — and
/// `prompt + [t0]` on the decode side is longer still, so one cut serves
/// both phases.
#[must_use]
pub fn handoff_cut(prompt_len: usize, block_size: usize) -> usize {
    (prompt_len.saturating_sub(1) / block_size) * block_size
}

/// Placements a driver (the serving frontend, the fleet) allows one request
/// before its failure is terminal.
pub const MAX_SUBMIT_ATTEMPTS: u32 = 4;

/// Seconds a wall-clock or cost-model driver waits on
/// [`FlowCommand::Backoff`]: capped exponential backoff seeded by the
/// error's own hint.
#[must_use]
pub fn backoff_seconds(attempt: u32, hint: Option<f64>) -> f64 {
    (hint.unwrap_or(0.01) * f64::from(1u32 << attempt)).min(0.2)
}

/// A prefix's tokens and its serialized KV, one entry per block.
pub type PrefixKv = (Vec<TokenId>, Vec<KvBlockBytes>);

/// The answer to the previous [`FlowCommand`].
#[derive(Debug, Clone)]
pub enum FlowInput {
    /// Begins the flow (the only input not answering a command).
    Start,
    /// Answers `Route` / `RouteDecode`.
    Routed {
        /// The chosen replica.
        replica: usize,
    },
    /// Answers `TierLookup`: the longest run of the tokens' leading blocks
    /// the tier holds, or a miss (also the answer of a driver with no tier).
    Tier(Option<PrefixKv>),
    /// Answers `Submit`: the finished output with its install and export
    /// outcomes, or the typed failure.
    Reply(Result<Replied, VllmError>),
    /// Answers `Transfer` and `Backoff`: the wait is over.
    Done,
    /// Answers any command addressed to `replica`: it is gone, and the
    /// attempt fails as retryable.
    ReplicaDied {
        /// The dead replica.
        replica: usize,
    },
}

/// What the driver must do next, and answer.
#[derive(Debug, Clone)]
pub enum FlowCommand {
    /// Pick a prefill-capable replica: [`RequestFlow::route`].
    Route,
    /// Pick the decode-capable replica: [`RequestFlow::route_decode`].
    RouteDecode,
    /// Fetch the longest run of `tokens`' leading blocks the shared tier
    /// holds, for `replica`.
    TierLookup {
        /// The replica that will install the hit.
        replica: usize,
        /// The prompt's cut prefix.
        tokens: Vec<TokenId>,
    },
    /// Move `blocks` KV blocks to the decode `replica`; always followed by
    /// the decode `Submit` whose install lands them.
    Transfer {
        /// Receiving replica.
        replica: usize,
        /// Blocks on the wire.
        blocks: usize,
    },
    /// Send one submission to `replica` and wait for its reply: the
    /// request (engine id unique per attempt and phase, trace context set
    /// per attempt and phase), the KV it installs first, the cut it exports
    /// when it finishes.
    Submit {
        /// Target replica.
        replica: usize,
        /// What the replica runs.
        job: Submission,
    },
    /// A retryable failure ended attempt `attempt`: wait, then answer
    /// `Done`. Mapping `attempt` and `hint` to seconds or steps is the
    /// driver's.
    Backoff {
        /// The attempt that failed (0-based).
        attempt: u32,
        /// The error's own `retry_after`, if it carried one.
        hint: Option<f64>,
    },
    /// The request's single terminal outcome.
    Finish(Result<RequestOutput, VllmError>),
}

/// Work the driver performs, in order, before executing the command it came
/// with. Nothing is fed back.
#[derive(Debug, Clone)]
pub enum FlowEffect {
    /// Publish an exported prefix to the shared tier.
    PublishTier {
        /// Prefix tokens.
        tokens: Vec<TokenId>,
        /// Serialized KV.
        blocks: Vec<KvBlockBytes>,
    },
    /// A handoff attempt failed and will be retried: for
    /// [`HandoffMetrics::observe`].
    HandoffRetry,
    /// A handoff completed: for [`HandoffMetrics::observe`].
    Handoff(HandoffRecord),
}

/// One completed prefill → decode handoff, as the flow saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffRecord {
    /// Span context of the `handoff` span (a sibling of the attempt's stub
    /// and decode spans under the request root).
    pub ctx: TraceContext,
    /// Decode replica.
    pub dst: usize,
    /// KV blocks installed on the decode replica.
    pub blocks: usize,
    /// Their serialized size.
    pub kv_bytes: usize,
    /// Whether the prefill replica installed a tier hit instead of
    /// computing that part of the prompt.
    pub from_tier: bool,
    /// Driver clock at: the stub's reply (its exported run in hand), the
    /// decode replica picked, and the payload at the decode replica — where
    /// the decode submission leaves, carrying the install.
    pub marks: [f64; 3],
}

/// The handoff instruments: one meaning per series, shared by every driver.
#[derive(Debug)]
pub struct HandoffMetrics {
    pub(crate) handoffs: Counter,
    pub(crate) blocks: Counter,
    pub(crate) retries: Counter,
    tier_installs: Counter,
}

impl HandoffMetrics {
    /// Registers the `vllm_cluster_handoff*` series on `telemetry`.
    #[must_use]
    pub fn attach(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        Self {
            handoffs: r.counter(
                "vllm_cluster_handoffs_total",
                "Prefill→decode KV handoffs whose decode phase replied.",
            ),
            blocks: r.counter(
                "vllm_cluster_handoff_blocks_total",
                "KV blocks installed on decode replicas by completed handoffs.",
            ),
            retries: r.counter(
                "vllm_cluster_handoff_retries_total",
                "Handoff attempts that failed and were retried on a fresh route.",
            ),
            tier_installs: r.counter(
                "vllm_cluster_handoff_tier_installs_total",
                "Completed handoffs whose prefill replica installed a shared-tier hit.",
            ),
        }
    }

    /// Counts what `effect` reports: a retried handoff attempt, or a
    /// completed handoff — whose span tree, for a sampled trace, is recorded
    /// on `spans`: a `handoff` parent with `handoff.export` and
    /// `handoff.transfer` children tiling it (the install rides the decode
    /// submission, so it has no span of its own). Other effects are ignored
    /// here.
    pub fn observe(&self, spans: &SpanLog, effect: &FlowEffect) {
        let r = match effect {
            FlowEffect::HandoffRetry => return self.retries.inc(),
            FlowEffect::Handoff(r) => r,
            FlowEffect::PublishTier { .. } => return,
        };
        self.handoffs.inc();
        self.blocks.inc_by(r.blocks as u64);
        if r.from_tier {
            self.tier_installs.inc();
        }
        if !r.ctx.is_active() {
            return;
        }
        let span = |ctx: TraceContext, name: &str, start: f64, end: f64, attrs| Span {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            name: name.to_string(),
            start,
            end,
            attrs,
        };
        let [start, routed, arrived] = r.marks;
        let attrs = [
            ("dst", r.dst),
            ("kv_bytes", r.kv_bytes),
            ("blocks", r.blocks),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        spans.record(span(r.ctx, "handoff", start, arrived, attrs.to_vec()));
        let child = |slot, name, s, e| span(r.ctx.child(slot), name, s, e, Vec::new());
        spans.record(child(1, "handoff.export", start, routed));
        spans.record(child(2, "handoff.transfer", routed, arrived));
    }
}

/// Trace-context slots under `root.child(100 + 8·attempt + slot)`.
const SLOT_FIRST: u64 = 1; // the unified run, or the prefill stub
const SLOT_DECODE: u64 = 2;
const SLOT_HANDOFF: u64 = 3;

/// The command in flight (what the next input answers).
#[derive(Debug, Clone)]
enum Phase {
    Idle,
    Routing,
    TierLookup,
    Unified,
    Stub,
    RoutingDecode,
    Transferring(HandoffPayload),
    Decoding,
    Backoff,
    Finished,
}

/// One request's flow. See the module docs.
#[derive(Debug, Clone)]
pub struct RequestFlow {
    id: String,
    prompt: Vec<TokenId>,
    hashes: Vec<u64>,
    request: GenerationRequest,
    block_size: usize,
    two_phase: bool,
    max_attempts: u32,
    root: TraceContext,
    attempt: u32,
    phase: Phase,
    now: f64,
    prefill: usize,
    decode: usize,
    /// Effects of the step being computed.
    effects: Vec<FlowEffect>,
    /// The cut prefix's KV once exported.
    kv: Option<PrefixKv>,
    /// Leading blocks of the prompt the decode replica's published coverage
    /// already shows: they do not cross.
    covered: usize,
    /// The stub's reply, kept for its token and logprob.
    stub: Option<RequestOutput>,
    /// What becomes the attempt's [`HandoffRecord`].
    from_tier: bool,
    shipped: (usize, usize),
    marks: [f64; 3],
}

impl RequestFlow {
    /// A flow for request `id`. `disaggregated` says whether the fleet is
    /// role-specialized; the request then takes the two-phase path iff it is
    /// a greedy single-sequence multi-token generation (the shape whose
    /// first-token / decode split is well defined — everything else runs
    /// whole on the prefill pool). `max_attempts` bounds placements.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        prompt: Vec<TokenId>,
        request: GenerationRequest,
        block_size: usize,
        disaggregated: bool,
        max_attempts: u32,
    ) -> Self {
        let id = id.into();
        // Adopt the client's trace context or mint one from the id; every
        // attempt and phase is a child slot of it.
        let root = request
            .trace
            .unwrap_or_else(|| TraceContext::mint(trace_seed(&id), true));
        Self {
            hashes: chunk_hashes(&prompt, block_size),
            two_phase: disaggregated
                && request.mode == GenerationMode::Greedy
                && request.n == 1
                && request.max_tokens > 1,
            id,
            prompt,
            request,
            block_size,
            max_attempts,
            root,
            attempt: 0,
            phase: Phase::Idle,
            now: 0.0,
            prefill: 0,
            decode: 0,
            effects: Vec::new(),
            kv: None,
            covered: 0,
            stub: None,
            from_tier: false,
            shipped: (0, 0),
            marks: [0.0; 3],
        }
    }

    /// The current attempt (0-based).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Whether the request takes the two-phase prefill → decode path.
    #[must_use]
    pub fn is_two_phase(&self) -> bool {
        self.two_phase
    }

    /// Executes [`FlowCommand::Route`] on the driver's router and view of
    /// the fleet: the prefix-affinity pick for this prompt, counted as a
    /// retry (`vllm_cluster_retries_total`) on every attempt but the first.
    pub fn route(&self, router: &mut Router, snaps: &[ReplicaSnapshot]) -> usize {
        if self.attempt > 0 {
            router.record_retry();
        }
        router.route(&self.hashes, snaps).replica
    }

    /// Executes [`FlowCommand::RouteDecode`] on the driver's router and view
    /// of the fleet, and notes how much of the prompt the pick already holds.
    pub fn route_decode(&mut self, router: &mut Router, snaps: &[ReplicaSnapshot]) -> usize {
        let replica = router.route_decode(snaps);
        self.covered = covered_chunks(&self.hashes, &snaps[replica].coverage);
        replica
    }

    /// Feeds the answer to the previous command (or [`FlowInput::Start`])
    /// and returns the effects to perform, then the next command. `now` is
    /// the driver's clock at the moment the answer became known.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not answer the command in flight — a driver
    /// bug, not a runtime condition.
    pub fn on(&mut self, input: FlowInput, now: f64) -> (Vec<FlowEffect>, FlowCommand) {
        self.now = now;
        let cmd = self.step(input);
        (std::mem::take(&mut self.effects), cmd)
    }

    fn step(&mut self, input: FlowInput) -> FlowCommand {
        use {FlowCommand as C, FlowInput as I, Phase as P};
        if let I::ReplicaDied { replica } = input {
            return self.fail(VllmError::Unavailable(format!("replica {replica} died")));
        }
        match (std::mem::replace(&mut self.phase, P::Finished), input) {
            (P::Idle, I::Start) | (P::Backoff, I::Done) => self.go(P::Routing, C::Route),
            (P::Routing, I::Routed { replica }) => {
                self.prefill = replica;
                (self.kv, self.from_tier, self.covered) = (None, false, 0);
                if !self.two_phase {
                    let (prompt, max_tokens) = (self.prompt.clone(), self.request.max_tokens);
                    let job = self.job("", prompt, max_tokens, SLOT_FIRST);
                    self.go(P::Unified, C::Submit { replica, job })
                } else if self.cut().is_empty() {
                    self.submit_stub(None)
                } else {
                    let tokens = self.cut().to_vec();
                    self.go(P::TierLookup, C::TierLookup { replica, tokens })
                }
            }
            (P::Unified, I::Reply(Ok(r))) => self.finish(Ok(r.output)),
            (P::Unified | P::Stub, I::Reply(Err(e))) => self.fail(e),

            // Prefill side: a prefix published to the tier rides the stub
            // and is installed before it is admitted (skipping its
            // recompute; the replica keeps whatever of it is already
            // resident — and installs even when its coverage already shows
            // the run: skipping that measured slower, DESIGN §14). An
            // install that fails only means the stub computes more.
            (P::TierLookup, I::Tier(hit)) => self.submit_stub(hit),
            (P::Stub, I::Reply(Ok(r))) => {
                self.from_tier = r.installed;
                let first = r.output.outputs.first().and_then(|c| c.tokens.first());
                let eos = !self.request.ignore_eos && self.request.eos_token_id == first.copied();
                if first.is_none() || eos {
                    // No token sampled (deadline hit at admission) or EOS
                    // first: the stub is the whole answer, as on a unified
                    // replica.
                    return self.finish(Ok(r.output));
                }
                self.marks = [self.now; 3];
                self.stub = Some(r.output);
                // The reply carries what of the cut the stub left resident.
                let (tokens, blocks) = r.exported;
                if !blocks.is_empty() {
                    // Published on a tier miss only: a hit means the tier
                    // holds the cut's first block, and so the
                    // conversation's first cut; adding every turn's blocks
                    // would grow the tier with each turn.
                    if !self.from_tier {
                        let (tokens, blocks) = (tokens.clone(), blocks.clone());
                        self.effects
                            .push(FlowEffect::PublishTier { tokens, blocks });
                    }
                    self.kv = Some((tokens, blocks));
                }
                self.go(P::RoutingDecode, C::RouteDecode)
            }

            // Decode side.
            (P::RoutingDecode, I::Routed { replica }) => {
                (self.decode, self.marks[1]) = (replica, self.now);
                match self.payload() {
                    Ok(Some(p)) => {
                        let blocks = p.blocks.len();
                        self.go(P::Transferring(p), C::Transfer { replica, blocks })
                    }
                    Ok(None) => self.submit_decode(None),
                    Err(e) => self.fail(e),
                }
            }
            (P::Transferring(p), I::Done) => {
                self.shipped = (p.blocks.len(), p.kv_bytes());
                // The payload's blocks end the run of tokens they extend. A
                // refusal the decode replica could retry elsewhere fails the
                // submission while attempts remain (a target lost
                // mid-transfer restarts the whole flow; nothing reached the
                // client yet); otherwise the decode replica admits the
                // request without the prefix and recomputes it — degraded
                // beats dropped. (A full pool is no refusal: it installs
                // what fits.)
                let run = self.covered * self.block_size + p.tokens.len();
                let install = KvInstall {
                    tokens: self.prompt[..run].to_vec(),
                    blocks: p.blocks,
                    required: self.attempts_remain(),
                };
                self.submit_decode(Some(install))
            }
            (P::Decoding, I::Reply(Err(e))) => self.fail(e),
            (P::Decoding, I::Reply(Ok(r))) => {
                if !r.installed {
                    self.shipped = (0, 0);
                }
                let (t0, stub) = (self.t0(), self.stub.take().expect("the stub replied"));
                let mut out = r.output;
                let Some(c) = out.outputs.first_mut() else {
                    return self.finish(Ok(stub)); // decode produced nothing; TTFT stands
                };
                c.tokens.insert(0, t0);
                c.cumulative_logprob += stub.outputs[0].cumulative_logprob;
                self.effects.push(FlowEffect::Handoff(HandoffRecord {
                    ctx: self.slot(SLOT_HANDOFF),
                    dst: self.decode,
                    blocks: self.shipped.0,
                    kv_bytes: self.shipped.1,
                    from_tier: self.from_tier,
                    marks: self.marks,
                }));
                self.finish(Ok(out))
            }
            (phase, input) => panic!(
                "flow {}: {input:?} does not answer the command of {phase:?}",
                self.id
            ),
        }
    }

    fn go(&mut self, phase: Phase, cmd: FlowCommand) -> FlowCommand {
        self.phase = phase;
        cmd
    }

    /// Every exit path ends here or in a `Backoff`.
    fn finish(&mut self, result: Result<RequestOutput, VllmError>) -> FlowCommand {
        self.go(Phase::Finished, FlowCommand::Finish(result))
    }

    fn attempts_remain(&self) -> bool {
        self.attempt + 1 < self.max_attempts
    }

    /// The attempt failed: back off and re-route, or give up.
    fn fail(&mut self, e: VllmError) -> FlowCommand {
        if !(e.is_retryable() && self.attempts_remain()) {
            return self.finish(Err(e));
        }
        if self.two_phase {
            self.effects.push(FlowEffect::HandoffRetry);
        }
        let (attempt, hint) = (self.attempt, e.retry_after());
        self.attempt += 1;
        self.go(Phase::Backoff, FlowCommand::Backoff { attempt, hint })
    }

    /// The prefix both phases share (see [`handoff_cut`]).
    fn cut(&self) -> &[TokenId] {
        &self.prompt[..handoff_cut(self.prompt.len(), self.block_size)]
    }

    fn slot(&self, slot: u64) -> TraceContext {
        self.root.child(100 + u64::from(self.attempt) * 8 + slot)
    }

    /// A submission with a fresh engine-side id per attempt and phase, so a
    /// retry never collides with stale state on a replica tried before:
    /// attempt 0 of the first phase keeps the bare request id (what
    /// `EVENTS` replays by), later ones are `<id>.<tag><attempt>`.
    fn job(&self, tag: &str, prompt: Vec<TokenId>, max_tokens: usize, slot: u64) -> Submission {
        let engine_id = if self.attempt == 0 && slot == SLOT_FIRST {
            self.id.clone()
        } else {
            format!("{}.{tag}{}", self.id, self.attempt)
        };
        let mut request = self.request.clone();
        request.max_tokens = max_tokens;
        request.trace = Some(self.slot(slot));
        Submission::new(engine_id, prompt, request)
    }

    /// The prefill stub: the whole prompt, one token — prompt phase plus the
    /// first sampled token (TTFT). It carries the tier's hit, if any, and
    /// exports the cut when it finishes.
    fn submit_stub(&mut self, hit: Option<PrefixKv>) -> FlowCommand {
        let mut job = self.job("p", self.prompt.clone(), 1, SLOT_FIRST);
        job.install = hit.map(|(tokens, blocks)| KvInstall {
            tokens,
            blocks,
            required: false,
        });
        job.export = Some(self.cut().to_vec()).filter(|cut| !cut.is_empty());
        let replica = self.prefill;
        self.go(Phase::Stub, FlowCommand::Submit { replica, job })
    }

    /// The KV in hand as the decode replica receives it: the blocks past
    /// those its coverage already shows (a later turn of a conversation it
    /// decoded before ships only the new turn). The transport is the binary
    /// frame — `encode`, move, `decode`, a few µs per 32 KB block — so the
    /// payload installed has passed the checksum and `validate` exactly as
    /// a remote one's would; hex is only for the `HANDOFF` text line.
    fn payload(&mut self) -> Result<Option<HandoffPayload>, VllmError> {
        let Some((tokens, mut blocks)) = self.kv.take() else {
            return Ok(None);
        };
        self.covered = self.covered.min(blocks.len());
        if self.covered == blocks.len() {
            return Ok(None);
        }
        let p = HandoffPayload {
            request_id: self.id.clone(),
            tokens: tokens[self.covered * self.block_size..].to_vec(),
            first_token: Some(self.t0()),
            seed: self.request.seed.unwrap_or_default(),
            block_size: self.block_size,
            blocks: blocks.split_off(self.covered),
        };
        HandoffPayload::decode(&p.encode()).map(Some)
    }

    /// The decode phase, carrying the payload's install if anything
    /// crossed: greedy continuation from `prompt + [t0]` makes the stitched
    /// stream token-identical to a unified run.
    fn submit_decode(&mut self, install: Option<KvInstall>) -> FlowCommand {
        self.marks[2] = self.now;
        if install.is_none() {
            self.shipped = (0, 0);
        }
        let mut prompt = self.prompt.clone();
        prompt.push(self.t0());
        let mut job = self.job("d", prompt, self.request.max_tokens - 1, SLOT_DECODE);
        job.install = install;
        let replica = self.decode;
        self.go(Phase::Decoding, FlowCommand::Submit { replica, job })
    }

    fn t0(&self) -> TokenId {
        let stub = self.stub.as_ref().expect("the stub replied");
        stub.outputs[0].tokens[0]
    }
}
