//! One request's life across replicas, as a pure state machine.
//!
//! [`RequestFlow`] owns every *decision* between "a request arrived" and
//! "here is its one reply": whether it takes the two-phase prefill → decode
//! path, the stub and decode request shapes, the block-aligned cut
//! ([`handoff_cut`]), per-attempt engine ids and trace slots, tier lookup →
//! install on the prefill side, export and publish, decode route, which
//! blocks cross (those the decode replica's coverage does not show), their
//! [`HandoffPayload`] wire round trip and install, the stitch of the stub's
//! token and logprob, which failures retry, attempt counting, and the
//! handoff counters and span tree ([`HandoffMetrics`]). There is nothing to
//! release on any path: installed and computed KV sits in free blocks of
//! the replica's content-addressed cache (`vllm_core::BlockSpaceManager`).
//!
//! It performs no I/O and reads no clock. [`RequestFlow::on`] takes the
//! answer to the previous [`FlowCommand`] (plus the driver's `now`) and
//! returns the next command, preceded by the [`FlowEffect`]s — work nothing
//! is fed back from — the driver performs first. A driver is the loop
//! "perform the effects, execute the command in my world, feed the answer
//! back" until [`FlowCommand::Finish`]. Three drivers share it, each
//! substituting only its world:
//!
//! | driver | clock | KV bodies | tier | `Transfer` | `Backoff` |
//! |---|---|---|---|---|---|
//! | `src/frontend.rs` (threads) | wall seconds | real | shared, locked | nothing to do: the payload already crossed the codec | sleeps `hint·2^attempt`, capped |
//! | [`ClusterSystem`](crate::ClusterSystem) (virtual time) | the request's own virtual cursor | cost-model engine, empty-bodied | its own; a hit advances the cursor by the fetch's swap-bandwidth cost | advances the cursor by the swap-bandwidth cost | advances the cursor |
//! | [`FaultCluster`](crate::FaultCluster) (lockstep) | step number | mock engine, empty-bodied | none: every lookup misses | parks [`TRANSFER_STEPS`](crate::fault::TRANSFER_STEPS), then `ReplicaDied` if the target is down | parks a capped number of steps |
//!
//! The transition table — the specification the drivers and
//! `tests/flow_exhaustive.rs` share — is in DESIGN.md §14.

use vllm_core::telemetry::{trace_seed, Counter, Span, SpanLog, Telemetry, TraceContext};
use vllm_core::{
    chunk_hashes, GenerationMode, GenerationRequest, HandoffPayload, KvBlockBytes, RequestOutput,
    TokenId, VllmError,
};

use crate::replica::{PrefixOp, PrefixReply};
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

/// Placements a clock-driven driver (the serving frontend, the simulator)
/// allows one request before its failure is terminal.
pub const MAX_SUBMIT_ATTEMPTS: u32 = 4;

/// Seconds a clock-driven driver waits on [`FlowCommand::Backoff`]: capped
/// exponential backoff seeded by the error's own hint.
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
    /// Answers `TierLookup`: the longest published prefix of the tokens, or
    /// a miss (also the answer of a driver with no tier).
    Tier(Option<PrefixKv>),
    /// Answers `PrefixOp`.
    Prefix(Result<PrefixReply, VllmError>),
    /// Answers `Submit`: the finished output or the typed failure.
    Reply(Result<RequestOutput, VllmError>),
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
    /// Fetch the longest published prefix of `tokens` from the shared tier
    /// for `replica`.
    TierLookup {
        /// The replica that will install the hit.
        replica: usize,
        /// The prompt's cut prefix.
        tokens: Vec<TokenId>,
    },
    /// Move `blocks` KV blocks to the decode `replica`; always followed by
    /// the `Install` that lands them.
    Transfer {
        /// Receiving replica.
        replica: usize,
        /// Blocks on the wire.
        blocks: usize,
    },
    /// Run a KV export or install on `replica`.
    PrefixOp {
        /// Target replica.
        replica: usize,
        /// The operation.
        op: PrefixOp,
    },
    /// Submit a generation request and wait for its reply.
    Submit {
        /// Target replica.
        replica: usize,
        /// Engine-side id, unique per attempt and phase.
        engine_id: String,
        /// Prompt tokens.
        prompt: Vec<TokenId>,
        /// The request (trace context set per attempt and phase).
        request: GenerationRequest,
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
    /// Driver clock at: stub reply (export begins), prefill side done,
    /// payload at the decode replica, install done.
    pub marks: [f64; 4],
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
    /// on `spans`: a `handoff` parent with `handoff.export`,
    /// `handoff.transfer` and `handoff.install` children tiling it. The
    /// other effects are the driver's and are ignored here.
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
        let [start, exported, arrived, end] = r.marks;
        let attrs = [
            ("dst", r.dst),
            ("kv_bytes", r.kv_bytes),
            ("blocks", r.blocks),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        spans.record(span(r.ctx, "handoff", start, end, attrs.to_vec()));
        let child = |slot, name, s, e| span(r.ctx.child(slot), name, s, e, Vec::new());
        spans.record(child(1, "handoff.export", start, exported));
        spans.record(child(2, "handoff.transfer", exported, arrived));
        spans.record(child(3, "handoff.install", arrived, end));
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
    TierInstall,
    Unified,
    Stub,
    Exporting,
    RoutingDecode,
    Transferring(HandoffPayload),
    Installing,
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
    marks: [f64; 4],
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
            marks: [0.0; 4],
        }
    }

    /// The current attempt (0-based).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
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
        use {FlowCommand as C, FlowInput as I, Phase as P, PrefixReply as R};
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
                    self.submit(P::Unified, replica, "", prompt, max_tokens, SLOT_FIRST)
                } else if self.cut().is_empty() {
                    self.submit_stub()
                } else {
                    let tokens = self.cut().to_vec();
                    self.go(P::TierLookup, C::TierLookup { replica, tokens })
                }
            }
            (P::Unified, I::Reply(Ok(out))) => self.finish(Ok(out)),
            (P::Unified | P::Stub, I::Reply(Err(e))) => self.fail(e),

            // Prefill side: a prefix published to the tier is installed
            // first (skipping its recompute; the replica keeps whatever of
            // it is already resident), then the stub computes what is left
            // of the prompt. An install that fails only means the stub
            // computes more.
            (P::TierLookup, I::Tier(Some((tokens, blocks)))) => {
                let (replica, op) = (self.prefill, PrefixOp::Install { tokens, blocks });
                self.go(P::TierInstall, C::PrefixOp { replica, op })
            }
            (P::TierInstall, I::Prefix(reply)) => {
                self.from_tier = reply.is_ok();
                self.submit_stub()
            }
            (P::TierLookup, I::Tier(None)) => self.submit_stub(),

            (P::Stub, I::Reply(Ok(stub))) => {
                let first = stub.outputs.first().and_then(|c| c.tokens.first().copied());
                let eos = !self.request.ignore_eos && self.request.eos_token_id == first;
                if first.is_none() || eos {
                    // No token sampled (deadline hit at admission) or EOS
                    // first: the stub is the whole answer, as on a unified
                    // replica.
                    return self.finish(Ok(stub));
                }
                self.marks = [self.now; 4];
                self.stub = Some(stub);
                if self.cut().is_empty() {
                    return self.hand_off();
                }
                // Export what of the cut the stub left resident.
                let tokens = self.cut().to_vec();
                let (replica, op) = (self.prefill, PrefixOp::Export { tokens });
                self.go(P::Exporting, C::PrefixOp { replica, op })
            }
            (P::Exporting, I::Prefix(reply)) => {
                if let Ok(R::Exported { tokens, blocks }) = reply {
                    if !blocks.is_empty() {
                        // The tier keeps whole prefixes: one entry per
                        // conversation (its first published cut), not one
                        // per turn.
                        if !self.from_tier {
                            let (tokens, blocks) = (tokens.clone(), blocks.clone());
                            self.effects
                                .push(FlowEffect::PublishTier { tokens, blocks });
                        }
                        self.kv = Some((tokens, blocks));
                    }
                }
                self.hand_off()
            }

            // Decode side.
            (P::RoutingDecode, I::Routed { replica }) => {
                self.decode = replica;
                match self.payload() {
                    Ok(Some(p)) => {
                        let blocks = p.blocks.len();
                        self.go(P::Transferring(p), C::Transfer { replica, blocks })
                    }
                    Ok(None) => {
                        (self.shipped, self.marks[2]) = ((0, 0), self.now);
                        self.submit_decode()
                    }
                    Err(e) => self.fail(e),
                }
            }
            (P::Transferring(p), I::Done) => {
                (self.shipped, self.marks[2]) = ((p.blocks.len(), p.kv_bytes()), self.now);
                // The payload's blocks end the run of tokens they extend.
                let run = self.covered * self.block_size + p.tokens.len();
                let op = PrefixOp::Install {
                    tokens: self.prompt[..run].to_vec(),
                    blocks: p.blocks,
                };
                let replica = self.decode;
                self.go(P::Installing, C::PrefixOp { replica, op })
            }
            (P::Installing, I::Prefix(reply)) => match reply {
                Ok(_) => self.submit_decode(),
                // A target lost mid-transfer restarts the whole flow while
                // attempts remain (nothing reached the client yet);
                // otherwise, and on a non-retryable refusal, the decode
                // replica recomputes the prompt — degraded beats dropped. (A
                // full pool is no refusal: it installs what fits.)
                Err(e) if e.is_retryable() && self.attempts_remain() => self.fail(e),
                _ => {
                    self.shipped = (0, 0);
                    self.submit_decode()
                }
            },
            (P::Decoding, I::Reply(Err(e))) => self.fail(e),
            (P::Decoding, I::Reply(Ok(mut out))) => {
                let (t0, stub) = (self.t0(), self.stub.take().expect("the stub replied"));
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

    /// Submits with a fresh engine-side id per attempt and phase, so a retry
    /// never collides with stale state on a replica tried before: attempt 0
    /// of the first phase keeps the bare request id (what `EVENTS` replays
    /// by), later ones are `<id>.<tag><attempt>`.
    fn submit(
        &mut self,
        phase: Phase,
        replica: usize,
        tag: &str,
        prompt: Vec<TokenId>,
        max_tokens: usize,
        slot: u64,
    ) -> FlowCommand {
        let engine_id = if self.attempt == 0 && slot == SLOT_FIRST {
            self.id.clone()
        } else {
            format!("{}.{tag}{}", self.id, self.attempt)
        };
        let mut request = self.request.clone();
        request.max_tokens = max_tokens;
        request.trace = Some(self.slot(slot));
        let cmd = FlowCommand::Submit {
            replica,
            engine_id,
            prompt,
            request,
        };
        self.go(phase, cmd)
    }

    /// The prefill stub: the whole prompt, one token — prompt phase plus the
    /// first sampled token (TTFT).
    fn submit_stub(&mut self) -> FlowCommand {
        let prompt = self.prompt.clone();
        self.submit(Phase::Stub, self.prefill, "p", prompt, 1, SLOT_FIRST)
    }

    /// The prefill side is done: route the decode.
    fn hand_off(&mut self) -> FlowCommand {
        self.marks[1] = self.now;
        self.go(Phase::RoutingDecode, FlowCommand::RouteDecode)
    }

    /// The KV in hand as the decode replica receives it: the blocks past
    /// those its coverage already shows (a later turn of a conversation it
    /// decoded before ships only the new turn). The transport is the wire
    /// codec — encode, move, decode — so the payload installed has passed
    /// the checksum and `validate` exactly as a remote one's would.
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
        HandoffPayload::decode_wire(&p.encode_wire()).map(Some)
    }

    /// The decode phase: greedy continuation from `prompt + [t0]` makes the
    /// stitched stream token-identical to a unified run.
    fn submit_decode(&mut self) -> FlowCommand {
        self.marks[3] = self.now;
        let mut prompt = self.prompt.clone();
        prompt.push(self.t0());
        let max_tokens = self.request.max_tokens - 1;
        let (phase, replica) = (Phase::Decoding, self.decode);
        self.submit(phase, replica, "d", prompt, max_tokens, SLOT_DECODE)
    }

    fn t0(&self) -> TokenId {
        let stub = self.stub.as_ref().expect("the stub replied");
        stub.outputs[0].tokens[0]
    }
}
