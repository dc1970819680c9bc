//! Exhaustive small-scope check of the pure request flow: no threads, no
//! engines. For a unified and a disaggregated request (tier miss and tier
//! hit), every answer the world can give — retryable error, non-retryable
//! error, replica death — is tried at every command the flow emits,
//! recursively through every attempt. A two-phase request is two fused
//! submissions, and each is also answered with every outcome of the KV work
//! it carries: the stub's tier install refused while the stub succeeds, its
//! export finding all, part or none of the cut resident; the decode
//! submission's install landing or refused (a retryable refusal is the
//! submission's error). A replica that dies after the stub's token but
//! before its reply left, or between the decode install and its admission,
//! answers the submission with its death. On every resulting path the
//! contracts the drivers rely on are asserted: one terminal outcome, fresh
//! engine ids, the stitched stream, bounded attempts, retry and handoff
//! accounting, and exactly one replica message per phase. (There is no pin
//! to balance: the flow asks replicas for nothing that has to be given
//! back.)

use std::collections::BTreeSet;

use vllm_cluster::{
    handoff_cut, FlowCommand, FlowEffect, FlowInput, KvInstall, Replied, RequestFlow, Submission,
};
use vllm_core::{
    CompletionOutput, GenerationRequest, KvBlockBytes, RequestOutput, SequenceStatus, VllmError,
};

const BLOCK: usize = 2;
const EOS: u32 = 99;

fn prompt() -> Vec<u32> {
    vec![1, 2, 3, 4, 5, 6] // block-aligned: the cut must drop the last block
}

fn cut() -> Vec<u32> {
    prompt()[..handoff_cut(prompt().len(), BLOCK)].to_vec()
}

#[derive(Clone, Copy)]
struct Scenario {
    disaggregated: bool,
    tier_hit: bool,
    max_attempts: u32,
}

/// What the fake fleet remembers along one path.
#[derive(Clone, Default)]
struct World {
    clock: f64,
    dead: BTreeSet<usize>,
    engine_ids: BTreeSet<String>,
    routes: u32,
    backoffs: u32,
    handoffs: u32,
    handoff_retries: u32,
    /// Replica messages (submissions) sent.
    messages: u32,
    /// Whether the last stub's install landed.
    stub_installed: bool,
    /// Blocks the last decode submission carried, and whether they landed.
    decode_install: (usize, bool),
    /// Tokens the decode phase of the last attempt returned.
    decoded: Vec<u32>,
    depth: usize,
}

impl World {
    fn die(&mut self, replica: usize) -> FlowInput {
        self.dead.insert(replica);
        FlowInput::ReplicaDied { replica }
    }
}

fn output(id: &str, tokens: Vec<u32>) -> RequestOutput {
    RequestOutput {
        request_id: id.to_string(),
        prompt_len: prompt().len(),
        outputs: vec![CompletionOutput {
            seq_id: 0,
            cumulative_logprob: -(tokens.len() as f64),
            tokens,
            finish_reason: SequenceStatus::FinishedLengthCapped,
        }],
        arrival_time: 0.0,
        finish_time: 1.0,
        first_token_time: Some(0.5),
        num_preemptions: 0,
    }
}

/// A replica's answer to a submission that ran.
fn replied(job: &Submission, tokens: Vec<u32>, installed: bool, resident: usize) -> FlowInput {
    let exported = (
        cut()[..resident].to_vec(),
        vec![KvBlockBytes::empty(); resident / BLOCK],
    );
    FlowInput::Reply(Ok(Replied {
        output: output(&job.request_id, tokens),
        installed,
        exported,
    }))
}

#[derive(Default)]
struct Tally {
    paths: usize,
    ok: usize,
    err: usize,
}

/// Every answer the world can give `cmd`, each with the world it leaves.
fn answers(sc: Scenario, cmd: &FlowCommand, w: &World) -> Vec<(World, FlowInput)> {
    let retryable = VllmError::Rejected { retry_after: 0.05 };
    let terminal = VllmError::InvalidRequest("refused".into());
    let mut out = Vec::new();
    let mut push = |w: World, i: FlowInput| out.push((w, i));
    // A command to a replica already known dead can only learn that again.
    let target = match cmd {
        FlowCommand::Transfer { replica, .. } | FlowCommand::Submit { replica, .. } => {
            Some(*replica)
        }
        _ => None,
    };
    if let Some(r) = target {
        let mut d = w.clone();
        if matches!(cmd, FlowCommand::Submit { .. }) {
            d.messages += 1;
        }
        let died = d.die(r);
        push(d, died);
        if w.dead.contains(&r) {
            return out;
        }
    }
    match cmd {
        FlowCommand::Route => {
            let mut n = w.clone();
            n.routes += 1;
            push(n, FlowInput::Routed { replica: 0 });
        }
        FlowCommand::RouteDecode => {
            let replica = 1 + (w.routes as usize - 1) % 2;
            push(w.clone(), FlowInput::Routed { replica });
        }
        FlowCommand::TierLookup { replica, tokens } => {
            assert_eq!(*replica, 0, "the tier feeds the prefill replica");
            assert_eq!(tokens, &cut());
            // A hit on a shorter published prefix than asked for.
            let hit = (tokens[..BLOCK].to_vec(), vec![KvBlockBytes::empty()]);
            push(w.clone(), FlowInput::Tier(sc.tier_hit.then_some(hit)));
        }
        FlowCommand::Transfer { .. } => push(w.clone(), FlowInput::Done),
        FlowCommand::Backoff { .. } => {
            let mut n = w.clone();
            n.backoffs += 1;
            push(n, FlowInput::Done);
        }
        FlowCommand::Submit { replica, job } => {
            let mut n = w.clone();
            n.messages += 1;
            assert!(
                n.engine_ids.insert(job.request_id.clone()),
                "engine id {} reused",
                job.request_id
            );
            let install = job.install.as_ref();
            let installs: &[bool] = if install.is_some() {
                &[true, false]
            } else {
                &[false]
            };
            let decode = job.prompt.len() == prompt().len() + 1;
            let stub = sc.disaggregated && !decode;
            let tokens: Vec<u32> = (0..job.request.max_tokens as u32).map(|i| 10 + i).collect();
            if stub {
                assert_eq!(*replica, 0, "the stub runs on the prefill replica");
                assert_eq!(job.request.max_tokens, 1, "the stub samples one token");
                assert_eq!(job.export.as_ref(), Some(&cut()), "it exports the cut");
                if let Some(KvInstall {
                    tokens,
                    blocks,
                    required,
                }) = install
                {
                    assert!(sc.tier_hit, "only a tier hit rides the stub");
                    assert!(cut().starts_with(tokens), "installs a prefix of the cut");
                    assert_eq!(tokens.len(), blocks.len() * BLOCK);
                    assert!(!required, "a refused tier install only costs compute");
                }
                // Everything resident, only the first block, nothing.
                for &installed in installs {
                    for resident in [cut().len(), BLOCK, 0] {
                        let mut s = n.clone();
                        s.stub_installed = installed;
                        push(s, replied(job, tokens.clone(), installed, resident));
                    }
                }
            } else {
                assert!(job.export.is_none(), "only the stub exports");
                if decode {
                    assert_eq!(
                        job.prompt.last(),
                        Some(&10),
                        "decode resumes from prompt + [t0]"
                    );
                    assert_eq!(job.request.max_tokens, 3, "decode budget is max_tokens - 1");
                    n.decoded = tokens.clone();
                    if let Some(i) = install {
                        assert!(cut().starts_with(&i.tokens), "installs a prefix of the cut");
                        assert_eq!(i.tokens.len(), i.blocks.len() * BLOCK);
                        assert_eq!(
                            i.required,
                            w.routes < sc.max_attempts,
                            "a retryable refusal fails the submission while attempts remain"
                        );
                    }
                } else {
                    assert!(install.is_none(), "a unified run installs nothing");
                }
                let shipped = install.map_or(0, |i| i.blocks.len());
                for &installed in installs {
                    let mut d = n.clone();
                    d.decode_install = (shipped, installed);
                    push(d, replied(job, tokens.clone(), installed, 0));
                }
            }
            push(n.clone(), FlowInput::Reply(Err(retryable)));
            push(n, FlowInput::Reply(Err(terminal)));
        }
        FlowCommand::Finish(_) => unreachable!("handled by the caller"),
    }
    out
}

fn explore(sc: Scenario, flow: &RequestFlow, w: &World, input: FlowInput, tally: &mut Tally) {
    assert!(w.depth < 200, "the flow must terminate");
    let mut flow = flow.clone();
    let mut w = w.clone();
    w.clock += 1.0;
    w.depth += 1;
    let (effects, cmd) = flow.on(input, w.clock);
    for effect in effects {
        match effect {
            FlowEffect::PublishTier { tokens, blocks } => {
                assert!(!blocks.is_empty(), "an empty export is not published");
                assert_eq!(tokens.len(), blocks.len() * BLOCK);
                assert!(!w.stub_installed, "published on a tier miss only");
            }
            FlowEffect::HandoffRetry => w.handoff_retries += 1,
            FlowEffect::Handoff(r) => {
                w.handoffs += 1;
                assert!(
                    r.marks.windows(2).all(|m| m[0] <= m[1]),
                    "marks {:?}",
                    r.marks
                );
                assert_eq!(r.from_tier, w.stub_installed);
                let (shipped, landed) = w.decode_install;
                assert_eq!(r.blocks, if landed { shipped } else { 0 });
            }
        }
    }
    if let FlowCommand::Backoff { attempt, .. } = &cmd {
        assert_eq!(*attempt, w.routes - 1);
    }
    let FlowCommand::Finish(result) = &cmd else {
        for (next, input) in answers(sc, &cmd, &w) {
            explore(sc, &flow, &next, input, tally);
        }
        return;
    };
    tally.paths += 1;
    assert!((1..=sc.max_attempts).contains(&w.routes));
    // Every failed attempt but the last asked for exactly one backoff, and
    // the handoff-retry count is the number of failed disaggregated attempts
    // that were retried.
    assert_eq!(w.backoffs, w.routes - 1);
    assert_eq!(
        w.handoff_retries,
        if sc.disaggregated { w.backoffs } else { 0 }
    );
    // One replica message per phase of every attempt, at most.
    let phases = 1 + u32::from(sc.disaggregated);
    assert!(w.messages <= phases * w.routes);
    match result {
        Ok(out) => {
            tally.ok += 1;
            if w.routes == 1 {
                assert_eq!(w.messages, phases, "one message per phase");
            }
            let tokens = &out.outputs[0].tokens;
            if sc.disaggregated {
                assert_eq!(
                    w.handoffs, 1,
                    "a completed two-phase request is one handoff"
                );
                let mut want = vec![10];
                want.extend(&w.decoded);
                assert_eq!(tokens, &want, "stream must be t0 ++ decode tokens");
                assert_eq!(out.outputs[0].cumulative_logprob, -1.0 - 3.0);
            } else {
                assert_eq!(tokens, &[10, 11, 12, 13]);
            }
        }
        Err(e) => {
            tally.err += 1;
            assert_eq!(w.handoffs, 0);
            assert!(
                !e.is_retryable() || w.routes == sc.max_attempts,
                "gave up on retryable {e} after {} attempts",
                w.routes
            );
        }
    }
}

fn run(sc: Scenario) -> Tally {
    let request = GenerationRequest::greedy(4).with_eos(EOS).with_seed(1);
    let flow = RequestFlow::new(
        "r",
        prompt(),
        request,
        BLOCK,
        sc.disaggregated,
        sc.max_attempts,
    );
    let mut tally = Tally::default();
    explore(sc, &flow, &World::default(), FlowInput::Start, &mut tally);
    assert!(tally.ok > 0 && tally.err > 0);
    println!(
        "disaggregated={} tier_hit={}: {} paths ({} ok, {} err)",
        sc.disaggregated, sc.tier_hit, tally.paths, tally.ok, tally.err
    );
    tally
}

#[test]
fn unified_flow_every_failure_at_every_command() {
    let t = run(Scenario {
        disaggregated: false,
        tier_hit: false,
        max_attempts: 3,
    });
    // Per attempt the reply is ok | retryable | terminal | died; the single
    // replica stays dead once it died. Attempt 1 ends 2 paths; its retryable
    // branch ends 2 more in attempt 2, then 4 + 1 in attempt 3; its death
    // branch can only die twice more.
    assert_eq!((t.paths, t.ok), (2 + (2 + 4 + 1) + 1, 3));
}

#[test]
fn disaggregated_flow_every_failure_at_every_command() {
    // A tier hit doubles the stub's successful answers (its install landed
    // or refused), which widens the tree. The walk goes as deep as the
    // drivers do: every attempt they would make.
    let mut paths = Vec::new();
    for tier_hit in [false, true] {
        let t = run(Scenario {
            disaggregated: true,
            tier_hit,
            max_attempts: vllm_cluster::MAX_SUBMIT_ATTEMPTS,
        });
        assert!(t.paths > 5_000, "only {} paths (hit={tier_hit})", t.paths);
        paths.push(t.paths);
    }
    assert!(paths[1] > paths[0]);
}

/// A replica's answer when everything a submission carries lands: its
/// install, and the whole of its export resident.
fn all_landed(job: &Submission, tokens: Vec<u32>) -> Replied {
    let export = job.export.clone().unwrap_or_default();
    let blocks = vec![KvBlockBytes::empty(); export.len() / BLOCK];
    Replied {
        output: output(&job.request_id, tokens),
        installed: job.install.is_some(),
        exported: (export, blocks),
    }
}

/// Drives one flow along the all-success path, answering the stub with
/// `stub_tokens`; returns the terminal outcome.
fn happy(prompt: Vec<u32>, stub_tokens: Vec<u32>, decode_outputs: bool) -> RequestOutput {
    let request = GenerationRequest::greedy(4).with_eos(EOS);
    let mut flow = RequestFlow::new("r", prompt.clone(), request, BLOCK, true, 1);
    let mut input = FlowInput::Start;
    for step in 0.. {
        let (_, cmd) = flow.on(input, f64::from(step));
        input = match cmd {
            FlowCommand::Route => FlowInput::Routed { replica: 0 },
            FlowCommand::RouteDecode => FlowInput::Routed { replica: 1 },
            FlowCommand::TierLookup { .. } => FlowInput::Tier(None),
            FlowCommand::Submit { job, .. } => {
                let mut r = all_landed(&job, stub_tokens.clone());
                if job.request.max_tokens != 1 {
                    r = all_landed(&job, vec![20, 21, 22]);
                    if !decode_outputs {
                        r.output.outputs.clear();
                    }
                }
                FlowInput::Reply(Ok(r))
            }
            FlowCommand::Finish(result) => return result.expect("happy path"),
            _ => FlowInput::Done,
        };
    }
    unreachable!()
}

#[test]
fn stub_that_is_the_whole_answer_finishes_without_a_handoff() {
    // EOS first, or no token at all (deadline at admission): the stub's
    // output is the reply.
    assert_eq!(
        happy(prompt(), vec![EOS], true).outputs[0].tokens,
        vec![EOS]
    );
    assert!(happy(prompt(), vec![], true).outputs[0].tokens.is_empty());
    // A decode phase that produced nothing leaves the stub's token standing.
    assert_eq!(happy(prompt(), vec![10], false).outputs[0].tokens, vec![10]);
}

#[test]
fn prompt_within_one_block_ships_nothing() {
    assert_eq!(handoff_cut(2, BLOCK), 0);
    assert_eq!(handoff_cut(3, BLOCK), 2);
    assert_eq!(handoff_cut(0, BLOCK), 0);
    let out = happy(vec![1, 2], vec![10], true);
    assert_eq!(out.outputs[0].tokens, vec![10, 20, 21, 22]);
}

/// What of the cut crosses to the decode replica is what its published
/// coverage does not already show: a later turn of a conversation it decoded
/// before ships only the new blocks, and nothing at all when it holds them
/// all.
#[test]
fn decode_coverage_trims_what_is_shipped() {
    use std::sync::Arc;
    use vllm_cluster::{ReplicaRole, ReplicaSnapshot, RoutePolicy, Router, RouterConfig};

    let prompt: Vec<u32> = (1..=9).collect(); // cut: 4 blocks of 2
    let hashes = vllm_core::chunk_hashes(&prompt, BLOCK);
    for covered in 0..=4 {
        let mut router = Router::new(RouterConfig::new(RoutePolicy::JoinShortestQueue), 2);
        router.set_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode]);
        let mut coverage = hashes[..covered].to_vec();
        coverage.sort_unstable();
        let snaps = [Vec::new(), coverage].map(|coverage| ReplicaSnapshot {
            coverage: Arc::new(coverage),
            ..ReplicaSnapshot::default()
        });
        let request = GenerationRequest::greedy(4).with_eos(EOS);
        let mut flow = RequestFlow::new("r", prompt.clone(), request, BLOCK, true, 1);
        let mut input = FlowInput::Start;
        let (mut transferred, mut installed) = (0, Vec::new());
        let out = loop {
            let (_, cmd) = flow.on(input, 0.0);
            input = match cmd {
                FlowCommand::Route => FlowInput::Routed { replica: 0 },
                FlowCommand::RouteDecode => FlowInput::Routed {
                    replica: flow.route_decode(&mut router, &snaps),
                },
                FlowCommand::TierLookup { .. } => FlowInput::Tier(None),
                FlowCommand::Transfer { replica, blocks } => {
                    assert_eq!(replica, 1);
                    transferred = blocks;
                    FlowInput::Done
                }
                FlowCommand::Submit { job, .. } => {
                    let tokens = if job.request.max_tokens == 1 {
                        vec![10]
                    } else {
                        if let Some(i) = &job.install {
                            installed = vec![i.tokens.len(), i.blocks.len()];
                        }
                        vec![20, 21, 22]
                    };
                    FlowInput::Reply(Ok(all_landed(&job, tokens)))
                }
                FlowCommand::Backoff { .. } => unreachable!("nothing fails"),
                FlowCommand::Finish(result) => break result.expect("happy path"),
            };
        };
        assert_eq!(out.outputs[0].tokens, vec![10, 20, 21, 22]);
        assert_eq!(transferred, 4 - covered, "covered {covered}");
        // The install names the whole cut and carries its last blocks.
        let want = if covered == 4 {
            vec![]
        } else {
            vec![8, 4 - covered]
        };
        assert_eq!(installed, want, "covered {covered}");
    }
}
