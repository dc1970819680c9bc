//! Property-based tests over the serving engine: random request mixes
//! (prompt lengths, output budgets, parallel sampling, beam search) against
//! random pool sizes must always complete, never leak or double-free KV
//! blocks, and respect output-length contracts.
//!
//! A second suite runs the real CPU model: batched decode must be
//! indistinguishable from per-sequence decode (tokens identical, logprobs
//! within 1e-5) across decode batch widths and under recompute/swap
//! preemption.

use proptest::prelude::*;

use vllm::core::config::PreemptionMode;
use vllm::core::mock::MockExecutor;
use vllm::core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig, SequenceStatus};
use vllm::model::{CpuModelExecutor, KvPool, ModelConfig, SeqInput, Transformer};

#[derive(Debug, Clone)]
struct ReqSpec {
    prompt_len: usize,
    max_tokens: usize,
    n: usize,
    beam: bool,
}

fn req_strategy() -> impl Strategy<Value = ReqSpec> {
    (1usize..40, 1usize..24, 1usize..5, proptest::bool::ANY).prop_map(
        |(prompt_len, max_tokens, n, beam)| ReqSpec {
            prompt_len,
            max_tokens,
            n,
            beam,
        },
    )
}

fn build_engine(
    block_size: usize,
    gpu_blocks: usize,
    cpu_blocks: usize,
    mode: PreemptionMode,
) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(block_size, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(256, 32, 256)
        .unwrap()
        .with_preemption_mode(mode);
    LlmEngine::new(MockExecutor::new(500), cache, sched)
}

/// Engine with the configuration the pre-pipeline (monolithic `step()`)
/// engine used when the golden outputs below were captured.
fn golden_engine(gpu: usize, cpu: usize, mode: PreemptionMode) -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(4, gpu, cpu)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048)
        .unwrap()
        .with_preemption_mode(mode);
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

/// `(request_id, per-output token streams)` sorted by request id.
fn collect_sorted(outs: Vec<vllm::core::engine::RequestOutput>) -> Vec<(String, Vec<Vec<u32>>)> {
    let mut v: Vec<(String, Vec<Vec<u32>>)> = outs
        .into_iter()
        .map(|o| {
            (
                o.request_id,
                o.outputs.into_iter().map(|c| c.tokens).collect(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Golden outputs captured from the seed engine (pre staged-pipeline) on
/// mixed greedy/parallel/beam workloads, under no contention, recompute
/// preemption, and swap preemption. The staged pipeline must reproduce them
/// token for token.
#[test]
fn staged_pipeline_matches_seed_engine_golden_outputs() {
    // W1: mixed decoding modes, uncontended.
    let mut e = golden_engine(64, 0, PreemptionMode::Recompute);
    e.add_request_at("r0", (0..5).collect(), SamplingParams::greedy(8), 0.0)
        .unwrap();
    e.add_request_at(
        "r1",
        (10..20).collect(),
        SamplingParams::parallel(3, 6),
        0.01,
    )
    .unwrap();
    e.add_request_at("r2", (30..38).collect(), SamplingParams::beam(3, 5), 0.02)
        .unwrap();
    let got = collect_sorted(e.run_to_completion().unwrap());
    let want: Vec<(String, Vec<Vec<u32>>)> = vec![
        (
            "r0".into(),
            vec![vec![270, 383, 381, 658, 651, 705, 822, 452]],
        ),
        (
            "r1".into(),
            vec![
                vec![78, 689, 551, 90, 16, 115],
                vec![925, 308, 830, 675, 349, 418],
                vec![168, 249, 63, 802, 856, 891],
            ],
        ),
        (
            "r2".into(),
            vec![
                vec![168, 165, 423, 756, 46],
                vec![655, 119, 445, 394, 608],
                vec![168, 165, 423, 756, 445],
            ],
        ),
    ];
    assert_eq!(got, want);

    // W2: contended pool, recompute preemption.
    let mut e = golden_engine(8, 0, PreemptionMode::Recompute);
    e.add_request_at("a", (0..8).collect(), SamplingParams::greedy(12), 0.0)
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    e.add_request_at("c", (200..204).collect(), SamplingParams::greedy(6), 0.2)
        .unwrap();
    let got = collect_sorted(e.run_to_completion().unwrap());
    let want: Vec<(String, Vec<Vec<u32>>)> = vec![
        (
            "a".into(),
            vec![vec![
                463, 246, 904, 787, 221, 596, 70, 337, 35, 858, 141, 975,
            ]],
        ),
        (
            "b".into(),
            vec![vec![
                920, 37, 191, 188, 174, 227, 909, 458, 356, 593, 246, 656,
            ]],
        ),
        ("c".into(), vec![vec![826, 772, 449, 355, 480, 253]]),
    ];
    assert_eq!(got, want);
    assert_eq!(e.scheduler().stats().num_preemptions, 8);

    // W3: contended pool, swap preemption.
    let mut e = golden_engine(6, 16, PreemptionMode::Swap);
    e.add_request_at("a", (0..8).collect(), SamplingParams::greedy(12), 0.0)
        .unwrap();
    e.add_request_at("b", (100..108).collect(), SamplingParams::greedy(12), 0.1)
        .unwrap();
    let got = collect_sorted(e.run_to_completion().unwrap());
    let want: Vec<(String, Vec<Vec<u32>>)> = vec![
        (
            "a".into(),
            vec![vec![
                463, 246, 904, 787, 221, 596, 70, 337, 35, 858, 141, 975,
            ]],
        ),
        (
            "b".into(),
            vec![vec![
                920, 37, 191, 188, 174, 227, 909, 458, 356, 593, 246, 656,
            ]],
        ),
    ];
    assert_eq!(got, want);
    assert_eq!(e.scheduler().stats().num_swap_preemptions, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The staged pipeline is deterministic on mixed prefill/decode/beam
    /// workloads: the same request stream replayed through a fresh engine
    /// yields identical outputs.
    #[test]
    fn mixed_workloads_are_deterministic(
        reqs in proptest::collection::vec(req_strategy(), 1..8),
        swap in proptest::bool::ANY,
    ) {
        let run = || {
            let mode = if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute };
            let mut engine = build_engine(4, 32, 32, mode);
            for (i, r) in reqs.iter().enumerate() {
                let params = if r.beam {
                    SamplingParams::beam(r.n, r.max_tokens)
                } else {
                    SamplingParams::parallel(r.n, r.max_tokens)
                };
                let prompt: Vec<u32> = (0..r.prompt_len as u32).collect();
                engine
                    .add_request_at(format!("r{i}"), prompt, params, i as f64 * 1e-3)
                    .unwrap();
            }
            collect_sorted(engine.run_to_completion().unwrap())
        };
        prop_assert_eq!(run(), run());
    }

    /// Greedy single-sequence outputs are invariant under memory pressure:
    /// a contended pool (with either preemption mode) produces exactly the
    /// tokens of an uncontended run.
    #[test]
    fn greedy_outputs_invariant_under_contention(
        arrivals in proptest::collection::vec((1usize..24, 1usize..12), 1..8),
        gpu_blocks in 10usize..24,
        swap in proptest::bool::ANY,
    ) {
        let run = |gpu: usize, cpu: usize, mode: PreemptionMode| {
            let mut engine = build_engine(4, gpu, cpu, mode);
            for (i, (prompt_len, max_tokens)) in arrivals.iter().enumerate() {
                let prompt: Vec<u32> = (0..*prompt_len as u32).collect();
                engine
                    .add_request_at(
                        format!("r{i}"),
                        prompt,
                        SamplingParams::greedy(*max_tokens),
                        i as f64 * 1e-3,
                    )
                    .unwrap();
            }
            collect_sorted(engine.run_to_completion().unwrap())
        };
        let uncontended = run(256, 256, PreemptionMode::Recompute);
        let mode = if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let contended = run(gpu_blocks, gpu_blocks, mode);
        prop_assert_eq!(uncontended, contended);
    }

    #[test]
    fn random_workloads_complete_and_free_all_blocks(
        reqs in proptest::collection::vec(req_strategy(), 1..10),
        block_size in 1usize..9,
        gpu_blocks in 24usize..96,
        swap in proptest::bool::ANY,
    ) {
        let mode = if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let mut engine = build_engine(block_size, gpu_blocks, gpu_blocks, mode);
        let mut expected_done = 0usize;
        for (i, r) in reqs.iter().enumerate() {
            let params = if r.beam {
                SamplingParams::beam(r.n, r.max_tokens)
            } else {
                SamplingParams::parallel(r.n, r.max_tokens)
            };
            let prompt: Vec<u32> = (0..r.prompt_len as u32).collect();
            // Requests whose prompt alone exceeds the pool are rejected by
            // the scheduler (AllocStatus::Never) — they still produce an
            // (empty) output.
            engine
                .add_request_at(format!("r{i}"), prompt, params, i as f64 * 1e-3)
                .unwrap();
            expected_done += 1;
        }
        let mut outputs = Vec::new();
        let mut guard = 0u32;
        while engine.has_unfinished() {
            outputs.extend(engine.step().unwrap());
            guard += 1;
            prop_assert!(guard < 50_000, "engine failed to make progress");
            engine.scheduler().block_manager().assert_consistent();
        }
        prop_assert_eq!(outputs.len(), expected_done, "every request finishes exactly once");

        // No leaks: both pools fully free.
        let bm = engine.scheduler().block_manager();
        prop_assert_eq!(bm.num_free_gpu_blocks(), gpu_blocks);
        prop_assert_eq!(bm.num_free_cpu_blocks(), gpu_blocks);

        // Outputs arrive in completion order; re-align with request order.
        outputs.sort_by_key(|o| o.request_id[1..].parse::<usize>().unwrap());
        for (out, spec) in outputs.iter().zip(reqs.iter()) {
            // Ignored (oversized) requests have no outputs; completed ones
            // respect n and max_tokens.
            if out.outputs.is_empty() {
                continue;
            }
            prop_assert!(out.outputs.len() <= spec.n);
            for c in &out.outputs {
                prop_assert!(c.tokens.len() <= spec.max_tokens);
                prop_assert!(!c.tokens.is_empty());
                prop_assert!(matches!(
                    c.finish_reason,
                    SequenceStatus::FinishedStopped | SequenceStatus::FinishedLengthCapped
                ));
            }
            if !spec.beam {
                prop_assert_eq!(out.outputs.len(), spec.n, "parallel sampling returns n outputs");
                for c in &out.outputs {
                    prop_assert_eq!(c.tokens.len(), spec.max_tokens);
                }
            }
        }
    }

    #[test]
    fn eos_always_respected(
        prompt_len in 1usize..30,
        period in 1usize..12,
        max_tokens in 1usize..30,
    ) {
        let mut engine = build_engine(4, 64, 0, PreemptionMode::Recompute);
        engine.executor_mut().eos_token = Some((3, period));
        let prompt: Vec<u32> = (10..10 + prompt_len as u32).collect();
        engine
            .add_request("r", prompt, SamplingParams::greedy(max_tokens).with_eos(3))
            .unwrap();
        let outs = engine.run_to_completion().unwrap();
        let c = &outs[0].outputs[0];
        prop_assert!(c.tokens.len() <= max_tokens);
        // No eos token anywhere except possibly the last position.
        for &t in &c.tokens[..c.tokens.len().saturating_sub(1)] {
            prop_assert_ne!(t, 3);
        }
        if c.finish_reason == SequenceStatus::FinishedStopped {
            prop_assert_eq!(*c.tokens.last().unwrap(), 3);
        }
    }

    #[test]
    fn interleaved_arrivals_conserve_requests(
        arrivals in proptest::collection::vec((1usize..30, 1usize..16), 1..12),
    ) {
        let mut engine = build_engine(4, 48, 48, PreemptionMode::Swap);
        let mut added = 0;
        let mut outputs = Vec::new();
        for (i, (prompt_len, max_tokens)) in arrivals.iter().enumerate() {
            let prompt: Vec<u32> = (0..*prompt_len as u32).collect();
            engine
                .add_request(format!("r{i}"), prompt, SamplingParams::greedy(*max_tokens))
                .unwrap();
            added += 1;
            // Interleave: run a couple of steps between arrivals.
            for _ in 0..2 {
                outputs.extend(engine.step().unwrap());
            }
        }
        while engine.has_unfinished() {
            outputs.extend(engine.step().unwrap());
        }
        prop_assert_eq!(outputs.len(), added);
        prop_assert_eq!(engine.scheduler().block_manager().num_free_gpu_blocks(), 48);
    }
}

/// Engine over the real CPU transformer substrate.
fn cpu_engine(
    gpu_blocks: usize,
    cpu_blocks: usize,
    mode: PreemptionMode,
    max_seqs: usize,
) -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(4, gpu_blocks, cpu_blocks)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(256, max_seqs, 256)
        .unwrap()
        .with_preemption_mode(mode);
    let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
    LlmEngine::new(exec, cache, sched)
}

/// Per-request completions: `(tokens, cumulative logprob)` per output.
type RunOutputs = Vec<(String, Vec<(Vec<u32>, f64)>)>;

/// `(request_id, per-output (tokens, cumulative logprob))` sorted by id.
fn collect_with_logprobs(outs: Vec<vllm::core::engine::RequestOutput>) -> RunOutputs {
    let mut v: RunOutputs = outs
        .into_iter()
        .map(|o| {
            (
                o.request_id,
                o.outputs
                    .into_iter()
                    .map(|c| (c.tokens, c.cumulative_logprob))
                    .collect(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Tokens must match exactly; cumulative logprobs within `tol`.
fn assert_runs_equivalent(a: &RunOutputs, b: &RunOutputs, tol: f64) {
    assert_eq!(a.len(), b.len());
    for ((id_a, outs_a), (id_b, outs_b)) in a.iter().zip(b) {
        assert_eq!(id_a, id_b);
        assert_eq!(outs_a.len(), outs_b.len(), "output count for {id_a}");
        for ((toks_a, lp_a), (toks_b, lp_b)) in outs_a.iter().zip(outs_b) {
            assert_eq!(toks_a, toks_b, "tokens diverged for {id_a}");
            assert!(
                (lp_a - lp_b).abs() <= tol,
                "logprob diverged for {id_a}: {lp_a} vs {lp_b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched decode is transparent at the engine level: staggered
    /// greedy arrivals (whose step plans mix prefill and decode items)
    /// produce the same tokens and logprobs whether the scheduler runs
    /// one sequence per step (`max_num_seqs = 1`, every forward solo) or
    /// batches every runnable sequence.
    #[test]
    fn cpu_model_outputs_invariant_across_decode_batch_widths(
        arrivals in proptest::collection::vec((1usize..12, 1usize..8), 1..5),
    ) {
        let run = |max_seqs: usize| {
            let mut engine = cpu_engine(128, 128, PreemptionMode::Recompute, max_seqs);
            for (i, (prompt_len, max_tokens)) in arrivals.iter().enumerate() {
                let prompt: Vec<u32> = (1..=*prompt_len as u32).collect();
                engine
                    .add_request_at(
                        format!("r{i}"),
                        prompt,
                        SamplingParams::greedy(*max_tokens),
                        i as f64 * 1e-3,
                    )
                    .unwrap();
            }
            collect_with_logprobs(engine.run_to_completion().unwrap())
        };
        let solo = run(1);
        let batched = run(16);
        assert_runs_equivalent(&solo, &batched, 1e-5);
    }

    /// Batched decode stays transparent under preemption: a contended
    /// pool (recompute or swap recovery) yields exactly the uncontended
    /// outputs, even though preemption reshuffles which sequences share
    /// each batched forward.
    #[test]
    fn cpu_model_outputs_invariant_under_preemption(
        arrivals in proptest::collection::vec((1usize..12, 1usize..8), 2..6),
        gpu_blocks in 8usize..16,
        swap in proptest::bool::ANY,
    ) {
        let run = |gpu: usize, cpu: usize, mode: PreemptionMode| {
            let mut engine = cpu_engine(gpu, cpu, mode, 16);
            for (i, (prompt_len, max_tokens)) in arrivals.iter().enumerate() {
                let prompt: Vec<u32> = (1..=*prompt_len as u32).collect();
                engine
                    .add_request_at(
                        format!("r{i}"),
                        prompt,
                        SamplingParams::greedy(*max_tokens),
                        i as f64 * 1e-3,
                    )
                    .unwrap();
            }
            collect_with_logprobs(engine.run_to_completion().unwrap())
        };
        let uncontended = run(256, 256, PreemptionMode::Recompute);
        let mode = if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute };
        let contended = run(gpu_blocks, gpu_blocks, mode);
        assert_runs_equivalent(&uncontended, &contended, 1e-5);
    }

    /// Model-level form of the same property: one batched decode forward
    /// over sequences with random (mixed-length) contexts matches a solo
    /// `forward_paged` call per sequence — logits within 1e-5 (they are
    /// bit-identical by construction) on both position-encoding schemes.
    #[test]
    fn batched_decode_forward_matches_solo_on_random_mixes(
        lens in proptest::collection::vec(1usize..20, 2..6),
        rotary in proptest::bool::ANY,
    ) {
        let config = if rotary { ModelConfig::tiny_rotary() } else { ModelConfig::tiny() };
        let model = Transformer::new(config.clone());
        let block_size = 4usize;
        let blocks_per_seq = 6; // covers a 20-token prompt + 1 decode slot
        let mut kv = KvPool::new(
            config.n_layers,
            lens.len() * blocks_per_seq,
            block_size,
            config.hidden,
        );
        let tables: Vec<Vec<usize>> = (0..lens.len())
            .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
            .collect();
        for (i, &len) in lens.iter().enumerate() {
            let prompt: Vec<u32> = (0..len as u32).map(|t| (t * 7 + i as u32) % 128).collect();
            let positions: Vec<usize> = (0..len).collect();
            model.forward_paged(&prompt, &positions, &mut kv, &tables[i]);
        }
        let mut kv_solo = kv.clone();

        let tokens: Vec<u32> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (len as u32 * 3 + i as u32) % 128)
            .collect();
        let inputs: Vec<SeqInput<'_>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| SeqInput {
                tokens: &tokens[i..=i],
                first_position: len,
                block_table: &tables[i],
            })
            .collect();
        let batched = model.forward(&inputs, &mut kv);

        let vocab = config.vocab_size;
        for (i, inp) in inputs.iter().enumerate() {
            let solo = model.forward(&[*inp], &mut kv_solo);
            let row = &batched[i * vocab..(i + 1) * vocab];
            for (j, (&b, &s)) in row.iter().zip(&solo).enumerate() {
                prop_assert!(
                    (b - s).abs() <= 1e-5,
                    "seq {i} logit {j}: batched {b} vs solo {s}"
                );
            }
        }
    }
}
