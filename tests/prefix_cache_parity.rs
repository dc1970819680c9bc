//! The content-addressed block cache must be invisible in outputs: with it
//! on, every request's tokens and cumulative logprob *bits* equal the run
//! with it off (`set_auto_prefix_match(false)`), on every kernel backend,
//! while the pool is small enough that cached blocks are evicted, groups
//! are swapped out and recomputed, prompts are chunked, and the pool is
//! compacted and resized under the requests' feet. The manager's invariants
//! are checked after every step and every block is free at the end.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vllm::core::{
    chunk_hashes, CacheConfig, LlmEngine, PreemptionMode, SamplingParams, SchedulerConfig, TokenId,
};
use vllm::model::backend::BackendKind;
use vllm::model::{CpuModelExecutor, ModelConfig};
use vllm::workloads::dist::Zipf;

const BLOCK_SIZE: usize = 4;
const GPU_BLOCKS: usize = 18;
const CPU_BLOCKS: usize = 48;
const REQUESTS: usize = 14;

#[derive(Clone, Copy, Debug)]
enum Mix {
    /// Greedy and beam requests: outputs depend on logits alone.
    Beam,
    /// Greedy and seeded parallel-sampling requests. Sampling streams are
    /// keyed by sequence id; ids are allocated at `add_request` and at each
    /// group's first prompt step, which FCFS admission orders by arrival, so
    /// (without beams, which fork at data-dependent steps) they do not
    /// depend on the schedule either.
    Sample,
}

#[derive(Clone, Copy, Debug)]
struct Setup {
    backend: BackendKind,
    mode: PreemptionMode,
    budget: Option<usize>,
    /// Compact, shrink and restore the pool mid-run.
    elastic: bool,
    mix: Mix,
}

/// Prompts with Zipf-shared prefixes: four system prompts of uneven,
/// mostly unaligned lengths, each request one of them plus its own tail —
/// and a few exact repeats, which the strict-prefix rule must still run a
/// row for.
fn prompts(seed: u64) -> Vec<Vec<TokenId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tokens =
        |n: usize| -> Vec<TokenId> { (0..n).map(|_| rng.random_range(1..120u32)).collect() };
    let systems: Vec<Vec<TokenId>> = [22, 13, 8, 17].into_iter().map(&mut tokens).collect();
    let mut picks = StdRng::seed_from_u64(seed ^ 0x5eed);
    let zipf = Zipf::new(systems.len(), 1.1);
    let mut prompts: Vec<Vec<TokenId>> = Vec::new();
    for i in 0..REQUESTS {
        if i % 5 == 4 {
            prompts.push(prompts[i - 3].clone());
            continue;
        }
        let mut prompt = systems[zipf.sample(&mut picks)].clone();
        prompt.extend(tokens(1 + i % 7));
        prompts.push(prompt);
    }
    prompts
}

fn params(mix: Mix, i: usize) -> SamplingParams {
    let len = 5 + i % 4;
    match (mix, i % 4) {
        (Mix::Beam, 1) => SamplingParams::beam(3, len),
        (Mix::Beam, 3) => SamplingParams::beam(2, len),
        (Mix::Sample, 1) => SamplingParams::parallel(3, len).with_seed(i as u64),
        (Mix::Sample, 3) => SamplingParams::parallel(2, len).with_seed(i as u64),
        _ => SamplingParams::greedy(len),
    }
    .with_ignore_eos()
}

type Outputs = Vec<(String, Vec<(Vec<TokenId>, u64)>)>;

struct Run {
    outputs: Outputs,
    hit_tokens: u64,
    swaps: u64,
    recomputes: u64,
}

fn run(setup: Setup, prompts: &[Vec<TokenId>], cache_on: bool) -> Run {
    let cache = CacheConfig::new(BLOCK_SIZE, GPU_BLOCKS, CPU_BLOCKS).unwrap();
    let sched = SchedulerConfig::new(512, 8, 512)
        .unwrap()
        .with_preemption_mode(setup.mode)
        .with_step_token_budget(setup.budget);
    let model = ModelConfig {
        backend: setup.backend,
        ..ModelConfig::tiny()
    };
    let exec = CpuModelExecutor::from_config(model, &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    e.set_auto_prefix_match(cache_on);
    for (i, prompt) in prompts.iter().enumerate() {
        let arrival = i as f64 * 1e-6;
        e.add_request_at(
            format!("r{i:02}"),
            prompt.clone(),
            params(setup.mix, i),
            arrival,
        )
        .unwrap();
    }
    let mut outs = Vec::new();
    let mut steps = 0;
    while e.has_unfinished() {
        if setup.elastic {
            let live = e.scheduler().block_manager().num_allocated_gpu_blocks();
            match steps {
                5 => e.compact_pools().unwrap(),
                11 => e
                    .resize_pools(live.max(GPU_BLOCKS - 5), CPU_BLOCKS)
                    .unwrap(),
                23 => e.resize_pools(GPU_BLOCKS, CPU_BLOCKS).unwrap(),
                _ => {}
            }
        }
        outs.extend(e.step().expect("step() never errors"));
        e.scheduler().block_manager().assert_consistent();
        steps += 1;
        assert!(steps < 5_000, "{setup:?} does not terminate");
    }
    assert!(
        steps > 23,
        "{setup:?} finished before the pool was restored"
    );
    let bm = e.scheduler().block_manager();
    assert_eq!(
        bm.num_free_gpu_blocks(),
        bm.num_total_gpu_blocks(),
        "{setup:?}"
    );
    assert_eq!(bm.num_free_cpu_blocks(), CPU_BLOCKS, "{setup:?}");
    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    let outputs = outs
        .into_iter()
        .map(|o| {
            let mut seqs: Vec<_> = o
                .outputs
                .iter()
                .map(|c| (c.tokens.clone(), c.cumulative_logprob.to_bits()))
                .collect();
            // Beam outputs come ranked; parallel samples in sequence-id
            // order, which is not part of the contract.
            seqs.sort();
            (o.request_id, seqs)
        })
        .collect();
    let stats = e.scheduler().stats();
    Run {
        outputs,
        hit_tokens: bm.prefix_lookup_stats().1,
        swaps: stats.num_swap_preemptions,
        recomputes: stats.num_recompute_preemptions,
    }
}

#[test]
fn cache_on_equals_cache_off_under_eviction_preemption_chunking_and_resizing() {
    let prompts = prompts(0xcac4e);
    // The pool cannot hold the prompts' distinct full blocks, let alone the
    // generated ones: cached blocks must be evicted along the way.
    let distinct: HashSet<u64> = prompts
        .iter()
        .flat_map(|p| chunk_hashes(p, BLOCK_SIZE))
        .collect();
    assert!(distinct.len() > GPU_BLOCKS, "{} blocks", distinct.len());

    for backend in BackendKind::all() {
        for mode in [PreemptionMode::Swap, PreemptionMode::Recompute] {
            for (budget, mix, elastic) in [
                (None, Mix::Beam, false),
                (None, Mix::Sample, true),
                (Some(7), Mix::Beam, true),
                (Some(7), Mix::Sample, false),
            ] {
                let setup = Setup {
                    backend,
                    mode,
                    budget,
                    elastic,
                    mix,
                };
                let off = run(setup, &prompts, false);
                let on = run(setup, &prompts, true);
                assert_eq!(off.hit_tokens, 0, "{setup:?}");
                assert!(on.hit_tokens > 0, "{setup:?} never hit the cache");
                assert_eq!(on.outputs.len(), REQUESTS, "{setup:?}");
                assert_eq!(on.outputs, off.outputs, "{setup:?}");
                // Recompute mode still swaps groups of several sequences.
                match mode {
                    PreemptionMode::Swap => assert!(on.swaps > 0, "{setup:?} never swapped"),
                    PreemptionMode::Recompute => {
                        assert!(on.recomputes > 0, "{setup:?} never recomputed");
                    }
                }
            }
        }
    }
}

/// A waiting request must never carry block ids: warm a prefix, enqueue a
/// request that extends it, then — before the request is admitted — make the
/// tiny pool hand the warmed blocks out again for different content. The
/// request looks the index up when it is admitted, finds nothing, computes
/// its whole prompt, and answers exactly as an uncached engine does. (When
/// admission copied the pinned prefix's block ids at `add_request` time, the
/// same sequence either failed with `DoubleFree` or attended over the other
/// prefix's KV.)
#[test]
fn blocks_reused_between_enqueue_and_admission_are_looked_up_not_remembered() {
    let system: Vec<TokenId> = (1..=16).collect();
    let other: Vec<TokenId> = (60..88).collect();
    let mut prompt = system.clone();
    prompt.extend([40, 41, 42]);
    let run = |cache_on: bool| {
        let cache = CacheConfig::new(BLOCK_SIZE, 7, 0).unwrap();
        let sched = SchedulerConfig::new(512, 8, 512).unwrap();
        let exec = CpuModelExecutor::from_config(ModelConfig::tiny(), &cache);
        let mut e = LlmEngine::new(exec, cache, sched);
        e.set_auto_prefix_match(cache_on);
        e.register_prefix(&system).unwrap();
        // 19 prompt + 4 generated tokens: six blocks and the spare one a
        // running sequence must always find free.
        e.add_request("r", prompt.clone(), SamplingParams::greedy(4))
            .unwrap();
        // Seven blocks of other content in a seven-block pool: every block
        // the first warm-up filled is overwritten.
        e.register_prefix(&other).unwrap();
        let mut outs = Vec::new();
        while e.has_unfinished() {
            outs.extend(e.step().expect("step() never errors"));
            e.scheduler().block_manager().assert_consistent();
        }
        let hit = e.scheduler().block_manager().prefix_lookup_stats().1;
        assert_eq!(hit, 0, "nothing of the first prefix is left to hit");
        let c = &outs[0].outputs[0];
        (c.tokens.clone(), c.cumulative_logprob.to_bits())
    };
    assert_eq!(run(true), run(false));
}
