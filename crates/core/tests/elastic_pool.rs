//! Property tests for the elastic block pool: runtime deflate / compact /
//! restore under live copy-on-write sharing (parallel sampling, beam
//! search, forked groups, shared prefixes) must leave token streams
//! bit-identical to a fixed-pool run, preserve every block-manager
//! invariant, and leak nothing once the engine drains.

use proptest::prelude::*;

use vllm_core::mock::MockExecutor;
use vllm_core::{
    CacheConfig, ElasticConfig, ElasticController, LlmEngine, SamplingParams, SchedulerConfig,
};

const BS: usize = 4;
const GPU_BLOCKS: usize = 96;
const CPU_BLOCKS: usize = 32;

fn engine() -> LlmEngine<MockExecutor> {
    let cache = CacheConfig::new(BS, GPU_BLOCKS, CPU_BLOCKS)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
    LlmEngine::new(MockExecutor::new(1000), cache, sched)
}

/// One request of the generated workload.
#[derive(Debug, Clone)]
struct ReqSpec {
    prompt_len: usize,
    max_tokens: usize,
    /// 0 = greedy, 1 = parallel sampling (n=2), 2 = beam (width 2).
    mode: u8,
    /// Requests with the same seed share a prompt (and thus cached prefix
    /// blocks / CoW forks exercise shared physical blocks).
    prompt_seed: u8,
}

fn spec_strategy() -> impl Strategy<Value = ReqSpec> {
    (4usize..24, 1usize..10, 0u8..3, 0u8..4).prop_map(|(prompt_len, max_tokens, mode, seed)| {
        ReqSpec {
            prompt_len,
            max_tokens,
            mode,
            prompt_seed: seed,
        }
    })
}

fn add_workload(e: &mut LlmEngine<MockExecutor>, specs: &[ReqSpec]) {
    for (i, s) in specs.iter().enumerate() {
        let prompt: Vec<u32> = (0..s.prompt_len)
            .map(|p| 1 + u32::from(s.prompt_seed) * 1000 + p as u32)
            .collect();
        let params = match s.mode {
            0 => SamplingParams::greedy(s.max_tokens),
            1 => SamplingParams::parallel(2, s.max_tokens),
            _ => SamplingParams::beam(2, s.max_tokens),
        };
        e.add_request(format!("r{i}"), prompt, params).unwrap();
    }
}

/// Sorted (request id, token streams) of a finished run.
fn tokens_of(outs: &[vllm_core::RequestOutput]) -> Vec<(String, Vec<Vec<u32>>)> {
    let mut v: Vec<(String, Vec<Vec<u32>>)> = outs
        .iter()
        .map(|o| {
            (
                o.request_id.clone(),
                o.outputs.iter().map(|c| c.tokens.clone()).collect(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn assert_drained(e: &LlmEngine<MockExecutor>) {
    let bm = e.scheduler().block_manager();
    assert_eq!(
        bm.num_total_gpu_blocks() - bm.num_free_gpu_blocks(),
        0,
        "GPU blocks leaked after drain"
    );
    assert_eq!(
        bm.num_total_cpu_blocks() - bm.num_free_cpu_blocks(),
        0,
        "CPU blocks leaked after drain"
    );
    bm.assert_consistent();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mid-run deflate (which compacts and journals migrations), an
    /// explicit compact, and a later restore must not change a single
    /// output token relative to an untouched fixed-pool run, and both
    /// engines drain without leaking a block.
    #[test]
    fn deflate_compact_restore_is_token_identical_and_leak_free(
        specs in proptest::collection::vec(spec_strategy(), 2..8),
        deflate_after in 1usize..6,
        fraction_pct in 0u32..80,
        restore in proptest::bool::ANY,
    ) {
        // Fixed-pool baseline.
        let mut fixed = engine();
        add_workload(&mut fixed, &specs);
        let baseline = tokens_of(&fixed.run_to_completion().unwrap());
        assert_drained(&fixed);

        // Elastic run: deflate mid-decode, compact, optionally restore.
        let mut elastic = engine();
        add_workload(&mut elastic, &specs);
        let mut outs = Vec::new();
        for _ in 0..deflate_after {
            if !elastic.has_unfinished() {
                break;
            }
            outs.extend(elastic.step().unwrap());
        }
        elastic.deflate_pool(f64::from(fraction_pct) / 100.0).unwrap();
        elastic.compact_pools().unwrap();
        elastic.scheduler().block_manager().assert_consistent();
        if restore {
            for _ in 0..2 {
                if !elastic.has_unfinished() {
                    break;
                }
                outs.extend(elastic.step().unwrap());
            }
            elastic.restore_pool().unwrap();
        }
        outs.extend(elastic.run_to_completion().unwrap());
        let migrated = tokens_of(&outs);

        prop_assert_eq!(baseline, migrated, "tokens diverged after pool migration");
        assert_drained(&elastic);
    }

    /// The hysteresis controller driving resizes autonomously inside
    /// `step()` must likewise keep outputs bit-identical to the fixed pool
    /// and drain leak-free (this is the engine-level determinism the
    /// lockstep fault harness and trace replay rely on).
    #[test]
    fn controller_driven_elasticity_is_token_identical(
        specs in proptest::collection::vec(spec_strategy(), 2..8),
        min_blocks in 8usize..32,
    ) {
        let mut fixed = engine();
        add_workload(&mut fixed, &specs);
        let baseline = tokens_of(&fixed.run_to_completion().unwrap());

        let mut elastic = engine();
        let cfg = ElasticConfig::new(min_blocks, GPU_BLOCKS).unwrap();
        elastic.resize_pools(min_blocks, CPU_BLOCKS).unwrap();
        elastic.set_elastic(Some(ElasticController::new(cfg)));
        add_workload(&mut elastic, &specs);
        let tokens = tokens_of(&elastic.run_to_completion().unwrap());

        prop_assert_eq!(baseline, tokens, "controller-driven run diverged");
        assert_drained(&elastic);
    }
}

/// Deterministic compaction scenario: a freed low region, an active beam
/// group, a CoW fork, and a shared prompt all live while the pool shrinks
/// around them. Shared blocks must migrate exactly once and every table
/// must follow.
#[test]
fn compact_under_active_beam_fork_and_shared_prefix() {
    let mut e = engine();
    // "low" occupies the lowest block ids and finishes first.
    e.add_request("low", (0..16).collect(), SamplingParams::greedy(2))
        .unwrap();
    // Two requests with an identical prompt (shared prefix candidates).
    e.add_request("s1", (500..532).collect(), SamplingParams::greedy(16))
        .unwrap();
    e.add_request("s2", (500..532).collect(), SamplingParams::greedy(16))
        .unwrap();
    // A beam group (CoW forks of a shared prompt allocation).
    e.add_request("beam", (700..724).collect(), SamplingParams::beam(2, 16))
        .unwrap();
    // A parallel-sampling group (forked sequences sharing prompt blocks).
    e.add_request("par", (800..824).collect(), SamplingParams::parallel(2, 16))
        .unwrap();

    // Run until "low" drains, leaving holes at the bottom of the pool.
    let mut outs = Vec::new();
    loop {
        let step = e.step().unwrap();
        let done = step.iter().any(|o| o.request_id == "low");
        outs.extend(step);
        if done {
            break;
        }
        assert!(e.has_unfinished());
    }

    let migrations = e
        .engine_metrics()
        .block_manager
        .block_migrations_total
        .clone();
    let before = migrations.get();
    e.deflate_pool(0.0).unwrap();
    e.scheduler().block_manager().assert_consistent();

    // Finish everything; nothing may leak and outputs must match a clean
    // fixed-pool replay of the same workload. The migrations are counted
    // when the next step's plan carries them to the executor.
    outs.extend(e.run_to_completion().unwrap());
    assert!(
        migrations.get() > before,
        "shrinking around live groups must migrate blocks"
    );
    assert_drained(&e);

    let mut fixed = engine();
    fixed
        .add_request("low", (0..16).collect(), SamplingParams::greedy(2))
        .unwrap();
    fixed
        .add_request("s1", (500..532).collect(), SamplingParams::greedy(16))
        .unwrap();
    fixed
        .add_request("s2", (500..532).collect(), SamplingParams::greedy(16))
        .unwrap();
    fixed
        .add_request("beam", (700..724).collect(), SamplingParams::beam(2, 16))
        .unwrap();
    fixed
        .add_request("par", (800..824).collect(), SamplingParams::parallel(2, 16))
        .unwrap();
    let mut fixed_outs = fixed.run_to_completion().unwrap();

    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    fixed_outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    assert_eq!(tokens_of(&outs), tokens_of(&fixed_outs));
}
