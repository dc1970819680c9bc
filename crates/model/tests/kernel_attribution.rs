//! The six `vllm_model_kernel_*_seconds` series account for an engine's own
//! step time: nothing is counted twice, little is left over, and nothing an
//! engine on another thread ran is counted, because a step's op clock
//! reports its reading to the executor that owns it.

use std::sync::{Barrier, Mutex, PoisonError};

use vllm_core::config::{CacheConfig, SchedulerConfig};
use vllm_core::engine::LlmEngine;
use vllm_core::executor::ModelExecutor;
use vllm_core::sampling::SamplingParams;
use vllm_core::telemetry::MetricsSnapshot;
use vllm_model::ops::timing;
use vllm_model::{BackendKind, CpuModelExecutor, ModelConfig, Transformer};

/// Held by each test here: the process-wide kernel sum counts every clock
/// in this test binary, and one test compares it with its engines' books.
static PROCESS_SUM: Mutex<()> = Mutex::new(());

const CLASSES: [&str; 6] = [
    "matmul",
    "paged_attention",
    "logits",
    "activation",
    "sampling",
    "elementwise",
];

fn cache() -> CacheConfig {
    CacheConfig::new(16, 128, 0).unwrap()
}

fn model() -> ModelConfig {
    ModelConfig {
        backend: BackendKind::Simd,
        ..ModelConfig::small()
    }
}

/// An engine over `exec` with a sampled, a beam and a greedy request of
/// `tokens` tokens queued.
fn engine<E: ModelExecutor>(exec: E, tokens: usize) -> LlmEngine<E> {
    let sched = SchedulerConfig::new(2048, 16, 2048).unwrap();
    let mut engine = LlmEngine::new(exec, cache(), sched);
    let prompt = |seed: u32| (0..8).map(|i| (seed * 31 + i * 7) % 250 + 1).collect();
    let sampled = SamplingParams::parallel(2, tokens).with_seed(3);
    engine.add_request("sampled", prompt(1), sampled).unwrap();
    let beam = SamplingParams::beam(2, tokens.min(30));
    engine.add_request("beam", prompt(2), beam).unwrap();
    let greedy = SamplingParams::greedy(tokens.min(30));
    engine.add_request("greedy", prompt(3), greedy).unwrap();
    engine
}

/// An engine's books: its six class series' sums and its forward time.
struct Books {
    classes: [f64; 6],
    forward: f64,
}

/// The books of an engine that ran at least `min_steps` steps.
fn books(snap: &MetricsSnapshot, min_steps: u64) -> Books {
    let forward = snap.histogram("vllm_executor_forward_seconds").unwrap();
    assert!(
        forward.count >= min_steps,
        "only {} steps ran",
        forward.count
    );
    let classes = CLASSES.map(|class| {
        let name = format!("vllm_model_kernel_{class}_seconds{{backend=\"simd\"}}");
        let series = snap
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(series.count, forward.count, "{name}: one sample per step");
        assert!(series.sum > 0.0, "{name} never advanced");
        series.sum
    });
    Books {
        classes,
        forward: forward.sum,
    }
}

/// Asserts the six classes cover 90–100 % of the engine's forward time.
fn assert_covered(books: &Books, who: &str) {
    let attributed: f64 = books.classes.iter().sum();
    let share = attributed / books.forward;
    assert!(
        (0.90..=1.0).contains(&share),
        "{who}: the six classes cover {:.1} % of vllm_executor_forward_seconds ({attributed:.4} of {:.4} s)",
        share * 100.0,
        books.forward,
    );
}

#[test]
fn kernel_series_sum_to_the_forward_time() {
    let _alone = PROCESS_SUM.lock().unwrap_or_else(PoisonError::into_inner);
    let mut engine = engine(CpuModelExecutor::from_config(model(), &cache()), 200);
    engine.run_to_completion().unwrap();
    let books = books(&engine.metrics_snapshot(), 200);
    assert_covered(&books, "one engine");
}

/// Runs `engine` to completion once every engine at `start` is ready: its
/// sampled request's [`CONCURRENT_TOKENS`] tokens take a step each.
fn run<E: ModelExecutor>(start: &Barrier, mut engine: LlmEngine<E>) -> Books {
    start.wait();
    engine.run_to_completion().unwrap();
    books(&engine.metrics_snapshot(), CONCURRENT_TOKENS as u64)
}

/// The output length of the concurrent engines' sampled requests.
const CONCURRENT_TOKENS: usize = 120;

#[test]
fn concurrent_engines_keep_their_own_books() {
    let _alone = PROCESS_SUM.lock().unwrap_or_else(PoisonError::into_inner);
    const SHARDS: usize = 2;
    let one_worker = || {
        engine(
            CpuModelExecutor::from_config(model(), &cache()),
            CONCURRENT_TOKENS,
        )
    };
    let (a, b) = (one_worker(), one_worker());
    let tp = CpuModelExecutor::sharded(Transformer::new(model()), SHARDS, &cache());
    let tp = engine(tp, CONCURRENT_TOKENS);
    let before = timing::snapshot();
    let start = Barrier::new(3);
    let (a, b, tp) = std::thread::scope(|s| {
        let a = s.spawn(|| run(&start, a));
        let b = s.spawn(|| run(&start, b));
        let tp = s.spawn(|| run(&start, tp));
        let join = |h: std::thread::ScopedJoinHandle<'_, Books>| h.join().unwrap();
        (join(a), join(b), join(tp))
    });
    let delta = timing::snapshot().delta_since(&before);

    assert_covered(&a, "one-worker engine a");
    assert_covered(&b, "one-worker engine b");
    // A tensor-parallel step's shard tasks run side by side, each on a
    // clock of its own: together they hold at most one step per shard.
    let tp_attributed: f64 = tp.classes.iter().sum();
    assert!(
        tp_attributed <= tp.forward * SHARDS as f64,
        "{SHARDS}-worker engine: the six classes hold {tp_attributed:.4} s, over {SHARDS} x its {:.4} s forward time",
        tp.forward,
    );

    // Every clock in the process was one of these engines' steps: the
    // process-wide sum is their books added up, to rounding.
    for (i, class) in CLASSES.iter().enumerate() {
        let books: f64 = [&a, &b, &tp].iter().map(|e| e.classes[i]).sum();
        let process = delta.ns()[i] as f64 / 1e9;
        assert!(
            (books - process).abs() <= 1e-6,
            "{class}: the engines' books hold {books:.6} s, the process-wide sum {process:.6} s",
        );
    }
}

/// The LM-head calls `engine`'s steps make, over the steps it runs to
/// completion.
fn logits_calls_per_step<E: ModelExecutor>(mut engine: LlmEngine<E>) -> (u64, u64) {
    let before = timing::snapshot().logits_calls;
    let mut steps = 0;
    while engine.has_unfinished() {
        engine.step().unwrap();
        steps += 1;
    }
    (timing::snapshot().logits_calls - before, steps)
}

#[test]
fn a_step_is_one_forward() {
    let _alone = PROCESS_SUM.lock().unwrap_or_else(PoisonError::into_inner);
    // Step 0 holds the three queued prompts.
    let queued = engine(CpuModelExecutor::from_config(model(), &cache()), 6);
    let (calls, steps) = logits_calls_per_step(queued);
    assert_eq!(calls, steps, "three prompts, then decodes");
    // A budget of 12 tokens splits the second prompt into chunks that
    // share their steps with the first request's decode rows.
    let mut budgeted = engine(CpuModelExecutor::from_config(model(), &cache()), 6);
    budgeted.set_step_token_budget(12);
    let (calls, steps) = logits_calls_per_step(budgeted);
    assert_eq!(calls, steps, "prompt chunks beside decode rows");
}
