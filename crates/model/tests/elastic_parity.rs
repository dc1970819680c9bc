//! Elastic-pool parity across kernel backends: a mid-run pool deflate /
//! compact / restore cycle (which migrates live KV blocks and rewrites
//! block tables) must leave token streams AND cumulative logprobs
//! bit-identical to a fixed-pool run, for every backend — simd and
//! quantized-KV. Migration moves raw block bytes, so it must be
//! invisible to the math no matter how the backend lays KV out.

use vllm_core::{CacheConfig, LlmEngine, RequestOutput, SamplingParams, SchedulerConfig};
use vllm_model::backend::BackendKind;
use vllm_model::{CpuModelExecutor, ModelConfig, PositionEncoding};

const BLOCK_SIZE: usize = 16;
const GPU_BLOCKS: usize = 64;

fn small_config(kind: BackendKind) -> ModelConfig {
    ModelConfig {
        vocab_size: 211,
        hidden: 48,
        n_layers: 2,
        n_heads: 4,
        max_position: 96,
        eos_token_id: 0,
        seed: 0x00d5_eed5,
        position_encoding: PositionEncoding::Learned,
        backend: kind,
    }
}

fn engine(kind: BackendKind) -> LlmEngine<CpuModelExecutor> {
    let cache = CacheConfig::new(BLOCK_SIZE, GPU_BLOCKS, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(512, 8, 512).unwrap();
    let exec = CpuModelExecutor::from_config(small_config(kind), &cache);
    LlmEngine::new(exec, cache, sched)
}

/// Golden workload mixing decoding modes so migration runs under CoW
/// sharing: greedy, parallel sampling (forked prompt blocks), and beam
/// search (fork + beam-switch copies).
fn add_workload(e: &mut LlmEngine<CpuModelExecutor>) {
    let golden: [(&str, &[u32], SamplingParams); 5] = [
        // "w" grabs the lowest block ids and drains first, leaving the
        // holes at the bottom of the pool that compaction fills.
        ("w", &[9, 8, 7, 6, 5, 4, 3, 2, 1], SamplingParams::greedy(2)),
        ("g0", &[1, 2, 3, 4, 5], SamplingParams::greedy(12)),
        ("g1", &[7, 11, 13], SamplingParams::greedy(12)),
        (
            "p0",
            &[100, 50, 25, 12, 6, 3, 1, 9],
            SamplingParams::parallel(2, 10),
        ),
        ("b0", &[42, 43, 44, 45, 46, 47], SamplingParams::beam(2, 10)),
    ];
    for (id, prompt, params) in golden {
        e.add_request(id.to_string(), prompt.to_vec(), params)
            .unwrap();
    }
}

/// Per-completion (tokens, logprob bits); logprobs are compared through
/// their bit pattern so "identical" means bit-identical, not merely close.
type Completion = (Vec<u32>, u64);

/// Sorted per-request (id, completions) fingerprint.
fn fingerprint(outs: &[RequestOutput]) -> Vec<(String, Vec<Completion>)> {
    let mut v: Vec<_> = outs
        .iter()
        .map(|o| {
            (
                o.request_id.clone(),
                o.outputs
                    .iter()
                    .map(|c| (c.tokens.clone(), c.cumulative_logprob.to_bits()))
                    .collect(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn assert_elastic_cycle_is_invisible(kind: BackendKind) {
    // Fixed-pool reference run.
    let mut fixed = engine(kind);
    add_workload(&mut fixed);
    let reference = fingerprint(&fixed.run_to_completion().unwrap());

    // Elastic run: deflate to the live working set mid-decode (forcing
    // compaction and block migration), compact again, then grow back.
    let mut elastic = engine(kind);
    add_workload(&mut elastic);
    let mut outs = Vec::new();
    while outs.iter().all(|o: &RequestOutput| o.request_id != "w") {
        assert!(elastic.has_unfinished());
        outs.extend(elastic.step().unwrap());
    }
    let migrations = elastic
        .engine_metrics()
        .block_manager
        .block_migrations_total
        .clone();
    let migrations_before = migrations.get();
    elastic.deflate_pool(0.0).unwrap();
    elastic.compact_pools().unwrap();
    for _ in 0..2 {
        if elastic.has_unfinished() {
            outs.extend(elastic.step().unwrap());
        }
    }
    elastic.restore_pool().unwrap();
    outs.extend(elastic.run_to_completion().unwrap());

    assert_eq!(
        reference,
        fingerprint(&outs),
        "{}: tokens/logprobs diverged across the elastic cycle",
        kind.name()
    );

    assert!(
        migrations.get() > migrations_before,
        "{}: the deflate must actually migrate blocks for this test to mean anything",
        kind.name()
    );
    let bm = elastic.scheduler().block_manager();
    assert_eq!(
        bm.num_total_gpu_blocks(),
        GPU_BLOCKS,
        "{}: restore must grow the pool back to its configured size",
        kind.name()
    );
    assert_eq!(
        bm.num_free_gpu_blocks(),
        bm.num_total_gpu_blocks(),
        "{}: GPU blocks leaked after drain",
        kind.name()
    );
    bm.assert_consistent();
}

#[test]
fn simd_elastic_cycle_is_bit_identical() {
    assert_elastic_cycle_is_invisible(BackendKind::Simd);
}

#[test]
fn quant_kv8_elastic_cycle_is_bit_identical() {
    assert_elastic_cycle_is_invisible(BackendKind::QuantKv8);
}
