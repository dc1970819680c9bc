//! Chunked-vs-unchunked prefill bit identity across every kernel backend.
//!
//! Splitting a prompt's prefill into arbitrary chunks (the scheduler-budget
//! path) must be *bit-identical* to the monolithic prefill: every row goes
//! through the one PagedAttention kernel, whose output for a row depends
//! only on that row's query and the KV at or before its position, so the
//! split point cannot move a single ulp. Verified at two levels:
//!
//! - **Model level** (property test): random prompt splits — final-chunk
//!   logits and the logits of a decode step performed on the resulting KV
//!   cache must equal the unchunked run's bit for bit.
//! - **Engine level**: random step-token budgets — greedy token streams and
//!   cumulative logprobs (compared by bit pattern) must match the
//!   unchunked engine on prompts that do not hit the prefix cache.

use proptest::prelude::*;

use vllm_core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm_model::backend::BackendKind;
use vllm_model::{CpuModelExecutor, KvPool, ModelConfig, PositionEncoding};

const BLOCK_SIZE: usize = 16;
const BACKENDS: [BackendKind; 3] = [
    BackendKind::Scalar,
    BackendKind::Simd,
    BackendKind::QuantKv8,
];

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

fn tok(pos: usize, vocab: usize) -> u32 {
    ((pos * 65_537 + 9).wrapping_mul(2_654_435_761) % vocab) as u32
}

/// Splits `prompt_len` into chunk lengths derived from `seed`: every split
/// is valid (chunks ≥ 1, sum = prompt_len) and the seed sweeps uneven,
/// block-straddling boundaries.
fn chunk_lens(prompt_len: usize, seed: u64) -> Vec<usize> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut lens = Vec::new();
    let mut left = prompt_len;
    while left > 0 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let take = (1 + (s as usize) % 9).min(left);
        lens.push(take);
        left -= take;
    }
    lens
}

/// Prefills `prompt_len` tokens either monolithically or in the given
/// chunks, then runs one decode step; returns (final prefill logits,
/// decode logits).
fn prefill_then_decode(
    kind: BackendKind,
    prompt_len: usize,
    chunks: Option<&[usize]>,
) -> (Vec<f32>, Vec<f32>) {
    let config = small_config(kind);
    let vocab = config.vocab_size;
    let model = vllm_model::Transformer::new(config.clone());
    let element = vllm_model::backend::by_kind(kind).kv_layout().element;
    let n_blocks = (prompt_len + 2).div_ceil(BLOCK_SIZE);
    let mut kv = KvPool::with_element(
        config.n_layers,
        n_blocks,
        BLOCK_SIZE,
        config.hidden,
        element,
    );
    let table: Vec<usize> = (0..n_blocks).collect();
    let tokens: Vec<u32> = (0..prompt_len).map(|p| tok(p, vocab)).collect();

    let prefill_logits = match chunks {
        None => {
            let positions: Vec<usize> = (0..prompt_len).collect();
            model.forward_paged(&tokens, &positions, &mut kv, &table)
        }
        Some(lens) => {
            let mut start = 0;
            let mut last = Vec::new();
            for &len in lens {
                let end = start + len;
                let positions: Vec<usize> = (start..end).collect();
                last = model.forward_paged(&tokens[start..end], &positions, &mut kv, &table);
                start = end;
            }
            assert_eq!(start, prompt_len);
            last
        }
    };
    let decode_logits =
        model.forward_paged(&[tok(prompt_len, vocab)], &[prompt_len], &mut kv, &table);
    (prefill_logits, decode_logits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random prompt lengths and random (uneven, block-straddling) chunk
    /// splits: final-chunk logits and a subsequent decode step must be
    /// bit-identical to the monolithic prefill on every backend.
    #[test]
    fn chunked_prefill_logits_bit_identical_to_monolithic(
        prompt_len in 2usize..60,
        split_seed in 0u64..1000,
    ) {
        for kind in BACKENDS {
            let lens = chunk_lens(prompt_len, split_seed);
            let (whole_p, whole_d) = prefill_then_decode(kind, prompt_len, None);
            let (chunk_p, chunk_d) = prefill_then_decode(kind, prompt_len, Some(&lens));
            prop_assert_eq!(
                whole_p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                chunk_p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{}: final-chunk logits diverge for split {:?}", kind.name(), lens
            );
            prop_assert_eq!(
                whole_d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                chunk_d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{}: post-prefill decode logits diverge for split {:?}", kind.name(), lens
            );
        }
    }
}

/// Full-engine greedy run for one backend, optionally chunked by a step
/// budget. Prompts are fresh (no prefix registered), so none of them route
/// through the prefix-cache 1-token-suffix decode path.
fn greedy_outputs(kind: BackendKind, budget: Option<usize>) -> Vec<(Vec<u32>, u64)> {
    let cache = CacheConfig::new(BLOCK_SIZE, 64, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(512, 32, 512).unwrap();
    let exec = CpuModelExecutor::from_config(small_config(kind), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    e.set_step_token_budget(budget);
    let prompts: [&[u32]; 3] = [
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
        &[7, 11, 13],
        &[100, 50, 25, 12, 6, 3, 1, 9, 27, 81, 43, 129],
    ];
    for (i, p) in prompts.iter().enumerate() {
        // Staggered arrivals so chunks co-batch with other prompts' decodes.
        e.add_request_at(
            format!("g{i}"),
            p.to_vec(),
            SamplingParams::greedy(10),
            i as f64 * 1e-6,
        )
        .unwrap();
    }
    let mut outs = e.run_to_completion().unwrap();
    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    outs.iter()
        .map(|o| {
            (
                o.outputs[0].tokens.clone(),
                o.outputs[0].cumulative_logprob.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random step-token budgets: the chunked engine's greedy tokens and
    /// cumulative logprobs (bit patterns) match the unchunked engine on
    /// every backend.
    #[test]
    fn chunked_engine_greedy_bit_identical_across_budgets(budget in 2usize..24) {
        for kind in BACKENDS {
            let want = greedy_outputs(kind, None);
            let got = greedy_outputs(kind, Some(budget));
            prop_assert_eq!(
                &want, &got,
                "{}: budget {} diverged from unchunked", kind.name(), budget
            );
        }
    }
}
