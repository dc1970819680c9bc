//! Per-backend property tests for the pluggable kernel backends.
//!
//! - **Batched-vs-solo bit identity** (scalar, simd, quant-kv8): a stacked
//!   `forward` step must produce logits bit-identical to running each
//!   sequence alone through `forward_paged` — the k-only accumulation-order
//!   contract every backend must keep.
//! - **Quantized-KV round trip**: int8-with-per-slot-scale storage must
//!   reproduce any written vector within half a quantization step of the
//!   slot's scale (`max_abs / 127`).
//! - **Greedy decode token identity**: on golden seed prompts, an engine
//!   serving with the quant-kv8 backend must emit exactly the token stream
//!   the scalar backend emits — the capacity win may not change greedy
//!   output on these prompts.

use proptest::prelude::*;

use vllm_core::{CacheConfig, LlmEngine, SamplingParams, SchedulerConfig};
use vllm_model::backend::{self, BackendKind};
use vllm_model::{CpuModelExecutor, KvPool, ModelConfig, PositionEncoding, SeqInput};

const BLOCK_SIZE: usize = 16;

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

fn tok(seq: usize, pos: usize, vocab: usize) -> u32 {
    ((seq * 131 + pos * 65_537 + 9).wrapping_mul(2_654_435_761) % vocab) as u32
}

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 4000) as f32 / 1000.0) - 2.0
        })
        .collect()
}

/// Prefills `batch` sequences, then decodes a few steps both ways (solo
/// `forward_paged` and stacked `forward`) and asserts the
/// final-step logits are bit-identical per sequence.
fn assert_batched_equals_solo(kind: BackendKind, batch: usize, prefill: usize, steps: usize) {
    let config = small_config(kind);
    let vocab = config.vocab_size;
    let model = vllm_model::Transformer::new(config.clone());
    let element = backend::by_kind(kind).kv_layout().element;
    let blocks_per_seq = (prefill + steps + 1).div_ceil(BLOCK_SIZE);

    let run = |stacked: bool| -> Vec<Vec<f32>> {
        let mut kv = KvPool::with_element(
            config.n_layers,
            batch * blocks_per_seq,
            BLOCK_SIZE,
            config.hidden,
            element,
        );
        let tables: Vec<Vec<usize>> = (0..batch)
            .map(|i| (i * blocks_per_seq..(i + 1) * blocks_per_seq).collect())
            .collect();
        for (i, table) in tables.iter().enumerate() {
            let tokens: Vec<u32> = (0..prefill).map(|p| tok(i, p, vocab)).collect();
            let positions: Vec<usize> = (0..prefill).collect();
            model.forward_paged(&tokens, &positions, &mut kv, table);
        }
        let mut last = vec![Vec::new(); batch];
        for s in 0..steps {
            let pos = prefill + s;
            if stacked {
                let tokens: Vec<u32> = (0..batch).map(|i| tok(i, pos, vocab)).collect();
                let inputs: Vec<SeqInput<'_>> = (0..batch)
                    .map(|i| SeqInput {
                        tokens: &tokens[i..=i],
                        first_position: pos,
                        block_table: &tables[i],
                    })
                    .collect();
                let logits = model.forward(&inputs, &mut kv);
                for (i, l) in last.iter_mut().enumerate() {
                    *l = logits[i * vocab..(i + 1) * vocab].to_vec();
                }
            } else {
                for (i, l) in last.iter_mut().enumerate() {
                    *l = model.forward_paged(&[tok(i, pos, vocab)], &[pos], &mut kv, &tables[i]);
                }
            }
        }
        last
    };

    let solo = run(false);
    let stacked = run(true);
    for (i, (a, b)) in solo.iter().zip(&stacked).enumerate() {
        assert_eq!(
            a,
            b,
            "{}: seq {i} logits differ between solo and batched decode",
            kind.name()
        );
    }
}

#[test]
fn scalar_batched_decode_is_bit_identical_to_solo() {
    assert_batched_equals_solo(BackendKind::Scalar, 5, 21, 3);
}

#[test]
fn simd_batched_decode_is_bit_identical_to_solo() {
    assert_batched_equals_solo(BackendKind::Simd, 5, 21, 3);
}

#[test]
fn quant_batched_decode_is_bit_identical_to_solo() {
    assert_batched_equals_solo(BackendKind::QuantKv8, 5, 21, 3);
}

/// Runs golden seed prompts through engines serving with two backends and
/// returns both token streams.
fn greedy_tokens(kind: BackendKind) -> Vec<Vec<u32>> {
    let cache = CacheConfig::new(BLOCK_SIZE, 64, 0)
        .unwrap()
        .with_watermark(0.0)
        .unwrap();
    let sched = SchedulerConfig::new(512, 8, 512).unwrap();
    let exec = CpuModelExecutor::from_config(small_config(kind), &cache);
    let mut e = LlmEngine::new(exec, cache, sched);
    // Golden seed prompts: fixed, short, diverse lengths.
    let prompts: [&[u32]; 3] = [
        &[1, 2, 3, 4, 5],
        &[7, 11, 13],
        &[100, 50, 25, 12, 6, 3, 1, 9],
    ];
    for (i, p) in prompts.iter().enumerate() {
        e.add_request(format!("g{i}"), p.to_vec(), SamplingParams::greedy(12))
            .unwrap();
    }
    let mut outs = e.run_to_completion().unwrap();
    outs.sort_by(|a, b| a.request_id.cmp(&b.request_id));
    outs.iter().map(|o| o.outputs[0].tokens.clone()).collect()
}

#[test]
fn quant_greedy_decode_matches_scalar_on_golden_prompts() {
    let scalar = greedy_tokens(BackendKind::Scalar);
    let quant = greedy_tokens(BackendKind::QuantKv8);
    assert_eq!(
        scalar, quant,
        "quant-kv8 greedy decode diverged from scalar on golden seed prompts"
    );
}

#[test]
fn simd_greedy_decode_matches_scalar_on_golden_prompts() {
    let scalar = greedy_tokens(BackendKind::Scalar);
    let simd = greedy_tokens(BackendKind::Simd);
    assert_eq!(
        scalar, simd,
        "simd greedy decode diverged from scalar on golden seed prompts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// int8-with-per-slot-scale KV storage reproduces any written vector
    /// within half a quantization step (scale = max_abs / 127) per element.
    #[test]
    fn quant_kv_round_trip_error_is_bounded(
        hidden_heads in 1usize..5,
        head_dim_pow in 1u32..4,
        ctx in 1usize..40,
        seed in 0u64..1000,
    ) {
        let hidden = hidden_heads << head_dim_pow;
        let n_blocks = ctx.div_ceil(BLOCK_SIZE);
        let mut pool = KvPool::with_element(
            1,
            n_blocks,
            BLOCK_SIZE,
            hidden,
            vllm_model::KvElement::Int8Scaled,
        );
        let table: Vec<usize> = (0..n_blocks).collect();
        let k = fill(seed, ctx * hidden);
        let v = fill(seed + 1, ctx * hidden);
        for t in 0..ctx {
            pool.write(
                0,
                table[t / BLOCK_SIZE],
                t % BLOCK_SIZE,
                &k[t * hidden..(t + 1) * hidden],
                &v[t * hidden..(t + 1) * hidden],
            );
        }
        let (k_rt, v_rt) = pool.gather(0, &table, ctx);
        for (orig, rt) in [(&k, &k_rt), (&v, &v_rt)] {
            for t in 0..ctx {
                let slot = &orig[t * hidden..(t + 1) * hidden];
                let max_abs = slot.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let bound = max_abs / 127.0 * 0.5 + 1e-6;
                for (j, (&a, &b)) in
                    slot.iter().zip(&rt[t * hidden..(t + 1) * hidden]).enumerate()
                {
                    prop_assert!(
                        (a - b).abs() <= bound,
                        "token {t} elem {j}: {a} vs {b} exceeds bound {bound}"
                    );
                }
            }
        }
    }
}
