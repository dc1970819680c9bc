//! Token sampling: greedy, temperature/top-k/top-p sampling, and beam
//! candidate extraction (§4.4, §5.2).
//!
//! One pass per row: the maximum and the log-sum-exp are taken once, a
//! reported log-probability is `logit − log_sum` of the *unfiltered*
//! distribution, and the only vocabulary-sized buffer a call allocates is
//! the ranked token list that beam search and sampling select from (a
//! filtering `top_p` adds the nucleus it keeps). Every `exp` is
//! the `wide` shim's deterministic vector `exp`, so a row's candidates are a
//! function of its logits and seed alone.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wide::f32x8;

use vllm_core::sampling::{DecodingMode, TokenId};

/// Mixes the request seed with the sequence's index among the request's
/// samples and its position, so every sampling event has an independent
/// stream that depends on nothing outside the request (not on engine-global
/// sequence ids, hence not on arrival order).
#[must_use]
pub fn mix_seed(seed: u64, sample_index: u64, position: usize) -> u64 {
    let mut z = seed ^ sample_index.rotate_left(17) ^ (position as u64).rotate_left(41);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A token and the score it is ranked by (a logit or a sampling weight).
/// The greater entry is the more likely token; between equal scores, the
/// one with the smaller id — a total order with no ties.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked {
    score: f32,
    token: TokenId,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_score = self.score.total_cmp(&other.score);
        by_score.then_with(|| other.token.cmp(&self.token))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pairs every score with its token id, in token order.
fn ranked(scores: impl IntoIterator<Item = f32>) -> impl Iterator<Item = Ranked> {
    let entry = |(score, token)| Ranked { score, token };
    scores.into_iter().zip(0..).map(entry)
}

/// `exp((logits[i] − max) · scale)` for every token, eight at a time through
/// the vector `exp`. The last chunk is padded with `-inf`, weight 0.
fn weights(logits: &[f32], max: f32, scale: f32) -> impl Iterator<Item = [f32; 8]> + '_ {
    logits.chunks(f32x8::LANES).map(move |chunk| {
        let mut lanes = [f32::NEG_INFINITY; 8];
        lanes[..chunk.len()].copy_from_slice(chunk);
        let shifted = f32x8::new(lanes) - f32x8::splat(max);
        (shifted * f32x8::splat(scale)).exp().to_array()
    })
}

/// Produces `num_candidates` `(token, logprob)` pairs from raw logits
/// according to the decoding mode.
///
/// * Greedy: the argmax token, repeated if more than one candidate is asked.
/// * Random: independent draws from the temperature/top-k/top-p-filtered
///   distribution (one draw per candidate — the prompt step of parallel
///   sampling asks for `n`).
/// * Beam: the top `num_candidates` tokens, most likely first.
///
/// Reported log-probabilities always come from the unfiltered distribution.
#[must_use]
pub fn sample_candidates(
    logits: &[f32],
    mode: DecodingMode,
    num_candidates: usize,
    seed: u64,
) -> Vec<(TokenId, f32)> {
    if num_candidates == 0 {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum = weights(logits, max, 1.0).fold(f32x8::ZERO, |sum, w| sum + f32x8::new(w));
    let log_sum = sum.reduce_add().ln() + max;
    let with_logprob = |token: TokenId| (token, logits[token as usize] - log_sum);

    match mode {
        DecodingMode::Greedy => {
            let best = ranked(logits.iter().copied())
                .max()
                .expect("non-empty logits");
            vec![with_logprob(best.token); num_candidates]
        }
        DecodingMode::Beam { .. } => {
            let mut top: Vec<Ranked> = ranked(logits.iter().copied()).collect();
            truncate_to_top(&mut top, num_candidates);
            top.sort_unstable_by(|a, b| b.cmp(a));
            top.iter().map(|r| with_logprob(r.token)).collect()
        }
        DecodingMode::Random {
            temperature,
            top_k,
            top_p,
        } => {
            let scaled = weights(logits, max, 1.0 / temperature).flatten();
            let all = ranked(scaled).take(logits.len()).collect();
            let kept = keep_top(all, top_k, top_p);
            let total: f32 = kept.iter().map(|r| r.score).sum();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..num_candidates)
                .map(|_| with_logprob(draw(&kept, total, &mut rng)))
                .collect()
        }
    }
}

/// Cuts `tokens` down to its `k ≥ 1` greatest entries, in no particular
/// order — a selection, not a sort.
fn truncate_to_top(tokens: &mut Vec<Ranked>, k: usize) {
    if k < tokens.len() {
        tokens.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        tokens.truncate(k);
    }
}

/// The tokens sampling may draw, in token order: of `tokens` (weights, in
/// token order) the `top_k` most probable (0 keeps all), and of those the
/// shortest most-probable-first run whose share of their mass reaches
/// `top_p` (1.0 keeps all) — popped off a heap, so the cost follows the size
/// of the nucleus, not of the vocabulary.
fn keep_top(mut tokens: Vec<Ranked>, top_k: usize, top_p: f32) -> Vec<Ranked> {
    if top_k != 0 && top_k < tokens.len() {
        truncate_to_top(&mut tokens, top_k);
        tokens.sort_unstable_by_key(|r| r.token);
    }
    if top_p < 1.0 {
        let total: f32 = tokens.iter().map(|r| r.score).sum();
        let mut heap = BinaryHeap::from(std::mem::take(&mut tokens));
        let mut mass = 0.0;
        while let Some(next) = heap.pop() {
            mass += next.score / total;
            tokens.push(next);
            if mass >= top_p {
                break;
            }
        }
        tokens.sort_unstable_by_key(|r| r.token);
    }
    tokens
}

/// One draw from the weights of `kept` (token order, summing to `total`).
fn draw(kept: &[Ranked], total: f32, rng: &mut StdRng) -> TokenId {
    let mut r = rng.random::<f32>() * total;
    for entry in kept {
        r -= entry.score;
        if r <= 0.0 && entry.score > 0.0 {
            return entry.token;
        }
    }
    // Numerical tail: return the last token with nonzero mass.
    let last = kept.iter().rfind(|entry| entry.score > 0.0);
    last.expect("distribution has mass").token
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Vec<f32> {
        vec![0.1, 2.5, -1.0, 1.5, 0.0]
    }

    #[test]
    fn greedy_picks_argmax() {
        let c = sample_candidates(&logits(), DecodingMode::Greedy, 1, 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, 1);
        assert!(c[0].1 < 0.0, "logprob must be negative");
    }

    #[test]
    fn beam_returns_sorted_top_k() {
        let c = sample_candidates(&logits(), DecodingMode::Beam { width: 2 }, 4, 0);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].0, 1);
        assert_eq!(c[1].0, 3);
        assert!(c.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn random_is_reproducible_and_seed_sensitive() {
        let mode = DecodingMode::random();
        let a = sample_candidates(&logits(), mode, 8, 42);
        let b = sample_candidates(&logits(), mode, 8, 42);
        assert_eq!(a, b);
        let c = sample_candidates(&logits(), mode, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let mode = DecodingMode::Random {
            temperature: 0.01,
            top_k: 0,
            top_p: 1.0,
        };
        for seed in 0..20 {
            let c = sample_candidates(&logits(), mode, 1, seed);
            assert_eq!(c[0].0, 1);
        }
    }

    #[test]
    fn top_k_restricts_support() {
        let mode = DecodingMode::Random {
            temperature: 1.0,
            top_k: 2,
            top_p: 1.0,
        };
        for seed in 0..50 {
            let c = sample_candidates(&logits(), mode, 1, seed);
            assert!(c[0].0 == 1 || c[0].0 == 3, "token {} outside top-2", c[0].0);
        }
    }

    #[test]
    fn top_p_restricts_support() {
        // Token 1 holds most of the mass; p=0.5 keeps only it.
        let mode = DecodingMode::Random {
            temperature: 1.0,
            top_k: 0,
            top_p: 0.5,
        };
        for seed in 0..50 {
            let c = sample_candidates(&logits(), mode, 1, seed);
            assert_eq!(c[0].0, 1);
        }
    }

    #[test]
    fn zero_candidates_allowed() {
        assert!(sample_candidates(&logits(), DecodingMode::Greedy, 0, 0).is_empty());
    }

    #[test]
    fn top_k_ties_keep_the_most_likely_token() {
        // The old filter kept the first `k` tokens *in index order* at or
        // above the k-th largest probability: here tokens 0 and 1, never
        // token 2 (p = 0.79).
        let mode = DecodingMode::Random {
            temperature: 1.0,
            top_k: 2,
            top_p: 1.0,
        };
        let mut seen = [0usize; 3];
        for seed in 0..2000 {
            seen[sample_candidates(&[1.0, 1.0, 3.0], mode, 1, seed)[0].0 as usize] += 1;
        }
        assert!(seen[2] > 1600 && seen[0] > 150, "draws per token: {seen:?}");
        assert_eq!(seen[1], 0, "the tie at the cut-off goes to the smaller id");
        // Ties straddling the cut-off on both sides, as kept sets.
        let kept = |weights: &[f32], top_k| -> Vec<TokenId> {
            let all = ranked(weights.iter().copied()).collect();
            keep_top(all, top_k, 1.0).iter().map(|r| r.token).collect()
        };
        assert_eq!(kept(&[0.2, 0.2, 0.5, 0.2, 0.5], 3), vec![0, 2, 4]);
        assert_eq!(kept(&[0.2, 0.5, 0.5, 0.5, 0.1], 2), vec![1, 2]);
        assert_eq!(kept(&[0.3, 0.3, 0.3], 1), vec![0]);
        assert_eq!(kept(&[0.1, 0.3, 0.3, 0.6], 3), vec![1, 2, 3]);
    }

    /// xorshift stream of values in `[0, 1)`.
    fn unit_stream(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    /// The filters [`keep_top`] replaced — a full sort each — with the
    /// top-k tie order fixed: both rank by (probability desc, token asc).
    fn sorted_filters(probs: &mut [f32], top_k: usize, top_p: f32) {
        let by_rank = |probs: &[f32]| {
            let mut idx: Vec<usize> = (0..probs.len()).collect();
            idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
            idx
        };
        if top_k != 0 && top_k < probs.len() {
            for &i in &by_rank(probs)[top_k..] {
                probs[i] = 0.0;
            }
        }
        if top_p < 1.0 {
            let idx = by_rank(probs);
            let total: f32 = probs.iter().sum();
            let mut cum = 0.0;
            let mut cutoff = probs.len();
            for (rank, &i) in idx.iter().enumerate() {
                cum += probs[i] / total;
                if cum >= top_p {
                    cutoff = rank + 1;
                    break;
                }
            }
            for &i in &idx[cutoff..] {
                probs[i] = 0.0;
            }
        }
    }

    #[test]
    fn kept_set_matches_the_sort_based_filters() {
        let sizes = [1usize, 2, 5, 17, 64, 260];
        for case in 0..1000u64 {
            let mut next = unit_stream(case + 1);
            let v = sizes[case as usize % sizes.len()];
            // Weights as `sample_candidates` makes them: `exp` of shifted
            // logits, a few of them `-inf` (weight 0), with planted ties.
            let mut weights: Vec<f32> = (0..v).map(|_| (-6.0 * next()).exp()).collect();
            for _ in 0..v / 3 {
                let (from, to) = ((next() * v as f32) as usize, (next() * v as f32) as usize);
                weights[to] = weights[from];
            }
            for w in weights.iter_mut().skip(1) {
                if next() < 0.05 {
                    *w = 0.0;
                }
            }
            for top_k in [0, 1, 2, 3, 7, v / 2, v - 1, v, v + 5, 1000] {
                for top_p in [1.0f32, 0.999, 0.9, 0.5, 0.1, 1e-6] {
                    let mut want = weights.clone();
                    sorted_filters(&mut want, top_k, top_p);
                    let want: Vec<(usize, f32)> = want
                        .into_iter()
                        .enumerate()
                        .filter(|&(_, p)| p > 0.0)
                        .collect();
                    let got: Vec<(usize, f32)> =
                        keep_top(ranked(weights.iter().copied()).collect(), top_k, top_p)
                            .iter()
                            .filter(|r| r.score > 0.0)
                            .map(|r| (r.token as usize, r.score))
                            .collect();
                    assert_eq!(got, want, "case {case} V={v} top_k={top_k} top_p={top_p}");
                }
            }
        }
    }

    #[test]
    fn beam_candidates_match_a_full_sort_of_the_logprobs() {
        for case in 0..200u64 {
            let mut next = unit_stream(case + 7);
            let v = [1usize, 3, 40, 260][case as usize % 4];
            // Logits on a 1/64 grid: plenty of exact ties, and distinct
            // logits stay distinct after `- log_sum`.
            let logits: Vec<f32> = (0..v)
                .map(|_| (next() * 512.0).floor() / 64.0 - 4.0)
                .collect();
            let mut logprobs = logits.clone();
            crate::ops::log_softmax(&mut logprobs);
            let mut order: Vec<usize> = (0..v).collect();
            order.sort_by(|&a, &b| logprobs[b].total_cmp(&logprobs[a]).then(a.cmp(&b)));
            for width in [1usize, 2, 4, 8, 200] {
                let got = sample_candidates(&logits, DecodingMode::Beam { width }, 2 * width, 0);
                let want: Vec<TokenId> = order.iter().take(2 * width).map(|&i| i as u32).collect();
                let tokens: Vec<TokenId> = got.iter().map(|c| c.0).collect();
                assert_eq!(tokens, want, "case {case} V={v} width={width}");
                assert!(got.windows(2).all(|w| w[0].1 >= w[1].1));
            }
            // Width 1 is greedy, and greedy is the first-ranked token.
            let greedy = sample_candidates(&logits, DecodingMode::Greedy, 1, 0);
            assert_eq!(greedy[0].0 as usize, order[0]);
        }
    }

    #[test]
    fn greedy_logprob_is_closer_to_exact_than_log_softmax_was() {
        // `log_softmax` sums libm `exp` terms one by one; the sampler sums
        // the vector `exp`'s in eight lanes, which loses less. Distances in
        // ulps of the result, from the log-softmax taken in f64.
        let (mut worst, mut worst_old) = (0, 0);
        for case in 0..600u64 {
            let mut next = unit_stream(case + 3);
            let v = [260usize, 2048][case as usize % 2];
            let spread = [1.0f32, 4.0, 12.0][case as usize % 3];
            let logits: Vec<f32> = (0..v).map(|_| (next() - 0.5) * spread).collect();
            let mut old = logits.clone();
            crate::ops::log_softmax(&mut old);
            let (token, logprob) = sample_candidates(&logits, DecodingMode::Greedy, 1, 0)[0];
            let exact_log_sum = logits.iter().map(|&l| f64::from(l).exp()).sum::<f64>().ln();
            let exact = (f64::from(logits[token as usize]) - exact_log_sum) as f32;
            let ulps = |got: f32| (got.to_bits() as i64 - exact.to_bits() as i64).unsigned_abs();
            worst = worst.max(ulps(logprob));
            worst_old = worst_old.max(ulps(old[token as usize]));
        }
        // Measured: 3 (none off in 59 % of the cases) against 6 (37 %).
        assert!(worst <= 3, "greedy logprob up to {worst} ulp off");
        assert!(worst <= worst_old, "{worst} ulp, log_softmax {worst_old}");
    }

    #[test]
    fn minus_infinity_logits_are_never_drawn() {
        let logits = [f32::NEG_INFINITY, 0.5, f32::NEG_INFINITY, 0.0];
        for (top_k, top_p) in [(0, 1.0), (3, 1.0), (0, 0.99), (1, 0.5)] {
            let mode = DecodingMode::Random {
                temperature: 0.7,
                top_k,
                top_p,
            };
            for seed in 0..100 {
                let (token, logprob) = sample_candidates(&logits, mode, 1, seed)[0];
                assert!(token == 1 || token == 3, "drew token {token}");
                assert!(logprob.is_finite() && logprob < 0.0);
            }
        }
        // A vocabulary of one.
        let c = sample_candidates(&[2.5], DecodingMode::random(), 3, 9);
        assert_eq!(c, vec![(0, 0.0); 3]);
    }

    #[test]
    fn mix_seed_varies_by_all_inputs() {
        let a = mix_seed(1, 2, 3);
        assert_ne!(a, mix_seed(2, 2, 3));
        assert_ne!(a, mix_seed(1, 3, 3));
        assert_ne!(a, mix_seed(1, 2, 4));
        assert_eq!(a, mix_seed(1, 2, 3));
    }

    #[test]
    fn random_sampling_covers_distribution() {
        // With uniform logits all tokens should appear across many draws.
        let logits = vec![0.0; 5];
        let mode = DecodingMode::random();
        let mut seen = [false; 5];
        for seed in 0..200 {
            let c = sample_candidates(&logits, mode, 1, seed);
            seen[c[0].0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
