//! Token sampling: greedy, temperature/top-k/top-p sampling, and beam
//! candidate extraction (§4.4, §5.2).
//!
//! One pass per row: the maximum and the log-sum-exp are taken once, and a
//! reported log-probability is `logit − log_sum` of the *unfiltered*
//! distribution. A filtering `top_k` or `top_p` ranks the weights with a
//! radix sort of their bits into buffers a [`Sampler`] keeps between rows;
//! `top_p` sorts only the keys down to where the nucleus can end.
//! Every `exp` is the `wide` shim's deterministic vector `exp`, so a row's
//! candidates are a function of its logits and seed alone.

use std::cmp::Ordering;

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

/// The greatest logit, as `fold(f32::NEG_INFINITY, f32::max)` finds it —
/// `max` skips NaN in any order — over eight lanes and then across them,
/// so the compiler can use vector maxima. Only the sign of a zero maximum
/// could differ from the one-at-a-time fold, and it cannot show in a
/// candidate: `logit − (±0)` and `ln(sum) + (±0)` round alike, and both
/// zeros' weights are `exp(±0) = 1` (the sampler's property test runs rows
/// of signed zeros).
fn max_logit(logits: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; f32x8::LANES];
    let (vectors, tail) = logits.as_chunks::<{ f32x8::LANES }>();
    for vector in vectors {
        for (lane, &x) in lanes.iter_mut().zip(vector) {
            *lane = lane.max(x);
        }
    }
    tail.iter()
        .chain(&lanes)
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
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
/// A caller sampling many rows keeps a [`Sampler`] instead, whose buffers
/// outlive the call.
#[must_use]
pub fn sample_candidates(
    logits: &[f32],
    mode: DecodingMode,
    num_candidates: usize,
    seed: u64,
) -> Vec<(TokenId, f32)> {
    Sampler::default().sample(logits, mode, num_candidates, seed)
}

/// [`sample_candidates`] with its vocabulary-sized buffers kept between
/// calls: an executor owns one and samples every row of every step through
/// it, so a row allocates only the candidates it returns.
#[derive(Debug, Default)]
pub struct Sampler {
    /// Sampling weights, in token order.
    weights: Vec<f32>,
    /// [`order_key`]s of `weights`, in token order.
    keys: Vec<u32>,
    /// The keys a walk goes down, greatest first ([`Self::order`]).
    ranks: Vec<u32>,
    /// [`sort_desc`]'s second buffer.
    spare: Vec<u32>,
    /// The tokens a draw may pick, with their weights, in token order.
    kept: Vec<Ranked>,
}

impl Sampler {
    /// [`sample_candidates`] through this sampler's buffers: the same
    /// candidates, bit for bit.
    pub fn sample(
        &mut self,
        logits: &[f32],
        mode: DecodingMode,
        num_candidates: usize,
        seed: u64,
    ) -> Vec<(TokenId, f32)> {
        if num_candidates == 0 {
            return Vec::new();
        }
        let max = max_logit(logits);
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
                let total = self.fill_weights(logits, max, 1.0 / temperature);
                let total = self.keep_top(top_k, top_p, total);
                let mut rng = StdRng::seed_from_u64(seed);
                (0..num_candidates)
                    .map(|_| with_logprob(draw(&self.kept, total, &mut rng)))
                    .collect()
            }
        }
    }

    /// Fills `weights` with the row's sampling weights, `exp((logit − max)
    /// · scale)`, and `keys` with their [`order_key`]s, in token order, and
    /// returns the weights' sum in token order, as `Iterator::sum` adds
    /// them. One pass: the sum's serial adds run beside the next vector's
    /// `exp`.
    fn fill_weights(&mut self, logits: &[f32], max: f32, scale: f32) -> f32 {
        let len = logits.len();
        let padded = len.next_multiple_of(f32x8::LANES);
        self.weights.resize(padded, 0.0);
        self.keys.resize(padded, 0);
        let mut total = -0.0;
        let vectors = self.weights.chunks_exact_mut(f32x8::LANES);
        let keys = self.keys.chunks_exact_mut(f32x8::LANES);
        for ((i, (w, k)), lanes) in vectors
            .zip(keys)
            .enumerate()
            .zip(weights(logits, max, scale))
        {
            w.copy_from_slice(&lanes);
            for (k, &x) in k.iter_mut().zip(&lanes) {
                *k = order_key(x);
            }
            for &x in &lanes[..(len - i * f32x8::LANES).min(f32x8::LANES)] {
                total += x;
            }
        }
        self.weights.truncate(len);
        self.keys.truncate(len);
        total
    }

    /// Fills `kept` with the tokens sampling may draw, in token order: of
    /// `weights` the `top_k` most probable (0 keeps all), and of those the
    /// shortest most-probable-first run whose share of their mass reaches
    /// `top_p` (1.0, or NaN, keeps all). Ranks are (weight desc, token asc),
    /// as in [`Ranked`], and the run's mass is accumulated rank by rank, so
    /// the run ends exactly where a walk down a sorted list ends. Tokens of
    /// equal weight add equal shares, so only the order of the weights' bits
    /// matters, and only down to where the walk stops: the first rank alone
    /// is tried first ([`Self::keep_first`]); otherwise [`floor_reaching`]
    /// says how far the walk goes and [`Self::order`] sorts just those keys,
    /// all of them if the walk runs past them. `weights` and `keys` hold the
    /// row ([`Self::fill_weights`]) and `total` their sum; returns the kept
    /// weights' sum, in token order.
    fn keep_top(&mut self, top_k: usize, top_p: f32, total: f32) -> f32 {
        let len = self.weights.len();
        let limit = if top_k != 0 && top_k < len {
            top_k
        } else {
            len
        };
        let nucleus = top_p < 1.0;
        if limit == len && !nucleus {
            self.kept.clear();
            self.kept.extend(ranked(self.weights.iter().copied()));
            return total;
        }
        let mut total = total;
        if limit < len {
            // The run's shares are of the mass of the top-k tokens, summed
            // in token order.
            self.order(0);
            let cut = self.walk(limit, |_| false);
            total = self.select(cut.expect("every key is ordered"));
        }
        if nucleus {
            // The first rank, the greatest key, often reaches `top_p` on its
            // own: then nothing needs ordering.
            let (min, max) = min_max(&self.keys);
            let mut first = 0.0;
            first += from_order_key(max) / total;
            if first >= top_p {
                return self.keep_first(max);
            }
            if limit == len {
                let floor = floor_reaching(&self.keys, &self.weights, (min, max), top_p, total);
                self.order(floor);
            }
            let walk = |sampler: &Self| {
                let mut mass = 0.0;
                sampler.walk(limit, |key| {
                    mass += from_order_key(key) / total;
                    mass >= top_p
                })
            };
            let cut = walk(self).unwrap_or_else(|| {
                self.order(0);
                walk(self).expect("every key is ordered")
            });
            total = self.select(cut);
        }
        total
    }

    /// Keeps the first rank alone — the lowest token whose key is `max`,
    /// the greatest — and returns its weight as [`Self::select`] sums it.
    fn keep_first(&mut self, max: u32) -> f32 {
        let token = self.keys.iter().position(|&key| key == max);
        let token = token.expect("the greatest key is a token's");
        self.kept.clear();
        self.kept.push(Ranked {
            score: self.weights[token],
            token: token as TokenId,
        });
        -0.0 + self.weights[token]
    }

    /// Fills `ranks` with the keys at or above `floor`, greatest first.
    fn order(&mut self, floor: u32) {
        self.ranks.clear();
        self.ranks
            .extend(self.keys.iter().filter(|&&key| key >= floor));
        sort_desc(&mut self.ranks, &mut self.spare);
    }

    /// Walks down `ranks` until the `limit`-th rank or until `stop` (shown
    /// each key in rank order) says to stop. Returns where it stopped;
    /// `None` if it ran out of ranks first while keys below them remain.
    fn walk(&self, limit: usize, mut stop: impl FnMut(u32) -> bool) -> Option<Cut> {
        let mut last = Cut { key: 0, ties: 0 };
        for (taken, &key) in (1..).zip(&self.ranks) {
            last.ties = if key == last.key { last.ties + 1 } else { 1 };
            last.key = key;
            if taken == limit || stop(key) {
                return Some(last);
            }
        }
        (self.ranks.len() == self.keys.len()).then_some(last)
    }

    /// Fills `kept` with the tokens of the ranks a walk took, in token
    /// order: every token whose key exceeds the last rank's, and of those
    /// equal to it as many as the walk took, smallest ids first. Returns
    /// their weights' sum, in token order.
    fn select(&mut self, Cut { key: cut, mut ties }: Cut) -> f32 {
        self.kept.clear();
        let mut total = -0.0;
        for (entry, &key) in ranked(self.weights.iter().copied()).zip(&self.keys) {
            let tie = key == cut && ties > 0;
            ties -= usize::from(tie);
            if key > cut || tie {
                total += entry.score;
                self.kept.push(entry);
            }
        }
        total
    }
}

/// `x`'s place in [`f32::total_cmp`]'s order, as an unsigned integer:
/// non-negative values set the sign bit, negative ones flip every bit.
fn order_key(x: f32) -> u32 {
    let bits = x.to_bits();
    bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000)
}

/// The `f32` whose [`order_key`] is `key`.
fn from_order_key(key: u32) -> f32 {
    let bits = if key & 0x8000_0000 != 0 {
        key ^ 0x8000_0000
    } else {
        !key
    };
    f32::from_bits(bits)
}

/// Where a walk down the ranks stopped: the key of its last rank and how
/// many of the ranks it took hold that key.
#[derive(Debug, Clone, Copy)]
struct Cut {
    key: u32,
    ties: usize,
}

/// Slices of the key range [`floor_reaching`] sums the weights of.
const BUCKETS: usize = 64;
/// How far past `top_p` the mass of the slices a walk orders must reach.
/// The walk's own rounding is orders of magnitude smaller; a floor that
/// falls short only costs a second walk over every key.
const MASS_MARGIN: f32 = 1e-3;

/// The least and the greatest of the non-empty `keys`.
fn min_max(keys: &[u32]) -> (u32, u32) {
    let min = keys.iter().copied().min().unwrap_or(0);
    let max = keys.iter().copied().max().unwrap_or(0);
    (min, max)
}

/// The floor a walk to `top_p` of `total` is expected to stay above: the
/// `keys` (of `weights`, spanning `min..=max`) are summed into [`BUCKETS`]
/// equal slices of their range, and the highest slices whose weight reaches
/// a `top_p + MASS_MARGIN` share of `total` begin at the floor. A key's
/// bits grow with its weight's logarithm, so the slices follow the logits.
fn floor_reaching(
    keys: &[u32],
    weights: &[f32],
    (min, max): (u32, u32),
    top_p: f32,
    total: f32,
) -> u32 {
    let bits = 32 - (max - min).leading_zeros();
    let shift = bits.saturating_sub(BUCKETS.trailing_zeros());
    let mut mass = [0.0f32; BUCKETS];
    for (&key, &w) in keys.iter().zip(weights) {
        mass[((key - min) >> shift) as usize] += w;
    }
    let target = (top_p + MASS_MARGIN) * total;
    let mut reached = 0.0;
    for i in (0..BUCKETS).rev() {
        reached += mass[i];
        if reached >= target {
            return min + ((i as u32) << shift);
        }
    }
    min
}

/// Orders `keys` greatest first by a least-significant-digit radix sort,
/// `spare` its second buffer: one stable counting pass per byte, lowest
/// byte first, each placing the keys by that byte in descending order. A
/// byte every key shares needs no pass. No key is compared with another.
fn sort_desc(keys: &mut Vec<u32>, spare: &mut Vec<u32>) {
    // Byte `d` of a key, as the slot it sorts into: 0 for 0xff.
    let slot = |key: u32, d: usize| (!key >> (8 * d)) as u8 as usize;
    let mut counts = [[0u32; 256]; 4];
    for &key in keys.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[slot(key, d)] += 1;
        }
    }
    spare.resize(keys.len(), 0);
    for (d, count) in counts.iter().enumerate() {
        if keys
            .first()
            .is_none_or(|&key| count[slot(key, d)] as usize == keys.len())
        {
            continue;
        }
        let mut next = [0u32; 256];
        let mut at = 0;
        for (next, &n) in next.iter_mut().zip(count) {
            *next = at;
            at += n;
        }
        for &key in keys.iter() {
            let next = &mut next[slot(key, d)];
            spare[*next as usize] = key;
            *next += 1;
        }
        std::mem::swap(keys, spare);
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
    use std::collections::BinaryHeap;

    use super::*;

    /// The kept set [`Sampler::keep_top`] leaves for `weights`.
    fn keep_top(weights: &[f32], top_k: usize, top_p: f32) -> Vec<Ranked> {
        let mut sampler = Sampler {
            weights: weights.to_vec(),
            keys: weights.iter().map(|&w| order_key(w)).collect(),
            ..Sampler::default()
        };
        sampler.keep_top(top_k, top_p, weights.iter().sum());
        sampler.kept
    }

    /// The nucleus filter [`Sampler::keep_top`] replaced, kept as its
    /// oracle: `top_k` by selection, then `top_p` popped off a heap of
    /// `(weight, token)` ranks, then the kept set re-sorted by token.
    fn heap_keep_top(mut tokens: Vec<Ranked>, top_k: usize, top_p: f32) -> Vec<Ranked> {
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

    /// [`sample_candidates`] as it was before the radix selection and the
    /// lane-wise maximum: a one-at-a-time `max`, the nucleus on
    /// [`heap_keep_top`].
    fn heap_sample(
        logits: &[f32],
        mode: DecodingMode,
        num_candidates: usize,
        seed: u64,
    ) -> Vec<(TokenId, f32)> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum = weights(logits, max, 1.0).fold(f32x8::ZERO, |sum, w| sum + f32x8::new(w));
        let log_sum = sum.reduce_add().ln() + max;
        let with_logprob = |token: TokenId| (token, logits[token as usize] - log_sum);
        let (temperature, top_k, top_p) = match mode {
            DecodingMode::Greedy => {
                let best = ranked(logits.iter().copied()).max().expect("non-empty");
                return vec![with_logprob(best.token); num_candidates];
            }
            DecodingMode::Beam { .. } => {
                let mut top: Vec<Ranked> = ranked(logits.iter().copied()).collect();
                truncate_to_top(&mut top, num_candidates);
                top.sort_unstable_by(|a, b| b.cmp(a));
                return top.iter().map(|r| with_logprob(r.token)).collect();
            }
            DecodingMode::Random {
                temperature,
                top_k,
                top_p,
            } => (temperature, top_k, top_p),
        };
        let scaled = weights(logits, max, 1.0 / temperature).flatten();
        let all = ranked(scaled).take(logits.len()).collect();
        let kept = heap_keep_top(all, top_k, top_p);
        let total: f32 = kept.iter().map(|r| r.score).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_candidates)
            .map(|_| with_logprob(draw(&kept, total, &mut rng)))
            .collect()
    }

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
            keep_top(weights, top_k, 1.0)
                .iter()
                .map(|r| r.token)
                .collect()
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
                    let got: Vec<(usize, f32)> = keep_top(&weights, top_k, top_p)
                        .iter()
                        .filter(|r| r.score > 0.0)
                        .map(|r| (r.token as usize, r.score))
                        .collect();
                    assert_eq!(got, want, "case {case} V={v} top_k={top_k} top_p={top_p}");
                }
            }
        }
    }

    /// Bits of a candidate list, so `-0.0` and NaN compare exactly.
    fn candidate_bits(c: &[(TokenId, f32)]) -> Vec<(TokenId, u32)> {
        c.iter().map(|&(t, l)| (t, l.to_bits())).collect()
    }

    #[test]
    fn radix_selection_matches_the_heap_bit_for_bit() {
        // 12 000 rows: vocabularies from 1 to 300, flat to peaked spreads,
        // logits on a coarse grid (exact ties) or free, some `-inf`, and
        // every filter mix, top_k together with top_p included.
        let vocabs = [1usize, 2, 3, 8, 17, 64, 260, 300];
        let spreads = [0.0f32, 0.5, 2.0, 8.0, 30.0];
        let mut sampler = Sampler::default();
        for case in 0..12_000u64 {
            let mut next = unit_stream(case + 11);
            let v = vocabs[case as usize % vocabs.len()];
            let spread = spreads[(case / 8) as usize % spreads.len()];
            let grid = case % 3 == 0;
            let logits: Vec<f32> = (0..v)
                .map(|i| {
                    let l = (next() - 0.5) * spread;
                    if i > 0 && next() < 0.03 {
                        f32::NEG_INFINITY
                    } else if grid {
                        (l * 4.0).round() / 4.0
                    } else {
                        l
                    }
                })
                .collect();
            let top_k = [0, 1, 2, 5, v / 2, v, v + 3][(next() * 7.0) as usize % 7];
            // Just under 1, the walk's sum may never reach `top_p`: every
            // token is kept, zero weights included. A NaN `top_p` keeps
            // every token too, as `top_p = 1` does.
            let top_p = [
                1.0f32,
                0.999_999_94,
                0.999,
                0.95,
                0.9,
                0.5,
                0.2,
                1e-6,
                f32::NAN,
            ][(next() * 9.0) as usize % 9];
            let temperature = [0.3f32, 0.8, 1.0, 1.7][(next() * 4.0) as usize % 4];
            let mode = DecodingMode::Random {
                temperature,
                top_k,
                top_p,
            };
            let n = 1 + (case % 4) as usize;
            let width = 1 + (case % 3) as usize;
            for mode in [mode, DecodingMode::Greedy, DecodingMode::Beam { width }] {
                let n = if matches!(mode, DecodingMode::Beam { .. }) {
                    2 * width
                } else {
                    n
                };
                let want = heap_sample(&logits, mode, n, case);
                let got = sampler.sample(&logits, mode, n, case);
                assert_eq!(
                    candidate_bits(&got),
                    candidate_bits(&want),
                    "case {case} {mode:?} V={v} spread={spread} top_k={top_k} top_p={top_p} T={temperature}"
                );
            }
            let kept_bits = |kept: &[Ranked]| -> Vec<(TokenId, u32)> {
                kept.iter().map(|r| (r.token, r.score.to_bits())).collect()
            };
            let all = ranked(sampler.weights.iter().copied()).collect();
            assert_eq!(
                kept_bits(&sampler.kept),
                kept_bits(&heap_keep_top(all, top_k, top_p)),
                "case {case}: kept sets differ"
            );
        }
    }

    #[test]
    fn signed_zero_maxima_sample_alike() {
        let exp_bits = |x: f32| f32x8::splat(x).exp().to_array()[0].to_bits();
        assert_eq!(exp_bits(-0.0), exp_bits(0.0));
        let top_p = DecodingMode::Random {
            temperature: 0.7,
            top_k: 0,
            top_p: 0.9,
        };
        let modes = [DecodingMode::Greedy, DecodingMode::Beam { width: 2 }, top_p];
        for logits in [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-1.0, -0.0, -0.0]] {
            for mode in modes {
                let want = candidate_bits(&heap_sample(&logits, mode, 2, 5));
                assert_eq!(
                    candidate_bits(&sample_candidates(&logits, mode, 2, 5)),
                    want
                );
            }
        }
    }

    #[test]
    fn sort_desc_orders_every_float_as_total_cmp_does() {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
        ];
        let mut spare = Vec::new();
        for case in 0..400u64 {
            let mut next = unit_stream(case + 5);
            // Wide ranges, crowded ranges (high bytes every key shares)
            // and runs of equal keys.
            let mut values: Vec<f32> = (0..1 + case as usize % 300)
                .map(|i| match (case % 3, i % 4) {
                    (0, 0) => specials[(next() * 9.0) as usize % 9],
                    (0, 1) => (next() - 0.5) * 1e6,
                    (1, _) => 1.0 + next() * 1e-5,
                    (2, _) => (next() * 4.0).floor(),
                    _ => next(),
                })
                .collect();
            let mut ranks: Vec<u32> = values.iter().map(|&x| order_key(x)).collect();
            sort_desc(&mut ranks, &mut spare);
            values.sort_by(|a, b| b.total_cmp(a));
            let got: Vec<u32> = ranks.iter().map(|&k| from_order_key(k).to_bits()).collect();
            let want: Vec<u32> = values.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "case {case}");
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
