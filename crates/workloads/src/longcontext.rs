//! Long-context workloads for chunked prefill (scheduler-budgeted prefill
//! admission).
//!
//! The paper's traces cap total length at the OPT 2048-token context
//! (§6.1); chunked prefill targets the regime those traces never reach —
//! prompts tens of thousands of tokens long that would monopolize whole
//! iterations under all-or-nothing prefill admission. This module
//! synthesizes that regime: deterministic 32k-token prompts built from
//! repeated pseudo-document segments, and mixed long/short traces where a
//! trickle of long-context requests rides on interactive short traffic.
//! Content never affects memory management, so synthetic token ids preserve
//! the evaluation exactly as the Fig. 11 length distributions do.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist::exponential;
use crate::trace::{Trace, TraceRequest};

/// Canonical long-context prompt length exercised by the prefill bench:
/// 32k tokens, 16× the paper's model context.
pub const LONG_CONTEXT_PROMPT_LEN: usize = 32_768;

/// Tokens per pseudo-document segment of a synthetic long prompt.
const SEGMENT_LEN: usize = 512;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic synthetic long-context prompt of `len` tokens.
///
/// The prompt is structured as a run of 512-token (`SEGMENT_LEN`)
/// pseudo-documents, each drawn from its own hash stream, separated by a
/// per-prompt sentinel token — mimicking retrieval-style contexts (many
/// stitched documents) rather than uniform noise, while staying fully
/// reproducible from `(seed, len, vocab_size)`.
#[must_use]
pub fn long_context_prompt(seed: u64, len: usize, vocab_size: u32) -> Vec<u32> {
    assert!(vocab_size > 1, "vocabulary too small");
    let vocab = u64::from(vocab_size);
    let sentinel = (mix64(seed ^ 0x5e11_71e1) % vocab) as u32;
    (0..len as u64)
        .map(|i| {
            let segment = i / SEGMENT_LEN as u64;
            let offset = i % SEGMENT_LEN as u64;
            if offset == 0 && segment > 0 {
                sentinel
            } else {
                (mix64(seed.rotate_left(17) ^ segment.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ offset)
                    % vocab) as u32
            }
        })
        .collect()
}

/// A mixed long/short trace: short interactive requests at `rate` req/s
/// with a `long_fraction` of requests carrying `long_len`-token prompts.
///
/// Short prompts draw uniformly from the `short_len` range; all requests
/// script `output_len` generated tokens, so paired chunked and unchunked
/// runs produce identical token counts (equal-throughput TTFT comparisons
/// need matched work). Requests are tagged long by a deterministic hash of
/// their id, so the same ids are long at every rate.
///
/// # Panics
///
/// Panics if `rate` is not positive, `long_fraction` is outside `[0, 1]`,
/// or the short-length range is inverted or starts at zero.
#[must_use]
pub fn synthesize_mixed_trace(
    rate: f64,
    n: usize,
    long_fraction: f64,
    long_len: usize,
    short_len: std::ops::RangeInclusive<usize>,
    output_len: usize,
    seed: u64,
) -> Trace {
    let (short_min, short_max) = (*short_len.start(), *short_len.end());
    assert!(rate > 0.0, "rate must be positive");
    assert!(
        (0.0..=1.0).contains(&long_fraction),
        "long_fraction must be in [0, 1]"
    );
    assert!(
        0 < short_min && short_min <= short_max,
        "invalid short-prompt bounds"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let long_cut = (long_fraction * 1_000_000.0) as u64;
    let requests = (0..n as u64)
        .map(|id| {
            t += exponential(&mut rng, rate);
            let is_long =
                mix64(seed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 1_000_000 < long_cut;
            let input_len = if is_long {
                long_len
            } else {
                short_min
                    + (mix64(seed ^ (id << 20) ^ 0xbeef) % (short_max - short_min + 1) as u64)
                        as usize
            };
            TraceRequest {
                id,
                arrival: t,
                input_len,
                output_len,
            }
        })
        .collect();
    Trace { requests, rate }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_prompt_deterministic_and_in_vocab() {
        let a = long_context_prompt(7, LONG_CONTEXT_PROMPT_LEN, 50_000);
        assert_eq!(a.len(), LONG_CONTEXT_PROMPT_LEN);
        assert_eq!(a, long_context_prompt(7, LONG_CONTEXT_PROMPT_LEN, 50_000));
        assert!(a.iter().all(|&t| t < 50_000));
        assert_ne!(a, long_context_prompt(8, LONG_CONTEXT_PROMPT_LEN, 50_000));
    }

    #[test]
    fn long_prompt_has_segment_structure() {
        let p = long_context_prompt(3, 4 * SEGMENT_LEN, 50_000);
        // Segment boundaries (after the first) carry the same sentinel.
        assert_eq!(p[SEGMENT_LEN], p[2 * SEGMENT_LEN]);
        assert_eq!(p[SEGMENT_LEN], p[3 * SEGMENT_LEN]);
        // Segment bodies differ from each other.
        assert_ne!(
            &p[1..SEGMENT_LEN],
            &p[SEGMENT_LEN + 1..2 * SEGMENT_LEN],
            "segments must draw from distinct streams"
        );
    }

    #[test]
    fn mixed_trace_hits_long_fraction_and_is_deterministic() {
        let t = synthesize_mixed_trace(4.0, 2_000, 0.1, 4096, 16..=128, 32, 11);
        assert_eq!(t.requests.len(), 2_000);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let long = t.requests.iter().filter(|r| r.input_len == 4096).count();
        let frac = long as f64 / t.requests.len() as f64;
        assert!((frac - 0.1).abs() < 0.03, "long fraction {frac}");
        assert!(t
            .requests
            .iter()
            .all(|r| r.input_len == 4096 || (16..=128).contains(&r.input_len)));
        let again = synthesize_mixed_trace(4.0, 2_000, 0.1, 4096, 16..=128, 32, 11);
        assert_eq!(t.requests, again.requests);
    }

    #[test]
    fn long_request_ids_stable_across_rates() {
        // Tagging is by id hash, not draw order: the same ids are long at
        // every rate, so rate sweeps compare matched request mixes.
        let a = synthesize_mixed_trace(1.0, 500, 0.2, 2048, 16..=64, 8, 5);
        let b = synthesize_mixed_trace(10.0, 500, 0.2, 2048, 16..=64, 8, 5);
        let longs = |t: &Trace| {
            t.requests
                .iter()
                .filter(|r| r.input_len == 2048)
                .map(|r| r.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(longs(&a), longs(&b));
    }
}
