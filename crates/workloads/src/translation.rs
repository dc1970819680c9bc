//! Shared-prefix translation workload (§6.4, Fig. 10/16): every prompt is
//! `system prefix + task sentence`, WMT16 En→De style. The prefix holds the
//! instruction plus 1 or 5 translation examples.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist::{exponential, TruncatedLogNormal};
use crate::trace::{Trace, TraceRequest};

/// Prefix length of the 1-shot prompt (Fig. 16a: "1 example with 80
/// tokens").
pub const ONE_SHOT_PREFIX_LEN: usize = 80;
/// Prefix length of the 5-shot prompt (Fig. 16b: "5 examples with 341
/// tokens").
pub const FIVE_SHOT_PREFIX_LEN: usize = 341;

/// Few-shot configuration of the translation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixKind {
    /// Instruction + one example (80 tokens).
    OneShot,
    /// Instruction + five examples (341 tokens).
    FiveShot,
}

impl PrefixKind {
    /// Prefix length in tokens.
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            Self::OneShot => ONE_SHOT_PREFIX_LEN,
            Self::FiveShot => FIVE_SHOT_PREFIX_LEN,
        }
    }

    /// Prefixes are never empty; provided for API completeness.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// The shared prefix tokens (deterministic per kind; the 5-shot prefix
    /// extends the 1-shot prefix so nested prefix caching can apply).
    #[must_use]
    pub fn tokens(self, vocab_size: u32) -> Vec<u32> {
        (0..self.len() as u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xdead_beef;
                z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z % u64::from(vocab_size)) as u32
            })
            .collect()
    }
}

/// A translation trace: requests share the prefix; the trace stores only the
/// task-input and output lengths (prefix length kept separately).
#[derive(Debug, Clone)]
pub struct TranslationTrace {
    /// Underlying per-request trace; `input_len` covers prefix + sentence.
    pub trace: Trace,
    /// The shared-prefix configuration.
    pub prefix: PrefixKind,
}

/// Synthesizes a WMT-style translation trace: sentences average ~25 tokens
/// in and out, plus the shared prefix on every prompt.
///
/// # Panics
///
/// Panics if `rate` is not positive.
#[must_use]
pub fn synthesize_translation_trace(
    prefix: PrefixKind,
    rate: f64,
    n: usize,
    seed: u64,
) -> TranslationTrace {
    assert!(rate > 0.0, "rate must be positive");
    let sent_in = TruncatedLogNormal::from_mean(25.0, 0.5, 4.0, 128.0);
    let sent_out = TruncatedLogNormal::from_mean(28.0, 0.5, 4.0, 128.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let requests = (0..n as u64)
        .map(|id| {
            t += exponential(&mut rng, rate);
            TraceRequest {
                id,
                arrival: t,
                input_len: prefix.len() + sent_in.sample_len(&mut rng),
                output_len: sent_out.sample_len(&mut rng),
            }
        })
        .collect();
    TranslationTrace {
        trace: Trace { requests, rate },
        prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_lengths_match_paper() {
        assert_eq!(PrefixKind::OneShot.len(), 80);
        assert_eq!(PrefixKind::FiveShot.len(), 341);
    }

    #[test]
    fn five_shot_extends_one_shot() {
        let one = PrefixKind::OneShot.tokens(1000);
        let five = PrefixKind::FiveShot.tokens(1000);
        assert!(five.starts_with(&one));
    }

    #[test]
    fn inputs_include_prefix() {
        let t = synthesize_translation_trace(PrefixKind::FiveShot, 5.0, 500, 1);
        for r in &t.trace.requests {
            assert!(r.input_len > FIVE_SHOT_PREFIX_LEN);
            assert!(r.input_len <= FIVE_SHOT_PREFIX_LEN + 128);
            assert!(r.output_len >= 4);
        }
    }

    #[test]
    fn deterministic() {
        let a = synthesize_translation_trace(PrefixKind::OneShot, 5.0, 100, 3);
        let b = synthesize_translation_trace(PrefixKind::OneShot, 5.0, 100, 3);
        assert_eq!(a.trace.requests, b.trace.requests);
    }
}
