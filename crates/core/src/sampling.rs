//! Per-request sampling parameters (§5.2, §6.3).

use crate::error::{Result, VllmError};

/// Token id type used across the system.
pub type TokenId = u32;

/// The decoding algorithm requested for a sequence group (§4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodingMode {
    /// Pick the argmax token at every step.
    Greedy,
    /// Sample from the (temperature/top-k/top-p adjusted) distribution.
    Random {
        /// Softmax temperature; must be positive.
        temperature: f32,
        /// Keep only the `top_k` most likely tokens (0 disables the filter).
        top_k: usize,
        /// Keep the smallest set of tokens whose cumulative probability
        /// reaches `top_p` (1.0 disables the filter).
        top_p: f32,
    },
    /// Beam search with the given beam width (§4.4, Fig. 9).
    Beam {
        /// Beam width `k`: number of candidates retained per step.
        width: usize,
    },
}

impl DecodingMode {
    /// Plain random sampling with temperature 1 and no truncation.
    #[must_use]
    pub fn random() -> Self {
        Self::Random {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
        }
    }
}

/// Sampling parameters attached to a request.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingParams {
    /// Number of output sequences to produce (parallel sampling when > 1).
    pub n: usize,
    /// Decoding algorithm.
    pub mode: DecodingMode,
    /// Maximum number of generated tokens per sequence.
    pub max_tokens: usize,
    /// Token id that terminates generation when emitted.
    pub eos_token_id: Option<TokenId>,
    /// Additional token ids that terminate generation (beyond `eos`).
    pub stop_token_ids: Vec<TokenId>,
    /// Whether the end-of-sequence token may be ignored (forces sequences to
    /// run to `max_tokens`; used to replay traces with known output lengths).
    pub ignore_eos: bool,
    /// Seed for the request's sampling RNG; `None` derives one from the
    /// request id so runs stay reproducible.
    pub seed: Option<u64>,
}

impl SamplingParams {
    /// Greedy decoding of a single sequence.
    #[must_use]
    pub fn greedy(max_tokens: usize) -> Self {
        Self {
            n: 1,
            mode: DecodingMode::Greedy,
            max_tokens,
            eos_token_id: None,
            stop_token_ids: Vec::new(),
            ignore_eos: false,
            seed: None,
        }
    }

    /// Random sampling of `n` parallel sequences (Fig. 8 scenario).
    #[must_use]
    pub fn parallel(n: usize, max_tokens: usize) -> Self {
        Self {
            n,
            mode: DecodingMode::random(),
            max_tokens,
            eos_token_id: None,
            stop_token_ids: Vec::new(),
            ignore_eos: false,
            seed: None,
        }
    }

    /// Beam search with width `k` (Fig. 9 scenario).
    #[must_use]
    pub fn beam(width: usize, max_tokens: usize) -> Self {
        Self {
            n: width,
            mode: DecodingMode::Beam { width },
            max_tokens,
            eos_token_id: None,
            stop_token_ids: Vec::new(),
            ignore_eos: false,
            seed: None,
        }
    }

    /// Sets the end-of-sequence token.
    #[must_use]
    pub fn with_eos(mut self, eos: TokenId) -> Self {
        self.eos_token_id = Some(eos);
        self
    }

    /// Adds extra stop tokens.
    #[must_use]
    pub fn with_stop_tokens(mut self, stops: Vec<TokenId>) -> Self {
        self.stop_token_ids = stops;
        self
    }

    /// Whether `token` terminates generation (eos or any stop token),
    /// honouring `ignore_eos`.
    #[must_use]
    pub fn is_stop_token(&self, token: TokenId) -> bool {
        if self.ignore_eos {
            return false;
        }
        self.eos_token_id == Some(token) || self.stop_token_ids.contains(&token)
    }

    /// Sets the sampling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Forces sequences to ignore `eos` and run to `max_tokens`.
    #[must_use]
    pub fn with_ignore_eos(mut self) -> Self {
        self.ignore_eos = true;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] when `n` is zero, `max_tokens` is
    /// zero, a beam width disagrees with `n`, or a sampling knob is out of
    /// range.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(VllmError::InvalidConfig("n must be > 0".into()));
        }
        if self.max_tokens == 0 {
            return Err(VllmError::InvalidConfig("max_tokens must be > 0".into()));
        }
        match self.mode {
            DecodingMode::Greedy => {
                if self.n != 1 {
                    return Err(VllmError::InvalidConfig(
                        "greedy decoding requires n == 1".into(),
                    ));
                }
            }
            DecodingMode::Random {
                temperature, top_p, ..
            } => {
                if temperature <= 0.0 {
                    return Err(VllmError::InvalidConfig("temperature must be > 0".into()));
                }
                if !(0.0..=1.0).contains(&top_p) || top_p == 0.0 {
                    return Err(VllmError::InvalidConfig("top_p must be in (0, 1]".into()));
                }
            }
            DecodingMode::Beam { width } => {
                if width == 0 {
                    return Err(VllmError::InvalidConfig("beam width must be > 0".into()));
                }
                if self.n != width {
                    return Err(VllmError::InvalidConfig(
                        "beam search requires n == width".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether this request uses beam search.
    #[must_use]
    pub fn is_beam_search(&self) -> bool {
        matches!(self.mode, DecodingMode::Beam { .. })
    }

    /// Number of candidate `(token, logprob)` pairs the executor must return
    /// per sequence: beam search needs `2k` candidates so the engine can keep
    /// `k` live beams even when some candidates terminate; other modes need
    /// one sampled token per output sequence.
    #[must_use]
    pub fn candidates_per_seq(&self) -> usize {
        match self.mode {
            DecodingMode::Beam { width } => 2 * width,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_is_valid() {
        assert!(SamplingParams::greedy(16).validate().is_ok());
    }

    #[test]
    fn greedy_with_n_gt_1_is_invalid() {
        let mut p = SamplingParams::greedy(16);
        p.n = 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn beam_width_must_match_n() {
        let mut p = SamplingParams::beam(4, 16);
        assert!(p.validate().is_ok());
        assert_eq!(p.candidates_per_seq(), 8);
        p.n = 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn random_knobs_validated() {
        let mut p = SamplingParams::parallel(2, 16);
        assert!(p.validate().is_ok());
        p.mode = DecodingMode::Random {
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
        };
        assert!(p.validate().is_err());
        p.mode = DecodingMode::Random {
            temperature: 1.0,
            top_k: 0,
            top_p: 0.0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_limits_rejected() {
        let mut p = SamplingParams::greedy(16);
        p.max_tokens = 0;
        assert!(p.validate().is_err());
        let mut p = SamplingParams::greedy(16);
        p.n = 0;
        assert!(p.validate().is_err());
    }
}
