//! Typed generation-request API.
//!
//! [`GenerationRequest`] is the serving-facing request description: what to
//! decode ([`GenerationMode`] + knobs), how much ([`max_tokens`], `n`), and
//! under which service constraints (deadline, priority). It replaces the
//! positional `GENERATE\t<max_tokens>\t<n>\t<mode>` wire fields with a
//! builder that all entry points share — the frontend parser, the replica
//! admission loop, and the simulator's trace loader — so validation and the
//! error taxonomy live in exactly one place.
//!
//! The request is *descriptive*: it is converted into the engine-internal
//! [`SamplingParams`] by [`GenerationRequest::sampling_params`], which is
//! where cross-field validation happens ([`VllmError::InvalidRequest`] on
//! conflict).

use std::str::FromStr;

use vllm_telemetry::TraceContext;

use crate::error::{Result, VllmError};
use crate::sampling::{DecodingMode, SamplingParams, TokenId};

/// The decoding algorithm named on the wire (`mode=` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerationMode {
    /// Argmax decoding of a single sequence.
    Greedy,
    /// Random sampling of `n` parallel sequences.
    Sample,
    /// Beam search with width `n`.
    Beam,
}

impl GenerationMode {
    /// The lowercase wire spelling (`greedy` / `sample` / `beam`).
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::Sample => "sample",
            Self::Beam => "beam",
        }
    }
}

impl std::fmt::Display for GenerationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl FromStr for GenerationMode {
    type Err = VllmError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "greedy" => Ok(Self::Greedy),
            "sample" => Ok(Self::Sample),
            "beam" => Ok(Self::Beam),
            other => Err(VllmError::InvalidRequest(format!("unknown mode {other:?}"))),
        }
    }
}

/// A typed, validated-on-conversion generation request.
///
/// Construct with [`greedy`](Self::greedy) / [`sample`](Self::sample) /
/// [`beam`](Self::beam) and chain `with_*` builders:
///
/// ```
/// use vllm_core::GenerationRequest;
/// let req = GenerationRequest::sample(4, 128)
///     .with_temperature(0.8)
///     .with_seed(7)
///     .with_deadline(2.5)
///     .with_priority(1);
/// let params = req.sampling_params().unwrap();
/// assert_eq!(params.n, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRequest {
    /// Maximum number of generated tokens per sequence.
    pub max_tokens: usize,
    /// Number of output sequences (samples, or beam width for beam search).
    pub n: usize,
    /// Decoding algorithm.
    pub mode: GenerationMode,
    /// Softmax temperature (`Sample` mode only).
    pub temperature: Option<f32>,
    /// Nucleus truncation in (0, 1] (`Sample` mode only).
    pub top_p: Option<f32>,
    /// Sampling RNG seed; `None` lets the caller derive one.
    pub seed: Option<u64>,
    /// Relative deadline in seconds of engine (virtual) time from arrival.
    /// The engine cancels the request with
    /// [`VllmError::DeadlineExceeded`] semantics if it is still unfinished
    /// when the deadline passes. `None` means no deadline.
    pub deadline: Option<f64>,
    /// Scheduling priority: higher values are admitted first; ties break by
    /// arrival time (FCFS). Default 0.
    pub priority: i32,
    /// End-of-sequence token id to stop on, if any.
    pub eos_token_id: Option<TokenId>,
    /// Forces sequences to ignore `eos` and run to `max_tokens` (trace
    /// replay with known output lengths).
    pub ignore_eos: bool,
    /// Distributed-tracing context to propagate. `None` lets the engine
    /// mint one at admission; routers set a per-attempt child context so
    /// retries appear as sibling spans under one request root.
    pub trace: Option<TraceContext>,
}

impl GenerationRequest {
    fn base(mode: GenerationMode, n: usize, max_tokens: usize) -> Self {
        Self {
            max_tokens,
            n,
            mode,
            temperature: None,
            top_p: None,
            seed: None,
            deadline: None,
            priority: 0,
            eos_token_id: None,
            ignore_eos: false,
            trace: None,
        }
    }

    /// Greedy decoding of one sequence.
    #[must_use]
    pub fn greedy(max_tokens: usize) -> Self {
        Self::base(GenerationMode::Greedy, 1, max_tokens)
    }

    /// Random sampling of `n` parallel sequences.
    #[must_use]
    pub fn sample(n: usize, max_tokens: usize) -> Self {
        Self::base(GenerationMode::Sample, n, max_tokens)
    }

    /// Beam search with width `width`.
    #[must_use]
    pub fn beam(width: usize, max_tokens: usize) -> Self {
        Self::base(GenerationMode::Beam, width, max_tokens)
    }

    /// Sets the sampling temperature (`Sample` mode only; checked on
    /// conversion).
    #[must_use]
    pub fn with_temperature(mut self, t: f32) -> Self {
        self.temperature = Some(t);
        self
    }

    /// Sets nucleus truncation (`Sample` mode only; checked on conversion).
    #[must_use]
    pub fn with_top_p(mut self, p: f32) -> Self {
        self.top_p = Some(p);
        self
    }

    /// Sets the sampling RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets a relative deadline in seconds of engine time.
    #[must_use]
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline = Some(seconds);
        self
    }

    /// Sets the scheduling priority (higher runs first; default 0).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the end-of-sequence token.
    #[must_use]
    pub fn with_eos(mut self, eos: TokenId) -> Self {
        self.eos_token_id = Some(eos);
        self
    }

    /// Forces sequences to ignore `eos` and run to `max_tokens`.
    #[must_use]
    pub fn with_ignore_eos(mut self) -> Self {
        self.ignore_eos = true;
        self
    }

    /// Sets the tracing context to propagate with this request.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Applies one wire `key=value` field in place. This is the single
    /// parser behind the frontend's optional `GENERATE` fields.
    ///
    /// Known keys: `temperature`, `top_p`, `seed`, `deadline`, `priority`,
    /// `trace` (a [`TraceContext`] wire encoding,
    /// `<trace_id:016x>-<span_id:016x>-<0|1>`).
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] for an unparseable value, or an
    /// *unknown field* error for any other key (unknown fields are rejected,
    /// never silently ignored).
    pub fn apply_field(&mut self, key: &str, value: &str) -> Result<()> {
        fn bad(key: &str, value: &str) -> VllmError {
            VllmError::InvalidRequest(format!("bad {key} {value:?}"))
        }
        match key {
            "temperature" => {
                self.temperature = Some(value.parse().map_err(|_| bad(key, value))?);
            }
            "top_p" => {
                self.top_p = Some(value.parse().map_err(|_| bad(key, value))?);
            }
            "seed" => {
                self.seed = Some(value.parse().map_err(|_| bad(key, value))?);
            }
            "deadline" => {
                let d: f64 = value.parse().map_err(|_| bad(key, value))?;
                if !d.is_finite() || d <= 0.0 {
                    return Err(bad(key, value));
                }
                self.deadline = Some(d);
            }
            "priority" => {
                self.priority = value.parse().map_err(|_| bad(key, value))?;
            }
            "trace" => {
                self.trace = Some(
                    TraceContext::from_wire(value)
                        .map_err(|e| VllmError::InvalidRequest(format!("bad trace: {e}")))?,
                );
            }
            other => {
                return Err(VllmError::InvalidRequest(format!(
                    "unknown field {other:?} (known: temperature, top_p, seed, deadline, \
                     priority, trace)"
                )));
            }
        }
        Ok(())
    }

    /// Converts to the engine-internal [`SamplingParams`], validating
    /// cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidRequest`] when greedy mode has `n != 1`,
    /// when `temperature`/`top_p` are set outside `Sample` mode, or when the
    /// resulting parameters fail [`SamplingParams::validate`].
    pub fn sampling_params(&self) -> Result<SamplingParams> {
        let mut params = match self.mode {
            GenerationMode::Greedy => {
                if self.n != 1 {
                    return Err(VllmError::InvalidRequest("greedy requires n=1".into()));
                }
                SamplingParams::greedy(self.max_tokens)
            }
            GenerationMode::Sample => SamplingParams::parallel(self.n, self.max_tokens),
            GenerationMode::Beam => SamplingParams::beam(self.n, self.max_tokens),
        };
        if let DecodingMode::Random {
            temperature, top_p, ..
        } = &mut params.mode
        {
            if let Some(t) = self.temperature {
                *temperature = t;
            }
            if let Some(p) = self.top_p {
                *top_p = p;
            }
        } else if self.temperature.is_some() || self.top_p.is_some() {
            return Err(VllmError::InvalidRequest(format!(
                "temperature/top_p require mode=sample, got \"{}\"",
                self.mode
            )));
        }
        if let Some(eos) = self.eos_token_id {
            params = params.with_eos(eos);
        }
        if self.ignore_eos {
            params = params.with_ignore_eos();
        }
        if let Some(seed) = self.seed {
            params = params.with_seed(seed);
        }
        params
            .validate()
            .map_err(|e| VllmError::InvalidRequest(e.to_string()))?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_round_trip_to_sampling_params() {
        let p = GenerationRequest::greedy(8).sampling_params().unwrap();
        assert_eq!(p.n, 1);
        assert_eq!(p.max_tokens, 8);
        assert!(matches!(p.mode, DecodingMode::Greedy));

        let p = GenerationRequest::sample(3, 16)
            .with_temperature(0.5)
            .with_top_p(0.9)
            .with_seed(42)
            .sampling_params()
            .unwrap();
        assert_eq!(p.n, 3);
        assert_eq!(p.seed, Some(42));
        match p.mode {
            DecodingMode::Random {
                temperature, top_p, ..
            } => {
                assert!((temperature - 0.5).abs() < 1e-6);
                assert!((top_p - 0.9).abs() < 1e-6);
            }
            other => panic!("expected Random, got {other:?}"),
        }

        let p = GenerationRequest::beam(4, 16).sampling_params().unwrap();
        assert!(p.is_beam_search());
        assert_eq!(p.n, 4);
    }

    #[test]
    fn greedy_with_n_gt_1_rejected() {
        let mut r = GenerationRequest::greedy(8);
        r.n = 2;
        let err = r.sampling_params().unwrap_err();
        assert!(err.to_string().contains("greedy requires n=1"));
        assert!(!err.is_retryable());
    }

    #[test]
    fn sampling_knobs_rejected_outside_sample_mode() {
        let err = GenerationRequest::greedy(8)
            .with_temperature(0.5)
            .sampling_params()
            .unwrap_err();
        assert!(err.to_string().contains("mode=sample"));
    }

    #[test]
    fn mode_from_str() {
        assert_eq!(
            "greedy".parse::<GenerationMode>().unwrap(),
            GenerationMode::Greedy
        );
        assert_eq!(
            "sample".parse::<GenerationMode>().unwrap(),
            GenerationMode::Sample
        );
        assert_eq!(
            "beam".parse::<GenerationMode>().unwrap(),
            GenerationMode::Beam
        );
        let err = "turbo".parse::<GenerationMode>().unwrap_err();
        assert!(err.to_string().contains("unknown mode"));
    }

    #[test]
    fn apply_field_parses_known_keys_and_rejects_unknown() {
        let mut r = GenerationRequest::sample(2, 8);
        r.apply_field("temperature", "0.7").unwrap();
        r.apply_field("top_p", "0.95").unwrap();
        r.apply_field("seed", "9").unwrap();
        r.apply_field("deadline", "1.5").unwrap();
        r.apply_field("priority", "-2").unwrap();
        assert_eq!(r.seed, Some(9));
        assert_eq!(r.deadline, Some(1.5));
        assert_eq!(r.priority, -2);

        let err = r.apply_field("tempature", "0.7").unwrap_err();
        assert!(err.to_string().contains("unknown field"));
        assert_eq!(err.kind(), crate::ErrorKind::Request);

        assert!(r.apply_field("deadline", "-1").is_err());
        assert!(r.apply_field("seed", "abc").is_err());
    }
}
