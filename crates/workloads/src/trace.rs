//! Request traces: Poisson arrivals over a dataset's length distribution
//! (§6.1: "we generate request arrival times using Poisson distribution with
//! different request rates").

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::dist::exponential;

/// One serving request of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Stable request id within the trace.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Scripted output length in tokens (from the dataset).
    pub output_len: usize,
}

impl TraceRequest {
    /// Deterministic prompt tokens for this request (content is irrelevant
    /// to memory management; ids are spread over the vocabulary).
    #[must_use]
    pub fn prompt_tokens(&self, vocab_size: u32) -> Vec<u32> {
        (0..self.input_len as u64)
            .map(|i| {
                let mut z = self.id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z % u64::from(vocab_size)) as u32
            })
            .collect()
    }
}

/// A synthesized workload trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Requests, sorted by arrival time.
    pub requests: Vec<TraceRequest>,
    /// Request rate the trace was generated at (req/s).
    pub rate: f64,
}

impl Trace {
    /// Synthesizes a trace of `n` requests with Poisson arrivals at `rate`
    /// requests/second, drawing lengths from `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[must_use]
    pub fn synthesize(dataset: &Dataset, rate: f64, n: usize, seed: u64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let requests = (0..n as u64)
            .map(|id| {
                t += exponential(&mut rng, rate);
                let (input_len, output_len) = dataset.sample(&mut rng);
                TraceRequest {
                    id,
                    arrival: t,
                    input_len,
                    output_len,
                }
            })
            .collect();
        Self { requests, rate }
    }

    /// Synthesizes a trace with *bursty* arrivals: log-normal inter-arrival
    /// times with the given coefficient of variation (CV). `cv = 1`
    /// approximates the Poisson process the paper uses; larger values model
    /// flash crowds (an extension beyond §6.1).
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `cv` is not positive.
    #[must_use]
    pub fn synthesize_bursty(dataset: &Dataset, rate: f64, cv: f64, n: usize, seed: u64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(cv > 0.0, "cv must be positive");
        let mean_gap = 1.0 / rate;
        // For LogNormal(mu, sigma): CV^2 = exp(sigma^2) - 1.
        let sigma = (cv * cv + 1.0).ln().sqrt();
        let mu = mean_gap.ln() - sigma * sigma / 2.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let requests = (0..n as u64)
            .map(|id| {
                t += crate::dist::lognormal(&mut rng, mu, sigma);
                let (input_len, output_len) = dataset.sample(&mut rng);
                TraceRequest {
                    id,
                    arrival: t,
                    input_len,
                    output_len,
                }
            })
            .collect();
        Self { requests, rate }
    }

    /// Synthesizes a trace covering `duration` seconds at `rate` req/s.
    #[must_use]
    pub fn synthesize_for_duration(dataset: &Dataset, rate: f64, duration: f64, seed: u64) -> Self {
        let n = (rate * duration).ceil() as usize;
        let mut trace = Self::synthesize(dataset, rate, n.max(1), seed);
        trace.requests.retain(|r| r.arrival <= duration);
        trace
    }

    /// Duration spanned by the arrivals.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival)
    }

    /// Total prompt + output tokens of the trace.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.input_len + r.output_len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_sorted_and_rate_approximate() {
        let t = Trace::synthesize(&Dataset::alpaca(), 10.0, 5_000, 1);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let rate = t.requests.len() as f64 / t.duration();
        assert!((rate - 10.0).abs() < 1.0, "achieved rate {rate}");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = Trace::synthesize(&Dataset::sharegpt(), 2.0, 100, 42);
        let b = Trace::synthesize(&Dataset::sharegpt(), 2.0, 100, 42);
        assert_eq!(a.requests, b.requests);
        let c = Trace::synthesize(&Dataset::sharegpt(), 2.0, 100, 43);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn bursty_trace_matches_rate_and_cv() {
        let t = Trace::synthesize_bursty(&Dataset::alpaca(), 5.0, 4.0, 20_000, 0);
        let gaps: Vec<f64> = t
            .requests
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 0.2).abs() < 0.02, "mean gap {mean}");
        assert!((cv - 4.0).abs() < 0.6, "cv {cv}");
    }

    #[test]
    fn duration_synthesis_respects_bounds() {
        let t = Trace::synthesize_for_duration(&Dataset::alpaca(), 5.0, 60.0, 9);
        assert!(t.duration() <= 60.0);
        assert!(!t.requests.is_empty());
    }

    #[test]
    fn prompt_tokens_deterministic_and_in_vocab() {
        let r = TraceRequest {
            id: 3,
            arrival: 0.0,
            input_len: 50,
            output_len: 10,
        };
        let a = r.prompt_tokens(1000);
        assert_eq!(a.len(), 50);
        assert_eq!(a, r.prompt_tokens(1000));
        assert!(a.iter().all(|&t| t < 1000));
        let other = TraceRequest { id: 4, ..r.clone() };
        assert_ne!(a, other.prompt_tokens(1000));
    }
}
