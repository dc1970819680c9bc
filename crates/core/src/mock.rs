//! A deterministic scripted executor for tests and examples.
//!
//! [`MockExecutor`] produces tokens from a pure function of `(seed, seq_id,
//! position)`, so engine-level behaviours (forking, beam search, preemption,
//! recomputation) can be tested without a numeric model. Recomputation
//! determinism holds by construction: replaying the same positions yields
//! the same tokens.

use crate::error::Result;
use crate::executor::{KernelTiming, ModelExecutor, SeqStepOutput, StepResult};
use crate::plan::StepPlan;
use crate::sampling::TokenId;

/// Deterministic stand-in model executor.
#[derive(Debug, Clone)]
pub struct MockExecutor {
    /// Vocabulary size for generated token ids.
    pub vocab_size: u32,
    /// Modeled duration of every step, in seconds.
    pub step_time: f64,
    /// If set, sequences emit this token at positions where
    /// `position % eos_period == 0` (used to exercise eos stop paths).
    pub eos_token: Option<(TokenId, usize)>,
    /// Number of executed steps.
    pub steps: u64,
    /// Number of block copies observed (copy-on-write + swaps).
    pub copies_seen: u64,
    /// Number of KV-handoff block installations observed.
    pub installs_seen: u64,
    /// When set, tokens depend only on `(seed, position)` — not the
    /// engine-local `seq_id`. Real logits are a function of the tokens and
    /// positions, never of an engine's internal sequence counter, so this
    /// is the mode for cross-engine determinism tests (a request migrated
    /// to another replica must produce the identical continuation even
    /// though the target engine assigns it a different `seq_id`).
    pub seq_invariant: bool,
}

impl MockExecutor {
    /// Creates a mock with the given vocabulary size.
    #[must_use]
    pub fn new(vocab_size: u32) -> Self {
        Self {
            vocab_size,
            step_time: 0.01,
            eos_token: None,
            steps: 0,
            copies_seen: 0,
            installs_seen: 0,
            seq_invariant: false,
        }
    }

    /// Switches the mock into seq-invariant mode (tokens depend only on
    /// the sampling seed and position, like real logits).
    #[must_use]
    pub fn seq_invariant(mut self) -> Self {
        self.seq_invariant = true;
        self
    }

    fn token_at(&self, seed: u64, seq_id: u64, position: usize) -> TokenId {
        if let Some((eos, period)) = self.eos_token {
            if period > 0 && position.is_multiple_of(period) {
                return eos;
            }
        }
        let sid = if self.seq_invariant { 0 } else { seq_id };
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [sid, position as u64] {
            h ^= v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = h.rotate_left(31).wrapping_mul(0x94d0_49bb_1331_11eb);
        }
        (h % u64::from(self.vocab_size)) as TokenId
    }
}

impl ModelExecutor for MockExecutor {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        self.steps += 1;
        self.copies_seen += (plan.cache_ops.copies.len()
            + plan.cache_ops.swap_in.len()
            + plan.cache_ops.swap_out.len()
            + plan.cache_ops.moves.len()) as u64;
        self.installs_seen += plan.cache_ops.installs.len() as u64;
        let mut outputs = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            let next_pos = item.context_len();
            let mut candidates = Vec::with_capacity(item.num_candidates);
            for c in 0..item.num_candidates {
                // Candidate `c` perturbs the seed so parallel samples differ.
                let token = self.token_at(item.seed.wrapping_add(c as u64), item.seq_id, next_pos);
                let logprob = -0.1 * (c as f32 + 1.0);
                candidates.push((token, logprob));
            }
            outputs.push(SeqStepOutput {
                seq_id: item.seq_id,
                candidates,
            });
        }
        Ok(StepResult {
            outputs,
            elapsed: self.step_time,
            kernels: vec![KernelTiming {
                name: "forward",
                seconds: self.step_time,
            }],
        })
    }
}
