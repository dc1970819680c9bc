//! Configuration for the KV cache, scheduler, and engine.

use crate::error::{Result, VllmError};

/// Default KV block size in tokens (§7.2: block size 16 is the vLLM default).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Default fraction of GPU blocks kept free as a watermark to avoid
/// thrashing between allocation and immediate preemption.
pub const DEFAULT_WATERMARK: f64 = 0.01;

/// Configuration of the paged KV cache (§4.2).
///
/// The cache is split into a GPU pool (used for active sequences) and a CPU
/// pool (the swap space used by the swapping recovery mechanism of §4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Number of tokens per KV block (`B` in the paper).
    pub block_size: usize,
    /// Number of physical blocks in the GPU pool.
    pub num_gpu_blocks: usize,
    /// Number of physical blocks in the CPU swap pool.
    pub num_cpu_blocks: usize,
    /// Fraction of GPU blocks kept free when admitting new prompts.
    pub watermark: f64,
}

impl CacheConfig {
    /// Creates a cache configuration, validating its invariants.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if `block_size` is zero, the GPU
    /// pool is empty, or the watermark is outside `[0, 1)`.
    pub fn new(block_size: usize, num_gpu_blocks: usize, num_cpu_blocks: usize) -> Result<Self> {
        let cfg = Self {
            block_size,
            num_gpu_blocks,
            num_cpu_blocks,
            watermark: DEFAULT_WATERMARK,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Sets a custom watermark fraction.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if the watermark is outside `[0, 1)`.
    pub fn with_watermark(mut self, watermark: f64) -> Result<Self> {
        self.watermark = watermark;
        self.validate()?;
        Ok(self)
    }

    fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(VllmError::InvalidConfig("block_size must be > 0".into()));
        }
        if self.num_gpu_blocks == 0 {
            return Err(VllmError::InvalidConfig(
                "num_gpu_blocks must be > 0".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.watermark) {
            return Err(VllmError::InvalidConfig(
                "watermark must be in [0, 1)".into(),
            ));
        }
        Ok(())
    }

    /// Derives the cache configuration from a fixed GPU memory budget:
    /// `num_gpu_blocks = budget_bytes / bytes_per_block`, where
    /// `bytes_per_block` comes from the serving backend's KV element layout
    /// (§4.1 profiling step). A backend that stores KV more compactly —
    /// e.g. int8 with per-slot scales — therefore yields proportionally
    /// more blocks, and with them a larger schedulable batch, from the
    /// same memory budget. The CPU swap pool is sized to match the GPU
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if `bytes_per_block` is zero,
    /// the budget is smaller than one block, or `block_size` is invalid.
    pub fn from_memory_budget(
        block_size: usize,
        bytes_per_block: usize,
        budget_bytes: usize,
    ) -> Result<Self> {
        if bytes_per_block == 0 {
            return Err(VllmError::InvalidConfig(
                "bytes_per_block must be > 0".into(),
            ));
        }
        let num_gpu_blocks = budget_bytes / bytes_per_block;
        if num_gpu_blocks == 0 {
            return Err(VllmError::InvalidConfig(format!(
                "memory budget {budget_bytes} B holds no {bytes_per_block}-byte blocks"
            )));
        }
        Self::new(block_size, num_gpu_blocks, num_gpu_blocks)
    }

    /// Number of GPU blocks kept free as the admission watermark.
    #[must_use]
    pub fn watermark_blocks(&self) -> usize {
        (self.watermark * self.num_gpu_blocks as f64) as usize
    }

    /// Total number of KV token slots in the GPU pool.
    #[must_use]
    pub fn total_gpu_slots(&self) -> usize {
        self.num_gpu_blocks * self.block_size
    }
}

/// How a preempted sequence group is recovered (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptionMode {
    /// Copy evicted blocks to the CPU pool and copy them back later.
    Swap,
    /// Discard the blocks and recompute the KV cache as one prompt run.
    Recompute,
}

/// Which running group is preempted first when memory runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Preempt the latest-arrived group (the paper's FCFS-preserving
    /// policy: "the latest requests are preempted first").
    LatestArrival,
    /// Preempt the group holding the most KV blocks (ablation: frees the
    /// most memory per preemption but starves long requests).
    LargestFootprint,
}

/// Configuration of the iteration-level scheduler (§4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum number of tokens processed in one iteration (prompt tokens for
    /// prompt-phase steps, one token per sequence for generation steps).
    pub max_num_batched_tokens: usize,
    /// Maximum number of sequences running in one iteration.
    pub max_num_seqs: usize,
    /// Maximum model context length; prompts longer than this are rejected.
    pub max_model_len: usize,
    /// How preempted groups are recovered.
    pub preemption_mode: PreemptionMode,
    /// Which group is preempted first.
    pub victim_policy: VictimPolicy,
    /// Per-step token budget enabling chunked prefill. `None` keeps the
    /// paper's all-or-nothing prompt admission; `Some(b)` makes the
    /// scheduler split prompts into chunks of at most `b` tokens that
    /// co-batch with decode sequences in the same step.
    pub step_token_budget: Option<usize>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_num_batched_tokens: 2560,
            max_num_seqs: 256,
            max_model_len: 2048,
            preemption_mode: PreemptionMode::Recompute,
            victim_policy: VictimPolicy::LatestArrival,
            step_token_budget: None,
        }
    }
}

impl SchedulerConfig {
    /// Creates a scheduler configuration, validating its invariants.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if any limit is zero or if
    /// `max_num_batched_tokens < max_model_len` (a full-length prompt must be
    /// schedulable in one iteration).
    pub fn new(
        max_num_batched_tokens: usize,
        max_num_seqs: usize,
        max_model_len: usize,
    ) -> Result<Self> {
        if max_num_batched_tokens == 0 || max_num_seqs == 0 || max_model_len == 0 {
            return Err(VllmError::InvalidConfig(
                "scheduler limits must be > 0".into(),
            ));
        }
        if max_num_batched_tokens < max_model_len {
            return Err(VllmError::InvalidConfig(format!(
                "max_num_batched_tokens ({max_num_batched_tokens}) must be >= max_model_len ({max_model_len})"
            )));
        }
        Ok(Self {
            max_num_batched_tokens,
            max_num_seqs,
            max_model_len,
            preemption_mode: PreemptionMode::Recompute,
            victim_policy: VictimPolicy::LatestArrival,
            step_token_budget: None,
        })
    }

    /// Turns on chunked prefill with a per-step budget of `budget` tokens,
    /// clamped to `1..=max_num_batched_tokens` so a chunk never exceeds the
    /// per-step batch cap. Leaving the budget unset keeps the paper's
    /// ordering.
    #[must_use]
    pub fn with_step_token_budget(mut self, budget: usize) -> Self {
        self.step_token_budget = Some(budget.clamp(1, self.max_num_batched_tokens));
        self
    }

    /// Sets the preemption (recovery) mode.
    #[must_use]
    pub fn with_preemption_mode(mut self, mode: PreemptionMode) -> Self {
        self.preemption_mode = mode;
        self
    }

    /// Sets the preemption victim policy.
    #[must_use]
    pub fn with_victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_config_validates() {
        assert!(CacheConfig::new(16, 100, 100).is_ok());
        assert!(CacheConfig::new(0, 100, 100).is_err());
        assert!(CacheConfig::new(16, 0, 100).is_err());
        assert!(CacheConfig::new(16, 100, 0).is_ok());
    }

    #[test]
    fn from_memory_budget_scales_with_block_width() {
        // Equal budget, half the bytes per block → twice the blocks (the
        // quantized-KV capacity argument).
        let budget = 1 << 20;
        let wide = CacheConfig::from_memory_budget(16, 8192, budget).unwrap();
        let narrow = CacheConfig::from_memory_budget(16, 4096, budget).unwrap();
        assert_eq!(wide.num_gpu_blocks, 128);
        assert_eq!(narrow.num_gpu_blocks, 256);
        assert_eq!(narrow.num_cpu_blocks, narrow.num_gpu_blocks);
        assert!(CacheConfig::from_memory_budget(16, 0, budget).is_err());
        assert!(CacheConfig::from_memory_budget(16, budget + 1, budget).is_err());
    }

    #[test]
    fn watermark_blocks_rounds_down() {
        let cfg = CacheConfig::new(16, 1000, 0)
            .unwrap()
            .with_watermark(0.015)
            .unwrap();
        assert_eq!(cfg.watermark_blocks(), 15);
    }

    #[test]
    fn watermark_out_of_range_rejected() {
        let cfg = CacheConfig::new(16, 10, 0).unwrap();
        assert!(cfg.clone().with_watermark(1.0).is_err());
        assert!(cfg.with_watermark(-0.1).is_err());
    }

    #[test]
    fn scheduler_config_requires_full_prompt_budget() {
        assert!(SchedulerConfig::new(2048, 256, 2048).is_ok());
        assert!(SchedulerConfig::new(1024, 256, 2048).is_err());
        assert!(SchedulerConfig::new(0, 256, 2048).is_err());
    }

    #[test]
    fn step_token_budget_is_clamped_to_the_batch_cap() {
        let legacy = SchedulerConfig::new(2048, 64, 2048).unwrap();
        assert_eq!(legacy.step_token_budget, None);
        for (budget, kept) in [(128, 128), (4096, 2048), (0, 1)] {
            let cfg = legacy.clone().with_step_token_budget(budget);
            assert_eq!(cfg.step_token_budget, Some(kept), "budget {budget}");
        }
    }

    #[test]
    fn total_gpu_slots() {
        let cfg = CacheConfig::new(16, 100, 0).unwrap();
        assert_eq!(cfg.total_gpu_slots(), 1600);
    }
}
