//! Elastic KV block-pool controller.
//!
//! The paper sizes the GPU/CPU block pools once at startup (§4.1 profiling
//! step) and never changes them. Follow-up work (eLLM, PAPERS.md) shows that
//! repartitioning KV memory against weight/activation memory as load shifts
//! buys real capacity, so this module adds the policy half of an elastic
//! pool: a small hysteresis controller that watches scheduler pressure
//! (queue depth, swap depth, free-block fraction) every step and proposes a
//! new GPU pool size within a configured `[min, max]` band. The mechanism
//! half — [`crate::block_manager::BlockSpaceManager::resize`] plus the
//! compaction journal replayed through [`crate::executor::CacheOps`] — lives
//! in the block manager; the engine glues the two together at the top of
//! every step so resizes ride the normal step plan.
//!
//! The controller is deliberately deterministic: the same pressure sequence
//! always produces the same resize sequence, which keeps trace replays and
//! the lockstep fault harness reproducible.

use crate::error::{Result, VllmError};

/// Tuning knobs of the elastic pool controller.
///
/// The `VLLM_ELASTIC_*` variables override every knob (see
/// [`crate::env::Env::elastic_config`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// Smallest GPU pool the controller may deflate to, in blocks.
    pub min_gpu_blocks: usize,
    /// Largest GPU pool the controller may inflate to, in blocks.
    pub max_gpu_blocks: usize,
    /// Resize granularity in blocks per action.
    pub step_blocks: usize,
    /// Inflate when the free-block fraction drops below this.
    pub low_free_fraction: f64,
    /// Deflate only while the free-block fraction stays above this.
    pub high_free_fraction: f64,
    /// Steps to wait between consecutive resize actions (hysteresis).
    pub cooldown_steps: u64,
}

impl ElasticConfig {
    /// Creates a config with default thresholds for a pool allowed to move
    /// within `[min_gpu_blocks, max_gpu_blocks]`.
    ///
    /// # Errors
    ///
    /// Returns [`VllmError::InvalidConfig`] if the band is empty or zero.
    pub fn new(min_gpu_blocks: usize, max_gpu_blocks: usize) -> Result<Self> {
        let cfg = Self {
            min_gpu_blocks,
            max_gpu_blocks,
            step_blocks: ((max_gpu_blocks.saturating_sub(min_gpu_blocks)) / 4).max(1),
            low_free_fraction: 0.10,
            high_free_fraction: 0.50,
            cooldown_steps: 4,
        };
        cfg.validate().map_err(VllmError::InvalidConfig)?;
        Ok(cfg)
    }

    /// Why the knobs describe no valid controller, if they do not.
    pub(crate) fn validate(&self) -> std::result::Result<(), String> {
        if self.min_gpu_blocks == 0 {
            return Err("elastic min_gpu_blocks must be > 0".into());
        }
        if self.max_gpu_blocks < self.min_gpu_blocks {
            return Err(format!(
                "elastic band is empty: max {} < min {}",
                self.max_gpu_blocks, self.min_gpu_blocks
            ));
        }
        if self.step_blocks == 0 {
            return Err("elastic step_blocks must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.low_free_fraction)
            || !(0.0..=1.0).contains(&self.high_free_fraction)
            || self.low_free_fraction >= self.high_free_fraction
        {
            return Err(format!(
                "elastic watermarks must satisfy 0 <= low < high <= 1, got low {} high {}",
                self.low_free_fraction, self.high_free_fraction
            ));
        }
        Ok(())
    }
}

/// One step's observation of pool pressure, sampled by the engine before
/// scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolPressure {
    /// Current GPU pool size in blocks.
    pub total_blocks: usize,
    /// Free GPU blocks.
    pub free_blocks: usize,
    /// Allocated GPU blocks (the working set a shrink cannot evict).
    pub allocated_blocks: usize,
    /// Requests queued but not yet admitted.
    pub waiting: usize,
    /// Requests preempted to CPU memory awaiting swap-in.
    pub swapped: usize,
}

impl PoolPressure {
    /// Fraction of the pool currently free.
    #[must_use]
    pub fn free_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        self.free_blocks as f64 / self.total_blocks as f64
    }
}

/// The action the controller proposes for a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticAction {
    /// Grow the GPU pool to this many blocks.
    Inflate(usize),
    /// Shrink the GPU pool to this many blocks (compacting first).
    Deflate(usize),
}

impl ElasticAction {
    /// The target GPU pool size of the action, in blocks.
    #[must_use]
    pub fn target(&self) -> usize {
        match *self {
            Self::Inflate(n) | Self::Deflate(n) => n,
        }
    }
}

/// Hysteresis controller deciding when the GPU pool inflates or deflates.
///
/// Policy per observation:
///
/// * **inflate** by `step_blocks` (capped at `max_gpu_blocks`) while demand
///   is visibly unmet — requests waiting or swapped out, or the free
///   fraction below `low_free_fraction`;
/// * **deflate** by `step_blocks` (floored at `min_gpu_blocks` and at the
///   live working set) while the pool is visibly oversized — no queued or
///   swapped work and the free fraction above `high_free_fraction`;
/// * otherwise hold, and always hold for `cooldown_steps` observations after
///   any action so the pool cannot thrash.
#[derive(Debug, Clone)]
pub struct ElasticController {
    config: ElasticConfig,
    cooldown: u64,
    num_inflations: u64,
    num_deflations: u64,
}

impl ElasticController {
    /// Creates a controller with the given knobs.
    #[must_use]
    pub fn new(config: ElasticConfig) -> Self {
        Self {
            config,
            cooldown: 0,
            num_inflations: 0,
            num_deflations: 0,
        }
    }

    /// The controller's knobs.
    #[must_use]
    pub fn config(&self) -> &ElasticConfig {
        &self.config
    }

    /// Total inflate actions taken.
    #[must_use]
    pub fn num_inflations(&self) -> u64 {
        self.num_inflations
    }

    /// Total deflate actions taken.
    #[must_use]
    pub fn num_deflations(&self) -> u64 {
        self.num_deflations
    }

    /// Observes one step's pressure and proposes a resize, or `None` to
    /// hold. The caller is expected to apply the action (the controller
    /// assumes proposals take effect and starts its cooldown).
    pub fn decide(&mut self, p: &PoolPressure) -> Option<ElasticAction> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let c = &self.config;
        let unmet = p.waiting > 0 || p.swapped > 0 || p.free_fraction() < c.low_free_fraction;
        if unmet && p.total_blocks < c.max_gpu_blocks {
            let target = (p.total_blocks + c.step_blocks).min(c.max_gpu_blocks);
            self.cooldown = c.cooldown_steps;
            self.num_inflations += 1;
            return Some(ElasticAction::Inflate(target));
        }
        let oversized =
            p.waiting == 0 && p.swapped == 0 && p.free_fraction() > c.high_free_fraction;
        if oversized && p.total_blocks > c.min_gpu_blocks {
            let floor = c.min_gpu_blocks.max(p.allocated_blocks);
            let target = p.total_blocks.saturating_sub(c.step_blocks).max(floor);
            if target < p.total_blocks {
                self.cooldown = c.cooldown_steps;
                self.num_deflations += 1;
                return Some(ElasticAction::Deflate(target));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure(total: usize, free: usize, waiting: usize) -> PoolPressure {
        PoolPressure {
            total_blocks: total,
            free_blocks: free,
            allocated_blocks: total - free,
            waiting,
            swapped: 0,
        }
    }

    #[test]
    fn inflates_under_queue_pressure() {
        let cfg = ElasticConfig::new(16, 64).unwrap();
        let mut c = ElasticController::new(cfg);
        let action = c.decide(&pressure(16, 8, 3)).unwrap();
        assert_eq!(action, ElasticAction::Inflate(16 + cfg.step_blocks));
        // Cooldown: the very next observation holds even under pressure.
        assert_eq!(c.decide(&pressure(16, 0, 3)), None);
    }

    #[test]
    fn inflate_caps_at_max() {
        let cfg = ElasticConfig {
            cooldown_steps: 0,
            ..ElasticConfig::new(16, 20).unwrap()
        };
        let mut c = ElasticController::new(cfg);
        let action = c.decide(&pressure(19, 0, 1)).unwrap();
        assert_eq!(action.target(), 20);
        // At the cap, pressure can no longer inflate.
        assert_eq!(c.decide(&pressure(20, 0, 5)), None);
    }

    #[test]
    fn deflates_when_idle_and_mostly_free() {
        let cfg = ElasticConfig {
            cooldown_steps: 0,
            step_blocks: 8,
            ..ElasticConfig::new(16, 64).unwrap()
        };
        let mut c = ElasticController::new(cfg);
        let action = c.decide(&pressure(64, 60, 0)).unwrap();
        assert_eq!(action, ElasticAction::Deflate(56));
        assert_eq!(c.num_deflations(), 1);
    }

    #[test]
    fn deflate_floors_at_working_set() {
        let cfg = ElasticConfig {
            cooldown_steps: 0,
            step_blocks: 32,
            ..ElasticConfig::new(4, 64).unwrap()
        };
        let mut c = ElasticController::new(cfg);
        // 40/64 free, 24 allocated: target 64-32=32 is fine (>= 24).
        assert_eq!(
            c.decide(&pressure(64, 40, 0)),
            Some(ElasticAction::Deflate(32))
        );
        // 34/40 free, 6 allocated: target 40-32=8 still clears the
        // working-set floor of 6.
        assert_eq!(
            c.decide(&pressure(40, 34, 0)),
            Some(ElasticAction::Deflate(8))
        );
        // Nearly full pool never deflates below its working set.
        assert_eq!(
            c.decide(&pressure(8, 7, 0)),
            Some(ElasticAction::Deflate(4))
        );
        assert_eq!(c.decide(&pressure(4, 1, 0)), None);
    }

    #[test]
    fn holds_in_the_comfort_band() {
        let cfg = ElasticConfig {
            cooldown_steps: 0,
            ..ElasticConfig::new(16, 64).unwrap()
        };
        let mut c = ElasticController::new(cfg);
        // 25% free: above low (10%), below high (50%) — hold.
        assert_eq!(c.decide(&pressure(32, 8, 0)), None);
        assert_eq!(c.num_inflations() + c.num_deflations(), 0);
    }

    #[test]
    fn config_validates_band_and_watermarks() {
        assert!(ElasticConfig::new(0, 8).is_err());
        assert!(ElasticConfig::new(8, 4).is_err());
        let bad = ElasticConfig {
            low_free_fraction: 0.9,
            high_free_fraction: 0.2,
            ..ElasticConfig::new(4, 8).unwrap()
        };
        assert!(bad.validate().is_err());
    }
}
