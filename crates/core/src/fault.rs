//! Deterministic fault injection at the executor boundary.
//!
//! [`FaultInjector`] wraps any [`ModelExecutor`] and perturbs its behaviour
//! under the direction of a shared [`FaultControls`] handle: it can fail the
//! next N forward passes (modelling a crashed worker) and inflate the
//! reported iteration time per cache operation (modelling a slow swap
//! device). Because the perturbations are applied to the *virtual* step
//! result — an error return or extra modeled seconds — runs remain exactly
//! reproducible: the same control schedule against the same request stream
//! yields the same token streams, preemptions, and failures.
//!
//! Higher layers (`vllm-cluster`'s `FaultPlan`) own the schedule of *when*
//! to flip these controls; this module only provides the mechanism.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Result, VllmError};
use crate::executor::{ModelExecutor, StepResult};
use crate::plan::StepPlan;

/// Shared, thread-safe switchboard for executor-level faults.
///
/// Cloneable via `Arc`; the serving side keeps one handle to arm faults
/// while the engine-owned [`FaultInjector`] consumes them.
#[derive(Debug, Default)]
pub struct FaultControls {
    /// Number of upcoming forward passes to fail.
    fail_forwards: AtomicU32,
    /// Extra seconds charged per cache operation (f64 bit pattern).
    delay_per_op_bits: AtomicU64,
    /// Total forward failures injected so far.
    forward_failures: AtomicU64,
    /// Total steps whose elapsed time was inflated.
    delayed_steps: AtomicU64,
}

impl FaultControls {
    /// Creates an armed-with-nothing control block.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the injector to fail the next `n` forward passes with
    /// [`VllmError::Executor`].
    pub fn fail_next_forwards(&self, n: u32) {
        self.fail_forwards.store(n, Ordering::SeqCst);
    }

    /// Charges `seconds` of extra modeled time per cache operation (swap
    /// in/out, CoW copy) applied by each subsequent step; `0.0` disarms.
    pub fn set_cache_op_delay(&self, seconds: f64) {
        self.delay_per_op_bits
            .store(seconds.to_bits(), Ordering::SeqCst);
    }

    /// The currently armed per-cache-op delay in seconds.
    #[must_use]
    pub fn cache_op_delay(&self) -> f64 {
        f64::from_bits(self.delay_per_op_bits.load(Ordering::SeqCst))
    }

    /// Number of forward passes failed so far.
    #[must_use]
    pub fn num_forward_failures(&self) -> u64 {
        self.forward_failures.load(Ordering::SeqCst)
    }

    /// Number of steps whose elapsed time was inflated so far.
    #[must_use]
    pub fn num_delayed_steps(&self) -> u64 {
        self.delayed_steps.load(Ordering::SeqCst)
    }

    /// Consumes one armed forward failure, if any.
    fn take_forward_failure(&self) -> bool {
        let mut cur = self.fail_forwards.load(Ordering::SeqCst);
        while cur > 0 {
            match self.fail_forwards.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.forward_failures.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
        false
    }
}

/// A [`ModelExecutor`] decorator that injects the faults armed on its
/// [`FaultControls`].
#[derive(Debug)]
pub struct FaultInjector<E: ModelExecutor> {
    inner: E,
    controls: Arc<FaultControls>,
}

impl<E: ModelExecutor> FaultInjector<E> {
    /// Wraps `inner`, taking a handle to the shared control block.
    #[must_use]
    pub fn new(inner: E, controls: Arc<FaultControls>) -> Self {
        Self { inner, controls }
    }

    /// The wrapped executor.
    #[must_use]
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The shared control block.
    #[must_use]
    pub fn controls(&self) -> &Arc<FaultControls> {
        &self.controls
    }
}

impl<E: ModelExecutor> ModelExecutor for FaultInjector<E> {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        if self.controls.take_forward_failure() {
            // A forward fails after the cache operations ran: the scheduler
            // has already moved the block tables they serve.
            let cache_ops_only = StepPlan {
                cache_ops: plan.cache_ops.clone(),
                block_size: plan.block_size,
                ..StepPlan::default()
            };
            self.inner.begin_step(&cache_ops_only)?;
            return Err(VllmError::Executor("injected forward fault".into()));
        }
        let mut result = self.inner.begin_step(plan)?;
        let delay = self.controls.cache_op_delay();
        if delay > 0.0 {
            let ops = plan.cache_ops.swap_in.len()
                + plan.cache_ops.swap_out.len()
                + plan.cache_ops.copies.len();
            if ops > 0 {
                result.elapsed += delay * ops as f64;
                self.controls.delayed_steps.fetch_add(1, Ordering::SeqCst);
            }
        }
        Ok(result)
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<vllm_telemetry::Telemetry>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn backend_label(&self) -> &str {
        self.inner.backend_label()
    }

    fn export_kv_blocks(
        &self,
        blocks: &[crate::block::PhysicalBlockId],
    ) -> Vec<crate::handoff::KvBlockBytes> {
        self.inner.export_kv_blocks(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, PreemptionMode, SchedulerConfig};
    use crate::mock::MockExecutor;
    use crate::sampling::SamplingParams;
    use crate::LlmEngine;

    fn engine(controls: &Arc<FaultControls>) -> LlmEngine<FaultInjector<MockExecutor>> {
        let cache = CacheConfig::new(4, 64, 16)
            .unwrap()
            .with_watermark(0.0)
            .unwrap();
        let sched = SchedulerConfig::new(2048, 64, 2048).unwrap();
        LlmEngine::new(
            FaultInjector::new(MockExecutor::new(1000), Arc::clone(controls)),
            cache,
            sched,
        )
    }

    #[test]
    fn armed_forward_failures_surface_then_clear() {
        let controls = FaultControls::new();
        let mut e = engine(&controls);
        e.add_request("r0", vec![1, 2, 3], SamplingParams::greedy(4))
            .unwrap();
        controls.fail_next_forwards(2);
        let err = e.step().unwrap_err();
        assert!(matches!(err, VllmError::Executor(_)));
        assert!(e.step().is_err());
        assert_eq!(controls.num_forward_failures(), 2);
        // Third step succeeds; recovery path: abort everything live.
        let ids = e.abort_all().unwrap();
        assert_eq!(ids, vec!["r0".to_string()]);
        let outs = e.step().unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
        assert_eq!(e.scheduler().block_manager().num_free_gpu_blocks(), 64);
    }

    #[test]
    fn cache_op_delay_inflates_virtual_time_deterministically() {
        // Force swap preemption, then compare clocks with and without the
        // armed delay: the delayed run's clock must be strictly larger and
        // both runs must produce identical tokens.
        let run = |delay: f64| {
            let controls = FaultControls::new();
            controls.set_cache_op_delay(delay);
            let cache = CacheConfig::new(4, 4, 8)
                .unwrap()
                .with_watermark(0.0)
                .unwrap();
            let sched = SchedulerConfig::new(2048, 64, 2048)
                .unwrap()
                .with_preemption_mode(PreemptionMode::Swap);
            let mut e = LlmEngine::new(
                FaultInjector::new(MockExecutor::new(1000), Arc::clone(&controls)),
                cache,
                sched,
            );
            e.add_request(
                "a",
                vec![1, 2, 3, 4, 5, 6, 7, 8],
                SamplingParams::greedy(4).with_ignore_eos(),
            )
            .unwrap();
            e.add_request(
                "b",
                vec![9, 10, 11, 12, 13, 14, 15, 16],
                SamplingParams::greedy(4).with_ignore_eos(),
            )
            .unwrap();
            let mut outs = e.run_to_completion().unwrap();
            outs.sort_by(|x, y| x.request_id.cmp(&y.request_id));
            let tokens: Vec<Vec<u32>> = outs
                .iter()
                .flat_map(|o| o.outputs.iter().map(|c| c.tokens.clone()))
                .collect();
            (e.clock(), tokens, controls.num_delayed_steps())
        };
        let (clock_plain, tokens_plain, delayed_plain) = run(0.0);
        let (clock_slow, tokens_slow, delayed_slow) = run(0.5);
        assert_eq!(delayed_plain, 0);
        assert!(delayed_slow > 0);
        assert!(clock_slow > clock_plain);
        assert_eq!(tokens_plain, tokens_slow);
    }
}
