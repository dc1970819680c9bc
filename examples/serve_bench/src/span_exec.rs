//! `SpanExecutor`: a bench-side [`ModelExecutor`] decorator (same shape as
//! `core::FaultInjector`) that records one span per `begin_step`, seen from
//! outside the engine. Spans stay in memory until the pass ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vllm::core::block::PhysicalBlockId;
use vllm::core::executor::KernelTiming;
use vllm::core::telemetry::Telemetry;
use vllm::core::{KvBlockBytes, ModelExecutor, Result, StepPlan, StepResult};

/// What one `begin_step` call looked like from outside.
#[derive(Debug, Clone)]
pub struct StepSpan {
    /// Seconds since the pass epoch.
    pub start: f64,
    pub end: f64,
    pub is_prompt_run: bool,
    /// Tokens in the step's batch.
    pub tokens: usize,
    pub seqs: usize,
    /// Prompt-phase rows the model actually computes (cached prefix rows
    /// excluded), the numerator of `core.prefix_hit_token_share`.
    pub prompt_tokens_computed: usize,
    /// Key/value positions attention reads: every computed row attends to
    /// all positions up to its own. Computed from context lengths, not
    /// measured.
    pub kv_positions_read: u64,
    /// Swap-in + swap-out + copy-on-write + move + install block operations.
    pub cache_op_blocks: usize,
    /// Engine request ids from `plan.scheduled`.
    pub request_ids: Vec<String>,
    pub kernels: Vec<KernelTiming>,
    /// Seconds this decorator spent building the span after the step ended:
    /// its own cost, measured directly.
    pub bookkeeping_s: f64,
}

/// The spans of one replica, shared with the bench thread.
pub type StepLog = Arc<Mutex<Vec<StepSpan>>>;

pub struct SpanExecutor<E: ModelExecutor> {
    inner: E,
    epoch: Instant,
    log: StepLog,
}

impl<E: ModelExecutor> SpanExecutor<E> {
    pub fn new(inner: E, epoch: Instant, log: StepLog) -> Self {
        Self { inner, epoch, log }
    }
}

impl<E: ModelExecutor> ModelExecutor for SpanExecutor<E> {
    fn begin_step(&mut self, plan: &StepPlan) -> Result<StepResult> {
        let start = self.epoch.elapsed().as_secs_f64();
        let result = self.inner.begin_step(plan)?;
        let end = self.epoch.elapsed().as_secs_f64();

        let mut prompt_tokens_computed = 0;
        let mut kv_positions_read = 0u64;
        for item in &plan.items {
            // The executor's own rule: cached rows are skipped, but at least
            // one row is always computed.
            let skip = if item.chunked || item.tokens.len() > 1 {
                item.num_cached_tokens
                    .min(item.tokens.len().saturating_sub(1))
            } else {
                0
            };
            let first = item.first_position + skip;
            let last = item.context_len();
            if item.is_prompt() {
                prompt_tokens_computed += last - first;
            }
            // Rows first..last attend to first+1 ..= last positions.
            kv_positions_read += (first as u64 + 1..=last as u64).sum::<u64>();
        }
        let ops = &plan.cache_ops;
        let mut span = StepSpan {
            start,
            end,
            is_prompt_run: plan.is_prompt_run,
            tokens: plan.num_tokens(),
            seqs: plan.items.len(),
            prompt_tokens_computed,
            kv_positions_read,
            cache_op_blocks: ops.swap_in.len()
                + ops.swap_out.len()
                + ops.copies.len()
                + ops.moves.len()
                + ops.installs.len(),
            request_ids: plan
                .scheduled
                .iter()
                .map(|g| g.request_id.clone())
                .collect(),
            kernels: result.kernels.clone(),
            bookkeeping_s: 0.0,
        };
        span.bookkeeping_s = self.epoch.elapsed().as_secs_f64() - end;
        self.log
            .lock()
            .expect("no holder of the step log panics")
            .push(span);
        Ok(result)
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn backend_label(&self) -> &str {
        self.inner.backend_label()
    }

    fn export_kv_blocks(&self, blocks: &[PhysicalBlockId]) -> Vec<KvBlockBytes> {
        self.inner.export_kv_blocks(blocks)
    }
}
