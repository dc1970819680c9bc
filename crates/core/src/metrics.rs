//! Serving metrics. [`EngineMetrics`] is the engine's one set of books:
//! every step, preemption, block copy, swap, migration, prefix lookup and
//! request latency is counted once, where the engine sees it, in the
//! telemetry registry — the STATS line, routing loads and `METRICS` all read
//! it there. [`LatencyTracker`] keeps per-request records for offline
//! harnesses (`vllm_sim::run_trace`, a fleet's report) that need exact
//! percentiles over a finished run (§6.1 normalized latency).

use vllm_telemetry::{BucketSpec, Counter, Histogram, Telemetry};

use crate::block_manager::BlockManagerMetrics;
use crate::plan::{StageTimings, StepTrace};
use crate::scheduler::SchedulerMetrics;

/// Collects finished requests' normalized latencies (§6.1: end-to-end
/// latency divided by output length, following Orca) for exact means and
/// percentiles over a finished run.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    normalized: Vec<f64>,
}

impl LatencyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request; an empty output counts as one token.
    pub fn record(&mut self, arrival_time: f64, finish_time: f64, output_len: f64) {
        self.normalized
            .push((finish_time - arrival_time) / output_len.max(1.0));
    }

    /// Number of finished requests.
    #[must_use]
    pub fn num_requests(&self) -> usize {
        self.normalized.len()
    }

    /// Mean normalized latency in seconds per token (the y-axis of
    /// Figs. 12, 14, 16, 17). Returns `None` before any request finishes.
    #[must_use]
    pub fn mean_normalized_latency(&self) -> Option<f64> {
        if self.normalized.is_empty() {
            return None;
        }
        Some(self.normalized.iter().sum::<f64>() / self.normalized.len() as f64)
    }

    /// p-th percentile (0–100) of normalized latency.
    #[must_use]
    pub fn percentile_normalized_latency(&self, p: f64) -> Option<f64> {
        if self.normalized.is_empty() {
            return None;
        }
        let mut v = self.normalized.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }
}

/// Cached telemetry handles for engine-level counters and histograms,
/// bundling the scheduler's and block manager's handle sets. Registered once
/// at engine construction; the hot path only touches atomics and short
/// histogram critical sections.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// `vllm_engine_steps_total` counter.
    pub steps_total: Counter,
    /// `vllm_engine_prompt_steps_total` counter.
    pub prompt_steps_total: Counter,
    /// `vllm_engine_tokens_scheduled_total` counter.
    pub tokens_scheduled_total: Counter,
    /// `vllm_engine_requests_arrived_total` counter.
    pub requests_arrived_total: Counter,
    /// `vllm_engine_requests_finished_total` counter.
    pub requests_finished_total: Counter,
    /// `vllm_engine_requests_ignored_total` counter (rejected/aborted by the
    /// scheduler).
    pub requests_ignored_total: Counter,
    /// `vllm_engine_deadline_cancellations_total` counter.
    pub deadline_cancellations_total: Counter,
    /// `vllm_engine_prefill_chunks_total` counter: prompt chunks dispatched
    /// under chunked-prefill mode (one per scheduled [`PrefillChunk`]).
    ///
    /// [`PrefillChunk`]: crate::scheduler::PrefillChunk
    pub prefill_chunks_total: Counter,
    /// `vllm_request_deadline_miss_seconds` histogram: how far past its
    /// deadline a cancelled request was when the engine cancelled it.
    pub request_deadline_miss_seconds: Histogram,
    /// `vllm_step_schedule_seconds` histogram (host wall time).
    pub step_schedule_seconds: Histogram,
    /// `vllm_step_prepare_seconds` histogram (host wall time).
    pub step_prepare_seconds: Histogram,
    /// `vllm_step_execute_seconds` histogram (host wall time).
    pub step_execute_seconds: Histogram,
    /// `vllm_step_postprocess_seconds` histogram (host wall time).
    pub step_postprocess_seconds: Histogram,
    /// `vllm_executor_forward_seconds` histogram: the executor-reported
    /// time of each executor call, a step's or one outside any step
    /// (wall-clock for numeric backends, modeled for the simulator).
    pub executor_forward_seconds: Histogram,
    /// `vllm_request_ttft_seconds` histogram (serving-clock time).
    pub request_ttft_seconds: Histogram,
    /// `vllm_request_e2e_seconds` histogram (serving-clock time).
    pub request_e2e_seconds: Histogram,
    /// `vllm_request_normalized_latency_seconds` histogram (§6.1, seconds
    /// per generated token).
    pub request_normalized_latency_seconds: Histogram,
    /// `vllm_request_inter_token_seconds` histogram (serving-clock gap
    /// between consecutive decode iterations of a request).
    pub request_inter_token_seconds: Histogram,
    /// The scheduler's handle set.
    pub scheduler: SchedulerMetrics,
    /// The block manager's handle set.
    pub block_manager: BlockManagerMetrics,
}

impl EngineMetrics {
    /// Registers every engine-layer instrument in `telemetry`.
    #[must_use]
    pub fn register(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        let secs = BucketSpec::seconds;
        Self {
            steps_total: r.counter("vllm_engine_steps_total", "Engine steps executed."),
            prompt_steps_total: r.counter(
                "vllm_engine_prompt_steps_total",
                "Prompt (prefill) iterations executed.",
            ),
            tokens_scheduled_total: r.counter(
                "vllm_engine_tokens_scheduled_total",
                "Tokens scheduled into iterations.",
            ),
            requests_arrived_total: r.counter(
                "vllm_engine_requests_arrived_total",
                "Requests admitted to the engine.",
            ),
            requests_finished_total: r.counter(
                "vllm_engine_requests_finished_total",
                "Requests that finished with output.",
            ),
            requests_ignored_total: r.counter(
                "vllm_engine_requests_ignored_total",
                "Requests rejected or aborted by the scheduler.",
            ),
            deadline_cancellations_total: r.counter(
                "vllm_engine_deadline_cancellations_total",
                "Requests cancelled because their deadline passed.",
            ),
            prefill_chunks_total: r.counter(
                "vllm_engine_prefill_chunks_total",
                "Prompt chunks dispatched under chunked-prefill mode.",
            ),
            request_deadline_miss_seconds: r.histogram(
                "vllm_request_deadline_miss_seconds",
                "Seconds past the deadline when a request was cancelled.",
                secs(),
            ),
            step_schedule_seconds: r.histogram(
                "vllm_step_schedule_seconds",
                "Schedule-stage host wall time per step.",
                secs(),
            ),
            step_prepare_seconds: r.histogram(
                "vllm_step_prepare_seconds",
                "Prepare-stage host wall time per step.",
                secs(),
            ),
            step_execute_seconds: r.histogram(
                "vllm_step_execute_seconds",
                "Execute-stage host wall time per step.",
                secs(),
            ),
            step_postprocess_seconds: r.histogram(
                "vllm_step_postprocess_seconds",
                "Postprocess-stage host wall time per step.",
                secs(),
            ),
            executor_forward_seconds: r.histogram(
                "vllm_executor_forward_seconds",
                "Executor-reported model time per executor call (wall clock, or modeled GPU time for the simulator).",
                secs(),
            ),
            request_ttft_seconds: r.histogram(
                "vllm_request_ttft_seconds",
                "Time to first token per request (serving clock).",
                secs(),
            ),
            request_e2e_seconds: r.histogram(
                "vllm_request_e2e_seconds",
                "End-to-end latency per finished request (serving clock).",
                secs(),
            ),
            request_normalized_latency_seconds: r.histogram(
                "vllm_request_normalized_latency_seconds",
                "End-to-end latency per generated token (normalized latency).",
                secs(),
            ),
            request_inter_token_seconds: r.histogram(
                "vllm_request_inter_token_seconds",
                "Gap between consecutive decode iterations of a request.",
                secs(),
            ),
            scheduler: SchedulerMetrics::register(telemetry),
            block_manager: BlockManagerMetrics::register(telemetry),
        }
    }

    /// Observes one completed step trace: the step, prompt-step and token
    /// counters, the block traffic of the step's journal, the plan's
    /// preemptions by kind, and the per-stage timing histograms. Stages that
    /// did not run this step (zero duration) are skipped so empty iterations
    /// don't skew the distributions.
    pub fn observe_trace(&self, trace: &StepTrace) {
        self.steps_total.inc();
        if trace.is_prompt_run {
            self.prompt_steps_total.inc();
        }
        self.tokens_scheduled_total
            .inc_by(trace.tokens_scheduled as u64);
        self.observe_block_traffic(trace);
        let s = &self.scheduler;
        s.preemptions_total.inc_by(trace.preemptions.len() as u64);
        s.swap_preemptions_total
            .inc_by(trace.num_swap_preemptions() as u64);
        s.recompute_preemptions_total
            .inc_by(trace.num_recompute_preemptions() as u64);
        for (hist, t) in [
            (&self.step_schedule_seconds, trace.stages.schedule),
            (&self.step_prepare_seconds, trace.stages.prepare),
            (&self.step_execute_seconds, trace.stages.execute),
            (&self.step_postprocess_seconds, trace.stages.postprocess),
        ] {
            if t > 0.0 {
                hist.observe(t);
            }
        }
    }

    /// Counts the block copies (copy-on-write splits and eager-fork copies
    /// alike), swaps and migrations of a journal the executor applied — a
    /// step's, or one applied outside any step.
    pub fn observe_block_traffic(&self, trace: &StepTrace) {
        let b = &self.block_manager;
        b.cow_copies_total.inc_by(trace.blocks_copied as u64);
        b.swapped_in_blocks_total
            .inc_by(trace.blocks_swapped_in as u64);
        b.swapped_out_blocks_total
            .inc_by(trace.blocks_swapped_out as u64);
        b.block_migrations_total
            .inc_by(trace.blocks_migrated as u64);
    }

    /// Cumulative host seconds per pipeline stage: the sums of the stage
    /// histograms.
    #[must_use]
    pub fn stage_totals(&self) -> StageTimings {
        StageTimings {
            schedule: self.step_schedule_seconds.sum(),
            prepare: self.step_prepare_seconds.sum(),
            execute: self.step_execute_seconds.sum(),
            postprocess: self.step_postprocess_seconds.sum(),
        }
    }

    /// Observes one finished request's latency profile (TTFT is observed
    /// live when the first token is produced, not here).
    pub fn observe_request(&self, e2e: f64, normalized: f64) {
        self.requests_finished_total.inc();
        self.request_e2e_seconds.observe(e2e);
        self.request_normalized_latency_seconds.observe(normalized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_latency_divides_by_output_len() {
        let mut t = LatencyTracker::new();
        t.record(0.0, 10.0, 20.0);
        assert_eq!(t.mean_normalized_latency(), Some(0.5));
    }

    #[test]
    fn normalized_latency_guards_zero_output() {
        let mut t = LatencyTracker::new();
        t.record(0.0, 3.0, 0.0);
        assert_eq!(t.mean_normalized_latency(), Some(3.0));
    }

    #[test]
    fn empty_tracker_returns_none() {
        let t = LatencyTracker::new();
        assert_eq!(t.mean_normalized_latency(), None);
        assert_eq!(t.percentile_normalized_latency(50.0), None);
    }

    #[test]
    fn percentile_ordering() {
        let mut t = LatencyTracker::new();
        for (fin, out) in [(1.0, 1.0), (2.0, 1.0), (10.0, 1.0)] {
            t.record(0.0, fin, out);
        }
        assert_eq!(t.percentile_normalized_latency(0.0), Some(1.0));
        assert_eq!(t.percentile_normalized_latency(100.0), Some(10.0));
        assert_eq!(t.percentile_normalized_latency(50.0), Some(2.0));
    }
}
