//! Serving metrics: normalized latency (§6.1), batch occupancy (Fig. 13),
//! KV memory utilization (Fig. 2), sharing savings (Fig. 15), and aggregated
//! per-stage pipeline timings ([`TraceStats`]).

use serde::{Deserialize, Serialize};
use vllm_telemetry::{BucketSpec, Counter, Histogram, Telemetry};

use crate::block_manager::BlockManagerMetrics;
use crate::plan::{StageTimings, StepTrace};
use crate::scheduler::SchedulerMetrics;

/// Per-request latency record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestLatency {
    /// Arrival time in seconds.
    pub arrival_time: f64,
    /// Completion time in seconds.
    pub finish_time: f64,
    /// Mean number of generated tokens per output sequence.
    pub output_len: f64,
    /// End-to-end latency divided by output length (§6.1 "normalized
    /// latency", following Orca).
    pub normalized_latency: f64,
    /// Time to first token in seconds, if the request produced any output.
    pub ttft: Option<f64>,
    /// Absolute virtual time the first token was produced, on the same
    /// serving clock as `arrival_time`/`finish_time` and span timestamps.
    pub first_token_time: Option<f64>,
}

/// Collects per-request latencies and derives the paper's key metric.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    records: Vec<RequestLatency>,
}

impl LatencyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request.
    pub fn record(&mut self, arrival_time: f64, finish_time: f64, output_len: f64) {
        self.record_with_ttft(arrival_time, finish_time, output_len, None);
    }

    /// Records one finished request with its time to first token, given as
    /// a relative duration. Compatibility wrapper over
    /// [`LatencyTracker::record_request`]; the absolute first-token
    /// timestamp is reconstructed as `arrival_time + ttft`.
    pub fn record_with_ttft(
        &mut self,
        arrival_time: f64,
        finish_time: f64,
        output_len: f64,
        ttft: Option<f64>,
    ) {
        self.record_request(
            arrival_time,
            finish_time,
            output_len,
            ttft.map(|t| arrival_time + t),
        );
    }

    /// Records one finished request from absolute serving-clock timestamps.
    /// TTFT is derived here as `first_token_time - arrival_time`, so
    /// percentiles come from the same clock as span timestamps and the
    /// engine's event log.
    pub fn record_request(
        &mut self,
        arrival_time: f64,
        finish_time: f64,
        output_len: f64,
        first_token_time: Option<f64>,
    ) {
        let latency = finish_time - arrival_time;
        let denom = output_len.max(1.0);
        self.records.push(RequestLatency {
            arrival_time,
            finish_time,
            output_len,
            normalized_latency: latency / denom,
            ttft: first_token_time.map(|t| t - arrival_time),
            first_token_time,
        });
    }

    /// Number of finished requests.
    #[must_use]
    pub fn num_requests(&self) -> usize {
        self.records.len()
    }

    /// Mean normalized latency in seconds per token (the y-axis of
    /// Figs. 12, 14, 16, 17). Returns `None` before any request finishes.
    #[must_use]
    pub fn mean_normalized_latency(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(
            self.records
                .iter()
                .map(|r| r.normalized_latency)
                .sum::<f64>()
                / self.records.len() as f64,
        )
    }

    /// p-th percentile (0–100) of normalized latency.
    #[must_use]
    pub fn percentile_normalized_latency(&self, p: f64) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.records.iter().map(|r| r.normalized_latency).collect();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }

    /// Mean time to first token over requests that produced output.
    #[must_use]
    pub fn mean_ttft(&self) -> Option<f64> {
        let ttfts: Vec<f64> = self.records.iter().filter_map(|r| r.ttft).collect();
        if ttfts.is_empty() {
            return None;
        }
        Some(ttfts.iter().sum::<f64>() / ttfts.len() as f64)
    }

    /// p-th percentile (0–100) of time to first token.
    #[must_use]
    pub fn percentile_ttft(&self, p: f64) -> Option<f64> {
        let mut v: Vec<f64> = self.records.iter().filter_map(|r| r.ttft).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }

    /// All records (for custom aggregation in harnesses).
    #[must_use]
    pub fn records(&self) -> &[RequestLatency] {
        &self.records
    }
}

/// One step's snapshot of memory/batch state, weighted by step duration when
/// aggregated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepSnapshot {
    /// Wall/virtual duration of the step in seconds.
    pub duration: f64,
    /// Number of requests in the running queue.
    pub running_requests: usize,
    /// Number of running sequences (≥ requests with parallel decoding).
    pub running_seqs: usize,
    /// Tokens processed in this step.
    pub batched_tokens: usize,
    /// KV slots holding actual token state (Fig. 2 "token states").
    pub used_slots: usize,
    /// KV slots inside allocated blocks (used + internal fragmentation).
    pub allocated_slots: usize,
    /// Total KV slots in the GPU pool.
    pub total_slots: usize,
    /// Fraction of blocks saved by sharing (Fig. 15).
    pub sharing_savings: f64,
    /// Sum over sequences of logical GPU blocks (sharing denominator).
    pub logical_blocks: usize,
    /// Physical GPU blocks in use.
    pub physical_blocks: usize,
}

/// Time-weighted aggregation of [`StepSnapshot`]s over a run.
#[derive(Debug, Clone, Default)]
pub struct MemoryStats {
    total_time: f64,
    w_running_requests: f64,
    w_running_seqs: f64,
    w_batched_tokens: f64,
    w_used_slots: f64,
    w_allocated_slots: f64,
    w_total_slots: f64,
    w_sharing: f64,
    /// Time during which at least one block was allocated (sharing metric
    /// denominators only count busy time).
    busy_time: f64,
    num_steps: u64,
}

impl MemoryStats {
    /// Creates an empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one step's snapshot.
    pub fn observe(&mut self, s: &StepSnapshot) {
        let w = s.duration;
        self.total_time += w;
        self.num_steps += 1;
        self.w_running_requests += w * s.running_requests as f64;
        self.w_running_seqs += w * s.running_seqs as f64;
        self.w_batched_tokens += w * s.batched_tokens as f64;
        self.w_used_slots += w * s.used_slots as f64;
        self.w_allocated_slots += w * s.allocated_slots as f64;
        self.w_total_slots += w * s.total_slots as f64;
        if s.physical_blocks > 0 {
            self.busy_time += w;
            self.w_sharing += w * s.sharing_savings;
        }
    }

    /// Number of observed steps.
    #[must_use]
    pub fn num_steps(&self) -> u64 {
        self.num_steps
    }

    /// Total observed (virtual) time.
    #[must_use]
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// Time-weighted average number of batched requests (Fig. 13).
    #[must_use]
    pub fn avg_running_requests(&self) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.w_running_requests / self.total_time
    }

    /// Time-weighted average number of running sequences.
    #[must_use]
    pub fn avg_running_seqs(&self) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.w_running_seqs / self.total_time
    }

    /// Time-weighted average number of batched tokens per step.
    #[must_use]
    pub fn avg_batched_tokens(&self) -> f64 {
        if self.total_time == 0.0 {
            return 0.0;
        }
        self.w_batched_tokens / self.total_time
    }

    /// Fraction of *allocated* KV slots holding token state; the complement
    /// is internal fragmentation (Fig. 2's vLLM bar decomposition).
    #[must_use]
    pub fn utilization_of_allocated(&self) -> f64 {
        if self.w_allocated_slots == 0.0 {
            return 1.0;
        }
        self.w_used_slots / self.w_allocated_slots
    }

    /// Time-weighted average fraction of the whole pool holding token state.
    #[must_use]
    pub fn utilization_of_pool(&self) -> f64 {
        if self.w_total_slots == 0.0 {
            return 0.0;
        }
        self.w_used_slots / self.w_total_slots
    }

    /// Time-weighted average sharing savings over busy time (Fig. 15).
    #[must_use]
    pub fn avg_sharing_savings(&self) -> f64 {
        if self.busy_time == 0.0 {
            return 0.0;
        }
        self.w_sharing / self.busy_time
    }
}

/// Aggregation of [`StepTrace`]s across an engine's lifetime: cumulative
/// per-stage host wall times, token/cache-op totals, and preemption counts.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    num_steps: u64,
    num_prompt_runs: u64,
    stage_totals: StageTimings,
    tokens_scheduled: u64,
    blocks_copied: u64,
    blocks_swapped_in: u64,
    blocks_swapped_out: u64,
    blocks_migrated: u64,
    num_preemptions: u64,
    num_swap_preemptions: u64,
    num_recompute_preemptions: u64,
}

impl TraceStats {
    /// Adds one step's trace.
    pub fn observe(&mut self, trace: &StepTrace) {
        self.num_steps += 1;
        if trace.is_prompt_run {
            self.num_prompt_runs += 1;
        }
        self.stage_totals.schedule += trace.stages.schedule;
        self.stage_totals.prepare += trace.stages.prepare;
        self.stage_totals.execute += trace.stages.execute;
        self.stage_totals.postprocess += trace.stages.postprocess;
        self.tokens_scheduled += trace.tokens_scheduled as u64;
        self.blocks_copied += trace.blocks_copied as u64;
        self.blocks_swapped_in += trace.blocks_swapped_in as u64;
        self.blocks_swapped_out += trace.blocks_swapped_out as u64;
        self.blocks_migrated += trace.blocks_migrated as u64;
        self.num_preemptions += trace.preemptions.len() as u64;
        self.num_swap_preemptions += trace.num_swap_preemptions() as u64;
        self.num_recompute_preemptions += trace.num_recompute_preemptions() as u64;
    }

    /// Adds execute-stage time spent outside any step (the KV-only warm-up
    /// forward of a prefix registration, a KV install).
    pub fn add_execute(&mut self, seconds: f64) {
        self.stage_totals.execute += seconds;
    }

    /// Number of steps observed (prompt, decode, and empty steps alike).
    #[must_use]
    pub fn num_steps(&self) -> u64 {
        self.num_steps
    }

    /// Number of prompt (prefill) iterations.
    #[must_use]
    pub fn num_prompt_runs(&self) -> u64 {
        self.num_prompt_runs
    }

    /// Cumulative host wall time per pipeline stage.
    #[must_use]
    pub fn stage_totals(&self) -> StageTimings {
        self.stage_totals
    }

    /// Total tokens scheduled across all steps.
    #[must_use]
    pub fn tokens_scheduled(&self) -> u64 {
        self.tokens_scheduled
    }

    /// Total copy-on-write block copies carried by step plans.
    #[must_use]
    pub fn blocks_copied(&self) -> u64 {
        self.blocks_copied
    }

    /// Total blocks swapped CPU→GPU.
    #[must_use]
    pub fn blocks_swapped_in(&self) -> u64 {
        self.blocks_swapped_in
    }

    /// Total blocks swapped GPU→CPU.
    #[must_use]
    pub fn blocks_swapped_out(&self) -> u64 {
        self.blocks_swapped_out
    }

    /// Total defragmentation block migrations carried by step plans.
    #[must_use]
    pub fn blocks_migrated(&self) -> u64 {
        self.blocks_migrated
    }

    /// Total preemption events.
    #[must_use]
    pub fn num_preemptions(&self) -> u64 {
        self.num_preemptions
    }

    /// Preemptions recovered by swapping.
    #[must_use]
    pub fn num_swap_preemptions(&self) -> u64 {
        self.num_swap_preemptions
    }

    /// Preemptions recovered by recomputation.
    #[must_use]
    pub fn num_recompute_preemptions(&self) -> u64 {
        self.num_recompute_preemptions
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
    /// `vllm_step_model_seconds` histogram: the executor-reported iteration
    /// time (wall-clock for numeric backends, modeled for the simulator).
    pub step_model_seconds: Histogram,
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
            step_model_seconds: r.histogram(
                "vllm_step_model_seconds",
                "Executor-reported model iteration time per step.",
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

    /// Observes one completed step trace: step counters plus per-stage
    /// timing histograms. Stages that did not run this step (zero duration)
    /// are skipped so empty iterations don't skew the distributions.
    pub fn observe_trace(&self, trace: &StepTrace) {
        self.steps_total.inc();
        if trace.is_prompt_run {
            self.prompt_steps_total.inc();
        }
        self.tokens_scheduled_total
            .inc_by(trace.tokens_scheduled as u64);
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

    #[test]
    fn memory_stats_time_weighted() {
        let mut m = MemoryStats::new();
        m.observe(&StepSnapshot {
            duration: 1.0,
            running_requests: 10,
            used_slots: 50,
            allocated_slots: 100,
            total_slots: 200,
            ..Default::default()
        });
        m.observe(&StepSnapshot {
            duration: 3.0,
            running_requests: 2,
            used_slots: 100,
            allocated_slots: 100,
            total_slots: 200,
            ..Default::default()
        });
        assert!((m.avg_running_requests() - 4.0).abs() < 1e-12);
        assert!((m.utilization_of_allocated() - 0.875).abs() < 1e-12);
        assert!((m.utilization_of_pool() - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn sharing_only_counts_busy_time() {
        let mut m = MemoryStats::new();
        m.observe(&StepSnapshot {
            duration: 1.0,
            sharing_savings: 0.5,
            physical_blocks: 10,
            ..Default::default()
        });
        m.observe(&StepSnapshot {
            duration: 9.0,
            sharing_savings: 0.0,
            physical_blocks: 0,
            ..Default::default()
        });
        assert!((m.avg_sharing_savings() - 0.5).abs() < 1e-12);
    }
}
