//! # vllm-telemetry
//!
//! End-to-end serving telemetry for the PagedAttention reproduction. The
//! paper's whole evaluation (§6, Figs. 12–17) is read off serving-level
//! measurements — normalized latency distributions, batch occupancy, KV
//! utilization, preemption and swap activity — and this crate gives every
//! layer of the system one place to report them:
//!
//! * [`MetricsRegistry`] — a lock-cheap registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-linear-bucket [`Histogram`]s. Handles are `Arc`ed
//!   and update via atomics (counters/gauges) or a short critical section
//!   (histograms); callers cache handles at construction so the hot path
//!   never touches the registry lock.
//! * [`EventLog`] — a bounded ring buffer of per-request lifecycle events
//!   (arrival → first schedule → per-iteration decode → preempt/swap →
//!   finish), queryable per request id.
//! * [`SpanLog`] — a bounded ring buffer of [`Span`]s: request-scoped
//!   trace trees ([`TraceContext`]) plus untraced per-step annotations,
//!   exportable as one-line JSON ([`spans_to_json`]) or Chrome trace-event
//!   JSON ([`spans_to_chrome_trace`]) loadable in Perfetto.
//! * [`SloMonitor`] — evaluates TTFT/e2e/deadline-miss objectives against
//!   metric snapshots, publishing `vllm_slo_*` burn gauges and breach
//!   counters.
//! * Exposition — [`MetricsSnapshot`] renders to a Prometheus-style text
//!   format ([`MetricsSnapshot::to_prometheus_text`]) and a JSON document
//!   ([`MetricsSnapshot::to_json`]); both formats parse back losslessly so
//!   snapshots can be diffed across processes and runs.
//!
//! Metric naming scheme: `vllm_<layer>_<quantity>[_<unit>][_total]` —
//! `_total` marks monotone counters, units are spelled out (`_seconds`,
//! `_blocks`), and `<layer>` is one of `engine`, `scheduler`,
//! `block_manager`, `executor`, `step`, `request`, `slo`, or `sim`.

#![warn(missing_docs)]

mod events;
mod expose;
mod histogram;
mod json;
mod registry;
mod slo;
mod trace;

pub use events::{EventKind, EventLog, EventQuery, SeqEvent, DEFAULT_EVENT_CAPACITY};
pub use expose::{MetricEntry, MetricValue, MetricsSnapshot};
pub use histogram::{BucketSpec, Histogram, HistogramSnapshot};
pub use json::Json;
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use slo::{SloMonitor, SloObjectives, SloStatus};
pub use trace::{
    fnv1a, spans_to_chrome_trace, spans_to_json, splitmix64, trace_seed, validate_span_tree, Span,
    SpanLog, TraceContext, DEFAULT_SPAN_CAPACITY,
};

/// The telemetry bundle one serving process shares across its layers: a
/// metrics registry, a sequence-lifecycle event log, and a span log.
///
/// Cheap to share (`Arc<Telemetry>`) and safe to update from any thread.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    events: EventLog,
    spans: SpanLog,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates a telemetry bundle with ring buffers of
    /// [`DEFAULT_EVENT_CAPACITY`] events and [`DEFAULT_SPAN_CAPACITY`]
    /// spans.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacities(DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a telemetry bundle whose event and span logs keep at most
    /// `events` and `spans` entries (oldest evicted first).
    #[must_use]
    pub fn with_capacities(events: usize, spans: usize) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            events: EventLog::with_capacity(events),
            spans: SpanLog::with_capacity(spans),
        }
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sequence-lifecycle event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The span log.
    #[must_use]
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }
}
