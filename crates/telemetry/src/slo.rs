//! Service-level-objective monitoring over metric snapshots.
//!
//! An [`SloMonitor`] holds configurable objectives — TTFT p99, end-to-end
//! p99, and a deadline-miss-rate budget — and evaluates them against a
//! [`MetricsSnapshot`]. Each evaluation publishes burn ratios
//! (`observed / objective`) as gauges and increments breach counters when
//! an objective is exceeded, so scrapes and CI gates can alert on
//! `vllm_slo_*` without re-deriving quantiles.
//!
//! Cluster snapshots label per-replica metrics (`{replica="i"}`); the
//! monitor merges every histogram sharing a base name before computing
//! quantiles, so it works unchanged on engine-local and merged cluster
//! snapshots.

use crate::expose::{MetricValue, MetricsSnapshot};
use crate::histogram::HistogramSnapshot;
use crate::registry::{Counter, Gauge};
use crate::Telemetry;

/// Objectives the monitor evaluates. Unset fields are not evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloObjectives {
    /// TTFT p99 objective in seconds (`VLLM_SLO_TTFT_P99`).
    pub ttft_p99: Option<f64>,
    /// End-to-end p99 objective in seconds (`VLLM_SLO_E2E_P99`).
    pub e2e_p99: Option<f64>,
    /// Budget for the fraction of arrived requests cancelled past their
    /// deadline (`VLLM_SLO_DEADLINE_MISS_BUDGET`).
    pub deadline_miss_budget: Option<f64>,
}

impl SloObjectives {
    /// Whether no objective is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ttft_p99.is_none() && self.e2e_p99.is_none() && self.deadline_miss_budget.is_none()
    }

    /// Sets the TTFT p99 objective in seconds.
    #[must_use]
    pub fn with_ttft_p99(mut self, seconds: f64) -> Self {
        self.ttft_p99 = Some(seconds);
        self
    }

    /// Sets the end-to-end p99 objective in seconds.
    #[must_use]
    pub fn with_e2e_p99(mut self, seconds: f64) -> Self {
        self.e2e_p99 = Some(seconds);
        self
    }

    /// Sets the deadline-miss-rate budget (fraction of arrived requests).
    #[must_use]
    pub fn with_deadline_miss_budget(mut self, fraction: f64) -> Self {
        self.deadline_miss_budget = Some(fraction);
        self
    }
}

/// The outcome of one [`SloMonitor::evaluate`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloStatus {
    /// Observed TTFT p99 in seconds, if any TTFT was recorded.
    pub ttft_p99: Option<f64>,
    /// Observed end-to-end p99 in seconds, if any request finished.
    pub e2e_p99: Option<f64>,
    /// Observed deadline-miss rate (cancellations / arrivals).
    pub deadline_miss_rate: Option<f64>,
    /// Whether the TTFT objective was exceeded this evaluation.
    pub ttft_breached: bool,
    /// Whether the end-to-end objective was exceeded this evaluation.
    pub e2e_breached: bool,
    /// Whether the deadline-miss budget was exceeded this evaluation.
    pub deadline_breached: bool,
}

impl SloStatus {
    /// Whether any evaluated objective was breached.
    #[must_use]
    pub fn any_breached(&self) -> bool {
        self.ttft_breached || self.e2e_breached || self.deadline_breached
    }
}

/// Evaluates [`SloObjectives`] against metric snapshots, publishing burn
/// gauges and breach counters into the owning registry.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    objectives: SloObjectives,
    ttft_breaches: Counter,
    e2e_breaches: Counter,
    deadline_breaches: Counter,
    ttft_burn: Gauge,
    e2e_burn: Gauge,
    deadline_burn: Gauge,
}

/// Sums every histogram in `snap` whose name is `base` or `base{...}`
/// (the cluster exposition labels per-replica series).
fn merged_histogram(snap: &MetricsSnapshot, base: &str) -> Option<HistogramSnapshot> {
    let mut merged: Option<HistogramSnapshot> = None;
    for entry in &snap.metrics {
        let matches = entry.name == base
            || (entry.name.starts_with(base)
                && entry.name.as_bytes().get(base.len()) == Some(&b'{'));
        if !matches {
            continue;
        }
        if let MetricValue::Histogram(h) = &entry.value {
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => {
                    // Mismatched layouts (shouldn't happen for one metric
                    // family) fall back to the first series.
                    let _ = m.merge(h);
                }
            }
        }
    }
    merged.filter(|m| m.count > 0)
}

/// Sums every counter in `snap` whose name is `base` or `base{...}`.
fn summed_counter(snap: &MetricsSnapshot, base: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|entry| {
            entry.name == base
                || (entry.name.starts_with(base)
                    && entry.name.as_bytes().get(base.len()) == Some(&b'{'))
        })
        .filter_map(|entry| match entry.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum()
}

impl SloMonitor {
    /// Registers the `vllm_slo_*` breach counters and burn gauges in
    /// `telemetry` and returns a monitor over `objectives`.
    #[must_use]
    pub fn register(telemetry: &Telemetry, objectives: SloObjectives) -> Self {
        let r = telemetry.registry();
        Self {
            objectives,
            ttft_breaches: r.counter(
                "vllm_slo_ttft_breaches_total",
                "Evaluations where TTFT p99 exceeded its objective.",
            ),
            e2e_breaches: r.counter(
                "vllm_slo_e2e_breaches_total",
                "Evaluations where end-to-end p99 exceeded its objective.",
            ),
            deadline_breaches: r.counter(
                "vllm_slo_deadline_breaches_total",
                "Evaluations where the deadline-miss rate exceeded its budget.",
            ),
            ttft_burn: r.gauge(
                "vllm_slo_ttft_burn_ratio",
                "Observed TTFT p99 divided by its objective.",
            ),
            e2e_burn: r.gauge(
                "vllm_slo_e2e_burn_ratio",
                "Observed end-to-end p99 divided by its objective.",
            ),
            deadline_burn: r.gauge(
                "vllm_slo_deadline_burn_ratio",
                "Observed deadline-miss rate divided by its budget.",
            ),
        }
    }

    /// The configured objectives.
    #[must_use]
    pub fn objectives(&self) -> SloObjectives {
        self.objectives
    }

    /// Evaluates the objectives against `snap`, updating burn gauges and
    /// breach counters, and returns the observed values and verdicts.
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> SloStatus {
        let mut status = SloStatus {
            ttft_p99: merged_histogram(snap, "vllm_request_ttft_seconds")
                .and_then(|h| h.quantile(0.99)),
            e2e_p99: merged_histogram(snap, "vllm_request_e2e_seconds")
                .and_then(|h| h.quantile(0.99)),
            ..SloStatus::default()
        };
        let arrived = summed_counter(snap, "vllm_engine_requests_arrived_total");
        let missed = summed_counter(snap, "vllm_engine_deadline_cancellations_total");
        if arrived > 0 {
            status.deadline_miss_rate = Some(missed as f64 / arrived as f64);
        }

        if let (Some(objective), Some(observed)) = (self.objectives.ttft_p99, status.ttft_p99) {
            self.ttft_burn.set(observed / objective);
            if observed > objective {
                self.ttft_breaches.inc();
                status.ttft_breached = true;
            }
        }
        if let (Some(objective), Some(observed)) = (self.objectives.e2e_p99, status.e2e_p99) {
            self.e2e_burn.set(observed / objective);
            if observed > objective {
                self.e2e_breaches.inc();
                status.e2e_breached = true;
            }
        }
        if let (Some(budget), Some(observed)) = (
            self.objectives.deadline_miss_budget,
            status.deadline_miss_rate,
        ) {
            self.deadline_burn.set(observed / budget);
            if observed > budget {
                self.deadline_breaches.inc();
                status.deadline_breached = true;
            }
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BucketSpec;

    #[test]
    fn evaluate_sets_burn_and_breach_state() {
        let t = Telemetry::new();
        let ttft =
            t.registry()
                .histogram("vllm_request_ttft_seconds", "ttft", BucketSpec::seconds());
        let e2e = t
            .registry()
            .histogram("vllm_request_e2e_seconds", "e2e", BucketSpec::seconds());
        let arrived = t
            .registry()
            .counter("vllm_engine_requests_arrived_total", "arrived");
        let missed = t
            .registry()
            .counter("vllm_engine_deadline_cancellations_total", "missed");
        for _ in 0..100 {
            ttft.observe(0.05);
            e2e.observe(2.0);
        }
        arrived.inc_by(100);
        missed.inc_by(10);

        let objectives = SloObjectives::default()
            .with_ttft_p99(1.0)
            .with_e2e_p99(1.0)
            .with_deadline_miss_budget(0.05);
        let monitor = SloMonitor::register(&t, objectives);
        let status = monitor.evaluate(&t.registry().snapshot());

        assert!(!status.ttft_breached, "ttft {status:?}");
        assert!(status.e2e_breached);
        assert!(status.deadline_breached);
        assert!(status.any_breached());
        assert!((status.deadline_miss_rate.unwrap() - 0.1).abs() < 1e-12);

        let snap = t.registry().snapshot();
        assert_eq!(snap.counter("vllm_slo_e2e_breaches_total"), Some(1));
        assert_eq!(snap.counter("vllm_slo_ttft_breaches_total"), Some(0));
        assert_eq!(snap.counter("vllm_slo_deadline_breaches_total"), Some(1));
        assert!(snap.gauge("vllm_slo_e2e_burn_ratio").unwrap() > 1.0);
        assert!(snap.gauge("vllm_slo_ttft_burn_ratio").unwrap() < 1.0);
    }

    #[test]
    fn merges_labeled_replica_series() {
        let t = Telemetry::new();
        let a = t.registry().histogram(
            "vllm_request_e2e_seconds{replica=\"0\"}",
            "e2e",
            BucketSpec::seconds(),
        );
        let b = t.registry().histogram(
            "vllm_request_e2e_seconds{replica=\"1\"}",
            "e2e",
            BucketSpec::seconds(),
        );
        a.observe(0.5);
        b.observe(3.0);
        let monitor = SloMonitor::register(&t, SloObjectives::default().with_e2e_p99(1.0));
        let status = monitor.evaluate(&t.registry().snapshot());
        assert!(status.e2e_p99.unwrap() > 1.0);
        assert!(status.e2e_breached);
    }

    #[test]
    fn empty_snapshot_breaches_nothing() {
        let t = Telemetry::new();
        let monitor = SloMonitor::register(
            &t,
            SloObjectives::default()
                .with_ttft_p99(0.001)
                .with_e2e_p99(0.001)
                .with_deadline_miss_budget(0.001),
        );
        let status = monitor.evaluate(&t.registry().snapshot());
        assert_eq!(status, SloStatus::default());
    }
}
