//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes the registry lock
//! once and returns a cheap `Arc`ed handle; callers cache handles at
//! construction so steady-state updates are a single atomic operation
//! (counters, gauges) or a short bucket-increment critical section
//! (histograms). Re-registering a name returns the existing instrument;
//! re-registering it *as a different type* panics — that mismatch is a
//! wiring bug, and CI treats any such panic as a failure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::expose::{MetricEntry, MetricValue, MetricsSnapshot};
use crate::histogram::{BucketSpec, Histogram};

/// A monotonically non-decreasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter. Adding nothing leaves its cache line alone:
    /// a step adds zero to most of its counters.
    pub fn inc_by(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Registered {
    help: String,
    instrument: Instrument,
}

/// A registry of named instruments; see the module docs for the locking
/// discipline.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Registered>>,
}

fn valid_base_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A name is a bare metric name, optionally followed by one Prometheus-style
/// label block (`name{key="value",...}`). Multi-replica registries label
/// per-replica instruments this way; the label block is treated as part of
/// the name everywhere downstream, which keeps both expositions lossless.
fn valid_name(name: &str) -> bool {
    let Some((base, rest)) = name.split_once('{') else {
        return valid_base_name(name);
    };
    let Some(labels) = rest.strip_suffix('}') else {
        return false;
    };
    valid_base_name(base)
        && !labels.is_empty()
        && labels.split(',').all(|pair| {
            pair.split_once("=\"").is_some_and(|(key, v)| {
                valid_base_name(key)
                    && v.ends_with('"')
                    && !v[..v.len() - 1].contains(['"', '\\', '\n', '{', '}'])
            })
        })
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, fresh: Instrument) -> Instrument {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut metrics = self.metrics.lock();
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Registered {
                help: help.to_string(),
                instrument: fresh.clone(),
            });
        assert!(
            std::mem::discriminant(&entry.instrument) == std::mem::discriminant(&fresh),
            "metric {name:?} already registered as a {}, requested as a {}",
            entry.instrument.kind(),
            fresh.kind(),
        );
        entry.instrument.clone()
    }

    /// Returns the counter named `name`, registering it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => unreachable!("type checked in register"),
        }
    }

    /// Returns the gauge named `name`, registering it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another type.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("type checked in register"),
        }
    }

    /// Returns the histogram named `name`, registering it with `spec` if
    /// new (an existing histogram keeps its original layout).
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another type.
    pub fn histogram(&self, name: &str, help: &str, spec: BucketSpec) -> Histogram {
        match self.register(name, help, Instrument::Histogram(Histogram::new(spec))) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("type checked in register"),
        }
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    /// Whether no metric is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.lock().is_empty()
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        MetricsSnapshot {
            metrics: metrics
                .iter()
                .map(|(name, reg)| MetricEntry {
                    name: name.clone(),
                    help: reg.help.clone(),
                    value: match &reg.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        let c = r.counter("vllm_test_total", "a counter");
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("vllm_test_gauge", "a gauge");
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
        // Re-registration returns the same instrument.
        r.counter("vllm_test_total", "ignored").inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = MetricsRegistry::new();
        r.counter("zzz_total", "z");
        r.gauge("aaa", "a");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["aaa", "zzz_total"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("vllm_x", "");
        r.gauge("vllm_x", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        MetricsRegistry::new().counter("9bad name", "");
    }

    #[test]
    fn labeled_names_accepted_and_round_trip() {
        let r = MetricsRegistry::new();
        r.counter(
            "vllm_cluster_replica_routed_total{replica=\"3\"}",
            "Routed.",
        )
        .inc_by(5);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("vllm_cluster_replica_routed_total{replica=\"3\"}"),
            Some(5)
        );
        let parsed =
            crate::MetricsSnapshot::from_prometheus_text(&snap.to_prometheus_text()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn malformed_label_blocks_rejected() {
        for bad in [
            "vllm_x{",
            "vllm_x{}",
            "vllm_x{replica}",
            "vllm_x{replica=0}",
            "vllm_x{replica=\"a\"\"}",
            "{replica=\"0\"}",
        ] {
            assert!(!super::valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(super::valid_name("vllm_x{replica=\"0\",gpu=\"a100\"}"));
    }
}
