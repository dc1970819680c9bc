//! The metric catalogue (the names `BENCHMARK.json` lists) and the JSON the
//! benchmark prints.

use vllm::core::telemetry::Json;

use crate::stats::Better::{self, Higher, Lower};

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the server sees, per workload (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s", Lower),
    m("req_per_s", "1/s", Higher),
    m("e2e_ms_mean", "ms", Lower),
    m("e2e_ms_p90", "ms", Lower),
    m("ttft_ms_mean", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// What each layer did, seen from outside it (`--trace 1`). The prefix is
/// the layer: this repository's modules.
pub const PER_LAYER: [MetricDef; 40] = [
    m("frontend.req_stall_ms_p50", "ms", Lower),
    m("frontend.engine_idle_share", "ratio", Lower),
    m("frontend.hello_rtt_us_p50", "us", Lower),
    m("protocol.parse_generate_ns", "ns", Lower),
    m("protocol.response_wire_ns", "ns", Lower),
    m("cluster.route_ns", "ns", Lower),
    m("cluster.handoffs", "count", Lower),
    m("cluster.handoff_blocks", "count", Lower),
    m("cluster.handoff_retries", "count", Lower),
    m("cluster.tier_hit_share", "ratio", Higher),
    m("cluster.handoff_codec_us_per_block", "us", Lower),
    m("core.schedule_s", "s", Lower),
    m("core.prepare_s", "s", Lower),
    m("core.postprocess_s", "s", Lower),
    m("core.schedule_us_per_step", "us", Lower),
    m("core.steps", "count", Lower),
    m("core.tokens_scheduled", "count", Lower),
    m("core.tokens_per_step", "count", Higher),
    m("core.preemptions", "count", Lower),
    m("core.blocks_swapped", "count", Lower),
    m("core.blocks_cow_copied", "count", Lower),
    m("core.prefix_hit_token_share", "ratio", Higher),
    m("core.block_ops_ns", "ns", Lower),
    m("model.execute_s", "s", Lower),
    m("model.prefill_s", "s", Lower),
    m("model.decode_s", "s", Lower),
    m("model.steps_prefill", "count", Lower),
    m("model.steps_decode", "count", Lower),
    m("model.prefill_tokens", "count", Lower),
    m("model.decode_tokens", "count", Lower),
    m("model.decode_step_ms_p50", "ms", Lower),
    m("model.prefill_us_per_token", "us", Lower),
    m("model.kernel_matmul_s", "s", Lower),
    m("model.kernel_paged_attention_s", "s", Lower),
    m("model.kernel_logits_s", "s", Lower),
    m("model.kv_bytes_read", "bytes", Lower),
    m("model.cache_op_blocks", "count", Lower),
    m("model.tokenize_ns_per_byte", "ns", Lower),
    m("telemetry.trace_overhead_share", "ratio", Lower),
    m("telemetry.metrics_scrape_ms", "ms", Lower),
];

/// Measured values, in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly the metrics of
    /// `catalogue`, in its order.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric was never set, or a metric outside the
    /// catalogue was: both are bugs in the benchmark.
    pub fn json(&self, catalogue: &[MetricDef]) -> Json {
        for (name, _) in &self.0 {
            assert!(
                catalogue.iter().any(|d| d.name == *name),
                "{name} is not in the catalogue"
            );
        }
        Json::Obj(
            catalogue
                .iter()
                .map(|d| {
                    let value = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("{} was not measured", d.name));
                    let entry = Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

/// The benchmark's last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn ours(catalogue: &[MetricDef]) -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let names: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn emitted_json_parses_and_carries_exactly_the_listed_names() {
        let doc = benchmark_json();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut metrics = Metrics::default();
            for (i, d) in catalogue.iter().enumerate() {
                metrics.set(d.name, i as f64 + 0.5);
            }
            let line = result_line(true, 10, 0, metrics.json(catalogue));
            let parsed = Json::parse(&line).expect("result line parses");
            let Some(Json::Obj(emitted)) = parsed.get("metrics") else {
                panic!("metrics object missing");
            };
            let emitted: Vec<(String, String)> = emitted
                .iter()
                .map(|(name, e)| {
                    assert!(e.get("value").and_then(Json::as_f64).is_some());
                    (
                        name.clone(),
                        e.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let wanted: Vec<(String, String)> = listed(&doc, key)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(emitted, wanted);
            assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn a_metric_outside_the_catalogue_is_refused() {
        let mut metrics = Metrics::default();
        metrics.set("made_up", 1.0);
        let _ = metrics.json(&END_TO_END);
    }
}
