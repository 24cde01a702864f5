//! The benchmark's metric catalogue — the names and units this program
//! prints — and the check that `BENCHMARK.json` declares exactly them.

use branchlab::telemetry::json::{self, JsonValue};

/// One printed metric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper", "ablation", "btb", "serve"];

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_ns_per_unit", "ns"),
    m("peak_heap_mb", "MB"),
    m("acc_err_pp", "pp"),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.inputs_ms", "ms"),
    m("minic.compile_ms", "ms"),
    m("ir.lower_ms", "ms"),
    m("profile.ns_per_inst", "ns"),
    m("interp.ns_per_inst", "ns"),
    m("interp.live_eval_ns_per_inst", "ns"),
    m("fsem.fs_build_ms", "ms"),
    m("fsem.expansion_ms", "ms"),
    m("experiments.suite.critical_bench_s", "s"),
    m("trace.capture_ns_per_event", "ns"),
    m("trace.bytes_per_event", "B"),
    m("trace.decode_ns_per_event", "ns"),
    m("predict.sbtb.ns_per_event", "ns"),
    m("predict.cbtb.ns_per_event", "ns"),
    m("predict.mlbtb.ns_per_event", "ns"),
    m("predict.gshare.ns_per_event", "ns"),
    m("predict.local.ns_per_event", "ns"),
    m("predict.statics.ns_per_event", "ns"),
    m("predict.likely.ns_per_event", "ns"),
    m("predict.ctxswitch.ns_per_event", "ns"),
    m("predict.lanes.ns_per_event_lane", "ns"),
    m("predict.lanes.speedup_vs_scalar", "x"),
    m("pipeline.fdip.ns_per_event", "ns"),
    m("experiments.sweep.points", "count"),
    m("experiments.sweep.parallel_efficiency", "ratio"),
    m("server.rps", "1/s"),
    m("server.hit_p50_us", "us"),
    m("server.hit_p99_us", "us"),
    m("server.miss_p50_ms", "ms"),
    m("server.miss_p99_ms", "ms"),
    m("server.failed_ratio", "ratio"),
    m("server.healthz_p50_us", "us"),
    m("server.request_parse_us", "us"),
    m("server.compute_ms", "ms"),
    m("server.queue_wait_us", "us"),
    m("server.cache_hit_ratio", "ratio"),
    m("server.coalesce_ratio", "ratio"),
    m("server.shed_ratio", "ratio"),
    m("telemetry.trace_overhead_pct", "%"),
];

/// The metrics a run prints.
#[must_use]
pub fn printed(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn declared_metrics(doc: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
    let arr = doc
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}` array"))?;
    arr.iter()
        .map(|e| {
            let name = e.get("name").and_then(JsonValue::as_str);
            let unit = e.get("unit").and_then(JsonValue::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: `{key}` entry without name/unit")),
            }
        })
        .collect()
}

/// Check that `text` (the contents of `BENCHMARK.json`) declares
/// exactly the catalogue's workloads and metrics, with the same units,
/// in the same order.
///
/// # Errors
/// A description of the first difference.
pub fn check_declared(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: missing `workloads` array")?
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json declares workloads {workloads:?}, the benchmark runs {WORKLOADS:?}"
        ));
    }
    for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = declared_metrics(&doc, key)?;
        let ours: Vec<(String, String)> = ours
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        if declared != ours {
            let missing: Vec<_> = ours.iter().filter(|d| !declared.contains(d)).collect();
            let extra: Vec<_> = declared.iter().filter(|d| !ours.contains(d)).collect();
            return Err(format!(
                "BENCHMARK.json `{key}` differs from the printed metrics \
                 (missing {missing:?}, undeclared {extra:?}, or reordered)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        check_declared(&declared()).unwrap();
    }

    #[test]
    fn a_renamed_or_missing_metric_is_caught() {
        let text = declared();
        let renamed = text.replace("\"run_ns_per_unit\"", "\"run_s\"");
        assert!(check_declared(&renamed).unwrap_err().contains("end_to_end"));
        let unit = text.replace("\"unit\": \"MB\"", "\"unit\": \"GB\"");
        assert!(check_declared(&unit).is_err());
        let workload = text.replace("\"name\": \"btb\"", "\"name\": \"btb2\"");
        assert!(check_declared(&workload).unwrap_err().contains("workloads"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }
}
