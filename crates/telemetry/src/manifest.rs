//! Run manifests.
//!
//! A [`RunManifest`] records everything needed to trace an experiment
//! artifact back to its inputs: the tool and git revision that produced
//! it, the experiment configuration and seed, per-benchmark phase
//! timings, and per-predictor site summaries. `report`/`tableN`/`figN`
//! write one as `manifest.json` under `--telemetry-out DIR`, alongside
//! a metrics snapshot in JSON-lines and Prometheus form.

use std::io;
use std::path::Path;
use std::process::Command;
use std::time::SystemTime;

use crate::json::JsonValue;
use crate::metrics::Snapshot;
use crate::trace::Span;

/// File name the manifest is written under.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the JSON-lines metrics snapshot.
pub const METRICS_JSONL_FILE: &str = "metrics.jsonl";
/// File name of the Prometheus exposition snapshot.
pub const METRICS_PROM_FILE: &str = "metrics.prom";

/// Phase timings and predictor summaries for one benchmark.
#[derive(Clone, Debug, Default)]
pub struct BenchmarkRecord {
    /// Benchmark name (`wc`, `compress`, …).
    pub name: String,
    /// The benchmark's trace spans, in start order: the root span,
    /// then its phases.
    pub phases: Vec<Span>,
    /// Named per-predictor JSON summaries (e.g. a `SiteProbe` summary
    /// per BTB scheme), in insertion order.
    pub predictors: Vec<(String, JsonValue)>,
}

impl BenchmarkRecord {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", self.name.as_str().into()),
            (
                "phases",
                JsonValue::Arr(self.phases.iter().map(Span::to_json_value).collect()),
            ),
            (
                "predictors",
                JsonValue::Obj(
                    self.predictors
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A traceability record for one experiment run.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Binary that produced the run (`report`, `table1`, …).
    pub tool: String,
    /// `git describe --always --dirty` output, or `"unknown"`.
    pub git_describe: String,
    /// Unix timestamp (seconds) when the manifest was created.
    pub created_unix: u64,
    /// Experiment configuration as key/value pairs (scale, seed,
    /// fs_slots, …), in insertion order.
    pub config: Vec<(String, JsonValue)>,
    /// Per-benchmark records.
    pub benchmarks: Vec<BenchmarkRecord>,
    /// Extra top-level sections (e.g. a supervisor summary or failure
    /// list), rendered after `benchmarks` in insertion order.
    pub sections: Vec<(String, JsonValue)>,
}

impl RunManifest {
    /// A manifest stamped with the current time and git revision.
    #[must_use]
    pub fn new(tool: &str) -> Self {
        RunManifest {
            tool: tool.to_string(),
            git_describe: git_describe(),
            created_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            config: Vec::new(),
            benchmarks: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Record one configuration key.
    pub fn set_config(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.config.push((key.to_string(), value.into()));
    }

    /// Attach (or replace) a named top-level section.
    pub fn set_section(&mut self, key: &str, value: impl Into<JsonValue>) {
        let value = value.into();
        if let Some(slot) = self.sections.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.sections.push((key.to_string(), value));
        }
    }

    /// Append a benchmark record.
    pub fn push_benchmark(&mut self, record: BenchmarkRecord) {
        self.benchmarks.push(record);
    }

    /// The manifest as a JSON document.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("tool".to_string(), JsonValue::from(self.tool.as_str())),
            (
                "git_describe".to_string(),
                self.git_describe.as_str().into(),
            ),
            ("created_unix".to_string(), self.created_unix.into()),
            ("config".to_string(), JsonValue::Obj(self.config.clone())),
            (
                "benchmarks".to_string(),
                JsonValue::Arr(
                    self.benchmarks
                        .iter()
                        .map(BenchmarkRecord::to_json_value)
                        .collect(),
                ),
            ),
        ];
        fields.extend(self.sections.iter().cloned());
        JsonValue::Obj(fields)
    }

    /// Write `manifest.json` (and, when `snapshot` is given,
    /// `metrics.jsonl` + `metrics.prom`) under `dir`, creating it if
    /// needed. Returns the manifest path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(
        &self,
        dir: &Path,
        snapshot: Option<&Snapshot>,
    ) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut body = self.to_json_value().to_json_pretty();
        body.push('\n');
        std::fs::write(&manifest_path, body)?;
        if let Some(snap) = snapshot {
            std::fs::write(dir.join(METRICS_JSONL_FILE), snap.to_json_lines())?;
            std::fs::write(dir.join(METRICS_PROM_FILE), snap.to_prometheus())?;
        }
        Ok(manifest_path)
    }
}

/// `git describe --always --dirty` in the current directory, or
/// `"unknown"` when git or the repo is unavailable.
#[must_use]
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::SpanId;

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("report");
        m.set_config("scale", "test");
        m.set_config("seed", 1989u64);
        m.push_benchmark(BenchmarkRecord {
            name: "wc".into(),
            phases: vec![Span {
                id: SpanId(2),
                parent: Some(SpanId(1)),
                name: "compile".into(),
                start_us: 3,
                dur_us: 42,
                work: 0,
                args: Vec::new(),
            }],
            predictors: vec![(
                "sbtb".into(),
                JsonValue::obj(vec![("mispredicts", 7u64.into())]),
            )],
        });
        m
    }

    #[test]
    fn manifest_json_shape() {
        let v = sample_manifest().to_json_value();
        assert_eq!(v.get("tool").and_then(JsonValue::as_str), Some("report"));
        assert!(v.get("git_describe").and_then(JsonValue::as_str).is_some());
        let config = v.get("config").unwrap();
        assert_eq!(config.get("seed").and_then(JsonValue::as_int), Some(1989));
        let benches = v.get("benchmarks").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(benches.len(), 1);
        let phases = benches[0]
            .get("phases")
            .and_then(JsonValue::as_arr)
            .unwrap();
        let field = |key: &str| phases[0].get(key).and_then(JsonValue::as_int);
        assert_eq!(
            phases[0].get("name").and_then(JsonValue::as_str),
            Some("compile")
        );
        assert_eq!(field("parent"), Some(1));
        assert_eq!(field("start_us"), Some(3));
        assert_eq!(field("dur_us"), Some(42));
        assert_eq!(field("work"), Some(0));
        let sbtb = benches[0].get("predictors").unwrap().get("sbtb").unwrap();
        assert_eq!(sbtb.get("mispredicts").and_then(JsonValue::as_int), Some(7));
    }

    #[test]
    fn write_to_emits_parseable_files() {
        let dir =
            std::env::temp_dir().join(format!("branchlab-manifest-test-{}", std::process::id()));
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        let snap = reg.snapshot();
        let path = sample_manifest().write_to(&dir, Some(&snap)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("tool").and_then(JsonValue::as_str),
            Some("report")
        );
        let jsonl = std::fs::read_to_string(dir.join(METRICS_JSONL_FILE)).unwrap();
        let round = Snapshot::from_json_lines(&jsonl).unwrap();
        assert_eq!(round, snap);
        assert!(dir.join(METRICS_PROM_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sections_render_at_top_level_and_replace_by_key() {
        let mut m = sample_manifest();
        m.set_section("supervisor", JsonValue::obj(vec![("retries", 1u64.into())]));
        m.set_section("supervisor", JsonValue::obj(vec![("retries", 4u64.into())]));
        m.set_section("failures", JsonValue::Arr(vec!["wc".into()]));
        let v = m.to_json_value();
        assert_eq!(
            v.get("supervisor")
                .and_then(|s| s.get("retries"))
                .and_then(JsonValue::as_int),
            Some(4)
        );
        assert_eq!(
            v.get("failures").and_then(JsonValue::as_arr).unwrap().len(),
            1
        );
        // Round-trips through the writer.
        let parsed = crate::json::parse(&v.to_json_pretty()).unwrap();
        assert!(parsed.get("failures").is_some());
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}
