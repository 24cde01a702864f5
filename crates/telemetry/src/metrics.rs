//! Named counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`-backed atomics, so instrumented code pays one
//! relaxed atomic RMW per increment and never takes the registry lock;
//! the lock is only held while registering a metric or taking a
//! [`Snapshot`]. Snapshots render to fixed-width text, JSON lines, and
//! Prometheus exposition text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper-bound buckets (plus an implicit +Inf
/// bucket), tracking count and sum like a Prometheus histogram.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One slot per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must strictly increase"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics.
///
/// Names are dotted paths (`harness.wc.insts`). Registering the same
/// name twice returns the same underlying metric, so instrumentation
/// sites don't need to coordinate.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Handle>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Counter(Arc::new(Counter::default())))
        {
            Handle::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Gauge(Arc::new(Gauge::default())))
        {
            Handle::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name` with the given bounds, creating it on
    /// first use.
    ///
    /// # Panics
    /// Panics if `name` exists as a different kind or with different
    /// bounds.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Handle::Histogram(h) => {
                assert_eq!(
                    h.bounds, bounds,
                    "histogram `{name}` re-registered with new bounds"
                );
                Arc::clone(h)
            }
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry poisoned");
        Snapshot {
            samples: metrics
                .iter()
                .map(|(name, h)| {
                    let value = match h {
                        Handle::Counter(c) => SampleValue::Counter(c.get()),
                        Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                        Handle::Histogram(h) => SampleValue::Histogram {
                            bounds: h.bounds.clone(),
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            sum: h.sum(),
                            count: h.count(),
                        },
                    };
                    Sample {
                        name: name.clone(),
                        value,
                    }
                })
                .collect(),
        }
    }
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram buckets (one per bound, plus the +Inf bucket last).
    Histogram {
        /// Inclusive upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket observation counts (`bounds.len() + 1` entries).
        buckets: Vec<u64>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// A named sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: SampleValue,
}

/// A point-in-time copy of a registry, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The samples, sorted by name.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Fixed-width `name value` text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let width = self.samples.iter().map(|s| s.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{:<width$}  {v}", s.name);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{:<width$}  {v}", s.name);
                }
                SampleValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let dist: Vec<String> = bounds
                        .iter()
                        .map(ToString::to_string)
                        .chain(["+Inf".to_string()])
                        .zip(buckets)
                        .map(|(b, c)| format!("le{b}:{c}"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "{:<width$}  count={count} sum={sum} {}",
                        s.name,
                        dist.join(" ")
                    );
                }
            }
        }
        out
    }

    /// One JSON object per line (the format [`Snapshot::from_json_lines`]
    /// parses back).
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let obj = match &s.value {
                SampleValue::Counter(v) => JsonValue::obj(vec![
                    ("name", s.name.as_str().into()),
                    ("type", "counter".into()),
                    ("value", JsonValue::from(*v)),
                ]),
                SampleValue::Gauge(v) => JsonValue::obj(vec![
                    ("name", s.name.as_str().into()),
                    ("type", "gauge".into()),
                    ("value", JsonValue::Int(*v)),
                ]),
                SampleValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => JsonValue::obj(vec![
                    ("name", s.name.as_str().into()),
                    ("type", "histogram".into()),
                    (
                        "bounds",
                        JsonValue::Arr(bounds.iter().map(|&b| b.into()).collect()),
                    ),
                    (
                        "buckets",
                        JsonValue::Arr(buckets.iter().map(|&b| b.into()).collect()),
                    ),
                    ("sum", JsonValue::from(*sum)),
                    ("count", JsonValue::from(*count)),
                ]),
            };
            out.push_str(&obj.to_json());
            out.push('\n');
        }
        out
    }

    /// Parse the output of [`Snapshot::to_json_lines`].
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn from_json_lines(text: &str) -> Result<Snapshot, String> {
        let mut samples = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("line {}: {what}", ln + 1);
            let v = crate::json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let name = v
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("missing name"))?
                .to_string();
            let kind = v.get("type").and_then(JsonValue::as_str).unwrap_or("");
            let int = |key: &str| {
                v.get(key)
                    .and_then(JsonValue::as_int)
                    .ok_or_else(|| bad(&format!("missing {key}")))
            };
            let ints = |key: &str| -> Result<Vec<u64>, String> {
                v.get(key)
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| bad(&format!("missing {key}")))?
                    .iter()
                    .map(|x| {
                        x.as_int()
                            .and_then(|n| u64::try_from(n).ok())
                            .ok_or_else(|| bad(&format!("bad {key} entry")))
                    })
                    .collect()
            };
            let value = match kind {
                "counter" => SampleValue::Counter(int("value")? as u64),
                "gauge" => SampleValue::Gauge(int("value")?),
                "histogram" => SampleValue::Histogram {
                    bounds: ints("bounds")?,
                    buckets: ints("buckets")?,
                    sum: int("sum")? as u64,
                    count: int("count")? as u64,
                },
                other => return Err(bad(&format!("unknown type `{other}`"))),
            };
            samples.push(Sample { name, value });
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Snapshot { samples })
    }

    /// Prometheus exposition text.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let pname = prometheus_name(&s.name);
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {pname} counter\n{pname} {v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge\n{pname} {v}");
                }
                SampleValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    let mut cumulative = 0u64;
                    for (bound, bucket) in bounds
                        .iter()
                        .map(ToString::to_string)
                        .chain(["+Inf".to_string()])
                        .zip(buckets)
                    {
                        cumulative += bucket;
                        let _ = writeln!(out, "{pname}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{pname}_sum {sum}\n{pname}_count {count}");
                }
            }
        }
        out
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) of histogram `name`
    /// from its buckets, interpolating linearly within the bucket the
    /// quantile falls in (the same estimate Prometheus's
    /// `histogram_quantile` computes). Observations above the last
    /// finite bound clamp to it. `None` for unknown names,
    /// non-histograms, and empty histograms.
    #[must_use]
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let sample = self.samples.iter().find(|s| s.name == name)?;
        let SampleValue::Histogram {
            bounds,
            buckets,
            count,
            ..
        } = &sample.value
        else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (*count as f64);
        let mut cumulative = 0u64;
        for (i, bucket) in buckets.iter().enumerate() {
            let lower = cumulative as f64;
            cumulative += bucket;
            if (cumulative as f64) < rank || *bucket == 0 {
                continue;
            }
            let Some(&upper_bound) = bounds.get(i) else {
                // Overflow bucket: clamp to the last finite bound.
                return Some(bounds.last().copied().unwrap_or(0) as f64);
            };
            let lower_bound = if i == 0 { 0 } else { bounds[i - 1] };
            let fraction = ((rank - lower) / (*bucket as f64)).clamp(0.0, 1.0);
            return Some(lower_bound as f64 + (upper_bound - lower_bound) as f64 * fraction);
        }
        Some(bounds.last().copied().unwrap_or(0) as f64)
    }
}

/// Mangle a metric name into a valid Prometheus identifier: every
/// character outside `[A-Za-z0-9_:]` becomes `_`, and a leading digit
/// gets a `_` prefix. (The old mangle only handled `.` and `-`, so a
/// name like `sweep/wc.lat` rendered as an invalid exposition line.)
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.hits").get(), 5); // same underlying metric
        let g = reg.gauge("a.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1022);
        let reg = MetricsRegistry::new();
        let rh = reg.histogram("lat", &[10, 100]);
        rh.observe(50);
        let snap = reg.snapshot();
        match &snap.samples[0].value {
            SampleValue::Histogram { buckets, .. } => assert_eq!(buckets, &[0, 1, 0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_clash_rejected() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.samples[0].name, "a.first");
        let text = snap.to_text();
        assert!(text.contains("a.first"), "{text}");
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE a_first counter"), "{prom}");
        assert!(prom.contains("a_first 2"), "{prom}");
    }

    #[test]
    fn prometheus_names_are_always_valid_identifiers() {
        assert_eq!(prometheus_name("server.queue.depth"), "server_queue_depth");
        assert_eq!(prometheus_name("sweep/wc-1.lat"), "sweep_wc_1_lat");
        assert_eq!(prometheus_name("2xx responses"), "_2xx_responses");
        assert_eq!(prometheus_name("ns:metric"), "ns:metric");
        assert_eq!(prometheus_name(""), "_");
        for name in ["server.responses.2xx", "héllo→metric", "a b\tc"] {
            let mangled = prometheus_name(name);
            let mut chars = mangled.chars();
            assert!(
                chars.next().is_some_and(|c| !c.is_ascii_digit()),
                "{mangled}"
            );
            assert!(
                mangled
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{mangled}"
            );
        }
        // The full exposition path uses the mangle.
        let reg = MetricsRegistry::new();
        reg.counter("server.responses.2xx").inc();
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("server_responses_2xx 1"), "{prom}");
    }

    #[test]
    fn counters_are_monotonic_across_snapshots() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("mono");
        let h = reg.histogram("mono.lat", &[10, 100]);
        let mut last_count = 0u64;
        let mut last_hist = 0u64;
        for round in 1..=5u64 {
            c.add(round);
            h.observe(round * 7);
            let snap = reg.snapshot();
            let count = snap
                .samples
                .iter()
                .find(|s| s.name == "mono")
                .and_then(|s| match s.value {
                    SampleValue::Counter(v) => Some(v),
                    _ => None,
                })
                .unwrap();
            let hist_count = snap
                .samples
                .iter()
                .find(|s| s.name == "mono.lat")
                .and_then(|s| match &s.value {
                    SampleValue::Histogram { count, .. } => Some(*count),
                    _ => None,
                })
                .unwrap();
            assert!(count > last_count, "counter went backwards at {round}");
            assert!(hist_count > last_hist, "histogram count fell at {round}");
            last_count = count;
            last_hist = hist_count;
        }
        assert_eq!(last_count, 1 + 2 + 3 + 4 + 5);
        assert_eq!(last_hist, 5);
    }

    #[test]
    fn concurrent_registration_shares_one_counter() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    // Each thread re-registers the same name; all must
                    // resolve to the same underlying metric.
                    for _ in 0..1000 {
                        reg.counter("contended").inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("contended").get(), 8 * 1000);
        // Exactly one sample, not eight.
        let snap = reg.snapshot();
        assert_eq!(
            snap.samples
                .iter()
                .filter(|s| s.name == "contended")
                .count(),
            1
        );
    }

    #[test]
    fn histogram_quantiles_interpolate_and_clamp() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [5, 5, 50, 50, 50, 50, 500, 500, 500, 5000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let q = |p| snap.histogram_quantile("lat", p).unwrap();
        // p20 falls exactly at the end of the ≤10 bucket (2 of 10).
        assert!((q(0.2) - 10.0).abs() < 1e-9, "{}", q(0.2));
        // p50 is midway through the (10, 100] bucket: 10 + 3/4 span? No:
        // rank 5 of bucket holding ranks 3..=6 → fraction 3/4.
        assert!((q(0.5) - (10.0 + 90.0 * 0.75)).abs() < 1e-9, "{}", q(0.5));
        // Quantiles never decrease.
        assert!(q(0.5) <= q(0.9) && q(0.9) <= q(0.99));
        // The overflow observation clamps to the last finite bound.
        assert!((q(1.0) - 1000.0).abs() < 1e-9);
        // Degenerate cases.
        assert!(snap.histogram_quantile("nope", 0.5).is_none());
        let empty = MetricsRegistry::new();
        let _ = empty.histogram("lat", &[10]);
        assert!(empty.snapshot().histogram_quantile("lat", 0.5).is_none());
    }

    #[test]
    fn json_lines_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("interp.insts").add(123_456);
        reg.gauge("queue.depth").set(-3);
        let h = reg.histogram("span.us", &[10, 100, 1000]);
        h.observe(7);
        h.observe(450);
        let snap = reg.snapshot();
        let parsed = Snapshot::from_json_lines(&snap.to_json_lines()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("d", &[1, 2]);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("d_bucket{le=\"1\"} 1"), "{prom}");
        assert!(prom.contains("d_bucket{le=\"2\"} 2"), "{prom}");
        assert!(prom.contains("d_bucket{le=\"+Inf\"} 3"), "{prom}");
        assert!(prom.contains("d_count 3"), "{prom}");
    }
}
