//! The daemon's metric handles, registered once in a
//! [`MetricsRegistry`] and shared across connection handlers and pool
//! workers. The daemon's experiment config counts its sweeps'
//! `suite.trace.*` / `suite.sweep.*` counters into the same registry,
//! and `GET /metrics` renders it as Prometheus exposition text.

use std::sync::Arc;

use branchlab_experiments::{LANE_COUNTERS, SWEEP_COUNTERS, TRACE_COUNTERS};
use branchlab_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Latency histogram upper bounds in microseconds, from 100µs to 10s.
/// Dense enough that `Snapshot::histogram_quantile` gives usable
/// p50/p99 estimates at both cache-hit and full-sweep latencies.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Every server metric, by handle.
pub struct ServerMetrics {
    /// The registry the handles live in (scraped by `/metrics`).
    pub registry: Arc<MetricsRegistry>,
    /// HTTP requests received (any endpoint).
    pub requests: Arc<Counter>,
    /// Sweep requests received.
    pub sweep_requests: Arc<Counter>,
    /// Responses by coarse status class.
    pub responses_2xx: Arc<Counter>,
    /// 4xx responses.
    pub responses_4xx: Arc<Counter>,
    /// 5xx responses (503/504 included).
    pub responses_5xx: Arc<Counter>,
    /// Live sweep queue depth.
    pub queue_depth: Arc<Gauge>,
    /// Accept-to-worker-pickup wait in microseconds, so latency p99
    /// decomposes into queue wait vs. compute.
    pub queue_wait_us: Arc<Histogram>,
    /// Sweeps shed with 503 because the queue was full.
    pub queue_rejected: Arc<Counter>,
    /// Sweeps shed up front because the projected queue wait exceeded
    /// their deadline.
    pub admission_rejected: Arc<Counter>,
    /// Queue-wait projection made per admission decision, µs.
    pub admission_projected_wait_us: Arc<Histogram>,
    /// Sweeps answered by joining an identical in-flight computation.
    pub coalesce_hits: Arc<Counter>,
    /// Sweeps answered from the LRU result cache.
    pub cache_hits: Arc<Counter>,
    /// Sweeps that missed the cache.
    pub cache_misses: Arc<Counter>,
    /// Cached bodies that failed hash validation on read (evicted and
    /// recomputed, never served).
    pub cache_corrupt: Arc<Counter>,
    /// Requests that hit their deadline before a result was ready.
    pub deadline_expired: Arc<Counter>,
    /// Requests slower than the configured `--slow-ms` threshold.
    pub slow_requests: Arc<Counter>,
    /// Sweeps actually computed (one replay pass each).
    pub sweeps_computed: Arc<Counter>,
    /// End-to-end request latency in microseconds.
    pub latency_us: Arc<Histogram>,
    /// Currently open client connections.
    pub connections_active: Arc<Gauge>,
    /// Connections accepted over the daemon's lifetime.
    pub connections_total: Arc<Counter>,
    /// 1 once the warmup pass has made every suite trace resident.
    pub ready: Arc<Gauge>,
    /// Benchmarks warmed so far.
    pub warm_benches: Arc<Counter>,
    /// Trace events made resident by warmup.
    pub warm_events: Arc<Counter>,
    /// Pool workers respawned after a panicking job.
    pub worker_restarts: Arc<Counter>,
    /// Spill snapshots published.
    pub spill_snapshots: Arc<Counter>,
    /// Spill snapshot writes that failed (retried next interval).
    pub spill_errors: Arc<Counter>,
    /// Cache entries restored from the spill snapshot at boot.
    pub spill_restored: Arc<Counter>,
    /// Snapshot records dropped at boot (torn/stale/corrupt).
    pub spill_skipped: Arc<Counter>,
    /// Entries in the most recent spill snapshot.
    pub spill_entries: Arc<Gauge>,
}

impl ServerMetrics {
    /// Register every server metric in `registry`, plus the sweep
    /// engine's counters so `/metrics` lists them before the first
    /// sweep.
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        for name in TRACE_COUNTERS
            .iter()
            .chain(&SWEEP_COUNTERS)
            .chain(&LANE_COUNTERS)
        {
            let _ = registry.counter(name);
        }
        ServerMetrics {
            requests: registry.counter("server.requests"),
            sweep_requests: registry.counter("server.sweep.requests"),
            responses_2xx: registry.counter("server.responses.2xx"),
            responses_4xx: registry.counter("server.responses.4xx"),
            responses_5xx: registry.counter("server.responses.5xx"),
            queue_depth: registry.gauge("server.queue.depth"),
            queue_wait_us: registry.histogram("server.queue.wait_us", LATENCY_BOUNDS_US),
            queue_rejected: registry.counter("server.queue.rejected"),
            admission_rejected: registry.counter("server.admission.rejected"),
            admission_projected_wait_us: registry
                .histogram("server.admission.projected_wait_us", LATENCY_BOUNDS_US),
            coalesce_hits: registry.counter("server.coalesce.hits"),
            cache_hits: registry.counter("server.cache.hits"),
            cache_misses: registry.counter("server.cache.misses"),
            cache_corrupt: registry.counter("server.cache.corrupt"),
            deadline_expired: registry.counter("server.deadline.expired"),
            slow_requests: registry.counter("server.slow.requests"),
            sweeps_computed: registry.counter("server.sweeps.computed"),
            latency_us: registry.histogram("server.latency.us", LATENCY_BOUNDS_US),
            connections_active: registry.gauge("server.connections.active"),
            connections_total: registry.counter("server.connections.total"),
            ready: registry.gauge("server.ready"),
            warm_benches: registry.counter("server.warm.benches"),
            warm_events: registry.counter("server.warm.events"),
            worker_restarts: registry.counter("server.worker.restarts"),
            spill_snapshots: registry.counter("server.spill.snapshots"),
            spill_errors: registry.counter("server.spill.errors"),
            spill_restored: registry.counter("server.spill.restored"),
            spill_skipped: registry.counter("server.spill.skipped"),
            spill_entries: registry.gauge("server.spill.entries"),
            registry,
        }
    }

    /// Count one response with the given status.
    pub fn count_response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_counter_is_exposed_before_the_first_sweep() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServerMetrics::new(Arc::clone(&registry));
        let text = metrics.registry.snapshot().to_prometheus();
        for name in TRACE_COUNTERS
            .iter()
            .chain(&SWEEP_COUNTERS)
            .chain(&LANE_COUNTERS)
        {
            let prom = branchlab_telemetry::prometheus_name(name);
            assert!(
                text.contains(&format!("\n{prom} 0\n")),
                "{prom} missing:\n{text}"
            );
        }
    }
}
