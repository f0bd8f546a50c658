//! Serving metrics: a [`MetricsRegistry`] of named counters and
//! histograms behind the same recording API as before.
//!
//! Latency percentiles come from `sekitei-obs` log-linear histograms
//! instead of the old bounded sample ring. That fixes the sparse-window
//! estimate for good — an empty population reports 0 and a partially
//! filled one is summarized over exactly the samples recorded, with no
//! window-fill assumptions — at the cost of the window's recency bias:
//! the histogram summarizes the server's lifetime, which is what the
//! stats protocol reports were already treated as.
//!
//! The registry is the only store of the serving counters, and its
//! exposition their only wire form; `--stats` summarizes it client-side.

use crate::flight::OutcomeClass;
use sekitei_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::fmt;
use std::sync::Arc;

/// Shared serving metrics. All methods take `&self` and record lock-free
/// through pre-resolved registry handles.
pub struct ServerStats {
    registry: MetricsRegistry,
    served: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    degraded: Arc<Counter>,
    coalesced: Arc<Counter>,
    rejected: Arc<Counter>,
    queue_shed: Arc<Counter>,
    queue_shed_low: Arc<Counter>,
    queue_shed_normal: Arc<Counter>,
    /// One counter per outcome class.
    class_exact: Arc<Counter>,
    class_degraded: Arc<Counter>,
    class_cached: Arc<Counter>,
    class_budget_exhausted: Arc<Counter>,
    class_deadline_hit: Arc<Counter>,
    class_error: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
}

impl Default for ServerStats {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let served = registry.counter("served");
        let cache_hits = registry.counter("cache_hits");
        let cache_misses = registry.counter("cache_misses");
        let degraded = registry.counter("degraded");
        let coalesced = registry.counter("coalesced");
        let rejected = registry.counter("rejected");
        let queue_shed = registry.counter("queue_shed");
        let queue_shed_low = registry.counter("queue_shed_low");
        let queue_shed_normal = registry.counter("queue_shed_normal");
        let class_exact = registry.counter("class_exact");
        let class_degraded = registry.counter("class_degraded");
        let class_cached = registry.counter("class_cached");
        let class_budget_exhausted = registry.counter("class_budget_exhausted");
        let class_deadline_hit = registry.counter("class_deadline_hit");
        let class_error = registry.counter("class_error");
        let queue_depth = registry.gauge("queue_depth");
        let latency_us = registry.histogram("latency_us");
        let queue_wait_us = registry.histogram("queue_wait_us");
        ServerStats {
            registry,
            served,
            cache_hits,
            cache_misses,
            degraded,
            coalesced,
            rejected,
            queue_shed,
            queue_shed_low,
            queue_shed_normal,
            class_exact,
            class_degraded,
            class_cached,
            class_budget_exhausted,
            class_deadline_hit,
            class_error,
            queue_depth,
            latency_us,
            queue_wait_us,
        }
    }
}

impl fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServerStats({})", sekitei_obs::expose(&self.registry))
    }
}

impl ServerStats {
    /// Count a served plan request and record its latency.
    pub fn record_served(&self, latency_us: u64) {
        self.served.inc();
        self.latency_us.record(latency_us);
    }

    /// Record how long a plan request waited for a search permit (0 for
    /// one answered from encoded bytes).
    pub fn record_queue_wait(&self, wait_us: u64) {
        self.queue_wait_us.record(wait_us);
    }

    /// Count an outcome-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Count a miss: the request decoded, compiled and searched.
    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Count a degraded response.
    pub fn record_degraded(&self) {
        self.degraded.inc();
    }

    /// Count an admission-control rejection.
    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// Count a request answered by joining another request's in-flight
    /// search (single-flight fan-out).
    pub fn record_coalesced(&self) {
        self.coalesced.inc();
    }

    /// Count a plan request shed by the priority gate under queue
    /// pressure; the per-priority counters live only in the registry.
    pub fn record_shed(&self, priority: crate::protocol::Priority) {
        self.queue_shed.inc();
        match priority {
            crate::protocol::Priority::Low => self.queue_shed_low.inc(),
            crate::protocol::Priority::Normal => self.queue_shed_normal.inc(),
            crate::protocol::Priority::High => {}
        }
    }

    /// Count one plan request's outcome class. Each request lands in
    /// exactly one class (`Cached` for cache hits and coalesced joins,
    /// otherwise the content class of the computed outcome), so the six
    /// class counters partition the plan requests handled.
    pub fn record_class(&self, class: OutcomeClass) {
        match class {
            OutcomeClass::Exact => self.class_exact.inc(),
            OutcomeClass::Degraded => self.class_degraded.inc(),
            OutcomeClass::Cached => self.class_cached.inc(),
            OutcomeClass::BudgetExhausted => self.class_budget_exhausted.inc(),
            OutcomeClass::DeadlineHit => self.class_deadline_hit.inc(),
            OutcomeClass::Error => self.class_error.inc(),
        }
    }

    /// Publish the queue depth: plan requests waiting for a search
    /// permit.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
    }

    /// The underlying registry (for rendering every metric by name).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::StatsSnapshot;
    use sekitei_obs::{bucket_bounds, bucket_index};

    /// The registry as `sekitei request --stats` sees it.
    fn view(registry: &MetricsRegistry) -> StatsSnapshot {
        let text = sekitei_obs::expose(registry);
        StatsSnapshot::from_exposition(&sekitei_obs::parse_exposition(&text).unwrap()).unwrap()
    }

    #[test]
    fn percentiles_over_population() {
        let s = ServerStats::default();
        for us in 1..=100 {
            s.record_served(us);
        }
        let snap = view(s.registry());
        assert_eq!(snap.served, 100);
        // below 64 µs the histogram is exact; above, within one bucket
        assert_eq!(snap.p50_us, 50);
        let (lo, _) = bucket_bounds(bucket_index(99));
        assert_eq!(snap.p99_us, lo, "p99 reports the bucket of the exact 99");
        assert!((98..=99).contains(&snap.p99_us));
        assert_eq!(snap.max_us, 100);
    }

    #[test]
    fn empty_population_yields_zero_percentiles() {
        let snap = view(ServerStats::default().registry());
        assert_eq!((snap.p50_us, snap.p95_us, snap.p99_us, snap.max_us), (0, 0, 0, 0));
        assert_eq!((snap.queue_p50_us, snap.queue_p99_us), (0, 0));
    }

    #[test]
    fn sparse_population_is_summarized_exactly() {
        // the old ring indexed `len * q` into a sorted clone, which is
        // where sparse windows used to go wrong — with a histogram the
        // percentile of N samples is always over exactly N samples
        let s = ServerStats::default();
        s.record_served(10);
        let snap = view(s.registry());
        assert_eq!(snap.p50_us, 10, "a single sample is every percentile");
        assert_eq!(snap.p99_us, 10);
        assert_eq!(snap.max_us, 10);
        s.record_served(30);
        s.record_served(20);
        let snap = view(s.registry());
        assert_eq!(snap.p50_us, 20);
        assert_eq!(snap.p99_us, 30);
    }

    #[test]
    fn queue_wait_summarized_separately() {
        let s = ServerStats::default();
        s.record_queue_wait(5);
        s.record_queue_wait(7);
        s.record_served(1_000);
        let snap = view(s.registry());
        assert_eq!(snap.queue_p50_us, 5);
        assert_eq!(snap.queue_p99_us, 7);
        assert!(snap.p50_us >= 1_000 - 1_000 / 32, "latency unaffected by queue waits");
    }

    #[test]
    fn registry_renders_every_metric() {
        let s = ServerStats::default();
        s.record_served(42);
        s.record_rejected();
        let text = s.registry().to_string();
        for name in [
            "served",
            "cache_hits",
            "cache_misses",
            "degraded",
            "rejected",
            "class_exact",
            "class_error",
            "queue_depth",
            "latency_us",
            "queue_wait_us",
        ] {
            assert!(text.contains(name), "{name} missing from: {text}");
        }
    }

    #[test]
    fn class_counters_partition_into_snapshot() {
        let s = ServerStats::default();
        for class in [
            OutcomeClass::Exact,
            OutcomeClass::Exact,
            OutcomeClass::Degraded,
            OutcomeClass::Cached,
            OutcomeClass::BudgetExhausted,
            OutcomeClass::DeadlineHit,
            OutcomeClass::Error,
        ] {
            s.record_class(class);
        }
        let snap = view(s.registry());
        assert_eq!(snap.class_exact, 2);
        assert_eq!(snap.class_degraded, 1);
        assert_eq!(snap.class_cached, 1);
        assert_eq!(snap.class_budget_exhausted, 1);
        assert_eq!(snap.class_deadline_hit, 1);
        assert_eq!(snap.class_error, 1);
        let total = snap.class_exact
            + snap.class_degraded
            + snap.class_cached
            + snap.class_budget_exhausted
            + snap.class_deadline_hit
            + snap.class_error;
        assert_eq!(total, 7);
    }

    #[test]
    fn shed_and_coalesced_counters_surface_everywhere() {
        use crate::protocol::Priority;
        let s = ServerStats::default();
        s.record_coalesced();
        s.record_coalesced();
        s.record_shed(Priority::Low);
        s.record_shed(Priority::Normal);
        s.record_shed(Priority::Low);
        let snap = view(s.registry());
        assert_eq!(snap.coalesced, 2);
        assert_eq!(snap.queue_shed, 3);
        let parsed = sekitei_obs::parse_exposition(&sekitei_obs::expose(s.registry())).unwrap();
        assert_eq!(parsed.counters["coalesced"], 2);
        assert_eq!(parsed.counters["queue_shed"], 3);
        assert_eq!(parsed.counters["queue_shed_low"], 2);
        assert_eq!(parsed.counters["queue_shed_normal"], 1);
    }

    #[test]
    fn exposition_carries_live_registry() {
        let s = ServerStats::default();
        s.record_served(100);
        s.set_queue_depth(3);
        let text = sekitei_obs::expose(s.registry());
        let parsed = sekitei_obs::parse_exposition(&text).unwrap();
        assert_eq!(parsed.counters["served"], 1);
        assert_eq!(parsed.gauges["queue_depth"], 3);
        assert_eq!(parsed.histograms["latency_us"].count, 1);
    }
}
