//! The lock-sharded metrics registry: counters, gauges, histograms.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::span::Span;

/// Number of name→metric shards. Contention is per-name-hash, so even a
/// small power of two keeps the pool's worker threads off each other.
const SHARDS: usize = 8;

/// Default histogram bounds for wall-time observations, in microseconds:
/// 50µs … 5s. Values above the last bound land in the implicit `+Inf`
/// overflow bucket.
pub const TIME_BUCKETS_US: [f64; 14] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    1_000_000.0,
    5_000_000.0,
];

/// Histogram bounds for per-run counts (restarts, rounds): 0, 1, 2, 4 …
/// 128. A histogram declared with these bounds holds counts, not
/// microseconds, and profiles render it as such.
pub const COUNT_BUCKETS: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// One named metric.
enum Metric {
    Counter(AtomicU64),
    Gauge(AtomicI64),
    Histogram(Histo),
}

/// A fixed-bucket histogram: per-bucket counts (`counts[i]` counts values
/// `<= bounds[i]`, non-cumulative; the final slot is the `+Inf` overflow),
/// plus total count and sum.
struct Histo {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl Histo {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histo {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        // Prometheus `le` semantics: a value on a boundary belongs to that
        // boundary's bucket.
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

struct Inner {
    enabled: AtomicBool,
    shards: [Mutex<HashMap<String, Metric>>; SHARDS],
}

/// A registry of named metrics. Cloning is cheap (`Arc` internally) and
/// every clone observes the same metrics and the same enabled flag.
///
/// A new registry starts **disabled**: every recording call is a single
/// atomic load and an early return, so instrumentation can stay in place
/// unconditionally. [`Registry::set_enabled`] turns collection on. The
/// exception is [`Registry::gauge_add`] and [`Registry::gauge_guard`]:
/// they track live state and always apply.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, empty, disabled registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            }),
        }
    }

    /// Whether recording calls collect anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off. Already-collected metrics are kept
    /// either way; disabling only stops new observations.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.inner.shards[(h.finish() as usize) % SHARDS]
    }

    /// Adds `v` to the counter `name`, creating it at zero first if needed.
    /// No-op while disabled, or if `name` already names a non-counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard(name).lock().expect("telemetry shard poisoned");
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(AtomicU64::new(0)))
        {
            Metric::Counter(c) => {
                c.fetch_add(v, Ordering::Relaxed);
            }
            _ => debug_assert!(false, "metric `{name}` is not a counter"),
        }
    }

    /// Adds `delta` (may be negative) to the gauge `name`, creating it at
    /// zero first if needed. Applies whether or not the registry is
    /// enabled: an add-gauge describes live state (bytes held, requests in
    /// flight), and a charge or refund skipped while disabled would leave
    /// it wrong for good.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        let mut shard = self.shard(name).lock().expect("telemetry shard poisoned");
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(AtomicI64::new(0)))
        {
            Metric::Gauge(g) => {
                g.fetch_add(delta, Ordering::Relaxed);
            }
            _ => debug_assert!(false, "metric `{name}` is not a gauge"),
        }
    }

    /// Sets the gauge `name`, creating it if needed. No-op while disabled.
    pub fn gauge_set(&self, name: &str, v: i64) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard(name).lock().expect("telemetry shard poisoned");
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(AtomicI64::new(0)))
        {
            Metric::Gauge(g) => g.store(v, Ordering::Relaxed),
            _ => debug_assert!(false, "metric `{name}` is not a gauge"),
        }
    }

    /// Increments the gauge `name` now and decrements it when the returned
    /// guard drops — the idiom for in-flight/queue-depth gauges. Like
    /// [`Registry::gauge_add`], it counts whether or not the registry is
    /// enabled.
    #[must_use = "the gauge is decremented when the guard drops"]
    pub fn gauge_guard(&self, name: &str) -> GaugeGuard {
        self.gauge_add(name, 1);
        GaugeGuard {
            registry: self.clone(),
            name: name.to_string(),
        }
    }

    /// Records `value` into the histogram `name`, creating it with
    /// [`TIME_BUCKETS_US`] if needed. No-op while disabled.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard(name).lock().expect("telemetry shard poisoned");
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histo::new(&TIME_BUCKETS_US)))
        {
            Metric::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric `{name}` is not a histogram"),
        }
    }

    /// Creates the histogram `name` with explicit `bounds` (strictly
    /// increasing) if it does not exist yet, so later [`Registry::observe`]
    /// calls use these buckets instead of the time defaults. Registration
    /// is structural and happens even while disabled.
    pub fn declare_histogram(&self, name: &str, bounds: &[f64]) {
        let mut shard = self.shard(name).lock().expect("telemetry shard poisoned");
        shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histo::new(bounds)));
    }

    /// Opens a [`Span`] recording wall-time into the histogram `name` (in
    /// microseconds) when it drops. While disabled no clock is read.
    #[must_use = "the span records when it drops"]
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span::inert();
        }
        Span::armed(self.clone(), name.to_string(), Instant::now())
    }

    /// A point-in-time copy of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for shard in &self.inner.shards {
            let shard = shard.lock().expect("telemetry shard poisoned");
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => snap.push_counter(name, c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => snap.push_gauge(name, g.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => snap.push_histogram(name, h.snapshot()),
                }
            }
        }
        snap.sort();
        snap
    }
}

/// Decrements its gauge when dropped; see [`Registry::gauge_guard`].
#[derive(Debug)]
pub struct GaugeGuard {
    registry: Registry,
    name: String,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.registry.gauge_add(&self.name, -1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("g", 5);
        reg.observe("h", 1.0);
        let _span = reg.span("s");
        drop(_span);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        reg.set_enabled(true);
        reg.counter_add("c", 2);
        reg.counter_add("c", 3);
        reg.gauge_set("g", 10);
        reg.gauge_add("g", -4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(6));
    }

    #[test]
    fn gauge_guard_tracks_in_flight() {
        let reg = Registry::new();
        reg.set_enabled(true);
        {
            let _a = reg.gauge_guard("inflight");
            let _b = reg.gauge_guard("inflight");
            assert_eq!(reg.snapshot().gauge("inflight"), Some(2));
            // Live state: the guards release even while disabled.
            reg.set_enabled(false);
        }
        reg.set_enabled(true);
        assert_eq!(reg.snapshot().gauge("inflight"), Some(0));
    }

    #[test]
    fn histogram_bucket_boundaries_use_le_semantics() {
        let reg = Registry::new();
        reg.set_enabled(true);
        reg.declare_histogram("h", &[1.0, 10.0, 100.0]);
        // On-boundary values fall in the boundary's own bucket; just-above
        // values fall in the next; beyond the last bound is the overflow.
        for v in [0.5, 1.0, 1.0000001, 10.0, 10.5, 100.0, 100.5, 1e9] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").expect("histogram exists");
        assert_eq!(h.bounds, vec![1.0, 10.0, 100.0]);
        assert_eq!(h.counts, vec![2, 2, 2, 2], "le=1, le=10, le=100, +Inf");
        assert_eq!(h.count, 8);
        let expected_sum = 0.5 + 1.0 + 1.000_000_1 + 10.0 + 10.5 + 100.0 + 100.5 + 1e9;
        assert!((h.sum - expected_sum).abs() < 1e-6);
    }

    #[test]
    fn default_time_buckets_are_strictly_increasing() {
        assert!(TIME_BUCKETS_US.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn declare_histogram_survives_disabled_and_keeps_buckets() {
        let reg = Registry::new();
        reg.declare_histogram("h", &[5.0]);
        reg.set_enabled(true);
        reg.observe("h", 3.0);
        reg.observe("h", 7.0);
        let snap = reg.snapshot();
        let h = snap.histogram("h").expect("declared histogram");
        assert_eq!(h.bounds, vec![5.0]);
        assert_eq!(h.counts, vec![1, 1]);
    }

    #[test]
    fn clones_share_state() {
        let a = Registry::new();
        a.set_enabled(true);
        let b = a.clone();
        b.counter_add("shared", 7);
        assert_eq!(a.snapshot().counter("shared"), Some(7));
        b.set_enabled(false);
        assert!(!a.is_enabled());
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let reg = Registry::new();
        reg.set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        reg.counter_add("n", 1);
                        reg.observe("h", f64::from(i));
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n"), Some(4000));
        let h = snap.histogram("h").expect("histogram");
        assert_eq!(h.count, 4000);
        assert_eq!(h.counts.iter().sum::<u64>(), 4000);
    }
}
