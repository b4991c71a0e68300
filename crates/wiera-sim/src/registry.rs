//! Workspace-wide metrics registry: named, labeled counters, gauges and
//! latency histograms with lock-cheap sharded recording and deterministic
//! snapshot export.
//!
//! Every subsystem (network mesh, storage tiers, coordination service,
//! replicas, instances) records into one [`MetricsRegistry`] — usually the
//! process-wide [`MetricsRegistry::global()`] — and benchmark binaries
//! export a [`RegistrySnapshot`] to `results/metrics_<name>.json` at exit.
//! CI's bench-smoke job asserts invariants over those exported counters.
//!
//! Design notes:
//!
//! * **Resolve once, record with atomics.** [`MetricsRegistry::counter`] /
//!   [`MetricsRegistry::gauge`] / [`MetricsRegistry::histogram`] look a
//!   series up by name (a [`MetricKey`] of fresh strings, searched in a
//!   locked map) and return an `Arc` handle. The data path resolves each
//!   handle on first use and keeps it; [`MetricsRegistry::resolutions`]
//!   counts lookups. A counter or gauge is one atomic; a histogram locks
//!   only the shard its thread was dealt.
//! * **Reset zeroes in place**, so a handle kept across a reset counts what
//!   follows it. A snapshot lists the series recorded into or looked up
//!   since the last reset.
//! * **Snapshots are deterministic.** Metrics are keyed by
//!   `(name, sorted labels)` in `BTreeMap`s, so two runs with the same
//!   events produce byte-identical JSON (the serde shim keeps object keys
//!   sorted too).

use crate::metrics::{Histogram, Summary};
use crate::time::SimDuration;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of histogram shards. Threads are dealt shards round-robin.
const SHARDS: usize = 8;

/// A metric identity: name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Render as `name{k=v,...}` (or bare `name` when unlabeled).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// Set a series' in-use flag: it belongs in snapshots until the next
/// reset. Loads first, so a recorded series leaves the flag's line shared.
fn mark(in_use: &AtomicBool) {
    if !in_use.load(Ordering::Relaxed) {
        in_use.store(true, Ordering::Relaxed);
    }
}

/// What the registry does to a series of any kind.
trait Series: Default {
    /// Set when recorded into or looked up by name, cleared by a reset.
    fn in_use(&self) -> &AtomicBool;
    /// Back to the value of a new series; handles stay attached.
    fn zero(&self);
}

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct CounterHandle {
    value: AtomicU64,
    in_use: AtomicBool,
}

impl CounterHandle {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        mark(&self.in_use);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Series for CounterHandle {
    fn in_use(&self) -> &AtomicBool {
        &self.in_use
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous level (queue depths, open sessions, bytes resident).
#[derive(Debug, Default)]
pub struct GaugeHandle {
    value: AtomicI64,
    in_use: AtomicBool,
}

impl GaugeHandle {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        mark(&self.in_use);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        mark(&self.in_use);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Series for GaugeHandle {
    fn in_use(&self) -> &AtomicBool {
        &self.in_use
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Latency histogram with per-thread shard striping: recording locks only
/// the caller's shard, so concurrent recorders on different threads do not
/// serialize against each other.
#[derive(Debug)]
pub struct HistogramHandle {
    shards: [Mutex<Histogram>; SHARDS],
    in_use: AtomicBool,
}

impl Default for HistogramHandle {
    fn default() -> Self {
        HistogramHandle {
            shards: std::array::from_fn(|_| Mutex::new(Histogram::new())),
            in_use: AtomicBool::new(false),
        }
    }
}

/// The calling thread's histogram shard, dealt round-robin on its first
/// record: up to [`SHARDS`] recording threads never share a shard.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> =
            std::cell::Cell::new(NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS);
    }
    SHARD.get()
}

impl HistogramHandle {
    pub fn record(&self, sample: SimDuration) {
        self.shards[shard_index()].lock().record(sample);
        mark(&self.in_use);
    }

    /// Merge all shards into one histogram (snapshot path only).
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock());
        }
        out
    }
}

impl Series for HistogramHandle {
    fn in_use(&self) -> &AtomicBool {
        &self.in_use
    }

    fn zero(&self) {
        for shard in &self.shards {
            *shard.lock() = Histogram::new();
        }
    }
}

/// An op counter and the latency histogram recorded beside it, resolved
/// together: e.g. `tier_ops_total` and `tier_op_latency` of one label set.
#[derive(Debug)]
pub struct OpSeries {
    pub total: Arc<CounterHandle>,
    pub latency: Arc<HistogramHandle>,
}

impl OpSeries {
    /// Count `ops` ops that took `latency` as a whole.
    pub fn record(&self, ops: u64, latency: SimDuration) {
        self.total.add(ops);
        self.latency.record(latency);
    }
}

/// Exported form of one registry scrape. Keys are `name{k=v,...}` strings;
/// all maps are ordered, so serialization is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, Summary>,
}

impl RegistrySnapshot {
    /// Sum of every counter whose bare name (label part stripped) matches.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Total sample count across every histogram matching the bare name.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, s)| s.count)
            .sum()
    }
}

type SeriesMap<H> = RwLock<BTreeMap<MetricKey, Arc<H>>>;

/// The registry proper. Cloneable handles, deterministic snapshots.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: SeriesMap<CounterHandle>,
    gauges: SeriesMap<GaugeHandle>,
    histograms: SeriesMap<HistogramHandle>,
    resolutions: AtomicU64,
}

/// Zero every series of one kind in place.
fn zero_all<H: Series>(map: &SeriesMap<H>) {
    for h in map.read().values() {
        h.in_use().store(false, Ordering::Relaxed);
        h.zero();
    }
}

/// The series of one kind in use since the last reset, rendered.
fn in_use<H: Series, T>(map: &SeriesMap<H>, value: impl Fn(&H) -> T) -> BTreeMap<String, T> {
    map.read()
        .iter()
        .filter(|(_, h)| h.in_use().load(Ordering::Relaxed))
        .map(|(k, h)| (k.render(), value(h)))
        .collect()
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry every subsystem records into by default.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Look a series up by name, creating it if new, and mark it in use.
    fn resolve<H: Series>(
        &self,
        map: &SeriesMap<H>,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Arc<H> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let key = MetricKey::new(name, labels);
        let found = map.read().get(&key).map(Arc::clone);
        let handle = found.unwrap_or_else(|| Arc::clone(map.write().entry(key).or_default()));
        mark(handle.in_use());
        handle
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<CounterHandle> {
        self.resolve(&self.counters, name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<GaugeHandle> {
        self.resolve(&self.gauges, name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<HistogramHandle> {
        self.resolve(&self.histograms, name, labels)
    }

    /// Convenience: bump a labeled counter by one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.counter(name, labels).inc();
    }

    /// Convenience: record one latency sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], sample: SimDuration) {
        self.histogram(name, labels).record(sample);
    }

    /// By-name lookups made so far: every `counter` / `gauge` /
    /// `histogram` call, including those inside `inc` and `observe`.
    pub fn resolutions(&self) -> u64 {
        self.resolutions.load(Ordering::Relaxed)
    }

    /// Zero every registered series and take it out of snapshots until it
    /// is recorded into or looked up again. Benchmark binaries call this
    /// before a run so exported snapshots cover exactly that run; handles
    /// resolved earlier keep counting into the same series.
    pub fn reset(&self) {
        zero_all(&self.counters);
        zero_all(&self.gauges);
        zero_all(&self.histograms);
    }

    /// Scrape every series in use into an ordered, serializable snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: in_use(&self.counters, CounterHandle::get),
            gauges: in_use(&self.gauges, GaugeHandle::get),
            histograms: in_use(&self.histograms, |h| h.merged().summary()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_handle_different_labels_distinct() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("rpc_total", &[("from", "UsEast"), ("to", "EuWest")]);
        // Label order must not matter for identity.
        let b = reg.counter("rpc_total", &[("to", "EuWest"), ("from", "UsEast")]);
        let c = reg.counter("rpc_total", &[("from", "EuWest"), ("to", "UsEast")]);
        a.inc();
        b.add(2);
        c.inc();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["rpc_total{from=UsEast,to=EuWest}"], 3);
        assert_eq!(snap.counters["rpc_total{from=EuWest,to=UsEast}"], 1);
        assert_eq!(snap.counter_sum("rpc_total"), 4);
    }

    #[test]
    fn sharded_histogram_is_correct_under_concurrency() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 1_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let h = reg.histogram("op_latency", &[("tier", "ssd")]);
                    for i in 0..per_thread {
                        h.record(SimDuration::from_micros(t * per_thread + i + 1));
                        reg.inc("ops_total", &[("tier", "ssd")]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("ops_total"), threads * per_thread);
        assert_eq!(snap.histogram_count("op_latency"), threads * per_thread);
        let summary = &snap.histograms["op_latency{tier=ssd}"];
        assert!(summary.max_ms >= summary.p99_ms && summary.p99_ms >= summary.p50_ms);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.inc("zeta", &[]);
        reg.inc("alpha", &[("r", "b")]);
        reg.inc("alpha", &[("r", "a")]);
        reg.gauge("depth", &[]).set(-3);
        reg.observe("lat", &[], SimDuration::from_micros(5));
        let a = serde_json::to_string(&reg.snapshot()).unwrap();
        let b = serde_json::to_string(&reg.snapshot()).unwrap();
        assert_eq!(a, b);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(keys, ["alpha{r=a}", "alpha{r=b}", "zeta"]);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.inc("c", &[("x", "1")]);
        reg.gauge("g", &[]).set(7);
        reg.observe("h", &[], SimDuration::from_millis(3));
        let snap = reg.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms.len(), snap.histograms.len());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.inc("c", &[]);
        reg.gauge("g", &[]).set(4);
        reg.observe("h", &[], SimDuration::from_millis(1));
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn a_handle_resolved_before_reset_counts_only_what_follows_it() {
        let reg = MetricsRegistry::new();
        let ops = reg.counter("ops", &[("op", "put")]);
        let lat = reg.histogram("lat", &[("op", "put")]);
        ops.add(5);
        lat.record(SimDuration::from_millis(9));
        reg.reset();
        ops.inc();
        lat.record(SimDuration::from_millis(2));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ops{op=put}"], 1);
        assert_eq!(snap.histograms["lat{op=put}"].count, 1);
        assert_eq!(snap.histograms["lat{op=put}"].max_ms, 2.0);
        // The by-name view and the kept handle are one series.
        assert!(Arc::ptr_eq(&ops, &reg.counter("ops", &[("op", "put")])));
    }

    #[test]
    fn a_series_not_recorded_since_reset_is_absent_until_recorded_or_looked_up() {
        let reg = MetricsRegistry::new();
        let quiet = reg.counter("quiet", &[]);
        let depth = reg.gauge("depth", &[]);
        let lat = reg.histogram("lat", &[]);
        quiet.inc();
        depth.set(3);
        lat.record(SimDuration::from_millis(1));
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        // Recording through the kept handle brings a series back, and so
        // does a lookup by name, at zero — as a fresh series would read.
        depth.dec();
        reg.histogram("lat", &[]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["depth"], -1);
        assert_eq!(snap.histograms["lat"].count, 0);
        assert!(!snap.counters.contains_key("quiet"));
    }

    #[test]
    fn resolutions_count_lookups_by_name_and_not_records() {
        let reg = MetricsRegistry::new();
        let ops = reg.counter("ops", &[]);
        let before = reg.resolutions();
        for _ in 0..100 {
            ops.inc();
        }
        assert_eq!(reg.resolutions(), before);
        reg.inc("ops", &[]);
        reg.observe("lat", &[], SimDuration::from_millis(1));
        assert_eq!(reg.resolutions(), before + 2);
        assert_eq!(ops.get(), 101);
    }
}
