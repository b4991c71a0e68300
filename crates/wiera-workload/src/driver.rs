//! Closed-loop client drivers.

use crate::ledger::Ledger;
use crate::spec::{OpKind, WorkloadSpec};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wiera_sim::{LatencyRecorder, SharedClock, SimDuration, SimRng};

/// What one operation observed.
#[derive(Debug, Clone)]
pub struct OpSample {
    pub latency: SimDuration,
    pub version: u64,
}

/// Why a store operation failed. Historically the driver had its own
/// error struct; it is now the unified [`wiera::WieraError`] — a missing
/// key is workload noise ([`WieraError::is_not_found`]), anything else is
/// a real error. Substrate adapters construct it with
/// [`WieraError::not_found`] / [`WieraError::other`].
pub use wiera::WieraError as KvError;

/// Anything a driver can load: `WieraClient` implements this, and the app
/// substrates provide their own adapters.
pub trait KvStore: Send + Sync {
    fn kv_put(&self, key: &str, value: Bytes) -> Result<OpSample, KvError>;
    fn kv_get(&self, key: &str) -> Result<OpSample, KvError>;
    /// Get that also returns the object bytes (used by the file layer).
    fn kv_get_value(&self, key: &str) -> Result<(Bytes, OpSample), KvError>;

    /// Batched writes, one result per item. The default loops per-op so
    /// substrates without a native bulk path still work; stores with real
    /// batch support (WieraClient) override it.
    fn kv_put_batch(&self, items: &[(String, Bytes)]) -> Vec<Result<OpSample, KvError>> {
        items
            .iter()
            .map(|(k, v)| self.kv_put(k, v.clone()))
            .collect()
    }

    /// Batched reads, one result per item; same contract as
    /// [`Self::kv_put_batch`].
    fn kv_get_batch(&self, keys: &[String]) -> Vec<Result<OpSample, KvError>> {
        keys.iter().map(|k| self.kv_get(k)).collect()
    }
}

fn view_sample(view: &wiera::replica::OpView) -> OpSample {
    OpSample {
        latency: view.latency,
        version: view.version,
    }
}

impl KvStore for wiera::client::WieraClient {
    fn kv_put(&self, key: &str, value: Bytes) -> Result<OpSample, KvError> {
        self.put(key, value).map(|v| view_sample(&v))
    }

    fn kv_get(&self, key: &str) -> Result<OpSample, KvError> {
        self.get(key).map(|v| view_sample(&v))
    }

    fn kv_get_value(&self, key: &str) -> Result<(Bytes, OpSample), KvError> {
        let view = self.get(key)?;
        let sample = view_sample(&view);
        Ok((view.value.unwrap_or_default(), sample))
    }

    fn kv_put_batch(&self, items: &[(String, Bytes)]) -> Vec<Result<OpSample, KvError>> {
        match self.put_batch(items) {
            Ok(results) => results
                .into_iter()
                .map(|r| r.map(|v| view_sample(&v)))
                .collect(),
            Err(shared) => items.iter().map(|_| Err(shared.clone())).collect(),
        }
    }

    fn kv_get_batch(&self, keys: &[String]) -> Vec<Result<OpSample, KvError>> {
        match self.get_batch(keys) {
            Ok(results) => results
                .into_iter()
                .map(|r| r.map(|v| view_sample(&v)))
                .collect(),
            Err(shared) => keys.iter().map(|_| Err(shared.clone())).collect(),
        }
    }
}

/// Aggregated results of a driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    pub ops: u64,
    pub errors: u64,
    pub put_latency: wiera_sim::Summary,
    pub get_latency: wiera_sim::Summary,
    pub fresh_reads: u64,
    pub stale_reads: u64,
}

impl DriverReport {
    /// Fraction of reads that returned outdated data (Fig. 8's "Eventual").
    pub fn stale_fraction(&self) -> f64 {
        let total = self.fresh_reads + self.stale_reads;
        if total == 0 {
            0.0
        } else {
            self.stale_reads as f64 / total as f64
        }
    }
}

/// A closed-loop client issuing one operation after another, with optional
/// modeled think time between operations.
pub struct ClientDriver {
    pub spec: WorkloadSpec,
    pub ledger: Arc<Ledger>,
    pub think: SimDuration,
    put_rec: LatencyRecorder,
    get_rec: LatencyRecorder,
    ops: AtomicU64,
    errors: AtomicU64,
    fresh: AtomicU64,
    stale: AtomicU64,
}

impl ClientDriver {
    pub fn new(spec: WorkloadSpec, ledger: Arc<Ledger>, think: SimDuration) -> Arc<Self> {
        Arc::new(ClientDriver {
            spec,
            ledger,
            think,
            put_rec: LatencyRecorder::new(),
            get_rec: LatencyRecorder::new(),
            ops: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        })
    }

    /// Issue exactly `n` operations against `store`.
    pub fn run_ops(&self, store: &dyn KvStore, clock: &SharedClock, rng: &mut SimRng, n: u64) {
        for _ in 0..n {
            self.step(store, rng);
            if !self.think.is_zero() {
                clock.sleep(self.think);
            }
        }
    }

    /// Issue `n` operations in batches of `batch`: each round draws `batch`
    /// ops from the mix, groups the reads into one `kv_get_batch` and the
    /// writes into one `kv_put_batch`, and records per-item samples exactly
    /// like the per-op path (an RMW contributes to both groups).
    pub fn run_batched_ops(
        &self,
        store: &dyn KvStore,
        clock: &SharedClock,
        rng: &mut SimRng,
        n: u64,
        batch: usize,
    ) {
        let batch = batch.max(1);
        let mut remaining = n;
        while remaining > 0 {
            let round = remaining.min(batch as u64);
            self.step_batch(store, rng, round as usize);
            remaining -= round;
            if !self.think.is_zero() {
                clock.sleep(self.think);
            }
        }
    }

    fn step_batch(&self, store: &dyn KvStore, rng: &mut SimRng, batch: usize) {
        let mut get_keys: Vec<String> = Vec::new();
        let mut put_items: Vec<(String, Bytes)> = Vec::new();
        for _ in 0..batch {
            let kind = self.spec.next_op(rng);
            let key = self.spec.next_key(rng);
            if matches!(kind, OpKind::Get | OpKind::Rmw) {
                get_keys.push(key.clone());
            }
            if matches!(kind, OpKind::Put | OpKind::Rmw) {
                let mut buf = vec![0u8; self.spec.value_bytes];
                rng.fill(&mut buf);
                put_items.push((key, Bytes::from(buf)));
            }
        }
        if !get_keys.is_empty() {
            let expected: Vec<u64> = get_keys.iter().map(|k| self.ledger.latest(k)).collect();
            for (want, r) in expected.into_iter().zip(store.kv_get_batch(&get_keys)) {
                self.record_get(want, r);
            }
        }
        if !put_items.is_empty() {
            for ((key, _), r) in put_items.iter().zip(store.kv_put_batch(&put_items)) {
                match r {
                    Ok(s) => {
                        self.put_rec.record(s.latency);
                        self.ledger.on_put(key, s.version);
                    }
                    Err(_) => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.ops.fetch_add(batch as u64, Ordering::Relaxed);
    }

    fn record_get(&self, expected: u64, r: Result<OpSample, KvError>) {
        match r {
            Ok(s) => {
                self.get_rec.record(s.latency);
                if expected > 0 {
                    if Ledger::is_fresh(s.version, expected) {
                        self.fresh.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.stale.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) => {
                // Reading a key nobody has written yet is not an error of
                // interest for the workload.
                if !e.is_not_found() {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// One operation: draw kind + key, execute, record.
    pub fn step(&self, store: &dyn KvStore, rng: &mut SimRng) {
        let kind = self.spec.next_op(rng);
        let key = self.spec.next_key(rng);
        match kind {
            OpKind::Put => self.do_put(store, rng, &key),
            OpKind::Get => self.do_get(store, &key),
            OpKind::Rmw => {
                self.do_get(store, &key);
                self.do_put(store, rng, &key);
            }
        }
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    fn do_put(&self, store: &dyn KvStore, rng: &mut SimRng, key: &str) {
        let mut buf = vec![0u8; self.spec.value_bytes];
        rng.fill(&mut buf);
        match store.kv_put(key, Bytes::from(buf)) {
            Ok(s) => {
                self.put_rec.record(s.latency);
                self.ledger.on_put(key, s.version);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn do_get(&self, store: &dyn KvStore, key: &str) {
        let expected = self.ledger.latest(key);
        self.record_get(expected, store.kv_get(key));
    }

    pub fn report(&self) -> DriverReport {
        DriverReport {
            ops: self.ops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            put_latency: self.put_rec.summary(),
            get_latency: self.get_rec.summary(),
            fresh_reads: self.fresh.load(Ordering::Relaxed),
            stale_reads: self.stale.load(Ordering::Relaxed),
        }
    }

    /// Merge several drivers' reports (e.g. one per region).
    pub fn merged_report(drivers: &[Arc<ClientDriver>]) -> DriverReport {
        let mut put = wiera_sim::Histogram::new();
        let mut get = wiera_sim::Histogram::new();
        let mut ops = 0;
        let mut errors = 0;
        let mut fresh = 0;
        let mut stale = 0;
        for d in drivers {
            put.merge(&d.put_rec.snapshot());
            get.merge(&d.get_rec.snapshot());
            ops += d.ops.load(Ordering::Relaxed);
            errors += d.errors.load(Ordering::Relaxed);
            fresh += d.fresh.load(Ordering::Relaxed);
            stale += d.stale.load(Ordering::Relaxed);
        }
        DriverReport {
            ops,
            errors,
            put_latency: put.summary(),
            get_latency: get.summary(),
            fresh_reads: fresh,
            stale_reads: stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use wiera_sim::ManualClock;

    /// A KvStore that stores locally but serves stale versions on demand.
    struct FakeStore {
        data: Mutex<HashMap<String, u64>>,
        lag: u64,
    }

    impl KvStore for FakeStore {
        fn kv_put(&self, key: &str, _value: Bytes) -> Result<OpSample, KvError> {
            let mut m = self.data.lock();
            let v = m.entry(key.to_string()).or_insert(0);
            *v += 1;
            Ok(OpSample {
                latency: SimDuration::from_millis(2),
                version: *v,
            })
        }

        fn kv_get(&self, key: &str) -> Result<OpSample, KvError> {
            let m = self.data.lock();
            match m.get(key) {
                Some(&v) => Ok(OpSample {
                    latency: SimDuration::from_millis(1),
                    version: v.saturating_sub(self.lag),
                }),
                None => Err(KvError::not_found(format!("object '{key}' not found"))),
            }
        }

        fn kv_get_value(&self, key: &str) -> Result<(Bytes, OpSample), KvError> {
            self.kv_get(key).map(|s| (Bytes::new(), s))
        }
    }

    #[test]
    fn driver_runs_mix_and_reports() {
        let clock: SharedClock = ManualClock::new();
        let store = FakeStore {
            data: Mutex::new(HashMap::new()),
            lag: 0,
        };
        let ledger = Arc::new(Ledger::new());
        let driver = ClientDriver::new(WorkloadSpec::ycsb_a(50, 32), ledger, SimDuration::ZERO);
        let mut rng = SimRng::new(1);
        driver.run_ops(&store, &clock, &mut rng, 500);
        let r = driver.report();
        assert_eq!(r.ops, 500);
        assert_eq!(r.errors, 0);
        assert!(r.put_latency.count > 150, "puts {}", r.put_latency.count);
        assert!(r.get_latency.count > 0);
        assert_eq!(r.stale_reads, 0, "no lag → no staleness");
    }

    #[test]
    fn staleness_detected_with_lagging_store() {
        let clock: SharedClock = ManualClock::new();
        let store = FakeStore {
            data: Mutex::new(HashMap::new()),
            lag: 1,
        };
        let ledger = Arc::new(Ledger::new());
        let driver = ClientDriver::new(WorkloadSpec::ycsb_a(10, 32), ledger, SimDuration::ZERO);
        let mut rng = SimRng::new(2);
        driver.run_ops(&store, &clock, &mut rng, 1000);
        let r = driver.report();
        assert!(r.stale_reads > 0, "lagging store must show stale reads");
        assert!(
            r.stale_fraction() > 0.5,
            "every versioned read lags: {}",
            r.stale_fraction()
        );
    }

    #[test]
    fn missing_keys_are_not_errors() {
        let clock: SharedClock = ManualClock::new();
        let store = FakeStore {
            data: Mutex::new(HashMap::new()),
            lag: 0,
        };
        let ledger = Arc::new(Ledger::new());
        // Read-only workload on an empty store: all gets miss.
        let driver = ClientDriver::new(WorkloadSpec::ycsb_c(10, 32), ledger, SimDuration::ZERO);
        let mut rng = SimRng::new(3);
        driver.run_ops(&store, &clock, &mut rng, 100);
        assert_eq!(driver.report().errors, 0);
    }

    #[test]
    fn batched_driving_matches_per_op_accounting() {
        let clock: SharedClock = ManualClock::new();
        let store = FakeStore {
            data: Mutex::new(HashMap::new()),
            lag: 0,
        };
        let ledger = Arc::new(Ledger::new());
        let driver = ClientDriver::new(WorkloadSpec::ycsb_a(50, 32), ledger, SimDuration::ZERO);
        let mut rng = SimRng::new(5);
        driver.run_batched_ops(&store, &clock, &mut rng, 500, 64);
        let r = driver.report();
        assert_eq!(r.ops, 500);
        assert_eq!(r.errors, 0, "missing keys must not count as errors");
        assert!(r.put_latency.count > 150, "puts {}", r.put_latency.count);
        assert!(r.get_latency.count > 0);
    }

    #[test]
    fn merged_report_combines() {
        let clock: SharedClock = ManualClock::new();
        let store = FakeStore {
            data: Mutex::new(HashMap::new()),
            lag: 0,
        };
        let ledger = Arc::new(Ledger::new());
        let d1 = ClientDriver::new(
            WorkloadSpec::ycsb_a(10, 32),
            ledger.clone(),
            SimDuration::ZERO,
        );
        let d2 = ClientDriver::new(WorkloadSpec::ycsb_a(10, 32), ledger, SimDuration::ZERO);
        let mut rng = SimRng::new(4);
        d1.run_ops(&store, &clock, &mut rng, 100);
        d2.run_ops(&store, &clock, &mut rng, 100);
        let merged = ClientDriver::merged_report(&[d1, d2]);
        assert_eq!(merged.ops, 200);
    }
}
