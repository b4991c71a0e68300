//! Background event engine for an instance.
//!
//! Drives the rules that the paper runs on "dedicated threads" (§4.3):
//! timers (write-back flushes), tier-filled checks and cold-data scans.
//! Each concern gets its own thread against the shared (scaled) clock, so
//! the engine behaves identically under time compression.

use crate::instance::TieraInstance;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wiera_policy::compile::EventKind;
use wiera_sim::SimDuration;

/// Handle to the running engine threads of one instance.
pub struct InstanceEngine {
    stop: Arc<AtomicBool>,
    /// Total objects acted on by background rules (observability).
    pub actions_taken: Arc<AtomicU64>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl InstanceEngine {
    /// Default period for rules whose timer parameter was left unbound.
    pub const DEFAULT_TIMER: SimDuration = SimDuration::from_secs(10);
    /// How often filled/cold rules are evaluated.
    pub const MAINTENANCE_PERIOD: SimDuration = SimDuration::from_secs(5);

    /// Start the engine for `inst`. One thread per timer rule (at its own
    /// period) plus one maintenance thread for filled/cold rules.
    pub fn start(inst: Arc<TieraInstance>) -> Result<Self, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let actions_taken = Arc::new(AtomicU64::new(0));
        // One thread running `run` every `period` until stopped.
        let spawn = |what: &str, period: SimDuration, run: fn(&TieraInstance) -> usize| {
            let (inst, stop, acted) = (inst.clone(), stop.clone(), actions_taken.clone());
            std::thread::Builder::new()
                .name(format!("tiera-{what}-{}", inst.name()))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        inst.clock().sleep(period);
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        acted.fetch_add(run(&inst) as u64, Ordering::Relaxed);
                    }
                })
                .map_err(|e| format!("cannot spawn {what} thread: {e}"))
        };

        // Collect distinct timer periods from the rules.
        let mut periods: Vec<SimDuration> = inst
            .rules()
            .iter()
            .filter_map(|r| match r.event {
                EventKind::Timer { period_ms } => Some(
                    period_ms
                        .map(SimDuration::from_millis_f64)
                        .unwrap_or(Self::DEFAULT_TIMER),
                ),
                _ => None,
            })
            .collect();
        periods.sort();
        periods.dedup();
        let mut threads = Vec::new();
        for period in periods {
            threads.push(spawn("timer", period, TieraInstance::run_timer_rules)?);
        }
        let has_maintenance = inst.rules().iter().any(|r| {
            matches!(
                r.event,
                EventKind::TierFilled { .. } | EventKind::ColdData { .. }
            )
        });
        if has_maintenance {
            let maintenance = TieraInstance::run_maintenance;
            threads.push(spawn("maint", Self::MAINTENANCE_PERIOD, maintenance)?);
        }

        Ok(InstanceEngine {
            stop,
            actions_taken,
            threads,
        })
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Stop and join all engine threads.
    pub fn shutdown(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for InstanceEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use bytes::Bytes;
    use wiera_net::Region;
    use wiera_policy::{compile, parse};
    use wiera_sim::ScaledClock;

    #[test]
    fn engine_flushes_writeback_automatically() {
        // LowLatency policy with a 1-second timer, at 500x compression:
        // the flush should happen within a few wall milliseconds.
        let src = wiera_policy::canned::LOW_LATENCY_INSTANCE;
        let spec = parse(src).unwrap();
        let mut params = std::collections::BTreeMap::new();
        params.insert("t".to_string(), 1000.0); // 1s timer
        let compiled = wiera_policy::compile::compile_with_params(&spec, &params).unwrap();
        let cfg = InstanceConfig::new("ll", Region::UsEast)
            .with_tier("tier1", "Memcached", 1 << 30)
            .with_tier("tier2", "EBS", 1 << 30)
            .with_rules(compiled.rules);
        let clock = ScaledClock::shared(500.0);
        let inst = crate::instance::TieraInstance::build(cfg, clock).unwrap();
        let engine = InstanceEngine::start(inst.clone()).unwrap();

        inst.put("k", Bytes::from_static(b"data")).unwrap();
        // Wait up to 2 wall-seconds for the background flush.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let flushed = loop {
            let dirty = inst
                .meta()
                .with("k", |o| o.latest().unwrap().dirty)
                .unwrap();
            if !dirty {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        engine.shutdown();
        assert!(flushed, "write-back flush never ran");
        assert!(engine_took_actions(&inst));
    }

    fn engine_took_actions(inst: &crate::instance::TieraInstance) -> bool {
        inst.meta()
            .with("k", |o| o.latest().unwrap().replicas & 1 << 1 != 0)
            .unwrap()
    }

    #[test]
    fn engine_without_rules_spawns_nothing_and_stops_cleanly() {
        let cfg = InstanceConfig::new("bare", Region::UsEast).with_tier("tier1", "EBS", 1 << 20);
        let inst = crate::instance::TieraInstance::build(cfg, ScaledClock::shared(100.0)).unwrap();
        let engine = InstanceEngine::start(inst).unwrap();
        assert_eq!(engine.threads.len(), 0);
        engine.shutdown();
    }

    #[test]
    fn engine_runs_cold_scan() {
        let compiled = compile(&parse(wiera_policy::canned::REDUCED_COST_POLICY).unwrap()).unwrap();
        let cfg = InstanceConfig::new("cold", Region::UsWest)
            .with_tier("tier1", "LocalDisk", 1 << 30)
            .with_tier("tier2", "CheapestArchival", 0)
            .with_rules(compiled.rules);
        // 1 wall ms ≈ 100 modeled minutes: 120h pass in ~72 wall ms,
        // maintenance period (5s) is sub-millisecond.
        let clock = ScaledClock::shared(6_000_000.0);
        let inst = crate::instance::TieraInstance::build(cfg, clock).unwrap();
        inst.put("c", Bytes::from_static(b"soon cold")).unwrap();
        let engine = InstanceEngine::start(inst.clone()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        let migrated = loop {
            if inst.location_of("c") == Some("tier2") {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        engine.shutdown();
        assert!(migrated, "cold data never migrated");
    }
}
