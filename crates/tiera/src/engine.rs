//! Background event engine for an instance.
//!
//! Drives the rules that the paper runs on "dedicated threads" (§4.3):
//! timers (write-back flushes), tier-filled checks and cold-data scans. One
//! thread per instance sleeps on the shared (scaled) clock until the
//! earliest rule is due and runs the rules that are: each timer rule at its
//! own period, the filled/cold rules every [`InstanceEngine::MAINTENANCE_PERIOD`].
//! So the engine behaves identically under time compression.

use crate::instance::TieraInstance;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wiera_policy::compile::EventKind;
use wiera_sim::SimDuration;

/// Handle to the running engine thread of one instance.
pub struct InstanceEngine {
    stop: Arc<AtomicBool>,
    /// Total objects acted on by background rules (observability).
    pub actions_taken: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// What the engine runs when its period comes due.
enum Job {
    /// One timer rule, by its index in the instance's rules.
    Timer(usize),
    /// Every filled and cold rule.
    Maintenance,
}

impl InstanceEngine {
    /// Default period for rules whose timer parameter was left unbound.
    pub const DEFAULT_TIMER: SimDuration = SimDuration::from_secs(10);
    /// How often filled/cold rules are evaluated.
    pub const MAINTENANCE_PERIOD: SimDuration = SimDuration::from_secs(5);

    /// Start the engine for `inst`: one thread, if it has any timer, filled
    /// or cold rule.
    pub fn start(inst: Arc<TieraInstance>) -> Result<Self, String> {
        let mut jobs: Vec<(SimDuration, Job)> = Vec::new();
        let mut maintenance = false;
        for (rule, r) in inst.rules().iter().enumerate() {
            match r.event {
                EventKind::Timer { period_ms } => {
                    let period = period_ms.map(SimDuration::from_millis_f64);
                    jobs.push((period.unwrap_or(Self::DEFAULT_TIMER), Job::Timer(rule)));
                }
                EventKind::TierFilled { .. } | EventKind::ColdData { .. } => maintenance = true,
                _ => {}
            }
        }
        if maintenance {
            jobs.push((Self::MAINTENANCE_PERIOD, Job::Maintenance));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let actions_taken = Arc::new(AtomicU64::new(0));
        let thread = if jobs.is_empty() {
            None
        } else {
            let (stop, acted) = (stop.clone(), actions_taken.clone());
            let name = format!("tiera-engine-{}", inst.name());
            let run = move || Self::run(&inst, &jobs, &stop, &acted);
            let spawned = std::thread::Builder::new().name(name).spawn(run);
            Some(spawned.map_err(|e| format!("cannot spawn engine thread: {e}"))?)
        };
        Ok(InstanceEngine {
            stop,
            actions_taken,
            thread,
        })
    }

    /// The engine thread: sleep until the earliest job is due, then run
    /// every job due by then. A job's next slot is a period after its last
    /// one; slots missed while the thread was held up are skipped.
    fn run(
        inst: &TieraInstance,
        jobs: &[(SimDuration, Job)],
        stop: &AtomicBool,
        acted: &AtomicU64,
    ) {
        let clock = inst.clock();
        let start = clock.now();
        let mut due: Vec<_> = jobs.iter().map(|(period, _)| start + *period).collect();
        while let Some(&next) = due.iter().min() {
            let now = clock.now();
            if next > now {
                clock.sleep(next.elapsed_since(now));
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            let now = clock.now().max(next);
            for ((period, job), at) in jobs.iter().zip(&mut due) {
                if *at > next {
                    continue;
                }
                let n = match job {
                    Job::Timer(rule) => inst.run_timer_rule(*rule),
                    Job::Maintenance => inst.run_maintenance(),
                };
                acted.fetch_add(n as u64, Ordering::Relaxed);
                *at += *period;
                if *at <= now {
                    *at = now + *period;
                }
            }
        }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Stop and join the engine thread.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
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
    use wiera_sim::{Clock, ScaledClock, SimInstant};

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
        assert!(engine.thread.is_none());
        engine.shutdown();
    }

    /// A [`wiera_sim::ManualClock`] that knows who sleeps on it, so a test
    /// steps the engine thread through modeled time without wall waits.
    struct Stepped {
        clock: Arc<wiera_sim::ManualClock>,
        /// The deadline of each thread asleep on the clock.
        sleeping: parking_lot::Mutex<Vec<SimInstant>>,
        changed: parking_lot::Condvar,
    }

    impl Clock for Stepped {
        fn now(&self) -> SimInstant {
            self.clock.now()
        }

        fn sleep(&self, d: SimDuration) {
            let deadline = self.clock.now() + d;
            self.sleeping.lock().push(deadline);
            self.changed.notify_all();
            // Sleep to the deadline even if the clock moves in between.
            while self.clock.now() < deadline {
                self.clock.sleep(deadline.elapsed_since(self.clock.now()));
            }
            let mut sleeping = self.sleeping.lock();
            if let Some(at) = sleeping.iter().position(|t| *t == deadline) {
                sleeping.swap_remove(at);
            }
        }
    }

    impl Stepped {
        /// Wait until every thread on the clock sleeps toward a deadline it
        /// has not reached: each has done all that came due.
        fn settled(&self) {
            let mut sleeping = self.sleeping.lock();
            while sleeping.is_empty() || sleeping.iter().any(|t| *t <= self.clock.now()) {
                self.changed.wait(&mut sleeping);
            }
        }
    }

    /// Each timer rule fires at its own period, not at every timer rule's.
    /// A 1-s rule deletes objects tagged `gone`, a 1000-s rule those tagged
    /// `tmp`: stepped one modeled second at a time on a manual clock, a
    /// `gone` object is deleted within its second, and a `tmp` one survives
    /// 999 s and is deleted at 1000 s.
    #[test]
    fn each_timer_rule_fires_at_its_own_period() {
        let src = "Tiera T() {
            event(time=1 seconds) : response { delete(what:object.tag.gone == true); }
            event(time=1000 seconds) : response { delete(what:object.tag.tmp == true); }
        }";
        let cfg = InstanceConfig::new("timers", Region::UsEast)
            .with_tier("tier1", "EBS", 1 << 30)
            .with_rules(compile(&parse(src).unwrap()).unwrap().rules);
        let clock = Arc::new(Stepped {
            clock: wiera_sim::ManualClock::new(),
            sleeping: parking_lot::Mutex::new(Vec::new()),
            changed: parking_lot::Condvar::new(),
        });
        let inst = crate::instance::TieraInstance::build(cfg, clock.clone()).unwrap();
        inst.put_tagged("scratch", Bytes::from_static(b"tmp"), &["tmp"])
            .unwrap();
        let engine = InstanceEngine::start(inst.clone()).unwrap();
        clock.settled();
        for second in 1..=1000 {
            inst.put_tagged("gone", Bytes::from_static(b"x"), &["gone"])
                .unwrap();
            clock.clock.advance(SimDuration::from_secs(1));
            clock.settled();
            assert!(inst.get("gone").is_err(), "the 1-s rule skipped {second} s");
            let alive = inst.get("scratch").is_ok();
            assert_eq!(alive, second < 1000, "the 1000-s rule at {second} s");
        }
        engine.stop();
        clock.clock.advance(SimDuration::from_secs(1));
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
