//! Circuit breaker for browned-out dependencies.
//!
//! Brownouts — a throttling tier, a replica with a melting queue — fail
//! *partially*: calls still succeed sometimes, just slowly or sporadically,
//! which is exactly what naive retry loops hammer hardest. The breaker
//! watches error-rate and latency EWMAs over the calls a client actually
//! makes and walks the classic three-state machine:
//!
//! * **Closed** — traffic flows; every outcome feeds the EWMAs. When the
//!   error rate or the latency EWMA crosses its threshold (after a minimum
//!   sample count, so one cold-start blip can't trip it), the breaker opens.
//! * **Open** — traffic is refused locally without touching the dependency.
//!   After `cooldown` of modeled time the next admission request is promoted
//!   to a probe (half-open).
//! * **Half-open** — at most one probe is in flight at a time. `probes`
//!   consecutive successes close the breaker (EWMAs reset — the dependency
//!   earned a clean slate); any failure reopens it and restarts the cooldown.
//!
//! All timing is on the modeled clock and the machine itself is free of
//! randomness, so a seeded workload drives a bit-identical transition
//! sequence — which is what the chaos campaign's replayability relies on.

use crate::registry::MetricsRegistry;
use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};

/// Where the state machine currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// What [`CircuitBreaker::admit`] tells the caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Closed: send the call normally.
    Yes,
    /// Half-open: this call is the probe — send it and report the outcome.
    Probe,
    /// Open (or a probe is already in flight): do not touch the dependency.
    No,
}

/// Thresholds and pacing of one breaker.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Open when the error-rate EWMA exceeds this fraction (0..1).
    pub error_threshold: f64,
    /// Open when the latency EWMA exceeds this, if set.
    pub latency_threshold: Option<SimDuration>,
    /// EWMA smoothing factor per sample (weight of the newest outcome).
    pub alpha: f64,
    /// Outcomes observed before the EWMAs are trusted to trip the breaker.
    pub min_samples: u32,
    /// Modeled time spent open before the first probe is admitted.
    pub cooldown: SimDuration,
    /// Consecutive probe successes required to close again.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            error_threshold: 0.5,
            latency_threshold: None,
            alpha: 0.2,
            min_samples: 8,
            cooldown: SimDuration::from_millis(500),
            probes: 2,
        }
    }
}

struct Inner {
    err_ewma: f64,
    lat_ewma_ms: f64,
    samples: u32,
    opened_at: SimInstant,
    probe_inflight: bool,
    probe_successes: u32,
}

/// One breaker guarding one dependency (a replica, a storage tier).
pub struct CircuitBreaker {
    /// Label in exported metrics (`breaker_transitions{name,to}`).
    name: String,
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
    /// The [`BreakerState`] as its discriminant: written under `inner`'s
    /// lock, read without it (a read asks every holder's breaker).
    state: AtomicU8,
}

impl CircuitBreaker {
    pub fn new(name: impl Into<String>, cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            name: name.into(),
            cfg,
            inner: Mutex::new(Inner {
                err_ewma: 0.0,
                lat_ewma_ms: 0.0,
                samples: 0,
                opened_at: SimInstant::EPOCH,
                probe_inflight: false,
                probe_successes: 0,
            }),
            state: AtomicU8::new(BreakerState::Closed as u8),
        }
    }

    pub fn state(&self) -> BreakerState {
        use BreakerState::*;
        [Closed, Open, HalfOpen][usize::from(self.state.load(Ordering::Acquire))]
    }

    /// Current error-rate EWMA (diagnostics and tests).
    pub fn error_rate(&self) -> f64 {
        self.inner.lock().err_ewma
    }

    /// May a call go out right now?
    pub fn admit(&self, now: SimInstant) -> Admit {
        let mut g = self.inner.lock();
        match self.state() {
            BreakerState::Closed => Admit::Yes,
            BreakerState::Open => {
                if now.elapsed_since(g.opened_at) >= self.cfg.cooldown {
                    self.transition(&mut g, BreakerState::HalfOpen);
                    g.probe_inflight = true;
                    g.probe_successes = 0;
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
            BreakerState::HalfOpen => {
                if g.probe_inflight {
                    Admit::No
                } else {
                    g.probe_inflight = true;
                    Admit::Probe
                }
            }
        }
    }

    /// Report a successful call and its latency.
    pub fn record_success(&self, now: SimInstant, latency: SimDuration) {
        let mut g = self.inner.lock();
        self.observe(&mut g, false, latency.as_millis_f64());
        match self.state() {
            BreakerState::Closed => self.maybe_open(&mut g, now),
            BreakerState::HalfOpen => {
                g.probe_inflight = false;
                g.probe_successes += 1;
                if g.probe_successes >= self.cfg.probes {
                    // The dependency earned a clean slate: stale brownout
                    // history must not trip the breaker on the next sample.
                    g.err_ewma = 0.0;
                    g.lat_ewma_ms = 0.0;
                    g.samples = 0;
                    self.transition(&mut g, BreakerState::Closed);
                }
            }
            // A straggler reply from before the breaker opened: the EWMA
            // update above is all it contributes.
            BreakerState::Open => {}
        }
    }

    /// Report a failed (or shed/timed-out) call.
    pub fn record_failure(&self, now: SimInstant) {
        let mut g = self.inner.lock();
        // A failure carries no latency sample; hold the latency EWMA flat.
        let lat = g.lat_ewma_ms;
        self.observe(&mut g, true, lat);
        match self.state() {
            BreakerState::Closed => self.maybe_open(&mut g, now),
            BreakerState::HalfOpen => {
                g.probe_inflight = false;
                g.opened_at = now;
                self.transition(&mut g, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }

    fn observe(&self, g: &mut Inner, failed: bool, lat_ms: f64) {
        let a = self.cfg.alpha;
        let err = if failed { 1.0 } else { 0.0 };
        if g.samples == 0 {
            g.err_ewma = err;
            g.lat_ewma_ms = lat_ms;
        } else {
            g.err_ewma = (1.0 - a) * g.err_ewma + a * err;
            g.lat_ewma_ms = (1.0 - a) * g.lat_ewma_ms + a * lat_ms;
        }
        g.samples = g.samples.saturating_add(1);
    }

    fn maybe_open(&self, g: &mut Inner, now: SimInstant) {
        if g.samples < self.cfg.min_samples {
            return;
        }
        let slow = self
            .cfg
            .latency_threshold
            .is_some_and(|t| g.lat_ewma_ms > t.as_millis_f64());
        if g.err_ewma > self.cfg.error_threshold || slow {
            g.opened_at = now;
            self.transition(g, BreakerState::Open);
        }
    }

    fn transition(&self, _held: &mut Inner, to: BreakerState) {
        self.state.store(to as u8, Ordering::Release);
        let to_s = to.to_string();
        MetricsRegistry::global().inc(
            "breaker_transitions",
            &[("name", self.name.as_str()), ("to", to_s.as_str())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn t(ms: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_millis(ms)
    }

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            min_samples: 4,
            cooldown: SimDuration::from_millis(100),
            probes: 2,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let b = CircuitBreaker::new("dep", cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..6 {
            if b.state() == BreakerState::Closed {
                assert_eq!(b.admit(t(i)), Admit::Yes);
            }
            b.record_failure(t(i));
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Inside the cooldown: refused without touching the dependency.
        assert_eq!(b.admit(t(50)), Admit::No);
        // Cooldown over: exactly one probe goes out.
        assert_eq!(b.admit(t(200)), Admit::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(t(201)), Admit::No, "one probe in flight at a time");
        b.record_success(t(210), SimDuration::from_millis(5));
        assert_eq!(b.admit(t(220)), Admit::Probe);
        b.record_success(t(230), SimDuration::from_millis(5));
        assert_eq!(b.state(), BreakerState::Closed);
        // Clean slate: the old failure history is gone.
        assert!(b.error_rate() < 1e-9);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = CircuitBreaker::new("dep", cfg());
        for i in 0..6 {
            b.record_failure(t(i));
        }
        assert_eq!(b.admit(t(150)), Admit::Probe);
        b.record_failure(t(160));
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown restarted at the probe failure, not the first open.
        assert_eq!(b.admit(t(200)), Admit::No);
        assert_eq!(b.admit(t(300)), Admit::Probe);
    }

    #[test]
    fn latency_ewma_alone_can_open() {
        let b = CircuitBreaker::new(
            "slow",
            BreakerConfig {
                latency_threshold: Some(SimDuration::from_millis(50)),
                min_samples: 4,
                ..cfg()
            },
        );
        for i in 0..8 {
            b.record_success(t(i), SimDuration::from_millis(400));
        }
        assert_eq!(b.state(), BreakerState::Open, "slow successes must trip it");
    }

    #[test]
    fn min_samples_guards_cold_start() {
        let b = CircuitBreaker::new("cold", cfg());
        b.record_failure(t(0));
        b.record_failure(t(1));
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "two samples are below min_samples"
        );
    }

    #[test]
    fn healthy_traffic_never_trips() {
        let b = CircuitBreaker::new("ok", cfg());
        for i in 0..1000 {
            assert_eq!(b.admit(t(i)), Admit::Yes);
            b.record_success(t(i), SimDuration::from_millis(3));
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// The machine has no internal randomness: the same seeded outcome
    /// sequence produces the same transition trace, run after run.
    #[test]
    fn seeded_outcome_sequence_is_deterministic() {
        let drive = |seed: u64| -> Vec<(u64, BreakerState)> {
            let b = CircuitBreaker::new("det", cfg());
            let mut rng = SimRng::new(seed).child("breaker");
            let mut trace = Vec::new();
            let mut last = b.state();
            for step in 0..400u64 {
                let now = t(step * 10);
                match b.admit(now) {
                    Admit::Yes | Admit::Probe => {
                        // A browned-out phase in the middle of the run.
                        let brownout = (100..200).contains(&step);
                        let fail_p = if brownout { 0.9 } else { 0.05 };
                        if rng.gen_range_f64(0.0, 1.0) < fail_p {
                            b.record_failure(now);
                        } else {
                            b.record_success(now, SimDuration::from_millis(4));
                        }
                    }
                    Admit::No => {}
                }
                let s = b.state();
                if s != last {
                    trace.push((step, s));
                    last = s;
                }
            }
            trace
        };
        let a = drive(42);
        let b = drive(42);
        assert_eq!(a, b, "same seed, same transitions");
        assert!(
            a.iter().any(|(_, s)| *s == BreakerState::Open),
            "the brownout phase must open the breaker: {a:?}"
        );
        assert_eq!(
            a.last().map(|(_, s)| *s),
            Some(BreakerState::Closed),
            "the healed phase must close it again: {a:?}"
        );
    }
}
