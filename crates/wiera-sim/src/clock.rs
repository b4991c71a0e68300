//! Clock abstraction over the modeled-time axis.
//!
//! Every component that needs "now" or "sleep" — policy timers, monitor
//! threads, heartbeats, workload drivers — takes a [`SharedClock`] so the same
//! code runs against:
//!
//! * [`ScaledClock`]: modeled time derived from wall time compressed by a
//!   constant factor. Real threads and real sleeps, so lock contention and
//!   queueing behave like the live system, but a 10-minute experiment
//!   finishes in seconds. Sleeps are settled against a per-thread
//!   wall-clock account, so the OS timer's overshoot is repaid instead of
//!   being added to every modeled hop.
//! * [`ManualClock`]: time only moves when a test calls
//!   [`ManualClock::advance`]; `sleep` blocks until the clock reaches the
//!   deadline. Fully deterministic for unit tests.
//!
//! Every sleep that parks the thread first runs its [`crate::block`] hook; a
//! [`ScaledClock`] debt carried to the next call parks nothing and runs none.

use crate::time::{SimDuration, SimInstant};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Source of modeled time. See the module docs for the two implementations.
pub trait Clock: Send + Sync {
    /// Current point on the modeled-time axis.
    fn now(&self) -> SimInstant;
    /// Block the calling thread until `d` of modeled time has passed.
    fn sleep(&self, d: SimDuration);
    /// The time-compression factor (modeled seconds per wall second).
    fn scale(&self) -> f64 {
        1.0
    }
}

/// A reference-counted clock handle, cloned into every component.
pub type SharedClock = Arc<dyn Clock>;

/// Block until `clock` reads at least `deadline`, for waits that are a
/// barrier ("the peer has the message by then") rather than a cost. One
/// [`Clock::sleep`] is not a barrier: a [`ScaledClock`] settles it against
/// the thread's account and may return early. The threads a barrier waits
/// on are woken by OS timers of their own and so run up to a timer quantum
/// after the deadline; the barrier ends with one real sleep to let them.
pub fn sleep_until(clock: &dyn Clock, deadline: SimInstant) {
    loop {
        let now = clock.now();
        if now >= deadline {
            break;
        }
        clock.sleep(deadline.elapsed_since(now));
    }
    crate::block::before_block();
    std::thread::sleep(std::time::Duration::from_nanos(DEBT_THRESHOLD_NS as u64));
}

/// Wall-clock-backed clock with time compression.
pub struct ScaledClock {
    origin: std::time::Instant,
    scale: f64,
}

impl ScaledClock {
    /// `scale` = how many modeled seconds pass per wall-clock second.
    /// A scale of 100 runs the Fig. 7 experiment (several modeled minutes)
    /// in a couple of wall seconds.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "time scale must be positive");
        ScaledClock {
            origin: std::time::Instant::now(),
            scale,
        }
    }

    pub fn shared(scale: f64) -> SharedClock {
        Arc::new(Self::new(scale))
    }
}

impl Clock for ScaledClock {
    fn now(&self) -> SimInstant {
        SimInstant::from_micros((self.origin.elapsed().as_secs_f64() * self.scale * 1e6) as u64)
    }

    /// Sleeps against the calling thread's wall-clock account rather than
    /// the OS timer directly: `d ÷ scale` is added to what the thread owes,
    /// a debt too small for the timer is carried to the next call, and a
    /// sleep that ran long leaves credit that later calls draw on. Over any
    /// run of sleeps a thread's slept wall time therefore equals its modeled
    /// time ÷ scale to within one timer quantum, instead of exceeding it by
    /// the timer's overshoot on every call.
    fn sleep(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let asked = i64::try_from(d.to_wall(self.scale).as_nanos()).unwrap_or(i64::MAX);
        let owed = WALL_DEBT_NS.get().saturating_add(asked);
        if owed < DEBT_THRESHOLD_NS {
            WALL_DEBT_NS.set(owed);
            return;
        }
        crate::block::before_block();
        let started = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_nanos(owed.unsigned_abs()));
        let slept = i64::try_from(started.elapsed().as_nanos()).unwrap_or(i64::MAX);
        WALL_DEBT_NS.set(settle(owed, slept));
    }

    fn scale(&self) -> f64 {
        self.scale
    }
}

thread_local! {
    /// Wall nanoseconds of modeled sleep this thread has been asked for and
    /// not yet slept; negative while it holds credit from an overshoot. In
    /// wall time, so clocks of different scales share it.
    static WALL_DEBT_NS: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

/// Debt below which `sleep` returns at once. Measured on the 2-core build
/// box (2000 calls per request size, 1–500 µs): `thread::sleep(x)` never
/// returned sooner than x + 61 µs (p10 62, p50 65), whatever x was, so a
/// request under 60 µs cannot be delivered even to within 100 %.
const DEBT_THRESHOLD_NS: i64 = 60_000;

/// Most credit an overshoot may leave. The same measurement put the timer's
/// own overshoot at p99 150–180 µs; anything longer (maxima of 4–7 ms) is
/// the scheduler taking the core away, which is not time the model asked
/// for and must not be repaid by skipping later modeled sleeps.
const CREDIT_BOUND_NS: i64 = 200_000;

/// The account after sleeping `slept_ns` against a debt of `owed_ns`.
fn settle(owed_ns: i64, slept_ns: i64) -> i64 {
    owed_ns.saturating_sub(slept_ns).max(-CREDIT_BOUND_NS)
}

/// A clock that never advances: `now()` is constant and `sleep` returns
/// (almost) immediately.
///
/// Used by closed-loop throughput benchmarks where each worker accounts
/// modeled time itself from the latencies the stack returns: token-bucket
/// throttles (disk IOPS caps, NIC caps) then build their backlog purely in
/// modeled time, so aggregate throughput converges to the modeled cap
/// regardless of wall-clock scheduling. `sleep` yields a tiny wall pause so
/// background threads (flushers, monitors) don't busy-spin.
pub struct FrozenClock {
    at: SimInstant,
}

impl FrozenClock {
    pub fn shared() -> SharedClock {
        Arc::new(FrozenClock {
            at: SimInstant::EPOCH,
        })
    }

    pub fn shared_at(at: SimInstant) -> SharedClock {
        Arc::new(FrozenClock { at })
    }
}

impl Clock for FrozenClock {
    fn now(&self) -> SimInstant {
        self.at
    }

    fn sleep(&self, d: SimDuration) {
        if !d.is_zero() {
            crate::block::before_block();
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
}

/// Deterministic clock for tests: time moves only via [`ManualClock::advance`].
pub struct ManualClock {
    state: Mutex<u64>,
    cond: Condvar,
}

impl ManualClock {
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock {
            state: Mutex::new(0),
            cond: Condvar::new(),
        })
    }

    /// Move time forward, waking any sleeper whose deadline has been reached.
    pub fn advance(&self, d: SimDuration) {
        let mut t = self.state.lock();
        *t += d.as_micros();
        self.cond.notify_all();
    }

    /// Set the absolute modeled time (must not move backwards).
    pub fn set(&self, at: SimInstant) {
        let mut t = self.state.lock();
        assert!(at.as_micros() >= *t, "manual clock cannot move backwards");
        *t = at.as_micros();
        self.cond.notify_all();
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimInstant {
        SimInstant::from_micros(*self.state.lock())
    }

    fn sleep(&self, d: SimDuration) {
        let deadline = {
            let t = self.state.lock();
            *t + d.as_micros()
        };
        if !d.is_zero() {
            crate::block::before_block();
        }
        let mut t = self.state.lock();
        while *t < deadline {
            self.cond.wait(&mut t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn scaled_clock_advances() {
        let c = ScaledClock::new(1000.0);
        let t0 = c.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t1 = c.now();
        assert!(t1 > t0);
        // 5ms wall at 1000x is ~5 modeled seconds.
        let elapsed = t1.elapsed_since(t0);
        assert!(elapsed >= SimDuration::from_secs(4), "elapsed {elapsed}");
    }

    #[test]
    fn scaled_clock_sleep_compresses() {
        let c = ScaledClock::new(1000.0);
        let w0 = std::time::Instant::now();
        c.sleep(SimDuration::from_secs(1)); // 1ms wall
        assert!(w0.elapsed() < std::time::Duration::from_millis(200));
    }

    /// Run `f` on a thread of its own — an empty sleep account — and return
    /// the wall time it took.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) -> std::time::Duration {
        std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed()
        })
        .join()
        .unwrap()
    }

    #[test]
    fn many_short_sleeps_cost_their_modeled_time_not_one_timer_overshoot_each() {
        // 2000 × 10 ms at 2000x is 10 ms of wall owed; paying the timer's
        // ≈65 µs overshoot per call made this ≥ 130 ms. The floor must hold
        // on every attempt; the ceiling can be broken by the scheduler taking
        // the core away, so one clean attempt in five is enough.
        let attempts: Vec<_> = (0..5)
            .map(|_| {
                on_fresh_thread(|| {
                    let c = ScaledClock::new(2000.0);
                    for _ in 0..2000 {
                        c.sleep(SimDuration::from_millis(10));
                    }
                })
            })
            .collect();
        let ms = |d: &std::time::Duration| d.as_secs_f64() * 1e3;
        assert!(attempts.iter().all(|d| ms(d) >= 9.0), "{attempts:?}");
        assert!(attempts.iter().any(|d| ms(d) <= 25.0), "{attempts:?}");
    }

    #[test]
    fn first_sleep_of_a_thread_is_never_short() {
        // No history means no credit: a debt the timer can deliver is slept
        // in full. (Below the threshold it is carried, not slept.)
        for wall_us in [60u64, 500, 2500] {
            let took = on_fresh_thread(move || {
                ScaledClock::new(2000.0).sleep(SimDuration::from_micros(wall_us * 2000));
            });
            assert!(
                took >= std::time::Duration::from_micros(wall_us),
                "{took:?} < {wall_us} us"
            );
        }
    }

    #[test]
    fn sleep_until_is_a_barrier_whatever_the_thread_account_holds() {
        let took = on_fresh_thread(|| {
            // Enough credit to swallow the whole wait if it were one sleep.
            WALL_DEBT_NS.set(-CREDIT_BOUND_NS);
            let c = ScaledClock::new(2000.0);
            let deadline = c.now() + SimDuration::from_millis(100);
            sleep_until(&c, deadline);
            assert!(c.now() >= deadline);
        });
        assert!(took >= std::time::Duration::from_micros(50), "{took:?}");
        let m = ManualClock::new();
        sleep_until(m.as_ref(), SimInstant::EPOCH); // already there: returns
    }

    #[test]
    fn credit_is_bounded_after_a_long_overshoot() {
        // A 10 ms stall while sleeping 100 µs leaves the bound, not 9.9 ms.
        assert_eq!(settle(100_000, 10_000_000), -CREDIT_BOUND_NS);
        assert_eq!(settle(100_000, 165_000), -65_000);
        let took = on_fresh_thread(|| {
            WALL_DEBT_NS.set(settle(100_000, 10_000_000));
            // Bound + 1 ms of wall at 1000x: the credit covers only the bound.
            let d = SimDuration::from_micros((CREDIT_BOUND_NS as u64 / 1000 + 1000) * 1000);
            ScaledClock::new(1000.0).sleep(d);
            assert!(WALL_DEBT_NS.get() >= -CREDIT_BOUND_NS);
        });
        assert!(took >= std::time::Duration::from_millis(1), "{took:?}");
    }

    #[test]
    fn clocks_of_different_scale_share_one_thread_account() {
        // 200 × (5 µs at 2000x + 20 µs at 100x) = 5 ms of wall owed.
        let took = on_fresh_thread(|| {
            let (fast, slow) = (ScaledClock::new(2000.0), ScaledClock::new(100.0));
            for _ in 0..200 {
                fast.sleep(SimDuration::from_millis(10));
                slow.sleep(SimDuration::from_millis(2));
            }
            assert!(WALL_DEBT_NS.get() < DEBT_THRESHOLD_NS);
        });
        assert!(took >= std::time::Duration::from_micros(4900), "{took:?}");
    }

    #[test]
    fn a_sleep_that_parks_runs_the_block_hook_first_and_a_carried_debt_does_not() {
        on_fresh_thread(|| {
            let runs = std::rc::Rc::new(std::cell::Cell::new(0));
            let arm = |also: Box<dyn FnOnce()>| {
                let runs = runs.clone();
                crate::block::set(move || {
                    runs.set(runs.get() + 1);
                    also();
                });
            };
            let scaled = ScaledClock::new(2000.0);
            arm(Box::new(|| ()));
            scaled.sleep(SimDuration::from_millis(10)); // 5 µs of wall: carried
            assert_eq!(runs.get(), 0);
            scaled.sleep(SimDuration::from_secs(1));
            assert_eq!(runs.get(), 1);
            arm(Box::new(|| ()));
            FrozenClock::shared().sleep(SimDuration::from_secs(1));
            assert_eq!(runs.get(), 2);
            arm(Box::new(|| ()));
            sleep_until(&scaled, scaled.now());
            assert_eq!(runs.get(), 3);
            // The hook runs before the wait: a hook that advances the clock
            // past the deadline lets the sleep return at once.
            let manual = ManualClock::new();
            let advancer = manual.clone();
            arm(Box::new(move || {
                advancer.advance(SimDuration::from_secs(10))
            }));
            manual.sleep(SimDuration::ZERO);
            assert_eq!(runs.get(), 3);
            manual.sleep(SimDuration::from_secs(10));
            assert_eq!(runs.get(), 4);
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = ScaledClock::new(0.0);
    }

    #[test]
    fn manual_clock_now_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimInstant::EPOCH);
        c.advance(SimDuration::from_secs(3));
        assert_eq!(c.now(), SimInstant::EPOCH + SimDuration::from_secs(3));
    }

    #[test]
    fn manual_clock_sleep_blocks_until_advanced() {
        let c = ManualClock::new();
        let woke = Arc::new(AtomicBool::new(false));
        let (c2, woke2) = (c.clone(), woke.clone());
        let h = std::thread::spawn(move || {
            c2.sleep(SimDuration::from_secs(10));
            woke2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !woke.load(Ordering::SeqCst),
            "sleeper must not wake before time advances"
        );
        c.advance(SimDuration::from_secs(10));
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::new();
        c.advance(SimDuration::from_secs(5));
        c.set(SimInstant::from_micros(1));
    }

    #[test]
    fn zero_sleep_returns_immediately() {
        let c = ManualClock::new();
        c.sleep(SimDuration::ZERO); // must not deadlock
        let s = ScaledClock::new(10.0);
        s.sleep(SimDuration::ZERO);
    }
}

#[cfg(test)]
mod frozen_tests {
    use super::*;

    #[test]
    fn frozen_clock_never_advances_but_sleep_returns() {
        let c = FrozenClock::shared();
        let t0 = c.now();
        c.sleep(SimDuration::from_hours(5));
        assert_eq!(c.now(), t0);
        let c2 = FrozenClock::shared_at(SimInstant::from_micros(99));
        assert_eq!(c2.now(), SimInstant::from_micros(99));
    }
}
