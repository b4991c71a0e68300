#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! Simulation substrate for the Wiera reproduction.
//!
//! The paper evaluates a live system whose interesting latencies are measured
//! in wall-clock milliseconds-to-minutes on real clouds. This crate provides
//! the time, randomness and measurement machinery that lets the rest of the
//! workspace run those experiments quickly and reproducibly:
//!
//! * [`time`] — `SimDuration` / `SimInstant`, an explicit *modeled time* axis
//!   kept distinct from wall time so a 600-second experiment can run in
//!   seconds of real time.
//! * [`clock`] — the [`Clock`] trait with a wall-time-backed [`ScaledClock`]
//!   (real threads, compressed time) and a fully deterministic
//!   [`ManualClock`] for unit tests.
//! * [`block`] — the thread-scoped before-block hook every primitive that
//!   can park a data-path thread runs first.
//! * [`hash`] — FNV-1a: the stable key hash that picks engine shards, and
//!   the deterministic hasher of the hash maps on the data path.
//! * [`rng`] — seed derivation and a small deterministic RNG façade so every
//!   experiment is reproducible from a single `u64` seed.
//! * [`dist`] — latency distributions (constant / uniform / normal /
//!   log-normal) used by the network and storage-tier models.
//! * [`metrics`] — histograms with percentile summaries, counters and
//!   time-series recorders used by every benchmark harness.
//! * [`registry`] — the process-wide [`MetricsRegistry`] of named, labeled
//!   counters/gauges/histograms every subsystem records into; snapshots
//!   export deterministically as JSON for CI gating.
//! * [`trace`] — bounded ring buffer of structured [`trace::TraceEvent`]s
//!   stamped on the modeled-time axis, exportable as JSONL.
//! * [`lockreg`] — [`TrackedMutex`] / [`TrackedRwLock`] wrappers feeding a
//!   process-wide lock-order graph; Tarjan-SCC cycle detection surfaces
//!   potential (ABBA-style) deadlocks for `wiera-check`.
//! * [`breaker`] — closed/open/half-open circuit breaker on error-rate and
//!   latency EWMAs, used by the client failover loop and the tier engine to
//!   probe browned-out dependencies instead of hammering them.

pub mod block;
pub mod breaker;
pub mod clock;
pub mod dist;
pub mod hash;
pub mod lockreg;
pub mod metrics;
pub mod registry;
pub mod rng;
pub mod time;
pub mod trace;

pub use breaker::{Admit, BreakerConfig, BreakerState, CircuitBreaker};
pub use clock::{sleep_until, Clock, FrozenClock, ManualClock, ScaledClock, SharedClock};
pub use dist::LatencyDist;
pub use lockreg::{LockOrderSnapshot, LockRegistry, TrackedMutex, TrackedRwLock};
pub use metrics::{Counter, Histogram, LatencyRecorder, Summary, TimeSeries};
pub use registry::{MetricsRegistry, RegistrySnapshot};
pub use rng::{derive_seed, SimRng};
pub use time::{SimDuration, SimInstant};
pub use trace::{Span, TraceEvent, Tracer};
