#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Runtime correctness checker for the Wiera reproduction.
//!
//! wiera-lint (PR 2) verifies policies *before* they run; this crate checks
//! the *runtime* that executes them, in two complementary ways:
//!
//! * [`lockdiag`] — turns the lock-order graph recorded by
//!   [`wiera_sim::lockreg`] (every `TrackedMutex`/`TrackedRwLock` acquisition
//!   in `wiera-coord`, `wiera` and `tiera` feeds it) into structured WC0xx
//!   diagnostics: Tarjan-SCC cycles are *potential* deadlocks (WC001,
//!   TSan-style — ABBA is reported even if the two orders never interleaved),
//!   same-class nesting is WC002, release imbalance is WC003.
//! * [`history`] — a consistency-history oracle. Replicas record
//!   `put`/`get`/`replicate_apply` events on the modeled-time axis through
//!   the [`wiera_sim::Tracer`]; the oracle replays that history against the
//!   policy's *deduced* [`wiera_policy::ConsistencyModel`]: a Wing–Gong-style
//!   interval linearizability check for `PrimaryBackup {{ sync: true }}` and
//!   locked `MultiPrimaries` (WC010), read-your-writes (WC011) plus eventual
//!   convergence (WC012) for `Eventual`. A trace ring that overflowed holds
//!   a truncated history, which fails the run (WC013 deny).
//! * [`scenarios`] — a canned corpus of whole-cluster scenarios (including
//!   outage and session-expiry fault injection) that must check clean, and
//!   adversarial scenarios with *planted* bugs (an ABBA deadlock, a stale
//!   read under sync primary-backup) that the checker must flag — the
//!   self-test that keeps the oracle honest.
//! * [`modelbridge`] — the runtime↔static soundness gate: lock edges the
//!   runtime lockreg observed must be a subset of the statically derived
//!   edge set, and every recorded history op kind must map to a handler
//!   transition in the extracted protocol model (`wiera-audit`), so the
//!   `wiera-model` checker's verdicts are not vacuous. Run it with
//!   `wiera-check --soundness`.
//! * [`chaos`] — a seeded chaos campaign (§4.4): randomized fault scripts
//!   (primary/backup crashes, partitions, coordination-session expiry,
//!   degraded tiers) against every consistency protocol, gated on zero
//!   findings plus post-heal digest-equal convergence. Replayable from a
//!   single seed via `wiera-check --chaos <seed>`.
//!
//! The `wiera-check` binary mirrors `wiera-lint`'s UX: `--json`,
//! `--deny-warnings`, exit status `0` clean / `1` gating findings / `2`
//! usage error. Diagnostics reuse `wiera_policy::diag` (stable codes,
//! severities, JSON); the caret renderer is meaningless here — sites are
//! source locations captured by `#[track_caller]`, carried in notes.

pub mod chaos;
pub mod history;
pub mod lockdiag;
pub mod modelbridge;
pub mod scenarios;

pub use chaos::{run_campaign, ChaosReport};
pub use history::{check_history, check_trace, extract_history, HistoryEvent, HistoryKind};
pub use lockdiag::registry_diagnostics;
pub use modelbridge::{soundness, workspace_model, SoundnessReport};
pub use scenarios::{all_scenarios, run_scenario, Scenario, ScenarioKind, ScenarioReport};
