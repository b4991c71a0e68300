//! Protocol specification: the handful of extracted facts the explorer
//! branches on, plus the protocol mode and exploration bounds.
//!
//! The extraction layer (wiera-audit's `protocol` module) reduces each
//! handler arm to guards/effects/emits; this module reduces *that* to the
//! flags that change reachable behavior in the small-world semantics:
//! whether `ChangePrimary` and `Replicate` are epoch-fenced, and whether
//! the `Put` arm acknowledges before its mutation commits. The protocol
//! *mode* (primary-backup sync, multi-primary, eventual) is configuration
//! — Wiera instances pick it per policy at runtime — so the checker
//! explores each requested mode against the same extracted flags.

use wiera_audit::protocol::ProtocolModel;

/// Replication mode under exploration (Wiera consistency policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Primary-backup, synchronous replication: the primary acks a put
    /// only once every peer acked the replicate.
    PbSync,
    /// Multiple writers, synchronous replication, no failover epochs.
    MultiPrimary,
    /// Any writer, asynchronous replication, ack at accept time.
    Eventual,
}

impl Protocol {
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::PbSync => "pb-sync",
            Protocol::MultiPrimary => "multi-primary",
            Protocol::Eventual => "eventual",
        }
    }

    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "pb-sync" | "pb_sync" | "pbsync" => Some(Protocol::PbSync),
            "multi-primary" | "multi_primary" => Some(Protocol::MultiPrimary),
            "eventual" => Some(Protocol::Eventual),
            _ => None,
        }
    }

    /// Writes wait for replica acks before the client sees success.
    pub fn sync_replication(self) -> bool {
        !matches!(self, Protocol::Eventual)
    }

    /// The mode designates a single primary and runs epoch failover.
    pub fn has_primary(self) -> bool {
        matches!(self, Protocol::PbSync)
    }

    pub const ALL: [Protocol; 3] = [Protocol::PbSync, Protocol::MultiPrimary, Protocol::Eventual];
}

/// Extracted behavior flags the small-world semantics branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub protocol: Protocol,
    /// `ChangePrimary` refuses strictly-stale epochs (`epoch >= s.epoch`
    /// write guard in the real handler — equality is idempotent).
    pub cp_fenced: bool,
    /// `Replicate` refuses strictly-stale epochs before applying.
    pub repl_fenced: bool,
    /// The `Put` arm emits its ack before the mutation/replication
    /// commits (the WS112 defect class).
    pub ack_before_commit: bool,
}

impl Spec {
    /// Derive the behavior flags from an extracted protocol model.
    pub fn from_protocol_model(pm: &ProtocolModel, protocol: Protocol) -> Spec {
        Spec {
            protocol,
            cp_fenced: pm.fenced("ChangePrimary"),
            repl_fenced: pm.fenced("Replicate"),
            ack_before_commit: pm.acks_before_mutation("Put").unwrap_or(false),
        }
    }

    /// The correctly-fenced reference spec for a mode.
    pub fn correct(protocol: Protocol) -> Spec {
        Spec {
            protocol,
            cp_fenced: true,
            repl_fenced: true,
            ack_before_commit: false,
        }
    }
}

/// Exploration bounds: world size and failure budget per trace.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    pub nodes: usize,
    pub keys: usize,
    /// Client puts injected per trace.
    pub puts: usize,
    /// Crash events per trace (each crashed node may restart once per
    /// crash). Keep `crashes < nodes` or sync acks degenerate to
    /// single-copy commits and Wm003 loses meaning.
    pub crashes: usize,
    /// Elections per trace (primary-backup mode only).
    pub elections: usize,
    /// Abort exploration beyond this many distinct states.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            nodes: 3,
            keys: 2,
            puts: 2,
            crashes: 1,
            elections: 1,
            max_states: 4_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_parse_round_trips() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.as_str()), Some(p));
        }
        assert_eq!(Protocol::parse("nope"), None);
    }

    #[test]
    fn correct_spec_is_fully_fenced() {
        let s = Spec::correct(Protocol::PbSync);
        assert!(s.cp_fenced && s.repl_fenced && !s.ack_before_commit);
    }
}
