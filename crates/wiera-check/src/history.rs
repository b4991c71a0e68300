//! Consistency-history oracle.
//!
//! Replicas record every client-visible operation as a span on the modeled
//! time axis (subsystem `history`, op `put` / `get` / `replicate_apply`,
//! plus `mput` / `mget` — one span per item of a batched operation,
//! detail `key=K ver=N val=<64-bit value digest, hex>`). This module
//! re-extracts those spans from a [`Tracer`] export and checks them against
//! the policy's deduced [`ConsistencyModel`]:
//!
//! * `MultiPrimaries` and `PrimaryBackup { sync: true }` promise
//!   linearizability, which for a versioned register reduces to interval
//!   conditions in the style of Wing & Gong: the version order must embed
//!   the real-time order of writes, no read may return a version older than
//!   the newest write that *completed* before the read began (stale read),
//!   no read may begin returning a value before its write started (future
//!   read), reads must return the bytes their version was written with, and
//!   each node's reads must be monotone in version.
//! * `Eventual` (and async primary-backup) promises only read-your-writes
//!   per node plus convergence: once the history quiesces, every replica
//!   that stored or applied the key must agree on the final
//!   `(version, digest)`.
//!
//! Anything the oracle cannot check — an empty history, a read of a version
//! no recorded write produced, an unparseable record — is surfaced as a
//! WC013 note rather than silently skipped. A trace whose ring overflowed
//! lost its oldest events, so the history it holds is not the whole one:
//! that is a WC013 deny.

use std::collections::BTreeMap;
use wiera_policy::diag::{Code, Diagnostic};
use wiera_policy::ConsistencyModel;
use wiera_sim::{TraceEvent, Tracer};

/// Extract the history a tracer holds and check it against the model. A
/// tracer that dropped events fails the run, whatever survived.
pub fn check_trace(tracer: &Tracer, model: Option<ConsistencyModel>) -> Vec<Diagnostic> {
    let (history, mut diags) = extract_history(&tracer.events());
    let dropped = tracer.dropped();
    if dropped > 0 {
        diags.push(Diagnostic::deny(
            Code::Wc013,
            format!(
                "trace ring overflowed: its {dropped} oldest events were dropped, \
                 so the history checked is truncated"
            ),
        ));
    }
    diags.extend(check_history(&history, model));
    diags
}

/// What kind of history record a span is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryKind {
    /// A client-visible write: span runs arrival → ack.
    Put,
    /// A client-visible read: span runs arrival → response.
    Get,
    /// A replicated update applied at a backup (not client-visible).
    ReplicateApply,
}

/// One operation on the modeled-time axis.
#[derive(Clone, Debug)]
pub struct HistoryEvent {
    pub kind: HistoryKind,
    pub key: String,
    pub version: u64,
    /// 64-bit digest of the value bytes — equality proxy for the payload.
    pub digest: u64,
    pub node: String,
    pub start_us: u64,
    pub end_us: u64,
    /// The replica served this read from possibly-stale local state under
    /// overload, with the client's explicit consent (`degraded=1` in the
    /// record). Such reads opt out of freshness: the oracle exempts them
    /// from read-your-writes, and only them — an *unmarked* stale read is
    /// still a finding.
    pub degraded: bool,
}

/// Pull history records out of a raw trace. Records that fail to parse
/// become WC013 notes; all other subsystems are ignored.
pub fn extract_history(events: &[TraceEvent]) -> (Vec<HistoryEvent>, Vec<Diagnostic>) {
    let mut out = Vec::new();
    let mut diags = Vec::new();
    for e in events.iter().filter(|e| e.subsystem == "history") {
        let kind = match e.op.as_str() {
            // Batched operations ("mput"/"mget") record one span per item in
            // the same detail format; to the oracle each item is an ordinary
            // write or read whose interval happens to cover the whole batch.
            "put" | "mput" => HistoryKind::Put,
            "get" | "mget" => HistoryKind::Get,
            "replicate_apply" => HistoryKind::ReplicateApply,
            _ => continue,
        };
        match parse_detail(e) {
            Some((key, version, digest, degraded)) => out.push(HistoryEvent {
                kind,
                key,
                version,
                digest,
                node: e.node.clone().unwrap_or_else(|| "?".into()),
                start_us: e.t_us,
                end_us: e.t_us + e.dur_us.unwrap_or(0),
                degraded,
            }),
            None => diags.push(Diagnostic::note(
                Code::Wc013,
                format!(
                    "unparseable history record (op '{}', detail {:?})",
                    e.op, e.detail
                ),
            )),
        }
    }
    out.sort_by_key(|h| (h.start_us, h.end_us, h.version));
    (out, diags)
}

fn parse_detail(e: &TraceEvent) -> Option<(String, u64, u64, bool)> {
    let detail = e.detail.as_deref()?;
    let mut key = None;
    let mut ver = None;
    let mut val = None;
    let mut degraded = false;
    for part in detail.split_whitespace() {
        if let Some(k) = part.strip_prefix("key=") {
            key = Some(k.to_string());
        } else if let Some(v) = part.strip_prefix("ver=") {
            ver = v.parse::<u64>().ok();
        } else if let Some(d) = part.strip_prefix("val=") {
            val = u64::from_str_radix(d, 16).ok();
        } else if part == "degraded=1" {
            degraded = true;
        }
    }
    Some((key?, ver?, val?, degraded))
}

/// One logical write: duplicate records of the same `(key, version)` —
/// a forwarded put is recorded at both the forwarding backup and the
/// primary — are merged to their outermost interval.
struct Write {
    version: u64,
    digest: u64,
    start_us: u64,
    end_us: u64,
    nodes: Vec<String>,
    /// Two different values recorded under one version (only legal for
    /// concurrent eventual writers): digest comparisons are skipped.
    ambiguous: bool,
}

/// Check a history against the deduced model. `None` (the policy's insert
/// rule matches no known protocol shape) yields a WC013 note.
pub fn check_history(history: &[HistoryEvent], model: Option<ConsistencyModel>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if history.is_empty() {
        diags.push(Diagnostic::note(
            Code::Wc013,
            "no history events recorded; nothing to check",
        ));
        return diags;
    }
    let Some(model) = model else {
        diags.push(Diagnostic::note(
            Code::Wc013,
            "consistency model could not be deduced from the policy; history unchecked",
        ));
        return diags;
    };

    let mut by_key: BTreeMap<&str, Vec<&HistoryEvent>> = BTreeMap::new();
    for h in history {
        by_key.entry(&h.key).or_default().push(h);
    }

    let strict = matches!(
        model,
        ConsistencyModel::MultiPrimaries | ConsistencyModel::PrimaryBackup { sync: true }
    );
    for (key, events) in &by_key {
        let writes = merge_writes(key, events, strict, &mut diags);
        match model {
            ConsistencyModel::MultiPrimaries | ConsistencyModel::PrimaryBackup { sync: true } => {
                check_linearizable(key, events, &writes, &mut diags);
            }
            ConsistencyModel::Eventual | ConsistencyModel::PrimaryBackup { sync: false } => {
                check_read_your_writes(key, events, &mut diags);
                check_convergence(key, events, &writes, &mut diags);
            }
        }
    }
    diags
}

fn merge_writes(
    key: &str,
    events: &[&HistoryEvent],
    strict: bool,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Write> {
    let mut merged: BTreeMap<u64, Write> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == HistoryKind::Put) {
        let w = merged.entry(e.version).or_insert_with(|| Write {
            version: e.version,
            digest: e.digest,
            start_us: e.start_us,
            end_us: e.end_us,
            nodes: Vec::new(),
            ambiguous: false,
        });
        if w.digest != e.digest && !w.ambiguous {
            w.ambiguous = true;
            if strict {
                diags.push(Diagnostic::deny(
                    Code::Wc010,
                    format!(
                        "conflicting writes: key '{key}' version {} written with two different values",
                        e.version
                    ),
                ));
            } else {
                diags.push(Diagnostic::note(
                    Code::Wc013,
                    format!(
                        "key '{key}' version {} written concurrently with two values; \
                         digest comparisons skipped for it",
                        e.version
                    ),
                ));
            }
        }
        w.start_us = w.start_us.min(e.start_us);
        w.end_us = w.end_us.max(e.end_us);
        if !w.nodes.contains(&e.node) {
            w.nodes.push(e.node.clone());
        }
    }
    merged.into_values().collect()
}

/// Wing–Gong-style interval conditions for a linearizable versioned
/// register (writes totally ordered by version).
fn check_linearizable(
    key: &str,
    events: &[&HistoryEvent],
    writes: &[Write],
    diags: &mut Vec<Diagnostic>,
) {
    // Version order must embed real-time order: a write that finished
    // strictly before another began must carry the smaller version.
    for a in writes {
        for b in writes {
            if a.end_us < b.start_us && a.version > b.version {
                diags.push(Diagnostic::deny(
                    Code::Wc010,
                    format!(
                        "write order inversion: key '{key}' v{} completed at {}us \
                         before v{} began at {}us",
                        a.version, a.end_us, b.version, b.start_us
                    ),
                ));
            }
        }
    }

    for g in events.iter().filter(|e| e.kind == HistoryKind::Get) {
        let Some(w) = writes.iter().find(|w| w.version == g.version) else {
            diags.push(Diagnostic::note(
                Code::Wc013,
                format!(
                    "read of key '{key}' v{} has no recorded originating write; \
                     cannot check it",
                    g.version
                ),
            ));
            continue;
        };
        if !w.ambiguous && w.digest != g.digest {
            diags.push(Diagnostic::deny(
                Code::Wc010,
                format!(
                    "value corruption: read of key '{key}' v{} at node {} returned \
                     bytes that differ from the write",
                    g.version, g.node
                ),
            ));
        }
        if g.end_us < w.start_us {
            diags.push(Diagnostic::deny(
                Code::Wc010,
                format!(
                    "future read: key '{key}' v{} returned at node {} before its \
                     write began",
                    g.version, g.node
                ),
            ));
        }
        // Stale read: the newest write that completed before this read
        // began is globally visible under linearizability.
        if let Some(visible) = writes
            .iter()
            .filter(|w| w.end_us <= g.start_us)
            .max_by_key(|w| w.version)
        {
            if g.version < visible.version {
                diags.push(Diagnostic::deny(
                    Code::Wc010,
                    format!(
                        "stale read: get of key '{key}' at node {} returned v{} \
                         although v{} had completed before the read began",
                        g.node, g.version, visible.version
                    ),
                ));
            }
        }
    }

    // Per-node monotonic reads.
    let mut per_node: BTreeMap<&str, Vec<&&HistoryEvent>> = BTreeMap::new();
    for g in events.iter().filter(|e| e.kind == HistoryKind::Get) {
        per_node.entry(&g.node).or_default().push(g);
    }
    for (node, gets) in per_node {
        for pair in gets.windows(2) {
            if pair[1].version < pair[0].version {
                diags.push(Diagnostic::deny(
                    Code::Wc010,
                    format!(
                        "non-monotonic reads: node {node} read key '{key}' v{} \
                         then v{}",
                        pair[0].version, pair[1].version
                    ),
                ));
            }
        }
    }
}

/// A node that acknowledged its own write must see it (or newer) on every
/// later read it serves. Reads explicitly marked degraded (served from
/// possibly-stale local state under overload, with client consent) are
/// exempt — the marker is precisely the record of that consent.
fn check_read_your_writes(key: &str, events: &[&HistoryEvent], diags: &mut Vec<Diagnostic>) {
    for p in events.iter().filter(|e| e.kind == HistoryKind::Put) {
        for g in events
            .iter()
            .filter(|e| e.kind == HistoryKind::Get && e.node == p.node && !e.degraded)
        {
            if g.start_us >= p.end_us && g.version < p.version {
                diags.push(Diagnostic::warn(
                    Code::Wc011,
                    format!(
                        "read-your-writes violation: node {} wrote key '{key}' v{} \
                         but a later local read returned v{}",
                        p.node, p.version, g.version
                    ),
                ));
            }
        }
    }
}

/// After quiescence, every replica that stored or applied the key must
/// agree on the final `(version, digest)`.
fn check_convergence(
    key: &str,
    events: &[&HistoryEvent],
    writes: &[Write],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(last) = writes.iter().max_by_key(|w| w.version) else {
        return;
    };
    // Final knowledge per node: the newest version it durably holds —
    // its own puts plus replicated applies (reads are point-in-time
    // evidence, not final state, so they don't count).
    let mut final_by_node: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in events
        .iter()
        .filter(|e| matches!(e.kind, HistoryKind::Put | HistoryKind::ReplicateApply))
    {
        let entry = final_by_node.entry(&e.node).or_insert((0, 0));
        if e.version > entry.0 {
            *entry = (e.version, e.digest);
        }
    }
    for (node, (version, digest)) in final_by_node {
        if version != last.version || (!last.ambiguous && digest != last.digest) {
            diags.push(Diagnostic::deny(
                Code::Wc012,
                format!(
                    "replicas diverged: node {node} settled on key '{key}' v{version} \
                     but the last write was v{}",
                    last.version
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: HistoryKind,
        key: &str,
        version: u64,
        digest: u64,
        node: &str,
        span: (u64, u64),
    ) -> HistoryEvent {
        HistoryEvent {
            kind,
            key: key.into(),
            version,
            digest,
            node: node.into(),
            start_us: span.0,
            end_us: span.1,
            degraded: false,
        }
    }

    const PB_SYNC: Option<ConsistencyModel> = Some(ConsistencyModel::PrimaryBackup { sync: true });

    #[test]
    fn clean_linearizable_history_passes() {
        let h = vec![
            ev(HistoryKind::Put, "k", 1, 0xaa, "p", (0, 100)),
            ev(HistoryKind::Put, "k", 2, 0xbb, "p", (200, 300)),
            ev(HistoryKind::Get, "k", 2, 0xbb, "b", (400, 450)),
        ];
        assert!(check_history(&h, PB_SYNC).is_empty());
    }

    #[test]
    fn stale_read_is_flagged() {
        let h = vec![
            ev(HistoryKind::Put, "k", 1, 0xaa, "p", (0, 100)),
            ev(HistoryKind::Put, "k", 2, 0xbb, "p", (200, 300)),
            ev(HistoryKind::Get, "k", 1, 0xaa, "b", (400, 450)),
        ];
        let diags = check_history(&h, PB_SYNC);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Wc010 && d.message.contains("stale read")));
    }

    #[test]
    fn concurrent_read_may_return_either_version() {
        // The read overlaps the second write: both v1 and v2 are legal.
        let h = vec![
            ev(HistoryKind::Put, "k", 1, 0xaa, "p", (0, 100)),
            ev(HistoryKind::Put, "k", 2, 0xbb, "p", (200, 300)),
            ev(HistoryKind::Get, "k", 1, 0xaa, "b", (250, 290)),
        ];
        assert!(check_history(&h, PB_SYNC).is_empty());
    }

    #[test]
    fn write_order_inversion_is_flagged() {
        let h = vec![
            ev(HistoryKind::Put, "k", 2, 0xbb, "p", (0, 100)),
            ev(HistoryKind::Put, "k", 1, 0xaa, "q", (200, 300)),
        ];
        let diags = check_history(&h, Some(ConsistencyModel::MultiPrimaries));
        assert!(diags.iter().any(|d| d.message.contains("order inversion")));
    }

    #[test]
    fn forwarded_put_merges_to_outer_interval() {
        // Same (key, version, digest) recorded at the backup (outer span,
        // includes the forward) and the primary (inner span): one write.
        let h = vec![
            ev(HistoryKind::Put, "k", 1, 0xaa, "backup", (0, 400)),
            ev(HistoryKind::Put, "k", 1, 0xaa, "primary", (100, 250)),
            ev(HistoryKind::Get, "k", 1, 0xaa, "primary", (500, 550)),
        ];
        assert!(check_history(&h, PB_SYNC).is_empty());
    }

    #[test]
    fn eventual_divergence_is_flagged() {
        let h = vec![
            ev(HistoryKind::Put, "k", 1, 0xaa, "a", (0, 10)),
            ev(HistoryKind::Put, "k", 2, 0xbb, "a", (20, 30)),
            ev(HistoryKind::ReplicateApply, "k", 1, 0xaa, "b", (50, 51)),
            // v2 never reached node b.
        ];
        let diags = check_history(&h, Some(ConsistencyModel::Eventual));
        assert!(diags.iter().any(|d| d.code == Code::Wc012));
    }

    #[test]
    fn eventual_ryw_violation_is_flagged() {
        let h = vec![
            ev(HistoryKind::Put, "k", 5, 0xee, "a", (0, 10)),
            ev(HistoryKind::Get, "k", 4, 0xdd, "a", (20, 21)),
            ev(HistoryKind::Put, "k", 4, 0xdd, "b", (0, 10)),
            ev(HistoryKind::ReplicateApply, "k", 5, 0xee, "b", (40, 41)),
        ];
        let diags = check_history(&h, Some(ConsistencyModel::Eventual));
        assert!(diags.iter().any(|d| d.code == Code::Wc011));
    }

    #[test]
    fn degraded_read_is_exempt_from_ryw_but_unmarked_twin_is_not() {
        // Same stale local read twice: marked degraded it is consented-to
        // staleness, unmarked it is a finding.
        let stale = |degraded| {
            let mut g = ev(HistoryKind::Get, "k", 4, 0xdd, "a", (20, 21));
            g.degraded = degraded;
            vec![
                ev(HistoryKind::Put, "k", 5, 0xee, "a", (0, 10)),
                g,
                ev(HistoryKind::Put, "k", 4, 0xdd, "b", (0, 10)),
                ev(HistoryKind::ReplicateApply, "k", 5, 0xee, "b", (40, 41)),
            ]
        };
        let diags = check_history(&stale(true), Some(ConsistencyModel::Eventual));
        assert!(
            !diags.iter().any(|d| d.code == Code::Wc011),
            "a marked degraded read must not count as a RYW violation: {diags:?}"
        );
        let diags = check_history(&stale(false), Some(ConsistencyModel::Eventual));
        assert!(diags.iter().any(|d| d.code == Code::Wc011));
    }

    #[test]
    fn degraded_marker_roundtrips_from_the_wire_detail() {
        let e = TraceEvent {
            t_us: 100,
            subsystem: "history".into(),
            op: "get".into(),
            region: Some("UsEast".into()),
            node: Some("r1".into()),
            dur_us: Some(10),
            detail: Some("key=obj-1 ver=3 val=00000000deadbeef degraded=1".into()),
        };
        let (hist, diags) = extract_history(&[e]);
        assert!(diags.is_empty());
        assert!(hist[0].degraded);
    }

    #[test]
    fn a_trace_that_dropped_events_fails_the_run() {
        use wiera_policy::diag::worst_is_deny;
        use wiera_sim::{SimDuration, SimInstant};
        let record = |tracer: &Tracer| {
            for (t, ver) in [(0, 1), (200, 2), (400, 3)] {
                let at = |us| SimInstant::EPOCH + SimDuration::from_micros(us);
                tracer
                    .span(at(t), "history", "put")
                    .node("p")
                    .object("k", ver, 0xa0 + ver, false)
                    .finish(at(t + 100));
            }
        };
        let whole = Tracer::with_capacity(3);
        record(&whole);
        assert!(check_trace(&whole, PB_SYNC).is_empty());
        // The same writes through a ring one record short: what survives
        // is a clean history, yet the run fails.
        let truncated = Tracer::with_capacity(2);
        record(&truncated);
        let diags = check_trace(&truncated, PB_SYNC);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Wc013);
        assert!(diags[0]
            .message
            .contains("its 1 oldest events were dropped"));
        assert!(worst_is_deny(&diags, false));
    }

    #[test]
    fn empty_history_is_a_wc013_note() {
        let diags = check_history(&[], PB_SYNC);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Wc013);
    }

    #[test]
    fn extract_roundtrips_replica_detail_format() {
        let e = TraceEvent {
            t_us: 100,
            subsystem: "history".into(),
            op: "put".into(),
            region: Some("UsEast".into()),
            node: Some("r1".into()),
            dur_us: Some(50),
            detail: Some("key=obj-1 ver=3 val=00000000deadbeef".into()),
        };
        let (hist, diags) = extract_history(&[e]);
        assert!(diags.is_empty());
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].key, "obj-1");
        assert_eq!(hist[0].version, 3);
        assert_eq!(hist[0].digest, 0xdead_beef);
        assert_eq!(hist[0].end_us, 150);
    }
}
