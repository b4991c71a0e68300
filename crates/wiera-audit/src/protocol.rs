//! Protocol-model extraction: from handler sources to a finite transition
//! system.
//!
//! For every `DataMsg`/`CoordMsg` match arm inside a handler function
//! (`dispatch` / `handle_*`), extraction derives one guarded transition:
//!
//! * **guards** — predicates the arm reads before acting: an epoch fence
//!   (`epoch < self.epoch()` / write-guarded `epoch >= s.epoch` /
//!   `StaleEpoch` replies), a primary check, a lease check;
//! * **effects** — state the arm mutates: metastore writes, epoch bumps,
//!   primary changes, queue operations, history records;
//! * **emits** — wire messages the arm constructs: replies (`MultiReply`,
//!   `ReplicateAck`, `Ok`, …), forwards (`Replicate`, `ForwardPut`), and
//!   control broadcasts (`ChangePrimary`, `SetPeers`).
//!
//! Evidence is collected both directly in the arm body and transitively
//! through the resolved call graph (bounded fixpoint closures), so a
//! `Put` arm that mutates through `write_items -> write_local ->
//! inst.put` still extracts a `StoreWrite` effect.
//!
//! The extracted [`ProtocolModel`] renders as a human-auditable JSON
//! document and a DOT graph, feeds the WS110–WS114 local-property checks
//! below, and is the input `wiera-model` exhaustively explores. Like the
//! rest of the auditor the extraction is lexical and deliberately
//! unsound in both directions; WS105/WS114 make the blind spots explicit
//! rather than silent (see DESIGN.md §13).

use crate::callgraph::{is_widen_blocked, Model};
use crate::checks::{allowed, is_handler, Finding};
use crate::items::SourceFile;
use crate::lexer::Tok;
use crate::summary::fence_evidence_in;
use std::collections::{BTreeMap, BTreeSet};
use wiera_policy::diag::{Code, Diagnostic, Span};

/// Enums whose variants make up the wire protocol.
pub const WIRE_ENUMS: [&str; 2] = ["DataMsg", "CoordMsg"];

/// A predicate a handler arm reads before acting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Guard {
    /// Refuses stale epochs (compare against the local epoch, or reply
    /// `StaleEpoch`).
    EpochFence,
    /// Branches on primaryship (`self.is_primary()` or a `primary`
    /// comparison).
    PrimaryCheck,
    /// Branches on lease validity.
    LeaseCheck,
}

impl Guard {
    pub fn as_str(self) -> &'static str {
        match self {
            Guard::EpochFence => "epoch-fence",
            Guard::PrimaryCheck => "primary-check",
            Guard::LeaseCheck => "lease-check",
        }
    }
}

/// State a handler arm mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Writes the object store / metastore.
    StoreWrite,
    /// Writes the node's epoch.
    EpochBump,
    /// Writes the node's primary designation.
    PrimaryChange,
    /// Touches the replication queue (enqueue/flush).
    QueueOp,
    /// Records an op-history span for the consistency oracle.
    HistoryRecord,
}

impl Effect {
    pub fn as_str(self) -> &'static str {
        match self {
            Effect::StoreWrite => "store-write",
            Effect::EpochBump => "epoch-bump",
            Effect::PrimaryChange => "primary-change",
            Effect::QueueOp => "queue-op",
            Effect::HistoryRecord => "history-record",
        }
    }
}

/// How an emitted message leaves the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EmitKind {
    /// Answers the delivery's reply slot.
    Reply,
    /// Re-sends work to one peer (replication, forwarded writes).
    Forward,
    /// Control-plane fan-out to every peer.
    Broadcast,
}

impl EmitKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EmitKind::Reply => "reply",
            EmitKind::Forward => "forward",
            EmitKind::Broadcast => "broadcast",
        }
    }
}

/// One message construction inside an arm body.
#[derive(Debug, Clone)]
pub struct Emit {
    pub kind: EmitKind,
    /// `Enum::Variant` of the constructed message.
    pub msg_enum: String,
    pub variant: String,
    /// Token index of the construction (ordering evidence).
    pub pos: usize,
}

/// One guarded transition: what a handler arm does to the node.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Handler function containing the arm.
    pub handler: String,
    pub file: usize,
    pub span: Span,
    /// Wire enum the arm matches on.
    pub msg_enum: String,
    /// Variant names (or-patterns keep all of them).
    pub variants: Vec<String>,
    /// The pattern binds an `epoch` payload field.
    pub binds_epoch: bool,
    pub guards: BTreeSet<Guard>,
    pub effects: BTreeSet<Effect>,
    pub emits: Vec<Emit>,
    /// Token index of the first reply-kind emit, for ordering checks.
    pub first_reply_pos: Option<usize>,
    /// Token index of the first state mutation (direct or via the call
    /// that transitively reaches one).
    pub first_mutation_pos: Option<usize>,
    /// Arm body size in tokens (0/1 = intentional no-op arm).
    pub body_tokens: usize,
}

/// The extracted finite model: every handler arm as a guarded transition.
#[derive(Debug, Default)]
pub struct ProtocolModel {
    pub transitions: Vec<Transition>,
}

// ---------------------------------------------------------------------------
// Evidence vocabularies (tuned against the real replica/coordinator idiom)
// ---------------------------------------------------------------------------

/// Method names that write the object store when hung off a store-ish
/// receiver (`self.inst.put(..)`, `meta.update(..)`).
const STORE_METHODS: [&str; 10] = [
    "put",
    "update",
    "insert",
    "remove",
    "remove_version",
    "apply_replicated",
    "apply_batch",
    "ingest",
    "merge",
    "compare_and_put",
];

/// Receiver identifiers that designate the store.
const STORE_RECEIVERS: [&str; 8] = [
    "inst",
    "store",
    "meta",
    "metastore",
    "tier",
    "tiers",
    "db",
    "shard",
];

/// Method names that are store writes regardless of receiver (the
/// unambiguous spellings fixtures and helpers use).
const STORE_METHODS_ANY_RECV: [&str; 8] = [
    "apply_replicated",
    "apply_batch",
    "apply_put",
    "apply_local",
    "apply_remote",
    "store_put",
    "write_local",
    "put_local",
];

/// Reply-slot call names (`reply(slot, msg, took)` closures included).
const QUEUE_CALL_PREFIXES: [&str; 2] = ["flush_", "enqueue"];

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Is `variant` a response message (answers a reply slot) rather than a
/// request/control message?
pub fn is_reply_variant(variant: &str) -> bool {
    variant.ends_with("Reply")
        || variant.ends_with("Ack")
        || matches!(variant, "Ok" | "Pong" | "Fail" | "Granted" | "Denied")
}

fn emit_kind_of(variant: &str) -> EmitKind {
    if is_reply_variant(variant) {
        EmitKind::Reply
    } else if matches!(
        variant,
        "ChangePrimary" | "SetPeers" | "ChangeConsistency" | "Stop"
    ) {
        EmitKind::Broadcast
    } else {
        EmitKind::Forward
    }
}

/// Direct (lexical) evidence found in one token range.
#[derive(Debug, Default, Clone)]
struct DirectEv {
    store_write: Option<usize>,
    epoch_write: Option<usize>,
    primary_change: Option<usize>,
    queue_op: Option<usize>,
    history: Option<usize>,
    primary_check: bool,
    lease_check: bool,
}

fn ident_at(f: &SourceFile, i: usize) -> Option<&str> {
    match f.tok(i) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_p(f: &SourceFile, i: usize, p: &str) -> bool {
    matches!(f.tok(i), Some(Tok::P(x)) if *x == p)
}

/// Scan `range` for direct effect/guard evidence.
fn direct_evidence(f: &SourceFile, range: (usize, usize)) -> DirectEv {
    let (lo, hi) = range;
    let hi = hi.min(f.tokens.len().saturating_sub(1));
    let mut ev = DirectEv::default();
    let mut i = lo;
    while i <= hi {
        let Some(name) = ident_at(f, i) else {
            i += 1;
            continue;
        };
        // -- store writes: `recv.method(` -----------------------------------
        if is_p(f, i + 1, "(") {
            let method_ok = STORE_METHODS.contains(&name);
            let any_recv_ok = STORE_METHODS_ANY_RECV.contains(&name);
            if (method_ok || any_recv_ok) && is_p(f, i.wrapping_sub(1), ".") {
                let recv = ident_at(f, i.wrapping_sub(2)).unwrap_or("");
                let store_recv = STORE_RECEIVERS.iter().any(|r| recv.contains(r));
                if (method_ok && store_recv) || any_recv_ok {
                    ev.store_write.get_or_insert(i);
                }
            }
            if name == "record_history" {
                ev.history.get_or_insert(i);
            }
            if name == "set_primary" || name == "promote" || name == "become_primary" {
                ev.primary_change.get_or_insert(i);
            }
            if QUEUE_CALL_PREFIXES.iter().any(|p| name.starts_with(p)) {
                ev.queue_op.get_or_insert(i);
            }
        }
        // -- field writes: `x.epoch = …` / `x.epoch += 1` / `x.primary = …` -
        if name == "epoch" && is_p(f, i.wrapping_sub(1), ".") {
            let plain_assign = is_p(f, i + 1, "=") && !is_p(f, i + 2, "=");
            let increment = is_p(f, i + 1, "+") && is_p(f, i + 2, "=");
            if plain_assign || increment {
                ev.epoch_write.get_or_insert(i);
            }
        }
        if name == "primary" && is_p(f, i.wrapping_sub(1), ".") {
            let plain_assign = is_p(f, i + 1, "=") && !is_p(f, i + 2, "=");
            if plain_assign {
                ev.primary_change.get_or_insert(i);
            }
        }
        // -- queue touch: `queue.lock()` ------------------------------------
        if name == "queue" && is_p(f, i + 1, ".") {
            ev.queue_op.get_or_insert(i);
        }
        // -- guard evidence -------------------------------------------------
        if name == "is_primary" {
            ev.primary_check = true;
        }
        if name == "primary" || name.ends_with("_primary") {
            // `primary` near an equality operator is a primaryship branch.
            let lo_w = i.saturating_sub(3);
            let hi_w = (i + 3).min(hi);
            for w in lo_w..=hi_w {
                if matches!(f.tok(w), Some(Tok::P("==")) | Some(Tok::P("!="))) {
                    ev.primary_check = true;
                }
            }
        }
        if name.contains("lease") {
            ev.lease_check = true;
        }
        i += 1;
    }
    ev
}

/// Wire-message constructions in `range` (expression position only —
/// pattern occurrences in nested matches / `let` bindings are skipped).
fn collect_emits(f: &SourceFile, range: (usize, usize)) -> Vec<Emit> {
    let (lo, hi) = range;
    let hi = hi.min(f.tokens.len().saturating_sub(1));
    let mut out = Vec::new();
    let mut i = lo;
    while i + 2 <= hi {
        let (Some(Tok::Ident(e)), true, Some(Tok::Ident(v))) =
            (f.tok(i), is_p(f, i + 1, "::"), f.tok(i + 2))
        else {
            i += 1;
            continue;
        };
        if !WIRE_ENUMS.contains(&e.as_str()) || !starts_upper(v) {
            i += 1;
            continue;
        }
        // Pattern positions: `let DataMsg::X`, or followed (after one
        // payload group) by `=>` / `|`.
        let preceded_by_let = matches!(ident_at(f, i.wrapping_sub(1)), Some("let"));
        let mut after = i + 3;
        if is_p(f, after, "{") || is_p(f, after, "(") {
            after = f.close_of(after) + 1;
        }
        let pattern_pos = preceded_by_let || is_p(f, after, "=>") || is_p(f, after, "|");
        if !pattern_pos {
            out.push(Emit {
                kind: emit_kind_of(v),
                msg_enum: e.clone(),
                variant: v.clone(),
                pos: i,
            });
        }
        i = (i + 3).max(after.min(hi + 1));
    }
    out
}

/// Per-function closures the transition builder consults for transitive
/// evidence reached through calls.
struct Closures {
    fence: Vec<bool>,
    store: Vec<bool>,
    epoch: Vec<bool>,
    primary: Vec<bool>,
    queue: Vec<bool>,
    history: Vec<bool>,
    primary_check: Vec<bool>,
    lease_check: Vec<bool>,
}

fn fn_evidence(m: &Model) -> Vec<DirectEv> {
    m.fns
        .iter()
        .map(|d| match (d.body, m.files.get(d.file)) {
            (Some(b), Some(f)) => direct_evidence(f, b),
            _ => DirectEv::default(),
        })
        .collect()
}

fn closures(m: &Model, ev: &[DirectEv]) -> Closures {
    Closures {
        fence: m.bool_closure(|f| m.summaries[f].fence_direct),
        store: m.bool_closure(|f| ev[f].store_write.is_some()),
        epoch: m.bool_closure(|f| ev[f].epoch_write.is_some()),
        primary: m.bool_closure(|f| ev[f].primary_change.is_some()),
        queue: m.bool_closure(|f| ev[f].queue_op.is_some()),
        history: m.bool_closure(|f| m.fns[f].name == "record_history"),
        primary_check: m.bool_closure(|f| ev[f].primary_check),
        lease_check: m.bool_closure(|f| ev[f].lease_check),
    }
}

/// Extract the protocol model from a built [`Model`].
pub fn extract(m: &Model) -> ProtocolModel {
    let ev = fn_evidence(m);
    let cls = closures(m, &ev);
    let mut transitions = Vec::new();

    for (fid, s) in m.summaries.iter().enumerate() {
        if m.fns[fid].is_test || !is_handler(&m.fns[fid].name) {
            continue;
        }
        let Some(file) = m.files.get(m.fns[fid].file) else {
            continue;
        };
        for arm in &s.arms {
            // Group the arm's pairs per wire enum (or-patterns may mix).
            let mut per_enum: BTreeMap<&str, Vec<String>> = BTreeMap::new();
            for (e, v) in &arm.pairs {
                if WIRE_ENUMS.contains(&e.as_str()) {
                    per_enum.entry(e.as_str()).or_default().push(v.clone());
                }
            }
            if per_enum.is_empty() {
                continue;
            }
            let binds_epoch = {
                let (lo, hi) = arm.pat;
                (lo..=hi.min(file.tokens.len().saturating_sub(1)))
                    .any(|i| matches!(ident_at(file, i), Some("epoch")))
            };
            let direct = direct_evidence(file, arm.body);
            let fence_direct = fence_evidence_in(file, arm.body);
            let emits = collect_emits(file, arm.body);

            let mut guards = BTreeSet::new();
            let mut effects = BTreeSet::new();
            let mut first_mutation = [
                direct.store_write,
                direct.epoch_write,
                direct.primary_change,
            ]
            .iter()
            .flatten()
            .copied()
            .min();
            if fence_direct {
                guards.insert(Guard::EpochFence);
            }
            if direct.primary_check {
                guards.insert(Guard::PrimaryCheck);
            }
            if direct.lease_check {
                guards.insert(Guard::LeaseCheck);
            }
            if direct.store_write.is_some() {
                effects.insert(Effect::StoreWrite);
            }
            if direct.epoch_write.is_some() {
                effects.insert(Effect::EpochBump);
            }
            if direct.primary_change.is_some() {
                effects.insert(Effect::PrimaryChange);
            }
            if direct.queue_op.is_some() {
                effects.insert(Effect::QueueOp);
            }
            if direct.history.is_some() {
                effects.insert(Effect::HistoryRecord);
            }

            // Transitive evidence through calls made inside the arm.
            for (ci, c) in s.calls.iter().enumerate() {
                if c.pos < arm.body.0 || c.pos > arm.body.1 {
                    continue;
                }
                for &t in &m.resolved[fid][ci] {
                    if cls.fence[t] {
                        guards.insert(Guard::EpochFence);
                    }
                    if cls.primary_check[t] {
                        guards.insert(Guard::PrimaryCheck);
                    }
                    if cls.lease_check[t] {
                        guards.insert(Guard::LeaseCheck);
                    }
                    if cls.store[t] {
                        effects.insert(Effect::StoreWrite);
                        first_mutation = Some(first_mutation.unwrap_or(c.pos).min(c.pos));
                    }
                    if cls.epoch[t] {
                        effects.insert(Effect::EpochBump);
                        first_mutation = Some(first_mutation.unwrap_or(c.pos).min(c.pos));
                    }
                    if cls.primary[t] {
                        effects.insert(Effect::PrimaryChange);
                        first_mutation = Some(first_mutation.unwrap_or(c.pos).min(c.pos));
                    }
                    if cls.queue[t] {
                        effects.insert(Effect::QueueOp);
                    }
                    if cls.history[t] || c.name == "record_history" {
                        effects.insert(Effect::HistoryRecord);
                    }
                }
            }

            let first_reply_pos = emits
                .iter()
                .filter(|e| e.kind == EmitKind::Reply)
                .map(|e| e.pos)
                .min();
            let body_tokens = arm.body.1.saturating_sub(arm.body.0);

            for (msg_enum, variants) in per_enum {
                transitions.push(Transition {
                    handler: m.fns[fid].name.clone(),
                    file: m.fns[fid].file,
                    span: arm.span,
                    msg_enum: msg_enum.to_string(),
                    variants: variants.clone(),
                    binds_epoch,
                    guards: guards.clone(),
                    effects: effects.clone(),
                    emits: emits.clone(),
                    first_reply_pos,
                    first_mutation_pos: first_mutation,
                    body_tokens,
                });
            }
        }
    }
    ProtocolModel { transitions }
}

impl ProtocolModel {
    /// Variants some handler arm matches on.
    pub fn handled_variants(&self) -> BTreeSet<String> {
        self.transitions
            .iter()
            .flat_map(|t| t.variants.iter().cloned())
            .collect()
    }

    /// `(in-variant, out-variant)` message edges of the model: receiving
    /// the first may cause the node to emit the second.
    pub fn message_edges(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        for t in &self.transitions {
            for v in &t.variants {
                for e in &t.emits {
                    out.insert((v.clone(), e.variant.clone()));
                }
            }
        }
        out
    }

    /// Does any arm handling `variant` carry an epoch fence?
    pub fn fenced(&self, variant: &str) -> bool {
        self.transitions
            .iter()
            .filter(|t| t.variants.iter().any(|v| v == variant))
            .any(|t| t.guards.contains(&Guard::EpochFence))
    }

    /// Is `variant` handled by at least one arm?
    pub fn handles(&self, variant: &str) -> bool {
        self.transitions
            .iter()
            .any(|t| t.variants.iter().any(|v| v == variant))
    }

    /// Token position ordering for a variant's first reply vs mutation:
    /// `Some(true)` when a reply is emitted before any state mutation.
    pub fn acks_before_mutation(&self, variant: &str) -> Option<bool> {
        for t in &self.transitions {
            if !t.variants.iter().any(|v| v == variant) {
                continue;
            }
            if let (Some(r), Some(w)) = (t.first_reply_pos, t.first_mutation_pos) {
                return Some(r < w);
            }
        }
        None
    }

    /// Human-auditable JSON artifact.
    pub fn to_json(&self, m: &Model) -> String {
        let mut items = Vec::new();
        for t in &self.transitions {
            let origin = m
                .files
                .get(t.file)
                .map(|f| f.origin.as_str())
                .unwrap_or("?");
            let guards: Vec<String> = t.guards.iter().map(|g| quoted(g.as_str())).collect();
            let effects: Vec<String> = t.effects.iter().map(|e| quoted(e.as_str())).collect();
            let emits: Vec<String> = t
                .emits
                .iter()
                .map(|e| {
                    format!(
                        "{{\"kind\":{},\"msg\":{}}}",
                        quoted(e.kind.as_str()),
                        quoted(&format!("{}::{}", e.msg_enum, e.variant))
                    )
                })
                .collect();
            let variants: Vec<String> = t.variants.iter().map(|v| quoted(v)).collect();
            items.push(format!(
                "{{\"handler\":{},\"origin\":{},\"line\":{},\"msg_enum\":{},\
                 \"variants\":[{}],\"binds_epoch\":{},\"guards\":[{}],\
                 \"effects\":[{}],\"emits\":[{}]}}",
                quoted(&t.handler),
                quoted(origin),
                t.span.line,
                quoted(&t.msg_enum),
                variants.join(","),
                t.binds_epoch,
                guards.join(","),
                effects.join(","),
                emits.join(","),
            ));
        }
        format!("{{\"transitions\":[\n{}\n]}}", items.join(",\n"))
    }

    /// DOT graph: message variants (ellipses) flow into handler arms
    /// (boxes) and out to emitted variants. Fenced arms render solid;
    /// unfenced epoch-bearing arms render red.
    pub fn to_dot(&self, m: &Model) -> String {
        let mut out =
            String::from("digraph wiera_protocol {\n  rankdir=LR;\n  node [fontsize=10];\n");
        let mut msg_nodes: BTreeSet<String> = BTreeSet::new();
        for (i, t) in self.transitions.iter().enumerate() {
            let origin = m
                .files
                .get(t.file)
                .map(|f| f.origin.as_str())
                .unwrap_or("?");
            let fenced = t.guards.contains(&Guard::EpochFence);
            let color = if t.binds_epoch && !fenced {
                "red"
            } else {
                "black"
            };
            let label = format!(
                "{}\\n[{}]\\n{}:{}",
                t.variants.join("|"),
                t.effects
                    .iter()
                    .map(|e| e.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                origin,
                t.span.line
            );
            out.push_str(&format!(
                "  arm{i} [shape=box,color={color},label=\"{label}\"];\n"
            ));
            for v in &t.variants {
                msg_nodes.insert(format!("{}::{}", t.msg_enum, v));
                out.push_str(&format!("  \"{}::{}\" -> arm{i};\n", t.msg_enum, v));
            }
            for e in &t.emits {
                msg_nodes.insert(format!("{}::{}", e.msg_enum, e.variant));
                out.push_str(&format!(
                    "  arm{i} -> \"{}::{}\" [style={},label=\"{}\"];\n",
                    e.msg_enum,
                    e.variant,
                    if e.kind == EmitKind::Reply {
                        "dashed"
                    } else {
                        "solid"
                    },
                    e.kind.as_str()
                ));
            }
        }
        for n in msg_nodes {
            out.push_str(&format!("  \"{n}\" [shape=ellipse];\n"));
        }
        out.push_str("}\n");
        out
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// WS110–WS114: local properties of the extracted model
// ---------------------------------------------------------------------------

/// DataMsg variants that arrive with a reply slot and must answer it.
const REPLY_EXPECTED: [&str; 12] = [
    "Put",
    "Get",
    "GetVersion",
    "GetVersionList",
    "Remove",
    "RemoveVersion",
    "ForwardPut",
    "Ping",
    "DigestRequest",
    "FetchObjects",
    "Replicate",
    "SetPeers",
];

/// Variants whose arms write client-visible data (ordering-checked).
const WRITE_VARIANTS: [&str; 3] = ["Put", "ForwardPut", "Replicate"];

/// Run the WS110–WS114 local-property checks over the extracted model.
pub fn protocol_checks(m: &Model, pm: &ProtocolModel) -> Vec<Finding> {
    let mut out = Vec::new();
    let cls_emits = m.bool_closure(|f| match (m.fns[f].body, m.files.get(m.fns[f].file)) {
        (Some(b), Some(file)) => collect_emits(file, b)
            .iter()
            .any(|e| e.kind == EmitKind::Reply),
        _ => false,
    });

    for t in &pm.transitions {
        let line = t.span.line;
        let label = format!("{}::{}", t.msg_enum, t.variants.join("|"));

        // WS110: epoch-bearing arm mutates state without an epoch guard.
        let mutates = t.effects.contains(&Effect::StoreWrite)
            || t.effects.contains(&Effect::EpochBump)
            || t.effects.contains(&Effect::PrimaryChange);
        if t.binds_epoch
            && mutates
            && !t.guards.contains(&Guard::EpochFence)
            && !allowed(m, t.file, "WS110", line)
        {
            out.push(Finding {
                file: Some(t.file),
                diag: Diagnostic::deny(
                    Code::Ws110,
                    format!(
                        "handler arm for {label} carries an epoch but mutates \
                         state without an epoch guard"
                    ),
                )
                .at(t.span)
                .with_note(
                    "a stale-epoch sender (deposed primary, delayed control \
                     message) can corrupt post-failover state; dominate the \
                     mutation with an epoch compare"
                        .to_string(),
                ),
            });
        }

        // WS111: request arm with no reply on any extracted path.
        let expects_reply = t.msg_enum == "DataMsg"
            && t.variants
                .iter()
                .any(|v| REPLY_EXPECTED.contains(&v.as_str()));
        if expects_reply {
            let direct = t.emits.iter().any(|e| e.kind == EmitKind::Reply);
            if !direct
                && !arm_calls_reach(m, t, |x| cls_emits[x])
                && !allowed(m, t.file, "WS111", line)
            {
                out.push(Finding {
                    file: Some(t.file),
                    diag: Diagnostic::deny(
                        Code::Ws111,
                        format!("handler arm for {label} emits no reply on any extracted path"),
                    )
                    .at(t.span)
                    .with_note(
                        "a request without a reply leaves the sender's RPC slot \
                         hanging until timeout"
                            .to_string(),
                    ),
                });
            }
        }

        // WS112: reply ordered before the arm's own mutation.
        let is_write = t.msg_enum == "DataMsg"
            && t.variants
                .iter()
                .any(|v| WRITE_VARIANTS.contains(&v.as_str()));
        if is_write {
            if let (Some(r), Some(w)) = (t.first_reply_pos, t.first_mutation_pos) {
                if r < w && !allowed(m, t.file, "WS112", line) {
                    out.push(Finding {
                        file: Some(t.file),
                        diag: Diagnostic::warn(
                            Code::Ws112,
                            format!(
                                "handler arm for {label} emits its reply before the \
                                 state mutation commits"
                            ),
                        )
                        .at(t.span)
                        .with_note(
                            "an acknowledged-but-uncommitted write is lost if the \
                             node crashes between the ack and the mutation"
                                .to_string(),
                        ),
                    });
                }
            }
        }

        // WS114: non-trivial arm with an empty extraction.
        if t.body_tokens > 3
            && t.guards.is_empty()
            && t.effects.is_empty()
            && t.emits.is_empty()
            && !arm_resolves_any_call(m, t)
            && !allowed(m, t.file, "WS114", line)
        {
            out.push(Finding {
                file: Some(t.file),
                diag: Diagnostic::note(
                    Code::Ws114,
                    format!("handler arm for {label} extracted to an empty transition"),
                )
                .at(t.span)
                .with_note(
                    "the model checker treats this arm as a no-op; if it does \
                     anything real, extraction is blind to it"
                        .to_string(),
                ),
            });
        }
    }

    ws113_epoch_monotonic(m, &mut out);
    out
}

/// Does any call inside the transition's arm resolve to user code?
fn arm_resolves_any_call(m: &Model, t: &Transition) -> bool {
    arm_calls_reach(m, t, |_| true)
}

/// Does any call lexically inside the transition's arm resolve to a
/// function satisfying `pred`? Locates the arm by matching the handler
/// fn and the arm's span line.
fn arm_calls_reach(m: &Model, t: &Transition, pred: impl Fn(usize) -> bool) -> bool {
    for (fid, d) in m.fns.iter().enumerate() {
        if d.file != t.file || d.name != t.handler {
            continue;
        }
        for arm in &m.summaries[fid].arms {
            if arm.span.line != t.span.line {
                continue;
            }
            let hit = m.summaries[fid]
                .calls
                .iter()
                .enumerate()
                .filter(|(_, c)| c.pos >= arm.body.0 && c.pos <= arm.body.1)
                .any(|(ci, _)| m.resolved[fid][ci].iter().any(|&x| pred(x)));
            if hit {
                return true;
            }
        }
    }
    false
}

/// WS113: `x.epoch = <foreign>` with no monotonic guard in the function.
fn ws113_epoch_monotonic(m: &Model, out: &mut Vec<Finding>) {
    for (fid, d) in m.fns.iter().enumerate() {
        if d.is_test {
            continue;
        }
        let Some((b0, b1)) = d.body else { continue };
        let Some(f) = m.files.get(d.file) else {
            continue;
        };
        let hi = b1.min(f.tokens.len().saturating_sub(1));
        let mut i = b0;
        while i <= hi {
            if !matches!(ident_at(f, i), Some("epoch")) || !is_p(f, i.wrapping_sub(1), ".") {
                i += 1;
                continue;
            }
            let plain_assign = is_p(f, i + 1, "=") && !is_p(f, i + 2, "=");
            if !plain_assign {
                i += 1;
                continue;
            }
            // Monotonic forms: `x.epoch = x.epoch.max(e)` — a `max` within
            // the RHS window.
            let monotonic = (i + 2..(i + 10).min(hi))
                .any(|j| matches!(ident_at(f, j), Some("max") | Some("saturating_add")));
            let fenced = m.summaries[fid].fence_direct;
            if !monotonic && !fenced && !allowed(m, d.file, "WS113", f.span(i).line) {
                out.push(Finding {
                    file: Some(d.file),
                    diag: Diagnostic::deny(
                        Code::Ws113,
                        format!(
                            "{} overwrites the epoch from a foreign value with no \
                             monotonic guard",
                            d.name
                        ),
                    )
                    .at(f.span(i))
                    .with_note(
                        "epochs must only move forward; compare before assigning \
                         or use a max() merge"
                            .to_string(),
                    ),
                });
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// WS105: extraction blind spots reachable from data-path entries
// ---------------------------------------------------------------------------

/// Count unresolved and widened call sites reachable from data-path
/// handlers; returns `(unresolved, widened, examples)` and pushes a
/// WS105 note when any exist.
pub fn ws105_blind_spots(m: &Model, out: &mut Vec<Finding>) -> (usize, usize) {
    // Reachable set: BFS from handler entries over resolved edges.
    let mut reach: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (f, d) in m.fns.iter().enumerate() {
        if !d.is_test && is_handler(&d.name) && d.body.is_some() {
            reach.insert(f);
            queue.push(f);
        }
    }
    let mut depth = 0usize;
    while !queue.is_empty() && depth < m.cfg.max_rounds {
        let mut next = Vec::new();
        for f in queue.drain(..) {
            for targets in &m.resolved[f] {
                for &t in targets {
                    if reach.insert(t) {
                        next.push(t);
                    }
                }
            }
        }
        queue = next;
        depth += 1;
    }

    let mut unresolved = 0usize;
    let mut widened = 0usize;
    let mut examples: Vec<String> = Vec::new();
    for &f in &reach {
        let origin = m
            .files
            .get(m.fns[f].file)
            .map(|x| x.origin.as_str())
            .unwrap_or("?");
        for (ci, c) in m.summaries[f].calls.iter().enumerate() {
            if m.widened[f][ci] {
                widened += 1;
                if examples.len() < 3 {
                    examples.push(format!("{} (widened, {}:{})", c.name, origin, c.span.line));
                }
            } else if m.resolved[f][ci].is_empty() && !is_widen_blocked(&c.name) {
                unresolved += 1;
                if examples.len() < 3 {
                    examples.push(format!(
                        "{} (unresolved, {}:{})",
                        c.name, origin, c.span.line
                    ));
                }
            }
        }
    }

    if unresolved + widened > 0 {
        let mut d = Diagnostic::note(
            Code::Ws105,
            format!(
                "protocol extraction blind spots: {unresolved} unresolved and \
                 {widened} widened call sites reachable from data-path entries"
            ),
        );
        for e in examples {
            d = d.with_note(e);
        }
        d = d.with_note(
            "effects behind these calls are invisible to the extracted model; \
             see DESIGN.md §13 soundness caveats"
                .to_string(),
        );
        out.push(Finding {
            file: None,
            diag: d,
        });
    }
    (unresolved, widened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Config, Model};
    use crate::items::SourceFile;

    fn build(sources: &[(&str, &str)]) -> (Model, ProtocolModel) {
        let files = sources
            .iter()
            .map(|(origin, src)| {
                SourceFile::new(origin.to_string(), "testcrate".to_string(), src.to_string())
            })
            .collect();
        let m = Model::build(files, Config::default());
        let pm = extract(&m);
        (m, pm)
    }

    const FENCED_HANDLER: &str = "\
        enum DataMsg { Replicate { key: String, epoch: u64 }, Ping, Pong, ReplicateAck { applied: bool } }\n\
        impl Node {\n\
          fn handle_inline(&self, d: DataMsg) { match d {\n\
            DataMsg::Replicate { key, epoch } => {\n\
              if epoch < self.epoch() { reply(stale_epoch_fail(epoch, self.epoch())); return; }\n\
              self.inst.apply_replicated(&key);\n\
              self.record_history();\n\
              reply2(DataMsg::ReplicateAck { applied: true });\n\
            }\n\
            DataMsg::Ping => { reply2(DataMsg::Pong); }\n\
            _ => {}\n\
          } }\n\
          fn epoch(&self) -> u64 { 0 }\n\
          fn record_history(&self) {}\n\
        }\n";

    #[test]
    fn fenced_replicate_extracts_guard_effect_emit() {
        let (_, pm) = build(&[("n.rs", FENCED_HANDLER)]);
        let t = pm
            .transitions
            .iter()
            .find(|t| t.variants == vec!["Replicate".to_string()])
            .expect("replicate transition");
        assert!(t.binds_epoch);
        assert!(t.guards.contains(&Guard::EpochFence));
        assert!(t.effects.contains(&Effect::StoreWrite));
        assert!(t.effects.contains(&Effect::HistoryRecord));
        assert!(t
            .emits
            .iter()
            .any(|e| e.variant == "ReplicateAck" && e.kind == EmitKind::Reply));
        assert!(pm.fenced("Replicate"));
    }

    #[test]
    fn unfenced_mutation_raises_ws110() {
        let src = "\
            enum DataMsg { Replicate { key: String, epoch: u64 }, ReplicateAck { applied: bool } }\n\
            impl Node { fn handle_inline(&self, d: DataMsg) { match d {\n\
              DataMsg::Replicate { key, epoch } => {\n\
                self.inst.apply_replicated(&key);\n\
                reply2(DataMsg::ReplicateAck { applied: true });\n\
              }\n\
              _ => {}\n\
            } } }\n";
        let (m, pm) = build(&[("n.rs", src)]);
        let f = protocol_checks(&m, &pm);
        assert!(
            f.iter().any(|x| x.diag.compact().starts_with("WS110 deny")),
            "{:?}",
            f.iter().map(|x| x.diag.compact()).collect::<Vec<_>>()
        );
        assert!(!pm.fenced("Replicate"));
    }

    #[test]
    fn missing_reply_raises_ws111() {
        let src = "\
            enum DataMsg { Get { key: String } }\n\
            impl Node { fn handle_app_op(&self, d: DataMsg) { match d {\n\
              DataMsg::Get { key } => { let v = self.lookup(key); }\n\
            } } fn lookup(&self, k: String) -> u64 { 0 } }\n";
        let (m, pm) = build(&[("n.rs", src)]);
        let f = protocol_checks(&m, &pm);
        assert!(
            f.iter().any(|x| x.diag.compact().starts_with("WS111 deny")),
            "{:?}",
            f.iter().map(|x| x.diag.compact()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ack_before_commit_raises_ws112() {
        let src = "\
            enum DataMsg { Put { key: String }, PutAck { version: u64 } }\n\
            impl Node { fn handle_app_op(&self, d: DataMsg) { match d {\n\
              DataMsg::Put { key } => {\n\
                reply2(DataMsg::PutAck { version: 1 });\n\
                self.inst.put(&key);\n\
              }\n\
            } } }\n";
        let (m, pm) = build(&[("n.rs", src)]);
        let f = protocol_checks(&m, &pm);
        assert!(
            f.iter().any(|x| x.diag.compact().starts_with("WS112 warn")),
            "{:?}",
            f.iter().map(|x| x.diag.compact()).collect::<Vec<_>>()
        );
        assert_eq!(pm.acks_before_mutation("Put"), Some(true));
    }

    #[test]
    fn foreign_epoch_write_raises_ws113_and_guarded_is_clean() {
        let bad =
            "impl N { fn adopt(&self, e: u64) { let mut s = self.state.write(); s.epoch = e; } }";
        let (m, pm) = build(&[("n.rs", bad)]);
        let f = protocol_checks(&m, &pm);
        assert!(
            f.iter().any(|x| x.diag.compact().starts_with("WS113 deny")),
            "{:?}",
            f.iter().map(|x| x.diag.compact()).collect::<Vec<_>>()
        );
        let good = "impl N { fn adopt(&self, e: u64) { let mut s = self.state.write(); \
                    if e >= s.epoch { s.epoch = e; } } }";
        let (m2, pm2) = build(&[("n.rs", good)]);
        let f2 = protocol_checks(&m2, &pm2);
        assert!(!f2.iter().any(|x| x.diag.compact().contains("WS113")));
        let max_form = "impl N { fn adopt(&self, e: u64) { s.epoch = s.epoch.max(e); } }";
        let (m3, pm3) = build(&[("n.rs", max_form)]);
        let f3 = protocol_checks(&m3, &pm3);
        assert!(!f3.iter().any(|x| x.diag.compact().contains("WS113")));
    }

    #[test]
    fn json_and_dot_render() {
        let (m, pm) = build(&[("n.rs", FENCED_HANDLER)]);
        let j = pm.to_json(&m);
        assert!(j.contains("\"variants\":[\"Replicate\"]"), "{j}");
        assert!(j.contains("epoch-fence"), "{j}");
        let d = pm.to_dot(&m);
        assert!(d.starts_with("digraph"), "{d}");
        assert!(d.contains("DataMsg::ReplicateAck"), "{d}");
    }

    #[test]
    fn message_edges_cover_reply_flow() {
        let (_, pm) = build(&[("n.rs", FENCED_HANDLER)]);
        let edges = pm.message_edges();
        assert!(edges.contains(&("Replicate".to_string(), "ReplicateAck".to_string())));
        assert!(edges.contains(&("Ping".to_string(), "Pong".to_string())));
    }
}
