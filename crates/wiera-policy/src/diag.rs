//! Structured diagnostics with source spans.
//!
//! Every finding the static analyzer ([`crate::analyze`]) or the
//! parser/compiler front end produces is a [`Diagnostic`]: a stable code
//! (`WP001`…), a [`Severity`], a message, and an optional [`Span`] pointing
//! back into the policy source text. Diagnostics render two ways:
//!
//! * [`Diagnostic::render_human`] — a caret-underline report in the style
//!   of rustc, given the original source text;
//! * [`Diagnostic::to_json`] — a stable machine-readable object for
//!   tooling (`wiera-lint --json`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open range of the policy source text, in characters.
///
/// `line` and `col` are 1-based and refer to the start of the range.
/// Spans deliberately compare equal to each other: AST nodes carry spans
/// for diagnostics, but two specifications that differ only in formatting
/// (e.g. a pretty-printed round trip) must still compare equal.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Span {
    /// Start offset in characters from the beginning of the source.
    pub start: usize,
    /// End offset (exclusive), in characters.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
    /// 1-based column (in characters) of `start` within its line.
    pub col: usize,
}

impl PartialEq for Span {
    fn eq(&self, _: &Self) -> bool {
        true // spans never affect AST equality (see type docs)
    }
}

impl Span {
    pub fn new(start: usize, end: usize, line: usize, col: usize) -> Span {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line,
            col: self.col,
        }
    }

    /// Number of characters covered (at least 1 for caret rendering).
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start).max(1)
    }

    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails a lint run.
    Note,
    /// Suspicious but not fatal; fails `--deny-warnings` runs.
    Warn,
    /// The policy is broken; `compile()` refuses it.
    Deny,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The number never changes meaning once
/// published; retired codes are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Syntax error from the parser.
    Wp000,
    /// Duplicate tier declaration in one scope.
    Wp001,
    /// Reference to an undeclared tier.
    Wp002,
    /// Event references an undefined specification parameter.
    Wp003,
    /// Declared parameter is never used.
    Wp004,
    /// Duplicate handler for the same event (shadowed rule).
    Wp005,
    /// Rule can never fire (infeasible event threshold).
    Wp006,
    /// Data flow into a tier smaller than its source tier.
    Wp007,
    /// Archival-class tier targeted on a latency-sensitive path.
    Wp008,
    /// Unit or threshold sanity violation.
    Wp009,
    /// Conflicting consistency models across insert rules.
    Wp010,
    /// Duplicate region declaration.
    Wp011,
    /// Unknown response (action) name.
    Wp012,
    /// Missing or malformed argument: a response call's, an `if`
    /// condition, or an assigned value.
    Wp013,
    /// `change_policy` targets an unknown policy.
    Wp014,
    /// Branch condition is constant; a branch can never run.
    Wp015,
    /// Rule reads a tier that no data-flow path populates.
    Wp016,
    /// Unrecognized event shape.
    Wp017,
    /// Wiera insert rule that matches none of the paper's consistency
    /// protocols.
    Wp018,
    /// Malformed tier or region declaration (an attribute missing or not
    /// of its kind).
    Wp019,
    // --- WC codes: runtime concurrency/consistency findings (wiera-check) ---
    /// Lock-order cycle: potential ABBA deadlock in the runtime lock graph.
    Wc001,
    /// Two distinct locks of one class nested with no intra-class order.
    Wc002,
    /// Lock release with no matching acquisition on the releasing thread.
    Wc003,
    /// Recorded history violates linearizability under the deduced model.
    Wc010,
    /// Read-your-writes violation under eventual consistency.
    Wc011,
    /// Replicas failed to converge to one final value for a key.
    Wc012,
    /// History is incomplete or could not be checked against any model.
    Wc013,
    // --- WS codes: source-level audit findings (wiera-audit) ---
    /// Static lock-order cycle: classes acquirable in opposing orders on
    /// some interprocedural path, whether or not runtime replay took it.
    Ws100,
    /// Handler completeness: unhandled wire-message variant, or a
    /// replication/write handler missing epoch fencing or `record_history`.
    Ws101,
    /// Panic site (unwrap/expect/panic!) reachable from a data-path handler.
    Ws102,
    /// Blocking operation (channel recv, sleep, join) while a tracked lock
    /// guard is live.
    Ws103,
    /// Metrics discipline: inconsistent kind/labels for one metric name,
    /// non-literal names, or asserted-but-never-recorded invariants.
    Ws104,
    /// Audit blind spots: unresolved or widened call sites reachable from
    /// data-path entry points (extraction gaps the protocol model cannot
    /// see through).
    Ws105,
    /// Protocol model: an epoch-bearing handler arm mutates state without
    /// an epoch guard dominating the mutation.
    Ws110,
    /// Protocol model: a request handler arm emits no reply on any
    /// extracted path.
    Ws111,
    /// Protocol model: a reply is emitted before the arm's state mutation
    /// commits (ack-before-commit ordering hazard).
    Ws112,
    /// Protocol model: the epoch is overwritten from a foreign value with
    /// no monotonic guard.
    Ws113,
    /// Protocol model: a handler arm extracted to an empty transition —
    /// the model checker is blind to whatever the arm really does.
    Ws114,
    // --- WM codes: explicit-state exploration findings (wiera-model) ---
    /// Split-brain: two distinct nodes acted as primary in one epoch.
    Wm001,
    /// Epoch monotonicity: a node's epoch moved backwards.
    Wm002,
    /// Durability: an acknowledged write was lost across failover.
    Wm003,
    /// Convergence: live replicas failed to converge after quiescence.
    Wm004,
}

/// All codes the analyzer can emit, for documentation and golden tests.
pub const ALL_CODES: [Code; 20] = [
    Code::Wp000,
    Code::Wp001,
    Code::Wp002,
    Code::Wp003,
    Code::Wp004,
    Code::Wp005,
    Code::Wp006,
    Code::Wp007,
    Code::Wp008,
    Code::Wp009,
    Code::Wp010,
    Code::Wp011,
    Code::Wp012,
    Code::Wp013,
    Code::Wp014,
    Code::Wp015,
    Code::Wp016,
    Code::Wp017,
    Code::Wp018,
    Code::Wp019,
];

/// All codes `wiera-check` can emit (runtime concurrency/consistency
/// findings), kept separate from the policy-analyzer catalog above.
pub const ALL_CHECK_CODES: [Code; 7] = [
    Code::Wc001,
    Code::Wc002,
    Code::Wc003,
    Code::Wc010,
    Code::Wc011,
    Code::Wc012,
    Code::Wc013,
];

/// All codes `wiera-audit` can emit (source-level static analysis over the
/// workspace's Rust code), kept separate from the catalogs above.
pub const ALL_AUDIT_CODES: [Code; 11] = [
    Code::Ws100,
    Code::Ws101,
    Code::Ws102,
    Code::Ws103,
    Code::Ws104,
    Code::Ws105,
    Code::Ws110,
    Code::Ws111,
    Code::Ws112,
    Code::Ws113,
    Code::Ws114,
];

/// All codes `wiera-model` can emit (invariant violations found by
/// exhaustive exploration of the extracted protocol model).
pub const ALL_MODEL_CODES: [Code; 4] = [Code::Wm001, Code::Wm002, Code::Wm003, Code::Wm004];

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Wp000 => "WP000",
            Code::Wp001 => "WP001",
            Code::Wp002 => "WP002",
            Code::Wp003 => "WP003",
            Code::Wp004 => "WP004",
            Code::Wp005 => "WP005",
            Code::Wp006 => "WP006",
            Code::Wp007 => "WP007",
            Code::Wp008 => "WP008",
            Code::Wp009 => "WP009",
            Code::Wp010 => "WP010",
            Code::Wp011 => "WP011",
            Code::Wp012 => "WP012",
            Code::Wp013 => "WP013",
            Code::Wp014 => "WP014",
            Code::Wp015 => "WP015",
            Code::Wp016 => "WP016",
            Code::Wp017 => "WP017",
            Code::Wp018 => "WP018",
            Code::Wp019 => "WP019",
            Code::Wc001 => "WC001",
            Code::Wc002 => "WC002",
            Code::Wc003 => "WC003",
            Code::Wc010 => "WC010",
            Code::Wc011 => "WC011",
            Code::Wc012 => "WC012",
            Code::Wc013 => "WC013",
            Code::Ws100 => "WS100",
            Code::Ws101 => "WS101",
            Code::Ws102 => "WS102",
            Code::Ws103 => "WS103",
            Code::Ws104 => "WS104",
            Code::Ws105 => "WS105",
            Code::Ws110 => "WS110",
            Code::Ws111 => "WS111",
            Code::Ws112 => "WS112",
            Code::Ws113 => "WS113",
            Code::Ws114 => "WS114",
            Code::Wm001 => "WM001",
            Code::Wm002 => "WM002",
            Code::Wm003 => "WM003",
            Code::Wm004 => "WM004",
        }
    }

    /// One-line catalog description (used by `wiera-lint --explain`).
    pub fn describe(self) -> &'static str {
        match self {
            Code::Wp000 => "syntax error",
            Code::Wp001 => "duplicate tier declaration",
            Code::Wp002 => "reference to an undeclared tier",
            Code::Wp003 => "event references an undefined parameter",
            Code::Wp004 => "declared parameter is never used",
            Code::Wp005 => "duplicate handler for the same event",
            Code::Wp006 => "rule can never fire (infeasible threshold)",
            Code::Wp007 => "flow into a tier smaller than its source",
            Code::Wp008 => "archival tier on a latency-sensitive path",
            Code::Wp009 => "unit or threshold sanity violation",
            Code::Wp010 => "conflicting consistency models across insert rules",
            Code::Wp011 => "duplicate region declaration",
            Code::Wp012 => "unknown response name",
            Code::Wp013 => "missing or malformed argument",
            Code::Wp014 => "change_policy targets an unknown policy",
            Code::Wp015 => "constant condition makes a branch unreachable",
            Code::Wp016 => "rule reads a tier no flow path populates",
            Code::Wp017 => "unrecognized event shape",
            Code::Wp018 => "insert rule matches no consistency protocol",
            Code::Wp019 => "malformed tier or region declaration",
            Code::Wc001 => "lock-order cycle (potential deadlock)",
            Code::Wc002 => "same-class lock nesting with no intra-class order",
            Code::Wc003 => "lock release without a matching acquisition",
            Code::Wc010 => "history violates linearizability under the deduced model",
            Code::Wc011 => "read-your-writes violation under eventual consistency",
            Code::Wc012 => "replicas failed to converge",
            Code::Wc013 => "history incomplete or uncheckable",
            Code::Ws100 => "static lock-order cycle (potential deadlock on an unexercised path)",
            Code::Ws101 => "handler completeness: unhandled variant or missing fence/history",
            Code::Ws102 => "panic site reachable from a data-path handler",
            Code::Ws103 => "blocking operation while a tracked lock guard is live",
            Code::Ws104 => "metrics discipline violation",
            Code::Ws105 => "unresolved/widened call sites reachable from data-path entries",
            Code::Ws110 => "epoch-bearing handler arm mutates state without an epoch guard",
            Code::Ws111 => "request handler arm emits no reply on any extracted path",
            Code::Ws112 => "reply emitted before the arm's state mutation commits",
            Code::Ws113 => "epoch overwritten from a foreign value with no monotonic guard",
            Code::Ws114 => "handler arm extracted to an empty transition (model blind spot)",
            Code::Wm001 => "split-brain: two nodes acted as primary in one epoch",
            Code::Wm002 => "a node's epoch moved backwards",
            Code::Wm003 => "acknowledged write lost across failover",
            Code::Wm004 => "live replicas failed to converge after quiescence",
        }
    }
}

impl Serialize for Code {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer or front-end finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
    /// Secondary notes ("first declared at line 3").
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    pub fn deny(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Deny, message)
    }

    pub fn warn(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Warn, message)
    }

    pub fn note(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Note, message)
    }

    pub fn at(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// One-line machine-stable form: `WP001 deny 4:4 message`.
    pub fn compact(&self) -> String {
        match self.span {
            Some(s) => format!(
                "{} {} {}:{} {}",
                self.code, self.severity, s.line, s.col, self.message
            ),
            None => format!("{} {} -:- {}", self.code, self.severity, self.message),
        }
    }

    /// rustc-style report with the offending source line underlined.
    pub fn render_human(&self, src: &str, origin: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if let Some(span) = self.span {
            out.push_str(&format!(" --> {}:{}:{}\n", origin, span.line, span.col));
            if let Some(line_text) = src.lines().nth(span.line.saturating_sub(1)) {
                let gutter = format!("{:>4}", span.line);
                out.push_str(&format!("{gutter} | {line_text}\n"));
                let pad = " ".repeat(span.col.saturating_sub(1));
                let avail = line_text
                    .chars()
                    .count()
                    .saturating_sub(span.col.saturating_sub(1));
                let carets = "^".repeat(span.len().min(avail.max(1)));
                out.push_str(&format!("     | {pad}{carets}\n"));
            }
        } else {
            out.push_str(&format!(" --> {origin}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("     = note: {note}\n"));
        }
        out
    }

    /// Stable JSON object for tooling.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| String::from("{}"))
    }
}

/// The diagnostic's own JSON with the origin (a file, a scenario) spliced
/// in as its first field: one `--json` record of the analysis CLIs.
pub fn diag_json(origin: &str, d: &Diagnostic) -> String {
    let body = d.to_json();
    let rest = body.strip_prefix('{').unwrap_or(&body);
    format!("{{\"origin\":{},{rest}", json_escape(origin))
}

/// `s` as a quoted JSON string, for the analysis CLIs' hand-built JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sort in source order (unspanned findings last), then by code.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| {
        (
            d.span.map(|s| s.start).unwrap_or(usize::MAX),
            d.code,
            std::cmp::Reverse(d.severity),
        )
    });
}

/// Does any finding reach the given severity (counting `--deny-warnings`
/// promotion when `deny_warnings` is set)?
pub fn worst_is_deny(diags: &[Diagnostic], deny_warnings: bool) -> bool {
    diags
        .iter()
        .any(|d| d.severity == Severity::Deny || (deny_warnings && d.severity == Severity::Warn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_compare_equal_regardless_of_position() {
        assert_eq!(Span::new(0, 5, 1, 1), Span::new(90, 95, 7, 3));
    }

    #[test]
    fn compact_form_is_stable() {
        let d = Diagnostic::deny(Code::Wp001, "duplicate tier declaration 'tier1'")
            .at(Span::new(10, 15, 4, 4));
        assert_eq!(
            d.compact(),
            "WP001 deny 4:4 duplicate tier declaration 'tier1'"
        );
    }

    #[test]
    fn human_render_underlines_span() {
        let src = "line one\ntier1: {name: X};\n";
        let d = Diagnostic::deny(Code::Wp001, "duplicate tier declaration 'tier1'")
            .at(Span::new(9, 14, 2, 1))
            .with_note("first declared at line 1");
        let r = d.render_human(src, "test.policy");
        assert!(r.contains("deny[WP001]"), "{r}");
        assert!(r.contains("--> test.policy:2:1"), "{r}");
        assert!(r.contains("^^^^^"), "{r}");
        assert!(r.contains("note: first declared at line 1"), "{r}");
    }

    #[test]
    fn json_render_contains_code_and_span() {
        let d = Diagnostic::warn(Code::Wp007, "tier overflow risk").at(Span::new(3, 8, 1, 4));
        let j = d.to_json();
        assert!(j.contains("\"code\":\"WP007\""), "{j}");
        assert!(j.contains("\"severity\":\"warn\""), "{j}");
        assert!(j.contains("\"line\":1"), "{j}");
    }

    #[test]
    fn sorting_and_deny_detection() {
        let mut ds = vec![
            Diagnostic::note(Code::Wp004, "b").at(Span::new(50, 51, 5, 1)),
            Diagnostic::warn(Code::Wp006, "a").at(Span::new(10, 12, 2, 1)),
            Diagnostic::deny(Code::Wp001, "c"),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(ds[0].code, Code::Wp006);
        assert_eq!(ds[2].code, Code::Wp001, "unspanned sorts last");
        assert!(worst_is_deny(&ds, false));
        let warns_only = vec![Diagnostic::warn(Code::Wp006, "a")];
        assert!(!worst_is_deny(&warns_only, false));
        assert!(worst_is_deny(&warns_only, true));
    }

    #[test]
    fn all_codes_have_unique_names_and_descriptions() {
        let mut seen = std::collections::BTreeSet::new();
        for c in ALL_CODES
            .iter()
            .chain(ALL_CHECK_CODES.iter())
            .chain(ALL_AUDIT_CODES.iter())
            .chain(ALL_MODEL_CODES.iter())
        {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(!c.describe().is_empty());
        }
        assert_eq!(seen.len(), 42);
    }
}
