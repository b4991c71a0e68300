//! Static semantic analysis of policy specifications.
//!
//! [`analyze`] runs a series of passes over a parsed [`PolicySpec`] and
//! returns every finding as a [`Diagnostic`] with a stable `WP###` code
//! (see [`crate::diag::Code`] for the catalog):
//!
//! 1. **Declarations** — duplicate tier labels per scope (WP001), duplicate
//!    region labels (WP011), tier attribute unit sanity (WP009).
//! 2. **Parameters** — events referencing undefined parameters (WP003),
//!    parameters that are never used (WP004).
//! 3. **Events** — unrecognized event shapes (WP017), duplicate handlers
//!    for the same event (WP005), infeasible thresholds (WP006, WP009).
//! 4. **Responses** — unknown response names (WP012), missing required
//!    arguments (WP013), `change_policy` to unknown policies (WP014),
//!    constant branch conditions (WP015), bandwidth/grow unit sanity
//!    (WP009), archival-class tiers on latency-sensitive paths (WP008).
//! 5. **References & flow** — undeclared tier references (WP002), flows
//!    into tiers smaller than their source (WP007), rules reading tiers no
//!    data-flow path populates (WP016).
//! 6. **Consistency** — insert rules whose shapes deduce to conflicting
//!    consistency models (WP010); a Wiera insert rule that deduces to none
//!    (WP018).
//!
//! The analyzer never panics: malformed specifications produce diagnostics
//! (or, for text that does not parse, [`analyze_source`] converts the
//! parse error into a `WP000` diagnostic).

use crate::ast::{BinOp, EventRule, Expr, PolicySpec, SpecKind, Stmt};
use crate::compile::{deduce_consistency, lower_with_params, ConsistencyModel, EventKind};
use crate::diag::{sort_diagnostics, Code, Diagnostic, Span};
use crate::units::{self, Unit};
use std::collections::{BTreeMap, BTreeSet};

/// Analyze policy source text: parse errors become a single `WP000`
/// diagnostic; otherwise all analyzer passes run on the parsed spec.
pub fn analyze_source(src: &str) -> (Option<PolicySpec>, Vec<Diagnostic>) {
    match crate::parser::parse(src) {
        Ok(spec) => {
            let diags = analyze(&spec);
            (Some(spec), diags)
        }
        Err(e) => (None, vec![e.to_diagnostic()]),
    }
}

/// Run every analyzer pass over a parsed specification. Findings come back
/// sorted in source order.
pub fn analyze(spec: &PolicySpec) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        spec,
        tiers: tier_table(spec),
        diags: Vec::new(),
    };
    a.check_declarations();
    a.check_parameters();
    a.check_events_and_responses();
    a.check_flow();
    a.check_consistency();
    sort_diagnostics(&mut a.diags);
    a.diags
}

/// Tier names a policy can legally reference: declared local tiers for a
/// Tiera spec, the union of all region tier stacks for a Wiera spec.
#[derive(Debug, Default)]
struct TierTable {
    /// label → (size in bytes, lowercased kind name). First declaration
    /// wins when regions disagree.
    by_label: BTreeMap<String, (u64, String)>,
}

impl TierTable {
    fn declares(&self, label: &str) -> bool {
        self.by_label.contains_key(label)
    }

    fn is_empty(&self) -> bool {
        self.by_label.is_empty()
    }

    fn size(&self, label: &str) -> Option<u64> {
        self.by_label.get(label).map(|(s, _)| *s)
    }

    fn kind(&self, label: &str) -> Option<&str> {
        self.by_label.get(label).map(|(_, k)| k.as_str())
    }
}

fn tier_attrs(attrs: &BTreeMap<String, Expr>) -> (u64, String) {
    let size = attrs
        .get("size")
        .and_then(Expr::as_num)
        .and_then(|(v, u)| match u {
            Some(u) => units::to_bytes(v, u),
            None => Some(v as u64),
        })
        .unwrap_or(0);
    let kind = attrs
        .get("name")
        .and_then(Expr::as_ident)
        .unwrap_or("")
        .to_ascii_lowercase();
    (size, kind)
}

fn tier_table(spec: &PolicySpec) -> TierTable {
    let mut t = TierTable::default();
    for decl in &spec.tiers {
        t.by_label
            .entry(decl.label.clone())
            .or_insert_with(|| tier_attrs(&decl.attrs));
    }
    for region in &spec.regions {
        for decl in &region.tiers {
            t.by_label
                .entry(decl.label.clone())
                .or_insert_with(|| tier_attrs(&decl.attrs));
        }
    }
    t
}

/// Tier kind names that are archival-class (high read latency — Glacier
/// and friends). Matched case-insensitively against the tier's `name:`.
const ARCHIVAL_KINDS: [&str; 5] = [
    "glacier",
    "s3-glacier",
    "s3glacier",
    "cheapestarchival",
    "archival",
];

/// Responses the engines implement, post `chage_policy` typo
/// normalization.
const KNOWN_RESPONSES: [&str; 13] = [
    "store",
    "copy",
    "move",
    "delete",
    "forward",
    "queue",
    "lock",
    "release",
    "change_policy",
    "compress",
    "encrypt",
    "grow",
    "chage_policy", // figure typo, normalized during lowering
];

fn normalize_response(name: &str) -> &str {
    if name == "chage_policy" {
        "change_policy"
    } else {
        name
    }
}

/// Event shapes the engines recognize, mirrored from the compiler.
enum EventShape {
    Insert {
        into: Option<(String, Span)>,
    },
    Timer {
        period: TimerPeriod,
    },
    Filled {
        tier: String,
        value: f64,
        unit: Option<Unit>,
    },
    Cold {
        value: f64,
        unit: Option<Unit>,
    },
    OpLatency,
    Requests,
    Unknown,
}

enum TimerPeriod {
    Literal { value: f64, unit: Option<Unit> },
    Param(String),
    Bad,
}

fn classify_event(e: &Expr, span: Span) -> EventShape {
    match e {
        Expr::Path(p) if p == &["insert".to_string(), "into".to_string()] => {
            EventShape::Insert { into: None }
        }
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let lpath = lhs.as_path().map(|p| p.join("."));
            match lpath.as_deref() {
                Some("insert.into") => match rhs.as_ident() {
                    Some(t) => EventShape::Insert {
                        into: Some((t.to_string(), span)),
                    },
                    None => EventShape::Unknown,
                },
                Some("time") => match rhs.as_ref() {
                    Expr::Num { value, unit } => EventShape::Timer {
                        period: TimerPeriod::Literal {
                            value: *value,
                            unit: *unit,
                        },
                    },
                    Expr::Path(p) if p.len() == 1 => EventShape::Timer {
                        period: TimerPeriod::Param(p[0].clone()),
                    },
                    _ => EventShape::Timer {
                        period: TimerPeriod::Bad,
                    },
                },
                Some("threshold.type") => match rhs.as_ident() {
                    Some("put") | Some("get") => EventShape::OpLatency,
                    Some("primary") => EventShape::Requests,
                    _ => EventShape::Unknown,
                },
                Some(path) if path.ends_with(".filled") => match rhs.as_num() {
                    Some((v, u)) => EventShape::Filled {
                        tier: path.trim_end_matches(".filled").to_string(),
                        value: v,
                        unit: u,
                    },
                    None => EventShape::Unknown,
                },
                _ => EventShape::Unknown,
            }
        }
        Expr::Binary {
            op: BinOp::Gt,
            lhs,
            rhs,
        } => {
            let lpath = lhs.as_path().map(|p| p.join("."));
            if lpath.as_deref() == Some("object.lastAccessedTime") {
                match rhs.as_num() {
                    Some((v, u)) => EventShape::Cold { value: v, unit: u },
                    None => EventShape::Unknown,
                }
            } else {
                EventShape::Unknown
            }
        }
        _ => EventShape::Unknown,
    }
}

/// Is this rule's event a latency-sensitive path (in the request path of a
/// put/get, per §3.2.3)?
fn latency_sensitive(e: &Expr, span: Span) -> bool {
    matches!(
        classify_event(e, span),
        EventShape::Insert { .. } | EventShape::OpLatency
    )
}

/// A tier mentioned by a rule: where and how.
struct TierRef {
    label: String,
    span: Span,
}

struct Analyzer<'a> {
    spec: &'a PolicySpec,
    tiers: TierTable,
    diags: Vec<Diagnostic>,
}

impl<'a> Analyzer<'a> {
    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    // ---- pass 1: declarations ---------------------------------------------

    fn check_declarations(&mut self) {
        self.check_tier_scope(&self.spec.tiers.iter().collect::<Vec<_>>(), "specification");
        let mut region_seen: BTreeMap<&str, Span> = BTreeMap::new();
        for region in &self.spec.regions {
            match region_seen.get(region.label.as_str()) {
                Some(first) => {
                    let d = Diagnostic::deny(
                        Code::Wp011,
                        format!("duplicate region declaration '{}'", region.label),
                    )
                    .at(region.span)
                    .with_note(format!("first declared at line {}", first.line));
                    self.push(d);
                }
                None => {
                    region_seen.insert(&region.label, region.span);
                }
            }
            self.check_tier_scope(
                &region.tiers.iter().collect::<Vec<_>>(),
                &format!("region '{}'", region.label),
            );
        }
    }

    fn check_tier_scope(&mut self, decls: &[&crate::ast::TierDecl], scope: &str) {
        let mut seen: BTreeMap<String, Span> = BTreeMap::new();
        let mut found = Vec::new();
        for decl in decls {
            match seen.get(&decl.label) {
                Some(first) => {
                    found.push(
                        Diagnostic::deny(
                            Code::Wp001,
                            format!("duplicate tier declaration '{}' in {scope}", decl.label),
                        )
                        .at(decl.span)
                        .with_note(format!("first declared at line {}", first.line)),
                    );
                }
                None => {
                    seen.insert(decl.label.clone(), decl.span);
                }
            }
            if let Some((_, Some(u))) = decl.attrs.get("size").and_then(Expr::as_num) {
                if !u.is_size() {
                    found.push(
                        Diagnostic::deny(
                            Code::Wp009,
                            format!(
                                "tier '{}' declares size with non-size unit '{u}'",
                                decl.label
                            ),
                        )
                        .at(decl.span),
                    );
                }
            }
        }
        for d in found {
            self.push(d);
        }
    }

    // ---- pass 2: parameters -----------------------------------------------

    fn check_parameters(&mut self) {
        let declared: BTreeSet<&str> = self.spec.params.iter().map(|p| p.name.as_str()).collect();
        let mut used: BTreeSet<String> = BTreeSet::new();
        for rule in &self.spec.events {
            collect_single_idents(&rule.event, &mut used);
            for stmt in &rule.body {
                collect_stmt_idents(stmt, &mut used);
            }
        }
        for rule in &self.spec.events {
            if let EventShape::Timer {
                period: TimerPeriod::Param(name),
            } = classify_event(&rule.event, rule.span)
            {
                if !declared.contains(name.as_str()) {
                    let d = Diagnostic::deny(
                        Code::Wp003,
                        format!("timer event references undefined parameter '{name}'"),
                    )
                    .at(rule.span)
                    .with_note("declare it in the specification header, e.g. `(time t)`");
                    self.push(d);
                }
            }
        }
        let unused: Vec<Diagnostic> = self
            .spec
            .params
            .iter()
            .filter(|p| !used.contains(&p.name))
            .map(|p| {
                Diagnostic::note(
                    Code::Wp004,
                    format!("parameter '{} {}' is never used", p.ty, p.name),
                )
                .at(p.span)
            })
            .collect();
        for d in unused {
            self.push(d);
        }
    }

    // ---- passes 3+4: events and responses ---------------------------------

    fn check_events_and_responses(&mut self) {
        let mut handler_seen: BTreeMap<String, Span> = BTreeMap::new();
        for rule in &self.spec.events {
            let key = rule.event.to_string();
            match handler_seen.get(&key) {
                Some(first) => {
                    let d = Diagnostic::warn(
                        Code::Wp005,
                        format!("duplicate handler for event '{key}'"),
                    )
                    .at(rule.span)
                    .with_note(format!(
                        "first handler at line {}; both responses run on this event",
                        first.line
                    ));
                    self.push(d);
                }
                None => {
                    handler_seen.insert(key, rule.span);
                }
            }
            self.check_event_shape(rule);
            let sensitive = latency_sensitive(&rule.event, rule.span);
            for stmt in &rule.body {
                self.check_stmt(stmt, sensitive);
            }
        }
    }

    fn check_event_shape(&mut self, rule: &EventRule) {
        match classify_event(&rule.event, rule.span) {
            EventShape::Unknown => {
                let d = Diagnostic::deny(
                    Code::Wp017,
                    format!("unrecognized event shape '{}'", rule.event),
                )
                .at(rule.span)
                .with_note(
                    "recognized events: insert.into[==tier], time=<t>, tierX.filled==N%, \
                     object.lastAccessedTime><duration>, threshold.type==put|get|primary",
                );
                self.push(d);
            }
            EventShape::Timer { period } => match period {
                TimerPeriod::Literal { value, unit } => {
                    if let Some(u) = unit {
                        if !u.is_duration() {
                            self.push(
                                Diagnostic::deny(
                                    Code::Wp009,
                                    format!("timer period has non-duration unit '{u}'"),
                                )
                                .at(rule.span),
                            );
                            return;
                        }
                    }
                    let ms = unit
                        .and_then(|u| units::to_millis(value, u))
                        .unwrap_or(value);
                    if ms <= 0.0 {
                        self.push(
                            Diagnostic::warn(
                                Code::Wp006,
                                "timer period is not positive; rule can never fire".to_string(),
                            )
                            .at(rule.span),
                        );
                    }
                }
                TimerPeriod::Param(_) | TimerPeriod::Bad => {}
            },
            EventShape::Filled { tier, value, unit } => {
                self.check_tier_ref(&TierRef {
                    label: tier,
                    span: rule.span,
                });
                if let Some(u) = unit {
                    if u != Unit::Percent {
                        self.push(
                            Diagnostic::deny(
                                Code::Wp009,
                                format!("filled threshold has non-percent unit '{u}'"),
                            )
                            .at(rule.span),
                        );
                        return;
                    }
                }
                let fraction = match unit {
                    Some(u) => units::to_fraction(value, u).unwrap_or(value),
                    None => value,
                };
                if fraction <= 0.0 || fraction > 1.0 {
                    self.push(
                        Diagnostic::warn(
                            Code::Wp006,
                            format!(
                                "fill threshold {:.0}% can never be reached; rule is dead",
                                fraction * 100.0
                            ),
                        )
                        .at(rule.span),
                    );
                }
            }
            EventShape::Cold { value, unit } => {
                if let Some(u) = unit {
                    if !u.is_duration() {
                        self.push(
                            Diagnostic::deny(
                                Code::Wp009,
                                format!("cold-data threshold has non-duration unit '{u}'"),
                            )
                            .at(rule.span),
                        );
                        return;
                    }
                }
                if value <= 0.0 {
                    self.push(
                        Diagnostic::warn(
                            Code::Wp006,
                            "cold-data threshold is not positive; rule matches everything"
                                .to_string(),
                        )
                        .at(rule.span),
                    );
                }
            }
            EventShape::Insert { into } => {
                if let Some((tier, span)) = into {
                    self.check_tier_ref(&TierRef { label: tier, span });
                }
            }
            EventShape::OpLatency | EventShape::Requests => {}
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt, sensitive: bool) {
        match stmt {
            Stmt::Assign { .. } => {}
            Stmt::If {
                cond,
                then,
                otherwise,
                span,
            } => {
                self.check_condition(cond, *span);
                if let Some(why) = constant_condition(cond) {
                    self.push(
                        Diagnostic::warn(
                            Code::Wp015,
                            format!("branch condition is constant: {why}"),
                        )
                        .at(*span),
                    );
                }
                for s in then.iter().chain(otherwise) {
                    self.check_stmt(s, sensitive);
                }
            }
            Stmt::Call { name, args, span } => self.check_call(name, args, *span, sensitive),
        }
    }

    fn check_condition(&mut self, cond: &Expr, span: Span) {
        for tier in condition_tier_refs(cond) {
            self.check_tier_ref(&TierRef { label: tier, span });
        }
    }

    fn check_call(&mut self, name: &str, args: &[(String, Expr)], span: Span, sensitive: bool) {
        if !KNOWN_RESPONSES.contains(&name) {
            let d = Diagnostic::deny(Code::Wp012, format!("unknown response '{name}'"))
                .at(span)
                .with_note(format!(
                    "known responses: {}",
                    KNOWN_RESPONSES[..KNOWN_RESPONSES.len() - 1].join(", ")
                ));
            self.push(d);
            return;
        }
        let norm = normalize_response(name);
        let get = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v);

        let required: &[&str] = match norm {
            "store" | "copy" | "move" | "forward" | "queue" | "change_policy" => &["what", "to"],
            "delete" | "lock" | "release" | "compress" | "encrypt" => &["what"],
            "grow" => &["what", "by"],
            _ => &[],
        };
        for req in required {
            if get(req).is_none() {
                self.push(
                    Diagnostic::deny(
                        Code::Wp013,
                        format!("{norm}() is missing required argument '{req}:'"),
                    )
                    .at(span),
                );
            }
        }

        // Tier references in `what:` conditions and tier-valued arguments.
        if let Some(what) = get("what") {
            if matches!(what, Expr::Binary { .. }) {
                self.check_condition(what, span);
            }
            if norm == "grow" {
                if let Some(t) = what.as_ident() {
                    self.check_tier_ref(&TierRef {
                        label: t.to_string(),
                        span,
                    });
                }
            }
        }
        if norm != "change_policy" {
            if let Some(t) = get("to").and_then(Expr::as_ident) {
                if t.to_ascii_lowercase().starts_with("tier") {
                    self.check_tier_ref(&TierRef {
                        label: t.to_string(),
                        span,
                    });
                }
                if sensitive && matches!(norm, "store" | "copy" | "forward") {
                    if let Some(kind) = self.tiers.kind(t) {
                        if ARCHIVAL_KINDS.contains(&kind) {
                            self.push(
                                Diagnostic::warn(
                                    Code::Wp008,
                                    format!(
                                        "archival-class tier '{t}' ({kind}) targeted on a \
                                         latency-sensitive path"
                                    ),
                                )
                                .at(span)
                                .with_note(
                                    "archival stores have minutes-to-hours retrieval latency; \
                                     use a timer or cold-data rule instead",
                                ),
                            );
                        }
                    }
                }
            }
        }

        // change_policy(what:consistency, to:<policy>) must name a policy
        // that exists (a canned policy or this specification itself).
        if norm == "change_policy" {
            let what_is_consistency = get("what")
                .and_then(Expr::as_ident)
                .is_some_and(|w| w == "consistency");
            if what_is_consistency {
                if let Some(to) = get("to").and_then(Expr::as_ident) {
                    if crate::canned::by_name(to).is_none() && to != self.spec.name {
                        self.push(
                            Diagnostic::warn(
                                Code::Wp014,
                                format!("change_policy targets unknown policy '{to}'"),
                            )
                            .at(span)
                            .with_note(
                                "not a canned policy or this specification; the switch will \
                                 fail at run time unless the coordinator registered it",
                            ),
                        );
                    }
                }
            }
        }

        // Bandwidth and grow-size unit sanity.
        if let Some(bw) = get("bandwidth") {
            if let Some((v, u)) = bw.as_num() {
                let bad_unit = u.is_some_and(|u| !u.is_rate());
                if bad_unit {
                    self.push(
                        Diagnostic::deny(
                            Code::Wp009,
                            format!(
                                "bandwidth has non-rate unit '{}'",
                                u.map(|u| u.to_string()).unwrap_or_default()
                            ),
                        )
                        .at(span),
                    );
                } else if v <= 0.0 {
                    self.push(
                        Diagnostic::deny(
                            Code::Wp009,
                            "bandwidth limit must be positive".to_string(),
                        )
                        .at(span),
                    );
                }
            }
        }
        if norm == "grow" {
            if let Some((_, Some(u))) = get("by").and_then(Expr::as_num) {
                if !u.is_size() {
                    self.push(
                        Diagnostic::deny(
                            Code::Wp009,
                            format!("grow() 'by' has non-size unit '{u}'"),
                        )
                        .at(span),
                    );
                }
            }
        }
    }

    fn check_tier_ref(&mut self, r: &TierRef) {
        // A spec that declares no tiers at all delegates layout to the
        // embedder (common in programmatic use); only check references when
        // the spec itself declares the layout.
        if self.tiers.is_empty() || self.tiers.declares(&r.label) {
            return;
        }
        let declared: Vec<&str> = self.tiers.by_label.keys().map(String::as_str).collect();
        let d = Diagnostic::deny(
            Code::Wp002,
            format!("reference to undeclared tier '{}'", r.label),
        )
        .at(r.span)
        .with_note(format!("declared tiers: {}", declared.join(", ")));
        self.push(d);
    }

    // ---- pass 5: data flow -------------------------------------------------

    /// Build the tier-to-tier data-flow graph and check (a) flows into
    /// strictly smaller bounded tiers (WP007) and (b) rules that read a
    /// tier no flow path populates (WP016).
    fn check_flow(&mut self) {
        if self.tiers.is_empty() {
            return;
        }
        let first_tiers = self.first_tiers();
        let mut populated: BTreeSet<String> = BTreeSet::new();
        let mut edges: Vec<(String, String)> = Vec::new();
        // (label, span) pairs of tiers a rule observes.
        let mut reads: Vec<(String, Span)> = Vec::new();
        let mut has_insert = false;
        let mut flow_warns = Vec::new();

        for rule in &self.spec.events {
            let shape = classify_event(&rule.event, rule.span);
            match &shape {
                EventShape::Insert { into } => {
                    has_insert = true;
                    if let Some((tier, _)) = into {
                        populated.insert(tier.clone());
                    }
                }
                EventShape::Filled { tier, .. } => {
                    reads.push((tier.clone(), rule.span));
                }
                _ => {}
            }
            let is_insert = matches!(shape, EventShape::Insert { .. });
            for_each_call(&rule.body, &mut |name, args, span| {
                let norm = normalize_response(name);
                if !matches!(norm, "store" | "copy" | "move" | "queue" | "forward") {
                    return;
                }
                let get = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let to = get("to").and_then(Expr::as_ident);
                let what = get("what");
                let sources: Vec<String> = what.map(condition_location_refs).unwrap_or_default();
                for src in &sources {
                    reads.push((src.clone(), span));
                }
                match to {
                    Some(t) if self.tiers.declares(t) => {
                        if is_insert && sources.is_empty() {
                            // Ingest flows populate their target directly.
                            populated.insert(t.to_string());
                        }
                        for src in &sources {
                            edges.push((src.clone(), t.to_string()));
                            // WP007: bounded flow into a strictly smaller tier.
                            if let (Some(from), Some(into)) =
                                (self.tiers.size(src), self.tiers.size(t))
                            {
                                if from > 0 && into > 0 && into < from {
                                    flow_warns.push(
                                        Diagnostic::warn(
                                            Code::Wp007,
                                            format!(
                                                "flow from tier '{src}' ({from} bytes) into \
                                                 smaller tier '{t}' ({into} bytes) can overflow",
                                            ),
                                        )
                                        .at(span),
                                    );
                                }
                            }
                        }
                    }
                    Some("local_instance" | "all_regions" | "primary_instance")
                        if is_insert && sources.is_empty() =>
                    {
                        for ft in &first_tiers {
                            populated.insert(ft.clone());
                        }
                    }
                    _ => {}
                }
            });
        }
        for d in flow_warns {
            self.push(d);
        }

        // WP016 only makes sense when the policy itself defines the ingest
        // path; without an insert rule, data arrives by means the analyzer
        // cannot see.
        if !has_insert {
            return;
        }
        // Propagate reachability over copy/move edges to a fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for (src, dst) in &edges {
                if populated.contains(src) && populated.insert(dst.clone()) {
                    changed = true;
                }
            }
        }
        let mut reported: BTreeSet<String> = BTreeSet::new();
        let mut dead_reads = Vec::new();
        for (label, span) in reads {
            if self.tiers.declares(&label)
                && !populated.contains(&label)
                && reported.insert(label.clone())
            {
                dead_reads.push(
                    Diagnostic::warn(
                        Code::Wp016,
                        format!("rule reads tier '{label}' but no data-flow path populates it"),
                    )
                    .at(span)
                    .with_note("no insert, store, copy, or move rule ever places data there"),
                );
            }
        }
        for d in dead_reads {
            self.push(d);
        }
    }

    /// Default ingest tiers: the first tier of the local stack (Tiera) or
    /// of each region's stack (Wiera) — where `to:local_instance` and
    /// `to:all_regions` place data.
    fn first_tiers(&self) -> Vec<String> {
        match self.spec.kind {
            SpecKind::Tiera => self
                .spec
                .tiers
                .first()
                .map(|t| vec![t.label.clone()])
                .unwrap_or_default(),
            SpecKind::Wiera => self
                .spec
                .regions
                .iter()
                .filter_map(|r| r.tiers.first().map(|t| t.label.clone()))
                .collect(),
        }
    }

    // ---- pass 6: consistency ----------------------------------------------

    /// Each insert rule's shape implies one of the paper's consistency
    /// protocols; two insert rules implying different protocols leave the
    /// instance in an undefined model, and a Wiera policy whose first insert
    /// rule implies none has no protocol to run.
    fn check_consistency(&mut self) {
        let Ok(compiled) = lower_with_params(self.spec, &BTreeMap::new()) else {
            // Lowering problems surface as their own diagnostics/errors.
            return;
        };
        let mut models: Vec<(ConsistencyModel, Span)> = Vec::new();
        let mut found = Vec::new();
        let inserts = self
            .spec
            .events
            .iter()
            .zip(&compiled.rules)
            .filter(|(_, lowered)| matches!(lowered.event, EventKind::Insert { .. }));
        for (i, (rule, lowered)) in inserts.enumerate() {
            match deduce_consistency(std::slice::from_ref(lowered)) {
                Some(model) => models.push((model, rule.span)),
                // The first insert rule is the one the runtime deduces from.
                None if i == 0 && self.spec.kind == SpecKind::Wiera => found.push(
                    Diagnostic::deny(
                        Code::Wp018,
                        "insert rule matches none of the consistency protocols \
                         (multi-primaries, primary-backup, eventual)",
                    )
                    .at(rule.span)
                    .with_note(
                        "a Wiera insert rule must lock and copy, forward to the primary, \
                         or queue to all_regions",
                    ),
                ),
                None => {}
            }
        }
        if let Some((first, _)) = models.first() {
            for (model, span) in &models[1..] {
                if model != first {
                    found.push(
                        Diagnostic::warn(
                            Code::Wp010,
                            format!(
                                "insert rule implies consistency model {model}, but an \
                                 earlier insert rule implies {first}",
                            ),
                        )
                        .at(*span)
                        .with_note("the instance cannot satisfy both models at once"),
                    );
                }
            }
        }
        for d in found {
            self.push(d);
        }
    }
}

// ---- expression walkers ----------------------------------------------------

/// Call `f(name, args, span)` for every response call in `body`, including
/// calls nested under `if`/`else`.
fn for_each_call<'s>(body: &'s [Stmt], f: &mut dyn FnMut(&'s str, &'s [(String, Expr)], Span)) {
    for stmt in body {
        match stmt {
            Stmt::Call { name, args, span } => f(name, args, *span),
            Stmt::If {
                then, otherwise, ..
            } => {
                for_each_call(then, f);
                for_each_call(otherwise, f);
            }
            Stmt::Assign { .. } => {}
        }
    }
}

/// Single-segment identifiers appearing anywhere in an expression (used
/// for parameter-usage tracking).
fn collect_single_idents(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Path(p) if p.len() == 1 => {
            out.insert(p[0].clone());
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_single_idents(lhs, out);
            collect_single_idents(rhs, out);
        }
        _ => {}
    }
}

fn collect_stmt_idents(stmt: &Stmt, out: &mut BTreeSet<String>) {
    match stmt {
        Stmt::Assign { value, .. } => collect_single_idents(value, out),
        Stmt::Call { args, .. } => {
            for (_, v) in args {
                collect_single_idents(v, out);
            }
        }
        Stmt::If {
            cond,
            then,
            otherwise,
            ..
        } => {
            collect_single_idents(cond, out);
            for s in then.iter().chain(otherwise) {
                collect_stmt_idents(s, out);
            }
        }
    }
}

/// Tier labels a condition compares against: `object.location == tierX`,
/// `insert.into == tierX`, plus bare `tierX.<attr>` field references.
fn condition_tier_refs(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<String>) {
        if let Expr::Binary { op, lhs, rhs } = e {
            if matches!(op, BinOp::And | BinOp::Or) {
                walk(lhs, out);
                walk(rhs, out);
                return;
            }
            let lpath = lhs.as_path().map(|p| p.join("."));
            if matches!(
                lpath.as_deref(),
                Some("object.location") | Some("insert.into")
            ) {
                if let Some(t) = rhs.as_ident() {
                    if t.to_ascii_lowercase().starts_with("tier") {
                        out.push(t.to_string());
                    }
                }
            }
            for side in [lhs.as_ref(), rhs.as_ref()] {
                if let Some(p) = side.as_path() {
                    if p.len() > 1 && p[0].to_ascii_lowercase().starts_with("tier") {
                        out.push(p[0].clone());
                    }
                }
            }
        }
    }
    walk(e, &mut out);
    out
}

/// Tier labels a condition pins `object.location` to (data-flow sources).
fn condition_location_refs(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<String>) {
        if let Expr::Binary { op, lhs, rhs } = e {
            if matches!(op, BinOp::And | BinOp::Or) {
                walk(lhs, out);
                walk(rhs, out);
                return;
            }
            if *op == BinOp::Eq
                && lhs.as_path().map(|p| p.join(".")).as_deref() == Some("object.location")
            {
                if let Some(t) = rhs.as_ident() {
                    out.push(t.to_string());
                }
            }
        }
    }
    walk(e, &mut out);
    out
}

/// Is this condition constant? Returns a human explanation when it is.
fn constant_condition(e: &Expr) -> Option<String> {
    // Literal-vs-literal comparison anywhere in the tree.
    fn literal(e: &Expr) -> bool {
        matches!(e, Expr::Num { .. } | Expr::Bool(_) | Expr::Str(_))
    }
    fn find_folded(e: &Expr) -> Option<String> {
        match e {
            Expr::Bool(b) => Some(format!("literal {}", if *b { "True" } else { "False" })),
            Expr::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    return find_folded(lhs).or_else(|| find_folded(rhs));
                }
                if literal(lhs) && literal(rhs) {
                    return Some(format!("'{lhs} {op} {rhs}' compares two literals"));
                }
                None
            }
            _ => None,
        }
    }
    if let Some(why) = find_folded(e) {
        return Some(why);
    }
    // Contradictory conjunction: the same field equal to two different
    // literals (`object.location == tier1 && object.location == tier2`).
    fn eq_pins(e: &Expr, pins: &mut Vec<(String, String)>) -> bool {
        match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => eq_pins(lhs, pins) && eq_pins(rhs, pins),
            Expr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            } => {
                if let (Some(field), Some(v)) = (lhs.as_path(), rhs.as_ident()) {
                    pins.push((field.join("."), v.to_string()));
                }
                true
            }
            // Or-branches and other comparisons make the analysis
            // inconclusive; bail out rather than guess.
            Expr::Binary { op: BinOp::Or, .. } => false,
            _ => true,
        }
    }
    let mut pins = Vec::new();
    if eq_pins(e, &mut pins) {
        for (i, (field, value)) in pins.iter().enumerate() {
            for (field2, value2) in &pins[i + 1..] {
                if field == field2 && value != value2 {
                    return Some(format!(
                        "'{field} == {value}' contradicts '{field2} == {value2}'; the \
                         condition is always false"
                    ));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        let (_, diags) = analyze_source(src);
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_policy_has_no_findings() {
        assert!(codes(crate::canned::LOW_LATENCY_INSTANCE).is_empty());
    }

    #[test]
    fn all_canned_policies_are_deny_and_warn_clean() {
        for (id, _, src) in crate::canned::ALL {
            let (_, diags) = analyze_source(src);
            let gating: Vec<_> = diags
                .iter()
                .filter(|d| d.severity != crate::diag::Severity::Note)
                .collect();
            assert!(gating.is_empty(), "{id}: {gating:?}");
        }
    }

    #[test]
    fn duplicate_tier_is_wp001() {
        let c = codes(
            "Tiera T() {
                tier1: {name: Memcached, size: 5G};
                tier1: {name: EBS, size: 5G};
            }",
        );
        assert_eq!(c, vec!["WP001"]);
    }

    #[test]
    fn undeclared_tier_is_wp002() {
        let c = codes(
            "Tiera T() {
                tier1: {name: Memcached, size: 5G};
                event(insert.into) : response { store(what:insert.object, to:tier9); }
            }",
        );
        assert_eq!(c, vec!["WP002"]);
    }

    #[test]
    fn no_tier_decls_skips_wp002() {
        // Embedder-supplied layouts: references are not checkable.
        let c = codes(
            "Tiera T() {
                event(insert.into) : response { store(what:insert.object, to:tier1); }
            }",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn undefined_param_is_wp003_and_unused_is_wp004() {
        let c = codes(
            "Tiera T(time unused) {
                event(time=t) : response { delete(what:object.dirty == true); }
            }",
        );
        assert_eq!(c, vec!["WP004", "WP003"]);
    }

    #[test]
    fn duplicate_handler_is_wp005() {
        let c = codes(
            "Tiera T() {
                event(insert.into) : response { delete(what:object.dirty == true); }
                event(insert.into) : response { compress(what:object.dirty == true); }
            }",
        );
        assert_eq!(c, vec!["WP005"]);
    }

    #[test]
    fn infeasible_threshold_is_wp006() {
        let c = codes(
            "Tiera T() {
                tier1: {name: Memcached, size: 5G};
                event(tier1.filled == 150%) : response { delete(what:object.dirty == true); }
            }",
        );
        assert_eq!(c, vec!["WP006"]);
    }

    #[test]
    fn shrinkflow_is_wp007_and_dead_read_is_wp016() {
        let c = codes(
            "Tiera T(time t) {
                tier1: {name: Memcached, size: 5G};
                tier2: {name: EBS, size: 1G};
                tier3: {name: S3, size: 5G};
                event(insert.into) : response { store(what:insert.object, to:tier1); }
                event(time=t) : response {
                    copy(what: object.location == tier1, to:tier2);
                    move(what: object.location == tier3, to:tier1);
                }
            }",
        );
        assert!(c.contains(&"WP007"), "{c:?}");
        assert!(c.contains(&"WP016"), "{c:?}");
    }

    #[test]
    fn archival_on_insert_path_is_wp008() {
        let c = codes(
            "Tiera T() {
                tier1: {name: Glacier, size: 50G};
                event(insert.into) : response { store(what:insert.object, to:tier1); }
            }",
        );
        assert_eq!(c, vec!["WP008"]);
    }

    #[test]
    fn unit_nonsense_is_wp009() {
        let c = codes(
            "Tiera T() {
                tier1: {name: Memcached, size: 5 seconds};
            }",
        );
        assert_eq!(c, vec!["WP009"]);
    }

    #[test]
    fn conflicting_insert_models_is_wp010() {
        let c = codes(
            "Wiera W() {
                event(insert.into) : response {
                    lock(what:insert.key)
                    store(what:insert.object, to:local_instance)
                    copy(what:insert.object, to:all_regions)
                    release(what:insert.key)
                }
                event(insert.into == tier1) : response {
                    store(what:insert.object, to:local_instance)
                    queue(what:insert.object, to:all_regions)
                }
            }",
        );
        assert!(!c.contains(&"WP005"), "{c:?}");
        assert!(c.contains(&"WP010"), "{c:?}");
    }

    #[test]
    fn duplicate_region_is_wp011() {
        let c = codes(
            "Wiera W() {
                Region1 = {name:X, region:US-West}
                Region1 = {name:Y, region:US-East}
            }",
        );
        assert_eq!(c, vec!["WP011"]);
    }

    #[test]
    fn unknown_response_is_wp012() {
        let c = codes(
            "Tiera T() {
                event(insert.into) : response { explode(what:insert.object); }
            }",
        );
        assert_eq!(c, vec!["WP012"]);
    }

    #[test]
    fn missing_arg_is_wp013() {
        let c = codes(
            "Tiera T() {
                event(insert.into) : response { store(what:insert.object); }
            }",
        );
        assert_eq!(c, vec!["WP013"]);
    }

    #[test]
    fn unknown_change_policy_target_is_wp014() {
        let c = codes(
            "Wiera W() {
                event(threshold.type == put) : response {
                    change_policy(what:consistency, to:NoSuchPolicy);
                }
            }",
        );
        assert_eq!(c, vec!["WP014"]);
    }

    #[test]
    fn constant_condition_is_wp015() {
        let c = codes(
            "Tiera T(time t) {
                event(time=t) : response {
                    if (object.location == tier1 && object.location == tier2)
                        delete(what:object.dirty == true);
                }
            }",
        );
        assert_eq!(c, vec!["WP015"]);
    }

    #[test]
    fn unrecognized_event_is_wp017() {
        let c = codes(
            "Tiera T() {
                event(full.moon) : response { delete(what:object.dirty == true); }
            }",
        );
        assert_eq!(c, vec!["WP017"]);
    }

    #[test]
    fn parse_error_becomes_wp000() {
        let (spec, diags) = analyze_source("Tiera {");
        assert!(spec.is_none());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Wp000);
    }

    #[test]
    fn diagnostics_carry_spans() {
        let (_, diags) = analyze_source(
            "Tiera T() {\n  tier1: {name: M, size: 5G};\n  tier1: {name: N, size: 5G};\n}",
        );
        assert_eq!(diags.len(), 1);
        let span = diags[0].span.expect("WP001 carries a span");
        assert_eq!(span.line, 3);
    }
}
