//! Static semantic analysis of policy specifications.
//!
//! The compiler's lowering ([`crate::compile`]) is the analyzer's front
//! end. [`analyze`] lowers a parsed [`PolicySpec`] once; every part that
//! does not lower is already a deny finding: an unrecognized event shape
//! (WP017), an unknown response (WP012), a missing or malformed argument
//! (WP013), a unit of the wrong kind (WP009), a malformed tier or region
//! declaration (WP019). The analyzer then runs the checks lowering cannot
//! make on the lowered layouts and rules, taking spans, labels and
//! parameter names from the AST beside them:
//!
//! 1. **Declarations** — duplicate tier labels per scope (WP001), duplicate
//!    region labels (WP011).
//! 2. **Parameters** — timer events referencing undefined parameters
//!    (WP003), parameters that are never used (WP004).
//! 3. **Events** — duplicate handlers for the same event (WP005),
//!    thresholds that lower but can never fire (WP006).
//! 4. **Responses** — `change_policy` to unknown policies (WP014),
//!    contradictory branch conditions (WP015), non-positive bandwidth
//!    (WP009), archival-class tiers on latency-sensitive paths (WP008).
//! 5. **References & flow** — undeclared tier references (WP002), flows
//!    into tiers smaller than their source (WP007), rules reading tiers no
//!    data-flow path populates (WP016).
//! 6. **Consistency** — insert rules whose shapes deduce to conflicting
//!    consistency models (WP010); a Wiera insert rule that deduces to none
//!    (WP018).
//!
//! Findings are [`Diagnostic`]s with stable `WP###` codes (see
//! [`crate::diag::Code`]). The analyzer never panics: text that does not
//! parse becomes a single `WP000` finding ([`analyze_source`]).

use crate::ast::{EventRule, Expr, PolicySpec, SpecKind, Stmt, TierDecl};
use crate::compile::{
    deduce_consistency, lower, Action, CmpOp, CondValue, Condition, ConsistencyModel, EventKind,
    Lowered, Rule, Selector, Target, TierLayout,
};
use crate::diag::{sort_diagnostics, Code, Diagnostic, Span};
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

/// Lower a parsed specification and run every analyzer pass over it.
/// Findings come back sorted in source order.
pub fn analyze(spec: &PolicySpec) -> Vec<Diagnostic> {
    check(spec, &lower(spec, &BTreeMap::new()))
}

/// The lowering's findings and every analyzer pass's over `spec` and its
/// lowering, sorted in source order.
pub(crate) fn check(spec: &PolicySpec, lowered: &Lowered) -> Vec<Diagnostic> {
    let region_tiers = lowered.regions.iter().flat_map(|r| &r.instance.tiers);
    let mut tiers = BTreeMap::new();
    for t in lowered.tiers.iter().chain(region_tiers) {
        tiers.entry(t.label.as_str()).or_insert(t);
    }
    let mut a = Analyzer {
        spec,
        lowered,
        tiers,
        diags: lowered.diags.clone(),
    };
    a.check_declarations();
    a.check_parameters();
    a.check_rules();
    a.check_flow();
    a.check_consistency();
    sort_diagnostics(&mut a.diags);
    a.diags
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

struct Analyzer<'a> {
    spec: &'a PolicySpec,
    lowered: &'a Lowered,
    /// Tiers a policy can legally reference, by label: the declared local
    /// tiers for a Tiera spec, the union of all region stacks for a Wiera
    /// spec. The first declaration wins when regions disagree.
    tiers: BTreeMap<&'a str, &'a TierLayout>,
    diags: Vec<Diagnostic>,
}

impl<'a> Analyzer<'a> {
    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Each rule that lowered, beside its source.
    fn rules(&self) -> impl Iterator<Item = (&'a EventRule, &'a Rule)> {
        let (spec, lowered) = (self.spec, self.lowered);
        (spec.events.iter().zip(&lowered.rules))
            .filter_map(|(rule, lowered)| Some((rule, lowered.as_ref()?)))
    }

    /// The declared tier an action's `to:` names. Lowering resolves a
    /// `tier`-prefixed label to `Target::Tier`; a region tier labelled
    /// otherwise arrives as `Target::Policy`.
    fn tier_target(&self, to: &Target) -> Option<&'a TierLayout> {
        match to {
            Target::Tier(t) | Target::Policy(t) => self.tiers.get(t.as_str()).copied(),
            _ => None,
        }
    }

    // ---- pass 1: declarations ---------------------------------------------

    fn check_declarations(&mut self) {
        let spec = self.spec;
        self.check_tier_scope(&spec.tiers, "specification");
        let mut region_seen: BTreeMap<&str, Span> = BTreeMap::new();
        for region in &spec.regions {
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
            self.check_tier_scope(&region.tiers, &format!("region '{}'", region.label));
        }
    }

    fn check_tier_scope(&mut self, decls: &[TierDecl], scope: &str) {
        let mut seen: BTreeMap<&str, Span> = BTreeMap::new();
        for decl in decls {
            match seen.get(decl.label.as_str()) {
                Some(first) => {
                    let d = Diagnostic::deny(
                        Code::Wp001,
                        format!("duplicate tier declaration '{}' in {scope}", decl.label),
                    )
                    .at(decl.span)
                    .with_note(format!("first declared at line {}", first.line));
                    self.push(d);
                }
                None => {
                    seen.insert(&decl.label, decl.span);
                }
            }
        }
    }

    // ---- pass 2: parameters -----------------------------------------------

    fn check_parameters(&mut self) {
        let spec = self.spec;
        let declared: BTreeSet<&str> = spec.params.iter().map(|p| p.name.as_str()).collect();
        let mut used: BTreeSet<String> = BTreeSet::new();
        for rule in &spec.events {
            collect_single_idents(&rule.event, &mut used);
            for stmt in &rule.body {
                collect_stmt_idents(stmt, &mut used);
            }
        }
        for (rule, lowered) in self.rules() {
            // A timer lowered from `time = t` reads its period from `t`.
            let param = match (&lowered.event, &rule.event) {
                (EventKind::Timer { .. }, Expr::Binary { rhs, .. }) => rhs.as_ident(),
                _ => None,
            };
            if let Some(name) = param.filter(|name| !declared.contains(name)) {
                let d = Diagnostic::deny(
                    Code::Wp003,
                    format!("timer event references undefined parameter '{name}'"),
                )
                .at(rule.span)
                .with_note("declare it in the specification header, e.g. `(time t)`");
                self.push(d);
            }
        }
        for p in spec.params.iter().filter(|p| !used.contains(&p.name)) {
            let d = Diagnostic::note(
                Code::Wp004,
                format!("parameter '{} {}' is never used", p.ty, p.name),
            )
            .at(p.span);
            self.push(d);
        }
    }

    // ---- passes 3+4: events and responses ---------------------------------

    fn check_rules(&mut self) {
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
        }
        for (rule, lowered) in self.rules() {
            self.check_event(&lowered.event, rule.span);
            // In the request path of a put or get (§3.2.3)?
            let sensitive = matches!(
                lowered.event,
                EventKind::Insert { .. } | EventKind::OpLatency { .. }
            );
            for_each_action(&rule.body, &lowered.actions, &mut |action, span| {
                self.check_action(action, span, sensitive)
            });
        }
    }

    fn check_event(&mut self, event: &EventKind, span: Span) {
        let dead = match *event {
            EventKind::Timer {
                period_ms: Some(ms),
            } if ms <= 0.0 => Some("timer period is not positive; rule can never fire".to_string()),
            EventKind::TierFilled { fraction, .. } if fraction <= 0.0 || fraction > 1.0 => {
                Some(format!(
                    "fill threshold {:.0}% can never be reached; rule is dead",
                    fraction * 100.0
                ))
            }
            EventKind::ColdData { older_than_ms } if older_than_ms <= 0.0 => {
                Some("cold-data threshold is not positive; rule matches everything".to_string())
            }
            _ => None,
        };
        if let EventKind::Insert { into: Some(tier) } | EventKind::TierFilled { tier, .. } = event {
            self.check_tier_ref(tier, span);
        }
        if let Some(message) = dead {
            self.push(Diagnostic::warn(Code::Wp006, message).at(span));
        }
    }

    fn check_action(&mut self, action: &Action, span: Span, sensitive: bool) {
        let (what, to) = operands(action);
        if let Some(Selector::Where(cond)) = what {
            self.check_condition(cond, span);
        }
        if let Some(Target::Tier(t)) = to {
            self.check_tier_ref(t, span);
        }
        let lands = matches!(
            action,
            Action::Store { .. } | Action::Copy { .. } | Action::Forward { .. }
        );
        if let Some(tier) = to.and_then(|to| self.tier_target(to)) {
            let kind = tier.kind_name.to_ascii_lowercase();
            if sensitive && lands && ARCHIVAL_KINDS.contains(&kind.as_str()) {
                self.push(
                    Diagnostic::warn(
                        Code::Wp008,
                        format!(
                            "archival-class tier '{}' ({kind}) targeted on a \
                             latency-sensitive path",
                            tier.label
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
        match action {
            Action::If { cond, .. } => {
                self.check_condition(cond, span);
                if let Some(why) = contradiction(cond) {
                    self.push(
                        Diagnostic::warn(
                            Code::Wp015,
                            format!("branch condition is constant: {why}"),
                        )
                        .at(span),
                    );
                }
            }
            Action::Grow { tier, .. } => self.check_tier_ref(tier, span),
            Action::Copy {
                bandwidth_bps: Some(bps),
                ..
            }
            | Action::Move {
                bandwidth_bps: Some(bps),
                ..
            } if *bps <= 0.0 => {
                self.push(
                    Diagnostic::deny(Code::Wp009, "bandwidth limit must be positive").at(span),
                );
            }
            // change_policy(what:consistency, to:<policy>) must name a policy
            // that exists (a canned policy or this specification itself).
            Action::ChangePolicy {
                what: Selector::Consistency,
                to: Target::Policy(to) | Target::Tier(to),
            } if crate::canned::by_name(to).is_none() && *to != self.spec.name => {
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
            _ => {}
        }
    }

    fn check_condition(&mut self, cond: &Condition, span: Span) {
        for tier in condition_tier_refs(cond) {
            self.check_tier_ref(tier, span);
        }
    }

    fn check_tier_ref(&mut self, label: &str, span: Span) {
        // A spec that declares no tiers at all takes its tier stack from the
        // instance it is launched on, so its references cannot be checked;
        // only check them when the spec itself declares the layout.
        if self.tiers.is_empty() || self.tiers.contains_key(label) {
            return;
        }
        let declared: Vec<&str> = self.tiers.keys().copied().collect();
        let d = Diagnostic::deny(
            Code::Wp002,
            format!("reference to undeclared tier '{label}'"),
        )
        .at(span)
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
        // Default ingest tiers: the first tier of the local stack (Tiera) or
        // of each region's stack (Wiera) — where `to:local_instance` and
        // `to:all_regions` place data.
        let stacks: Vec<&[TierLayout]> = match self.spec.kind {
            SpecKind::Tiera => vec![&self.lowered.tiers],
            SpecKind::Wiera => (self.lowered.regions.iter())
                .map(|r| r.instance.tiers.as_slice())
                .collect(),
        };
        let first_tiers: Vec<&str> = (stacks.iter())
            .filter_map(|stack| Some(stack.first()?.label.as_str()))
            .collect();
        let mut populated: BTreeSet<&str> = BTreeSet::new();
        let mut edges: Vec<(&str, &str)> = Vec::new();
        // (label, span) pairs of tiers a rule observes.
        let mut reads: Vec<(&str, Span)> = Vec::new();
        let mut has_insert = false;
        let mut flow_warns = Vec::new();

        for (rule, lowered) in self.rules() {
            let is_insert = matches!(lowered.event, EventKind::Insert { .. });
            has_insert |= is_insert;
            match &lowered.event {
                EventKind::Insert { into: Some(tier) } => {
                    populated.insert(tier);
                }
                EventKind::TierFilled { tier, .. } => reads.push((tier, rule.span)),
                _ => {}
            }
            for_each_action(&rule.body, &lowered.actions, &mut |action, span| {
                let (what, Some(to)) = operands(action) else {
                    return;
                };
                let sources = match what {
                    Some(Selector::Where(cond)) => location_refs(cond),
                    _ => Vec::new(),
                };
                reads.extend(sources.iter().map(|src| (*src, span)));
                match self.tier_target(to) {
                    Some(into) => {
                        if is_insert && sources.is_empty() {
                            // Ingest flows populate their target directly.
                            populated.insert(&into.label);
                        }
                        for src in sources {
                            edges.push((src, &into.label));
                            // WP007: bounded flow into a strictly smaller tier.
                            let from = self.tiers.get(src).map_or(0, |t| t.size_bytes);
                            let into_size = into.size_bytes;
                            if from > 0 && into_size > 0 && into_size < from {
                                flow_warns.push(
                                    Diagnostic::warn(
                                        Code::Wp007,
                                        format!(
                                            "flow from tier '{src}' ({from} bytes) into \
                                             smaller tier '{}' ({into_size} bytes) can overflow",
                                            into.label
                                        ),
                                    )
                                    .at(span),
                                );
                            }
                        }
                    }
                    None if is_insert
                        && sources.is_empty()
                        && matches!(
                            to,
                            Target::LocalInstance | Target::AllRegions | Target::PrimaryInstance
                        ) =>
                    {
                        populated.extend(first_tiers.iter().copied());
                    }
                    None => {}
                }
            });
        }
        self.diags.extend(flow_warns);

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
                if populated.contains(src) && populated.insert(dst) {
                    changed = true;
                }
            }
        }
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for (label, span) in reads {
            if self.tiers.contains_key(label)
                && !populated.contains(label)
                && reported.insert(label)
            {
                self.push(
                    Diagnostic::warn(
                        Code::Wp016,
                        format!("rule reads tier '{label}' but no data-flow path populates it"),
                    )
                    .at(span)
                    .with_note("no insert, store, copy, or move rule ever places data there"),
                );
            }
        }
    }

    // ---- pass 6: consistency ----------------------------------------------

    /// Each insert rule's shape implies one of the paper's consistency
    /// protocols; two insert rules implying different protocols leave the
    /// instance in an undefined model, and a Wiera policy whose first insert
    /// rule implies none has no protocol to run.
    fn check_consistency(&mut self) {
        if !self.lowered.diags.is_empty() {
            // A rule that did not lower has no shape; its finding refuses
            // the policy already.
            return;
        }
        let mut models: Vec<(ConsistencyModel, Span)> = Vec::new();
        let inserts = self
            .rules()
            .filter(|(_, lowered)| matches!(lowered.event, EventKind::Insert { .. }));
        for (i, (rule, lowered)) in inserts.enumerate() {
            match deduce_consistency(std::slice::from_ref(lowered)) {
                Some(model) => models.push((model, rule.span)),
                // The first insert rule is the one the runtime deduces from.
                None if i == 0 && self.spec.kind == SpecKind::Wiera => self.push(
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
                    self.push(
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
    }
}

// ---- walkers ---------------------------------------------------------------

/// Call `f` on every lowered action of a rule body, nested ones included,
/// with the span of the statement it was lowered from. A rule that lowered
/// has one action per statement, so the two trees walk in step.
fn for_each_action<'l>(body: &[Stmt], actions: &'l [Action], f: &mut dyn FnMut(&'l Action, Span)) {
    for (stmt, action) in body.iter().zip(actions) {
        f(action, stmt.span());
        if let (
            Stmt::If {
                then, otherwise, ..
            },
            Action::If {
                then: lowered_then,
                otherwise: lowered_otherwise,
                ..
            },
        ) = (stmt, action)
        {
            for_each_action(then, lowered_then, f);
            for_each_action(otherwise, lowered_otherwise, f);
        }
    }
}

/// An action's `what:` and the `to:` it moves data to (`change_policy`'s
/// `to:` names a policy or a role instead).
fn operands(action: &Action) -> (Option<&Selector>, Option<&Target>) {
    match action {
        Action::Store { what, to }
        | Action::Copy { what, to, .. }
        | Action::Move { what, to, .. }
        | Action::Forward { what, to }
        | Action::Queue { what, to } => (Some(what), Some(to)),
        Action::Delete { what }
        | Action::Lock { what }
        | Action::Release { what }
        | Action::ChangePolicy { what, .. }
        | Action::Compress { what }
        | Action::Encrypt { what } => (Some(what), None),
        Action::SetAttr { .. } | Action::Grow { .. } | Action::If { .. } => (None, None),
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

/// The comparisons at the leaves of a condition, in source order.
fn comparisons(c: &Condition) -> Vec<(&[String], CmpOp, &CondValue)> {
    fn walk<'c>(c: &'c Condition, out: &mut Vec<(&'c [String], CmpOp, &'c CondValue)>) {
        match c {
            Condition::And(a, b) | Condition::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Condition::Cmp { field, op, value } => out.push((field, *op, value)),
        }
    }
    let mut out = Vec::new();
    walk(c, &mut out);
    out
}

/// Tier labels a condition names: the tier compared with
/// `object.location` or `insert.into`, plus `tierX` in a `tierX.<attr>`
/// field.
fn condition_tier_refs(c: &Condition) -> Vec<&str> {
    let is_tier = |s: &str| s.to_ascii_lowercase().starts_with("tier");
    let mut out = Vec::new();
    for (field, _, value) in comparisons(c) {
        let pinned = matches!(field.join(".").as_str(), "object.location" | "insert.into");
        let other_field = match value {
            CondValue::Ident(t) if pinned && is_tier(t) => {
                out.push(t.as_str());
                None
            }
            CondValue::Field(p) => Some(p.as_slice()),
            _ => None,
        };
        for path in std::iter::once(field).chain(other_field) {
            if path.len() > 1 && is_tier(&path[0]) {
                out.push(path[0].as_str());
            }
        }
    }
    out
}

/// Tier labels a condition pins `object.location` to (data-flow sources).
fn location_refs(c: &Condition) -> Vec<&str> {
    comparisons(c)
        .into_iter()
        .filter_map(|(field, op, value)| match value {
            CondValue::Ident(t) if op == CmpOp::Eq && field.join(".") == "object.location" => {
                Some(t.as_str())
            }
            _ => None,
        })
        .collect()
}

/// A conjunction pinning one field to two different values is always
/// false; returns why. An `||` anywhere makes the analysis inconclusive.
fn contradiction(c: &Condition) -> Option<String> {
    fn has_or(c: &Condition) -> bool {
        match c {
            Condition::Or(..) => true,
            Condition::And(a, b) => has_or(a) || has_or(b),
            Condition::Cmp { .. } => false,
        }
    }
    if has_or(c) {
        return None;
    }
    let pins: Vec<(String, &str)> = comparisons(c)
        .into_iter()
        .filter_map(|(field, op, value)| match value {
            CondValue::Ident(v) if op == CmpOp::Eq => Some((field.join("."), v.as_str())),
            _ => None,
        })
        .collect();
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

    /// Inputs the compiler rejects that an analyzer with its own copy of the
    /// lowering tables once passed as clean: each is now a deny finding on
    /// its line, and `compile` refuses it with the findings attached.
    #[test]
    fn what_does_not_lower_is_a_deny_on_its_line() {
        let in_rule = |stmt: &str| {
            format!(
                "Tiera T(time t) {{\n  tier1: {{name: Memcached, size: 5G}};\n  \
                 tier2: {{name: EBS, size: 10G}};\n  event(time=t) : response {{\n    \
                 {stmt}\n  }}\n}}"
            )
        };
        let rows: Vec<(String, usize)> = vec![
            (in_rule("grow(what:tier1, by:lots);"), 5),
            (in_rule("grow(what:tier1.x, by:1G);"), 5),
            (
                in_rule("copy(what:object.location == tier1, to:tier2, bandwidth:fast);"),
                5,
            ),
            (in_rule("store(what:insert.object, to:tier1.x);"), 5),
            (in_rule("store(what:5, to:tier1);"), 5),
            (in_rule("copy(what: 5 == object.dirty, to:tier2);"), 5),
            (
                in_rule("if (5 == object.dirty) { delete(what:object.dirty == true); }"),
                5,
            ),
            (in_rule("insert.object.dirty = (a == b);"), 5),
            (
                "Tiera T() {\n  tier1: {name: Memcached, size: 5G};\n  \
                 event(time = tier1.x) : response { delete(what:object.dirty == true); }\n}"
                    .to_string(),
                3,
            ),
            (
                "Tiera T() {\n  tier1: {name: Memcached, size: lots};\n}".to_string(),
                2,
            ),
            ("Tiera T() {\n  tier1: {size: 5G};\n}".to_string(), 2),
            (
                "Wiera W() {\n  Region1 = {name:LowLatencyInstance,\n    \
                 tier1 = {name:LocalMemory, size=5G} }\n}"
                    .to_string(),
                2,
            ),
        ];
        for (src, line) in rows {
            let (spec, diags) = analyze_source(&src);
            let spec = spec.unwrap_or_else(|| panic!("parses: {src}"));
            assert!(
                diags
                    .iter()
                    .any(|d| d.severity == crate::diag::Severity::Deny
                        && d.span.map(|s| s.line) == Some(line)),
                "{src}\n{diags:?}"
            );
            let err = crate::compile::compile(&spec).expect_err(&src);
            assert!(!err.diagnostics.is_empty(), "{src}: {err}");
            assert_eq!(err.span.map(|s| s.line), Some(line), "{src}: {err}");
        }
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
