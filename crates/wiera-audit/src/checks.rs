//! The WS1xx checks, run over a built [`Model`].
//!
//! | code  | severity | what |
//! |-------|----------|------|
//! | WS100 | deny     | static lock-order cycles over tracked-lock classes |
//! | WS101 | warn/deny| wire-enum variant coverage; epoch-fencing and history |
//! |       |          | completeness of replication/write handler arms |
//! | WS102 | warn     | panic sites reachable from data-path entry points |
//! | WS103 | warn     | blocking operations while a tracked guard is live |
//! | WS104 | warn     | metric-name/kind/label discipline |
//!
//! Every finding honors `// ws-audit: allow(WSnnn): reason` directives on
//! the finding's line (or the line above), and `allow-file(...)` for whole
//! files — the reviewed-suppression mechanism fixtures and deliberate
//! deadlock scenarios use.

use crate::callgraph::Model;
use crate::summary::fence_evidence_in;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use wiera_policy::diag::{Code, Diagnostic, Span};

/// A diagnostic plus the file it is anchored in (None for workspace-level
/// notes such as runtime-coverage summaries).
#[derive(Debug)]
pub struct Finding {
    pub file: Option<usize>,
    pub diag: Diagnostic,
}

/// Enums whose variants make up the wire protocol.
const WIRE_ENUMS: [&str; 2] = ["DataMsg", "CoordMsg"];

/// DataMsg variants whose handler arms must fence on epoch.
const FENCE_REQUIRED: [&str; 5] = [
    "Replicate",
    "ForwardPut",
    "ChangeConsistency",
    "ChangePrimary",
    "SetPeers",
];

/// DataMsg variants whose handler arms must record an op-history span.
const HISTORY_REQUIRED: [&str; 4] = ["Put", "Get", "Replicate", "ForwardPut"];

pub(crate) fn is_handler(name: &str) -> bool {
    name == "dispatch" || name.starts_with("handle_")
}

pub(crate) fn allowed(m: &Model, file: usize, code: &str, line: usize) -> bool {
    m.files
        .get(file)
        .is_some_and(|f| f.allows.iter().any(|a| a.covers(code, line)))
}

/// Run every check. `runtime_edges` are `(from, to)` lock-class pairs the
/// runtime lockreg has observed (from `--runtime-edges`), used to report
/// static/dynamic coverage.
pub fn run_checks(m: &Model, runtime_edges: Option<&[(String, String)]>) -> Vec<Finding> {
    let mut out = Vec::new();
    ws100_lock_cycles(m, runtime_edges, &mut out);
    ws101_handler_completeness(m, &mut out);
    ws102_panic_reachability(m, &mut out);
    ws103_blocking_under_lock(m, &mut out);
    ws104_metrics_discipline(m, &mut out);
    out
}

// ---------------------------------------------------------------------------
// WS100: static lock-order cycles
// ---------------------------------------------------------------------------

struct EdgeEv {
    file: usize,
    span: Span,
    desc: String,
    allowed: bool,
}

/// The static lock-order edge set as `(held-class, acquired-class)` name
/// pairs: class A held while class B is acquired, directly or through a
/// call whose closure acquires B. This is the same edge universe WS100
/// cycles over, exported for the runtime-soundness gate in wiera-check —
/// every edge the runtime lockreg observes must appear here.
pub fn lock_edges(m: &Model) -> BTreeSet<(String, String)> {
    let closure = m.acquires_closure();
    let mut out = BTreeSet::new();
    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test {
            continue;
        }
        for (i, a1) in s.acquires.iter().enumerate() {
            let Some(c1) = m.acquire_class[f][i] else {
                continue;
            };
            for (j, a2) in s.acquires.iter().enumerate() {
                if i == j || !(a1.pos < a2.pos && a2.pos <= a1.scope_end) {
                    continue;
                }
                let Some(c2) = m.acquire_class[f][j] else {
                    continue;
                };
                if c1 != c2 {
                    out.insert((m.classes[c1].clone(), m.classes[c2].clone()));
                }
            }
        }
        for (ci, c) in s.calls.iter().enumerate() {
            let held = m.held_at(f, c.pos);
            if held.is_empty() {
                continue;
            }
            for &t in &m.resolved[f][ci] {
                for &c2 in &closure[t] {
                    for &hi in &held {
                        let Some(c1) = m.acquire_class[f][hi] else {
                            continue;
                        };
                        if c1 != c2 {
                            out.insert((m.classes[c1].clone(), m.classes[c2].clone()));
                        }
                    }
                }
            }
        }
    }
    out
}

fn ws100_lock_cycles(
    m: &Model,
    runtime_edges: Option<&[(String, String)]>,
    out: &mut Vec<Finding>,
) {
    // Edges: class A held while class B is acquired (directly or through a
    // call whose closure acquires B).
    let closure = m.acquires_closure();
    let mut edges: BTreeMap<(usize, usize), Vec<EdgeEv>> = BTreeMap::new();

    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test {
            continue;
        }
        let file = m.fns[f].file;
        let origin = m.files.get(file).map(|x| x.origin.as_str()).unwrap_or("?");
        // Direct acquire-while-held edges.
        for (i, a1) in s.acquires.iter().enumerate() {
            let Some(c1) = m.acquire_class[f][i] else {
                continue;
            };
            for (j, a2) in s.acquires.iter().enumerate() {
                if i == j || !(a1.pos < a2.pos && a2.pos <= a1.scope_end) {
                    continue;
                }
                let Some(c2) = m.acquire_class[f][j] else {
                    continue;
                };
                if c1 == c2 {
                    continue;
                }
                edges.entry((c1, c2)).or_default().push(EdgeEv {
                    file,
                    span: a2.span,
                    desc: format!(
                        "{} acquires '{}' while holding '{}' ({}:{})",
                        m.fns[f].name, m.classes[c2], m.classes[c1], origin, a2.span.line
                    ),
                    allowed: allowed(m, file, "WS100", a2.span.line),
                });
            }
        }
        // Call edges: held here, acquired somewhere down the call chain.
        for (ci, c) in s.calls.iter().enumerate() {
            let held = m.held_at(f, c.pos);
            if held.is_empty() {
                continue;
            }
            for &t in &m.resolved[f][ci] {
                for &c2 in &closure[t] {
                    for &hi in &held {
                        let Some(c1) = m.acquire_class[f][hi] else {
                            continue;
                        };
                        if c1 == c2 {
                            continue;
                        }
                        edges.entry((c1, c2)).or_default().push(EdgeEv {
                            file,
                            span: c.span,
                            desc: format!(
                                "{} calls {} while holding '{}'; {} may acquire '{}' ({}:{})",
                                m.fns[f].name,
                                c.name,
                                m.classes[c1],
                                m.fns[t].name,
                                m.classes[c2],
                                origin,
                                c.span.line
                            ),
                            allowed: allowed(m, file, "WS100", c.span.line),
                        });
                    }
                }
            }
        }
    }

    // SCCs over the class graph.
    let n = m.classes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
    }
    let sccs = tarjan_sccs(&adj);

    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let members: BTreeSet<usize> = scc.iter().copied().collect();
        let cycle_edges: Vec<(&(usize, usize), &Vec<EdgeEv>)> = edges
            .iter()
            .filter(|((a, b), _)| members.contains(a) && members.contains(b))
            .collect();
        if cycle_edges
            .iter()
            .all(|(_, evs)| evs.iter().all(|e| e.allowed))
        {
            continue; // every edge reviewed and allowed
        }
        let names: Vec<&str> = members.iter().map(|&c| m.classes[c].as_str()).collect();
        let anchor = cycle_edges
            .iter()
            .flat_map(|(_, evs)| evs.iter())
            .find(|e| !e.allowed);
        let (file, span) = anchor
            .map(|e| (Some(e.file), e.span))
            .unwrap_or((None, Span::default()));
        let mut d = Diagnostic::deny(
            Code::Ws100,
            format!(
                "static lock-order cycle among tracked classes: {}",
                names.join(" <-> ")
            ),
        )
        .at(span);
        for (_, evs) in &cycle_edges {
            if let Some(e) = evs.first() {
                d = d.with_note(e.desc.clone());
            }
        }
        out.push(Finding { file, diag: d });
    }

    // Runtime-coverage note: which static edges lockreg replay has seen.
    let total = edges.len();
    let msg = match runtime_edges {
        Some(rt) => {
            let rtset: HashSet<(&str, &str)> =
                rt.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let covered = edges
                .keys()
                .filter(|(a, b)| rtset.contains(&(m.classes[*a].as_str(), m.classes[*b].as_str())))
                .count();
            let uncovered: Vec<String> = edges
                .keys()
                .filter(|(a, b)| !rtset.contains(&(m.classes[*a].as_str(), m.classes[*b].as_str())))
                .take(5)
                .map(|(a, b)| format!("{} -> {}", m.classes[*a], m.classes[*b]))
                .collect();
            let mut s = format!(
                "lock-order edges: {total} static, {covered} covered by runtime lockreg replay"
            );
            if !uncovered.is_empty() {
                s.push_str(&format!("; uncovered: {}", uncovered.join(", ")));
            }
            s
        }
        None => format!(
            "lock-order edges: {total} static; no runtime lockreg snapshot provided \
             (pass --runtime-edges to report coverage)"
        ),
    };
    out.push(Finding {
        file: None,
        diag: Diagnostic::note(Code::Ws100, msg),
    });
}

/// Iterative Tarjan over a small class graph.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, next-child position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, ci)) = frames.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ci) {
                if let Some(top) = frames.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

// ---------------------------------------------------------------------------
// WS101: handler completeness
// ---------------------------------------------------------------------------

fn ws101_handler_completeness(m: &Model, out: &mut Vec<Finding>) {
    // (a) coverage: every wire-enum variant must appear in some pattern.
    let mut matched: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test {
            continue;
        }
        for (e, v) in &s.pattern_pairs {
            matched.entry(e.as_str()).or_default().insert(v.as_str());
        }
    }
    for e in &m.enums {
        if !WIRE_ENUMS.contains(&e.name.as_str()) {
            continue;
        }
        if allowed(m, e.file, "WS101", e.span.line) {
            continue;
        }
        let seen = matched.get(e.name.as_str());
        let missing: Vec<&str> = e
            .variants
            .iter()
            .map(|v| v.as_str())
            .filter(|v| !seen.is_some_and(|s| s.contains(v)))
            .collect();
        if !missing.is_empty() {
            let mut d = Diagnostic::warn(
                Code::Ws101,
                format!(
                    "wire enum {} has {} variant(s) no non-test code ever matches",
                    e.name,
                    missing.len()
                ),
            )
            .at(e.span);
            for v in missing {
                d = d.with_note(format!(
                    "{}::{} is constructed but never dispatched",
                    e.name, v
                ));
            }
            out.push(Finding {
                file: Some(e.file),
                diag: d,
            });
        }
    }

    // (b) fence/history completeness of handler arms.
    let history = m.bool_closure(|f| m.fns[f].name == "record_history");
    let fence = m.bool_closure(|f| m.summaries[f].fence_direct);

    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test || !is_handler(&m.fns[f].name) {
            continue;
        }
        let file = m.fns[f].file;
        let Some(src_file) = m.files.get(file) else {
            continue;
        };
        for arm in &s.arms {
            let variants: Vec<&str> = arm
                .pairs
                .iter()
                .filter(|(e, _)| e == "DataMsg")
                .map(|(_, v)| v.as_str())
                .collect();
            if variants.is_empty() {
                continue;
            }
            let needs_fence = variants.iter().any(|v| FENCE_REQUIRED.contains(v));
            let needs_history = variants.iter().any(|v| HISTORY_REQUIRED.contains(v));
            if !needs_fence && !needs_history {
                continue;
            }
            if allowed(m, file, "WS101", arm.span.line) {
                continue;
            }
            let calls_in_arm: Vec<usize> = s
                .calls
                .iter()
                .enumerate()
                .filter(|(_, c)| c.pos >= arm.body.0 && c.pos <= arm.body.1)
                .map(|(i, _)| i)
                .collect();
            if needs_fence {
                let direct = fence_evidence_in(src_file, arm.body);
                let transitive = calls_in_arm
                    .iter()
                    .any(|&ci| m.resolved[f][ci].iter().any(|&t| fence[t]));
                if !direct && !transitive {
                    out.push(Finding {
                        file: Some(file),
                        diag: Diagnostic::deny(
                            Code::Ws101,
                            format!(
                                "handler arm for DataMsg::{} performs no epoch fencing",
                                variants.join("|")
                            ),
                        )
                        .at(arm.span)
                        .with_note(
                            "replication/write handlers must refuse stale epochs \
                             (compare against self.epoch() or reply StaleEpoch)"
                                .to_string(),
                        ),
                    });
                }
            }
            if needs_history {
                let direct = calls_in_arm
                    .iter()
                    .any(|&ci| s.calls[ci].name == "record_history");
                let transitive = calls_in_arm
                    .iter()
                    .any(|&ci| m.resolved[f][ci].iter().any(|&t| history[t]));
                if !direct && !transitive {
                    out.push(Finding {
                        file: Some(file),
                        diag: Diagnostic::deny(
                            Code::Ws101,
                            format!(
                                "handler arm for DataMsg::{} never records an op-history span",
                                variants.join("|")
                            ),
                        )
                        .at(arm.span)
                        .with_note(
                            "the consistency oracle only sees ops that reach record_history; \
                             a silent handler is an unauditable write path"
                                .to_string(),
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WS102: panic-path reachability
// ---------------------------------------------------------------------------

fn ws102_panic_reachability(m: &Model, out: &mut Vec<Finding>) {
    // Multi-source BFS from data-path entry points, keeping parents so the
    // diagnostic can show one witness chain.
    let mut parent: HashMap<usize, Option<usize>> = HashMap::new();
    let mut queue: std::collections::VecDeque<(usize, usize)> = std::collections::VecDeque::new();
    for (f, d) in m.fns.iter().enumerate() {
        if !d.is_test && is_handler(&d.name) && d.body.is_some() {
            parent.insert(f, None);
            queue.push_back((f, 0));
        }
    }
    while let Some((f, depth)) = queue.pop_front() {
        if depth >= m.cfg.max_rounds {
            continue;
        }
        for targets in &m.resolved[f] {
            for &t in targets {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(t) {
                    e.insert(Some(f));
                    queue.push_back((t, depth + 1));
                }
            }
        }
    }

    let chain = |mut f: usize| -> String {
        let mut names = vec![m.fns[f].name.clone()];
        let mut hops = 0;
        while let Some(Some(p)) = parent.get(&f) {
            names.push(m.fns[*p].name.clone());
            f = *p;
            hops += 1;
            if hops > m.cfg.max_rounds {
                break;
            }
        }
        names.reverse();
        names.join(" -> ")
    };

    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();
    for f in reached {
        if m.fns[f].is_test {
            continue;
        }
        let file = m.fns[f].file;
        let s = &m.summaries[f];
        for p in &s.panics {
            if allowed(m, file, "WS102", p.span.line) {
                continue;
            }
            // `.expect(..)` / `.unwrap()` that resolved to a *user* method of
            // the same name (e.g. the policy parser's `Parser::expect`) is an
            // ordinary call, not a panic site. Both names are widen-blocked,
            // so a non-empty resolution here is always a typed hit.
            let user_method = s
                .calls
                .iter()
                .enumerate()
                .any(|(i, c)| c.pos == p.pos && !m.resolved[f][i].is_empty());
            if user_method {
                continue;
            }
            if !seen.insert((file, p.span.start)) {
                continue;
            }
            out.push(Finding {
                file: Some(file),
                diag: Diagnostic::warn(
                    Code::Ws102,
                    format!(
                        "`{}` on a path reachable from a data-path entry point",
                        p.what
                    ),
                )
                .at(p.span)
                .with_note(format!("witness call chain: {}", chain(f))),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// WS103: blocking while a tracked guard is live
// ---------------------------------------------------------------------------

fn ws103_blocking_under_lock(m: &Model, out: &mut Vec<Finding>) {
    let blocks = m.bool_closure(|f| !m.summaries[f].blocking.is_empty());
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test {
            continue;
        }
        let file = m.fns[f].file;
        // Direct blocking sites under a live guard.
        for &bi in &s.blocking {
            let c = &s.calls[bi];
            for hi in m.held_at(f, c.pos) {
                let Some(cls) = m.acquire_class[f][hi] else {
                    continue;
                };
                if allowed(m, file, "WS103", c.span.line) || !seen.insert((file, c.span.start)) {
                    continue;
                }
                out.push(Finding {
                    file: Some(file),
                    diag: Diagnostic::warn(
                        Code::Ws103,
                        format!(
                            "blocking op `{}` while tracked lock '{}' is held",
                            c.name, m.classes[cls]
                        ),
                    )
                    .at(c.span)
                    .with_note(
                        "a blocked thread holding a tracked lock stalls every peer \
                         contending for the same class"
                            .to_string(),
                    ),
                });
            }
        }
        // Calls into functions that may block, while a guard is live here.
        for (ci, c) in s.calls.iter().enumerate() {
            if s.blocking.contains(&ci) {
                continue; // already reported above
            }
            let held = m.held_at(f, c.pos);
            if held.is_empty() {
                continue;
            }
            if !m.resolved[f][ci].iter().any(|&t| blocks[t]) {
                continue;
            }
            for hi in held {
                let Some(cls) = m.acquire_class[f][hi] else {
                    continue;
                };
                if allowed(m, file, "WS103", c.span.line) || !seen.insert((file, c.span.start)) {
                    continue;
                }
                out.push(Finding {
                    file: Some(file),
                    diag: Diagnostic::warn(
                        Code::Ws103,
                        format!(
                            "call to `{}` (which may block on a channel or clock) \
                             while tracked lock '{}' is held",
                            c.name, m.classes[cls]
                        ),
                    )
                    .at(c.span),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WS104: metrics discipline
// ---------------------------------------------------------------------------

fn metric_kind(method: &str) -> &'static str {
    match method {
        "counter" | "inc" => "counter",
        "gauge" => "gauge",
        _ => "histogram",
    }
}

fn ws104_metrics_discipline(m: &Model, out: &mut Vec<Finding>) {
    struct Site {
        file: usize,
        span: Span,
        kind: &'static str,
        keys: Option<Vec<String>>,
        values: Vec<(String, String)>,
    }
    let mut by_name: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    for (f, s) in m.summaries.iter().enumerate() {
        if m.fns[f].is_test {
            continue;
        }
        let file = m.fns[f].file;
        for mu in &s.metrics {
            match &mu.name {
                Some(name) => {
                    let keys = mu
                        .labels
                        .as_ref()
                        .map(|ls| ls.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
                    let values = mu
                        .labels
                        .iter()
                        .flatten()
                        .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
                        .collect();
                    by_name.entry(name.clone()).or_default().push(Site {
                        file,
                        span: mu.span,
                        kind: metric_kind(&mu.method),
                        keys,
                        values,
                    });
                }
                None => {
                    if !allowed(m, file, "WS104", mu.span.line) {
                        out.push(Finding {
                            file: Some(file),
                            diag: Diagnostic::note(
                                Code::Ws104,
                                format!(
                                    "metric emitted with a computed name (via `{}`)",
                                    mu.method
                                ),
                            )
                            .at(mu.span),
                        });
                    }
                }
            }
        }
    }

    for (name, sites) in &by_name {
        let Some(first) = sites.first() else { continue };
        // Kind consistency.
        let kinds: BTreeSet<&str> = sites.iter().map(|s| s.kind).collect();
        if kinds.len() > 1 && !allowed(m, first.file, "WS104", first.span.line) {
            out.push(Finding {
                file: Some(first.file),
                diag: Diagnostic::warn(
                    Code::Ws104,
                    format!(
                        "metric '{}' is used as more than one kind: {}",
                        name,
                        kinds.into_iter().collect::<Vec<_>>().join(", ")
                    ),
                )
                .at(first.span),
            });
        }
        // Label-key-set consistency across sites that pass literal labels.
        let key_sets: BTreeSet<Vec<String>> = sites.iter().filter_map(|s| s.keys.clone()).collect();
        if key_sets.len() > 1 && !allowed(m, first.file, "WS104", first.span.line) {
            let rendered: Vec<String> = key_sets
                .iter()
                .map(|k| format!("[{}]", k.join(",")))
                .collect();
            out.push(Finding {
                file: Some(first.file),
                diag: Diagnostic::warn(
                    Code::Ws104,
                    format!(
                        "metric '{}' is emitted with inconsistent label keys: {}",
                        name,
                        rendered.join(" vs ")
                    ),
                )
                .at(first.span),
            });
        }
        // Per-site label count bound.
        for s in sites {
            if let Some(keys) = &s.keys {
                if keys.len() > 4 && !allowed(m, s.file, "WS104", s.span.line) {
                    out.push(Finding {
                        file: Some(s.file),
                        diag: Diagnostic::warn(
                            Code::Ws104,
                            format!(
                                "metric '{}' emitted with {} labels (cardinality bound is 4)",
                                name,
                                keys.len()
                            ),
                        )
                        .at(s.span),
                    });
                }
            }
        }
        // Distinct literal values per label key.
        let mut per_key: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for s in sites {
            for (k, v) in &s.values {
                per_key.entry(k.as_str()).or_default().insert(v.as_str());
            }
        }
        for (k, vals) in per_key {
            if vals.len() > 12 && !allowed(m, first.file, "WS104", first.span.line) {
                out.push(Finding {
                    file: Some(first.file),
                    diag: Diagnostic::warn(
                        Code::Ws104,
                        format!(
                            "metric '{}' label '{}' takes {} distinct literal values \
                             (cardinality bound is 12)",
                            name,
                            k,
                            vals.len()
                        ),
                    )
                    .at(first.span),
                });
            }
        }
    }

    // Registered-but-never-used: Invariant::X("name") references in the
    // bench harness must point at metrics some code path emits.
    for (fi, file) in m.files.iter().enumerate() {
        if !file.origin.ends_with("run_all.rs") {
            continue;
        }
        let toks = &file.tokens;
        let mut i = 0usize;
        while i + 4 < toks.len() {
            if toks[i].tok.is_ident("Invariant")
                && toks[i + 1].tok.is("::")
                && matches!(toks[i + 2].tok, crate::lexer::Tok::Ident(_))
                && toks[i + 3].tok.is("(")
            {
                if let crate::lexer::Tok::Str(name) = &toks[i + 4].tok {
                    if !by_name.contains_key(name)
                        && !allowed(m, fi, "WS104", toks[i + 4].span.line)
                    {
                        out.push(Finding {
                            file: Some(fi),
                            diag: Diagnostic::warn(
                                Code::Ws104,
                                format!(
                                    "invariant references metric '{name}' that no non-test \
                                     code path emits with a literal name"
                                ),
                            )
                            .at(toks[i + 4].span),
                        });
                    }
                }
                i += 5;
                continue;
            }
            i += 1;
        }
    }
}

/// Order findings: per file, then by span; workspace notes last.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by_key(|f| {
        (
            f.file.is_none(),
            f.file.unwrap_or(usize::MAX),
            f.diag.span.map(|s| s.start).unwrap_or(0),
            f.diag.code.as_str(),
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Config, Model};
    use crate::items::SourceFile;

    fn audit(sources: &[(&str, &str)]) -> (Model, Vec<Finding>) {
        let files = sources
            .iter()
            .map(|(origin, src)| {
                SourceFile::new(origin.to_string(), "testcrate".to_string(), src.to_string())
            })
            .collect();
        let m = Model::build(files, Config::default());
        let f = run_checks(&m, None);
        (m, f)
    }

    fn compacts(f: &[Finding]) -> Vec<String> {
        f.iter().map(|x| x.diag.compact()).collect()
    }

    #[test]
    fn abba_cycle_is_denied_and_allow_file_suppresses() {
        let src = "fn build() { let a = TrackedMutex::new(\"adv.a\", ()); \
                   let b = TrackedMutex::new(\"adv.b\", ()); }\n\
                   impl W { fn one(&self) { let g = self.a.lock(); self.b.lock(); } \
                   fn two(&self) { let g = self.b.lock(); self.a.lock(); } }\n\
                   struct W { a: TrackedMutex<()>, b: TrackedMutex<()> }";
        let (_, f) = audit(&[("w.rs", src)]);
        assert!(
            f.iter().any(|x| x.diag.compact().starts_with("WS100 deny")),
            "ABBA must be denied: {:?}",
            compacts(&f)
        );
        let suppressed = format!("// ws-audit: allow-file(WS100): deliberate plant\n{src}");
        let (_, f2) = audit(&[("w.rs", &suppressed)]);
        assert!(
            !f2.iter().any(|x| x.diag.compact().contains("WS100 deny")),
            "allow-file suppresses the cycle: {:?}",
            compacts(&f2)
        );
    }

    #[test]
    fn consistent_ordering_is_clean() {
        let src = "fn build() { let a = TrackedMutex::new(\"adv.a\", ()); \
                   let b = TrackedMutex::new(\"adv.b\", ()); }\n\
                   impl W { fn one(&self) { let g = self.a.lock(); self.b.lock(); } \
                   fn two(&self) { let g = self.a.lock(); self.b.lock(); } }";
        let (_, f) = audit(&[("w.rs", src)]);
        assert!(!f.iter().any(|x| x.diag.compact().contains("deny")));
    }

    #[test]
    fn handler_missing_fence_and_history_is_denied() {
        let src = "enum DataMsg { Replicate { epoch: u64 }, Ping }\n\
                   impl Node { fn handle_inline(&self, d: DataMsg) { match d { \
                   DataMsg::Replicate { epoch } => { self.apply(); } \
                   DataMsg::Ping => {} } } \
                   fn apply(&self) {} }";
        let (_, f) = audit(&[("n.rs", src)]);
        let c = compacts(&f);
        assert!(
            c.iter().any(|x| x.contains("no epoch fencing")),
            "fence deny expected: {c:?}"
        );
        assert!(
            c.iter().any(|x| x.contains("op-history")),
            "history deny expected: {c:?}"
        );
    }

    #[test]
    fn fence_and_history_satisfied_transitively() {
        let src = "enum DataMsg { ForwardPut { epoch: u64 }, Ping }\n\
                   impl Node { \
                   fn dispatch(&self, d: DataMsg) { match d { \
                     DataMsg::ForwardPut { epoch } => self.handle_app_op(d), \
                     DataMsg::Ping => {} } } \
                   fn handle_app_op(&self, d: DataMsg) { \
                     if epoch < self.epoch() { return; } self.record_history(); } \
                   fn epoch(&self) -> u64 { 0 } \
                   fn record_history(&self) {} }";
        let (_, f) = audit(&[("n.rs", src)]);
        assert!(
            !f.iter().any(|x| x.diag.compact().contains("deny")),
            "transitive fence+history must satisfy: {:?}",
            compacts(&f)
        );
    }

    #[test]
    fn unmatched_wire_variant_warns() {
        let src = "enum DataMsg { Put, Get, Never }\n\
                   fn use_them(d: DataMsg) { match d { DataMsg::Put => {} DataMsg::Get => {} _ => {} } }";
        let (_, f) = audit(&[("m.rs", src)]);
        let hit = f
            .iter()
            .find(|x| x.diag.compact().contains("variant"))
            .map(|x| format!("{:?}", x.diag.notes));
        assert!(
            hit.is_some_and(|h| h.contains("Never") && !h.contains("::Put")),
            "only Never is unmatched"
        );
    }

    #[test]
    fn panic_reachable_from_handler_warns_with_chain() {
        let src = "impl N { fn handle_op(&self) { self.step(); } \
                   fn step(&self) { self.deep(); } \
                   fn deep(&self) { x.unwrap(); } \
                   fn unrelated(&self) { y.unwrap(); } }";
        let (_, f) = audit(&[("n.rs", src)]);
        let ws102: Vec<&Finding> = f
            .iter()
            .filter(|x| x.diag.compact().starts_with("WS102"))
            .collect();
        assert_eq!(
            ws102.len(),
            1,
            "only the reachable unwrap: {:?}",
            compacts(&f)
        );
        assert!(ws102[0].diag.notes[0].contains("handle_op -> step -> deep"));
    }

    #[test]
    fn blocking_under_lock_warns_direct_and_transitive() {
        let src = "fn build() { let q = TrackedMutex::new(\"n.q\", ()); }\n\
                   impl N { fn direct(&self) { let g = self.q.lock(); rx.recv(); } \
                   fn indirect(&self) { let g = self.q.lock(); self.pump(); } \
                   fn pump(&self) { rx.recv(); } }";
        let (_, f) = audit(&[("n.rs", src)]);
        let ws103: Vec<String> = f
            .iter()
            .filter(|x| x.diag.compact().starts_with("WS103"))
            .map(|x| x.diag.compact())
            .collect();
        assert_eq!(ws103.len(), 2, "direct + transitive: {ws103:?}");
    }

    #[test]
    fn metric_kind_and_label_mismatches_warn() {
        let src =
            "impl N { fn a(&self) { self.metrics.inc(\"wiera_ops\", &[(\"op\", \"put\")]); } \
                   fn b(&self) { self.metrics.observe(\"wiera_ops\", &[(\"kind\", \"x\")]); } }";
        let (_, f) = audit(&[("n.rs", src)]);
        let c = compacts(&f);
        assert!(c.iter().any(|x| x.contains("more than one kind")), "{c:?}");
        assert!(
            c.iter().any(|x| x.contains("inconsistent label keys")),
            "{c:?}"
        );
    }

    #[test]
    fn invariant_over_unknown_metric_warns() {
        let a = "impl N { fn a(&self) { self.metrics.inc(\"wiera_real\", &[]); } }";
        let b = "fn checks() { let i = Invariant::CounterPositive(\"wiera_gone\"); \
                 let j = Invariant::CounterZero(\"wiera_real\"); }";
        let (_, f) = audit(&[("n.rs", a), ("run_all.rs", b)]);
        let c = compacts(&f);
        assert!(
            c.iter().any(|x| x.contains("wiera_gone")),
            "unknown metric flagged: {c:?}"
        );
        assert!(!c.iter().any(|x| x.contains("'wiera_real'")), "{c:?}");
    }
}
