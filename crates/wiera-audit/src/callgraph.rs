//! Interprocedural model: call resolution, lock-class resolution, and
//! depth-capped fixpoint closures over the call graph.
//!
//! Resolution is deliberately conservative-but-bounded:
//!
//! * `Type::m()` and `self.m()` resolve through impl blocks;
//! * `self.field.m()` resolves through the struct-field type table;
//! * unknown receivers widen to *every* function of that name (the
//!   trait-object fallback) — except for a blocklist of ubiquitous std
//!   method names (`get`, `push`, `clone`, …), which would otherwise drag
//!   half the workspace into every closure;
//! * widened candidate sets are capped, and closure propagation runs a
//!   bounded number of rounds, so pathological graphs stay linear.

use crate::items::{self, EnumDef, FieldType, FnDef, LockDecl, LockKind, SourceFile};
use crate::summary::{self, FnSummary, Receiver};
use std::collections::{BTreeSet, HashMap};

/// Tuning knobs for resolution and propagation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fixpoint propagation rounds == maximum call-chain depth considered.
    pub max_rounds: usize,
    /// Maximum candidates a widened (unknown-receiver) call may resolve to.
    pub max_widen: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_rounds: 24,
            max_widen: 12,
        }
    }
}

/// Is `name` on the widening blocklist? Unresolved calls to these names
/// are std-library noise, not analysis blind spots.
pub fn is_widen_blocked(name: &str) -> bool {
    WIDEN_BLOCKLIST.contains(&name)
}

/// Ubiquitous method names that never widen to same-name user functions
/// when the receiver type is unknown.
const WIDEN_BLOCKLIST: [&str; 100] = [
    "new",
    // `drop(x)` is std's free function; widening it to every user
    // `Drop::drop` impl drags unrelated lock closures into whatever
    // happens to call `drop`, fabricating lock-order edges.
    "drop",
    "default",
    "clone",
    "fmt",
    "len",
    "is_empty",
    "insert",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "get",
    "get_mut",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "map_err",
    "and_then",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "to_string",
    "to_vec",
    "to_owned",
    "as_str",
    "as_bytes",
    "as_ref",
    "as_mut",
    "into",
    "from",
    "parse",
    "extend",
    "retain",
    "drain",
    "clear",
    "keys",
    "values",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "min",
    "max",
    "abs",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "join",
    "send",
    "try_send",
    "recv",
    "recv_timeout",
    "flush",
    "cloned",
    "copied",
    "collect",
    "filter",
    "filter_map",
    "fold",
    "sum",
    "count",
    "take",
    "skip",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "any",
    "all",
    "find",
    "position",
    "last",
    "first",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "elapsed",
    "load",
    "store",
    "spawn",
];

/// Workspace-wide analysis model.
pub struct Model {
    pub cfg: Config,
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnDef>,
    pub summaries: Vec<FnSummary>,
    pub enums: Vec<EnumDef>,
    pub locks: Vec<LockDecl>,
    pub fields: Vec<FieldType>,
    /// `resolved[f][c]` = fn ids the `c`-th call of fn `f` may target.
    pub resolved: Vec<Vec<Vec<usize>>>,
    /// `widened[f][c]` = the `c`-th call of fn `f` used the widening
    /// fallback (unknown receiver resolved by name alone).
    pub widened: Vec<Vec<bool>>,
    /// Interned lock-class names.
    pub classes: Vec<String>,
    /// `acquire_class[f][a]` = class id of the `a`-th acquire of fn `f`.
    pub acquire_class: Vec<Vec<Option<usize>>>,
    /// Acquires with no resolvable class (file, span) — surfaced in stats.
    pub unresolved_acquires: usize,
    /// Call sites that used the widening fallback.
    pub widened_calls: usize,
}

impl Model {
    /// Build the model over already-loaded source files.
    pub fn build(files: Vec<SourceFile>, cfg: Config) -> Model {
        let mut fns: Vec<FnDef> = Vec::new();
        let mut enums = Vec::new();
        let mut locks = Vec::new();
        let mut fields = Vec::new();
        let mut per_file_fn_ranges: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); files.len()];

        for (fi, f) in files.iter().enumerate() {
            let ex = items::extract(f, fi);
            for d in ex.fns {
                if let Some(b) = d.body {
                    per_file_fn_ranges[fi].push((b.0, b.1, fns.len()));
                }
                fns.push(d);
            }
            enums.extend(ex.enums);
            locks.extend(ex.locks);
            fields.extend(ex.fields);
        }

        // Summaries, skipping nested fn bodies.
        let mut summaries = Vec::with_capacity(fns.len());
        for d in &fns {
            let nested: Vec<(usize, usize)> = match d.body {
                Some((s, e)) => per_file_fn_ranges
                    .get(d.file)
                    .map(|v| {
                        v.iter()
                            .filter(|(os, oe, _)| *os > s && *oe < e)
                            .map(|(os, oe, _)| (*os, *oe))
                            .collect()
                    })
                    .unwrap_or_default(),
                None => Vec::new(),
            };
            summaries.push(match files.get(d.file) {
                Some(f) => summary::summarize(f, d, &nested),
                None => FnSummary::default(),
            });
        }

        // Indexes.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_type_method: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (id, d) in fns.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(id);
            if let Some(ty) = &d.impl_type {
                by_type_method
                    .entry((ty.as_str(), d.name.as_str()))
                    .or_default()
                    .push(id);
            }
        }
        let mut field_ty: HashMap<(&str, &str), &str> = HashMap::new();
        let mut field_ty_global: HashMap<&str, BTreeSet<&str>> = HashMap::new();
        for ft in &fields {
            field_ty.insert((ft.owner.as_str(), ft.field.as_str()), ft.ty.as_str());
            field_ty_global
                .entry(ft.field.as_str())
                .or_default()
                .insert(ft.ty.as_str());
        }

        // Call resolution.
        let mut resolved: Vec<Vec<Vec<usize>>> = Vec::with_capacity(fns.len());
        let mut widened_flags: Vec<Vec<bool>> = Vec::with_capacity(fns.len());
        let mut widened_calls = 0usize;
        for (id, s) in summaries.iter().enumerate() {
            let caller = &fns[id];
            let mut per_call = Vec::with_capacity(s.calls.len());
            let mut per_widen = Vec::with_capacity(s.calls.len());
            for c in &s.calls {
                let (mut targets, widened) = resolve_call(
                    caller,
                    &c.name,
                    &c.recv,
                    &by_name,
                    &by_type_method,
                    &field_ty,
                    &field_ty_global,
                    &fns,
                    &files,
                    &cfg,
                );
                if widened {
                    widened_calls += 1;
                }
                per_widen.push(widened);
                targets.sort_unstable();
                targets.dedup();
                per_call.push(targets);
            }
            resolved.push(per_call);
            widened_flags.push(per_widen);
        }

        // Lock-class resolution.
        let mut class_ids: HashMap<String, usize> = HashMap::new();
        let mut classes: Vec<String> = Vec::new();
        let intern = |name: &str, classes: &mut Vec<String>, ids: &mut HashMap<String, usize>| {
            if let Some(&i) = ids.get(name) {
                return i;
            }
            let i = classes.len();
            classes.push(name.to_string());
            ids.insert(name.to_string(), i);
            i
        };
        let mut acquire_class: Vec<Vec<Option<usize>>> = Vec::with_capacity(fns.len());
        let mut unresolved_acquires = 0usize;
        for (id, s) in summaries.iter().enumerate() {
            let file = fns[id].file;
            let mut per = Vec::with_capacity(s.acquires.len());
            for a in &s.acquires {
                let class = resolve_lock(&locks, file, a.base.as_deref(), a.kind);
                match class {
                    Some(c) => per.push(Some(intern(&c, &mut classes, &mut class_ids))),
                    None => {
                        unresolved_acquires += 1;
                        per.push(None);
                    }
                }
            }
            acquire_class.push(per);
        }

        // Guard-returning helpers: a fn like `MetaStore::shard_write`
        // acquires a lock and *returns the guard*, so the caller — not the
        // helper — holds the lock from the call site onward. Lexical
        // summaries attribute the acquire to the helper's tiny body, losing
        // every edge the caller creates under the guard. Propagate: a call
        // resolved to a fn whose declared return type names a `*Guard*`
        // type re-acquires that fn's lock classes at the call site, scoped
        // like a direct acquire there. Rounds are bounded so chains of
        // guard-returning wrappers converge; `lock`/`read`/`write` callees
        // are skipped because the direct summarizer already records those
        // call sites as acquires.
        let returns_guard: Vec<bool> = fns
            .iter()
            .map(|d| declares_guard_return(&files, d))
            .collect();
        for _ in 0..cfg.max_rounds {
            let mut add: Vec<(usize, summary::Acquire, Option<usize>)> = Vec::new();
            let mut seen: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
            for (f, s) in summaries.iter().enumerate() {
                let Some(body) = fns[f].body else { continue };
                let Some(file) = files.get(fns[f].file) else {
                    continue;
                };
                for (ci, c) in s.calls.iter().enumerate() {
                    for &t in &resolved[f][ci] {
                        if t == f
                            || !returns_guard[t]
                            || matches!(fns[t].name.as_str(), "lock" | "read" | "write")
                        {
                            continue;
                        }
                        for (a, cls) in summaries[t].acquires.iter().zip(&acquire_class[t]) {
                            let Some(cls) = *cls else { continue };
                            let dup = s
                                .acquires
                                .iter()
                                .zip(&acquire_class[f])
                                .any(|(x, k)| x.pos == c.pos && *k == Some(cls));
                            if dup || !seen.insert((f, c.pos, cls)) {
                                continue;
                            }
                            let after_close = if matches!(file.tok(c.pos + 1), Some(t) if t.is("("))
                            {
                                file.close_of(c.pos + 1) + 1
                            } else {
                                c.pos + 3
                            };
                            let scope_end = summary::guard_scope_at(file, c.pos, after_close, body);
                            add.push((
                                f,
                                summary::Acquire {
                                    base: None,
                                    kind: a.kind,
                                    pos: c.pos,
                                    scope_end,
                                    span: c.span,
                                },
                                Some(cls),
                            ));
                        }
                    }
                }
            }
            if add.is_empty() {
                break;
            }
            for (f, a, cls) in add {
                summaries[f].acquires.push(a);
                acquire_class[f].push(cls);
            }
        }

        Model {
            cfg,
            files,
            fns,
            summaries,
            enums,
            locks,
            fields,
            resolved,
            widened: widened_flags,
            classes,
            acquire_class,
            unresolved_acquires,
            widened_calls,
        }
    }

    /// Fixpoint boolean closure: `out[f]` is true when `seed(f)` or any
    /// resolved callee's closure is true, up to `max_rounds` of propagation.
    pub fn bool_closure(&self, seed: impl Fn(usize) -> bool) -> Vec<bool> {
        let mut out: Vec<bool> = (0..self.fns.len()).map(&seed).collect();
        // Each round reads the previous round's snapshot, so `max_rounds`
        // is an honest call-chain depth bound.
        for _ in 0..self.cfg.max_rounds {
            let prev = out.clone();
            let mut changed = false;
            for (f, slot) in out.iter_mut().enumerate() {
                if *slot {
                    continue;
                }
                let hit = self.resolved[f]
                    .iter()
                    .flatten()
                    .any(|&t| prev.get(t).copied().unwrap_or(false));
                if hit {
                    *slot = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        out
    }

    /// Fixpoint set closure: every lock class fn `f` may acquire directly
    /// or through calls, up to `max_rounds` deep.
    pub fn acquires_closure(&self) -> Vec<BTreeSet<usize>> {
        let mut out: Vec<BTreeSet<usize>> = self
            .acquire_class
            .iter()
            .map(|per| per.iter().flatten().copied().collect())
            .collect();
        // Snapshot per round: `max_rounds` bounds propagation depth.
        for _ in 0..self.cfg.max_rounds {
            let prev = out.clone();
            let mut changed = false;
            for (f, slot) in out.iter_mut().enumerate() {
                let mut add: Vec<usize> = Vec::new();
                for targets in &self.resolved[f] {
                    for &t in targets {
                        for &c in prev.get(t).into_iter().flatten() {
                            if !slot.contains(&c) {
                                add.push(c);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    slot.extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        out
    }

    /// Does the call at `summaries[f].calls[c]` happen while any guard of
    /// fn `f` is lexically live? Returns the live acquire indexes.
    pub fn held_at(&self, f: usize, pos: usize) -> Vec<usize> {
        self.summaries[f]
            .acquires
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pos < pos && pos <= a.scope_end)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Does the fn's declared return type name a guard type? Scans backward
/// from the body brace for the return-type `->`, then looks for any
/// `*Guard*` identifier before the brace. Stops at statement/item
/// boundaries so a previous item's tokens are never misread, and bounds
/// the window so pathological signatures stay cheap.
fn declares_guard_return(files: &[SourceFile], d: &FnDef) -> bool {
    let Some((b0, _)) = d.body else { return false };
    let Some(f) = files.get(d.file) else {
        return false;
    };
    let lo = b0.saturating_sub(64);
    let mut arrow = None;
    let mut p = b0;
    while p > lo {
        p -= 1;
        match f.tok(p) {
            Some(t) if t.is("->") => {
                arrow = Some(p);
                break;
            }
            Some(t) if t.is(";") || t.is("{") || t.is("}") => break,
            _ => {}
        }
    }
    let Some(a) = arrow else { return false };
    (a + 1..b0)
        .any(|i| matches!(f.tok(i), Some(crate::lexer::Tok::Ident(x)) if x.contains("Guard")))
}

#[allow(clippy::too_many_arguments)]
fn resolve_call(
    caller: &FnDef,
    name: &str,
    recv: &Receiver,
    by_name: &HashMap<&str, Vec<usize>>,
    by_type_method: &HashMap<(&str, &str), Vec<usize>>,
    field_ty: &HashMap<(&str, &str), &str>,
    field_ty_global: &HashMap<&str, BTreeSet<&str>>,
    fns: &[FnDef],
    files: &[SourceFile],
    cfg: &Config,
) -> (Vec<usize>, bool) {
    // Non-test callers never resolve into test helpers: those leave every
    // candidate set before a tier is picked, so a same-named helper cannot
    // shadow the production callee.
    let visible = |ids: Option<&Vec<usize>>| -> Vec<usize> {
        let ids = ids.into_iter().flatten().copied();
        ids.filter(|&t| caller.is_test || !fns[t].is_test).collect()
    };
    let method =
        |ty: &str| Some(visible(by_type_method.get(&(ty, name)))).filter(|v| !v.is_empty());
    let widen = |blocked_ok: bool| -> (Vec<usize>, bool) {
        if !blocked_ok && WIDEN_BLOCKLIST.contains(&name) {
            return (Vec::new(), false);
        }
        let mut v = visible(by_name.get(name));
        if v.len() > cfg.max_widen {
            v.truncate(cfg.max_widen);
        }
        let widened = !v.is_empty();
        (v, widened)
    };
    match recv {
        Receiver::Qualified(ty) => {
            if let Some(v) = method(ty) {
                return (v, false);
            }
            widen(false)
        }
        Receiver::SelfDot => {
            if let Some(v) = caller.impl_type.as_deref().and_then(method) {
                return (v, false);
            }
            widen(false)
        }
        Receiver::SelfField(field) => {
            let ty = caller
                .impl_type
                .as_deref()
                .and_then(|o| field_ty.get(&(o, field.as_str())).copied())
                .or_else(|| {
                    let set = field_ty_global.get(field.as_str())?;
                    if set.len() == 1 {
                        set.iter().next().copied()
                    } else {
                        None
                    }
                });
            if let Some(v) = ty.and_then(method) {
                return (v, false);
            }
            widen(false)
        }
        Receiver::Var(_) | Receiver::Expr => widen(false),
        Receiver::Free => {
            // `drop(x)` is std's free function; the only same-named user
            // fns are `Drop::drop` impls, and resolving to all of them
            // drags unrelated lock closures into every explicit drop.
            if name == "drop" {
                return (Vec::new(), false);
            }
            let all = visible(by_name.get(name));
            let caller_crate = files
                .get(caller.file)
                .map(|f| f.crate_name.as_str())
                .unwrap_or("");
            let free_only: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&t| fns[t].impl_type.is_none())
                .collect();
            let pool = if free_only.is_empty() {
                &all
            } else {
                &free_only
            };
            let same_file: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&t| fns[t].file == caller.file)
                .collect();
            if !same_file.is_empty() {
                return (same_file, false);
            }
            let same_crate: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&t| {
                    files.get(fns[t].file).map(|f| f.crate_name.as_str()) == Some(caller_crate)
                })
                .collect();
            if !same_crate.is_empty() {
                return (same_crate, false);
            }
            let mut v = pool.clone();
            let widened = v.len() > 1;
            if v.len() > cfg.max_widen {
                v.truncate(cfg.max_widen);
            }
            (v, widened)
        }
    }
}

/// Resolve a lock acquisition to its class string.
fn resolve_lock(
    locks: &[LockDecl],
    file: usize,
    base: Option<&str>,
    kind: LockKind,
) -> Option<String> {
    let unique = |iter: &mut dyn Iterator<Item = &LockDecl>| -> Option<String> {
        let mut classes: BTreeSet<&str> = BTreeSet::new();
        for l in iter {
            classes.insert(l.class.as_str());
        }
        if classes.len() == 1 {
            classes.iter().next().map(|s| s.to_string())
        } else {
            None
        }
    };
    if let Some(base) = base {
        // 1. binding match in the same file
        let mut it = locks
            .iter()
            .filter(|l| l.file == file && l.kind == kind && l.binding.as_deref() == Some(base));
        if let Some(c) = unique(&mut it) {
            return Some(c);
        }
        // 2. unique binding match anywhere
        let mut it = locks
            .iter()
            .filter(|l| l.kind == kind && l.binding.as_deref() == Some(base));
        if let Some(c) = unique(&mut it) {
            return Some(c);
        }
    }
    // 3. unique class of that kind declared in this file (covers loop
    //    variables over sharded lock vectors)
    let mut it = locks.iter().filter(|l| l.file == file && l.kind == kind);
    unique(&mut it)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sources: &[(&str, &str, &str)]) -> Model {
        let files = sources
            .iter()
            .map(|(origin, krate, src)| {
                SourceFile::new(origin.to_string(), krate.to_string(), src.to_string())
            })
            .collect();
        Model::build(files, Config::default())
    }

    fn fn_id(m: &Model, name: &str) -> usize {
        m.fns
            .iter()
            .position(|d| d.name == name)
            .unwrap_or(usize::MAX)
    }

    fn targets_of(m: &Model, caller: &str, callee: &str) -> Vec<String> {
        let f = fn_id(m, caller);
        let mut out = Vec::new();
        for (ci, c) in m.summaries[f].calls.iter().enumerate() {
            if c.name == callee {
                for &t in &m.resolved[f][ci] {
                    let ty = m.fns[t].impl_type.clone().unwrap_or_default();
                    out.push(format!("{}::{}", ty, m.fns[t].name));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn self_method_resolves_within_impl_block() {
        let m = model(&[(
            "a.rs",
            "c",
            "impl Node { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl Other { fn step(&self) {} }",
        )]);
        assert_eq!(targets_of(&m, "go", "step"), vec!["Node::step"]);
    }

    #[test]
    fn field_call_resolves_through_field_type_across_files() {
        let m = model(&[
            (
                "node.rs",
                "c",
                "struct Node { inst: Arc<Instance> }\n\
                 impl Node { fn go(&self) { self.inst.apply(); } }",
            ),
            (
                "inst.rs",
                "c",
                "impl Instance { fn apply(&self) {} }\nimpl Registry { fn apply(&self) {} }",
            ),
        ]);
        assert_eq!(targets_of(&m, "go", "apply"), vec!["Instance::apply"]);
    }

    #[test]
    fn unknown_receiver_widens_but_blocklist_holds() {
        let m = model(&[(
            "a.rs",
            "c",
            "impl A { fn fan_out(&self) { x.apply_delta(); y.get(); } }\n\
             impl B { fn apply_delta(&self) {} }\n\
             impl C { fn apply_delta(&self) {} }\n\
             impl D { fn get(&self) {} }",
        )]);
        // apply_delta is unusual → widened to both impls.
        assert_eq!(
            targets_of(&m, "fan_out", "apply_delta"),
            vec!["B::apply_delta", "C::apply_delta"]
        );
        // get is ubiquitous → blocked from widening.
        assert_eq!(targets_of(&m, "fan_out", "get"), Vec::<String>::new());
    }

    #[test]
    fn guard_returning_helper_propagates_acquire_to_caller() {
        // `grab` returns its shard guard, so `use_it` — not `grab` —
        // holds the lock from the call site to the end of its block.
        let m = model(&[(
            "store.rs",
            "c",
            "fn build() { let s = TrackedRwLock::new(\"store.shards\", ()); }\n\
             pub type ShardGuard<'a> = TrackedWriteGuard<'a, ()>;\n\
             impl Store { fn grab(&self, i: usize) -> ShardGuard<'_> { self.shards[i].write() }\n\
               fn use_it(&self) { let g = self.grab(0); self.step(); } \n\
               fn step(&self) {} }",
        )]);
        let f = fn_id(&m, "use_it");
        assert_eq!(
            m.summaries[f].acquires.len(),
            1,
            "call to guard-returning grab synthesizes an acquire"
        );
        let a = &m.summaries[f].acquires[0];
        assert_eq!(
            m.acquire_class[f][0].map(|c| m.classes[c].as_str()),
            Some("store.shards")
        );
        // The guard is let-bound, so the `step` call happens while held.
        let step = m.summaries[f].calls.iter().find(|c| c.name == "step");
        let pos = step.map(|c| c.pos).unwrap_or(0);
        assert!(a.pos < pos && pos <= a.scope_end, "step runs under guard");
    }

    #[test]
    fn non_guard_returning_helper_propagates_nothing() {
        // `with_shard` acquires internally but returns a plain value; its
        // callers never hold the lock.
        let m = model(&[(
            "store.rs",
            "c",
            "fn build() { let s = TrackedRwLock::new(\"store.shards\", ()); }\n\
             impl Store { fn with_shard(&self, i: usize) -> usize { self.shards[i].write().len() }\n\
               fn use_it(&self) { let n = self.with_shard(0); } }",
        )]);
        let f = fn_id(&m, "use_it");
        assert!(
            m.summaries[f].acquires.is_empty(),
            "value-returning helper must not leak an acquire to callers"
        );
    }

    #[test]
    fn free_drop_call_resolves_to_nothing() {
        // `drop(x)` is std's free function; it must not widen to user
        // `Drop::drop` impls (which would fabricate lock-order edges).
        let m = model(&[(
            "d.rs",
            "c",
            "impl Drop for G { fn drop(&mut self) { self.q.lock(); } }\n\
             fn f(x: G) { drop(x); }",
        )]);
        let f = fn_id(&m, "f");
        assert_eq!(m.resolved[f][0], Vec::<usize>::new());
    }

    #[test]
    fn free_fn_prefers_same_file_then_crate() {
        let m = model(&[
            ("a.rs", "c1", "fn go() { helper(); }\nfn helper() {}"),
            ("b.rs", "c1", "fn helper() {}"),
            ("c.rs", "c2", "fn go2() { helper(); }\nfn unrelated() {}"),
        ]);
        let f = fn_id(&m, "go");
        let t = &m.resolved[f][0];
        assert_eq!(t.len(), 1);
        assert_eq!(m.fns[t[0]].file, 0, "same-file helper wins");
        // go2's crate has no helper → widens to both c1 helpers.
        let f2 = fn_id(&m, "go2");
        assert_eq!(m.resolved[f2][0].len(), 2);
    }

    #[test]
    fn module_qualified_call_never_matches_local_method() {
        // `std::thread::spawn` must not resolve to an unrelated user fn
        // that happens to be named `spawn` in the same file; `crate::`
        // paths stay local free calls.
        let m = model(&[(
            "r.rs",
            "c1",
            "fn fan_out() { std::thread::spawn(|| {}); crate::helper(); }\n\
             fn helper() {}\n\
             impl Replica { pub fn spawn(&self) { self.boot(); } fn boot(&self) {} }",
        )]);
        let f = fn_id(&m, "fan_out");
        let spawn_targets = &m.resolved[f][0];
        assert!(
            spawn_targets.is_empty(),
            "std::thread::spawn resolved to {:?}",
            spawn_targets
                .iter()
                .map(|&t| m.fns[t].name.clone())
                .collect::<Vec<_>>()
        );
        let helper_targets = &m.resolved[f][1];
        assert_eq!(helper_targets.len(), 1, "crate:: call resolves locally");
        assert_eq!(m.fns[helper_targets[0]].name, "helper");
    }

    #[test]
    fn test_fns_are_not_callee_candidates_for_prod_code() {
        let m = model(&[(
            "a.rs",
            "c",
            "fn go() { helper2(); }\n#[cfg(test)]\nmod tests { fn helper2() {} }",
        )]);
        let f = fn_id(&m, "go");
        assert!(m.resolved[f][0].is_empty(), "test helper filtered out");
    }

    /// A test helper in the caller's own file must not hide the production
    /// fn of the same name in another file: the helper leaves the candidate
    /// set before the same-file tier is tried.
    #[test]
    fn a_same_file_test_helper_does_not_shadow_the_production_callee() {
        let m = model(&[
            (
                "replica.rs",
                "c",
                "fn handle() { reply(); }\n#[cfg(test)]\nmod tests { fn reply() {} }",
            ),
            ("msg.rs", "c", "pub fn reply() {}"),
        ]);
        let f = fn_id(&m, "handle");
        let targets = &m.resolved[f][0];
        assert_eq!(targets.len(), 1, "resolves to the production reply");
        assert!(!m.fns[targets[0]].is_test);
        assert_eq!(m.files[m.fns[targets[0]].file].origin, "msg.rs");
    }

    #[test]
    fn acquires_closure_propagates_and_respects_depth_cap() {
        let src = "impl A { fn l0(&self) { self.g.lock(); } fn l1(&self) { self.l0(); } \
                   fn l2(&self) { self.l1(); } fn l3(&self) { self.l2(); } }\n\
                   fn build() { let g = TrackedMutex::new(\"cls.g\", ()); }";
        let m = model(&[("a.rs", "c", src)]);
        let closure = m.acquires_closure();
        for f in ["l0", "l1", "l2", "l3"] {
            assert_eq!(closure[fn_id(&m, f)].len(), 1, "{f} sees cls.g");
        }
        // With rounds capped below the chain depth, the far end sees nothing.
        let files = vec![SourceFile::new("a.rs".into(), "c".into(), src.into())];
        let shallow = Model::build(
            files,
            Config {
                max_rounds: 1,
                max_widen: 12,
            },
        );
        let sc = shallow.acquires_closure();
        assert_eq!(sc[fn_id(&shallow, "l0")].len(), 1);
        assert!(
            sc[fn_id(&shallow, "l3")].is_empty(),
            "depth cap stops propagation"
        );
    }

    #[test]
    fn lock_resolution_falls_back_to_unique_file_class() {
        let m = model(&[(
            "meta.rs",
            "c",
            "fn build() { for _ in 0..16 { v.push(TrackedRwLock::new(\"tiera.metastore\", ())); } }\n\
             impl Meta { fn get(&self) { let sh = self.shards[i].read(); } }",
        )]);
        let f = fn_id(&m, "get");
        assert_eq!(m.acquire_class[f], vec![Some(0)]);
        assert_eq!(m.classes, vec!["tiera.metastore"]);
    }

    #[test]
    fn bool_closure_reaches_transitively() {
        let m = model(&[(
            "a.rs",
            "c",
            "impl A { fn top(&self) { self.mid(); } fn mid(&self) { self.record_history(); } \
             fn record_history(&self) {} fn other(&self) {} }",
        )]);
        let reaches = m.bool_closure(|f| m.fns[f].name == "record_history");
        assert!(reaches[fn_id(&m, "top")]);
        assert!(reaches[fn_id(&m, "mid")]);
        assert!(!reaches[fn_id(&m, "other")]);
    }
}
