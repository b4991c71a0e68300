//! Lowering parsed specifications into the semantic model the Tiera and
//! Wiera engines interpret.
//!
//! Compilation does three jobs:
//!
//! 1. **Layout extraction** — tier declarations become [`TierLayout`]s
//!    (name resolved, sizes normalized to bytes); region declarations become
//!    [`RegionLayout`]s.
//! 2. **Rule lowering** — each `event(...) : response {...}` becomes a
//!    [`Rule`]: a recognized [`EventKind`] plus a list of [`Action`]s with
//!    units normalized (durations → ms, sizes → bytes, rates → bytes/s,
//!    percent → fraction) and all symbolic targets resolved.
//! 3. **Consistency recognition** — the paper hand-codes its three
//!    consistency protocols from event/response shapes; we recognize those
//!    shapes in the insert rule and report them as a [`ConsistencyModel`]
//!    so the Wiera engine can run its native protocol implementation.
//!
//! This module is the one place the notation's meaning is written: which
//! event shapes, responses, arguments and units exist. A part that does not
//! lower becomes a coded deny [`Diagnostic`] at its span, and the static
//! analyzer ([`crate::analyze`]) runs its checks on the lowered result.

use crate::ast::{BinOp, EventRule, Expr, PolicySpec, RegionDecl, SpecKind, Stmt, TierDecl};
use crate::diag::{Code, Diagnostic, Span};
use crate::error::PolicyError;
use crate::units;
use crate::units::Unit;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A storage tier within an instance, sizes normalized to bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierLayout {
    pub label: String,
    /// Tier kind name as written (`Memcached`, `LocalDisk`, `S3-IA`, …);
    /// resolution to an actual backend kind happens in the tiera crate.
    pub kind_name: String,
    pub size_bytes: u64,
}

/// A Tiera instance template: named tier stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceLayout {
    pub name: String,
    pub tiers: Vec<TierLayout>,
}

/// One replica site in a Wiera policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionLayout {
    pub label: String,
    /// Region name as written (`US-West`); resolved by the wiera crate.
    pub region_name: String,
    pub primary: bool,
    pub instance: InstanceLayout,
}

/// The three consistency protocols of §3.3.1, recognized from rule shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsistencyModel {
    /// Global lock + synchronous broadcast from any replica (Fig. 3(a)).
    MultiPrimaries,
    /// All writes forwarded to one primary; `sync` chooses the `copy`
    /// (synchronous) vs `queue` (asynchronous) propagation variant (Fig. 3(b)).
    PrimaryBackup { sync: bool },
    /// Local write + queued background distribution (Fig. 4).
    Eventual,
}

impl std::fmt::Display for ConsistencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyModel::MultiPrimaries => write!(f, "MultiPrimaries"),
            ConsistencyModel::PrimaryBackup { sync: true } => write!(f, "PrimaryBackup(sync)"),
            ConsistencyModel::PrimaryBackup { sync: false } => write!(f, "PrimaryBackup(async)"),
            ConsistencyModel::Eventual => write!(f, "Eventual"),
        }
    }
}

/// Recognized event shapes (§2.1 Tiera events + §3.2.3 Wiera additions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// `insert.into` / `insert.into == tierX` — a put arrived (optionally
    /// scoped to a tier).
    Insert { into: Option<String> },
    /// `time = t` — periodic timer. `period_ms` is `None` when the period is
    /// an unbound specification parameter (bound at instantiation).
    Timer { period_ms: Option<f64> },
    /// `tierX.filled == 50%` — capacity threshold.
    TierFilled { tier: String, fraction: f64 },
    /// `object.lastAccessedTime > 120 hours` — ColdDataMonitoring (§3.2.3).
    ColdData { older_than_ms: f64 },
    /// `threshold.type == put|get` — LatencyMonitoring (§3.2.3).
    OpLatency { op: String },
    /// `threshold.type == primary` — RequestsMonitoring (§3.2.3).
    Requests,
}

/// What an action operates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Selector {
    /// `what: insert.object` — the object being inserted.
    InsertObject,
    /// `what: insert.key` — the key being inserted (lock/release).
    InsertKey,
    /// `what: object.location == tier1 && object.dirty == true` — all
    /// objects matching a metadata predicate.
    Where(Condition),
    /// `what: consistency` — the global consistency model (change_policy).
    Consistency,
    /// `what: primary_instance` — the primary role (change_policy).
    PrimaryRole,
}

/// Where an action sends data (or what it changes to).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Target {
    /// A tier label within this instance.
    Tier(String),
    /// The local Tiera instance (its default ingest tier).
    LocalInstance,
    /// Every other replica in the Wiera instance.
    AllRegions,
    /// The current primary instance.
    PrimaryInstance,
    /// The instance that forwarded the most requests (ChangePrimary).
    InstanceForwardMost,
    /// A named policy (change_policy to:EventualConsistency).
    Policy(String),
}

/// A lowered response action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    Store {
        what: Selector,
        to: Target,
    },
    Copy {
        what: Selector,
        to: Target,
        bandwidth_bps: Option<f64>,
    },
    Move {
        what: Selector,
        to: Target,
        bandwidth_bps: Option<f64>,
    },
    Delete {
        what: Selector,
    },
    Forward {
        what: Selector,
        to: Target,
    },
    Queue {
        what: Selector,
        to: Target,
    },
    Lock {
        what: Selector,
    },
    Release {
        what: Selector,
    },
    ChangePolicy {
        what: Selector,
        to: Target,
    },
    /// `insert.object.dirty = true`
    SetAttr {
        path: Vec<String>,
        value: CondValue,
    },
    Compress {
        what: Selector,
    },
    Encrypt {
        what: Selector,
    },
    Grow {
        tier: String,
        by_bytes: u64,
    },
    If {
        cond: Condition,
        then: Vec<Action>,
        otherwise: Vec<Action>,
    },
}

/// Comparison operators usable in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A normalized literal or field reference on the right of a comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CondValue {
    /// Canonical units: durations in ms, sizes in bytes, rates in bytes/s,
    /// percent as a fraction.
    Num(f64),
    Bool(bool),
    Ident(String),
    /// Another environment field (`forwarded_requests >= updates_from_primary`).
    Field(Vec<String>),
}

/// An evaluable predicate tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    And(Box<Condition>, Box<Condition>),
    Or(Box<Condition>, Box<Condition>),
    Cmp {
        field: Vec<String>,
        op: CmpOp,
        value: CondValue,
    },
}

/// Values an evaluation environment can supply for a field.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvValue {
    Num(f64),
    Bool(bool),
    Str(String),
}

/// Evaluation environment: maps dotted field paths to values. Canonical
/// units as in [`CondValue::Num`].
pub trait Env {
    fn lookup(&self, path: &[String]) -> Option<EnvValue>;
}

/// A `(path, value)` map environment, convenient for tests and monitors.
impl Env for BTreeMap<String, EnvValue> {
    fn lookup(&self, path: &[String]) -> Option<EnvValue> {
        self.get(&path.join(".")).cloned()
    }
}

impl Condition {
    /// Evaluate against an environment. Unknown fields make the comparison
    /// false (never errors at run time — matching the forgiving behaviour
    /// policies need when metadata is missing).
    pub fn eval(&self, env: &dyn Env) -> bool {
        match self {
            Condition::And(a, b) => a.eval(env) && b.eval(env),
            Condition::Or(a, b) => a.eval(env) || b.eval(env),
            Condition::Cmp { field, op, value } => {
                let Some(lhs) = env.lookup(field) else {
                    return false;
                };
                let rhs = match value {
                    CondValue::Num(n) => EnvValue::Num(*n),
                    CondValue::Bool(b) => EnvValue::Bool(*b),
                    // A bare identifier is first tried as an environment
                    // field (`forwarded_requests >= updates_from_primary`),
                    // falling back to a symbolic string (`== tier1`).
                    CondValue::Ident(s) => env
                        .lookup(std::slice::from_ref(s))
                        .unwrap_or_else(|| EnvValue::Str(s.clone())),
                    CondValue::Field(p) => match env.lookup(p) {
                        Some(v) => v,
                        None => return false,
                    },
                };
                Self::compare(&lhs, *op, &rhs)
            }
        }
    }

    fn compare(lhs: &EnvValue, op: CmpOp, rhs: &EnvValue) -> bool {
        use std::cmp::Ordering;
        let ord = match (lhs, rhs) {
            (EnvValue::Num(a), EnvValue::Num(b)) => a.partial_cmp(b),
            (EnvValue::Bool(a), EnvValue::Bool(b)) => Some(a.cmp(b)),
            (EnvValue::Str(a), EnvValue::Str(b)) => Some(a.cmp(b)),
            _ => None,
        };
        let Some(ord) = ord else { return false };
        match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One lowered event→response rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub event: EventKind,
    pub actions: Vec<Action>,
}

/// The compiled policy: layouts + rules + recognized consistency model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledPolicy {
    pub kind: SpecKind,
    pub name: String,
    pub tiers: Vec<TierLayout>,
    pub regions: Vec<RegionLayout>,
    pub rules: Vec<Rule>,
    /// Recognized consistency protocol, if the insert rule matches one of
    /// the paper's three shapes.
    pub consistency: Option<ConsistencyModel>,
}

/// Compile with no parameter bindings.
pub fn compile(spec: &PolicySpec) -> Result<CompiledPolicy, PolicyError> {
    compile_with_params(spec, &BTreeMap::new())
}

/// Compile, binding specification parameters (e.g. `time t`) to values in
/// canonical units (durations in ms).
///
/// Lowers the specification once and runs the static analyzer's checks on
/// the result. A deny-level finding — a part that does not lower, or a
/// failed check — refuses the specification; the findings are carried in
/// [`PolicyError::diagnostics`].
pub fn compile_with_params(
    spec: &PolicySpec,
    params: &BTreeMap<String, f64>,
) -> Result<CompiledPolicy, PolicyError> {
    let lowered = lower(spec, params);
    let diags = crate::analyze::check(spec, &lowered);
    if crate::diag::worst_is_deny(&diags, false) {
        return Err(PolicyError::rejected(diags));
    }
    // Without a deny finding every rule lowered.
    let rules: Vec<Rule> = lowered.rules.into_iter().flatten().collect();
    Ok(CompiledPolicy {
        kind: spec.kind,
        name: spec.name.clone(),
        tiers: lowered.tiers,
        regions: lowered.regions,
        consistency: deduce_consistency(&rules),
        rules,
    })
}

/// A specification lowered as far as each part goes, with a deny finding
/// for each part that does not lower.
pub(crate) struct Lowered {
    /// One layout per tier declaration; a malformed one keeps its label and
    /// leaves a missing kind empty and a malformed size 0.
    pub(crate) tiers: Vec<TierLayout>,
    /// One layout per region declaration, likewise.
    pub(crate) regions: Vec<RegionLayout>,
    /// One entry per source rule, in order; `None` for a rule any part of
    /// which did not lower.
    pub(crate) rules: Vec<Option<Rule>>,
    pub(crate) diags: Vec<Diagnostic>,
}

/// Lower every declaration and rule: the front end of both [`compile`] and
/// [`crate::analyze::analyze`].
pub(crate) fn lower(spec: &PolicySpec, params: &BTreeMap<String, f64>) -> Lowered {
    let mut c = Compiler {
        params,
        diags: Vec::new(),
    };
    let tiers = spec.tiers.iter().map(|t| c.tier_layout(t)).collect();
    let regions = spec.regions.iter().map(|r| c.region_layout(r)).collect();
    let tier_labels: Vec<&str> = spec.tiers.iter().map(|t| t.label.as_str()).collect();
    let rules = spec
        .events
        .iter()
        .map(|e| c.rule(e, &tier_labels))
        .collect();
    Lowered {
        tiers,
        regions,
        rules,
        diags: c.diags,
    }
}

struct Compiler<'a> {
    params: &'a BTreeMap<String, f64>,
    diags: Vec<Diagnostic>,
}

impl Compiler<'_> {
    fn deny(&mut self, code: Code, message: String, span: Span) {
        self.diags.push(Diagnostic::deny(code, message).at(span));
    }

    fn region_layout(&mut self, r: &RegionDecl) -> RegionLayout {
        let region_name = match r.attr("region").and_then(Expr::as_ident) {
            Some(name) => name.to_string(),
            None => {
                let message = format!("region '{}' missing 'region' attribute", r.label);
                self.deny(Code::Wp019, message, r.span);
                String::new()
            }
        };
        RegionLayout {
            label: r.label.clone(),
            region_name,
            primary: r.attr("primary").and_then(Expr::as_bool).unwrap_or(false),
            instance: InstanceLayout {
                name: r
                    .attr("name")
                    .and_then(Expr::as_ident)
                    .unwrap_or("Instance")
                    .to_string(),
                tiers: r.tiers.iter().map(|t| self.tier_layout(t)).collect(),
            },
        }
    }

    fn tier_layout(&mut self, t: &TierDecl) -> TierLayout {
        let label = &t.label;
        let kind_name = match t.attr("name").and_then(Expr::as_ident) {
            Some(name) => name.to_string(),
            None => {
                self.deny(
                    Code::Wp019,
                    format!("tier '{label}' missing 'name'"),
                    t.span,
                );
                String::new()
            }
        };
        let size_bytes = match t.attr("size").map(Expr::as_num) {
            None => 0, // unlimited / provider-managed (e.g. S3)
            Some(None) => {
                let message = format!("tier '{label}' size not numeric");
                self.deny(Code::Wp019, message, t.span);
                0
            }
            Some(Some((v, None))) => v as u64, // raw bytes
            Some(Some((v, Some(u)))) => units::to_bytes(v, u).unwrap_or_else(|| {
                let message = format!("tier '{label}' declares size with non-size unit '{u}'");
                self.deny(Code::Wp009, message, t.span);
                0
            }),
        };
        TierLayout {
            label: label.clone(),
            kind_name,
            size_bytes,
        }
    }

    // ---- events -----------------------------------------------------------

    fn rule(&mut self, rule: &EventRule, tier_labels: &[&str]) -> Option<Rule> {
        let before = self.diags.len();
        let event = self.event_kind(&rule.event);
        // Lowered even under an event that does not, so its findings show too.
        let actions = self.actions(&rule.body, tier_labels);
        match event {
            Ok(event) => (self.diags.len() == before).then_some(Rule { event, actions }),
            Err(d) => {
                self.diags.push(d.at(rule.span));
                None
            }
        }
    }

    fn event_kind(&self, e: &Expr) -> Result<EventKind, Diagnostic> {
        let unrecognized = || {
            Diagnostic::deny(Code::Wp017, format!("unrecognized event shape '{e}'")).with_note(
                "recognized events: insert.into[==tier], time=<t>, tierX.filled==N%, \
                 object.lastAccessedTime><duration>, threshold.type==put|get|primary",
            )
        };
        let bad_unit = |message: String| Diagnostic::deny(Code::Wp009, message);
        match e {
            // `insert.into`
            Expr::Path(p) if p == &["insert".to_string(), "into".to_string()] => {
                Ok(EventKind::Insert { into: None })
            }
            Expr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            } => {
                let lpath = lhs.as_path().map(|p| p.join("."));
                match lpath.as_deref() {
                    // `insert.into == tier1`
                    Some("insert.into") => {
                        let tier = rhs.as_ident().ok_or_else(unrecognized)?;
                        Ok(EventKind::Insert {
                            into: Some(tier.to_string()),
                        })
                    }
                    // `time = t` or `time = 30 seconds`
                    Some("time") => match rhs.as_ref() {
                        Expr::Num { value, unit } => {
                            let ms = match unit {
                                Some(u) => units::to_millis(*value, *u).ok_or_else(|| {
                                    bad_unit(format!("timer period has non-duration unit '{u}'"))
                                })?,
                                None => *value,
                            };
                            Ok(EventKind::Timer {
                                period_ms: Some(ms),
                            })
                        }
                        Expr::Path(p) if p.len() == 1 => Ok(EventKind::Timer {
                            period_ms: self.params.get(&p[0]).copied(),
                        }),
                        _ => Err(unrecognized()),
                    },
                    // `threshold.type == put|get|primary`
                    Some("threshold.type") => match rhs.as_ident() {
                        Some(op @ ("put" | "get")) => {
                            Ok(EventKind::OpLatency { op: op.to_string() })
                        }
                        Some("primary") => Ok(EventKind::Requests),
                        _ => Err(unrecognized()),
                    },
                    // `tierX.filled == 50%`
                    Some(path) if path.ends_with(".filled") => {
                        let tier = path.trim_end_matches(".filled").to_string();
                        let (v, u) = rhs.as_num().ok_or_else(unrecognized)?;
                        let fraction = match u {
                            Some(u) => units::to_fraction(v, u).ok_or_else(|| {
                                bad_unit(format!("filled threshold has non-percent unit '{u}'"))
                            })?,
                            None => v,
                        };
                        Ok(EventKind::TierFilled { tier, fraction })
                    }
                    _ => Err(unrecognized()),
                }
            }
            // `object.lastAccessedTime > 120 hours`
            Expr::Binary {
                op: BinOp::Gt,
                lhs,
                rhs,
            } if lhs.as_path().map(|p| p.join(".")).as_deref()
                == Some("object.lastAccessedTime") =>
            {
                let (v, u) = rhs.as_num().ok_or_else(unrecognized)?;
                let ms = match u {
                    Some(u) => units::to_millis(v, u).ok_or_else(|| {
                        bad_unit(format!("cold-data threshold has non-duration unit '{u}'"))
                    })?,
                    None => v,
                };
                Ok(EventKind::ColdData { older_than_ms: ms })
            }
            _ => Err(unrecognized()),
        }
    }

    // ---- actions ----------------------------------------------------------

    /// Lower a statement list, recording each statement that does not lower
    /// (and leaving it out).
    fn actions(&mut self, body: &[Stmt], tiers: &[&str]) -> Vec<Action> {
        let mut out = Vec::new();
        for stmt in body {
            match self.action(stmt, tiers) {
                Ok(action) => out.push(action),
                Err(d) => self.diags.push(d.at(stmt.span())),
            }
        }
        out
    }

    fn action(&mut self, stmt: &Stmt, tiers: &[&str]) -> Result<Action, Diagnostic> {
        match stmt {
            Stmt::Assign { target, value, .. } => Ok(Action::SetAttr {
                path: target.clone(),
                value: cond_value(value).map_err(|why| {
                    let target = target.join(".");
                    Diagnostic::deny(Code::Wp013, format!("assignment to '{target}': {why}"))
                })?,
            }),
            Stmt::If {
                cond,
                then,
                otherwise,
                ..
            } => {
                let then = self.actions(then, tiers);
                let otherwise = self.actions(otherwise, tiers);
                Ok(Action::If {
                    cond: condition(cond).map_err(|why| {
                        Diagnostic::deny(Code::Wp013, format!("if condition: {why}"))
                    })?,
                    then,
                    otherwise,
                })
            }
            Stmt::Call { name, args, .. } => call(name, args, tiers),
        }
    }
}

fn call(name: &str, args: &[(String, Expr)], tiers: &[&str]) -> Result<Action, Diagnostic> {
    // Normalize the paper's `chage_policy` typo.
    let name = if name == "chage_policy" {
        "change_policy"
    } else {
        name
    };
    let get = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let arg = |key: &str| {
        get(key).ok_or_else(|| {
            let message = format!("{name}() is missing required argument '{key}:'");
            Diagnostic::deny(Code::Wp013, message)
        })
    };
    let malformed = |key: &str, why: String| {
        Diagnostic::deny(Code::Wp013, format!("{name}() argument '{key}:': {why}"))
    };
    let what = || arg("what").and_then(|e| selector(e).map_err(|why| malformed("what", why)));
    let to = || arg("to").and_then(|e| target(e, tiers).map_err(|why| malformed("to", why)));
    // A number in canonical units; `convert` refuses a unit of another kind.
    let amount = |key: &str, kind: &str, convert: fn(f64, Unit) -> Option<f64>, e: &Expr| {
        let (v, u) = e
            .as_num()
            .ok_or_else(|| malformed(key, format!("'{e}' is not a number")))?;
        match u {
            None => Ok(v),
            Some(u) => convert(v, u).ok_or_else(|| {
                let message = format!("{name}() '{key}:' has non-{kind} unit '{u}'");
                Diagnostic::deny(Code::Wp009, message)
            }),
        }
    };
    let bandwidth = || {
        get("bandwidth")
            .map(|e| amount("bandwidth", "rate", units::to_bytes_per_sec, e))
            .transpose()
    };

    match name {
        "store" => Ok(Action::Store {
            what: what()?,
            to: to()?,
        }),
        "copy" => Ok(Action::Copy {
            what: what()?,
            to: to()?,
            bandwidth_bps: bandwidth()?,
        }),
        "move" => Ok(Action::Move {
            what: what()?,
            to: to()?,
            bandwidth_bps: bandwidth()?,
        }),
        "delete" => Ok(Action::Delete { what: what()? }),
        "forward" => Ok(Action::Forward {
            what: what()?,
            to: to()?,
        }),
        "queue" => Ok(Action::Queue {
            what: what()?,
            to: to()?,
        }),
        "lock" => Ok(Action::Lock { what: what()? }),
        "release" => Ok(Action::Release { what: what()? }),
        "change_policy" => Ok(Action::ChangePolicy {
            what: what()?,
            to: to()?,
        }),
        "compress" => Ok(Action::Compress { what: what()? }),
        "encrypt" => Ok(Action::Encrypt { what: what()? }),
        "grow" => {
            let what = arg("what")?;
            let tier = what
                .as_ident()
                .ok_or_else(|| malformed("what", format!("'{what}' is not a tier label")))?;
            let to_bytes = |v, u| units::to_bytes(v, u).map(|b| b as f64);
            let by = amount("by", "size", to_bytes, arg("by")?)?;
            Ok(Action::Grow {
                tier: tier.to_string(),
                by_bytes: by as u64,
            })
        }
        other => Err(
            Diagnostic::deny(Code::Wp012, format!("unknown response '{other}'")).with_note(
                "known responses: store, copy, move, delete, forward, queue, lock, release, \
                 change_policy, compress, encrypt, grow",
            ),
        ),
    }
}

fn selector(e: &Expr) -> Result<Selector, String> {
    match e {
        Expr::Path(p) => match p.join(".").as_str() {
            "insert.object" | "insert.oject" => Ok(Selector::InsertObject), // figure typo
            "insert.key" => Ok(Selector::InsertKey),
            "consistency" => Ok(Selector::Consistency),
            "primary_instance" => Ok(Selector::PrimaryRole),
            _ => Ok(Selector::Where(condition(e)?)),
        },
        Expr::Binary { .. } => Ok(Selector::Where(condition(e)?)),
        other => Err(format!("bad selector '{other}'")),
    }
}

fn target(e: &Expr, tiers: &[&str]) -> Result<Target, String> {
    let ident = e.as_ident().ok_or_else(|| format!("bad target '{e}'"))?;
    Ok(match ident {
        "local_instance" => Target::LocalInstance,
        "all_regions" => Target::AllRegions,
        "primary_instance" => Target::PrimaryInstance,
        "instance_forward_most" => Target::InstanceForwardMost,
        t if tiers.contains(&t) || t.to_ascii_lowercase().starts_with("tier") => {
            Target::Tier(t.to_string())
        }
        policy => Target::Policy(policy.to_string()),
    })
}

fn condition(e: &Expr) -> Result<Condition, String> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => Ok(Condition::And(
            Box::new(condition(lhs)?),
            Box::new(condition(rhs)?),
        )),
        Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => Ok(Condition::Or(
            Box::new(condition(lhs)?),
            Box::new(condition(rhs)?),
        )),
        Expr::Binary { op, lhs, rhs } => {
            let field = lhs
                .as_path()
                .ok_or_else(|| format!("condition lhs must be a field: {e}"))?
                .to_vec();
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => unreachable!("and/or handled above"),
            };
            Ok(Condition::Cmp {
                field,
                op: cmp,
                value: cond_value(rhs)?,
            })
        }
        // Bare path: truthiness of a boolean field.
        Expr::Path(p) => Ok(Condition::Cmp {
            field: p.clone(),
            op: CmpOp::Eq,
            value: CondValue::Bool(true),
        }),
        other => Err(format!("bad condition '{other}'")),
    }
}

/// Normalize a literal to canonical units; paths with >1 segment become
/// field references, single idents stay symbolic.
fn cond_value(e: &Expr) -> Result<CondValue, String> {
    Ok(match e {
        // Every unit is a duration, a size, a rate or a percentage.
        Expr::Num { value, unit } => CondValue::Num(match *unit {
            Some(u) => units::to_millis(*value, u)
                .or_else(|| units::to_bytes(*value, u).map(|b| b as f64))
                .or_else(|| units::to_bytes_per_sec(*value, u))
                .or_else(|| units::to_fraction(*value, u))
                .unwrap_or(*value),
            None => *value,
        }),
        Expr::Bool(b) => CondValue::Bool(*b),
        Expr::Str(s) => CondValue::Ident(s.clone()),
        Expr::Path(p) if p.len() == 1 => CondValue::Ident(p[0].clone()),
        Expr::Path(p) => CondValue::Field(p.clone()),
        other => return Err(format!("bad value '{other}'")),
    })
}

/// Recognize the paper's consistency protocols from the insert rule's shape.
pub fn deduce_consistency(rules: &[Rule]) -> Option<ConsistencyModel> {
    let insert = rules
        .iter()
        .find(|r| matches!(r.event, EventKind::Insert { .. }))?;

    fn flat<'r>(actions: &'r [Action], out: &mut Vec<&'r Action>) {
        for a in actions {
            out.push(a);
            if let Action::If {
                then, otherwise, ..
            } = a
            {
                flat(then, out);
                flat(otherwise, out);
            }
        }
    }
    let mut all = Vec::new();
    flat(&insert.actions, &mut all);

    let has_lock = all.iter().any(|a| matches!(a, Action::Lock { .. }));
    let has_forward = all.iter().any(|a| {
        matches!(
            a,
            Action::Forward {
                to: Target::PrimaryInstance,
                ..
            }
        )
    });
    let has_copy_all = all.iter().any(|a| {
        matches!(
            a,
            Action::Copy {
                to: Target::AllRegions,
                ..
            }
        )
    });
    let has_queue_all = all.iter().any(|a| {
        matches!(
            a,
            Action::Queue {
                to: Target::AllRegions,
                ..
            }
        )
    });

    if has_lock && has_copy_all {
        Some(ConsistencyModel::MultiPrimaries)
    } else if has_forward {
        Some(ConsistencyModel::PrimaryBackup { sync: has_copy_all })
    } else if has_queue_all {
        Some(ConsistencyModel::Eventual)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn tier_layout_sizes_normalized() {
        let c = compiled(
            "Tiera T() {
                tier1: {name: Memcached, size: 5G};
                tier2: {name: EBS, size: 512M};
                tier3: {name: S3};
            }",
        );
        assert_eq!(c.tiers.len(), 3);
        assert_eq!(c.tiers[0].size_bytes, 5 * 1024 * 1024 * 1024);
        assert_eq!(c.tiers[1].size_bytes, 512 * 1024 * 1024);
        assert_eq!(c.tiers[2].size_bytes, 0, "unsized tier is provider-managed");
        assert_eq!(c.tiers[1].kind_name, "EBS");
    }

    #[test]
    fn region_layout_extraction() {
        let c = compiled(
            "Wiera G() {
                Region1 = {name:LowLatencyInstance, region:US-West, primary:True,
                    tier1 = {name:LocalMemory, size=5G}}
                Region2 = {name:LowLatencyInstance, region:US-East,
                    tier1 = {name:LocalMemory, size=5G}}
            }",
        );
        assert_eq!(c.regions.len(), 2);
        assert!(c.regions[0].primary);
        assert!(!c.regions[1].primary);
        assert_eq!(c.regions[0].region_name, "US-West");
        assert_eq!(c.regions[0].instance.tiers[0].kind_name, "LocalMemory");
    }

    #[test]
    fn insert_event_with_and_without_tier() {
        let c = compiled(
            "Tiera T() {
                event(insert.into) : response { store(what:insert.object, to:tier1); }
                event(insert.into == tier1) : response { copy(what:insert.object, to:tier2); }
            }",
        );
        assert_eq!(c.rules[0].event, EventKind::Insert { into: None });
        assert_eq!(
            c.rules[1].event,
            EventKind::Insert {
                into: Some("tier1".into())
            }
        );
    }

    #[test]
    fn timer_event_bound_and_unbound() {
        let spec = parse(
            "Tiera T(time t) {
                event(time=t) : response { copy(what:object.dirty == true, to:tier2); }
            }",
        )
        .unwrap();
        let unbound = compile(&spec).unwrap();
        assert_eq!(unbound.rules[0].event, EventKind::Timer { period_ms: None });
        let mut params = BTreeMap::new();
        params.insert("t".to_string(), 5000.0);
        let bound = compile_with_params(&spec, &params).unwrap();
        assert_eq!(
            bound.rules[0].event,
            EventKind::Timer {
                period_ms: Some(5000.0)
            }
        );

        let lit = compiled(
            "Tiera T() { event(time=30 seconds) : response { delete(what:object.dirty == true); } }",
        );
        assert_eq!(
            lit.rules[0].event,
            EventKind::Timer {
                period_ms: Some(30_000.0)
            }
        );
    }

    #[test]
    fn filled_and_cold_events() {
        let c = compiled(
            "Tiera T() {
                event(tier2.filled == 50%) : response {
                    copy(what:object.location == tier2, to:tier3, bandwidth:40KB/s);
                }
                event(object.lastAccessedTime > 120 hours) : response {
                    move(what:object.location == tier1, to:tier2, bandwidth:100KB/s);
                }
            }",
        );
        assert_eq!(
            c.rules[0].event,
            EventKind::TierFilled {
                tier: "tier2".into(),
                fraction: 0.5
            }
        );
        match &c.rules[0].actions[0] {
            Action::Copy { bandwidth_bps, .. } => {
                assert_eq!(*bandwidth_bps, Some(40.0 * 1024.0));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            c.rules[1].event,
            EventKind::ColdData {
                older_than_ms: 120.0 * 3600.0 * 1000.0
            }
        );
    }

    #[test]
    fn threshold_events() {
        let c = compiled(
            "Wiera D() {
                event(threshold.type == put) : response {
                    if(threshold.latency > 800 ms && threshold.period > 30 seconds)
                        change_policy(what:consistency, to:EventualConsistency);
                }
                event(threshold.type == primary) : response {
                    change_policy(what:primary_instance, to:instance_forward_most)
                }
            }",
        );
        assert_eq!(c.rules[0].event, EventKind::OpLatency { op: "put".into() });
        assert_eq!(c.rules[1].event, EventKind::Requests);
        match &c.rules[0].actions[0] {
            Action::If { cond, then, .. } => {
                // Units normalized: 800 ms and 30_000 ms.
                let mut env = BTreeMap::new();
                env.insert("threshold.latency".to_string(), EnvValue::Num(900.0));
                env.insert("threshold.period".to_string(), EnvValue::Num(31_000.0));
                assert!(cond.eval(&env));
                env.insert("threshold.latency".to_string(), EnvValue::Num(700.0));
                assert!(!cond.eval(&env));
                match &then[0] {
                    Action::ChangePolicy {
                        what: Selector::Consistency,
                        to: Target::Policy(p),
                    } => {
                        assert_eq!(p, "EventualConsistency");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        match &c.rules[1].actions[0] {
            Action::ChangePolicy {
                what: Selector::PrimaryRole,
                to: Target::InstanceForwardMost,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn consistency_recognition_multi_primaries() {
        let c = compiled(
            "Wiera MP() {
                event(insert.into) : response {
                    lock(what:insert.key)
                    store(what:insert.object, to:local_instance)
                    copy(what:insert.object, to:all_regions)
                    release(what:insert.key)
                }
            }",
        );
        assert_eq!(c.consistency, Some(ConsistencyModel::MultiPrimaries));
    }

    #[test]
    fn consistency_recognition_primary_backup() {
        let sync = compiled(
            "Wiera PB() {
                event(insert.into) : response {
                    if(local_instance.isPrimary == True)
                        store(what:insert.object, to:local_instance)
                        copy(what:insert.object, to:all_regions)
                    else
                        forward(what:insert.object, to:primary_instance)
                }
            }",
        );
        assert_eq!(
            sync.consistency,
            Some(ConsistencyModel::PrimaryBackup { sync: true })
        );
        let asynch = compiled(
            "Wiera PB() {
                event(insert.into) : response {
                    if(local_instance.isPrimary == True)
                        store(what:insert.object, to:local_instance)
                        queue(what:insert.object, to:all_regions)
                    else
                        forward(what:insert.object, to:primary_instance)
                }
            }",
        );
        assert_eq!(
            asynch.consistency,
            Some(ConsistencyModel::PrimaryBackup { sync: false })
        );
    }

    #[test]
    fn consistency_recognition_eventual() {
        let c = compiled(
            "Wiera E() {
                event(insert.into) : response {
                    store(what:insert.oject, to:local_instance)
                    queue(what:insert.object, to:all_regions)
                }
            }",
        );
        assert_eq!(c.consistency, Some(ConsistencyModel::Eventual));
    }

    #[test]
    fn no_consistency_for_local_policies() {
        let c = compiled(
            "Tiera T() {
                event(insert.into) : response { store(what:insert.object, to:tier1); }
            }",
        );
        assert_eq!(c.consistency, None);
    }

    #[test]
    fn selector_where_evaluates_metadata() {
        let c = compiled(
            "Tiera T(time t) {
                event(time=t) : response {
                    copy(what: object.location == tier1 && object.dirty == true, to:tier2);
                }
            }",
        );
        match &c.rules[0].actions[0] {
            Action::Copy {
                what: Selector::Where(cond),
                ..
            } => {
                let mut env = BTreeMap::new();
                env.insert("object.location".to_string(), EnvValue::Str("tier1".into()));
                env.insert("object.dirty".to_string(), EnvValue::Bool(true));
                assert!(cond.eval(&env));
                env.insert("object.dirty".to_string(), EnvValue::Bool(false));
                assert!(!cond.eval(&env));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn field_to_field_comparison() {
        let c = compiled(
            "Wiera CP() {
                event(threshold.type == primary) : response {
                    if(forwarded.requests >= primary.requests && threshold.period = 600 seconds)
                        change_policy(what:primary_instance, to:instance_forward_most)
                }
            }",
        );
        match &c.rules[0].actions[0] {
            Action::If { cond, .. } => {
                let mut env = BTreeMap::new();
                env.insert("forwarded.requests".to_string(), EnvValue::Num(10.0));
                env.insert("primary.requests".to_string(), EnvValue::Num(5.0));
                env.insert("threshold.period".to_string(), EnvValue::Num(600_000.0));
                assert!(cond.eval(&env));
                env.insert("primary.requests".to_string(), EnvValue::Num(50.0));
                assert!(!cond.eval(&env));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_response_rejected() {
        let spec =
            parse("Tiera T() { event(insert.into) : response { explode(what:insert.object); } }")
                .unwrap();
        assert!(compile(&spec).is_err());
    }

    #[test]
    fn missing_region_attr_rejected() {
        let spec = parse("Wiera W() { Region1 = {name:X} }").unwrap();
        assert!(compile(&spec).is_err());
    }

    #[test]
    fn set_attr_lowering() {
        let c = compiled(
            "Tiera T() {
                event(insert.into) : response {
                    insert.object.dirty = true;
                    store(what:insert.object, to:tier1);
                }
            }",
        );
        assert_eq!(
            c.rules[0].actions[0],
            Action::SetAttr {
                path: vec!["insert".into(), "object".into(), "dirty".into()],
                value: CondValue::Bool(true)
            }
        );
    }

    #[test]
    fn condition_missing_field_is_false() {
        let cond = Condition::Cmp {
            field: vec!["nope".into()],
            op: CmpOp::Eq,
            value: CondValue::Num(1.0),
        };
        let env: BTreeMap<String, EnvValue> = BTreeMap::new();
        assert!(!cond.eval(&env));
    }

    #[test]
    fn condition_type_mismatch_is_false() {
        let cond = Condition::Cmp {
            field: vec!["x".into()],
            op: CmpOp::Eq,
            value: CondValue::Num(1.0),
        };
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), EnvValue::Bool(true));
        assert!(!cond.eval(&env));
    }
}
