//! Abstract syntax tree for policy specifications.
//!
//! Declarations, rules, and statements carry [`Span`]s pointing back into
//! the source text for diagnostics. Spans never affect equality (see
//! [`Span`]), so pretty-print/reparse round trips still compare equal.

use crate::diag::Span;
use crate::units::Unit;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Whether the specification defines a single-DC (Tiera) or global (Wiera)
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecKind {
    Tiera,
    Wiera,
}

impl fmt::Display for SpecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecKind::Tiera => write!(f, "Tiera"),
            SpecKind::Wiera => write!(f, "Wiera"),
        }
    }
}

/// A parsed policy specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    pub kind: SpecKind,
    pub name: String,
    /// Formal parameters, e.g. `(time t)`.
    pub params: Vec<Param>,
    /// `tierN: {name: ..., size: ...}` declarations (Tiera specs).
    pub tiers: Vec<TierDecl>,
    /// `RegionN = {name: ..., region: ..., ...}` declarations (Wiera specs).
    pub regions: Vec<RegionDecl>,
    /// `event(...) : response { ... }` rules, in source order.
    pub events: Vec<EventRule>,
}

/// A formal parameter: `time t`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    pub ty: String,
    pub name: String,
    pub span: Span,
}

/// `tier1: {name: Memcached, size: 5G}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierDecl {
    pub label: String,
    pub attrs: BTreeMap<String, Expr>,
    /// Span of the declaration's label.
    pub span: Span,
}

impl TierDecl {
    pub fn attr(&self, key: &str) -> Option<&Expr> {
        self.attrs.get(key)
    }
}

/// `Region1 = {name: LowLatencyInstance, region: US-West, primary: True,
///             tier1 = {...}, tier2 = {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionDecl {
    pub label: String,
    pub attrs: BTreeMap<String, Expr>,
    pub tiers: Vec<TierDecl>,
    /// Span of the declaration's label.
    pub span: Span,
}

impl RegionDecl {
    pub fn attr(&self, key: &str) -> Option<&Expr> {
        self.attrs.get(key)
    }
}

/// One `event(...) : response { ... }` rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRule {
    pub event: Expr,
    pub body: Vec<Stmt>,
    /// Span of the `event(...)` header.
    pub span: Span,
}

/// Response-body statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `insert.object.dirty = true;`
    Assign {
        target: Vec<String>,
        value: Expr,
        span: Span,
    },
    /// `store(what: insert.object, to: tier1);` — a named response with
    /// keyword arguments.
    Call {
        name: String,
        args: Vec<(String, Expr)>,
        span: Span,
    },
    /// `if (cond) stmts [else if ... / else stmts]` (brace-less in the
    /// paper's figures; braces also accepted).
    If {
        cond: Expr,
        then: Vec<Stmt>,
        otherwise: Vec<Stmt>,
        span: Span,
    },
}

impl Stmt {
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. } | Stmt::Call { span, .. } | Stmt::If { span, .. } => *span,
        }
    }
}

/// Binary operators in event conditions and if-conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Numeric literal with optional unit: `5G`, `800 ms`, `50%`.
    Num {
        value: f64,
        unit: Option<Unit>,
    },
    /// Bare or quoted string that is not a path: `US-West`.
    Str(String),
    Bool(bool),
    /// Dotted identifier path: `insert.object`, `object.location`,
    /// `threshold.latency`, `tier1`, `local_instance`, `all_regions`.
    Path(Vec<String>),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// The path segments if this is a path expression.
    pub fn as_path(&self) -> Option<&[String]> {
        match self {
            Expr::Path(p) => Some(p),
            _ => None,
        }
    }

    /// A single-segment path or bare string as an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Expr::Path(p) if p.len() == 1 => Some(&p[0]),
            Expr::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<(f64, Option<Unit>)> {
        match self {
            Expr::Num { value, unit } => Some((*value, *unit)),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Expr::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num { value, unit } => {
                if value.fract() == 0.0 {
                    write!(f, "{}", *value as i64)?;
                } else {
                    write!(f, "{value}")?;
                }
                if let Some(u) = unit {
                    write!(f, "{u}")?;
                }
                Ok(())
            }
            Expr::Str(s) => write!(f, "{s}"),
            Expr::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Expr::Path(p) => write!(f, "{}", p.join(".")),
            Expr::Binary { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Assign { target, value, .. } => write!(f, "{} = {value};", target.join(".")),
            Stmt::Call { name, args, .. } => {
                let a: Vec<String> = args.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                write!(f, "{name}({});", a.join(", "))
            }
            Stmt::If {
                cond,
                then,
                otherwise,
                ..
            } => {
                writeln!(f, "if ({cond}) {{")?;
                for s in then {
                    writeln!(f, "  {s}")?;
                }
                if !otherwise.is_empty() {
                    writeln!(f, "}} else {{")?;
                    for s in otherwise {
                        writeln!(f, "  {s}")?;
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for PolicySpec {
    /// Pretty-print in canonical form (braces around if-bodies, `:` between
    /// attribute keys and values). Reparsing the output yields an equal AST.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}(", self.kind, self.name)?;
        let ps: Vec<String> = self
            .params
            .iter()
            .map(|p| format!("{} {}", p.ty, p.name))
            .collect();
        writeln!(f, "{}) {{", ps.join(", "))?;
        for t in &self.tiers {
            let attrs: Vec<String> = t.attrs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            writeln!(f, "  {}: {{{}}};", t.label, attrs.join(", "))?;
        }
        for r in &self.regions {
            let mut parts: Vec<String> = r.attrs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            for t in &r.tiers {
                let attrs: Vec<String> = t.attrs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                parts.push(format!("{} = {{{}}}", t.label, attrs.join(", ")));
            }
            writeln!(f, "  {} = {{{}}}", r.label, parts.join(", "))?;
        }
        for e in &self.events {
            writeln!(f, "  event({}) : response {{", e.event)?;
            for s in &e.body {
                for line in s.to_string().lines() {
                    writeln!(f, "    {line}")?;
                }
            }
            writeln!(f, "  }}")?;
        }
        write!(f, "}}")
    }
}
