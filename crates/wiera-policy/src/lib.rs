#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! The Tiera/Wiera policy specification language.
//!
//! Wiera's headline claim is that a *concise notation* can express a rich
//! array of local and global data-management policies — every policy in the
//! paper is given as a figure in this notation. This crate implements that
//! notation end to end:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a recursive-descent parser accepting
//!   the exact syntax of the paper's Figures 1, 3(a), 3(b), 4, 5(a), 5(b),
//!   6(a) and 6(b), including its loose spots (`:` vs `=` in attribute
//!   lists, `%` line comments, optional semicolons, brace-less `if/else`
//!   bodies).
//! * [`units`] — the value units the figures use: sizes (`5G`), durations
//!   (`800 ms`, `30 seconds`, `120 hours`), rates (`40KB/s`), percentages.
//! * [`mod@compile`] — lowering into the semantic model that the Tiera and Wiera
//!   engines interpret: instance/tier layouts, event→response rules, and
//!   recognition of the three consistency protocols from their
//!   event-response shape (the paper hand-codes these; we compile them).
//! * [`canned`] — the verbatim policy text of each figure, as a named
//!   registry (`lowlatency`, `multi-primaries`, `eventual`, …) so
//!   applications can launch paper policies by id; [`canned::policy_over`]
//!   renders a protocol's insert rule over any region list.
//! * [`analyze`] / [`diag`] — a multi-pass static analyzer producing
//!   span-carrying diagnostics with stable `WP###` codes; [`compile`]
//!   refuses policies with deny-level findings, and the `wiera-lint`
//!   binary exposes the analyzer on the command line.
//!
//! ```
//! use wiera_policy::{parse, compile};
//!
//! let spec = parse(wiera_policy::canned::EVENTUAL_CONSISTENCY).unwrap();
//! let compiled = compile(&spec).unwrap();
//! assert_eq!(compiled.consistency, Some(wiera_policy::ConsistencyModel::Eventual));
//! ```

pub mod analyze;
pub mod ast;
pub mod canned;
pub mod compile;
pub mod diag;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod units;

pub use analyze::{analyze, analyze_source};
pub use ast::{EventRule, Expr, PolicySpec, SpecKind, Stmt};
pub use compile::{
    compile, Action, CompiledPolicy, Condition, ConsistencyModel, EventKind, InstanceLayout,
    RegionLayout, Rule, Selector, Target, TierLayout,
};
pub use diag::{Code, Diagnostic, Severity, Span};
pub use error::PolicyError;
pub use parser::parse;
