//! Policy-language errors with source positions.

use crate::diag::{Diagnostic, Span};
use std::fmt;

/// Error from parsing or compiling a policy specification.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyError {
    pub message: String,
    /// 1-based line in the source text, when known.
    pub line: Option<usize>,
    /// Full source range, when known (strictly more precise than `line`).
    pub span: Option<Span>,
    /// When compilation was refused by the static analyzer, the findings
    /// that caused it (deny-level first; may include warnings and notes).
    pub diagnostics: Vec<Diagnostic>,
}

impl PolicyError {
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        PolicyError {
            message: message.into(),
            line: Some(line),
            span: None,
            diagnostics: Vec::new(),
        }
    }

    pub fn at_span(span: Span, message: impl Into<String>) -> Self {
        PolicyError {
            message: message.into(),
            line: Some(span.line),
            span: Some(span),
            diagnostics: Vec::new(),
        }
    }

    /// An error carrying the analyzer findings that produced it.
    pub fn rejected(diagnostics: Vec<Diagnostic>) -> Self {
        let first_deny = diagnostics
            .iter()
            .find(|d| d.severity == crate::diag::Severity::Deny);
        let (message, line, span) = match first_deny {
            Some(d) => (
                format!("policy rejected: [{}] {}", d.code, d.message),
                d.span.map(|s| s.line),
                d.span,
            ),
            None => ("policy rejected by analyzer".to_string(), None, None),
        };
        PolicyError {
            message,
            line,
            span,
            diagnostics,
        }
    }

    /// Render this error as a single front-end diagnostic (`WP000`), so
    /// parse failures print uniformly with analyzer findings.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::deny(crate::diag::Code::Wp000, self.message.clone());
        match self.span {
            Some(s) => d.at(s),
            None => match self.line {
                Some(l) => d.at(Span::new(0, 0, l, 1)),
                None => d,
            },
        }
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message)?,
            None => write!(f, "{}", self.message)?,
        }
        let denies = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == crate::diag::Severity::Deny)
            .count();
        if denies > 1 {
            write!(f, " (+{} more deny diagnostics)", denies - 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for PolicyError {}
