//! `wiera-audit` — workspace-wide static analysis of the Wiera sources.
//!
//! ```text
//! wiera-audit [--json] [--deny-warnings] [--stats] [--root DIR]
//!             [--runtime-edges FILE] [--protocol-json FILE]
//!             [--protocol-dot FILE] [--codes] [PATHS...]
//! ```
//!
//! With no PATHS, audits every crate under the enclosing workspace
//! (found by walking up from the current directory, or `--root`). PATHS
//! restrict the run to explicit files/directories — the fixture harness
//! uses this.
//!
//! Exit status: `0` clean (notes never gate), `1` warnings present,
//! `2` deny findings (or any warning under `--deny-warnings`), and `2`
//! for usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use wiera_audit::callgraph::Config;
use wiera_audit::lexer::Tok;
use wiera_audit::{audit, workspace};
use wiera_policy::diag::{diag_json, Severity};

const USAGE: &str = "\
usage: wiera-audit [--json] [--deny-warnings] [--stats] [--root DIR]
                   [--runtime-edges FILE] [--protocol-json FILE]
                   [--protocol-dot FILE] [--codes] [PATHS...]

  --json                print findings as a JSON array instead of human text
  --deny-warnings       exit non-zero on warnings too (notes never gate)
  --stats               print scan statistics after the findings
  --root DIR            workspace root (default: walk up from the cwd)
  --runtime-edges FILE  lock-order edges observed at runtime, as a JSON
                        array of [\"from\",\"to\"] class pairs; reported
                        against the static edge set
  --protocol-json FILE  write the extracted protocol model (handler arms
                        as guarded transitions) as JSON to FILE
  --protocol-dot FILE   write the protocol model as a DOT graph to FILE
  --codes               list the audit diagnostic codes and exit
";

struct Options {
    json: bool,
    deny_warnings: bool,
    stats: bool,
    codes: bool,
    root: Option<PathBuf>,
    runtime_edges: Option<PathBuf>,
    protocol_json: Option<PathBuf>,
    protocol_dot: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        stats: false,
        codes: false,
        root: None,
        runtime_edges: None,
        protocol_json: None,
        protocol_dot: None,
        paths: Vec::new(),
    };
    let mut i = 0usize;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--stats" => opts.stats = true,
            "--codes" => opts.codes = true,
            "--root" | "--runtime-edges" | "--protocol-json" | "--protocol-dot" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return Err(format!("{a} requires a value"));
                };
                match a {
                    "--root" => opts.root = Some(PathBuf::from(v)),
                    "--runtime-edges" => opts.runtime_edges = Some(PathBuf::from(v)),
                    "--protocol-json" => opts.protocol_json = Some(PathBuf::from(v)),
                    _ => opts.protocol_dot = Some(PathBuf::from(v)),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    Ok(opts)
}

/// Parse a `[["from","to"], …]` runtime-edge file. Reuses the audit lexer:
/// the string literals appear pairwise in order.
fn parse_runtime_edges(text: &str) -> Vec<(String, String)> {
    let strings: Vec<String> = wiera_audit::lexer::lex(text)
        .tokens
        .into_iter()
        .filter_map(|t| match t.tok {
            Tok::Str(s) => Some(s),
            _ => None,
        })
        .collect();
    strings
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("wiera-audit: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.codes {
        for code in wiera_policy::diag::ALL_AUDIT_CODES {
            println!("{}  {}", code.as_str(), code.describe());
        }
        return ExitCode::SUCCESS;
    }

    let inputs = if opts.paths.is_empty() {
        let root = match opts.root.clone().or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| workspace::find_root(&d))
        }) {
            Some(r) => r,
            None => {
                eprintln!("wiera-audit: no workspace root found (pass --root or PATHS)");
                return ExitCode::from(2);
            }
        };
        workspace::discover_workspace(&root)
    } else {
        workspace::discover_paths(&opts.paths)
    };
    if inputs.is_empty() {
        eprintln!("wiera-audit: no .rs sources found");
        return ExitCode::from(2);
    }

    let runtime_edges = match &opts.runtime_edges {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(parse_runtime_edges(&text)),
            Err(e) => {
                eprintln!("wiera-audit: cannot read '{}': {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let outcome = audit(inputs, Config::default(), runtime_edges.as_deref());

    for (path, render) in [(&opts.protocol_json, true), (&opts.protocol_dot, false)] {
        let Some(path) = path else { continue };
        let text = if render {
            outcome.protocol.to_json(&outcome.model)
        } else {
            outcome.protocol.to_dot(&outcome.model)
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("wiera-audit: cannot write '{}': {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut counts = (0usize, 0usize, 0usize); // deny, warn, note
    let mut json_items: Vec<String> = Vec::new();
    for f in &outcome.findings {
        match f.diag.severity {
            Severity::Deny => counts.0 += 1,
            Severity::Warn => counts.1 += 1,
            Severity::Note => counts.2 += 1,
        }
        let origin = f
            .file
            .and_then(|i| outcome.model.files.get(i))
            .map(|x| x.origin.as_str())
            .unwrap_or("<workspace>");
        if opts.json {
            json_items.push(diag_json(origin, &f.diag));
        } else {
            match f.file.and_then(|i| outcome.model.files.get(i)) {
                Some(file) => print!("{}", f.diag.render_human(&file.src, origin)),
                None => println!("{}: {}", origin, f.diag.compact()),
            }
        }
    }

    if opts.json {
        println!("[{}]", json_items.join(","));
    } else {
        let (deny, warn, note) = counts;
        println!(
            "{} files audited ({} fns, {} lock classes): {deny} deny, {warn} warning{}, {note} note{}",
            outcome.stats.files,
            outcome.stats.fns,
            outcome.stats.lock_classes,
            if warn == 1 { "" } else { "s" },
            if note == 1 { "" } else { "s" },
        );
    }
    if opts.stats {
        println!(
            "stats: {} unresolved lock acquisitions, {} widened call sites, \
             {} protocol transitions, {} datapath-unresolved, {} datapath-widened",
            outcome.stats.unresolved_acquires,
            outcome.stats.widened_calls,
            outcome.protocol.transitions.len(),
            outcome.stats.datapath_unresolved,
            outcome.stats.datapath_widened
        );
    }

    let (deny, warn, _) = counts;
    if deny > 0 || (opts.deny_warnings && warn > 0) {
        ExitCode::from(2)
    } else if warn > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
