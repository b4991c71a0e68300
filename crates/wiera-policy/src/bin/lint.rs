//! `wiera-lint` — static analysis for Wiera policy specifications.
//!
//! ```text
//! wiera-lint [--json] [--deny-warnings] [--canned] [FILES...]
//! ```
//!
//! Lints each policy file (and, with `--canned`, every canned paper
//! policy). Findings print in a rustc-like caret format, or as a JSON
//! array with `--json`.
//!
//! Exit status: `0` clean, `1` deny-level findings (or any warning under
//! `--deny-warnings`), `2` usage or I/O error.

use std::process::ExitCode;
use wiera_policy::diag::{diag_json, worst_is_deny, Severity};

const USAGE: &str = "\
usage: wiera-lint [--json] [--deny-warnings] [--canned] [FILES...]

  --json           print findings as a JSON array instead of human text
  --deny-warnings  exit non-zero on warnings too (notes never gate)
  --canned         also lint every canned paper policy
  --codes          list all diagnostic codes and exit
";

struct Options {
    json: bool,
    deny_warnings: bool,
    canned: bool,
    codes: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        canned: false,
        codes: false,
        files: Vec::new(),
    };
    for a in args {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--canned" => opts.canned = true,
            "--codes" => opts.codes = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if !opts.codes && opts.files.is_empty() && !opts.canned {
        return Err("no input files (use --canned to lint the canned corpus)".to_string());
    }
    Ok(opts)
}

/// One lint unit: an origin label plus policy source text.
struct Input {
    origin: String,
    src: String,
}

fn gather_inputs(opts: &Options) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    if opts.canned {
        for (id, _, src) in wiera_policy::canned::ALL {
            inputs.push(Input {
                origin: format!("canned:{id}"),
                src: src.to_string(),
            });
        }
    }
    for path in &opts.files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        inputs.push(Input {
            origin: path.clone(),
            src,
        });
    }
    Ok(inputs)
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
            eprintln!("wiera-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.codes {
        for code in wiera_policy::diag::ALL_CODES {
            println!("{}  {}", code.as_str(), code.describe());
        }
        return ExitCode::SUCCESS;
    }

    let inputs = match gather_inputs(&opts) {
        Ok(i) => i,
        Err(msg) => {
            eprintln!("wiera-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut gating = false;
    let mut json_items: Vec<String> = Vec::new();
    let mut counts = (0usize, 0usize, 0usize); // deny, warn, note
    for input in &inputs {
        let (_, diags) = wiera_policy::analyze_source(&input.src);
        gating |= worst_is_deny(&diags, opts.deny_warnings);
        for d in &diags {
            match d.severity {
                Severity::Deny => counts.0 += 1,
                Severity::Warn => counts.1 += 1,
                Severity::Note => counts.2 += 1,
            }
            if opts.json {
                json_items.push(diag_json(&input.origin, d));
            } else {
                print!("{}", d.render_human(&input.src, &input.origin));
            }
        }
    }

    if opts.json {
        println!("[{}]", json_items.join(","));
    } else {
        let (deny, warn, note) = counts;
        if deny + warn + note > 0 {
            println!(
                "{} polic{} checked: {deny} deny, {warn} warning{}, {note} note{}",
                inputs.len(),
                if inputs.len() == 1 { "y" } else { "ies" },
                if warn == 1 { "" } else { "s" },
                if note == 1 { "" } else { "s" },
            );
        }
    }

    if gating {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
