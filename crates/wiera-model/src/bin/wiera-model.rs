//! `wiera-model` — extract the replication/failover protocol from
//! source and exhaustively model-check it.
//!
//! ```text
//! wiera-model [--protocol all|pb-sync|multi-primary|eventual]
//!             [--nodes N] [--keys K] [--puts P] [--crashes C]
//!             [--elections E] [--max-states S] [--naive] [--json]
//!             [--report FILE] [--root DIR] [PATHS...]
//! ```
//!
//! With no PATHS, extracts from every crate under the enclosing
//! workspace (walking up from the current directory, or `--root`).
//! PATHS restrict extraction to explicit files/directories — the
//! planted-defect harness uses this.
//!
//! Exit status: `0` all explored protocols clean, `1` extraction too
//! incomplete to model (no handler transitions found), `2` invariant
//! violations (or usage/I/O errors).

use std::path::PathBuf;
use std::process::ExitCode;
use wiera_audit::callgraph::{Config, Model};
use wiera_audit::items::SourceFile;
use wiera_audit::protocol::{self, ProtocolModel};
use wiera_audit::workspace;
use wiera_model::trace::render_msc;
use wiera_model::{explore, Bounds, Protocol, Spec};
use wiera_policy::diag::json_escape;

const USAGE: &str = "\
usage: wiera-model [--protocol all|pb-sync|multi-primary|eventual]
                   [--nodes N] [--keys K] [--puts P] [--crashes C]
                   [--elections E] [--max-states S] [--naive] [--json]
                   [--report FILE] [--root DIR] [PATHS...]

  --protocol MODE   replication mode(s) to explore (default: all)
  --nodes N         nodes in the small world        (default: 3)
  --keys K          distinct keys                   (default: 2)
  --puts P          client puts per trace           (default: 2)
  --crashes C       crash events per trace          (default: 1)
  --elections E     elections per trace             (default: 1)
  --max-states S    abort beyond S distinct states  (default: 4000000)
  --naive           disable the partial-order reduction
  --json            print the run report as JSON to stdout
  --report FILE     also write the JSON report to FILE
  --root DIR        workspace root (default: walk up from the cwd)
";

struct Options {
    protocols: Vec<Protocol>,
    bounds: Bounds,
    naive: bool,
    json: bool,
    report: Option<PathBuf>,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        protocols: Protocol::ALL.to_vec(),
        bounds: Bounds::default(),
        naive: false,
        json: false,
        report: None,
        root: None,
        paths: Vec::new(),
    };
    let mut i = 0usize;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--naive" => opts.naive = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(String::new()),
            "--protocol" | "--nodes" | "--keys" | "--puts" | "--crashes" | "--elections"
            | "--max-states" | "--report" | "--root" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return Err(format!("{a} requires a value"));
                };
                match a {
                    "--protocol" => {
                        if v == "all" {
                            opts.protocols = Protocol::ALL.to_vec();
                        } else {
                            let p = Protocol::parse(v)
                                .ok_or_else(|| format!("unknown protocol '{v}'"))?;
                            opts.protocols = vec![p];
                        }
                    }
                    "--report" => opts.report = Some(PathBuf::from(v)),
                    "--root" => opts.root = Some(PathBuf::from(v)),
                    _ => {
                        let n: usize = v
                            .parse()
                            .map_err(|_| format!("{a} expects a number, got '{v}'"))?;
                        match a {
                            "--nodes" => opts.bounds.nodes = n.clamp(1, 4),
                            "--keys" => opts.bounds.keys = n.clamp(1, 3),
                            "--puts" => opts.bounds.puts = n.min(3),
                            "--crashes" => opts.bounds.crashes = n.min(3),
                            "--elections" => opts.bounds.elections = n.min(2),
                            _ => opts.bounds.max_states = n.max(1),
                        }
                    }
                }
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    Ok(opts)
}

fn extract_model(opts: &Options) -> Result<(Model, ProtocolModel), String> {
    let inputs = if opts.paths.is_empty() {
        let root = opts
            .root
            .clone()
            .or_else(|| {
                std::env::current_dir()
                    .ok()
                    .and_then(|d| workspace::find_root(&d))
            })
            .ok_or("no workspace root found (pass --root or PATHS)")?;
        workspace::discover_workspace(&root)
    } else {
        workspace::discover_paths(&opts.paths)
    };
    if inputs.is_empty() {
        return Err("no .rs sources found".to_string());
    }
    let files: Vec<SourceFile> = inputs
        .into_iter()
        .map(|i| SourceFile::new(i.origin, i.crate_name, i.src))
        .collect();
    let model = Model::build(files, Config::default());
    let pm = protocol::extract(&model);
    Ok((model, pm))
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
            eprintln!("wiera-model: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (_, pm) = match extract_model(&opts) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("wiera-model: {msg}");
            return ExitCode::from(2);
        }
    };
    if pm.transitions.is_empty() {
        eprintln!("wiera-model: extraction found no handler transitions; nothing to model-check");
        return ExitCode::from(1);
    }

    let mut runs_json: Vec<String> = Vec::new();
    let mut total_violations = 0usize;
    let mut truncated = false;

    for protocol in &opts.protocols {
        let spec = Spec::from_protocol_model(&pm, *protocol);
        let start = std::time::Instant::now();
        let result = explore(&spec, &opts.bounds, !opts.naive);
        let elapsed_ms = start.elapsed().as_millis();
        total_violations += result.violations.len();
        truncated |= result.truncated;

        if !opts.json {
            println!(
                "{}: {} states explored in {}ms (cp_fenced={}, repl_fenced={}, \
                 ack_before_commit={}): {}{}",
                protocol.as_str(),
                result.states,
                elapsed_ms,
                spec.cp_fenced,
                spec.repl_fenced,
                spec.ack_before_commit,
                if result.violations.is_empty() {
                    "no violations".to_string()
                } else {
                    format!("{} violation(s)", result.violations.len())
                },
                if result.truncated { " [TRUNCATED]" } else { "" },
            );
            for v in &result.violations {
                println!("\n{} deny: {}", v.code.as_str(), v.message);
                println!("minimal counterexample ({} steps):", v.trace.len());
                print!("{}", render_msc(&v.trace, opts.bounds.nodes));
            }
        }

        let violations_json: Vec<String> = result
            .violations
            .iter()
            .map(|v| {
                let steps: Vec<String> = v
                    .trace
                    .iter()
                    .map(|a| json_escape(&format!("{a:?}")))
                    .collect();
                format!(
                    "{{\"code\":{},\"message\":{},\"steps\":[{}]}}",
                    json_escape(v.code.as_str()),
                    json_escape(&v.message),
                    steps.join(",")
                )
            })
            .collect();
        runs_json.push(format!(
            "{{\"protocol\":{},\"states\":{},\"elapsed_ms\":{},\"truncated\":{},\
             \"spec\":{{\"cp_fenced\":{},\"repl_fenced\":{},\"ack_before_commit\":{}}},\
             \"violations\":[{}]}}",
            json_escape(protocol.as_str()),
            result.states,
            elapsed_ms,
            result.truncated,
            spec.cp_fenced,
            spec.repl_fenced,
            spec.ack_before_commit,
            violations_json.join(",")
        ));
    }

    let report = format!(
        "{{\"bounds\":{{\"nodes\":{},\"keys\":{},\"puts\":{},\"crashes\":{},\
         \"elections\":{}}},\"reduction\":{},\"transitions\":{},\"runs\":[\n{}\n]}}",
        opts.bounds.nodes,
        opts.bounds.keys,
        opts.bounds.puts,
        opts.bounds.crashes,
        opts.bounds.elections,
        !opts.naive,
        pm.transitions.len(),
        runs_json.join(",\n")
    );
    if opts.json {
        println!("{report}");
    }
    if let Some(path) = &opts.report {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("wiera-model: cannot write '{}': {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if total_violations > 0 || truncated {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
