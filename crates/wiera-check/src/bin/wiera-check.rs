//! `wiera-check` — runtime concurrency + consistency checking.
//!
//! ```text
//! wiera-check [--json] [--deny-warnings] [--adversarial] [--scenario NAME]
//! ```
//!
//! By default runs the canned scenario corpus: real multi-region clusters
//! exercising the paper's three consistency protocols (plus outage and
//! session-expiry fault injection), checked by the lock-order cycle
//! detector and the consistency-history oracle. Findings print one per
//! line (`WC001 deny -:- message`), or as a JSON array with `--json`.
//!
//! `--adversarial` runs the planted-bug self-test instead: every
//! adversarial scenario must produce its expected WC codes, otherwise the
//! checker itself has regressed.
//!
//! `--chaos SEED` runs the seeded chaos campaign instead of the corpus:
//! randomized fault scripts against every consistency protocol, gated on
//! post-heal convergence plus zero oracle findings. The seed fully
//! determines the fault script, so a failing campaign is replayable.
//!
//! `--soundness` cross-validates runtime against statics: every lock-order
//! edge the corpus scenarios exercise at runtime must be a subset of the
//! statically derived edge set, and every recorded history op kind must be
//! handled by an extracted protocol transition — otherwise `wiera-model`'s
//! clean verdicts are vacuous for the uncovered behavior.
//!
//! Exit status: `0` clean (or, under `--adversarial`, all plants detected),
//! `1` gating findings (or a missed plant, or a failed chaos campaign),
//! `2` usage error.

use std::process::ExitCode;
use wiera_check::chaos::run_campaign;
use wiera_check::history::extract_history;
use wiera_check::modelbridge::{soundness, workspace_model};
use wiera_check::scenarios::{all_scenarios, run_scenario, ScenarioKind};
use wiera_policy::diag::{diag_json, json_escape, worst_is_deny, Severity};
use wiera_sim::lockreg::LockRegistry;
use wiera_sim::Tracer;

const USAGE: &str = "\
usage: wiera-check [--json] [--deny-warnings] [--adversarial] [--scenario NAME]
                   [--chaos SEED]

  --json           print findings as a JSON array instead of human text
  --deny-warnings  exit non-zero on warnings too (notes never gate)
  --adversarial    self-test: run the planted-bug scenarios and verify each
                   expected WC code is reported
  --scenario NAME  run a single scenario by name (corpus or adversarial)
  --chaos SEED     run the seeded chaos campaign (every protocol, randomized
                   faults) instead of the scenario corpus
  --soundness      run the corpus and gate every runtime lock edge / history
                   op against the statically extracted model (wiera-audit)
  --list           list scenarios and exit
  --codes          list all WC diagnostic codes and exit
";

struct Options {
    json: bool,
    deny_warnings: bool,
    adversarial: bool,
    scenario: Option<String>,
    chaos: Option<u64>,
    soundness: bool,
    list: bool,
    codes: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        adversarial: false,
        scenario: None,
        chaos: None,
        soundness: false,
        list: false,
        codes: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--adversarial" => opts.adversarial = true,
            "--soundness" => opts.soundness = true,
            "--list" => opts.list = true,
            "--codes" => opts.codes = true,
            "--scenario" => {
                opts.scenario = Some(
                    it.next()
                        .ok_or_else(|| "--scenario needs a name".to_string())?
                        .clone(),
                );
            }
            "--chaos" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--chaos needs a seed".to_string())?;
                opts.chaos = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("--chaos seed '{raw}' is not a u64"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
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
            eprintln!("wiera-check: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.codes {
        for code in wiera_policy::diag::ALL_CHECK_CODES {
            println!("{}  {}", code.as_str(), code.describe());
        }
        return ExitCode::SUCCESS;
    }
    if opts.list {
        for s in all_scenarios() {
            println!(
                "{:<24} [{}] {}",
                s.name,
                match s.kind {
                    ScenarioKind::Corpus => "corpus",
                    ScenarioKind::Adversarial => "adversarial",
                },
                s.describe
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(seed) = opts.chaos {
        return run_chaos(seed, &opts);
    }
    if opts.soundness {
        return run_soundness();
    }

    let selected: Vec<&'static str> = match (&opts.scenario, opts.adversarial) {
        (Some(name), _) => {
            if all_scenarios().iter().all(|s| s.name != *name) {
                eprintln!("wiera-check: unknown scenario '{name}' (try --list)");
                return ExitCode::from(2);
            }
            vec![all_scenarios()
                .iter()
                .find(|s| s.name == *name)
                .map(|s| s.name)
                .unwrap_or_default()]
        }
        (None, true) => all_scenarios()
            .iter()
            .filter(|s| s.kind == ScenarioKind::Adversarial)
            .map(|s| s.name)
            .collect(),
        (None, false) => all_scenarios()
            .iter()
            .filter(|s| s.kind == ScenarioKind::Corpus)
            .map(|s| s.name)
            .collect(),
    };

    let mut gating = false;
    let mut missed_plants = false;
    let mut json_items: Vec<String> = Vec::new();
    let mut counts = (0usize, 0usize, 0usize); // deny, warn, note
    for name in &selected {
        let Some(report) = run_scenario(name) else {
            eprintln!("wiera-check: unknown scenario '{name}'");
            return ExitCode::from(2);
        };
        let origin = format!("scenario:{name}");
        let scenario = all_scenarios()
            .iter()
            .find(|s| s.name == *name)
            .unwrap_or(&all_scenarios()[0]);
        match report.kind {
            ScenarioKind::Corpus => {
                gating |= worst_is_deny(&report.diags, opts.deny_warnings);
            }
            ScenarioKind::Adversarial => {
                if !report.detected_all(scenario.expect) {
                    missed_plants = true;
                    eprintln!(
                        "wiera-check: scenario '{name}' FAILED to report {:?}",
                        scenario.expect
                    );
                }
            }
        }
        for d in &report.diags {
            match d.severity {
                Severity::Deny => counts.0 += 1,
                Severity::Warn => counts.1 += 1,
                Severity::Note => counts.2 += 1,
            }
            if opts.json {
                json_items.push(diag_json(&origin, d));
            } else {
                println!("{origin}: {}", d.compact());
                for note in &d.notes {
                    println!("  note: {note}");
                }
            }
        }
        if report.kind == ScenarioKind::Adversarial && !opts.json {
            println!(
                "{origin}: planted {:?} {}",
                scenario.expect,
                if report.detected_all(scenario.expect) {
                    "detected"
                } else {
                    "MISSED"
                }
            );
        }
    }

    if opts.json {
        println!("[{}]", json_items.join(","));
    } else {
        let (deny, warn, note) = counts;
        println!(
            "{} scenario{} checked: {deny} deny, {warn} warning{}, {note} note{}",
            selected.len(),
            if selected.len() == 1 { "" } else { "s" },
            if warn == 1 { "" } else { "s" },
            if note == 1 { "" } else { "s" },
        );
    }

    if gating || missed_plants {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Run every corpus scenario and gate its runtime observations against
/// the statically extracted model. Each scenario resets the global
/// tracer/lock registry on entry, so after it returns the globals hold
/// exactly that scenario's lock edges and history.
fn run_soundness() -> ExitCode {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let (model, pm) = match workspace_model(&cwd) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("wiera-check: --soundness: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut unsound = false;
    let corpus: Vec<&'static str> = all_scenarios()
        .iter()
        .filter(|s| s.kind == ScenarioKind::Corpus)
        .map(|s| s.name)
        .collect();
    for name in &corpus {
        if run_scenario(name).is_none() {
            eprintln!("wiera-check: unknown scenario '{name}'");
            return ExitCode::from(2);
        }
        let snapshot = LockRegistry::global().snapshot();
        let (history, _) = extract_history(&Tracer::global().events());
        let report = soundness(&model, &pm, &snapshot, &history);
        unsound |= !report.sound();
        print!("scenario:{name}: {}", report.render());
    }
    println!(
        "soundness gate over {} corpus scenarios: {}",
        corpus.len(),
        if unsound { "UNSOUND" } else { "SOUND" }
    );
    if unsound {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the chaos campaign and render one report per protocol.
fn run_chaos(seed: u64, opts: &Options) -> ExitCode {
    let reports = run_campaign(seed);
    let mut failed = false;
    let mut json_items: Vec<String> = Vec::new();
    for r in &reports {
        let origin = format!("chaos:{}", r.protocol);
        let passed = r.passed(opts.deny_warnings);
        failed |= !passed;
        if opts.json {
            let diags: Vec<String> = r.diags.iter().map(|d| d.to_json()).collect();
            let script: Vec<String> = r.script.iter().map(|s| json_escape(s)).collect();
            json_items.push(format!(
                "{{\"origin\":{},\"seed\":{},\"script\":[{}],\"converged\":{},\
                 \"ops_attempted\":{},\"ops_failed\":{},\"passed\":{},\"diags\":[{}]}}",
                json_escape(&origin),
                r.seed,
                script.join(","),
                r.converged,
                r.ops_attempted,
                r.ops_failed,
                passed,
                diags.join(","),
            ));
        } else {
            for step in &r.script {
                println!("{origin}: {step}");
            }
            for d in &r.diags {
                println!("{origin}: {}", d.compact());
                for note in &d.notes {
                    println!("  note: {note}");
                }
            }
            println!(
                "{origin}: seed={} converged={} ops={} (failed={}): {}",
                r.seed,
                r.converged,
                r.ops_attempted,
                r.ops_failed,
                if passed { "PASS" } else { "FAIL" },
            );
        }
    }
    if opts.json {
        println!("[{}]", json_items.join(","));
    } else {
        println!(
            "chaos campaign seed={seed}: {}/{} protocols passed",
            reports
                .iter()
                .filter(|r| r.passed(opts.deny_warnings))
                .count(),
            reports.len(),
        );
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
