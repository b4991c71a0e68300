//! The repository benchmark. See `README.md` beside `Cargo.toml`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one JSON object as the last line of
//! standard output. Without `--workload`, every workload runs, each in a
//! fresh child process.

mod gen;
mod probes;
mod process;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Outcome, RunConfig, SETUP_REPS};
use spec::{MetricSpec, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Kind;

const USAGE: &str = "usage: wiera-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--repeat <n>] [--spec]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// 2-s phases and a single set-up, for `check.sh`.
    smoke: bool,
    /// Runs per workload in each of the two sets of the repeatability report.
    repeat: Option<usize>,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: None,
        spec: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => args.repeat = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--smoke" => args.smoke = true,
            "--spec" => args.spec = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.smoke {
        args.seconds = 2.0;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(args)
}

/// 0 only when every op succeeded and every check held.
pub fn exit_code(correct: bool) -> u8 {
    u8::from(!correct)
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run one workload here and print its metrics, the result line last.
fn run_one(name: &str, args: &Args, started: Instant) -> Result<bool, String> {
    let kind = Kind::from_name(name).ok_or(format!("unknown workload '{name}'"))?;
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: if args.smoke || args.trace {
            1
        } else {
            SETUP_REPS
        },
    };
    let outcome = run::run(&cfg, started)?;
    for (metric, value, unit) in &outcome.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} samples: {} calls behind op_p50_us, {} ops behind modeled_*; {} ops attempted, {} failed",
        outcome.samples.0, outcome.samples.1, outcome.attempted, outcome.failed
    );
    println!("{}", result_json(&outcome));
    Ok(outcome.correct())
}

/// Run `name` in a child process; returns its metrics, or `None` if it
/// failed. The child's output is passed through, result line included.
fn run_child(name: &str, args: &Args, seed: u64) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.spawn().ok()?.wait_with_output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Vec::new();
    for line in stdout.lines() {
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        if let [_, metric, value, _unit] = fields[..] {
            metrics.extend(value.parse().ok().map(|v| (metric.to_string(), v)));
        }
    }
    output.status.success().then_some(metrics)
}

/// Two sets of `n` runs of every workload, every run on another seed, then
/// per (workload, metric) what the acceptance check looks at: each set's
/// median and quartile spread, and how far the second median is worse than
/// the first, against the bound.
fn repeat_report(n: usize, args: &Args) -> bool {
    let mut ok = true;
    // sets[set][workload][metric] = one value per run
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for (set, values) in sets.iter_mut().enumerate() {
        for run in 0..n {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let seed = args.seed + (set * n + run) as u64;
                let Some(metrics) = run_child(workload.name, args, seed) else {
                    eprintln!("{} seed {seed}: run failed", workload.name);
                    ok = false;
                    continue;
                };
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let found = metrics.iter().find(|(name, _)| name == metric.name);
                    values[w][m].extend(found.map(|(_, v)| *v));
                }
            }
        }
    }
    println!("\n| workload | metric | unit | median A | spread A | median B | spread B | B worse by | bound |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][w][m], &sets[1][w][m]);
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let spread = |v: &[f64], med: f64| {
                let (q1, q3) = stats::quartiles(v);
                (q3 - q1) / med
            };
            let (spread_a, spread_b) = (spread(a, med_a), spread(b, med_b));
            let worse = worse_by(metric, med_a, med_b);
            let spread_bound = if metric.name == "setup_s" {
                f64::INFINITY
            } else {
                metric.bound
            };
            if worse > metric.bound || spread_a.max(spread_b) > spread_bound {
                ok = false;
            }
            println!(
                "| {} | {} | {} | {:.5} | {:.2} % | {:.5} | {:.2} % | {:+.2} % | {} % |",
                workload.name,
                metric.name,
                metric.unit,
                med_a,
                spread_a * 100.0,
                med_b,
                spread_b * 100.0,
                worse * 100.0,
                metric.bound * 100.0
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "every spread and gap is within its bound"
        } else {
            "OUT OF BOUNDS"
        }
    );
    ok
}

/// Share of `first` by which `second` is worse, in the metric's direction.
fn worse_by(metric: &MetricSpec, first: f64, second: f64) -> f64 {
    if metric.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let correct = if let Some(n) = args.repeat {
        repeat_report(n, &args)
    } else if let Some(name) = &args.workload {
        match run_one(name, &args, started) {
            Ok(correct) => correct,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        // Every workload, each in a fresh process. All of them run before
        // the verdict, so one failure does not hide the others' numbers.
        let passed: Vec<bool> = WORKLOADS
            .iter()
            .map(|w| run_child(w.name, &args, args.seed).is_some())
            .collect();
        passed.iter().all(|&ok| ok)
    };
    ExitCode::from(exit_code(correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 3.25123456789, "s")],
            samples: (1, 1),
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 3.25123456789, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn any_failed_op_makes_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
            samples: (0, 0),
        };
        assert!(!outcome.correct());
        assert_eq!(exit_code(outcome.correct()), 1);
        outcome.failed = 0;
        assert_eq!(exit_code(outcome.correct()), 0);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let ops = &END_TO_END[0];
        let lat = &END_TO_END[1];
        assert!(ops.higher_is_better && !lat.higher_is_better);
        assert!((worse_by(ops, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(lat, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(ops, 100.0, 110.0) < 0.0);
    }
}
