//! One run of one workload: set-up, measured phase, checks, metrics.

use crate::probes;
use crate::process;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, window_median, Hist};
use crate::trace::Recorder;
use crate::workloads::{CallOut, Calls, Counters, Driver, Kind, System};
use std::time::Instant;

/// Windows the measured phase is cut into; throughput is their median.
const WINDOWS: usize = 10;
/// Times a run sets the system up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// In a traced window, every so many calls the replicas' queues are read.
const QUEUE_SAMPLE_EVERY: u64 = 16;

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Calls behind `op_p50_us`, ops behind `modeled_*`.
    pub samples: (u64, u64),
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What the measured phase saw.
struct Phase {
    window_secs: f64,
    /// Ops completed in each window.
    window_ops: [u64; WINDOWS],
    /// Wall ns per op of each call (call time ÷ ops in the call).
    wall_ns: Hist,
    /// Modeled µs of each op, as the API returned it.
    modeled_us: Hist,
    puts: u64,
    queue_len_max: usize,
    /// Most threads alive at a window boundary (traced runs only).
    threads_peak: u64,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.window_ops.iter().sum()
    }
}

/// Drive `driver` for `seconds`. With a recorder, odd windows record a span
/// per call and sample queue lengths, even windows do not, so the run
/// carries its own untraced baseline for the tracing overhead.
fn measure(
    driver: &mut Driver,
    system: &System,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Phase {
    let mut phase = Phase {
        window_secs: seconds / WINDOWS as f64,
        window_ops: [0; WINDOWS],
        wall_ns: Hist::new(),
        modeled_us: Hist::new(),
        puts: 0,
        queue_len_max: 0,
        threads_peak: 0,
    };
    let window_ns = (phase.window_secs * 1e9) as u128;
    let mut out = CallOut::new();
    let mut calls = 0u64;
    let mut sampled_window = usize::MAX;
    let root = rec.as_mut().map(|r| r.open("measured phase", 0));
    let start = Instant::now();
    loop {
        driver.call(system, &mut out);
        let window = ((out.end - start).as_nanos() / window_ns) as usize;
        if rec.is_some() && window != sampled_window {
            sampled_window = window;
            phase.threads_peak = phase.threads_peak.max(process::threads());
        }
        if window >= WINDOWS {
            break;
        }
        phase.window_ops[window] += out.ops as u64;
        phase.puts += out.puts as u64;
        phase
            .wall_ns
            .record((out.end - out.start).as_nanos() as u64 / out.ops as u64);
        for &us in &out.modeled_us[..out.modeled_n] {
            phase.modeled_us.record(us);
        }
        calls += 1;
        if let (Some(rec), Some(root), 1) = (rec.as_mut(), root, window % 2) {
            rec.span("client call", out.start, out.end, root, calls);
            if let (System::Stack(stack), 0) = (system, calls % QUEUE_SAMPLE_EVERY) {
                phase.queue_len_max = phase.queue_len_max.max(stack.queue_len_max());
            }
        }
    }
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.close(root);
    }
    phase
}

pub fn run(cfg: &RunConfig, process_start: Instant) -> Result<Outcome, String> {
    let name = cfg.kind.name();
    let params = cfg.kind.params();
    let inputs = params.inputs(cfg.seed);
    let calls = Calls::build(cfg.kind, &inputs);
    let generated_s = process_start.elapsed().as_secs_f64();
    eprintln!(
        "{}: seed {} op sequence {:016x}, inputs in {generated_s:.3} s",
        name,
        cfg.seed,
        inputs.sequence_hash()
    );

    let mut rec = cfg.trace.then(|| Recorder::new(process_start));
    let mut layer = probes::Results::new();
    if let Some(rec) = rec.as_mut() {
        layer = probes::run(&inputs, cfg.seed, rec)?;
    }

    // Set-up, several times over: policy compile, launch, preload of every
    // key, fixed-count warm-up. Only the last system is measured.
    let (mut attempted, mut failed) = (0, 0);
    let mut rep_secs = Vec::new();
    let mut kept = None;
    for rep in 0..cfg.setup_reps {
        let t0 = Instant::now();
        let system = System::launch(cfg.kind, cfg.seed)?;
        let mut driver = Driver::new(cfg.kind, &inputs, &calls);
        driver.preload(&system);
        let mut out = CallOut::new();
        for _ in 0..params.warmup_calls {
            driver.call(&system, &mut out);
        }
        rep_secs.push(t0.elapsed().as_secs_f64());
        if rep + 1 < cfg.setup_reps {
            attempted += driver.attempted;
            failed += driver.failed;
            system.shutdown();
        } else {
            kept = Some((system, driver));
        }
    }
    let (system, mut driver) = kept.ok_or("no set-up repetition ran")?;
    let setup_s = generated_s + median(&rep_secs);

    let before = system.counters();
    let (cpu0, ctxsw0) = (process::cpu_seconds(), process::context_switches());
    bytes::reset_copied_bytes();
    let phase = measure(&mut driver, &system, cfg.seconds, rec.as_mut());
    let copied = bytes::copied_bytes();
    let (cpu1, ctxsw1) = (process::cpu_seconds(), process::context_switches());
    let after = system.counters();
    let t_checks = Instant::now();
    let drained = driver.finish(&system);
    let after_drain = system.counters();
    system.shutdown();
    eprintln!(
        "{}: set-up repetitions {rep_secs:.3?} s, checks and shutdown {:.3} s",
        name,
        t_checks.elapsed().as_secs_f64()
    );
    attempted += driver.attempted;
    failed += driver.failed;

    eprintln!(
        "{}: ops/s by window {:?}",
        name,
        phase
            .window_ops
            .map(|n| (n as f64 / phase.window_secs).round())
    );
    let mut values = layer;
    if cfg.trace {
        observed(
            &mut values,
            &phase,
            &before,
            &after,
            &after_drain,
            drained.map(|d| d.as_secs_f64() * 1e3),
        );
        values.insert(
            "instance.copied_bytes_per_op",
            copied as f64 / phase.ops() as f64,
        );
        values.insert("client.op_p99_us", phase.wall_ns.quantile(0.99) / 1e3);
        values.insert(
            "process.cpu_us_per_op",
            (cpu1 - cpu0) * 1e6 / phase.ops() as f64,
        );
        values.insert(
            "process.ctxsw_per_op",
            ctxsw1.saturating_sub(ctxsw0) as f64 / phase.ops() as f64,
        );
        values.insert("process.threads_peak", phase.threads_peak as f64);
        values.insert("process.peak_rss_mb", process::peak_rss_mb());
        let rate = |parity: usize| {
            let ops: Vec<u64> = (0..WINDOWS)
                .filter(|w| w % 2 == parity)
                .map(|w| phase.window_ops[w])
                .collect();
            window_median(&ops, phase.window_secs)
        };
        values.insert("trace.overhead_pct", (1.0 - rate(1) / rate(0)) * 100.0);
    } else {
        values.insert(
            "ops_per_s",
            window_median(&phase.window_ops, phase.window_secs),
        );
        values.insert("op_p50_us", phase.wall_ns.quantile(0.5) / 1e3);
        values.insert("modeled_p50_ms", phase.modeled_us.quantile(0.5) / 1e3);
        values.insert("modeled_p99_ms", phase.modeled_us.quantile(0.99) / 1e3);
        values.insert("setup_s", setup_s);
    }
    if let Some(rec) = &rec {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}.json", name));
        rec.write_json(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{}: spans in {}", name, path.display());
    }

    let wanted: &[_] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = wanted
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied();
            value
                .map(|v| (m.name, v, m.unit))
                .ok_or(format!("metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        samples: (phase.wall_ns.count(), phase.modeled_us.count()),
    })
}

/// Per-layer numbers read off the workload's own system. A layer the
/// workload does not have reads 0.
fn observed(
    values: &mut probes::Results,
    phase: &Phase,
    before: &Counters,
    after: &Counters,
    after_drain: &Counters,
    drain_ms: Option<f64>,
) {
    let (puts, gets) = (phase.puts as f64, (phase.ops() - phase.puts) as f64);
    let per_get = |n: u64| if gets > 0.0 { n as f64 / gets } else { 0.0 };
    values.insert(
        "tiers.evictions",
        (after.evictions - before.evictions) as f64,
    );
    values.insert(
        "tiers.tier1_hit_ratio",
        per_get(after.tier1_gets - before.tier1_gets),
    );
    values.insert(
        "tiers.tier2_reads_per_get",
        per_get(after.tier2_gets - before.tier2_gets),
    );
    let locks: Vec<f64> = after
        .lock_counts
        .iter()
        .zip(&before.lock_counts)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = locks.iter().sum::<f64>() / locks.len().max(1) as f64;
    let skew = if mean > 0.0 {
        locks.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    };
    values.insert("metastore.lock_skew", skew);
    values.insert("replica.queue_len_max", phase.queue_len_max as f64);
    values.insert("replica.drain_ms", drain_ms.unwrap_or(0.0));
    // Queued updates leave after the phase ends; count them to the drain.
    values.insert(
        "replica.egress_bytes_per_put",
        (after_drain.egress_bytes - before.egress_bytes) as f64 / puts.max(1.0),
    );
    values.insert(
        "replica.replication_failures",
        (after_drain.replication_failures - before.replication_failures) as f64,
    );
}
