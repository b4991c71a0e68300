//! What `/proc` says about this process.

/// Kernel clock ticks per second in `/proc/<pid>/stat`; 100 on every Linux
/// build this runs on.
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// User + system CPU seconds of the whole process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, the 12th and 13th after the ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// Context switches summed over the threads alive now. Threads that have
/// exited take their counts with them, so on a thread-per-op path this is
/// the long-lived threads' share only.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = read(&format!("{}/status", t.path().display()));
            status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Threads alive now.
pub fn threads() -> u64 {
    status_field(&read("/proc/self/status"), "Threads")
}

/// Peak resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t3\nvoluntary_ctxt_switches:\t5\n";
        assert_eq!(status_field(status, "VmHWM"), 2048);
        assert_eq!(status_field(status, "Threads"), 3);
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), 5);
        assert_eq!(status_field(status, "missing"), 0);
    }

    #[test]
    fn live_process_reads_are_sane() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(context_switches() > 0 || cpu_seconds() >= 0.0);
    }
}
