//! Host facts and process counters from `/proc`. Where `/proc` is
//! missing the readers return `None`, and the report says "unavailable"
//! instead of printing a zero.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ = 100 ticks/s.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) (utime, stime); `rest` starts at field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// The facts a result depends on, printed with every result so that
/// results from different hosts are never compared silently.
pub fn facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} POSTVAR_NUM_THREADS={} RAYON_NUM_THREADS={} executor_threads={} profile={profile} proc={}",
        env("POSTVAR_NUM_THREADS"),
        env("RAYON_NUM_THREADS"),
        rayon::current_num_threads(),
        if cpu_seconds().is_some() {
            "available"
        } else {
            "unavailable"
        },
    )
}
