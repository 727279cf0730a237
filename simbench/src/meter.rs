//! Process resource meters read from `/proc`.
//!
//! Each returns `None` where `/proc` (or the field) is missing, so the
//! benchmark reports the metric as absent rather than as zero.

use std::fs;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux for every architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed so far by this process, all
/// threads included (the simulator's stage threads count).
pub fn cpu_secs() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may hold spaces:
    // count fields from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds the calling thread has run so far, with nanosecond
/// resolution (the first field of `/proc/thread-self/schedstat`). The
/// process figure above comes in 10 ms ticks, too coarse for a set-up that
/// takes tens of milliseconds.
pub fn thread_cpu_secs() -> Option<f64> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns * 1e-9)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
