//! What the harness reads from the host: CPU time, memory, other
//! processes' CPU use, and the identification that goes into a record.

use std::process::Command;

/// Linux reports `/proc` CPU times in ticks of 1/100 s on every platform the
/// benchmark runs on (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Seconds of CPU (user + system) this process has used, all threads.
pub fn process_cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Seconds of CPU used by anything on the host, this process included
/// (everything but idle and iowait on the aggregate `cpu` line).
pub fn host_cpu_seconds() -> f64 {
    let stat = read("/proc/stat");
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<f64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
    // user nice system idle iowait irq softirq steal
    (at(0) + at(1) + at(2) + at(5) + at(6) + at(7)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn rustc_version() -> Option<String> {
    command_line("rustc", &["-V"])
}

/// The commit of the tree the benchmark runs in, if `git` answers.
pub fn commit() -> Option<String> {
    command_line("git", &["rev-parse", "HEAD"])
}
