//! CPU time and peak memory, read from `/proc`.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 on Linux regardless of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds in a `/proc` `stat` file.
fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// CPU seconds consumed so far by every thread of this process except
/// the calling one, including threads that have already exited. Called
/// from the generator thread, this is the cluster's CPU: the generator's
/// own sleeping and polling, which the benchmark sets and not the
/// program, stays out.
pub fn others_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat") - stat_cpu_seconds("/proc/thread-self/stat")
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
