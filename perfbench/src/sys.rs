//! What the operating system knows about this process: peak resident memory
//! and CPU time, read from `/proc` so no dependency is needed. One workload
//! runs per process, so both belong to that workload alone.

use std::fs;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which the Linux
/// ABI fixes at 100 per second on every architecture this repository builds
/// for (it is not the kernel's internal `HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `(user, system)` CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_cpu_seconds(&stat).ok_or_else(|| "unexpected /proc/self/stat layout".to_string())
}

fn parse_cpu_seconds(stat: &str) -> Option<(f64, f64)> {
    // The second field is the command name in parentheses and may itself
    // contain spaces or parentheses; everything after its last ')' is
    // space-separated, starting with field 3 (state). utime and stime are
    // fields 14 and 15.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SECOND, stime / TICKS_PER_SECOND))
}

/// Hardware threads available to this process (at least one).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_behind_an_awkward_command_name() {
        let stat = "4242 (bench) mark)) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some((12.34, 5.67)));
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn this_process_has_memory_and_a_cpu() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().is_ok());
        assert!(nproc() >= 1);
    }
}
