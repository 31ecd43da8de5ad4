//! What the process and the host say about a run: CPU time, peak RSS,
//! core count, and the provenance stamped on every report.

use std::process::Command;
use std::time::Duration;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on every
/// architecture this benchmark runs on.
const TICKS_PER_SEC: u64 = 100;

/// `utime + stime` out of a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself hold spaces and parentheses, so fields are counted
/// from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SEC,
    ))
}

/// `VmHWM` (peak resident set) in KiB out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU this process (all threads) has burned so far.
pub fn process_cpu() -> Duration {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

/// Peak resident set of this process, MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a report came from. Best effort: a checkout that is not a git
/// repository reads `unknown`.
pub struct Provenance {
    pub nproc: usize,
    pub effective_cores: u64,
    pub git_sha: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_cores: worlds_obs::effective_cores(),
            git_sha: first_line_of("git", &["-C", manifest_dir, "rev-parse", "--short", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    250 50 0 0 20 0 4 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_millis(3000)));
        assert_eq!(parse_stat_cpu("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn live_process_readings_are_sane() {
        assert!(rss_peak_mib() > 0.0);
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > before);
    }
}
