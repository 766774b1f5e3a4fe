//! Host facts, process memory and the small statistics the harness
//! reports.

use std::process::Command;

/// The facts a host-time number needs beside it.
pub fn facts() -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("available_parallelism", parallelism.to_string()),
        ("nproc", command_line("nproc", &[])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("cpu", cpu_model()),
    ]
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` `None` is
/// this process. `None` where `/proc` is unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let text = std::fs::read_to_string(path).ok()?;
    let kib: f64 = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Host seconds this process has spent on a CPU, user plus system,
/// over all its threads (finished ones included). Time the hypervisor
/// took the CPU away for is not in it. `None` where `/proc` is
/// unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks (USER_HZ,
    // 100 on Linux).
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Median of a sample (mean of the middle pair when even); 0 when empty.
pub fn median(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Fewest samples per tail window: the 99th percentile of a window has
/// at least ten samples beyond it.
pub const TAIL_WINDOW: usize = 1_000;

/// The tail of a latency sample in time order. With at least
/// [`TAIL_WINDOW`] samples, the sample is cut into as many equal
/// windows of consecutive samples as have [`TAIL_WINDOW`] each, and the
/// tail is the lowest of the windows' 99th percentiles: the calmest
/// stretch of the run, so a slow period of the shared host that covers
/// most windows still leaves the tail alone. With fewer samples, the
/// highest percentile that has ten samples beyond it. Returns `(value,
/// percentile, each window's 99th percentile)`; zeros when empty.
pub fn tail(sample: &[f64]) -> (f64, f64, Vec<f64>) {
    let windows = sample.len() / TAIL_WINDOW;
    if let Some(size) = sample.len().checked_div(windows) {
        let rank = (size * 99).div_ceil(100);
        let p99s: Vec<f64> = sample
            .chunks_exact(size)
            .map(|w| percentile_rank(w, rank))
            .collect();
        return (
            p99s.iter().copied().fold(f64::INFINITY, f64::min),
            99.0,
            p99s,
        );
    }
    if sample.is_empty() {
        return (0.0, 0.0, Vec::new());
    }
    let rank = sample.len().saturating_sub(10).max(1);
    (
        percentile_rank(sample, rank),
        100.0 * rank as f64 / sample.len() as f64,
        Vec::new(),
    )
}

/// The `rank`-th smallest value (1-based).
fn percentile_rank(sample: &[f64], rank: usize) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Two windows of 1250: p99s 1238 and 2488, the lower taken.
        let sample: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(tail(&sample), (1238.0, 99.0, vec![1238.0, 2488.0]));
        // 100 samples: p99 would leave one beyond it, so the tail is
        // the 90th percentile, which leaves ten.
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&sample), (90.0, 90.0, Vec::new()));
    }
}
