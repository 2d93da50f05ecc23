//! What the numbers were measured on: recorded in every result file,
//! because wall-clock figures only compare across runs on the same
//! effective core count and toolchain.

use std::process::Command;

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    pub git_commit: String,
    pub rustc: String,
    /// Scheduler-visible parallelism (honours cpusets and affinity).
    pub available_parallelism: u64,
    /// Processors listed in `/proc/cpuinfo` (blind to quotas).
    pub cpuinfo_processors: Option<u64>,
    /// Cores the cgroup CPU quota grants; `None` when unlimited.
    pub cgroup_cpu_quota: Option<f64>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    // git must not look for a repository above the directory the benchmark
    // runs in: a checkout that is not one reports "unknown"
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// cgroup v2 `cpu.max` (`<quota> <period>` or `max <period>`), else v1
/// `cpu.cfs_quota_us` (-1 when unlimited) over `cpu.cfs_period_us`.
fn cgroup_cpu_quota() -> Option<f64> {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let (quota, period) = match read("/sys/fs/cgroup/cpu.max") {
        Some(text) => {
            let mut it = text.split_whitespace().map(str::to_string);
            (it.next()?, it.next()?)
        }
        None => (
            read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?,
            read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?,
        ),
    };
    let quota: f64 = quota.trim().parse().ok()?;
    let period: f64 = period.trim().parse().ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

impl Machine {
    pub fn detect() -> Self {
        Machine {
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, |n| n.get() as u64),
            cpuinfo_processors: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .map(|t| t.lines().filter(|l| l.starts_with("processor")).count() as u64)
                .filter(|n| *n > 0),
            cgroup_cpu_quota: cgroup_cpu_quota(),
        }
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
