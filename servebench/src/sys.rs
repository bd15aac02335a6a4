//! Host facts and process counters, read from `/proc` (Linux).

use std::path::Path;
use std::time::Duration;

/// User plus system CPU of the whole process, from `/proc/self/stat`
/// (in clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the `(comm)` paren: utime and stime are the 12th and
    // 13th (0-based 11 and 12).
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let mut f = rest.split_ascii_whitespace().skip(11);
    let ticks: u64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0)
        + f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    Duration::from_millis(ticks * 1000 / CLOCK_TICKS_PER_S)
}

/// Clock ticks per second in `/proc` (`USER_HZ`, 100 on Linux whatever
/// the kernel's own tick rate).
const CLOCK_TICKS_PER_S: u64 = 100;

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Where a run came from, so records from different hosts or commits
/// are never compared unawares.
pub struct Provenance {
    pub git_sha: String,
    pub nproc: usize,
    pub nofile_limit: String,
    pub kernel: String,
    pub loadavg: String,
}

impl Provenance {
    pub fn collect() -> Self {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default().trim().to_string();
        let limits = read("/proc/self/limits");
        let nofile_limit = limits
            .lines()
            .find_map(|l| l.strip_prefix("Max open files"))
            .and_then(|v| v.split_ascii_whitespace().next())
            .unwrap_or("unknown")
            .to_string();
        let loadavg = read("/proc/loadavg");
        Self {
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            nofile_limit,
            kernel: read("/proc/sys/kernel/osrelease"),
            loadavg: loadavg.split_ascii_whitespace().take(3).collect::<Vec<_>>().join(" "),
        }
    }
}

/// The commit `HEAD` names in a git directory, read without running git
/// (`None` outside a git checkout).
fn git_sha(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}
