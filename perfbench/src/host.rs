//! Host probes read from `/proc`, and the host fingerprint every result
//! records.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // After ')': state(3) ... utime(14) stime(15), i.e. indices 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
}

fn status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb(&status(), "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peaks seen by a [`Sampler`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Peaks {
    /// OS threads, not counting the sampler.
    pub threads: usize,
    /// Resident set size, MiB.
    pub rss_mb: f64,
}

/// Samples the process's OS thread count and resident set size every
/// 2 ms while alive. The peak of one interval is steadier than the
/// process-lifetime high-water mark, which keeps the worst moment of a
/// whole run.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<Peaks>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            thread::spawn(move || {
                let mut peaks = Peaks::default();
                loop {
                    let s = status();
                    let threads = status_kb(&s, "Threads:").map_or(0, |t| t as usize);
                    let rss = status_kb(&s, "VmRSS:").unwrap_or(0.0) / 1024.0;
                    peaks.threads = peaks.threads.max(threads.saturating_sub(1));
                    peaks.rss_mb = peaks.rss_mb.max(rss);
                    if stop.load(Ordering::Relaxed) {
                        return peaks;
                    }
                    thread::sleep(Duration::from_millis(2));
                }
            })
        };
        Sampler { stop, handle }
    }

    pub fn stop(self) -> Peaks {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}

/// What a result was measured on. Two results compare only when every
/// field but `git_commit` agrees (see [`Fingerprint::comparable`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// Every `NPAR_*` environment variable, sorted.
    pub npar_env: BTreeMap<String, String>,
    pub git_commit: String,
}

/// First line of a command's stdout, or "unknown" if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the repository holding this package, read
/// from its own `.git` (never a parent directory's); `None` outside a git
/// checkout.
fn git_commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: command_line(&rustc, &["-V"]),
            npar_env: std::env::vars()
                .filter(|(k, _)| k.starts_with("NPAR_"))
                .collect(),
            git_commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Whether results from the two hosts may be compared: same cores,
    /// CPU, compiler and `NPAR_*` settings. The commit is what a
    /// comparison varies, so it is not part of the match.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc
            && self.cpu_model == other.cpu_model
            && self.rustc == other.rustc
            && self.npar_env == other.npar_env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let sampler = Sampler::start();
        let worker = thread::spawn(|| thread::sleep(Duration::from_millis(20)));
        thread::sleep(Duration::from_millis(10));
        let peaks = sampler.stop();
        worker.join().expect("worker");
        assert!(peaks.threads >= 2, "{peaks:?}");
        assert!(peaks.rss_mb > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn commit_is_a_full_hash_when_checked_out() {
        // Outside a git checkout (an exported tree) there is no commit.
        if let Some(id) = git_commit() {
            assert_eq!(id.len(), 40, "{id:?}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id:?}");
        }
    }

    #[test]
    fn fingerprints_ignore_the_commit_only() {
        let a = Fingerprint::probe();
        let mut b = a.clone();
        b.git_commit = "other".into();
        assert!(a.comparable(&b));
        b.npar_env
            .insert("NPAR_PERFBENCH_TEST_ONLY".into(), "1".into());
        assert!(!a.comparable(&b));
        let mut c = a.clone();
        c.nproc += 1;
        assert!(!a.comparable(&c));
    }
}
