//! Process counters (`getrusage`) and the host fingerprint printed with
//! every result, so figures from different hosts are never compared
//! silently.

use std::path::Path;
use std::process::Command;

use crate::stats::fnv64;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide resource usage, all threads (live and exited) included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub vcsw: f64,
    pub ivcsw: f64,
    /// Minor page faults.
    pub minflt: f64,
    /// Peak resident set size so far, in MiB.
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
        // Linux layout (enforced by the compile_error above); getrusage
        // writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&r.utime),
            sys_s: secs(&r.stime),
            vcsw: r.nvcsw as f64,
            ivcsw: r.nivcsw as f64,
            minflt: r.minflt as f64,
            peak_rss_mb: r.maxrss as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier` (peak RSS is kept as is).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
            minflt: self.minflt - earlier.minflt,
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn add(&mut self, d: &Usage) {
        self.user_s += d.user_s;
        self.sys_s += d.sys_s;
        self.vcsw += d.vcsw;
        self.ivcsw += d.ivcsw;
        self.minflt += d.minflt;
    }
}

fn status_field(status: &str, key: &str) -> Option<String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches(':').trim().to_string())
}

/// Number of CPUs in a kernel CPU list such as `0-3,6`.
fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => match (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => 1,
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of the simulator's sources (every file under `crates/`
/// plus the lock file), so results name the code they measured even in
/// a checkout that is not a git repository.
fn source_digest() -> Option<String> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    Some(format!("{:016x}", fnv64(&all)))
}

/// The checked-out commit, when the working directory is itself a git
/// work tree (benchmark checkouts usually are not).
fn git_commit() -> Option<String> {
    Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
}

fn json_str(s: Option<&str>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

/// One-line JSON description of the host and the code under test.
pub fn fingerprint() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let allowed = status_field(&status, "Cpus_allowed_list");
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string());
    let pinned = allowed
        .as_deref()
        .map(|a| cpu_list_len(a) < cpu_list_len(online.trim()));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"cpus_allowed_list\": {}, \"pinned\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
        parallelism,
        json_str(cpu_model.as_deref()),
        json_str(allowed.as_deref()),
        pinned.map_or("null".to_string(), |p| p.to_string()),
        json_str(command_line("rustc", &["--version"]).as_deref()),
        json_str(git_commit().as_deref()),
        json_str(source_digest().as_deref()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(cpu_list_len("0-1"), 2);
        assert_eq!(cpu_list_len("0-3,6,8-9"), 7);
        assert_eq!(cpu_list_len("5"), 1);
    }

    #[test]
    fn usage_counts_this_process() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let d = Usage::now().since(&a);
        assert!(d.cpu_s() >= 0.0 && d.peak_rss_mb > 0.0, "{d:?} {x}");
    }
}
