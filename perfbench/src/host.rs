//! Host identity and memory, read from the running system.

use std::fmt::Write as _;
use std::path::Path;

/// What ran the benchmark: every output record carries it.
#[derive(Debug)]
pub struct Host {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, from the `.git` beside the benchmark.
    pub commit: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Host {
    /// Reads the identity of this host and build.
    #[must_use]
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            rustc,
            commit: git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git"))
                .unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) { "dev" } else { "release" },
        }
    }

    /// The identity as JSON object members (no braces).
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"cpu\":{},\"nproc\":{},\"rustc\":{},\"commit\":{},\"profile\":{}",
            json_str(&self.cpu),
            self.nproc,
            json_str(&self.rustc),
            json_str(&self.commit),
            json_str(self.profile)
        )
    }
}

/// Resolves `HEAD` by reading the git directory itself, so a checkout
/// without git (or without `.git`) reports `unknown` instead of walking up
/// into some enclosing repository.
fn git_commit(git: &Path) -> Option<String> {
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
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .filter(|id| !id.is_empty() && !id.starts_with('#'))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or lacks `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), in order.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Restricts this process's main thread, and every thread it starts from
/// then on, to `cpus` (with `taskset`). Returns whether that worked.
pub fn pin_main_thread(cpus: &[usize]) -> bool {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    std::process::Command::new("taskset")
        .args(["-p", "-c", &list.join(","), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
