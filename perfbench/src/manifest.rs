//! Pinned workload manifests.
//!
//! Every workload's jobs are written out explicitly in `manifests/`, one
//! job per line, instead of being derived from `job::smoke()` or the sweep
//! presets: a kernel added to the catalog, or a preset that grows, can then
//! never change what a workload measures without a visible edit here.

use snitch_engine::JobSpec;
use snitch_kernels::{Kernel, Variant};
use snitch_sim::{ClusterConfig, SystemConfig};

/// One benchmark workload: a name and its pinned job list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 24 Figure 2 steady-state jobs on one worker.
    PaperFig2,
    /// The 24-cell tiled-GEMM cores × clusters grid on a worker pool.
    GridMulticluster,
    /// The paper kernels at their smoke points, traced and profiled, with
    /// every trace and profile sink rendered and validated.
    ObservePaper,
}

impl Workload {
    /// Every workload, in the order the all-workloads mode runs them.
    pub const ALL: [Workload; 3] =
        [Workload::PaperFig2, Workload::GridMulticluster, Workload::ObservePaper];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig2 => "paper-fig2",
            Workload::GridMulticluster => "grid-multicluster",
            Workload::ObservePaper => "observe-paper",
        }
    }

    /// Resolves a `--workload` name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn manifest(self) -> &'static str {
        match self {
            Workload::PaperFig2 => include_str!("../manifests/paper-fig2.txt"),
            Workload::GridMulticluster => include_str!("../manifests/grid-multicluster.txt"),
            Workload::ObservePaper => include_str!("../manifests/observe-paper.txt"),
        }
    }

    /// Workers the workload asks the engine for: the multi-cluster grid
    /// runs on a pool of every host thread, the other two on one worker
    /// (one `System` reused for the whole batch, as `trace` and `profile`
    /// run).
    #[must_use]
    pub fn requested_workers(self) -> usize {
        match self {
            Workload::GridMulticluster => {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            }
            Workload::PaperFig2 | Workload::ObservePaper => 1,
        }
    }

    /// The pinned job list.
    ///
    /// # Errors
    ///
    /// Fails if a line is malformed or names a kernel or variant that no
    /// longer resolves.
    pub fn jobs(self) -> Result<Vec<JobSpec>, String> {
        parse(self.manifest()).map_err(|e| format!("manifests/{}.txt: {e}", self.name()))
    }
}

/// Parses a manifest: `#` starts a comment; every other non-blank line is
/// `kernel variant n block cores clusters observe`, where `observe` is `-`,
/// `traced` or `profiled`.
///
/// # Errors
///
/// Names the first line that is malformed or whose kernel or variant does
/// not resolve through [`Kernel::from_name`] / [`Variant::from_name`].
pub fn parse(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let job = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err("no jobs".to_string());
    }
    Ok(jobs)
}

fn parse_line(line: &str) -> Result<JobSpec, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [kernel, variant, n, block, cores, clusters, observe] = fields[..] else {
        return Err(format!("expected 7 fields, found {}", fields.len()));
    };
    let kernel =
        Kernel::from_name(kernel).ok_or_else(|| format!("kernel `{kernel}` does not resolve"))?;
    let variant = Variant::from_name(variant)
        .ok_or_else(|| format!("variant `{variant}` does not resolve"))?;
    let number = |what: &str, s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("{what} `{s}` is not a whole number"))
    };
    let config = SystemConfig {
        cluster: ClusterConfig { cores: number("cores", cores)?, ..ClusterConfig::default() },
        clusters: number("clusters", clusters)?,
    };
    let job =
        JobSpec::new(kernel, variant, number("n", n)?, number("block", block)?).with_config(config);
    match observe {
        "-" => Ok(job),
        "traced" => Ok(job.traced()),
        "profiled" => Ok(job.profiled()),
        other => Err(format!("observe `{other}` is not one of -, traced, profiled")),
    }
}

/// A job's label plus its observation request (`JobSpec::label` leaves the
/// trace and profile flags out, since they change no result).
#[must_use]
pub fn label(job: &JobSpec) -> String {
    let mut label = job.label();
    if job.trace() {
        label.push_str("/traced");
    }
    if job.profile() {
        label.push_str("/profiled");
    }
    label
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a's initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the workload's labels, in order: two manifests with the same
/// digest run the same jobs in the same order.
#[must_use]
pub fn label_digest(jobs: &[JobSpec]) -> u64 {
    jobs.iter().fold(FNV_OFFSET, |h, job| fnv1a(fnv1a(h, label(job).as_bytes()), b"\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_manifest_resolves_with_its_pinned_size() {
        for (workload, count) in [
            (Workload::PaperFig2, 24),
            (Workload::GridMulticluster, 24),
            (Workload::ObservePaper, 24),
        ] {
            let jobs = workload.jobs().expect("manifest parses");
            assert_eq!(jobs.len(), count, "{}", workload.name());
        }
    }

    #[test]
    fn unknown_names_are_refused() {
        let err = parse("no_such_kernel base 64 0 1 1 -").expect_err("must refuse");
        assert!(err.contains("`no_such_kernel` does not resolve"), "{err}");
        let err = parse("pi_lcg fast 64 0 1 1 -").expect_err("must refuse");
        assert!(err.contains("variant `fast`"), "{err}");
        let err = parse("pi_lcg base 64 0 1 -").expect_err("must refuse");
        assert!(err.contains("expected 7 fields"), "{err}");
    }

    #[test]
    fn lines_set_every_axis() {
        let jobs = parse("# header\ngemm_tiled copift 64 0 8 4 -\nlog base 512 64 1 1 traced\n")
            .expect("parses");
        assert_eq!(jobs[0].label(), "gemm_tiled/copift/n64/b0/c8/x4");
        assert!(jobs[1].trace() && !jobs[1].profile());
        assert_eq!(label(&jobs[1]), "log/base/n512/b64/traced");
        assert_ne!(label_digest(&jobs[..1]), label_digest(&jobs));
    }
}
