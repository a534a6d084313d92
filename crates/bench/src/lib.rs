//! Measurement code behind the `experiments` binary, which regenerates the
//! COPIFT paper's Table I and Figures 2–3 (and the sections beyond them)
//! in EXPERIMENTS.md.
//!
//! All batched measurements run through [`snitch_engine`]: each section
//! expands its experiment matrix into a job batch, the engine fans the
//! batch across worker threads (caching compiled programs), and the
//! steady-state derivations here consume the ordered records. This module
//! is the **only** place steady-state measure logic lives.

#![forbid(unsafe_code)]

use snitch_engine::{job, Engine, RunRecord};
use snitch_kernels::harness::steady_state;
use snitch_kernels::registry::{Kernel, Variant};
use snitch_kernels::SteadyState;
use snitch_sim::stats::Stats;

/// Steady-state measurement of one (kernel, variant) pair at its Figure 2
/// operating point, derived by differencing two problem sizes.
///
/// # Panics
///
/// Panics if either run fails validation (reproduction bugs should be loud).
#[must_use]
pub fn measure_steady(kernel: Kernel, variant: Variant) -> SteadyState {
    let (n, block) = kernel.operating_point();
    let small = kernel.run(variant, n, block).expect("small run validates");
    let large = kernel.run(variant, 2 * n, block).expect("large run validates");
    steady_state(&small.stats, n, &large.stats, 2 * n)
}

/// The stats of a record, panicking loudly on a failed job.
///
/// # Panics
///
/// Panics if the job failed.
#[must_use]
pub fn stats_of(record: &RunRecord) -> &Stats {
    assert!(
        record.ok,
        "{} failed: {}",
        record.job.label(),
        record.error.as_deref().unwrap_or("unknown error")
    );
    record.stats.as_ref().expect("successful records carry stats")
}

/// One Figure 2 row: baseline and COPIFT steady-state measurements plus the
/// derived comparisons.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Kernel.
    pub kernel: Kernel,
    /// Baseline steady state.
    pub base: SteadyState,
    /// COPIFT steady state.
    pub copift: SteadyState,
}

impl Fig2Row {
    /// Measures one kernel serially.
    #[must_use]
    pub fn measure(kernel: Kernel) -> Fig2Row {
        Fig2Row {
            kernel,
            base: measure_steady(kernel, Variant::Baseline),
            copift: measure_steady(kernel, Variant::Copift),
        }
    }

    /// Measures the paper's six kernels as one engine batch (24 simulations
    /// fanned across the engine's workers). Results are identical to six
    /// serial [`measure`](Self::measure) calls; only wall-clock differs.
    ///
    /// # Panics
    ///
    /// Panics if any run fails validation.
    #[must_use]
    pub fn measure_all(engine: &Engine) -> Vec<Fig2Row> {
        Self::measure_suite(engine, &Kernel::paper())
    }

    /// Measures an arbitrary kernel list (e.g. [`Kernel::extended`] for the
    /// extended suite, or the whole catalog) as one engine batch of
    /// steady-state pairs, four simulations per kernel. Kernels that don't
    /// support the `(n, 2n)` methodology ([`Kernel::steady_measurable`])
    /// are skipped — the scaling sections measure those.
    ///
    /// # Panics
    ///
    /// Panics if any run fails validation.
    #[must_use]
    pub fn measure_suite(engine: &Engine, kernels: &[Kernel]) -> Vec<Fig2Row> {
        let kernels: Vec<Kernel> =
            kernels.iter().copied().filter(|k| k.steady_measurable()).collect();
        let jobs = job::steady_pairs(&kernels);
        let records = engine.run(&jobs);
        // steady_pairs() is kernel-major: [base n, base 2n, copift n, copift 2n].
        kernels
            .iter()
            .zip(records.chunks_exact(4))
            .map(|(&kernel, chunk)| {
                let (n, _) = kernel.operating_point();
                Fig2Row {
                    kernel,
                    base: steady_state(stats_of(&chunk[0]), n, stats_of(&chunk[1]), 2 * n),
                    copift: steady_state(stats_of(&chunk[2]), n, stats_of(&chunk[3]), 2 * n),
                }
            })
            .collect()
    }

    /// Steady-state speedup (cycles per element ratio).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.base.cycles_per_elem / self.copift.cycles_per_elem
    }

    /// Energy improvement (energy per element ratio).
    #[must_use]
    pub fn energy_improvement(&self) -> f64 {
        self.base.energy_per_elem_nj / self.copift.energy_per_elem_nj
    }

    /// Power ratio (COPIFT / base).
    #[must_use]
    pub fn power_ratio(&self) -> f64 {
        self.copift.power_mw / self.base.power_mw
    }

    /// Expected IPC `I′` from the measured steady-state instruction mix
    /// (Eq. 2 evaluated on dynamic counts).
    #[must_use]
    pub fn i_prime(&self) -> f64 {
        let d = &self.copift.delta;
        let n_int = d.int_issued as f64;
        let n_fp = d.fp_instructions() as f64;
        (n_int + n_fp) / n_int.max(n_fp)
    }

    /// Expected speedup `S′` from measured mixes (Eq. 1).
    #[must_use]
    pub fn s_prime(&self) -> f64 {
        let b = &self.base.delta;
        let c = &self.copift.delta;
        (b.int_issued + b.fp_instructions()) as f64
            / (c.int_issued as f64).max(c.fp_instructions() as f64)
    }
}

/// Renders extended-suite measurement rows as the EXPERIMENTS.md markdown
/// table.
#[must_use]
pub fn extended_tables(rows: &[Fig2Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| kernel | IPC base | IPC COPIFT | power base | power COPIFT | speedup | energy imp. | I′ (exp.) | S′ (exp.) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.1} | {:.1} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            r.base.ipc,
            r.copift.ipc,
            r.base.power_mw,
            r.copift.power_mw,
            r.speedup(),
            r.energy_improvement(),
            r.i_prime(),
            r.s_prime(),
        );
    }
    out
}

/// The core counts swept by the cluster-scaling table (re-exported from
/// the engine's canonical batch definition, so the sweep CLI's `scaling`
/// preset and the table can never drift apart).
pub use snitch_engine::job::SCALING_CORES;

/// One row of the cluster-scaling table: full-run cycles of one
/// `(kernel, variant)` at every core count of [`SCALING_CORES`], plus the
/// TCDM conflict counts that prove the harts actually contend.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Data-parallel kernel.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Total cycles per core count (same order as [`SCALING_CORES`]).
    pub cycles: Vec<u64>,
    /// TCDM bank conflicts per core count.
    pub conflicts: Vec<u64>,
}

impl ScalingRow {
    /// Parallel speedup at `cores_index` relative to the single-core run.
    #[must_use]
    pub fn speedup(&self, cores_index: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[cores_index] as f64
    }
}

/// Measures the data-parallel kernels over the [`SCALING_CORES`] axis at
/// their shared operating point, as one engine batch (16 simulations, one
/// compiled program per core count). Every run validates bit-exactly
/// against the single-core golden model — the decomposition guarantee of
/// the per-hart seed tables.
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn scaling_rows(engine: &Engine) -> Vec<ScalingRow> {
    let kernels = job::scaling_kernels();
    let jobs = job::scaling_default();
    let records = engine.run(&jobs);
    let mut rows = Vec::with_capacity(kernels.len() * 2);
    let mut chunks = records.chunks_exact(SCALING_CORES.len());
    for &kernel in &kernels {
        for variant in Variant::all() {
            let chunk = chunks.next().expect("scaling batch is kernel x variant x cores");
            rows.push(ScalingRow {
                kernel,
                variant,
                cycles: chunk.iter().map(|r| stats_of(r).cycles).collect(),
                conflicts: chunk.iter().map(|r| stats_of(r).tcdm_conflicts).collect(),
            });
        }
    }
    rows
}

/// Renders cluster-scaling rows as the EXPERIMENTS.md markdown table.
#[must_use]
pub fn scaling_tables(rows: &[ScalingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut header = String::from("| kernel | variant |");
    for c in SCALING_CORES {
        let _ = write!(header, " {c} core{} |", if c == 1 { "" } else { "s" });
    }
    let top = SCALING_CORES[SCALING_CORES.len() - 1];
    let _ = writeln!(out, "{header} speedup @{top} | conflicts @{top} |");
    let _ = writeln!(out, "|{}", "---|".repeat(SCALING_CORES.len() + 4));
    for r in rows {
        let mut line = format!("| {} | {} |", r.kernel.name(), r.variant.name());
        for &cycles in &r.cycles {
            let _ = write!(line, " {cycles} |");
        }
        let last = SCALING_CORES.len() - 1;
        let _ = writeln!(out, "{line} {:.2}× | {} |", r.speedup(last), r.conflicts[last]);
    }
    out
}

/// The cluster counts swept by the 2-D scaling grid (re-exported from the
/// engine's canonical batch definition, so the sweep CLI's `scaling-grid`
/// preset and the table can never drift apart).
pub use snitch_engine::job::SCALING_CLUSTERS;

/// One row of the cores × clusters scaling table: full-run cycles of one
/// `(kernel, variant)` at one cluster count over every core count of
/// [`SCALING_CORES`], plus the inter-cluster DMA hop cycles that prove the
/// tiles actually travelled over the system interconnect.
#[derive(Clone, Debug)]
pub struct ScalingGridRow {
    /// Tiled kernel.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Cluster count of this row.
    pub clusters: usize,
    /// Total cycles per core count (same order as [`SCALING_CORES`]).
    pub cycles: Vec<u64>,
    /// Inter-cluster/L2 DMA hop cycles per core count.
    pub dma_hop_cycles: Vec<u64>,
}

impl ScalingGridRow {
    /// Parallel speedup at `cores_index` relative to the row's single-core
    /// run (scaling within a fixed cluster count).
    #[must_use]
    pub fn speedup(&self, cores_index: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[cores_index] as f64
    }
}

/// Measures the tiled GEMM over the [`SCALING_CORES`] × [`SCALING_CLUSTERS`]
/// grid at its operating point, as one engine batch (one compiled program
/// per grid shape). Every run validates bit-exactly against the
/// single-cluster golden model — the decomposition guarantee of the
/// block-cyclic row ownership (DESIGN.md §18).
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn scaling_grid_rows(engine: &Engine) -> Vec<ScalingGridRow> {
    let jobs = job::scaling_grid_default();
    let records = engine.run(&jobs);
    // scaling_grid() is kernel-major, then variant, then clusters, with
    // cores innermost: each chunk is one table row.
    let mut rows = Vec::new();
    let mut chunks = records.chunks_exact(SCALING_CORES.len());
    for variant in Variant::all() {
        for &clusters in &SCALING_CLUSTERS {
            let chunk = chunks.next().expect("grid batch is variant x clusters x cores");
            rows.push(ScalingGridRow {
                kernel: Kernel::GemmTiled,
                variant,
                clusters,
                cycles: chunk.iter().map(|r| stats_of(r).cycles).collect(),
                dma_hop_cycles: chunk.iter().map(|r| stats_of(r).dma_hop_cycles).collect(),
            });
        }
    }
    rows
}

/// Renders cores × clusters scaling rows as the EXPERIMENTS.md markdown
/// table.
#[must_use]
pub fn scaling_grid_tables(rows: &[ScalingGridRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut header = String::from("| kernel | variant | clusters |");
    for c in SCALING_CORES {
        let _ = write!(header, " {c} core{} |", if c == 1 { "" } else { "s" });
    }
    let top = SCALING_CORES[SCALING_CORES.len() - 1];
    let _ = writeln!(out, "{header} speedup @{top} | DMA hop cycles @{top} |");
    let _ = writeln!(out, "|{}", "---|".repeat(SCALING_CORES.len() + 5));
    for r in rows {
        let mut line = format!("| {} | {} | {} |", r.kernel.name(), r.variant.name(), r.clusters);
        for &cycles in &r.cycles {
            let _ = write!(line, " {cycles} |");
        }
        let last = SCALING_CORES.len() - 1;
        let _ = writeln!(out, "{line} {:.2}× | {} |", r.speedup(last), r.dma_hop_cycles[last]);
    }
    out
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The full Figure 3 IPC grid, `grid[size_index][block_index]` — full-run
/// IPC of `poly_lcg` COPIFT with prologue and epilogue included (the point
/// of the figure) — computed as one engine batch (56 simulations).
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn fig3_grid(engine: &Engine) -> Vec<Vec<f64>> {
    let jobs = job::figure3_paper();
    let records = engine.run(&jobs);
    records
        .chunks_exact(FIG3_BLOCKS.len())
        .map(|row| row.iter().map(|r| stats_of(r).ipc()).collect())
        .collect()
}

pub use snitch_engine::job::{FIG3_BLOCKS, FIG3_SIZES};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_axes_are_valid_configs() {
        for &b in &FIG3_BLOCKS {
            for &n in &FIG3_SIZES {
                assert_eq!(n % b, 0, "block {b} must divide size {n}");
                assert!(n / b >= 2);
                assert_eq!(b % 8, 0);
            }
        }
    }

    #[test]
    fn engine_rows_match_serial_measurement() {
        // The engine path must reproduce the serial path bit-for-bit.
        let rows = Fig2Row::measure_all(&Engine::new(2));
        let serial = Fig2Row::measure(Kernel::PiLcg);
        let row = rows.iter().find(|r| r.kernel == Kernel::PiLcg).expect("pi_lcg row");
        assert_eq!(row.base.delta, serial.base.delta);
        assert_eq!(row.copift.delta, serial.copift.delta);
        assert!((row.speedup() - serial.speedup()).abs() < 1e-12);
    }
}

/// One row of the overlap-profile table: the trace-level per-cycle lane
/// occupancy of one `(kernel, variant)` run at its smoke point, plus the
/// analyzed [`Profile`](snitch_trace::Profile) for further rendering.
#[derive(Clone, Debug)]
pub struct OverlapRow {
    /// Kernel.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Full-run IPC.
    pub ipc: f64,
    /// The analyzed trace.
    pub profile: snitch_trace::Profile,
    /// Hart-0 lane occupancy over the full run.
    pub occupancy: snitch_trace::Occupancy,
}

/// Traces the paper's six kernels in both variants at their smoke points
/// (one engine batch of 12 traced jobs; every run validates bit-exactly
/// before its trace counts) and analyzes hart 0's lane occupancy.
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn overlap_rows(engine: &Engine) -> Vec<OverlapRow> {
    let mut jobs = Vec::new();
    for kernel in Kernel::paper() {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            jobs.push(snitch_engine::JobSpec::new(kernel, variant, n, block).traced());
        }
    }
    let records = engine.run(&jobs);
    records
        .iter()
        .map(|r| {
            let stats = stats_of(r);
            let events = r.trace.as_deref().expect("traced job carries events");
            let profile = snitch_trace::Profile::new(events, stats.cycles);
            let occupancy = profile.occupancy(0);
            OverlapRow {
                kernel: r.job.kernel,
                variant: r.job.variant,
                cycles: stats.cycles,
                ipc: stats.ipc(),
                profile,
                occupancy,
            }
        })
        .collect()
}

/// Renders overlap rows as the EXPERIMENTS.md markdown table.
#[must_use]
pub fn overlap_tables(rows: &[OverlapRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| kernel | variant | cycles | IPC | steady IPC | overlap % | core-only % | frep-only % | idle % |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let occ = &r.occupancy;
        let pct = |n: u64| 100.0 * n as f64 / occ.window as f64;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {:.3} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.kernel.name(),
            r.variant.name(),
            r.cycles,
            r.ipc,
            r.profile.steady_ipc(),
            pct(occ.overlap),
            pct(occ.core_busy - occ.overlap),
            pct(occ.frep_busy - occ.overlap),
            pct(occ.idle),
        );
    }
    out
}

/// An ASCII strip of one row's hart-0 steady-state occupancy (the
/// Perfetto-screenshot-equivalent text view), at most `width` cycles wide.
#[must_use]
pub fn overlap_strip(row: &OverlapRow, width: u64) -> String {
    let steady = row.profile.steady_window();
    let window = steady.start..(steady.start + width).min(steady.end);
    format!(
        "{}/{} steady-state occupancy, cycles [{}, {}) (█ = lane issued):\n\n```text\n{}```\n",
        row.kernel.name(),
        row.variant.name(),
        window.start,
        window.end,
        row.profile.ascii_timeline(0, &window, width as usize),
    )
}
