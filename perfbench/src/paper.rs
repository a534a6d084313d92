//! The paper's Figure 2 values, and the benchmark's fidelity metrics
//! against them.

use snitch_bench::Fig2Row;
use snitch_engine::RunRecord;
use snitch_kernels::harness::steady_state;
use snitch_kernels::{Kernel, SteadyState, Variant};

/// One Figure 2 kernel as published.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Catalog name of the kernel.
    pub kernel: &'static str,
    /// Steady-state IPC of the baseline (Fig. 2a).
    pub ipc_base: f64,
    /// Steady-state IPC of COPIFT (Fig. 2a).
    pub ipc_copift: f64,
    /// Steady-state speedup of COPIFT over the baseline (Fig. 2c).
    pub speedup: f64,
    /// Energy improvement of COPIFT over the baseline (Fig. 2c).
    pub energy: f64,
}

/// Source: L. Colagrande and L. Benini, "Dual-Issue Execution of Mixed
/// Integer and Floating-Point Workloads on Energy-Efficient In-Order
/// RISC-V Cores", DAC 2025 — Fig. 2a (steady-state IPC) and Fig. 2c
/// (speedup and energy improvement), as printed in the figure's labels.
pub const FIG2: [PaperRow; 6] = [
    PaperRow {
        kernel: "pi_xoshiro128p",
        ipc_base: 0.96,
        ipc_copift: 1.24,
        speedup: 1.15,
        energy: 1.12,
    },
    PaperRow {
        kernel: "poly_xoshiro128p",
        ipc_base: 0.96,
        ipc_copift: 1.36,
        speedup: 1.26,
        energy: 1.22,
    },
    PaperRow { kernel: "pi_lcg", ipc_base: 0.86, ipc_copift: 1.50, speedup: 1.32, energy: 1.17 },
    PaperRow { kernel: "poly_lcg", ipc_base: 0.89, ipc_copift: 1.75, speedup: 1.58, energy: 1.34 },
    PaperRow { kernel: "log", ipc_base: 0.92, ipc_copift: 1.48, speedup: 1.62, energy: 1.61 },
    PaperRow { kernel: "exp", ipc_base: 0.92, ipc_copift: 1.63, speedup: 2.05, energy: 1.93 },
];

/// The model's Figure 2 and its distance from the paper's.
#[derive(Debug)]
pub struct Fidelity {
    /// Measured rows, in [`FIG2`] order.
    pub rows: Vec<Fig2Row>,
    /// Mean absolute % error of the six speedups.
    pub speedup_err_pct: f64,
    /// Mean absolute % error of the six energy improvements.
    pub energy_err_pct: f64,
    /// Mean absolute % error of the twelve IPCs.
    pub ipc_err_pct: f64,
}

fn mean_abs_err_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let errs: Vec<f64> = pairs.map(|(ours, paper)| (ours - paper).abs() / paper).collect();
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// Derives the steady state of `(kernel, variant)` from its two validated
/// records at `n` and `2n`.
fn steady(records: &[RunRecord], kernel: Kernel, variant: Variant) -> Result<SteadyState, String> {
    let mut pair: Vec<&RunRecord> =
        records.iter().filter(|r| r.job.kernel == kernel && r.job.variant == variant).collect();
    pair.sort_by_key(|r| r.job.n);
    let [small, large] = pair[..] else {
        return Err(format!(
            "{}/{}: expected 2 records, found {}",
            kernel.name(),
            variant.name(),
            pair.len()
        ));
    };
    if large.job.n != 2 * small.job.n {
        return Err(format!("{}: sizes are not n and 2n", small.job.label()));
    }
    let stats_of = |r: &RunRecord| r.stats.clone().filter(|_| r.ok);
    let (Some(s), Some(l)) = (stats_of(small), stats_of(large)) else {
        return Err(format!("{}/{}: a steady-state run failed", kernel.name(), variant.name()));
    };
    Ok(steady_state(&s, small.job.n, &l, large.job.n))
}

/// Measures the model's Figure 2 from the records of the `paper-fig2`
/// jobs.
///
/// # Errors
///
/// Fails if a paper kernel lacks its four validated runs.
pub fn fidelity(records: &[RunRecord]) -> Result<Fidelity, String> {
    let mut rows = Vec::with_capacity(FIG2.len());
    for paper in &FIG2 {
        let kernel = Kernel::from_name(paper.kernel)
            .ok_or_else(|| format!("kernel `{}` does not resolve", paper.kernel))?;
        rows.push(Fig2Row {
            kernel,
            base: steady(records, kernel, Variant::Baseline)?,
            copift: steady(records, kernel, Variant::Copift)?,
        });
    }
    let both = || rows.iter().zip(&FIG2);
    Ok(Fidelity {
        speedup_err_pct: mean_abs_err_pct(both().map(|(r, p)| (r.speedup(), p.speedup))),
        energy_err_pct: mean_abs_err_pct(both().map(|(r, p)| (r.energy_improvement(), p.energy))),
        ipc_err_pct: mean_abs_err_pct(
            both().flat_map(|(r, p)| [(r.base.ipc, p.ipc_base), (r.copift.ipc, p.ipc_copift)]),
        ),
        rows,
    })
}
