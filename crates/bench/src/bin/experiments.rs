//! `experiments` — regenerates `EXPERIMENTS.md`: every table and figure of
//! the paper next to the measured numbers, plus the extended suite, the
//! scaling grids, the overlap profile and the ablations.
//!
//! ```text
//! experiments                  # every section, written to EXPERIMENTS.md
//! experiments fig3 ablations   # just these sections, printed to stdout
//! ```
//!
//! Sections: `fig2 fig3 table1 extended scaling overlap ablations`, each
//! rendered by one function below. All measurements run through
//! `snitch-engine` batches, fanned across the host cores with one compiled
//! program per distinct spec.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;

use copift::estimate::{i_prime, s_double_prime, s_prime, thread_imbalance, MixCounts};
use snitch_bench::{
    extended_tables, fig3_grid, geomean, overlap_rows, overlap_strip, overlap_tables,
    scaling_grid_rows, scaling_grid_tables, scaling_rows, scaling_tables, stats_of, Fig2Row,
    FIG3_BLOCKS, FIG3_SIZES, SCALING_CLUSTERS, SCALING_CORES,
};
use snitch_engine::{job, Engine, JobSpec};
use snitch_kernels::registry::Variant;
use snitch_kernels::{Kernel, SteadyState};
use snitch_sim::config::ClusterConfig;

/// A section renderer: measures through the engine, appends markdown.
type Section = fn(&Engine, &mut String);

/// Every section, in document order.
const SECTIONS: [(&str, Section); 7] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("table1", table1),
    ("extended", extended),
    ("scaling", scaling),
    ("overlap", overlap),
    ("ablations", ablations),
];

/// The sections `args` names, in document order (every section when it
/// names none), or the first argument that is not a section.
fn select(args: &[String]) -> Result<Vec<(&'static str, Section)>, &str> {
    if let Some(bad) = args.iter().find(|a| !SECTIONS.iter().any(|(name, _)| name == a)) {
        return Err(bad);
    }
    Ok(SECTIONS
        .into_iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name))
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = match select(&args) {
        Ok(sections) => sections,
        Err(bad) => {
            let help = matches!(bad, "-h" | "--help");
            if !help {
                eprintln!("experiments: unknown section `{bad}`");
            }
            let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: experiments [SECTION...]\n\nSections: {}. With no section, every \
                 section is regenerated and written to EXPERIMENTS.md; otherwise the named \
                 sections are printed to stdout.",
                names.join(" ")
            );
            return if help { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    let all = args.is_empty();
    let engine = Engine::default();
    let mut out = String::new();
    if all {
        let _ = writeln!(
            out,
            "# EXPERIMENTS — paper vs measured\n\n\
             Reproduction of *Dual-Issue Execution of Mixed Integer and Floating-Point\n\
             Workloads on Energy-Efficient In-Order RISC-V Cores* (DAC 2025) on the\n\
             `snitch-sim` cycle-accurate model with the `snitch-energy` power model.\n\
             Regenerate with `cargo run --release -p snitch-bench --bin experiments`.\n\
             Absolute numbers depend on the simulator/energy calibration documented in\n\
             DESIGN.md §9; the claims under test are the *shapes*: who wins, by what\n\
             factor, and where the trends bend.\n"
        );
    }
    for (_, section) in sections {
        section(&engine, &mut out);
    }
    if !all {
        print!("{out}");
        return ExitCode::SUCCESS;
    }
    let _ = writeln!(
        out,
        "## Substitutions and deviations\n\n\
         * The RTL/QuestaSim platform is replaced by a cycle-accurate software\n\
           model and PrimeTime power by a calibrated event-energy model\n\
           (DESIGN.md §1, §9). Absolute mW track the paper's 37–46 mW window by\n\
           construction of two anchor points; per-kernel values are measured.\n\
         * The FREP sequencer ring holds 128 entries (Snitch's is smaller); the\n\
           paper's COPIFT branch also requires bodies of up to 80 instructions.\n\
           The FREP sequencer depth ablation quantifies the sensitivity.\n\
         * `logf` is TCDM-resident (no DMA streaming), so its baseline power is\n\
           slightly lower than the paper's 42.1 mW.\n\
         * Instruction counts differ by a few ops/element where the paper's\n\
           exact code is not published (e.g. our MC integer thread spills with\n\
           two `sw` per draw); Table I reports measured mixes side by side.\n"
    );
    if let Err(e) = std::fs::write("EXPERIMENTS.md", &out) {
        eprintln!("experiments: writing EXPERIMENTS.md: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("experiments: written to EXPERIMENTS.md");
    ExitCode::SUCCESS
}

/// `name value` pairs joined for a one-line per-kernel listing.
fn per_kernel(rows: &[Fig2Row], value: impl Fn(&Fig2Row) -> String) -> String {
    rows.iter()
        .map(|r| format!("`{}` {}", r.kernel.name(), value(r)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn fig2(engine: &Engine, out: &mut String) {
    let rows: Vec<Fig2Row> = Fig2Row::measure_all(engine);
    let paper_ipc =
        [(0.96, 1.24), (0.96, 1.36), (0.86, 1.50), (0.89, 1.75), (0.92, 1.48), (0.92, 1.63)];
    let paper_power =
        [(37.9, 39.0), (37.4, 38.4), (41.5, 43.6), (38.7, 40.1), (42.1, 45.1), (41.8, 46.2)];
    let paper_speedup = [1.15, 1.26, 1.32, 1.58, 1.62, 2.05];
    let paper_energy = [1.12, 1.22, 1.17, 1.34, 1.61, 1.93];

    let _ = writeln!(out, "## Figure 2a — steady-state IPC\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper_ipc) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            p.0,
            r.base.ipc,
            p.1,
            r.copift.ipc
        );
    }
    let gains: Vec<f64> = rows.iter().map(|r| r.copift.ipc / r.base.ipc).collect();
    let peak = rows.iter().map(|r| r.copift.ipc).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nGeomean IPC gain **{:.2}×** (paper 1.62×); peak IPC **{peak:.2}** (paper 1.75).\n",
        geomean(&gains)
    );
    let _ = writeln!(
        out,
        "IPC gain per kernel, with the IPC `I′` that Eq. 2 expects from the\n\
         measured dynamic mix in parentheses: {}.\n",
        per_kernel(&rows, |r| format!("{:.2}× ({:.2})", r.copift.ipc / r.base.ipc, r.i_prime()))
    );

    let _ = writeln!(out, "## Figure 2b — average power (mW)\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper_power) {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.kernel.name(),
            p.0,
            r.base.power_mw,
            p.1,
            r.copift.power_mw
        );
    }
    let ratios: Vec<f64> = rows.iter().map(Fig2Row::power_ratio).collect();
    let _ = writeln!(out, "\nGeomean power ratio **{:.3}×** (paper 1.07×).\n", geomean(&ratios));
    let _ = writeln!(
        out,
        "Power ratio (COPIFT / base) per kernel: {}.\n",
        per_kernel(&rows, |r| format!("{:.2}×", r.power_ratio()))
    );

    let _ = writeln!(out, "## Figure 2c — speedup and energy improvement\n");
    let _ = writeln!(
        out,
        "| kernel | speedup (paper) | speedup (ours) | energy imp. (paper) | energy imp. (ours) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for ((r, ps), pe) in rows.iter().zip(paper_speedup).zip(paper_energy) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            ps,
            r.speedup(),
            pe,
            r.energy_improvement()
        );
    }
    let sp: Vec<f64> = rows.iter().map(Fig2Row::speedup).collect();
    let ei: Vec<f64> = rows.iter().map(Fig2Row::energy_improvement).collect();
    let _ = writeln!(
        out,
        "\nGeomean speedup **{:.2}×** (paper 1.47×); geomean energy improvement \
         **{:.2}×** (paper 1.37×); peak speedup **{:.2}×** (paper 2.05× on `exp`).\n",
        geomean(&sp),
        geomean(&ei),
        sp.iter().fold(0.0f64, |a, &b| a.max(b))
    );
    let _ = writeln!(
        out,
        "Speedup `S′` that Eq. 1 expects from the measured dynamic mixes: {}.\n",
        per_kernel(&rows, |r| format!("{:.2}", r.s_prime()))
    );
}

fn fig3(engine: &Engine, out: &mut String) {
    let _ = writeln!(out, "## Figure 3 — poly_lcg COPIFT IPC over (problem size × block size)\n");
    let mut header = String::from("| n \\ B |");
    for b in FIG3_BLOCKS {
        let _ = write!(header, " {b} |");
    }
    let _ = writeln!(out, "{header} peak |");
    let _ = writeln!(out, "|{}", "---|".repeat(FIG3_BLOCKS.len() + 2));
    let grid = fig3_grid(engine);
    for (i, &n) in FIG3_SIZES.iter().enumerate() {
        let mut line = format!("| {n} |");
        let mut best = (0usize, 0.0f64);
        for (j, _) in FIG3_BLOCKS.iter().enumerate() {
            let v = grid[i][j];
            if v > best.1 {
                best = (j, v);
            }
            let _ = write!(line, " {v:.3} |");
        }
        let _ = writeln!(out, "{line} B={} |", FIG3_BLOCKS[best.0]);
    }
    // The paper's ">99.5%" annotation: per block size, the smallest problem
    // size within 0.5% of that block size's best IPC.
    let reached: Vec<String> = FIG3_BLOCKS
        .iter()
        .enumerate()
        .map(|(j, b)| {
            let max = grid.iter().map(|row| row[j]).fold(0.0, f64::max);
            let at = FIG3_SIZES.iter().zip(&grid).find(|(_, row)| row[j] >= 0.995 * max);
            at.map_or_else(
                || format!("B={b} never"),
                |(n, _)| format!("B={b} at n = {n} (max {max:.3})"),
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "\nSmallest problem size reaching 99.5% of each block size's maximum IPC\n\
         (the paper's \">99.5%\" annotation): {}.\n",
        reached.join(", ")
    );
    let _ = writeln!(
        out,
        "Trends to compare with the paper: IPC increases with problem size as\n\
         prologue/epilogue overheads amortize; small blocks converge at smaller n;\n\
         the per-size peak block grows with n; large-n IPC approaches the\n\
         steady-state Figure 2a value.\n"
    );
}

/// A measured steady-state mix scaled to the paper's per-unit granularity:
/// 8 points for the Monte Carlo kernels, 4 elements for the others.
fn mix_per_unit(kernel: Kernel, ss: &SteadyState) -> MixCounts {
    let unit = if kernel.is_mc() { 8.0 } else { 4.0 };
    let scale = unit / (ss.delta.cycles as f64 / ss.cycles_per_elem);
    MixCounts {
        n_int: (ss.delta.int_issued as f64 * scale).round() as u64,
        n_fp: (ss.delta.fp_instructions() as f64 * scale).round() as u64,
    }
}

fn table1(engine: &Engine, out: &mut String) {
    // The paper's rows: base mix, COPIFT mix, and its I′, S″, S′.
    type PaperRow = (&'static str, (u64, u64), (u64, u64), [f64; 3]);
    let paper: [PaperRow; 6] = [
        ("exp", (43, 52), (43, 36), [1.84, 1.83, 2.21]),
        ("log", (39, 52), (57, 36), [1.63, 1.75, 1.60]),
        ("poly_lcg", (44, 80), (72, 80), [1.90, 1.55, 1.55]),
        ("pi_lcg", (44, 56), (72, 56), [1.78, 1.79, 1.39]),
        ("poly_xoshiro128p", (172, 80), (200, 80), [1.40, 1.47, 1.26]),
        ("pi_xoshiro128p", (172, 56), (200, 56), [1.28, 1.33, 1.14]),
    ];
    let _ = writeln!(out, "## Table I — kernel characteristics\n");
    let _ = writeln!(
        out,
        "Measured steady-state instruction mixes (integer / FP instructions per\n\
         paper unit: 4 elements for the vector kernels, 8 points for Monte\n\
         Carlo), the thread imbalance TI, and the estimators of Eqs. 1–3\n\
         evaluated on them, next to the paper's values.\n"
    );
    let _ = writeln!(
        out,
        "| kernel | base int / FP | TI | COPIFT int / FP | I′ | S″ | S′ | paper base | \
         paper COPIFT | paper I′ / S″ / S′ |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for row in Fig2Row::measure_all(engine).iter().rev() {
        let base = mix_per_unit(row.kernel, &row.base);
        let cop = mix_per_unit(row.kernel, &row.copift);
        let (_, pb, pc, [pi, psd, ps]) =
            paper.iter().find(|p| p.0 == row.kernel.name()).expect("paper kernel");
        let _ = writeln!(
            out,
            "| {} | {} / {} | {:.2} | {} / {} | {:.2} | {:.2} | {:.2} | {} / {} | {} / {} | \
             {pi:.2} / {psd:.2} / {ps:.2} |",
            row.kernel.name(),
            base.n_int,
            base.n_fp,
            thread_imbalance(base),
            cop.n_int,
            cop.n_fp,
            i_prime(cop),
            s_double_prime(base),
            s_prime(base, cop),
            pb.0,
            pb.1,
            pc.0,
            pc.1,
        );
    }
    let analysis = copift::analyze(&expf_fig1b_body()).expect("expf body analyzes");
    let _ = writeln!(
        out,
        "\nBuffer plan of the paper's Fig. 1b `expf` body (Steps 2, 4–5):\n\n```text\n\
         phases: {} | cut edges: {} | buffers: {} | bytes/element: {}",
        analysis.partition.len(),
        analysis.partition.cut_edges.len(),
        analysis.tiling.buffers.len(),
        analysis.tiling.bytes_per_element()
    );
    for buf in &analysis.tiling.buffers {
        let _ = writeln!(
            out,
            "buffer {:?}: {} B/elem, phase {} -> {}, x{} replicas",
            buf.kind, buf.elem_bytes, buf.producer, buf.consumer, buf.replicas
        );
    }
    let max_block = analysis.tiling.max_block(128 * 1024, 16 * 1024);
    let _ = writeln!(out, "max block fitting L1 (16 KiB reserved): {max_block} elements\n```\n");
}

/// The paper's Fig. 1b loop body (one element, pointer bumps omitted).
fn expf_fig1b_body() -> Vec<snitch_riscv::inst::Inst> {
    use snitch_asm::builder::ProgramBuilder;
    use snitch_riscv::reg::{FpReg, IntReg};
    let mut b = ProgramBuilder::new();
    let (xp, yp, ki, t, tbl) = (IntReg::A3, IntReg::A4, IntReg::S2, IntReg::S3, IntReg::S4);
    b.fld(FpReg::FA3, xp, 0);
    b.fmul_d(FpReg::FA3, FpReg::FA3, FpReg::FS4);
    b.fadd_d(FpReg::FA1, FpReg::FA3, FpReg::FS5);
    b.fsd(FpReg::FA1, ki, 0);
    b.lw(IntReg::A0, ki, 0);
    b.andi(IntReg::A1, IntReg::A0, 0x1f);
    b.slli(IntReg::A1, IntReg::A1, 3);
    b.add(IntReg::A1, tbl, IntReg::A1);
    b.lw(IntReg::A2, IntReg::A1, 0);
    b.lw(IntReg::A1, IntReg::A1, 4);
    b.slli(IntReg::A0, IntReg::A0, 0xf);
    b.sw(IntReg::A2, t, 0);
    b.add(IntReg::A0, IntReg::A0, IntReg::A1);
    b.sw(IntReg::A0, t, 4);
    b.fsub_d(FpReg::FA2, FpReg::FA1, FpReg::FS5);
    b.fsub_d(FpReg::FA3, FpReg::FA3, FpReg::FA2);
    b.fmadd_d(FpReg::FA2, FpReg::FS6, FpReg::FA3, FpReg::FS7);
    b.fld(FpReg::FA0, t, 0);
    b.fmadd_d(FpReg::FA4, FpReg::FS8, FpReg::FA3, FpReg::FS9);
    b.fmul_d(FpReg::FA1, FpReg::FA3, FpReg::FA3);
    b.fmadd_d(FpReg::FA4, FpReg::FA2, FpReg::FA1, FpReg::FA4);
    b.fmul_d(FpReg::FA4, FpReg::FA4, FpReg::FA0);
    b.fsd(FpReg::FA4, yp, 0);
    b.build().unwrap().text().to_vec()
}

fn extended(engine: &Engine, out: &mut String) {
    let _ = writeln!(out, "## Extended suite — beyond the paper\n");
    let _ = writeln!(
        out,
        "Steady-state measurements for the auto-compiled catalog kernels\n\
         (`copift::codegen` applied to plain loop bodies; no paper reference\n\
         exists). Regenerate alone with\n\
         `cargo run --release -p snitch-bench --bin experiments -- extended`, or sweep with\n\
         `cargo run --release -p snitch-engine --bin sweep -- extended`.\n"
    );
    let ext_rows = Fig2Row::measure_suite(engine, &Kernel::extended());
    out.push_str(&extended_tables(&ext_rows));
    let ext_sp: Vec<f64> = ext_rows.iter().map(Fig2Row::speedup).collect();
    let ext_ei: Vec<f64> = ext_rows.iter().map(Fig2Row::energy_improvement).collect();
    let _ = writeln!(
        out,
        "\nGeomean extended speedup **{:.2}×**, energy improvement **{:.2}×**.\n\
         `softmax` is FP-only: its COPIFT gain comes from SSR/FREP issue\n\
         elision alone, bounding the speedup well below the mixed kernels'\n\
         — and with no integer thread to dual-issue, its COPIFT power does\n\
         not rise above the baseline's. Its two-way partial-sum reduction\n\
         keeps the cross-iteration FP dependency it exists to stress on the\n\
         critical path in both variants.\n",
        geomean(&ext_sp),
        geomean(&ext_ei),
    );
}

fn scaling(engine: &Engine, out: &mut String) {
    let (sn, sblock) = Kernel::PiLcgPar.operating_point();
    let _ = writeln!(out, "## Cluster scaling — data-parallel kernels over compute cores\n");
    let _ = writeln!(
        out,
        "Full-run cycles of the data-parallel Monte Carlo kernels (trials split\n\
         across harts with mid-stream seed tables, hardware barrier, TCDM tree\n\
         reduction) at n = {sn}, block = {sblock}, over {SCALING_CORES:?} compute\n\
         cores sharing the banked TCDM. Every cell validates **bit-exactly**\n\
         against the single-core golden model (DESIGN.md §11). Regenerate alone\n\
         with `cargo run --release -p snitch-bench --bin experiments -- scaling`, or sweep with\n\
         `cargo run --release -p snitch-engine --bin sweep -- scaling`.\n"
    );
    let srows = scaling_rows(engine);
    out.push_str(&scaling_tables(&srows));
    let last = SCALING_CORES.len() - 1;
    let top = SCALING_CORES[last];
    let s8: Vec<f64> = srows.iter().map(|r| r.speedup(last)).collect();
    let _ = writeln!(
        out,
        "\nGeomean {top}-core speedup **{:.2}×** (ideal {top}×). The gap to ideal is the\n\
         fixed prologue/epilogue (seed loads, barrier, reduction) plus TCDM bank\n\
         conflicts, which are zero on one core and grow with the hart count while\n\
         staying a small fraction of all accesses at 32 banks.\n",
        geomean(&s8),
    );

    let (gn, gblock) = Kernel::GemmTiled.operating_point();
    let _ = writeln!(out, "## Cores × clusters scaling — tiled GEMM over the system grid\n");
    let _ = writeln!(
        out,
        "Full-run cycles of the tiled f64 GEMM (operands staged from the shared\n\
         L2 into each cluster's TCDM over the inter-cluster DMA, block-cyclic\n\
         row ownership, per-cluster writeback of disjoint output rows) at\n\
         n = {gn}, block = {gblock}, over {SCALING_CORES:?} compute cores ×\n\
         {SCALING_CLUSTERS:?} clusters. Every cell validates **bit-exactly**\n\
         against the single-cluster golden model (DESIGN.md §18); the DMA hop\n\
         cycles column counts the modeled L2/interconnect setup latency the\n\
         tiles paid in transit. Regenerate alone with\n\
         `cargo run --release -p snitch-bench --bin experiments -- scaling`, or sweep with\n\
         `cargo run --release -p snitch-engine --bin sweep -- scaling-grid`.\n"
    );
    out.push_str(&scaling_grid_tables(&scaling_grid_rows(engine)));
    let _ = writeln!(
        out,
        "\nWithin a fixed cluster count, cores scale the compute loop; adding\n\
         clusters shrinks each cluster's row slice but repays a fixed staging\n\
         cost (the shared B tile is replicated into every TCDM), so cluster\n\
         scaling pays off once the per-cluster compute dominates the DMA hops\n\
         — the COPIFT rows, whose compute is already compressed by the\n\
         SSR/FREP stream path, feel the staging floor first.\n"
    );
}

fn overlap(engine: &Engine, out: &mut String) {
    let _ = writeln!(out, "## Overlap profile — per-cycle dual-issue occupancy\n");
    let _ = writeln!(
        out,
        "The headline mechanism, observed directly: `snitch-trace` records every\n\
         issue slot per cycle and decomposes the run into *overlap* (integer core\n\
         and FREP sequencer issuing in the same cycle — the pseudo-dual-issue the\n\
         IPC > 1 numbers come from), *core-only*, *frep-only* and *idle* cycles.\n\
         Baselines never touch the sequencer, so their lanes are serialized by\n\
         construction; every COPIFT variant shows substantial concurrent lane\n\
         occupancy. \"Steady IPC\" is the automatic steady-state window (the longest\n\
         near-peak-throughput plateau, trimming prologue, per-block fences and\n\
         epilogue). Six paper kernels at their smoke points, hart 0; regenerate\n\
         with `cargo run --release -p snitch-bench --bin experiments -- overlap`.\n"
    );
    let orows = overlap_rows(engine);
    out.push_str(&overlap_tables(&orows));
    let _ = writeln!(
        out,
        "\nThe LCG kernels dual-issue hardest in their steady state (sequencer lane\n\
         saturated, steady IPC ≈ 1.9) because COPIFT moves the whole FP stream off\n\
         the integer thread, whose remaining stalls are the mul write-back-port\n\
         hazard; full-run IPC is diluted by the per-block fences visible as the\n\
         `fence` bars in the stall attribution. `pi_lcg/copift`'s steady state,\n\
         as an ASCII strip of the Perfetto timeline:\n"
    );
    if let Some(row) =
        orows.iter().find(|r| r.kernel == Kernel::PiLcg && r.variant == Variant::Copift)
    {
        out.push_str(&overlap_strip(row, 64));
    }
    let _ = writeln!(
        out,
        "\nTrace-derived stall attribution and IPC are asserted **equal to the\n\
         `Stats` counters, counter for counter**, for every paper kernel\n\
         (`crates/engine/tests/trace.rs`), so the timeline and the aggregate\n\
         tables can never tell different stories.\n"
    );
}

/// One ablation: a name, the job it replicates, the swept values, and the
/// configuration each value stands for.
type Ablation = (&'static str, JobSpec, &'static [usize], fn(usize) -> ClusterConfig);

fn ablations(engine: &Engine, out: &mut String) {
    let poly = JobSpec::new(Kernel::PolyLcg, Variant::Copift, 512, 128);
    let sweeps: [Ablation; 4] = [
        (
            "integer write-back ports",
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 512, 0),
            &[1, 2],
            |v| ClusterConfig { int_wb_ports: v as u32, ..ClusterConfig::default() },
        ),
        (
            "L0 capacity",
            JobSpec::new(Kernel::Expf, Variant::Baseline, 256, 32),
            &[32, 64, 128],
            |v| ClusterConfig { l0_capacity: v, ..ClusterConfig::default() },
        ),
        ("offload FIFO depth", poly.clone(), &[2, 8, 16], |v| ClusterConfig {
            offload_fifo_depth: v,
            ..ClusterConfig::default()
        }),
        ("FREP sequencer depth", poly, &[80, 128], |v| ClusterConfig {
            sequencer_depth: v,
            ..ClusterConfig::default()
        }),
    ];
    let _ = writeln!(out, "## Ablations — one design choice at a time\n");
    let _ = writeln!(
        out,
        "Each ablation replicates one job across cluster configurations through\n\
         the engine, so every configuration runs the same compiled program. The\n\
         write-back port rows isolate the paper's LCG structural-hazard\n\
         explanation, the L0 rows the `exp`/`log` I$ energy story, and the FIFO\n\
         and sequencer rows bound integer-thread run-ahead and the FREP ring\n\
         size (DESIGN.md §1). Asserted on every run: a second write-back port\n\
         removes LCG stalls, and a deeper FIFO never slows the kernel.\n"
    );
    let _ = writeln!(out, "| ablation | job | value | cycles | L0 hits | L0 misses |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let mut cycles: Vec<Vec<u64>> = Vec::new();
    let mut programs = HashSet::new();
    for (name, base, values, config) in &sweeps {
        let configs: Vec<ClusterConfig> = values.iter().map(|&v| config(v)).collect();
        let records = engine.run(&job::config_sweep(base, &configs));
        programs.extend(records.iter().map(|r| r.job.program_key()));
        for (v, r) in values.iter().zip(&records) {
            let s = stats_of(r);
            let label = base.label();
            let _ = writeln!(
                out,
                "| {name} | {label} | {v} | {} | {} | {} |",
                s.cycles, s.l0_hits, s.l0_misses
            );
        }
        cycles.push(records.iter().map(|r| stats_of(r).cycles).collect());
    }
    assert!(cycles[0][1] < cycles[0][0], "a second write-back port must remove LCG stalls");
    assert!(cycles[2][0] >= cycles[2][1], "a deeper FIFO must never slow the kernel");
    let _ = writeln!(
        out,
        "\n{} simulations over {} compiled programs.\n",
        cycles.iter().map(Vec::len).sum::<usize>(),
        programs.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        select(&args).map(|s| s.iter().map(|(name, _)| *name).collect()).map_err(String::from)
    }

    #[test]
    fn sections_are_selected_in_document_order_and_unknown_ones_rejected() {
        assert_eq!(names(&[]).unwrap().len(), SECTIONS.len());
        assert_eq!(names(&["ablations", "fig2", "fig2"]).unwrap(), ["fig2", "ablations"]);
        assert_eq!(names(&["fig2", "fig4"]).unwrap_err(), "fig4");
        assert_eq!(names(&["smoke"]).unwrap_err(), "smoke");
    }
}
