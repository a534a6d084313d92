//! `perf-report` — profile the engine's own scaling and diagnose where the
//! multi-worker speedup goes.
//!
//! ```text
//! perf-report                         # profile smoke grid at 1/4/8 workers
//! perf-report --markdown              # emit the EXPERIMENTS.md section
//! perf-report --metrics METRICS.json --chrome host.trace.json
//! perf-report --overhead-guard       # enforce telemetry overhead < 2%
//! perf-report --validate METRICS.json # schema-check an existing file
//! ```
//!
//! Each worker count runs the same smoke batch through
//! [`Engine::run_with`] with telemetry enabled; the span log becomes a
//! phase-attribution [`Report`] (compile/warm/reset/simulate/collect/sink
//! plus the startup/gap/barrier idle split), and the per-count throughputs
//! become `scaling` metric lines. The diagnosis compares the base and worst
//! runs bucket by bucket and names the dominant cause of the lost speedup.

use std::process::ExitCode;
use std::time::Instant;

use snitch_engine::{job, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::{regions, RegionMap, StallCause};
use snitch_telemetry::{chrome, metrics, Phase, Report, Telemetry};

const USAGE: &str = "\
usage: perf-report [OPTIONS]

Profiles the engine on the smoke job grid across worker counts and
diagnoses host-side scaling: phase attribution, idle split, throughput
ratios, and the dominant cause of any lost speedup.

Options:
  --workers LIST    worker counts to profile (default: 1,4,8)
  --metrics PATH    write METRICS.json lines for every profiled count
  --chrome PATH     write a Chrome/Perfetto trace of the last profiled run
  --markdown        emit the diagnosis as a markdown section on stdout
  --overhead-guard  also verify telemetry overhead stays under 2%
  --validate PATH   validate an existing METRICS.json file and exit
";

/// One profiled batch: worker count, measured wall time, throughput in
/// simulated cycles per host second, and the span attribution.
struct Profile {
    workers: usize,
    wall_ns: u64,
    cycles: u64,
    /// Cycles summed over each job's clusters (`cycles` counts a
    /// multi-cluster job once, at its slowest cluster).
    cluster_cycles: u64,
    /// Cycles the simulator executed on its block-compiled burst path,
    /// summed over clusters.
    replayed: u64,
    report: Report,
}

impl Profile {
    fn cps(&self) -> f64 {
        self.cycles as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Fraction of the clusters' cycles served by the block-compiled burst.
    fn burst_frac(&self) -> f64 {
        if self.cluster_cycles == 0 {
            0.0
        } else {
            self.replayed as f64 / self.cluster_cycles as f64
        }
    }
}

struct Args {
    workers: Vec<usize>,
    metrics: Option<String>,
    chrome: Option<String>,
    markdown: bool,
    overhead_guard: bool,
    validate: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workers: vec![1, 4, 8],
        metrics: None,
        chrome: None,
        markdown: false,
        overhead_guard: false,
        validate: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workers" => {
                args.workers = value_of("--workers")?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|_| format!("--workers: bad value `{v}`")))
                    .collect::<Result<_, _>>()?;
                if args.workers.is_empty() || args.workers.contains(&0) {
                    return Err("--workers: counts must be positive".to_string());
                }
            }
            "--metrics" => args.metrics = Some(value_of("--metrics")?),
            "--chrome" => args.chrome = Some(value_of("--chrome")?),
            "--markdown" => args.markdown = true,
            "--overhead-guard" => args.overhead_guard = true,
            "--validate" => args.validate = Some(value_of("--validate")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs the batch once at `workers` with telemetry on, returning the
/// attribution profile. Each run uses a fresh engine, so the program-cache
/// compile cost is part of the profile — exactly what a cold sweep pays.
/// The profile records the engine's *actual* pool width, which may be
/// smaller than `workers`: the engine clamps to the host's parallelism.
fn profile(jobs: &[JobSpec], workers: usize) -> Profile {
    let engine = Engine::new(workers);
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let records = engine.run_with(jobs, &tel);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let cycles = records.iter().map(|r| r.cycles).sum();
    let cluster_cycles = records.iter().map(|r| r.cluster_cycles).sum();
    let replayed = records.iter().map(|r| r.block_replayed_cycles).sum();
    let workers = engine.workers();
    let report = Report::new(&tel.spans(), wall_ns);
    Profile { workers, wall_ns, cycles, cluster_cycles, replayed, report }
}

/// The "where did the speedup go" comparison of the base profile and the
/// worst-scaling profile: per-bucket worker-time ledger, largest first,
/// closing with the dominant cause.
fn diagnose(base: &Profile, worst: &Profile) -> Vec<String> {
    let ratio = worst.cps() / base.cps();
    let ms = |ns: u64| ns as f64 / 1e6;
    // Worker-time ledger of the worst run, against the base run's busy time
    // as the "useful work" yardstick (the job set is identical).
    let pool = worst.report.workers.len().max(1) as u64;
    let budget_ns = worst.wall_ns * pool;
    let sim_base = base.report.phase_total(Phase::Simulate);
    let sim_worst = worst.report.phase_total(Phase::Simulate);
    let buckets: Vec<(String, u64)> = vec![
        (
            format!(
                "simulation inflation (simulate span total grew {:.2}ms -> {:.2}ms for the \
                 same jobs: concurrent clusters contend for host memory bandwidth/caches)",
                ms(sim_base),
                ms(sim_worst)
            ),
            sim_worst.saturating_sub(sim_base),
        ),
        (
            "program assembly (compile + cache lookups)".to_string(),
            worst.report.phase_total(Phase::Compile) + worst.report.phase_total(Phase::CacheHit),
        ),
        ("cluster construction (warm)".to_string(), worst.report.phase_total(Phase::Warm)),
        ("cluster reset".to_string(), worst.report.phase_total(Phase::Reset)),
        (
            "worker startup skew (thread spawn to first span)".to_string(),
            worst.report.workers.iter().map(snitch_telemetry::WorkerSummary::startup_ns).sum(),
        ),
        (
            "inter-job gaps (queue/slot handoff)".to_string(),
            worst.report.workers.iter().map(snitch_telemetry::WorkerSummary::gap_ns).sum(),
        ),
        (
            "collection-barrier wait (ran out of jobs early)".to_string(),
            worst.report.workers.iter().map(snitch_telemetry::WorkerSummary::barrier_ns).sum(),
        ),
    ];
    let mut ranked: Vec<&(String, u64)> = buckets.iter().collect();
    ranked.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut lines = vec![format!(
        "workers {} -> {}: throughput {:.2}M -> {:.2}M cycles/s (ratio {ratio:.2}, ideal {}.00)",
        base.workers,
        worst.workers,
        base.cps() / 1e6,
        worst.cps() / 1e6,
        worst.workers
    )];
    if worst.workers > hw {
        lines.push(format!(
            "host parallelism: {hw} hardware thread(s) — a {}-worker pool oversubscribes the \
             host, so every bucket below is inflated by timesharing; no pool larger than {hw} \
             can win here",
            worst.workers
        ));
    }
    lines.push(format!(
        "worker-time budget at {} workers: {:.2}ms ({} x {:.2}ms wall); the same jobs took \
         {:.2}ms of simulate time at {} worker(s)",
        worst.workers,
        ms(budget_ns),
        pool,
        ms(worst.wall_ns),
        ms(sim_base),
        base.workers
    ));
    for (label, ns) in &ranked {
        if *ns > 0 {
            lines.push(format!(
                "  {:>6.1}% of budget  {:>9.2}ms  {label}",
                100.0 * *ns as f64 / budget_ns as f64,
                ms(*ns)
            ));
        }
    }
    if let Some((label, ns)) = ranked.first() {
        lines.push(format!(
            "dominant cause: {label} ({:.2}ms, {:.1}% of the worker-time budget)",
            ms(*ns),
            100.0 * *ns as f64 / budget_ns as f64
        ));
    }
    lines
}

/// Measures telemetry overhead: the smoke batch through one warmed engine,
/// disabled vs enabled handles interleaved, min-of-repeats, with re-measure
/// attempts (the `bench_sim` guard recipe). Returns `(off_ns, on_ns)` of the
/// passing attempt.
fn overhead_guard(jobs: &[JobSpec]) -> Result<(u64, u64), (u64, u64)> {
    const REPEATS: usize = 5;
    const ATTEMPTS: usize = 3;
    const TOLERANCE: f64 = 1.02;
    let engine = Engine::new(1);
    let _warm = engine.run(jobs); // compile programs, fault in allocations
    let time = |tel: &Telemetry| -> u64 {
        let t0 = Instant::now();
        let records = engine.run_with(jobs, tel);
        assert!(records.iter().all(|r| r.ok), "guard batch must validate");
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    let mut last = (0, 0);
    for _ in 0..ATTEMPTS {
        let mut off = u64::MAX;
        let mut on = u64::MAX;
        for _ in 0..REPEATS {
            off = off.min(time(&Telemetry::off()));
            let tel = Telemetry::new();
            on = on.min(time(&tel));
        }
        last = (off, on);
        if on as f64 <= off as f64 * TOLERANCE {
            return Ok(last);
        }
    }
    Err(last)
}

/// The guest-side counterpart of the host attribution: one representative
/// COPIFT job run with the cycle profiler, reduced to per-region markdown
/// rows (`| region | core | issue | stall | frep | dominant |`). Returns the
/// job label and the rows; a failed run returns an explanatory single row.
fn hot_region_rows() -> (String, Vec<String>) {
    let (kernel, variant) = (Kernel::PolyLcg, Variant::Copift);
    let (n, block) = kernel.operating_point();
    let profiled = JobSpec::new(kernel, variant, n, block).profiled();
    let label = profiled.label();
    let records = Engine::new(1).run(std::slice::from_ref(&profiled));
    let Some(profile) = records[0].profile.as_ref() else {
        let why = records[0].error.clone().unwrap_or_else(|| "no profile".to_string());
        return (label, vec![format!("| (profiling failed: {why}) | | | | | |")]);
    };
    let map = RegionMap::new(&kernel.build_for(variant, n, block, 1));
    let rows = regions(profile, &map)
        .iter()
        .map(|r| {
            let stalled: u64 = StallCause::all().iter().map(|&c| r.stall(c)).sum();
            let dom = r
                .dominant_stall()
                .map_or_else(|| "-".to_string(), |(c, cyc)| format!("{} ({cyc})", c.name()));
            format!(
                "| {} | {} | {} | {} | {} | {dom} |",
                r.name, r.core_cycles, r.issued, stalled, r.seq_cycles
            )
        })
        .collect();
    (label, rows)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("perf-report: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.validate {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perf-report: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match metrics::validate(&contents) {
            Ok(n) => {
                println!("perf-report: {path}: {n} valid metric lines");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf-report: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let jobs = job::smoke();
    let profiles: Vec<Profile> = args.workers.iter().map(|&w| profile(&jobs, w)).collect();
    let base = &profiles[0];
    let worst =
        profiles.iter().min_by(|a, b| a.cps().total_cmp(&b.cps())).expect("at least one profile");

    let mut metrics_out = String::new();
    for p in &profiles {
        metrics_out.push_str(&metrics::render(p.workers, &p.report));
        metrics_out.push_str(&metrics::render_scaling(
            "smoke",
            base.workers,
            base.cps(),
            p.workers,
            p.cps(),
        ));
        metrics_out.push_str(&metrics::render_burst(p.workers, p.cluster_cycles, p.replayed));
    }
    debug_assert!(metrics::validate(&metrics_out).is_ok());

    let diagnosis = diagnose(base, worst);
    if args.markdown {
        println!("### Host scaling diagnosis (perf-report, smoke grid)\n");
        println!(
            "| workers | wall ms | Mcycles/s | vs 1w | simulate ms | warm ms | idle % | burst % |"
        );
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
        for p in &profiles {
            println!(
                "| {} | {:.2} | {:.2} | {:.2}x | {:.2} | {:.2} | {:.1} | {:.1} |",
                p.workers,
                p.wall_ns as f64 / 1e6,
                p.cps() / 1e6,
                p.cps() / base.cps(),
                p.report.phase_total(Phase::Simulate) as f64 / 1e6,
                p.report.phase_total(Phase::Warm) as f64 / 1e6,
                100.0 * p.report.idle_frac(),
                100.0 * p.burst_frac(),
            );
        }
        println!();
        println!("```text");
        for line in &diagnosis {
            println!("{line}");
        }
        println!("```");
        let (label, rows) = hot_region_rows();
        println!();
        println!("### Where the simulated cycles go ({label})\n");
        println!("| region | core cycles | issue | stall | frep | dominant stall |");
        println!("|---|---:|---:|---:|---:|---|");
        for row in &rows {
            println!("{row}");
        }
    } else {
        for p in &profiles {
            println!("=== {} worker(s) ===", p.workers);
            print!("{}", p.report.render_text());
            println!(
                "throughput: {:.2}M simulated cycles/s ({:.2}x of {}-worker base), \
                 block-burst engagement {:.1}%\n",
                p.cps() / 1e6,
                p.cps() / base.cps(),
                base.workers,
                100.0 * p.burst_frac(),
            );
        }
        println!("--- scaling diagnosis ---");
        for line in &diagnosis {
            println!("{line}");
        }
        let (label, rows) = hot_region_rows();
        println!("--- hot regions ({label}) ---");
        println!("| region | core cycles | issue | stall | frep | dominant stall |");
        for row in &rows {
            println!("{row}");
        }
    }

    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, &metrics_out) {
            eprintln!("perf-report: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.chrome {
        // The last profiled count's span log (at the default 1,4,8 that is
        // the 8-worker run — the interesting one).
        let last = profiles.last().expect("at least one profile");
        let spans = last.report.spans();
        if let Err(e) = std::fs::write(path, chrome::render(spans)) {
            eprintln!("perf-report: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Static-verification overhead guard, always on. Each profiled batch
    // runs a fresh engine and so re-verifies cold, but a real sweep (many
    // seeds and configs per program, one engine) pays verification once per
    // distinct program and serves cached diagnostics after that. The guard
    // therefore charges ONE cold verification pass (the base profile's)
    // against the whole profiled run's wall time — the overhead a sweep
    // actually pays. A verify:compile ratio can never be small (verification
    // walks every instruction several times per hart while assembly is a
    // single emit pass), so that ratio is only reported alongside for
    // trend-watching, not gated on.
    let verify_ns: u64 = base.report.phase_total(Phase::Verify);
    let compile_ns = base.report.phase_total(Phase::Compile);
    let total_wall: u64 = profiles.iter().map(|p| p.wall_ns).sum();
    let verify_pct = 100.0 * verify_ns as f64 / total_wall as f64;
    let vs_compile = if compile_ns == 0 { 0.0 } else { verify_ns as f64 / compile_ns as f64 };
    eprintln!(
        "perf-report: verify overhead: {:.3}ms across {:.3}ms of profiled batches \
         ({verify_pct:.2}%, budget 5%; {vs_compile:.1}x the {:.3}ms assembly time)",
        verify_ns as f64 / 1e6,
        total_wall as f64 / 1e6,
        compile_ns as f64 / 1e6,
    );
    if verify_ns * 20 > total_wall {
        eprintln!("perf-report: verify overhead guard FAILED: {verify_pct:.2}% > 5% budget");
        return ExitCode::FAILURE;
    }

    if args.overhead_guard {
        match overhead_guard(&jobs) {
            Ok((off, on)) => eprintln!(
                "perf-report: overhead guard ok: disabled {:.2}ms, enabled {:.2}ms ({:+.2}%)",
                off as f64 / 1e6,
                on as f64 / 1e6,
                100.0 * (on as f64 / off as f64 - 1.0)
            ),
            Err((off, on)) => {
                eprintln!(
                    "perf-report: overhead guard FAILED: disabled {:.2}ms, enabled {:.2}ms \
                     ({:+.2}% > 2% budget)",
                    off as f64 / 1e6,
                    on as f64 / 1e6,
                    100.0 * (on as f64 / off as f64 - 1.0)
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_share_of_a_multi_cluster_job_stays_a_fraction() {
        let (n, block) = Kernel::GemmTiled.operating_point();
        let jobs = job::scaling_grid(&[Kernel::GemmTiled], &[1], &[4], n, block);
        assert!(jobs.iter().all(|j| j.label().ends_with("/x4")));
        let p = profile(&jobs, 1);
        // Four single-hart clusters each burst most of their own cycles, so
        // the summed burst exceeds the system cycles (the slowest cluster).
        assert!(p.replayed > p.cycles, "replayed {} vs system cycles {}", p.replayed, p.cycles);
        let share = p.burst_frac();
        assert!(share > 0.0 && share <= 1.0, "burst share {share}");
    }
}
