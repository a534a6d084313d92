//! `sweep perf` — measure the engine on the smoke batch, diagnose where the
//! multi-worker speedup goes, and guard the simulator's host-side costs.
//!
//! ```text
//! sweep perf                          # measure the smoke grid at 1/4/8 workers
//! sweep perf --markdown               # emit the EXPERIMENTS.md-style section
//! sweep perf --metrics METRICS.json --chrome host.trace.json
//! sweep perf --overhead-guard         # every guard; rewrite BENCH_sim.json
//! sweep perf --validate METRICS.json  # schema-check an existing file
//! ```
//!
//! One measurement feeds everything: each worker count gets a fresh engine
//! whose first (cold) pass runs with telemetry on — its span log becomes a
//! phase-attribution [`Report`] (compile/warm/reset/simulate/collect/sink
//! plus the startup/gap/barrier idle split) for the diagnosis and
//! METRICS.json — followed by warm passes, interleaved across the counts,
//! whose minimum wall time gives the `BENCH_sim.json` throughput lines.
//!
//! Guards, each a [`guard`] over interleaved minima with re-measure
//! attempts:
//!
//! * **verify budget** (always on): one cold static-verification pass costs
//!   at most 5% of the measured batches' wall time.
//! * **throughput** (`--overhead-guard`): the single-worker simulated
//!   cycles/s stays within 20% of the committed `BENCH_sim.json` workers-1
//!   line (read from the current directory before it is rewritten).
//! * **telemetry, tracing, profiling overhead** (`--overhead-guard`): the
//!   batch with an enabled telemetry handle, and a bare cluster loop with a
//!   paused tracer or profiler attached, stay within 2% of the bare path —
//!   the hooks must be no-op branches, and the paused ones must not move a
//!   single simulated cycle.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use snitch_asm::program::Program;
use snitch_engine::{job, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::{Profiler, RegionMap};
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_telemetry::{chrome, metrics, Phase, Report, Telemetry};
use snitch_trace::Tracer;

use super::{emit, observe::region_rows, unchecked, Args};

/// Warm passes per worker count (the throughput lines keep the minimum).
const WARM_ROUNDS: usize = 3;
/// Measurement rounds a guard may take before it fails: wall-clock noise on
/// a shared host can exceed a budget in either direction, while a real
/// regression is systematic and fails every round.
const GUARD_ATTEMPTS: usize = 3;
/// Interleaved timings per path in one round of an overhead guard.
const GUARD_REPEATS: usize = 5;
/// Allowed slowdown of an attached-but-idle observer.
const OVERHEAD_BUDGET: f64 = 1.02;
/// Allowed single-worker slowdown against the committed baseline (20%).
const THROUGHPUT_BUDGET: f64 = 1.0 / 0.80;
/// Passes over the programs per timing of the hook guards' bare cluster
/// loop, so one timing spans a few hundred milliseconds: a 2% ratio of a
/// too-short window would gate on scheduler noise, not on the hook's cost.
const HOOK_PASSES: usize = 8;

/// One worker count's measurement of the smoke batch.
struct Sample {
    /// The pool width asked for on the command line.
    requested: usize,
    /// The engine's actual pool width (clamped to the host's parallelism).
    workers: usize,
    /// The engine, warm after the cold pass (its cache holds every program).
    engine: Engine,
    /// Wall time of the cold, telemetry-on pass.
    wall_ns: u64,
    /// Minimum wall time of the warm, telemetry-off passes.
    warm_s: f64,
    jobs: usize,
    instructions: u64,
    cycles: u64,
    /// Cycles summed over each job's clusters (`cycles` counts a
    /// multi-cluster job once, at its slowest cluster).
    cluster_cycles: u64,
    /// Cycles the simulator executed on its block-compiled burst path,
    /// summed over clusters.
    replayed: u64,
    report: Report,
}

impl Sample {
    /// The row label: `4→2` when the engine clamped a requested pool.
    fn label(&self) -> String {
        if self.requested == self.workers {
            self.workers.to_string()
        } else {
            format!("{}→{}", self.requested, self.workers)
        }
    }

    /// Cold-pass throughput in simulated cycles per host second.
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

    /// The `BENCH_sim.json` line of the warm passes. Lines after the first
    /// carry their throughput relative to the first (`scaling_vs_workers1`);
    /// the workers-1 line keeps the exact historical shape, since
    /// [`committed_rate`] of future checkouts parses it.
    fn bench_line(&self, base: Option<&Sample>) -> String {
        let mut line = format!(
            "{{\"benchmark\":\"sim\",\"workload\":\"smoke\",\"jobs\":{},\"workers\":{},\
             \"simulated_instructions\":{},\"simulated_cycles\":{},\
             \"wall_seconds\":{:.6},\"instructions_per_second\":{:.0},\
             \"cycles_per_second\":{:.0}}}",
            self.jobs,
            self.requested,
            self.instructions,
            self.cycles,
            self.warm_s,
            self.instructions as f64 / self.warm_s,
            self.cycles as f64 / self.warm_s,
        );
        if let Some(base) = base {
            line.pop();
            let _ = write!(line, ",\"scaling_vs_workers1\":{:.3}}}", base.warm_s / self.warm_s);
        }
        line
    }
}

/// One engine pass over `jobs`; returns its wall seconds.
fn timed(engine: &Engine, jobs: &[JobSpec], tel: &Telemetry) -> f64 {
    let t0 = Instant::now();
    let records = engine.run_with(jobs, tel);
    let wall = t0.elapsed().as_secs_f64();
    assert!(records.iter().all(|r| r.ok), "the smoke batch must validate before its timing counts");
    wall
}

/// Measures `jobs` at every worker count: a cold, telemetry-on pass per
/// count (fresh engine, so the program-cache compile cost is part of the
/// attribution — exactly what a cold sweep pays), then [`WARM_ROUNDS`]
/// warm passes interleaved across the counts, so host clock drift hits
/// every count alike.
fn measure(jobs: &[JobSpec], counts: &[usize]) -> Vec<Sample> {
    let mut samples: Vec<Sample> = counts
        .iter()
        .map(|&requested| {
            let engine = Engine::new(requested);
            let tel = Telemetry::new();
            let t0 = Instant::now();
            let records = engine.run_with(jobs, &tel);
            let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            Sample {
                requested,
                workers: engine.workers(),
                engine,
                wall_ns,
                warm_s: f64::INFINITY,
                jobs: records.len(),
                instructions: records.iter().map(|r| r.instructions).sum(),
                cycles: records.iter().map(|r| r.cycles).sum(),
                cluster_cycles: records.iter().map(|r| r.cluster_cycles).sum(),
                replayed: records.iter().map(|r| r.block_replayed_cycles).sum(),
                report: Report::new(&tel.spans(), wall_ns),
            }
        })
        .collect();
    assert!(
        samples.windows(2).all(|w| w[0].cycles == w[1].cycles),
        "simulated cycles must be identical across worker counts"
    );
    for _ in 0..WARM_ROUNDS {
        for s in &mut samples {
            s.warm_s = s.warm_s.min(timed(&s.engine, jobs, &Telemetry::off()));
        }
    }
    samples
}

/// The "where did the speedup go" comparison of the base sample and the
/// worst-scaling sample: per-bucket worker-time ledger, largest first,
/// closing with the dominant cause. Worker counts read `requested→effective`
/// where the engine clamped the pool.
fn diagnose(base: &Sample, worst: &Sample) -> Vec<String> {
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
    let mut lines = vec![format!(
        "workers {} -> {}: throughput {:.2}M -> {:.2}M cycles/s (ratio {ratio:.2}, ideal {}.00)",
        base.label(),
        worst.label(),
        base.cps() / 1e6,
        worst.cps() / 1e6,
        worst.workers
    )];
    if worst.requested > worst.workers {
        lines.push(format!(
            "host parallelism: {} hardware thread(s) — the engine clamped the requested \
             {}-worker pool to {}; no larger pool can run here",
            worst.workers, worst.requested, worst.workers
        ));
    }
    lines.push(format!(
        "worker-time budget at {} workers: {:.2}ms ({} x {:.2}ms wall); the same jobs took \
         {:.2}ms of simulate time at {} worker(s)",
        worst.label(),
        ms(budget_ns),
        pool,
        ms(worst.wall_ns),
        ms(sim_base),
        base.label()
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
    let rows =
        region_rows(profile, &map).iter().map(|r| format!("| {} |", r.join(" | "))).collect();
    (label, rows)
}

/// One guard: up to [`GUARD_ATTEMPTS`] rounds, each taking the minimum of
/// `repeats` timings of the reference (`time(false)`) and the candidate
/// (`time(true)`) path, interleaved with alternating order so drift hits
/// both alike. Passes on the first round whose candidate/reference ratio
/// stays within `budget`.
fn guard(what: &str, budget: f64, repeats: usize, mut time: impl FnMut(bool) -> f64) -> bool {
    let mut ratio = f64::NAN;
    for attempt in 1..=GUARD_ATTEMPTS {
        let (mut reference, mut candidate) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..repeats {
            for is_candidate in [rep % 2 == 1, rep % 2 == 0] {
                let t = time(is_candidate);
                if is_candidate {
                    candidate = candidate.min(t);
                } else {
                    reference = reference.min(t);
                }
            }
        }
        ratio = candidate / reference;
        let verdict = if ratio <= budget { "ok" } else { "over budget" };
        eprintln!(
            "sweep perf: {what} guard {verdict}: {candidate:.4}s vs {reference:.4}s ({:+.2}%, \
             budget {:+.0}%, min of {repeats}, attempt {attempt}/{GUARD_ATTEMPTS})",
            (ratio - 1.0) * 100.0,
            (budget - 1.0) * 100.0,
        );
        if ratio <= budget {
            return true;
        }
    }
    eprintln!("sweep perf: {what} guard FAILED: {:+.2}% on every attempt", (ratio - 1.0) * 100.0);
    false
}

/// The observation hook a hook-guard pass attaches (always paused — the
/// worst case for the hook's branches: present, checked, never recording).
#[derive(Clone, Copy, PartialEq)]
enum Hook {
    None,
    Tracer,
    Profiler,
}

/// [`HOOK_PASSES`] passes over the pre-built programs through one bare
/// cluster (no engine, no validation, so the timing isolates the hot path
/// the hooks sit on): reset, attach the paused hook, load, run. Returns
/// (wall seconds, total simulated cycles).
fn hook_pass(programs: &[Program], hook: Hook) -> (f64, u64) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let mut cycles = 0u64;
    let t0 = Instant::now();
    for _ in 0..HOOK_PASSES {
        for program in programs {
            cluster.reset();
            match hook {
                Hook::None => {}
                Hook::Tracer => cluster.attach_tracer(Tracer::paused()),
                Hook::Profiler => cluster.attach_profiler(Profiler::paused()),
            }
            cluster.load_program(program);
            let stats = cluster.run().expect("smoke program completes");
            cycles += std::hint::black_box(stats.cycles);
        }
    }
    (t0.elapsed().as_secs_f64(), cycles)
}

/// The workers-1 `cycles_per_second` of a committed `BENCH_sim.json`
/// (JSON-lines; older single-line files work too). `None` when the file is
/// absent or unparseable — a fresh checkout must not fail its first run.
fn committed_rate(contents: &str) -> Option<f64> {
    contents
        .lines()
        .find(|l| l.contains("\"workers\":1,") || l.contains("\"workers\":1}"))
        .and_then(|l| {
            let tail = l.split("\"cycles_per_second\":").nth(1)?;
            let digits: String =
                tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
            digits.parse().ok()
        })
}

/// `--overhead-guard`: every guard, then `BENCH_sim.json` rewritten with
/// the measured lines if the throughput guard held. Returns whether all held.
fn run_guards(jobs: &[JobSpec], samples: &[Sample]) -> Result<bool, String> {
    let base = &samples[0];
    let committed =
        std::fs::read_to_string("BENCH_sim.json").ok().as_deref().and_then(committed_rate);
    let throughput_ok = if let Some(rate) = committed {
        // The committed rate as the time it implies for this batch.
        let implied = base.cycles as f64 / rate;
        guard("throughput (single worker vs BENCH_sim.json)", THROUGHPUT_BUDGET, 1, |measured| {
            if measured {
                timed(&base.engine, jobs, &Telemetry::off())
            } else {
                implied
            }
        })
    } else {
        eprintln!("sweep perf: no committed BENCH_sim.json baseline; throughput guard skipped");
        true
    };
    if throughput_ok {
        let lines: Vec<String> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| s.bench_line((i > 0).then_some(base)))
            .collect();
        let json = lines.join("\n") + "\n";
        emit("BENCH_sim.json", &json, unchecked)?;
        print!("{json}");
    }
    let mut ok = throughput_ok;
    ok &= guard("telemetry overhead", OVERHEAD_BUDGET, GUARD_REPEATS, |on| {
        let tel = if on { Telemetry::new() } else { Telemetry::off() };
        timed(&base.engine, jobs, &tel)
    });
    let programs: Vec<Program> = jobs
        .iter()
        .map(|j| j.kernel.build_for(j.variant, j.n, j.block, j.config.cores()))
        .collect();
    for (hook, what) in [(Hook::Tracer, "tracing"), (Hook::Profiler, "profiling")] {
        // Simulation equality is exact and checked once, outside the timing.
        if hook_pass(&programs, Hook::None).1 != hook_pass(&programs, hook).1 {
            eprintln!("sweep perf: a paused {what} hook moved the simulated cycle count");
            ok = false;
            continue;
        }
        ok &= guard(&format!("{what} overhead"), OVERHEAD_BUDGET, GUARD_REPEATS, |attached| {
            hook_pass(&programs, if attached { hook } else { Hook::None }).0
        });
    }
    Ok(ok)
}

/// `sweep perf`.
pub(crate) fn perf(args: &Args) -> Result<ExitCode, String> {
    if let Some(path) = args.path("--validate") {
        let contents = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let n = metrics::validate(&contents).map_err(|e| format!("{path}: {e}"))?;
        println!("sweep perf: {path}: {n} valid metric lines");
        return Ok(ExitCode::SUCCESS);
    }

    let jobs = job::smoke();
    let samples = measure(&jobs, args.workers.as_deref().unwrap_or(&[1, 4, 8]));
    let base = &samples[0];
    let worst =
        samples.iter().min_by(|a, b| a.cps().total_cmp(&b.cps())).expect("at least one sample");

    let mut metrics_out = String::new();
    for s in &samples {
        metrics_out.push_str(&metrics::render(s.workers, &s.report));
        metrics_out.push_str(&metrics::render_scaling(
            "smoke",
            base.workers,
            base.cps(),
            s.workers,
            s.cps(),
        ));
        metrics_out.push_str(&metrics::render_burst(s.workers, s.cluster_cycles, s.replayed));
    }

    let diagnosis = diagnose(base, worst);
    let (label, rows) = hot_region_rows();
    if args.on("--markdown") {
        println!("### Host scaling diagnosis (sweep perf, smoke grid)\n");
        println!(
            "| workers | wall ms | Mcycles/s | vs 1w | simulate ms | warm ms | idle % | burst % |"
        );
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
        for s in &samples {
            println!(
                "| {} | {:.2} | {:.2} | {:.2}x | {:.2} | {:.2} | {:.1} | {:.1} |",
                s.label(),
                s.wall_ns as f64 / 1e6,
                s.cps() / 1e6,
                s.cps() / base.cps(),
                s.report.phase_total(Phase::Simulate) as f64 / 1e6,
                s.report.phase_total(Phase::Warm) as f64 / 1e6,
                100.0 * s.report.idle_frac(),
                100.0 * s.burst_frac(),
            );
        }
        println!("\n```text\n{}\n```", diagnosis.join("\n"));
        println!("\n### Where the simulated cycles go ({label})\n");
        println!("| region | core cycles | issue | stall | frep | dominant stall |");
        println!("|---|---:|---:|---:|---:|---|");
    } else {
        for s in &samples {
            println!("=== {} worker(s) ===", s.label());
            print!("{}", s.report.render_text());
            println!(
                "throughput: {:.2}M simulated cycles/s ({:.2}x of {}-worker base), \
                 block-burst engagement {:.1}%\n",
                s.cps() / 1e6,
                s.cps() / base.cps(),
                base.label(),
                100.0 * s.burst_frac(),
            );
        }
        println!("--- scaling diagnosis ---\n{}", diagnosis.join("\n"));
        println!("--- hot regions ({label}) ---");
        println!("| region | core cycles | issue | stall | frep | dominant stall |");
    }
    for row in &rows {
        println!("{row}");
    }

    if let Some(path) = args.path("--metrics") {
        emit(path, &metrics_out, |m| metrics::validate(m).map(|n| format!("{n} lines")))?;
    }
    if let Some(path) = args.path("--chrome") {
        // The last measured count's span log (at the default 1,4,8 that is
        // the 8-worker run — the interesting one).
        let spans = samples.last().expect("at least one sample").report.spans();
        emit(path, &chrome::render(spans), |json| {
            snitch_trace::chrome::validate(json).map(|s| format!("{} events", s.events))
        })?;
    }

    // Static-verification budget, always on. Each measured count runs a
    // fresh engine and so re-verifies cold, but a real sweep (many seeds
    // and configs per program, one engine) pays verification once per
    // distinct program and serves cached diagnostics after that. The
    // budget therefore charges ONE cold verification pass (the base
    // sample's) against all the cold passes' wall time — the overhead a
    // sweep actually pays. A verify:compile ratio can never be small
    // (verification walks every instruction several times per hart while
    // assembly is a single emit pass), so that ratio is only reported
    // alongside for trend-watching, not gated on.
    let verify_ns = base.report.phase_total(Phase::Verify);
    let compile_ns = base.report.phase_total(Phase::Compile);
    let total_wall: u64 = samples.iter().map(|s| s.wall_ns).sum();
    let verify_pct = 100.0 * verify_ns as f64 / total_wall as f64;
    let vs_compile = if compile_ns == 0 { 0.0 } else { verify_ns as f64 / compile_ns as f64 };
    eprintln!(
        "sweep perf: verify overhead: {:.3}ms across {:.3}ms of measured batches \
         ({verify_pct:.2}%, budget 5%; {vs_compile:.1}x the {:.3}ms assembly time)",
        verify_ns as f64 / 1e6,
        total_wall as f64 / 1e6,
        compile_ns as f64 / 1e6,
    );
    let mut ok = verify_ns * 20 <= total_wall;
    if !ok {
        eprintln!("sweep perf: verify overhead guard FAILED: {verify_pct:.2}% > 5% budget");
    }
    if args.on("--overhead-guard") {
        ok &= run_guards(&jobs, &samples)?;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(requested: usize, workers: usize, wall_ns: u64) -> Sample {
        Sample {
            requested,
            workers,
            engine: Engine::new(1),
            wall_ns,
            warm_s: wall_ns as f64 / 1e9,
            jobs: 1,
            instructions: 1_000,
            cycles: 1_000_000,
            cluster_cycles: 1_000_000,
            replayed: 0,
            report: Report::new(&[], wall_ns),
        }
    }

    #[test]
    fn clamped_pools_are_labelled_requested_to_effective() {
        assert_eq!(sample(1, 1, 1).label(), "1");
        assert_eq!(sample(4, 2, 1).label(), "4→2");
        assert_eq!(sample(8, 2, 1).label(), "8→2");
    }

    #[test]
    fn diagnosis_lines_name_requested_and_effective_workers() {
        let lines = diagnose(&sample(1, 1, 10_000_000), &sample(4, 2, 8_000_000));
        assert!(
            lines[0].starts_with("workers 1 -> 4→2: throughput 100.00M -> 125.00M"),
            "{}",
            lines[0]
        );
        assert!(lines[0].ends_with("(ratio 1.25, ideal 2.00)"), "{}", lines[0]);
        assert!(lines[1].contains("clamped the requested 4-worker pool to 2"), "{}", lines[1]);
        assert!(lines[2].starts_with("worker-time budget at 4→2 workers"), "{}", lines[2]);
        assert!(lines[2].ends_with("at 1 worker(s)"), "{}", lines[2]);
        let unclamped = diagnose(&sample(1, 1, 10_000_000), &sample(2, 2, 8_000_000));
        assert!(unclamped[0].starts_with("workers 1 -> 2:"), "{}", unclamped[0]);
        assert!(unclamped[1].starts_with("worker-time budget at 2 workers"), "{}", unclamped[1]);
    }

    #[test]
    fn bench_lines_keep_the_shape_the_guard_parses() {
        let (one, pool) = (sample(1, 1, 10_000_000), sample(4, 2, 8_000_000));
        let line = one.bench_line(None);
        assert_eq!(
            line,
            "{\"benchmark\":\"sim\",\"workload\":\"smoke\",\"jobs\":1,\"workers\":1,\
             \"simulated_instructions\":1000,\"simulated_cycles\":1000000,\
             \"wall_seconds\":0.010000,\"instructions_per_second\":100000,\
             \"cycles_per_second\":100000000}"
        );
        assert_eq!(committed_rate(&line), Some(100_000_000.0));
        let scaled = pool.bench_line(Some(&one));
        assert!(
            scaled.contains("\"workers\":4,")
                && scaled.ends_with(",\"scaling_vs_workers1\":1.250}")
        );
        assert_eq!(committed_rate(&scaled), None, "only a workers-1 line is a baseline");
    }

    #[test]
    fn guard_passes_within_budget_and_fails_over_it() {
        assert!(guard("test", 1.02, 2, |candidate| if candidate { 1.01 } else { 1.0 }));
        let mut rounds = 0;
        assert!(!guard("test", 1.02, 1, |candidate| {
            rounds += usize::from(candidate);
            if candidate {
                1.5
            } else {
                1.0
            }
        }));
        assert_eq!(rounds, GUARD_ATTEMPTS, "a failing guard re-measures every attempt");
    }

    #[test]
    fn burst_share_of_a_multi_cluster_job_stays_a_fraction() {
        let (n, block) = Kernel::GemmTiled.operating_point();
        let jobs = job::scaling_grid(&[Kernel::GemmTiled], &[1], &[4], n, block);
        assert!(jobs.iter().all(|j| j.label().ends_with("/x4")));
        let s = measure(&jobs, &[1]).remove(0);
        // Four single-hart clusters each burst most of their own cycles, so
        // the summed burst exceeds the system cycles (the slowest cluster).
        assert!(s.replayed > s.cycles, "replayed {} vs system cycles {}", s.replayed, s.cycles);
        let share = s.burst_frac();
        assert!(share > 0.0 && share <= 1.0, "burst share {share}");
    }
}
