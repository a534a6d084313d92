//! `perfbench` — the repository's pinned benchmark of the sweep path.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --all [--seconds S] [--trace 0|1]
//! ```
//!
//! One run measures one workload (see `README.md`): for `--seconds` it
//! fills fresh engines' program caches cold (`setup_s`) and runs warm
//! passes (`pass_s`), timing every piece of both, checks every output,
//! samples peak memory in fresh child processes, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a separate traced run
//! (`--trace 1`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--all` runs every
//! workload, each in its own process so that its peak memory is its own.

mod host;
mod manifest;
mod paper;
mod pass;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use snitch_engine::{Engine, RunRecord};
use snitch_trace::StallCause;

use host::{allowed_cpus, json_str, peak_rss_mib, pin_main_thread, Host};
use manifest::{label_digest, Workload};
use pass::{fill_cache, fold_min, pass, Best, Pass};
use traced::{traced_run, Regime};

/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Cold cache fills timed per pass, each on a fresh engine.
const SETUPS_PER_PASS: usize = 8;
/// Fresh processes whose peak memory is sampled per run.
const RSS_PROBES: usize = 7;
/// Share of the traced run's wall time the layer self times must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       perfbench --all [--seconds S] [--trace 0|1]

Workloads: paper-fig2, grid-multicluster, observe-paper.
--seed is recorded only: every workload is a pinned, deterministic job list.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
";

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name: name.to_string(), unit, better }
}

/// The end-to-end metrics, in the order they are printed.
fn end_to_end() -> Vec<Metric> {
    vec![
        metric("pass_s", "s", "lower"),
        metric("sim_instr_per_s", "1/s", "higher"),
        metric("sim_cycles_per_s", "1/s", "higher"),
        metric("setup_s", "s", "lower"),
        metric("peak_rss_mib", "MiB", "lower"),
        metric("sim_cycles", "cycles", "lower"),
        metric("paper_speedup_err_pct", "%", "lower"),
        metric("paper_energy_err_pct", "%", "lower"),
        metric("paper_ipc_err_pct", "%", "lower"),
    ]
}

/// The per-layer metrics, in the order they are printed.
fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        metric("kernels.build.s", "s", "lower"),
        metric("kernels.build.programs", "count", "lower"),
        metric("verify.s", "s", "lower"),
        metric("verify.programs", "count", "lower"),
        metric("engine.cache.hit_frac", "frac", "higher"),
        metric("engine.warm.s", "s", "lower"),
        metric("engine.warm.count", "count", "lower"),
        metric("engine.reset.s", "s", "lower"),
        metric("engine.pool.scaling", "x", "higher"),
        metric("sim.load.s", "s", "lower"),
        metric("sim.run.s", "s", "lower"),
        metric("sim.run.ns_per_instr", "ns", "lower"),
        metric("sim.run.burst_frac", "frac", "higher"),
        metric("sim.run.stepped_frac", "frac", "lower"),
        metric("sim.run.skipped_frac", "frac", "higher"),
        metric("sim.run.burst_cycles", "cycles", "higher"),
        metric("sim.run.stepped_cycles", "cycles", "lower"),
        metric("sim.run.skipped_cycles", "cycles", "higher"),
        metric("kernels.check.s", "s", "lower"),
        metric("energy.report.s", "s", "lower"),
        metric("engine.record.s", "s", "lower"),
        metric("engine.sink.s", "s", "lower"),
        metric("engine.sink.bytes", "B", "lower"),
        metric("trace.events", "count", "lower"),
        metric("trace.chrome.render.s", "s", "lower"),
        metric("trace.chrome.validate.s", "s", "lower"),
        metric("trace.chrome.bytes", "B", "lower"),
        metric("profile.render.s", "s", "lower"),
        metric("profile.validate.s", "s", "lower"),
        metric("profile.bytes", "B", "lower"),
        metric("model.int_issued", "count", "lower"),
        metric("model.fp_issued", "count", "lower"),
    ];
    for cause in StallCause::all() {
        m.push(metric(&format!("model.stall.{}", cause.name()), "cycles", "lower"));
    }
    m.extend([
        metric("model.tcdm.conflicts", "count", "lower"),
        metric("model.dma.hop_cycles", "cycles", "lower"),
        metric("model.l2.accesses", "count", "lower"),
        metric("bench.trace_overhead", "frac", "lower"),
        metric("bench.span_coverage", "frac", "higher"),
    ]);
    m
}

struct Args {
    workload: Option<Workload>,
    /// Set up and run one pass, then print only the peak memory (the
    /// child process behind `peak_rss_mib`).
    rss_probe: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, rss_probe: false, seed: 0, seconds: 10.0, trace: false };
    let mut all = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--all" => all = true,
            "--rss-probe" => args.rss_probe = true,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) if args.rss_probe => rss_probe(workload),
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} failed ({s})", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: starting {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Jobs attempted and failed over every batch a run executes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a batch; the first failed record fails the run.
    fn count(&mut self, records: &[RunRecord]) -> Result<(), String> {
        self.attempted += records.len() as u64;
        let failed: Vec<&RunRecord> = records.iter().filter(|r| !r.ok).collect();
        self.failed += failed.len() as u64;
        match failed.first() {
            Some(r) => Err(format!(
                "{} failed: {}",
                r.job.label(),
                r.error.as_deref().unwrap_or("unknown error")
            )),
            None => Ok(()),
        }
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let host = Host::detect();
    let mut tally = Tally::default();
    let result = measure(workload, args, &host, &mut tally);
    let (correct, metrics) = match result {
        Ok(values) => {
            print_table(workload, &values);
            (true, values)
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            (false, Vec::new())
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(&m.name), json_str(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(workload: Workload, values: &[(Metric, f64)]) {
    println!("perfbench: {} metrics:", workload.name());
    for (m, v) in values {
        println!("  {:<28} {:>18.6} {:<7} {} is better", m.name, v, m.unit, m.better);
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (which must not be empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The child process behind `peak_rss_mib`: one set-up and one pass, the
/// most a `sweep` process running this batch holds, then the peak memory.
fn rss_probe(workload: Workload) -> ExitCode {
    let probe = || -> Result<(f64, u64, u64), String> {
        let jobs = workload.jobs()?;
        let engine = Engine::new(workload.requested_workers());
        fill_cache(&engine, &jobs)?;
        let p = pass(&engine, &jobs)?;
        let mut tally = Tally::default();
        tally.count(&p.records)?;
        Ok((peak_rss_mib()?, tally.attempted, p.sinks.digest))
    };
    match probe() {
        Ok((mib, attempted, digest)) => {
            println!("{mib} {attempted} {digest:016x}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} memory probe: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Peak memory of [`RSS_PROBES`] fresh processes, one after another.
///
/// With a pool of workers, which configurations are alive at once depends
/// on timing, so a single process's peak varies from run to run; the
/// median of several does not. Each probe's sinks must match the run's
/// own (`digest`).
fn rss_probes(workload: Workload, digest: u64, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("locating the benchmark executable: {e}"))?;
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload.name(), "--rss-probe"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a memory probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.split_whitespace().collect::<Vec<_>>();
        match (out.status.success(), parsed.as_slice()) {
            (true, [mib, attempted, sinks]) if *sinks == format!("{digest:016x}") => {
                peaks.push(mib.parse().map_err(|_| format!("memory probe printed `{stdout}`"))?);
                tally.attempted += attempted.parse::<u64>().unwrap_or(0);
            }
            (true, _) => return Err(format!("memory probe printed `{}`", stdout.trim())),
            _ => return Err(format!("memory probe failed ({})", out.status)),
        }
    }
    Ok(peaks)
}

/// Measures one workload and returns the metrics `--trace` selects, after
/// every correctness gate has passed.
fn measure(
    workload: Workload,
    args: &Args,
    host: &Host,
    tally: &mut Tally,
) -> Result<Vec<(Metric, f64)>, String> {
    let jobs = workload.jobs()?;
    let digest = label_digest(&jobs);
    println!(
        "perfbench: {}: {} jobs, label digest {digest:016x}, seed {}",
        workload.name(),
        jobs.len(),
        args.seed
    );

    // Each round fills fresh engines' program caches cold (set-up
    // samples), then runs a warm pass on the last of them (all cache
    // hits), so set-up and passes are sampled over the same window.
    let requested = workload.requested_workers();
    let effective = Engine::new(requested).workers().min(jobs.len());
    let started = Instant::now();
    let (mut setups, mut times) = (Vec::new(), Vec::new());
    let (mut best, mut best_setup) = (Best::new(effective), Vec::new());
    let mut first: Option<Pass> = None;
    // Another tenant can slow one CPU of this host for a whole run while
    // another runs at full speed, and a thread stays on the CPU it started
    // on. So every round starts on the next CPU: a one-worker batch stays
    // there for the round, a pool's workers spread out from there (so each
    // job lands on a different CPU from round to round). Each piece's
    // fastest time is then taken over all the CPUs.
    let cpus = allowed_cpus();
    let mut rotated = false;
    while times.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        if cpus.len() > 1 {
            rotated |= pin_main_thread(std::slice::from_ref(&cpus[times.len() % cpus.len()]));
            if effective > 1 {
                pin_main_thread(&cpus);
            }
        }
        let mut engine = None;
        for _ in 0..SETUPS_PER_PASS {
            let fresh = Engine::new(requested);
            let pieces = fill_cache(&fresh, &jobs)?;
            setups.push(pieces.iter().sum::<f64>());
            fold_min(&mut best_setup, &pieces);
            engine = Some(fresh);
        }
        let p = pass(engine.as_ref().expect("at least one set-up"), &jobs)?;
        tally.count(&p.records)?;
        if let Some(f) = &first {
            if (p.sinks, p.observed) != (f.sinks, f.observed) {
                return Err(format!("pass {} output differs from pass 1", times.len() + 1));
            }
        }
        times.push(p.seconds);
        best.add(&p);
        first.get_or_insert(p);
    }
    if rotated {
        pin_main_thread(&cpus);
    }
    let first = first.expect("at least one pass ran");
    // A pass and a set-up made of their fastest pieces: the medians track
    // the host's load, these track the program (see `Best` and the README).
    let pass_s = best.seconds();
    let setup_s = best_setup.iter().sum::<f64>();
    let median_pass_s = median(&times);

    // The pool's output must match one worker's, byte for byte.
    let one_worker_s = if effective > 1 {
        let single = Engine::new(1);
        fill_cache(&single, &jobs)?;
        let p = pass(&single, &jobs)?;
        tally.count(&p.records)?;
        if p.sinks != first.sinks {
            return Err(format!("{effective}-worker sinks differ from 1-worker sinks"));
        }
        p.seconds
    } else {
        median_pass_s
    };

    let cycles: u64 = first.records.iter().map(|r| r.cycles).sum();
    let instructions: u64 = first.records.iter().map(|r| r.instructions).sum();
    println!(
        "{{\"record\":\"perfbench\",\"workload\":{},\"seed\":{},\"jobs\":{},\"label_digest\":\"{digest:016x}\",\
         \"workers_requested\":{requested},\"workers_effective\":{effective},\"cpu_rotation\":{rotated},{},\
         \"passes\":{},\"pass_s_min\":{},\"pass_s_median\":{median_pass_s},\"pass_s_p75\":{},\"setup_s_p25\":{},\
         \"setup_s_median\":{},\"setup_s_p75\":{},\"sink_digest\":\"{:016x}\"}}",
        json_str(workload.name()),
        args.seed,
        jobs.len(),
        host.json_fields(),
        times.len(),
        times.iter().copied().fold(f64::INFINITY, f64::min),
        quantile(&times, 0.75),
        quantile(&setups, 0.25),
        median(&setups),
        quantile(&setups, 0.75),
        first.sinks.digest,
    );

    if !args.trace {
        let rss = median(&rss_probes(workload, first.sinks.digest, tally)?);
        // Fidelity is a property of the modelled design; on the other
        // workloads it comes from one untimed pass over the Figure 2 jobs.
        let fig2_records = if workload == Workload::PaperFig2 {
            first.records
        } else {
            let records = Engine::new(1).run(&Workload::PaperFig2.jobs()?);
            tally.count(&records)?;
            records
        };
        let fid = paper::fidelity(&fig2_records)?;
        for (row, paper) in fid.rows.iter().zip(&paper::FIG2) {
            println!(
                "perfbench: Fig. 2 {:<16} speedup {:.2} (paper {:.2}), energy {:.2} ({:.2}), \
                 IPC base {:.2} ({:.2}), COPIFT {:.2} ({:.2})",
                paper.kernel,
                row.speedup(),
                paper.speedup,
                row.energy_improvement(),
                paper.energy,
                row.base.ipc,
                paper.ipc_base,
                row.copift.ipc,
                paper.ipc_copift
            );
        }
        let values = [
            pass_s,
            instructions as f64 / pass_s,
            cycles as f64 / pass_s,
            setup_s,
            rss,
            cycles as f64,
            fid.speedup_err_pct,
            fid.energy_err_pct,
            fid.ipc_err_pct,
        ];
        return Ok(named(end_to_end(), &values));
    }

    let t = traced_run(&jobs)?;
    tally.count(&t.records)?;
    write_spans(workload, &t.spans_jsonl());
    for (i, (a, b)) in t.records.iter().zip(&first.records).enumerate() {
        if a.cycles != b.cycles {
            return Err(format!(
                "job {i} ({}): traced run {} cycles, engine pass {} cycles",
                a.job.label(),
                a.cycles,
                b.cycles
            ));
        }
    }
    if (t.sinks, t.observed) != (first.sinks, first.observed) {
        return Err("traced-run output differs from the engine pass".to_string());
    }
    if let Some((i, _)) = t.regimes.iter().enumerate().find(|(_, r)| !r.sums_exactly()) {
        return Err(format!("job {i}: burst + stepped + skipped != cluster cycles"));
    }
    if t.coverage < MIN_SPAN_COVERAGE {
        return Err(format!(
            "layer self times cover {:.1}% of the traced run, below {:.0}%",
            100.0 * t.coverage,
            100.0 * MIN_SPAN_COVERAGE
        ));
    }
    let regime = t.regimes.iter().fold(Regime::default(), |mut acc, r| {
        acc += *r;
        acc
    });
    let share = |part: u64| part as f64 / regime.cluster_cycles.max(1) as f64;
    let lookups = (t.cache_hits + t.cache_misses).max(1) as f64;
    let set_up = t.layer("kernels.build").self_s + t.layer("verify").self_s;
    let m = &t.model;
    let mut values = vec![
        t.layer("kernels.build").self_s,
        t.cache_misses as f64,
        t.layer("verify").self_s,
        t.layer("verify").calls as f64,
        t.cache_hits as f64 / lookups,
        t.layer("engine.warm").self_s,
        t.layer("engine.warm").calls as f64,
        t.layer("engine.reset").self_s,
        one_worker_s / median_pass_s,
        t.layer("sim.load").self_s,
        t.layer("sim.run").self_s,
        t.layer("sim.run").self_s * 1e9 / m.instructions().max(1) as f64,
        share(regime.burst),
        share(regime.stepped),
        share(regime.skipped),
        regime.burst as f64,
        regime.stepped as f64,
        regime.skipped as f64,
        t.layer("kernels.check").self_s,
        t.layer("energy.report").self_s,
        t.layer("engine.record").self_s,
        t.layer("engine.sink").self_s,
        t.sinks.bytes as f64,
        t.observed.trace_events as f64,
        t.layer("trace.chrome.render").self_s,
        t.layer("trace.chrome.validate").self_s,
        t.observed.chrome_bytes as f64,
        t.layer("profile.render").self_s,
        t.layer("profile.validate").self_s,
        t.observed.profile_bytes as f64,
        m.int_issued as f64,
        m.fp_instructions() as f64,
    ];
    values.extend(StallCause::all().map(|c| m.stall_by_cause(c) as f64));
    values.extend([
        m.tcdm_conflicts as f64,
        m.dma_hop_cycles as f64,
        m.l2_accesses as f64,
        // The traced run starts cold; its set-up layers are left out so
        // that it compares with a warm one-worker pass.
        (t.wall_s - set_up - one_worker_s) / one_worker_s,
        t.coverage,
    ]);
    Ok(named(per_layer(), &values))
}

/// Pairs each metric with its value; the two lists are written in the
/// same order.
fn named(metrics: Vec<Metric>, values: &[f64]) -> Vec<(Metric, f64)> {
    assert_eq!(metrics.len(), values.len(), "one value per declared metric");
    metrics.into_iter().zip(values.iter().copied()).collect()
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(workload: Workload, jsonl: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl)) {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests;
