//! `sweep` — the engine's command line: batched sweeps, static
//! verification, single-job traces and profiles, and the host-side
//! performance report, all over one argument parser and one job selector.
//!
//! ```text
//! sweep fig2 --workers 8 --jsonl fig2.jsonl
//! sweep --kernels pi_lcg,exp --variants base,copift --n 256,512 --block 32 --csv out.csv
//! sweep --kernels poly_lcg --variants copift --n 512 --block 128 --fifo-depth 2,4,8,16
//! sweep verify
//! sweep trace --kernel pi_lcg --variant copift --out trace.json
//! sweep profile --kernel pi_lcg --flame flame.txt --disasm listing.txt
//! sweep perf --metrics METRICS.json --overhead-guard
//! ```
//!
//! Any comma-separated configuration flag expands into a configuration axis
//! and the engine sweeps the full cross product — ablations (write-back
//! ports, FPU latency, FIFO depth, bank count, ...) are one flag away.

mod observe;
mod perf;

use std::io::{IsTerminal as _, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use snitch_engine::record::RunRecord;
use snitch_engine::{job, sink, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_sim::config::SystemConfig;
use snitch_telemetry::{metrics, Phase, Report, Telemetry, MAIN_WORKER};

const USAGE: &str = "\
usage: sweep [run] [PRESET] [OPTIONS]      run a batch (the default subcommand)
       sweep verify [PRESET] [OPTIONS]     statically verify the batch's programs
       sweep trace --kernel K [OPTIONS]    trace one job cycle by cycle
       sweep profile --kernel K [OPTIONS]  profile one job's guest cycles
       sweep perf [OPTIONS]                diagnose host-side scaling; guards

Presets (job batch templates):
  fig2            the 6 paper kernels x 2 variants at (n, 2n) operating points (24 jobs)
  fig3            poly_lcg COPIFT over the paper's size x block grid (56 jobs)
  extended        the extended-suite kernels x 2 variants at (n, 2n) operating points
  smoke           every cataloged kernel x variants at small sizes
  scaling         the data-parallel kernels x 2 variants over 1/2/4/8 cores
  scaling-grid    gemm_tiled x 2 variants over the cores x clusters grid
`sweep verify` with neither a preset nor a job axis verifies every program
of all the batches above. Nothing is simulated; it exits non-zero if any
program has verification errors.

Job axes (run, verify, trace, profile; ignored when a preset is given):
  --kernels K,..  cataloged kernel names (see the catalog below); default: all
  --variants V,.. base, copift; default: both (trace, profile: copift)
  --n N,..        problem sizes; default: 256 (trace, profile: smoke point)
  --block B,..    block sizes; default: 32 (trace, profile: smoke point)
  --kernel and --variant are aliases of --kernels and --variants.

Configuration axes (comma lists expand into sweep dimensions; these also
apply to presets, replicating the preset batch per configuration):
  --wb-ports N,..         integer RF write-back ports (>= 1)
  --l0 N,..               L0 instruction-buffer capacity (>= 1)
  --fifo-depth N,..       offload FIFO depth (>= 1)
  --seq-depth N,..        FREP sequencer ring depth
  --banks N,..            TCDM bank count (power of two)
  --cores N,..            compute cores per cluster (1..=32; the data-parallel
                          kernels support up to 8 and rebuild their program
                          per core count)
  --clusters N,..         clusters in the system (1..=32; tiled kernels rebuild
                          their program per cluster count)
  --fpu-lat-muladd N,..   FPU add/mul/FMA latency
  --mul-latency N,..      integer multiply write-back latency
  --branch-penalty N,..   taken-branch penalty

run (verify takes --allow-invalid and --quiet only):
  --workers N     worker threads (default: all hardware threads)
  --jsonl PATH    write JSON-lines records (\"-\" for stdout)
  --csv PATH      write CSV records (\"-\" for stdout)
  --metrics PATH  write host-telemetry METRICS.json lines (\"-\" for stdout)
  --allow-invalid run jobs whose program fails static verification anyway
                  (default: such jobs fail without simulating); verify
                  reports the errors but exits zero
  --quiet         suppress the summary table and the progress line; verify
                  prints only the reports that carry errors

trace and profile (exactly one job, on one cluster; default: 1 core):
  --out PATH      trace: write Chrome trace-event JSON (Perfetto-loadable)
  --text PATH     trace: write the annotated text trace
  --flame PATH    profile: write the collapsed-stack flamegraph
                  (flamegraph.pl, inferno, speedscope)
  --disasm PATH   profile: write the annotated disassembly listing
  --chrome PATH   profile: write Perfetto counter tracks over the pc axis
  --top N         profile: hot pcs in the terminal summary (default: 10)
  --quiet         suppress the terminal summary
Every file is validated against its format before it is written.

perf (the smoke batch through the engine at each worker count):
  --workers LIST    worker counts to measure (default: 1,4,8)
  --metrics PATH    write METRICS.json lines for every measured count
  --chrome PATH     write a Chrome/Perfetto trace of the last measured run
  --markdown        emit the diagnosis as a markdown section on stdout
  --overhead-guard  also run the throughput guard (single worker within 20%
                    of BENCH_sim.json) and the telemetry, tracing and
                    profiling overhead guards (each within 2%), and rewrite
                    BENCH_sim.json with the measured lines
  --validate PATH   validate an existing METRICS.json file and exit

Record labels name each job as kernel/variant/nN/bB, with /cN appended when
the job runs on more than one core and /xN when it spans more than one
cluster (for example gemm_tiled/copift/n64/b0/c8/x4).

A live progress line (jobs done/total, elapsed, ETA) is printed to stderr
while a batch runs, when stderr is a terminal and --quiet is absent.
";

/// The subcommand: the first word on the command line, `run` otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    Run,
    Verify,
    Trace,
    Profile,
    Perf,
}

const SUBCOMMANDS: [(&str, Cmd); 5] = [
    ("run", Cmd::Run),
    ("verify", Cmd::Verify),
    ("trace", Cmd::Trace),
    ("profile", Cmd::Profile),
    ("perf", Cmd::Perf),
];

/// Preset batches, in the order `sweep verify` walks them.
const PRESETS: [&str; 6] = ["smoke", "fig2", "fig3", "extended", "scaling", "scaling-grid"];

const CONFIG_FLAGS: [&str; 10] = [
    "--wb-ports",
    "--l0",
    "--fifo-depth",
    "--seq-depth",
    "--banks",
    "--cores",
    "--clusters",
    "--fpu-lat-muladd",
    "--mul-latency",
    "--branch-penalty",
];

/// The subcommands that accept `flag`; `None` for an unknown flag.
fn accepted_by(flag: &str) -> Option<&'static [Cmd]> {
    use Cmd::*;
    Some(match flag {
        "--kernels" | "--kernel" | "--variants" | "--variant" | "--n" | "--block" | "--quiet" => {
            &[Run, Verify, Trace, Profile]
        }
        f if CONFIG_FLAGS.contains(&f) => &[Run, Verify, Trace, Profile],
        "--allow-invalid" => &[Run, Verify],
        "--jsonl" | "--csv" => &[Run],
        "--workers" | "--metrics" => &[Run, Perf],
        "--out" | "--text" => &[Trace],
        "--flame" | "--disasm" | "--top" => &[Profile],
        "--chrome" => &[Profile, Perf],
        "--markdown" | "--overhead-guard" | "--validate" => &[Perf],
        "--help" | "-h" => &[Run, Verify, Trace, Profile, Perf],
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    cmd: Cmd,
    preset: Option<String>,
    /// Job axes; `None` takes the subcommand's default.
    kernels: Option<Vec<Kernel>>,
    variants: Option<Vec<Variant>>,
    sizes: Option<Vec<usize>>,
    blocks: Option<Vec<usize>>,
    config_axes: Vec<(String, Vec<u32>)>,
    workers: Option<Vec<usize>>,
    top: usize,
    /// Path-valued flags, by flag name.
    paths: Vec<(String, String)>,
    /// Boolean flags given.
    switches: Vec<String>,
}

impl Args {
    fn path(&self, flag: &str) -> Option<&str> {
        self.paths.iter().rev().find(|(f, _)| f == flag).map(|(_, p)| p.as_str())
    }

    fn on(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn job_axes_given(&self) -> bool {
        self.kernels.is_some()
            || self.variants.is_some()
            || self.sizes.is_some()
            || self.blocks.is_some()
    }
}

/// Comma-separated listing of every cataloged kernel name (for error
/// messages — the same live catalog `--help` prints in full).
fn kernel_names() -> String {
    Kernel::all().iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|v| v.trim().parse::<T>().map_err(|_| format!("{flag}: bad value `{v}`")))
        .collect()
}

fn parse_names<T>(
    value: &str,
    what: &str,
    lookup: impl Fn(&str) -> Option<T>,
    valid: impl Fn() -> String,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|name| {
            let name = name.trim();
            lookup(name)
                .ok_or_else(|| format!("unknown {what} `{name}` (valid {what}s: {})", valid()))
        })
        .collect()
}

/// Parses a command line (without the program name). `Err("")` asks for
/// the usage text.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cmd: Cmd::Run,
        preset: None,
        kernels: None,
        variants: None,
        sizes: None,
        blocks: None,
        config_axes: Vec::new(),
        workers: None,
        top: 10,
        paths: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    if let Some(&(_, cmd)) = it.peek().and_then(|w| SUBCOMMANDS.iter().find(|(s, _)| s == w)) {
        args.cmd = cmd;
        it.next();
    }
    let cmd_name = SUBCOMMANDS.iter().find(|(_, c)| *c == args.cmd).map_or("run", |(s, _)| s);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with('-') {
            // A bare word can only be a preset: reject misspellings loudly
            // instead of silently running the default grid.
            if matches!(args.cmd, Cmd::Run | Cmd::Verify) && PRESETS.contains(&flag) {
                args.preset = Some(arg.clone());
                continue;
            }
            return Err(format!(
                "unknown preset `{flag}` for `sweep {cmd_name}` (presets of run and verify: {}; \
                 subcommands: run, verify, trace, profile, perf)",
                PRESETS.join(", ")
            ));
        }
        let cmds = accepted_by(flag).ok_or_else(|| format!("unknown argument `{flag}`"))?;
        if !cmds.contains(&args.cmd) {
            return Err(format!("`{flag}` does not apply to `sweep {cmd_name}`"));
        }
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--help" | "-h" => return Err(String::new()),
            "--quiet" | "--allow-invalid" | "--markdown" | "--overhead-guard" => {
                args.switches.push(flag.to_string());
            }
            "--kernels" | "--kernel" => {
                args.kernels =
                    Some(parse_names(&value()?, "kernel", Kernel::from_name, kernel_names)?);
            }
            "--variants" | "--variant" => {
                args.variants =
                    Some(parse_names(&value()?, "variant", Variant::from_name, || {
                        Variant::all().map(Variant::name).join(", ")
                    })?);
            }
            "--n" => args.sizes = Some(parse_list(flag, &value()?)?),
            "--block" => args.blocks = Some(parse_list(flag, &value()?)?),
            "--workers" => {
                let counts: Vec<usize> = parse_list(flag, &value()?)?;
                if counts.contains(&0) {
                    return Err("--workers: counts must be positive".to_string());
                }
                if args.cmd == Cmd::Run && counts.len() != 1 {
                    return Err("--workers: a batch runs on one pool; give one count".to_string());
                }
                args.workers = Some(counts);
            }
            "--top" => args.top = value()?.parse().map_err(|_| "--top: bad value".to_string())?,
            f if CONFIG_FLAGS.contains(&f) => {
                args.config_axes.push((f.to_string(), parse_list(f, &value()?)?));
            }
            _ => args.paths.push((flag.to_string(), value()?)),
        }
    }
    for config in expand_configs(&args.config_axes) {
        config.check().map_err(|e| format!("invalid configuration: {e}"))?;
    }
    if args.on("--overhead-guard") && args.workers.as_ref().is_some_and(|w| w[0] != 1) {
        return Err(
            "--overhead-guard guards the single-worker rate: --workers must start at 1".to_string()
        );
    }
    Ok(args)
}

/// Expands the configuration axes into the cross product of all overrides.
fn expand_configs(axes: &[(String, Vec<u32>)]) -> Vec<SystemConfig> {
    let mut configs = vec![SystemConfig::default()];
    for (flag, values) in axes {
        configs = configs
            .iter()
            .flat_map(|cfg| {
                values.iter().map(|&v| {
                    let mut c = cfg.clone();
                    match flag.as_str() {
                        "--wb-ports" => c.cluster.int_wb_ports = v,
                        "--l0" => c.cluster.l0_capacity = v as usize,
                        "--fifo-depth" => c.cluster.offload_fifo_depth = v as usize,
                        "--seq-depth" => c.cluster.sequencer_depth = v as usize,
                        "--banks" => c.cluster.tcdm_banks = v as usize,
                        "--cores" => c.cluster.cores = v as usize,
                        "--clusters" => c.clusters = v as usize,
                        "--fpu-lat-muladd" => c.cluster.fpu_lat_muladd = v,
                        "--mul-latency" => c.cluster.mul_latency = v,
                        "--branch-penalty" => c.cluster.branch_penalty = v,
                        other => unreachable!("unhandled config flag {other}"),
                    }
                    c
                })
            })
            .collect();
    }
    configs
}

fn preset_batch(name: &str) -> Vec<JobSpec> {
    match name {
        "fig2" => job::figure2(),
        "fig3" => job::figure3_paper(),
        "smoke" => job::smoke(),
        "extended" => job::extended(),
        "scaling" => job::scaling_default(),
        "scaling-grid" => job::scaling_grid_default(),
        other => unreachable!("unknown preset {other}"),
    }
}

/// The job selector every job-taking subcommand shares: a preset batch
/// (for `verify` with neither a preset nor a job axis, every preset batch)
/// replicated across the configuration axes; otherwise the kernel ×
/// variant × n × block × configuration grid.
fn build_jobs(args: &Args) -> Vec<JobSpec> {
    let configs = expand_configs(&args.config_axes);
    let presets: Vec<&str> = match (&args.preset, args.cmd) {
        (Some(preset), _) => vec![preset.as_str()],
        (None, Cmd::Verify) if !args.job_axes_given() => PRESETS.to_vec(),
        (None, cmd) => {
            let observe = matches!(cmd, Cmd::Trace | Cmd::Profile);
            let variants = args.variants.clone().unwrap_or_else(|| {
                if observe {
                    vec![Variant::Copift]
                } else {
                    Variant::all().to_vec()
                }
            });
            let kernels = args.kernels.clone().unwrap_or_else(Kernel::all);
            return kernels
                .iter()
                .flat_map(|&kernel| {
                    let (n, block) = if observe { kernel.smoke_point() } else { (256, 32) };
                    let sizes = args.sizes.clone().unwrap_or_else(|| vec![n]);
                    let blocks = args.blocks.clone().unwrap_or_else(|| vec![block]);
                    let points: Vec<(usize, usize)> =
                        sizes.iter().flat_map(|&n| blocks.iter().map(move |&b| (n, b))).collect();
                    JobSpec::grid_with_configs(&[kernel], &variants, &points, &configs)
                })
                .collect();
        }
    };
    // Configuration axes apply to presets too: replicate the preset batch
    // job-major across the expanded configurations. A preset that sets its
    // own grid shape (scaling, scaling-grid) keeps it unless the matching
    // axis was given explicitly.
    let cores_axis_given = args.config_axes.iter().any(|(flag, _)| flag == "--cores");
    let clusters_axis_given = args.config_axes.iter().any(|(flag, _)| flag == "--clusters");
    presets
        .into_iter()
        .flat_map(preset_batch)
        .flat_map(|j| {
            configs.iter().map(move |c| {
                let mut config = c.clone();
                if !cores_axis_given {
                    config.cluster.cores = j.config.cluster.cores;
                }
                if !clusters_axis_given {
                    config.clusters = j.config.clusters;
                }
                j.clone().with_config(config)
            })
        })
        .collect()
}

/// The usage text plus the live workload catalog (runtime registrations
/// included, so the help always matches what `--kernels` accepts).
fn print_usage(to_stderr: bool) {
    use std::fmt::Write as _;
    let mut listing = String::from("Workload catalog (--kernels accepts any of these):\n");
    let paper = Kernel::paper();
    for kernel in Kernel::all() {
        let star = if paper.contains(&kernel) { "*" } else { " " };
        let _ = writeln!(listing, "  {star}{:<18} {}", kernel.name(), kernel.description());
    }
    listing.push_str("  (* = paper Figure 2 suite)\n");
    if to_stderr {
        eprint!("{USAGE}\n{listing}");
    } else {
        print!("{USAGE}\n{listing}");
    }
}

/// Validates `contents` with `check`, which returns a summary of what it
/// found, then writes them to `path` (`-` is stdout) and returns that
/// summary. Every file a subcommand writes goes through here.
fn emit(
    path: &str,
    contents: &str,
    check: impl FnOnce(&str) -> Result<String, String>,
) -> Result<String, String> {
    let summary =
        check(contents).map_err(|e| format!("internal error: {path} fails validation: {e}"))?;
    let written = if path == "-" {
        std::io::stdout().write_all(contents.as_bytes())
    } else {
        std::fs::write(path, contents)
    };
    written.map_err(|e| format!("writing {path}: {e}"))?;
    Ok(summary)
}

/// The `check` of a format without a validator.
#[allow(clippy::unnecessary_wraps)]
fn unchecked(_: &str) -> Result<String, String> {
    Ok(String::new())
}

/// Runs the batch with a live stderr progress line (jobs done/total,
/// elapsed, ETA), polled off the telemetry counters every 200 ms from a
/// side thread. The line rewrites itself in place and is cleared before
/// this returns, so it never lands in redirected output.
fn run_with_progress(engine: &Engine, jobs: &[JobSpec], tel: &Telemetry) -> Vec<RunRecord> {
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            let mut width = 0;
            while !finished.load(Ordering::Relaxed) {
                if let Some((done, _, total)) = tel.progress().filter(|&(_, _, t)| t > 0) {
                    let elapsed = t0.elapsed().as_secs_f64();
                    let eta = if done > 0 {
                        let remaining = total.saturating_sub(done) as f64;
                        format!("{:.0}s", elapsed / done as f64 * remaining)
                    } else {
                        "--".to_string()
                    };
                    let line = format!("sweep: {done}/{total} jobs, {elapsed:.1}s, eta {eta}");
                    width = width.max(line.len());
                    eprint!("\r{line:<width$}");
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            eprint!("\r{:<width$}\r", "");
        });
        let records = engine.run_with(jobs, tel);
        finished.store(true, Ordering::Relaxed);
        records
    })
}

/// `sweep verify`: statically verify every distinct program of the
/// selected jobs — each unique (kernel, variant, n, block, cores,
/// clusters) builds once, runs through `snitch_verify`, and prints its
/// diagnostic report. Nothing is simulated. Exits non-zero if any program
/// carries a hard error, unless `--allow-invalid` downgrades that to a
/// report.
fn verify(args: &Args) -> ExitCode {
    let mut seen = std::collections::HashSet::new();
    let (mut programs, mut errors, mut warnings) = (0usize, 0usize, 0usize);
    for job in build_jobs(args) {
        let key = job.program_key();
        if !seen.insert(key) {
            continue;
        }
        let program = key.kernel.build_grid(key.variant, key.n, key.block, key.cores, key.clusters);
        let diags = snitch_verify::verify(&program, &job.config);
        programs += 1;
        let errs = snitch_verify::error_count(&diags);
        errors += errs;
        warnings += diags.len() - errs;
        if !diags.is_empty() && (errs > 0 || !args.on("--quiet")) {
            print!("{}", snitch_verify::report(&job.label(), &diags));
        }
    }
    eprintln!("sweep verify: {programs} program(s), {errors} error(s), {warnings} warning(s)");
    if errors > 0 && !args.on("--allow-invalid") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `sweep run`: the batch through the engine, records to the sinks.
fn run(args: &Args) -> Result<ExitCode, String> {
    let jobs = build_jobs(args);
    if jobs.is_empty() {
        return Err("empty job batch".to_string());
    }
    let workers = args.workers.as_ref().map(|w| w[0]);
    let engine =
        workers.map_or_else(Engine::default, Engine::new).allow_invalid(args.on("--allow-invalid"));
    // Telemetry powers the progress line and --metrics; with neither wanted
    // the engine runs with the disabled (no-op) handle.
    let quiet = args.on("--quiet");
    let progress = !quiet && std::io::stderr().is_terminal();
    let metrics_path = args.path("--metrics");
    let tel = if progress || metrics_path.is_some() { Telemetry::new() } else { Telemetry::off() };
    let t0 = Instant::now();
    let records = if progress {
        run_with_progress(&engine, &jobs, &tel)
    } else {
        engine.run_with(&jobs, &tel)
    };
    let wall = t0.elapsed();

    let sink_t0 = tel.start();
    if let Some(path) = args.path("--jsonl") {
        emit(path, &sink::to_jsonl(&records), unchecked)?;
    }
    if let Some(path) = args.path("--csv") {
        emit(path, &sink::to_csv(&records), unchecked)?;
    }
    tel.finish(sink_t0, MAIN_WORKER, None, Phase::Sink);

    if let Some(path) = metrics_path {
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let report = Report::new(&tel.spans(), wall_ns);
        emit(path, &metrics::render(engine.workers(), &report), |m| {
            metrics::validate(m).map(|n| format!("{n} metric lines"))
        })?;
    }

    let failed = records.iter().filter(|r| !r.ok).count();
    if !quiet {
        println!(
            "{:<18} {:<7} {:>7} {:>6} {:>4} {:>10} {:>7} {:>8} {:>9}",
            "kernel", "variant", "n", "block", "ok", "cycles", "ipc", "power", "energy"
        );
        for r in &records {
            println!(
                "{:<18} {:<7} {:>7} {:>6} {:>4} {:>10} {:>7.3} {:>7.1}m {:>8.2}u",
                r.job.kernel.name(),
                r.job.variant.name(),
                r.job.n,
                r.job.block,
                if r.ok { "ok" } else { "FAIL" },
                r.cycles,
                r.ipc,
                r.power_mw,
                r.energy_uj,
            );
        }
    }
    eprintln!(
        "sweep: {} jobs, {} workers, {:.2?} wall; program cache: {} built, {} reused{}",
        records.len(),
        engine.workers(),
        wall,
        engine.cache().misses(),
        engine.cache().hits(),
        if failed > 0 { format!("; {failed} FAILED") } else { String::new() },
    );
    Ok(if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print_usage(false);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("sweep: {msg}");
            print_usage(true);
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.cmd {
        Cmd::Run => run(&args),
        Cmd::Verify => Ok(verify(&args)),
        Cmd::Trace => observe::trace(&args),
        Cmd::Profile => observe::profile(&args),
        Cmd::Perf => perf::perf(&args),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("sweep: {msg}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn labels(line: &str) -> Vec<String> {
        build_jobs(&parse(line).expect("parses")).iter().map(JobSpec::label).collect()
    }

    #[test]
    fn legacy_run_forms_keep_their_meaning() {
        let fig2 = parse("fig2 --workers 1 --jsonl a.jsonl --quiet").unwrap();
        assert_eq!((fig2.cmd, fig2.preset.as_deref()), (Cmd::Run, Some("fig2")));
        assert_eq!(fig2.path("--jsonl"), Some("a.jsonl"));
        assert_eq!(build_jobs(&fig2).len(), job::figure2().len());
        assert_eq!(parse("run fig2").unwrap().preset.as_deref(), Some("fig2"));
        let grid = labels("--kernels pi_lcg,exp --variants copift --n 256,512 --block 32");
        assert_eq!(
            grid,
            [
                "pi_lcg/copift/n256/b32",
                "pi_lcg/copift/n512/b32",
                "exp/copift/n256/b32",
                "exp/copift/n512/b32"
            ]
        );
        let multi =
            labels("--kernels gemm_tiled --variants base --n 64 --block 0 --cores 8 --clusters 2");
        assert_eq!(multi, ["gemm_tiled/base/n64/b0/c8/x2"]);
        assert_eq!(labels("--kernels poly_lcg --variants copift --fifo-depth 2,8,16").len(), 3);
    }

    #[test]
    fn verify_without_a_selection_walks_every_preset() {
        let args = parse("verify").unwrap();
        assert_eq!((args.cmd, args.preset.as_deref()), (Cmd::Verify, None));
        let all: usize = PRESETS.iter().map(|p| preset_batch(p).len()).sum();
        assert_eq!(build_jobs(&args).len(), all);
        assert_eq!(build_jobs(&parse("verify fig2").unwrap()).len(), job::figure2().len());
        assert_eq!(labels("verify --kernels exp --variants base"), ["exp/base/n256/b32"]);
    }

    #[test]
    fn unknown_words_and_misplaced_flags_are_rejected() {
        assert!(parse("fig4").unwrap_err().contains("unknown preset `fig4`"));
        assert!(parse("fig2 verify").unwrap_err().contains("unknown preset `verify`"));
        assert!(parse("trace fig2").unwrap_err().contains("unknown preset"));
        assert!(parse("--kernels bogus").unwrap_err().contains("unknown kernel `bogus`"));
        assert!(parse("--bogus").unwrap_err().contains("unknown argument"));
        assert!(parse("--out t.json").unwrap_err().contains("does not apply to `sweep run`"));
        assert!(parse("perf --kernels exp").unwrap_err().contains("does not apply"));
        assert!(parse("--workers 1,2").is_err());
        assert_eq!(parse("perf --workers 1,4").unwrap().workers, Some(vec![1, 4]));
        assert!(parse("perf --workers 4 --overhead-guard").is_err());
        assert_eq!(parse("--help").err().as_deref(), Some(""));
    }

    #[test]
    fn out_of_range_configuration_values_are_rejected_by_the_parser() {
        for (line, what) in [
            ("--cores 0", "cores 0"),
            ("--cores 33", "cores 33"),
            ("--clusters 0", "clusters 0"),
            ("--banks 3", "bank count 3"),
            ("--l0 0", "L0"),
            ("--wb-ports 0", "write-back port"),
            ("--fifo-depth 0", "offload FIFO"),
            ("verify --cores 1,33", "cores 33"),
            ("trace --kernel exp --banks 3", "bank count 3"),
        ] {
            let err = parse(line).err().unwrap_or_else(|| panic!("`{line}` parsed"));
            assert!(err.contains(what), "`{line}`: {err}");
        }
        assert!(parse("--cores 32 --clusters 32 --banks 16 --l0 1 --wb-ports 2").is_ok());
    }

    #[test]
    fn trace_and_profile_select_one_job_at_the_smoke_point() {
        let args = parse("trace --kernel pi_lcg --out t.json --quiet").unwrap();
        let (n, block) = Kernel::PiLcg.smoke_point();
        assert_eq!(labels("trace --kernel pi_lcg"), [format!("pi_lcg/copift/n{n}/b{block}")]);
        assert_eq!(args.path("--out"), Some("t.json"));
        let args =
            parse("profile --kernel pi_lcg_par --variant base --cores 8 --n 1024 --block 32")
                .unwrap();
        assert_eq!(build_jobs(&args)[0].label(), "pi_lcg_par/base/n1024/b32/c8");
        assert_eq!(parse("profile --kernel exp --top 3").unwrap().top, 3);
    }

    #[test]
    fn trace_and_profile_reject_anything_but_one_single_cluster_job() {
        for line in [
            "trace",
            "trace --kernels exp,log",
            "profile --kernel exp --variants base,copift",
            "profile --kernel exp --cores 1,2",
        ] {
            let err = observe::one_job(&parse(line).unwrap()).unwrap_err();
            assert!(err.contains("exactly one job"), "`{line}`: {err}");
        }
        let err = observe::one_job(
            &parse("trace --kernel gemm_tiled --n 64 --block 0 --clusters 2").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("2 clusters"), "{err}");
        assert!(observe::one_job(&parse("profile --kernel exp --cores 2").unwrap()).is_ok());
    }
}
