//! `sweep trace` and `sweep profile`: run one job with an observer attached
//! and emit what it saw.
//!
//! * `trace` records every issue slot and stall: a Perfetto-loadable Chrome
//!   trace-event JSON (`--out`), an annotated text trace (`--text`) and a
//!   terminal occupancy/stall summary.
//! * `profile` charges every cycle to a pc, lane and stall cause: a
//!   collapsed-stack flamegraph (`--flame`), an annotated disassembly
//!   (`--disasm`), Perfetto counter tracks over the pc axis (`--chrome`)
//!   and a terminal hot-pc/region summary.
//!
//! Both observe cluster 0 only, so they refuse a multi-cluster job rather
//! than silently drop the other clusters.

use std::process::ExitCode;

use snitch_engine::{Engine, JobSpec, RunRecord};
use snitch_profile::{disasm, flame, perfetto, RegionMap, StallCause};
use snitch_trace::{chrome, text, Profile};

use super::{build_jobs, emit, unchecked, Args, Cmd};

/// The single job the selection names; an error names what is wrong.
pub(crate) fn one_job(args: &Args) -> Result<JobSpec, String> {
    let name = if args.cmd == Cmd::Trace { "trace" } else { "profile" };
    let jobs = build_jobs(args);
    let [job] = jobs.as_slice() else {
        return Err(format!(
            "`sweep {name}` takes exactly one job (--kernel and at most one value per axis); \
             the selection expands to {} jobs",
            jobs.len()
        ));
    };
    if job.config.clusters > 1 {
        return Err(format!(
            "`sweep {name}` observes cluster 0 only, so it takes single-cluster jobs; \
             {} spans {} clusters",
            job.label(),
            job.config.clusters
        ));
    }
    Ok(job.clone())
}

/// Runs the selected job with `observe` applied and returns its record.
fn run_observed(args: &Args, observe: fn(JobSpec) -> JobSpec) -> Result<RunRecord, String> {
    let job = observe(one_job(args)?);
    let record = Engine::new(1).run(std::slice::from_ref(&job)).remove(0);
    if !record.ok {
        return Err(format!(
            "{} failed: {}",
            job.label(),
            record.error.as_deref().unwrap_or("unknown")
        ));
    }
    Ok(record)
}

/// Writes one output file through [`emit`] and reports it on stderr.
fn write(
    name: &str,
    path: &str,
    contents: &str,
    check: impl FnOnce(&str) -> Result<String, String>,
) -> Result<(), String> {
    let summary = emit(path, contents, check)?;
    let sep = if summary.is_empty() { "" } else { ": " };
    eprintln!("{name}: wrote {path}{sep}{summary}");
    Ok(())
}

/// `sweep trace`.
pub(crate) fn trace(args: &Args) -> Result<ExitCode, String> {
    let record = run_observed(args, JobSpec::traced)?;
    let events = record.trace.as_deref().expect("traced job carries events");
    let stats = record.stats.as_ref().expect("successful record carries stats");
    let profile = Profile::new(events, stats.cycles);

    if let Some(path) = args.path("--out") {
        write("trace", path, &chrome::render(events), |json| {
            chrome::validate(json).map(|s| {
                format!(
                    "{} events ({} spans, {} counters) — load at ui.perfetto.dev",
                    s.events, s.complete, s.counters
                )
            })
        })?;
    }
    if let Some(path) = args.path("--text") {
        write("trace", path, &text::render(events), unchecked)?;
    }

    if !args.on("--quiet") {
        let steady = profile.steady_window();
        println!(
            "{}: {} cycles, IPC {:.3} (full run)",
            record.job.label(),
            stats.cycles,
            stats.ipc()
        );
        println!(
            "steady-state window [{}, {}): IPC {:.3}",
            steady.start,
            steady.end,
            profile.steady_ipc()
        );
        for hart in profile.harts() {
            let occ = profile.occupancy(hart);
            println!(
                "hart {hart}: core {} cycles, frep {} cycles, overlap {} ({:.1}% of run), idle {}",
                occ.core_busy,
                occ.frep_busy,
                occ.overlap,
                100.0 * occ.overlap_frac(),
                occ.idle
            );
        }
        let attr = profile.attribution(None);
        let lost: u64 = attr.values().sum();
        if lost > 0 {
            println!("lost cycles by cause:");
            for cause in StallCause::all() {
                if attr[&cause] > 0 {
                    println!("  {:<14} {:>8}", cause.name(), attr[&cause]);
                }
            }
        }
        // A Perfetto-screenshot-equivalent glimpse of the steady state.
        let width = 72u64;
        let window = steady.start..steady.end.min(steady.start + width);
        println!(
            "occupancy, cycles [{}, {}) (█ = lane issued, · = idle):",
            window.start, window.end
        );
        print!("{}", profile.ascii_timeline(0, &window, width as usize));
    }
    Ok(ExitCode::SUCCESS)
}

/// `sweep profile`.
pub(crate) fn profile(args: &Args) -> Result<ExitCode, String> {
    let record = run_observed(args, JobSpec::profiled)?;
    let profile = record.profile.as_ref().expect("profiled job carries a profile");
    let stats = record.stats.as_ref().expect("successful record carries stats");
    // The same program the engine just ran (the cache builds deterministically).
    let job = &record.job;
    let program = job.kernel.build_for(job.variant, job.n, job.block, job.config.cores());
    let map = RegionMap::new(&program);

    if let Some(path) = args.path("--flame") {
        write("profile", path, &flame::render(profile, &map), |text| {
            flame::validate(text).map(|stacks| format!("{stacks} stacks (collapsed format)"))
        })?;
    }
    if let Some(path) = args.path("--disasm") {
        write("profile", path, &disasm::render(profile, &program), unchecked)?;
    }
    if let Some(path) = args.path("--chrome") {
        write("profile", path, &perfetto::render(profile, &map), |json| {
            chrome::validate(json).map(|s| {
                format!(
                    "{} counters, {} region markers — load at ui.perfetto.dev",
                    s.counters, s.instants
                )
            })
        })?;
    }

    if !args.on("--quiet") {
        println!("{}: {} cycles, IPC {:.3}", job.label(), stats.cycles, stats.ipc());
        let hot = snitch_profile::hot_pcs(profile, args.top);
        if !hot.is_empty() {
            println!("hot pcs (top {} by core+frep cycles):", hot.len());
            println!("  address       region        core  issue  stall  frep  cause");
            for r in &hot {
                let idx = ((r.pc - snitch_asm::layout::TEXT_BASE) / 4) as usize;
                let cause = profile
                    .dominant_stall_at(idx)
                    .map_or_else(|| "-".to_string(), |(c, _)| c.name().to_string());
                println!(
                    "  {:#010x} {:<12} {:>7} {:>6} {:>6} {:>5}  {cause}",
                    r.pc,
                    map.region_of(r.pc),
                    r.core_cycles,
                    r.issued,
                    r.stalled,
                    r.seq_cycles,
                );
            }
        }
        let regions = region_rows(profile, &map);
        if !regions.is_empty() {
            println!("regions:");
            println!("  name          core cycles   issue   stall    frep  dominant stall");
            for [name, core, issued, stalled, seq, dom] in &regions {
                println!("  {name:<12} {core:>11} {issued:>7} {stalled:>7} {seq:>7}  {dom}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-region cycle ledger of a profile: name, core cycles, issued,
/// stalled, FREP cycles and the dominant stall, formatted for a table.
pub(crate) fn region_rows(profile: &snitch_profile::Profiler, map: &RegionMap) -> Vec<[String; 6]> {
    snitch_profile::regions(profile, map)
        .iter()
        .map(|r| {
            let stalled: u64 = StallCause::all().iter().map(|&c| r.stall(c)).sum();
            let dom = r
                .dominant_stall()
                .map_or_else(|| "-".to_string(), |(c, n)| format!("{} ({n})", c.name()));
            [
                r.name.clone(),
                r.core_cycles.to_string(),
                r.issued.to_string(),
                stalled.to_string(),
                r.seq_cycles.to_string(),
                dom,
            ]
        })
        .collect()
}
