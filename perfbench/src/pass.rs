//! The measured work: cold cache fills and warm passes over a pinned batch,
//! plus the observation and sink steps a pass shares with the traced run.

use std::time::Instant;

use snitch_asm::program::Program;
use snitch_engine::{sink, Engine, JobSpec, RunRecord};
use snitch_profile::{disasm, flame, perfetto, RegionMap};
use snitch_telemetry::Telemetry;
use snitch_trace::chrome;

use crate::manifest::{fnv1a, FNV_OFFSET};

/// Where a span opens around a call into a layer. The timed passes use
/// [`Untraced`], which only calls through; the traced run records spans.
pub trait Probe {
    /// Runs `f` as one call into the layer `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The probe of the timed passes: no spans.
pub struct Untraced;

impl Probe for Untraced {
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// What rendering a batch's traces and profiles produced.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Observed {
    /// Recorded trace events rendered.
    pub trace_events: u64,
    /// Bytes of Chrome trace-event JSON rendered.
    pub chrome_bytes: u64,
    /// Bytes of flamegraph, Perfetto JSON and annotated disassembly.
    pub profile_bytes: u64,
}

impl std::ops::AddAssign for Observed {
    fn add_assign(&mut self, o: Observed) {
        self.trace_events += o.trace_events;
        self.chrome_bytes += o.chrome_bytes;
        self.profile_bytes += o.profile_bytes;
    }
}

/// Renders and validates a traced record's Chrome trace, as the `trace`
/// command does.
///
/// # Errors
///
/// Fails if the rendered JSON breaks the trace-event schema.
pub fn observe_trace<P: Probe>(probe: &mut P, record: &RunRecord) -> Result<Observed, String> {
    let Some(events) = &record.trace else { return Ok(Observed::default()) };
    let json = probe.span("trace.chrome.render", || chrome::render(events));
    probe
        .span("trace.chrome.validate", || chrome::validate(&json))
        .map_err(|e| format!("{}: Chrome trace fails its schema: {e}", record.job.label()))?;
    Ok(Observed {
        trace_events: events.len() as u64,
        chrome_bytes: json.len() as u64,
        profile_bytes: 0,
    })
}

/// Renders and validates every sink of a profiled record, as the `profile`
/// command does: flamegraph, Perfetto counter tracks and annotated
/// disassembly.
///
/// # Errors
///
/// Fails if the flamegraph or the Perfetto JSON breaks its format.
pub fn observe_profile<P: Probe>(
    probe: &mut P,
    record: &RunRecord,
    program: &Program,
) -> Result<Observed, String> {
    let Some(profile) = &record.profile else { return Ok(Observed::default()) };
    let (stacks, counters, listing) = probe.span("profile.render", || {
        let map = RegionMap::new(program);
        (
            flame::render(profile, &map),
            perfetto::render(profile, &map),
            disasm::render(profile, program),
        )
    });
    probe
        .span("profile.validate", || {
            flame::validate(&stacks)?;
            chrome::validate(&counters).map(|_| ())
        })
        .map_err(|e| format!("{}: profile sink fails its format: {e}", record.job.label()))?;
    Ok(Observed {
        profile_bytes: (stacks.len() + counters.len() + listing.len()) as u64,
        ..Observed::default()
    })
}

/// Identity of a batch's JSON-lines and CSV output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sinks {
    /// FNV-1a over the JSON-lines bytes, then the CSV bytes.
    pub digest: u64,
    /// Bytes written to both sinks.
    pub bytes: u64,
}

/// Writes both line sinks of a batch.
pub fn write_sinks<P: Probe>(probe: &mut P, records: &[RunRecord]) -> Sinks {
    let (jsonl, csv) =
        probe.span("engine.sink", || (sink::to_jsonl(records), sink::to_csv(records)));
    Sinks {
        digest: fnv1a(fnv1a(FNV_OFFSET, jsonl.as_bytes()), csv.as_bytes()),
        bytes: (jsonl.len() + csv.len()) as u64,
    }
}

/// Fills a fresh engine's program cache cold — every distinct program
/// compiled and verified, the work each `sweep` process does before it
/// simulates — through the same cache calls the engine's workers make.
/// Returns the host seconds of each job's lookups, in job order.
///
/// # Errors
///
/// Fails if a program has verifier errors.
pub fn fill_cache(engine: &Engine, jobs: &[JobSpec]) -> Result<Vec<f64>, String> {
    let mut seconds = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t0 = Instant::now();
        let key = job.program_key();
        let program = engine.cache().get(key);
        let (diagnostics, _) = engine.cache().diagnostics_for(key, &program, &job.config);
        seconds.push(t0.elapsed().as_secs_f64());
        if snitch_verify::has_errors(&diagnostics) {
            return Err(format!("{}: program fails static verification", job.label()));
        }
    }
    Ok(seconds)
}

/// One timed pass, and the host seconds of each of its pieces.
pub struct Pass {
    /// Host seconds from submitting the batch to the written sinks.
    pub seconds: f64,
    /// Per job, in job order: host seconds from its first engine span
    /// (cache lookup) to its last (simulation).
    pub jobs: Vec<f64>,
    /// Host seconds of `Engine::run` as a whole.
    pub engine_s: f64,
    /// Host seconds of the calling thread's work after `Engine::run`: per
    /// record, rendering and validating its trace and profile, then the
    /// line sinks last.
    pub serial: Vec<f64>,
    /// The engine's records, in job order.
    pub records: Vec<RunRecord>,
    /// The pass's line-sink output.
    pub sinks: Sinks,
    /// The pass's rendered traces and profiles.
    pub observed: Observed,
}

/// One pass over the batch on `engine`: run every job, render and validate
/// every requested trace and profile, write both line sinks.
///
/// The engine runs with its span collector on, which costs a clock read
/// per phase and leaves the records unchanged, so that each job's host
/// time is known.
///
/// # Errors
///
/// Fails if a rendered trace or profile breaks its format.
pub fn pass(engine: &Engine, jobs: &[JobSpec]) -> Result<Pass, String> {
    let telemetry = Telemetry::new();
    let t0 = Instant::now();
    let records = engine.run_with(jobs, &telemetry);
    let engine_s = t0.elapsed().as_secs_f64();
    let mut observed = Observed::default();
    let mut serial = Vec::with_capacity(records.len() + 1);
    for record in &records {
        let t = Instant::now();
        observed += observe_trace(&mut Untraced, record)?;
        if record.profile.is_some() {
            let program = engine.cache().get(record.job.program_key());
            observed += observe_profile(&mut Untraced, record, &program)?;
        }
        serial.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let sinks = write_sinks(&mut Untraced, &records);
    serial.push(t.elapsed().as_secs_f64());
    let seconds = t0.elapsed().as_secs_f64();

    let mut bounds = vec![(u64::MAX, 0); jobs.len()];
    for span in telemetry.spans() {
        if let Some(b) = span.job.and_then(|j| bounds.get_mut(j as usize)) {
            *b = (b.0.min(span.start_ns), b.1.max(span.end_ns));
        }
    }
    let jobs = bounds.iter().map(|&(a, b)| b.saturating_sub(a) as f64 * 1e-9).collect();
    Ok(Pass { seconds, jobs, engine_s, serial, records, sinks, observed })
}

/// The fastest host time seen for each piece of a pass, over the passes of
/// a run, and the pass they add up to.
///
/// Other tenants of a shared host slow whatever they overlap, in bursts
/// shorter than a pass; they never speed anything up. A piece a few
/// milliseconds long runs uncontended at least once in a run far more
/// often than a whole pass does, so the sum of the pieces' minima is far
/// steadier from run to run than the fastest whole pass.
pub struct Best {
    workers: usize,
    jobs: Vec<f64>,
    /// `Engine::run` time not covered by the jobs as scheduled: thread
    /// start and join, record assembly.
    engine_rest: f64,
    serial: Vec<f64>,
}

impl Best {
    /// An empty tally for a pool of `workers`.
    #[must_use]
    pub fn new(workers: usize) -> Best {
        Best { workers, jobs: Vec::new(), engine_rest: f64::INFINITY, serial: Vec::new() }
    }

    /// Folds one pass in.
    pub fn add(&mut self, p: &Pass) {
        fold_min(&mut self.jobs, &p.jobs);
        fold_min(&mut self.serial, &p.serial);
        self.engine_rest = self.engine_rest.min(p.engine_s - makespan(&p.jobs, self.workers));
    }

    /// Host seconds of a pass made of the fastest pieces: the engine's
    /// pool scheduling the fastest job times, plus the fastest rest of
    /// `Engine::run`, plus the fastest of each serial piece.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        makespan(&self.jobs, self.workers) + self.engine_rest + self.serial.iter().sum::<f64>()
    }
}

/// Lowers each of `best` to the matching time of `sample`; an empty `best`
/// takes `sample` as it is.
pub fn fold_min(best: &mut Vec<f64>, sample: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(sample);
    }
    for (b, s) in best.iter_mut().zip(sample) {
        *b = b.min(*s);
    }
}

/// When the last of `workers` finishes, each taking the next job in order
/// as soon as it is free, as the engine's pool does.
#[must_use]
pub fn makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0_f64; workers.max(1)];
    for job in jobs {
        let next = free.iter_mut().min_by(|a, b| a.total_cmp(b)).expect("at least one worker");
        *next += job;
    }
    free.into_iter().fold(0.0, f64::max)
}
