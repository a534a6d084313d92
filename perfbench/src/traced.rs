//! The traced run: the pinned jobs driven one by one through the same
//! public calls the engine makes, in the same order, with one span per
//! call. Kept apart from the timed passes, which run untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use snitch_energy::EnergyModel;
use snitch_engine::{JobSpec, ProgramCache, RunRecord};
use snitch_kernels::RunOutcome;
use snitch_sim::{Stats, System};

use crate::host::json_str;
use crate::pass::{observe_profile, observe_trace, write_sinks, Observed, Probe, Sinks};

/// Name of the span around the whole traced run.
const ROOT: &str = "bench.traced_run";
/// Name of the span around one job; its self time is the benchmark's own
/// loop, not a layer.
const JOB: &str = "job";

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer called (or [`ROOT`] / [`JOB`]).
    pub name: &'static str,
    /// Start, in ns since the run began.
    pub start: u64,
    /// End, in ns since the run began.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the job the call served.
    pub job: Option<usize>,
}

/// In-memory span recorder.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), job: None }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            job: self.job,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost span under `name` (a call whose layer is known
    /// only from its result, such as a cache lookup that had to build).
    fn end_as(&mut self, name: &'static str) {
        let i = self.open.pop().expect("end_as closes an open span");
        self.spans[i].end = self.now();
        self.spans[i].name = name;
    }

    fn end(&mut self) {
        let i = *self.open.last().expect("end closes an open span");
        let name = self.spans[i].name;
        self.end_as(name);
    }
}

impl Probe for Recorder {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// How a run's simulated cycles were advanced, summed over clusters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Regime {
    /// Cycles replayed by block-compiled bursts.
    pub burst: u64,
    /// Cycles advanced by the all-units stepper.
    pub stepped: u64,
    /// Cycles fast-forwarded by the quiescent skip.
    pub skipped: u64,
    /// Sum of the clusters' own cycle counts: the denominator of the split.
    /// The system's cycle count is the maximum over clusters, so on a
    /// multi-cluster run it is smaller than the cycles the clusters advanced.
    pub cluster_cycles: u64,
}

impl Regime {
    /// Splits a finished run's cycles. The simulator counts burst and
    /// skipped cycles; stepped cycles are each cluster's remainder, which
    /// must not be negative.
    ///
    /// # Errors
    ///
    /// Fails if a cluster's burst and skipped cycles exceed its cycles, or
    /// the per-cluster burst counts do not sum to the system's.
    pub fn of(system: &System) -> Result<Regime, String> {
        let mut r = Regime::default();
        for k in 0..system.clusters() {
            let cycles = system.cluster_stats(k).cycles;
            let burst = system.cluster(k).block_replayed_cycles();
            let skipped = system.cluster(k).skipped_cycles();
            let stepped = cycles.checked_sub(burst + skipped).ok_or_else(|| {
                format!("cluster {k}: burst {burst} + skipped {skipped} exceed its {cycles} cycles")
            })?;
            r += Regime { burst, stepped, skipped, cluster_cycles: cycles };
        }
        if r.burst != system.block_replayed_cycles() {
            return Err(format!(
                "per-cluster burst cycles sum to {}, the system reports {}",
                r.burst,
                system.block_replayed_cycles()
            ));
        }
        Ok(r)
    }

    /// Whether burst + stepped + skipped equals the summed cluster cycles.
    #[must_use]
    pub fn sums_exactly(&self) -> bool {
        self.burst + self.stepped + self.skipped == self.cluster_cycles
    }
}

impl std::ops::AddAssign for Regime {
    fn add_assign(&mut self, o: Regime) {
        self.burst += o.burst;
        self.stepped += o.stepped;
        self.skipped += o.skipped;
        self.cluster_cycles += o.cluster_cycles;
    }
}

/// A layer's share of the traced run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Layer {
    /// Span durations minus the parts their child spans cover, in seconds.
    pub self_s: f64,
    /// Calls into the layer.
    pub calls: u64,
}

/// Everything the traced run measured.
pub struct TracedRun {
    /// Wall time of the whole run, in seconds.
    pub wall_s: f64,
    /// Self time and calls per layer.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Share of the wall time that layer self times account for.
    pub coverage: f64,
    /// Records built exactly as the engine builds them.
    pub records: Vec<RunRecord>,
    /// Per-job cycle split, in job order.
    pub regimes: Vec<Regime>,
    /// System statistics summed over jobs (`cycles` included).
    pub model: Stats,
    /// Rendered traces and profiles.
    pub observed: Observed,
    /// Line-sink output.
    pub sinks: Sinks,
    /// Program lookups served from the cache.
    pub cache_hits: u64,
    /// Program lookups that built a program.
    pub cache_misses: u64,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl TracedRun {
    /// A layer's figures (zero when it was never called).
    #[must_use]
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                json_str(s.name),
                s.start,
                s.end,
                opt(s.parent),
                opt(s.job)
            );
        }
        out
    }
}

/// Runs the jobs one by one as a fresh single-worker engine would — cold
/// program cache, one `System` reused while the configuration holds — with
/// a span around every call into a layer.
///
/// # Errors
///
/// Fails on the first job that fails verification, simulation or its
/// golden check, or whose trace or profile breaks its format.
pub fn traced_run(jobs: &[JobSpec]) -> Result<TracedRun, String> {
    let mut rec = Recorder::new();
    let cache = ProgramCache::new();
    let mut system: Option<System> = None;
    let mut records = Vec::with_capacity(jobs.len());
    let mut regimes = Vec::with_capacity(jobs.len());
    let mut model = Stats::default();
    let mut observed = Observed::default();
    rec.begin(ROOT);
    for (i, job) in jobs.iter().enumerate() {
        rec.job = Some(i);
        rec.begin(JOB);
        let key = job.program_key();
        rec.begin("engine.cache");
        let (program, hit) = cache.get_with_status(key);
        rec.end_as(if hit { "engine.cache" } else { "kernels.build" });
        rec.begin("engine.cache");
        let (diagnostics, verified) = cache.diagnostics_for(key, &program, &job.config);
        rec.end_as(if verified { "verify" } else { "engine.cache" });
        if snitch_verify::has_errors(&diagnostics) {
            return Err(format!("{}: program fails static verification", job.label()));
        }
        if system.as_ref().is_none_or(|s| *s.config() != job.config) {
            system = Some(rec.span("engine.warm", || System::new(job.config.clone())));
        }
        let system = system.as_mut().expect("system was just ensured");
        rec.span("engine.reset", || system.reset());
        rec.span("sim.load", || system.load_program(&program));
        let stats = rec
            .span("sim.run", || system.run())
            .map_err(|e| format!("{}: simulation failed: {e}", job.label()))?;
        rec.span("kernels.check", || job.kernel.check(job.variant, job.n, &program, system))
            .map_err(|e| format!("{}: {e}", job.label()))?;
        let report = rec.span("energy.report", || EnergyModel::gf12lp().report(&stats));
        regimes.push(Regime::of(system).map_err(|e| format!("{}: {e}", job.label()))?);
        let cycles = model.cycles + stats.cycles;
        model.accumulate(&stats);
        model.cycles = cycles;
        let record = rec.span("engine.record", || {
            let outcome = RunOutcome {
                total_cycles: stats.cycles,
                power_mw: report.avg_power_mw,
                energy_uj: report.energy_uj,
                stats,
            };
            let mut record = RunRecord::success(job.clone(), &outcome);
            record.block_replayed_cycles = system.block_replayed_cycles();
            if job.trace() {
                record = record.with_trace(system.trace_events().unwrap_or_default().to_vec());
            }
            if let Some(profile) = system.profile().filter(|_| job.profile()) {
                record = record.with_profile(profile.clone());
            }
            record
        });
        observed += observe_trace(&mut rec, &record)?;
        observed += observe_profile(&mut rec, &record, &program)?;
        records.push(record);
        rec.end();
    }
    rec.job = None;
    let sinks = write_sinks(&mut rec, &records);
    rec.end();
    let (layers, coverage) = self_times(&rec.spans);
    Ok(TracedRun {
        wall_s: ns_to_s(rec.spans[0].end - rec.spans[0].start),
        layers,
        coverage,
        records,
        regimes,
        model,
        observed,
        sinks,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        spans: rec.spans,
    })
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Self time per layer, and the share of the root span those self times
/// cover (the rest is the benchmark's own loop between calls).
fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, Layer>, f64) {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= s.end - s.start;
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut covered = 0;
    for (s, &ns) in spans.iter().zip(&self_ns) {
        if s.name == ROOT || s.name == JOB {
            continue;
        }
        covered += ns;
        let layer = layers.entry(s.name).or_default();
        layer.self_s += ns_to_s(ns);
        layer.calls += 1;
    }
    let wall = spans[0].end - spans[0].start;
    (layers, covered as f64 / wall.max(1) as f64)
}
