//! The [`Telemetry`] collector the engine records spans and counters into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::span::{Phase, Span};

/// Shared host-telemetry handle.
///
/// Mirrors the `snitch_trace::Tracer` contract one level up: an engine
/// either runs with a *disabled* handle (the default — every hook is one
/// `Option` branch, no clock is read, nothing allocates) or an *enabled*
/// one that records [`Span`]s and progress counters. Handles are cheap to
/// clone (`Arc` inside); clones share one span log and one epoch, so spans
/// recorded on different worker threads are directly comparable.
///
/// Telemetry is deliberately invisible to results: it never touches job
/// specs, cache keys, config fingerprints or record serialization, so runs
/// with and without telemetry produce byte-identical sink files.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    jobs_total: AtomicU64,
    jobs_done: AtomicU64,
    started: AtomicU64,
}

impl Telemetry {
    /// An enabled collector; its epoch is the moment of construction.
    #[must_use]
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                jobs_total: AtomicU64::new(0),
                jobs_done: AtomicU64::new(0),
                started: AtomicU64::new(0),
            })),
        }
    }

    /// A disabled collector: every operation is a no-op behind a single
    /// branch. This is what `Engine::run` uses, and what the telemetry
    /// overhead guard of `sweep perf` measures against the enabled path.
    #[must_use]
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// Whether spans and counters are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts timing a phase: reads the clock only when enabled. Pass the
    /// result to [`finish`](Self::finish).
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Ends a phase started with [`start`](Self::start) and records the
    /// span (no-op when disabled or when `started` is `None`).
    pub fn finish(&self, started: Option<Instant>, worker: u32, job: Option<u32>, phase: Phase) {
        if let (Some(inner), Some(t0)) = (self.inner.as_deref(), started) {
            let end = Instant::now();
            let span = Span {
                worker,
                job,
                phase,
                start_ns: duration_ns(inner.epoch, t0),
                end_ns: duration_ns(inner.epoch, end),
            };
            inner.spans.lock().unwrap().push(span);
        }
    }

    /// Times `f` as one span of `phase` (records nothing when disabled —
    /// the closure runs either way and its value is returned).
    pub fn time<T>(&self, worker: u32, job: Option<u32>, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.finish(t0, worker, job, phase);
        out
    }

    /// Opens a new batch: sets the total job count and clears the progress
    /// counters. Spans from earlier batches on the same handle are kept
    /// (one handle can observe a whole multi-batch session).
    pub fn begin_batch(&self, jobs_total: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.jobs_total.store(jobs_total, Ordering::Relaxed);
            inner.jobs_done.store(0, Ordering::Relaxed);
            inner.started.store(0, Ordering::Relaxed);
        }
    }

    /// Marks one job dispatched to a worker (feeds the queue-depth
    /// counter: `jobs_total - jobs_started` is the depth of the shared
    /// queue).
    pub fn job_started(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.started.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks one job finished (its record is in its slot).
    pub fn job_done(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.jobs_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(done, started, total)` progress counters of the current batch,
    /// or `None` when disabled. Safe to poll from any thread while a batch
    /// runs — this is what drives the sweep CLI's progress line.
    #[must_use]
    pub fn progress(&self) -> Option<(u64, u64, u64)> {
        self.inner.as_deref().map(|inner| {
            (
                inner.jobs_done.load(Ordering::Relaxed),
                inner.started.load(Ordering::Relaxed),
                inner.jobs_total.load(Ordering::Relaxed),
            )
        })
    }

    /// Nanoseconds elapsed since the collector's epoch (0 when disabled).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.as_deref().map_or(0, |inner| duration_ns(inner.epoch, Instant::now()))
    }

    /// A snapshot of the recorded spans, sorted by `(start, worker, phase)`
    /// so the snapshot is stable regardless of which worker won the log
    /// mutex last.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .inner
            .as_deref()
            .map(|inner| inner.spans.lock().unwrap().clone())
            .unwrap_or_default();
        spans.sort_by_key(|s| (s.start_ns, s.worker, s.phase.index()));
        spans
    }

    /// Discards all recorded spans (counters are reset by
    /// [`begin_batch`](Self::begin_batch)).
    pub fn clear(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.spans.lock().unwrap().clear();
        }
    }
}

/// Nanoseconds from `epoch` to `t`, saturating at zero.
fn duration_ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_passes_values_through() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        let out = tel.time(0, Some(3), Phase::Simulate, || 42);
        assert_eq!(out, 42);
        tel.begin_batch(10);
        tel.job_started();
        tel.job_done();
        assert!(tel.spans().is_empty());
        assert_eq!(tel.progress(), None);
        assert_eq!(tel.start(), None);
    }

    #[test]
    fn enabled_handle_records_ordered_spans() {
        let tel = Telemetry::new();
        tel.time(1, Some(0), Phase::Warm, || std::hint::black_box(0));
        tel.time(1, Some(0), Phase::Simulate, || std::hint::black_box(0));
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Warm);
        assert_eq!(spans[1].phase, Phase::Simulate);
        assert!(spans[0].start_ns <= spans[1].start_ns, "spans sorted by start");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[0].job, Some(0));
    }

    #[test]
    fn clones_share_one_log_and_one_counter_set() {
        let tel = Telemetry::new();
        let worker_handle = tel.clone();
        tel.begin_batch(4);
        worker_handle.job_started();
        worker_handle.job_done();
        worker_handle.time(0, None, Phase::Collect, || ());
        assert_eq!(tel.progress(), Some((1, 1, 4)));
        assert_eq!(tel.spans().len(), 1);
        tel.clear();
        assert!(worker_handle.spans().is_empty());
    }

    #[test]
    fn begin_batch_resets_progress_but_keeps_spans() {
        let tel = Telemetry::new();
        tel.begin_batch(2);
        tel.job_started();
        tel.job_done();
        tel.time(0, Some(0), Phase::Simulate, || ());
        tel.begin_batch(8);
        assert_eq!(tel.progress(), Some((0, 0, 8)));
        assert_eq!(tel.spans().len(), 1, "span log survives across batches");
    }
}
