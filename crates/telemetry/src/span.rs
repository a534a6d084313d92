//! The span vocabulary: executor phases and timed spans.

/// Pseudo-worker id for spans recorded on the batch's calling thread (the
/// ordered result collection and sink writing happen there, not on a pool
/// worker).
pub const MAIN_WORKER: u32 = u32::MAX;

/// One executor stage. Every wall-second of a batch lands in exactly one
/// phase (or in derived idle time); the taxonomy is the host-side analog of
/// `snitch_trace::StallCause`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phase {
    /// Program-cache miss: assembling a kernel program.
    Compile,
    /// Statically verifying a freshly compiled program (`snitch-verify`).
    Verify,
    /// Program-cache hit: lookup only.
    CacheHit,
    /// Constructing a worker's `System` because none existed or the
    /// configuration changed.
    Warm,
    /// Resetting a reused cluster between jobs.
    Reset,
    /// Simulating: load, run, validate, energy report.
    Simulate,
    /// Assembling the ordered result vector after the worker barrier
    /// (main thread).
    Collect,
    /// Serializing and writing result sinks (main thread).
    Sink,
}

impl Phase {
    /// Every phase, in report order.
    #[must_use]
    pub const fn all() -> [Phase; Phase::COUNT] {
        [
            Phase::Compile,
            Phase::Verify,
            Phase::CacheHit,
            Phase::Warm,
            Phase::Reset,
            Phase::Simulate,
            Phase::Collect,
            Phase::Sink,
        ]
    }

    /// Number of phases (array-index domain of [`index`](Self::index)).
    pub const COUNT: usize = 8;

    /// Dense index for per-phase accumulator arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Phase::Compile => 0,
            Phase::Verify => 1,
            Phase::CacheHit => 2,
            Phase::Warm => 3,
            Phase::Reset => 4,
            Phase::Simulate => 5,
            Phase::Collect => 6,
            Phase::Sink => 7,
        }
    }

    /// Stable `snake_case` name (METRICS.json field values, report rows).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Verify => "verify",
            Phase::CacheHit => "cache_hit",
            Phase::Warm => "warm",
            Phase::Reset => "reset",
            Phase::Simulate => "simulate",
            Phase::Collect => "collect",
            Phase::Sink => "sink",
        }
    }

    /// One-character tag for ASCII timelines.
    #[must_use]
    pub const fn tag(self) -> char {
        match self {
            Phase::Compile => 'C',
            Phase::Verify => 'V',
            Phase::CacheHit => 'c',
            Phase::Warm => 'W',
            Phase::Reset => 'r',
            Phase::Simulate => 'S',
            Phase::Collect => 'K',
            Phase::Sink => 'O',
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed phase on one worker, in nanoseconds since the collector's
/// epoch (relative timestamps keep spans comparable across threads and keep
/// absolute host time out of every artifact).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Worker index within the batch's pool, or [`MAIN_WORKER`].
    pub worker: u32,
    /// Job index within the batch, when the phase is job-scoped.
    pub job: Option<u32>,
    /// What the time was spent on.
    pub phase: Phase,
    /// Start, ns since the collector epoch.
    pub start_ns: u64,
    /// End, ns since the collector epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in Phase::all().iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: std::collections::HashSet<&str> =
            Phase::all().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::COUNT, "phase names are distinct");
    }

    #[test]
    fn span_duration_saturates() {
        let s = Span { worker: 0, job: None, phase: Phase::Simulate, start_ns: 10, end_ns: 25 };
        assert_eq!(s.dur_ns(), 15);
        let backwards = Span { start_ns: 25, end_ns: 10, ..s };
        assert_eq!(backwards.dur_ns(), 0);
    }
}
