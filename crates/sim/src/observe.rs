//! The one charge site for issue slots: every issued instruction and every
//! lost cycle of the core, the FPU and the FREP sequencer is booked here,
//! against the [`Stats`] counters, the profiler and the tracer together —
//! so a profile and its `Stats` agree by construction, whichever loop ran.

use snitch_profile::Profiler;
use snitch_riscv::inst::Inst;
use snitch_trace::{EventKind, Lane, StallCause, Tracer};

use crate::stats::Stats;
use crate::trace_event;

/// Borrowed view of one hart's statistics and the cluster's optional
/// tracer and profiler, handed down the issue path for one cycle.
pub(crate) struct Observer<'a> {
    pub(crate) stats: &'a mut Stats,
    pub(crate) tracer: &'a mut Option<Tracer>,
    pub(crate) profiler: &'a mut Option<Profiler>,
}

impl Observer<'_> {
    /// Books `cycles` lost cycles against `cause`, charged to the
    /// instruction at `pc`. `now` is the first lost cycle (the next cycle
    /// for a taken branch's refill window, whose branch itself issues).
    #[inline]
    pub(crate) fn stall(&mut self, now: u64, hart: u8, pc: u32, cause: StallCause, cycles: u32) {
        if cycles == 0 {
            return;
        }
        self.stats.add_stall(cause, u64::from(cycles));
        if let Some(p) = self.profiler {
            p.stall(usize::from(hart), pc, cause, u64::from(cycles));
        }
        trace_event!(self.tracer, now, hart, EventKind::Stall { cause, cycles });
    }

    /// Books one issue of `inst` (from `pc`) on `lane`: `int_issued`,
    /// `fp_issued_core` or `fp_issued_seq`. Sequencer replays carry no pc in
    /// the trace (the ring holds none), but the profiler bills the pc the
    /// core offloaded them from.
    #[inline]
    pub(crate) fn issue(&mut self, now: u64, hart: u8, pc: u32, lane: Lane, inst: Inst) {
        match lane {
            Lane::Int => self.stats.int_issued += 1,
            Lane::FpCore => self.stats.fp_issued_core += 1,
            Lane::FpSeq => self.stats.fp_issued_seq += 1,
        }
        if let Some(p) = self.profiler {
            p.issue(usize::from(hart), pc, lane);
        }
        let trace_pc = (lane != Lane::FpSeq).then_some(pc);
        trace_event!(self.tracer, now, hart, EventKind::Issue { lane, pc: trace_pc, inst });
    }
}
