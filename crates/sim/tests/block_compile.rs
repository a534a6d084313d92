//! Equivalence of the block-compiled fast path against the force-stepped
//! reference loop: pseudo-random programs (integer loops, FP and FREP
//! bodies, SSR streams, DMA copies with wait loops, barriers) must produce
//! bit-identical [`Stats`](snitch_sim::Stats) (including final cycle
//! counts), FP registers and memory with block compilation enabled and with
//! both fast paths disabled — plus engagement pins that the burst actually
//! fired, and fallback pins that tracers and the deadlock/timeout watchdogs
//! behave identically.
//!
//! The program generator is the shared one in [`snitch_sim::testing`]; the
//! quiescent-skip path has its own suite in `quiescent_skip.rs`.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::{TCDM_BASE, TEXT_BASE};
use snitch_riscv::csr::SsrCfgWord;
use snitch_riscv::inst::Inst;
use snitch_riscv::reg::IntReg;
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_sim::error::RunError;
use snitch_sim::testing::{observe_with, random_program, Observation, Rng};

/// The reference arm: every fast path off, pure per-cycle stepping.
fn observe_stepped(program: &snitch_asm::program::Program, cores: usize) -> Observation {
    observe_with(program, cores, |c| {
        c.set_block_compile(false);
        c.set_quiescent_skip(false);
    })
}

#[test]
fn block_matches_force_stepped_reference_on_random_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0002);
    for case in 0..40 {
        let cores = [1, 1, 2, 4][rng.below(4) as usize];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let fast = observe_with(&program, cores, |_| {}); // both fast paths on (defaults)
        let reference = observe_stepped(&program, cores);
        assert_eq!(fast.stats, reference.stats, "stats diverge (case {case}, cores {cores})");
        assert_eq!(fast.fp_regs, reference.fp_regs, "fp registers diverge (case {case})");
        assert_eq!(fast.tcdm, reference.tcdm, "memory diverges (case {case})");
    }
}

/// Engagement pin on the random population: single-core programs start with
/// every burst entry guard satisfied, so the fast path must fire on each of
/// them — and its counter stays disjoint from the quiescent-skip counter.
#[test]
fn block_burst_engages_on_random_single_core_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0003);
    for case in 0..10 {
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, 1, frags);
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&program);
        let stats = c.run().expect("random program completes");
        assert!(
            c.block_replayed_cycles() > 0,
            "burst never engaged (case {case}, {} cycles)",
            stats.cycles
        );
        assert!(
            c.block_replayed_cycles() + c.skipped_cycles() <= stats.cycles,
            "fast-path counters overlap (case {case})"
        );
    }
}

/// On a pure integer program the burst owns the run end to end: every
/// elapsed cycle is a replayed cycle, and the quiescent-skip path (which
/// would otherwise fast-forward the branch refill windows) never engages.
#[test]
fn block_burst_owns_a_pure_integer_run() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 500);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let p = b.build().unwrap();

    let mut c = Cluster::new(ClusterConfig::default());
    c.load_program(&p);
    let stats = c.run().unwrap();
    assert_eq!(c.block_replayed_cycles(), stats.cycles, "the whole run bursts");
    assert_eq!(c.skipped_cycles(), 0, "nothing left for the quiescent path");

    let mut reference = Cluster::new(ClusterConfig::default());
    reference.set_block_compile(false);
    reference.set_quiescent_skip(false);
    reference.load_program(&p);
    let ref_stats = reference.run().unwrap();
    assert_eq!(reference.block_replayed_cycles(), 0);
    assert_eq!(stats, ref_stats);
}

/// A recording tracer forces the stepper (the burst has no event hooks), so
/// traced runs must be cycle- and event-identical with block compilation on
/// vs off — and the engagement counter must stay at zero.
#[test]
fn traced_runs_are_event_identical_block_on_vs_off() {
    let mut rng = Rng(0xb10c_cafe_f00d_0004);
    let program = random_program(&mut rng, 1, 5);

    let run = |block: bool| {
        let mut c = Cluster::new(ClusterConfig::traced());
        c.set_block_compile(block);
        c.load_program(&program);
        let stats = c.run().expect("traced program completes");
        let replayed = c.block_replayed_cycles();
        let events = c.take_tracer().expect("cfg.trace attaches a tracer");
        (stats, replayed, events.into_events())
    };
    let (on_stats, on_replayed, on_events) = run(true);
    let (off_stats, _, off_events) = run(false);
    assert_eq!(on_replayed, 0, "a recording tracer must force the stepper");
    assert_eq!(on_stats, off_stats, "traced stats diverge");
    assert_eq!(on_events, off_events, "traced event streams diverge");
}

/// The deadlock watchdog must report the same cycle and pc with the burst
/// on and off (the burst bails out long before the deadlock window closes,
/// leaving the report to the reference path).
#[test]
fn deadlock_reported_at_identical_cycles_block_on_vs_off() {
    // An armed SSR stream nobody consumes: reconfiguring it stalls forever.
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 3);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
    b.li(IntReg::A0, 8);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
    b.li_u(IntReg::A0, TCDM_BASE);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // stalls forever
    b.ecall();
    let p = b.build().unwrap();

    let run = |block: bool| {
        let mut c = Cluster::new(ClusterConfig::default());
        c.set_block_compile(block);
        c.set_quiescent_skip(block); // reference arm: everything off
        c.load_program(&p);
        c.run()
    };
    match (run(true), run(false)) {
        (
            Err(RunError::Deadlock { cycle: c1, pc: p1 }),
            Err(RunError::Deadlock { cycle: c2, pc: p2 }),
        ) => {
            assert_eq!((c1, p1), (c2, p2), "deadlock report must be cycle-identical");
        }
        other => panic!("expected two deadlocks, got {other:?}"),
    }
}

/// The timeout watchdog must fire at exactly `max_cycles` with the burst on
/// and off, even when the limit lands mid-burst (the burst clamps to it).
#[test]
fn timeout_reported_at_identical_cycles_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 1_000_000);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let p = b.build().unwrap();

    let run = |block: bool, max_cycles: u64| {
        let mut c = Cluster::new(ClusterConfig { max_cycles, ..ClusterConfig::default() });
        c.set_block_compile(block);
        c.set_quiescent_skip(block);
        c.load_program(&p);
        c.run()
    };
    for max_cycles in 50..58 {
        match (run(true, max_cycles), run(false, max_cycles)) {
            (Err(RunError::Timeout { cycles: c1 }), Err(RunError::Timeout { cycles: c2 })) => {
                assert_eq!(c1, c2, "timeout at limit {max_cycles}");
                assert_eq!(c1, max_cycles);
            }
            other => panic!("expected two timeouts at limit {max_cycles}, got {other:?}"),
        }
    }
}

/// A jump to a pc that is not 4-byte aligned is a fault naming the pc, at
/// the same cycle with the burst on and off — never a silent issue of the
/// instruction at the truncated index (here `text[4]`, which would leave
/// `a0 = 110` and halt cleanly).
#[test]
fn misaligned_jump_target_faults_identically_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.li_u(IntReg::T0, TEXT_BASE + 18); // lui + addi: text[0..2]
    b.inst(Inst::Jalr { rd: IntReg::ZERO, rs1: IntReg::T0, offset: 0 }); // text[2]
    b.ecall(); // text[3]
    b.li(IntReg::A0, 110); // text[4]
    b.ecall(); // text[5]
    let p = b.build().unwrap();
    assert_eq!(p.text().len(), 6, "layout the test relies on");

    let run = |block: bool| {
        let mut c = Cluster::new(ClusterConfig::default());
        c.set_block_compile(block);
        c.set_quiescent_skip(block);
        c.load_program(&p);
        let result = c.run();
        (result, c.stats().cycles, c.int_reg(IntReg::A0))
    };
    let (on, on_cycles, on_a0) = run(true);
    let (off, off_cycles, off_a0) = run(false);
    match &on {
        Err(RunError::Fault(e)) => {
            assert!(e.to_string().contains("0x80000012"), "fault names the pc: {e}");
        }
        other => panic!("expected a misaligned-pc fault, got {other:?}"),
    }
    assert_eq!(on, off, "fault must be identical with the burst on and off");
    assert_eq!(on_cycles, off_cycles, "fault must be raised at the same cycle");
    assert_eq!((on_a0, off_a0), (0, 0), "the truncated-index instruction must not run");
}

/// `dmcpyi` whose write-back collides with a `mul` retiring the same cycle
/// stalls on the single write port; the stalled attempt must not queue
/// the transfer, so the retry moves the 8 bytes exactly once.
#[test]
fn dmcpyi_stalled_on_the_write_back_port_queues_its_transfer_once() {
    let mut b = ProgramBuilder::new();
    let dst = b.tcdm_reserve("dst", 8, 8);
    b.li_u(IntReg::A3, TCDM_BASE);
    b.dmsrc(IntReg::A3);
    b.li_u(IntReg::A4, dst);
    b.dmdst(IntReg::A4);
    b.li(IntReg::A5, 8);
    b.li(IntReg::A0, 3);
    b.li(IntReg::A1, 5);
    b.mul(IntReg::A2, IntReg::A0, IntReg::A1); // writes back two cycles later...
    b.dmcpyi(IntReg::A6, IntReg::A5); // ...the cycle this one would
    b.label("wait");
    b.dmstati(IntReg::A7);
    b.bnez(IntReg::A7, "wait");
    b.ecall();
    let p = b.build().unwrap();
    for block in [true, false] {
        let mut c = Cluster::new(ClusterConfig::default());
        c.set_block_compile(block);
        c.set_quiescent_skip(block);
        c.load_program(&p);
        let stats = c.run().expect("copy completes");
        assert_eq!(stats.stall_wb_port, 1, "the dmcpyi stalls once (block {block})");
        assert_eq!(stats.dma_beats, 1, "one 8-byte beat, queued once (block {block})");
        assert_eq!(c.int_reg(IntReg::A2), 15);
    }
}
