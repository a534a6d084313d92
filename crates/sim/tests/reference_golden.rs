//! The reference observations, frozen as data: what the force-stepped
//! per-cycle loop (block compilation and quiescent skip both off) produced
//! for the 40 seeded random programs of `tests/block_compile.rs` and for
//! every paper kernel × variant at its smoke point — `Stats`, the non-zero
//! FP registers and a digest of the first 16 KiB of TCDM, plus, for the
//! kernels, the event count and event-stream digest of one traced run.
//!
//! Both execution modes must reproduce `goldens/reference.txt` line for
//! line: the stepper (every fast path off) and the defaults (block bursts
//! and quiescent skip on). A mismatch names the first differing line. The
//! fixture is data, never rewritten by this test.

use std::fmt::Write as _;

use snitch_asm::program::Program;
use snitch_kernels::{Kernel, Variant};
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_sim::testing::{observe_with, random_program, Observation, Rng};
use snitch_trace::{EventKind, TraceEvent, Tracer};

const FIXTURE: &str = include_str!("goldens/reference.txt");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One event in a fixed byte layout: cycle, hart, then a kind tag and its
/// fields (instructions by their binary encoding, causes by their stable
/// names).
fn hash_event(h: &mut Fnv, e: &TraceEvent) {
    h.u64(e.cycle);
    h.bytes(&[e.hart]);
    match e.kind {
        EventKind::Issue { lane, pc, inst } => {
            h.bytes(&[0, lane as u8]);
            h.u64(pc.map_or(u64::MAX, u64::from));
            h.u64(u64::from(inst.encode()));
        }
        EventKind::Retire { lane, inst } => {
            h.bytes(&[1, lane as u8]);
            h.u64(u64::from(inst.encode()));
        }
        EventKind::Stall { cause, cycles } => {
            h.bytes(&[2]);
            h.bytes(cause.name().as_bytes());
            h.u64(u64::from(cycles));
        }
        EventKind::SsrBeat { ssr, count } => {
            h.bytes(&[3, ssr]);
            h.u64(u64::from(count));
        }
        EventKind::BankConflicts { count } => {
            h.bytes(&[4]);
            h.u64(u64::from(count));
        }
        EventKind::DmaActive { count } => {
            h.bytes(&[5]);
            h.u64(u64::from(count));
        }
        EventKind::BarrierArrive => h.bytes(&[6]),
        EventKind::BarrierRelease => h.bytes(&[7]),
    }
}

/// `stats=<Debug> fp=<hart.reg:bits,...> tcdm=<fnv>`.
fn render(o: &Observation) -> String {
    let fp: Vec<String> = o
        .fp_regs
        .iter()
        .enumerate()
        .filter(|&(_, &bits)| bits != 0)
        .map(|(i, bits)| format!("{}.{}:{bits:x}", i / 32, i % 32))
        .collect();
    let mut tcdm = Fnv::new();
    for &w in &o.tcdm {
        tcdm.u64(w);
    }
    format!("stats={:?} fp={} tcdm={:016x}", o.stats, fp.join(","), tcdm.0)
}

/// Event count and digest of a traced run of `program` on one core.
fn traced(program: &Program, block: bool) -> String {
    let mut c = Cluster::new(ClusterConfig::default());
    c.set_block_compile(block);
    c.set_quiescent_skip(block);
    c.attach_tracer(Tracer::new());
    c.load_program(program);
    c.run().expect("traced kernel completes");
    let events = c.take_tracer().expect("tracer attached").into_events();
    let mut h = Fnv::new();
    for e in &events {
        hash_event(&mut h, e);
    }
    format!("events={} events_fnv={:016x}", events.len(), h.0)
}

/// The full fixture rendering, every run configured by `fast` (true: the
/// default fast paths; false: the force-stepped reference).
fn rendering(fast: bool) -> String {
    let observe = |program: &Program, cores: usize| {
        observe_with(program, cores, |c| {
            c.set_block_compile(fast);
            c.set_quiescent_skip(fast);
        })
    };
    let mut out = String::new();
    let mut rng = Rng(0xb10c_cafe_f00d_0002);
    for case in 0..40 {
        let cores = [1, 1, 2, 4][rng.below(4) as usize];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let o = observe(&program, cores);
        writeln!(out, "random case={case} cores={cores} {}", render(&o)).unwrap();
    }
    for kernel in Kernel::paper() {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            let program = kernel.build(variant, n, block);
            let o = observe(&program, 1);
            writeln!(
                out,
                "kernel {} {} n={n} block={block} {} {}",
                kernel.name(),
                variant.name(),
                render(&o),
                traced(&program, fast)
            )
            .unwrap();
        }
    }
    out
}

fn assert_matches_fixture(fast: bool) {
    let got = rendering(fast);
    let mode = if fast { "fast paths on" } else { "force-stepped" };
    for (i, (g, want)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, want, "{mode}: fixture line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "{mode}: fixture length differs");
}

#[test]
fn force_stepped_loop_matches_the_reference_fixture() {
    assert_matches_fixture(false);
}

#[test]
fn default_fast_paths_match_the_reference_fixture() {
    assert_matches_fixture(true);
}
