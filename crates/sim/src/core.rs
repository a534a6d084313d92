//! The in-order single-issue integer core.
//!
//! Timing model (see `DESIGN.md` §3):
//!
//! * one instruction issued per cycle at most; FP instructions occupy the
//!   issue slot and are pushed into the FPSS offload FIFO;
//! * a scoreboard tracks per-register readiness; reads of a register pending
//!   an FP→int write-back stall (Type 3 serialization);
//! * the ALU and the multi-cycle mul/div unit share one register-file
//!   write-back port: an instruction whose write-back cycle is already
//!   claimed stalls at issue — the structural hazard the paper identifies in
//!   the LCG kernels. Loads and FPSS responses return on a separate port;
//! * taken branches pay a fixed refill penalty;
//! * `scfgwi` to a busy streamer stalls until the stream completes, and the
//!   FPU-fence CSR stalls until the FP subsystem and streamers drain.
//!
//! `IntCore::step` is the one issue function: it issues from the text
//! section lowered at load time (`block.rs`), with one match on the
//! pre-resolved micro-op. The cluster's all-units stepper and its
//! single-hart burst loop both call it; CSR, SSR-config and DMA ops are the
//! only ones matched on their [`Inst`] at issue.

use snitch_riscv::csr::{
    SsrCfgWord, CSR_BARRIER, CSR_CLUSTER_ID, CSR_FPU_FENCE, CSR_MCYCLE, CSR_MHARTID, CSR_MINSTRET,
    CSR_SSR,
};
use snitch_riscv::inst::Inst;
use snitch_riscv::ops::{CsrOp, DmaOp, LoadOp};
use snitch_riscv::reg::IntReg;
use snitch_trace::{EventKind, Lane, StallCause};

use crate::block::{BlockOp, OffloadVal, TextEntry};
use crate::config::ClusterConfig;
use crate::dma::Dma;
use crate::error::SimFault;
use crate::fpss::{Fpss, OffloadEntry};
use crate::icache::L0Cache;
use crate::mem::{Memory, TcdmArbiter, TcdmPort};
use crate::observe::Observer;
use crate::ssr::Ssr;
use crate::trace_event;
use snitch_asm::layout;

/// Sentinel `ready_at` for a register awaiting an FP→int write-back.
const PENDING_FP: u64 = u64::MAX;

/// Progress of a hart through the cluster hardware barrier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BarrierState {
    /// Not at a barrier.
    Idle,
    /// Arrived; stalled until every hart arrives (or halts).
    Waiting,
    /// Released by the cluster; the barrier CSR read completes next issue.
    Released,
}

/// The integer core.
#[derive(Clone, Debug)]
pub struct IntCore {
    hart_id: u32,
    /// Index of this core's cluster in the system (the `CSR_CLUSTER_ID`
    /// value). Physical identity: survives [`reset`](Self::reset).
    cluster_id: u32,
    pc: u32,
    regs: [u32; 32],
    ready_at: [u64; 32],
    stall_until: u64,
    /// Claimed ALU/mul write-back port slots: (cycle, claims).
    wb_claims: Vec<(u64, u32)>,
    halted: bool,
    barrier: BarrierState,
}

impl IntCore {
    /// Creates core `hart_id` with `pc` at the text base.
    #[must_use]
    pub fn new(hart_id: u32) -> Self {
        IntCore {
            hart_id,
            cluster_id: 0,
            pc: layout::TEXT_BASE,
            regs: [0; 32],
            ready_at: [0; 32],
            stall_until: 0,
            wb_claims: Vec::with_capacity(8),
            halted: false,
            barrier: BarrierState::Idle,
        }
    }

    /// This core's hart id (the `mhartid` CSR value).
    #[must_use]
    pub fn hart_id(&self) -> u32 {
        self.hart_id
    }

    /// Sets the cluster id visible through `CSR_CLUSTER_ID` (assigned by the
    /// `System` when placing the cluster in the grid).
    pub fn set_cluster_id(&mut self, cluster_id: u32) {
        self.cluster_id = cluster_id;
    }

    /// Restores boot state (pc at the text base, zeroed registers and
    /// scoreboard, no stalls, not halted), reusing the write-back claim
    /// buffer — the allocation-free equivalent of `IntCore::new(hart_id)`.
    pub fn reset(&mut self, hart_id: u32) {
        self.hart_id = hart_id;
        self.pc = layout::TEXT_BASE;
        self.regs = [0; 32];
        self.ready_at = [0; 32];
        self.stall_until = 0;
        self.wb_claims.clear();
        self.halted = false;
        self.barrier = BarrierState::Idle;
    }

    /// Whether the core is stalled at the cluster hardware barrier.
    #[must_use]
    pub fn barrier_waiting(&self) -> bool {
        self.barrier == BarrierState::Waiting
    }

    /// Releases the core from the barrier (called by the cluster once every
    /// hart has arrived or halted).
    pub fn release_barrier(&mut self) {
        debug_assert_eq!(self.barrier, BarrierState::Waiting);
        self.barrier = BarrierState::Released;
    }

    /// Parks the core in the halted state without executing anything — used
    /// for secondary harts booting a non-parallel (hart-0-only) program.
    pub fn force_halt(&mut self) {
        self.halted = true;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the core has executed `ecall`/`ebreak`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The first cycle at which this core will attempt to issue again. While
    /// `stall_until > now` the core is in a *silent* stall (a taken branch's
    /// refill window, charged in full at branch time): `step` returns
    /// without touching any counter, which is what makes these cycles
    /// skippable by the cluster's quiescent fast path.
    #[must_use]
    pub fn stall_until(&self) -> u64 {
        self.stall_until
    }

    /// Reads an integer register (for the harness).
    #[must_use]
    pub fn reg(&self, r: IntReg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Delivers a completed FP→int write-back.
    pub fn apply_writeback(&mut self, rd: IntReg, value: u32, now: u64) {
        self.write_reg(rd.index(), value, now);
    }

    fn can_claim_wb(&self, cycle: u64, ports: u32) -> bool {
        self.wb_claims.iter().find(|&&(c, _)| c == cycle).is_none_or(|&(_, n)| n < ports)
    }

    fn claim_wb(&mut self, cycle: u64) {
        if let Some(e) = self.wb_claims.iter_mut().find(|e| e.0 == cycle) {
            e.1 += 1;
        } else {
            self.wb_claims.push((cycle, 1));
        }
    }

    fn write_reg(&mut self, rd: u8, value: u32, ready_at: u64) {
        if rd != 0 {
            self.regs[rd as usize] = value;
            self.ready_at[rd as usize] = ready_at;
        }
    }

    /// One issue attempt. Returns `Err` on machine faults (including an
    /// attempt at a misaligned pc or a pc outside the text section); sets
    /// [`halted`](Self::halted) on `ecall`.
    ///
    /// Marked for inlining, with its charge helpers, into both callers: as
    /// an out-of-line call with this many arguments it cost the burst loop
    /// about 5% per simulated cycle.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn step(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        text: &[TextEntry],
        l0: &mut L0Cache,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        fpss: &mut Fpss,
        ssrs: &mut [Ssr; 3],
        dma: &mut Dma,
        obs: &mut Observer,
    ) -> Result<(), SimFault> {
        if self.halted {
            return Ok(());
        }
        self.wb_claims.retain(|&(c, _)| c >= now);
        if self.stall_until > now {
            return Ok(());
        }
        if self.pc & 3 != 0 {
            return Err(SimFault::new(format!("misaligned pc {:#010x}", self.pc)));
        }
        let idx = (self.pc.wrapping_sub(layout::TEXT_BASE) / 4) as usize;
        let Some(d) = text.get(idx) else {
            return Err(SimFault::new(format!("pc {:#010x} outside text section", self.pc)));
        };

        // Operand scoreboard: sources, then the destination. Index 0 is x0,
        // whose slot is always ready.
        for r in [d.srcs[0], d.srcs[1], d.dst] {
            let ready = self.ready_at[r as usize];
            if ready > now {
                let cause =
                    if ready == PENDING_FP { StallCause::FpPending } else { StallCause::IntRaw };
                self.stall(now, cause, obs);
                return Ok(());
            }
        }

        match d.op {
            BlockOp::Offload { val, meta, is_frep, writes_int_rf } => {
                if !fpss.can_accept() {
                    self.stall(now, StallCause::OffloadFull, obs);
                    return Ok(());
                }
                let int_val = match val {
                    OffloadVal::None => None,
                    OffloadVal::Addr { rs1, offset } => {
                        Some(self.regs[rs1 as usize].wrapping_add(offset as u32))
                    }
                    OffloadVal::Reg { rs1 } => Some(self.regs[rs1 as usize]),
                };
                if writes_int_rf && d.dst != 0 {
                    self.ready_at[d.dst as usize] = PENDING_FP;
                }
                fpss.offload(OffloadEntry::with_meta(d.inst, int_val, meta, self.pc));
                let lane = if is_frep { Lane::Int } else { Lane::FpCore };
                self.fetched(now, d.inst, lane, l0, obs);
            }
            BlockOp::Lui { value } | BlockOp::Auipc { value } => {
                if !self.issue_alu(now, cfg, l0, d, value, 1, obs) {
                    return Ok(());
                }
            }
            BlockOp::AluImm { op, rs1, imm } => {
                let v = op.eval(self.regs[rs1 as usize], imm);
                if !self.issue_alu(now, cfg, l0, d, v, 1, obs) {
                    return Ok(());
                }
            }
            BlockOp::AluReg { op, rs1, rs2, latency } => {
                let v = op.eval(self.regs[rs1 as usize], self.regs[rs2 as usize]);
                if !self.issue_alu(now, cfg, l0, d, v, latency, obs) {
                    return Ok(());
                }
            }
            BlockOp::Jal { target } => {
                self.jump(now, cfg, l0, d, target, obs);
                return Ok(());
            }
            BlockOp::Jalr { rs1, offset } => {
                // Target from the *old* rs1 (rd may alias rs1).
                let target = self.regs[rs1 as usize].wrapping_add(offset as u32) & !1;
                self.jump(now, cfg, l0, d, target, obs);
                return Ok(());
            }
            BlockOp::Branch { op, rs1, rs2, taken_pc } => {
                let taken = op.taken(self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.fetched(now, d.inst, Lane::Int, l0, obs);
                if taken {
                    self.redirect(now, cfg, taken_pc, obs);
                } else {
                    self.pc = self.pc.wrapping_add(4);
                }
                return Ok(());
            }
            BlockOp::Load { op, rs1, offset } => {
                // Integer loads may not bypass queued FP stores (single-
                // thread memory ordering; see Fpss::has_pending_stores).
                if fpss.has_pending_stores() {
                    self.stall(now, StallCause::StoreOrder, obs);
                    return Ok(());
                }
                let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                let lat = if layout::is_tcdm(addr) {
                    if !arb.request(TcdmPort::CoreLsu(self.hart_id as u8), addr) {
                        self.stall(now, StallCause::TcdmConflict, obs);
                        return Ok(());
                    }
                    obs.stats.tcdm_core_accesses += 1;
                    cfg.load_latency
                } else if layout::is_main(addr) {
                    obs.stats.main_mem_accesses += 1;
                    cfg.load_latency + cfg.main_mem_extra_latency
                } else {
                    // Shared L2 or a cluster alias window: interconnect path.
                    obs.stats.l2_accesses += 1;
                    cfg.load_latency + cfg.l2_latency
                };
                let raw = mem.read(addr, op.size()).map_err(SimFault::from)? as u32;
                let v = match op {
                    LoadOp::Lb => (raw as i8) as i32 as u32,
                    LoadOp::Lh => (raw as i16) as i32 as u32,
                    _ => raw,
                };
                self.write_reg(d.dst, v, now + u64::from(lat));
                self.fetched(now, d.inst, Lane::Int, l0, obs);
            }
            BlockOp::Store { op, rs1, rs2, offset } => {
                let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                if layout::is_tcdm(addr) {
                    if !arb.request(TcdmPort::CoreLsu(self.hart_id as u8), addr) {
                        self.stall(now, StallCause::TcdmConflict, obs);
                        return Ok(());
                    }
                    obs.stats.tcdm_core_accesses += 1;
                } else if layout::is_main(addr) {
                    obs.stats.main_mem_accesses += 1;
                } else {
                    obs.stats.l2_accesses += 1;
                }
                mem.write(addr, op.size(), u64::from(self.regs[rs2 as usize]))
                    .map_err(SimFault::from)?;
                self.fetched(now, d.inst, Lane::Int, l0, obs);
            }
            BlockOp::Fence => self.fetched(now, d.inst, Lane::Int, l0, obs),
            BlockOp::Ecall => {
                self.fetched(now, d.inst, Lane::Int, l0, obs);
                self.halted = true;
                return Ok(());
            }
            BlockOp::FenceWait => {
                if !fpss.drained(now) || ssrs.iter().any(Ssr::busy) {
                    self.stall(now, StallCause::Fence, obs);
                    return Ok(());
                }
                self.fetched(now, d.inst, Lane::Int, l0, obs);
            }
            BlockOp::Generic => {
                if !self.issue_generic(now, cfg, l0, d, fpss, ssrs, dma, obs)? {
                    return Ok(());
                }
            }
        }
        self.pc = self.pc.wrapping_add(4);
        Ok(())
    }

    /// Loses this cycle's issue slot to `cause`, charged to the current pc.
    #[inline]
    fn stall(&self, now: u64, cause: StallCause, obs: &mut Observer) {
        obs.stall(now, self.hart_id as u8, self.pc, cause, 1);
    }

    /// A taken control transfer: the refill window after this cycle is
    /// charged to the transferring instruction (the current pc), then the
    /// core redirects to `target` and stays silent until the window ends.
    fn redirect(&mut self, now: u64, cfg: &ClusterConfig, target: u32, obs: &mut Observer) {
        obs.stall(now + 1, self.hart_id as u8, self.pc, StallCause::Branch, cfg.branch_penalty);
        self.pc = target;
        self.stall_until = now + 1 + u64::from(cfg.branch_penalty);
    }

    /// `jal`/`jalr`: link write on the shared port, then the redirect.
    fn jump(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        d: &TextEntry,
        target: u32,
        obs: &mut Observer,
    ) {
        let link = self.pc.wrapping_add(4);
        if self.issue_alu(now, cfg, l0, d, link, 1, obs) {
            self.redirect(now, cfg, target, obs);
        }
    }

    /// Issues an ALU-like operation writing `d.dst` with `latency` on the
    /// shared write-back port. Returns false (and counts a stall) if the
    /// port is already claimed for the write-back cycle.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn issue_alu(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        d: &TextEntry,
        value: u32,
        latency: u32,
        obs: &mut Observer,
    ) -> bool {
        let wb_cycle = now + u64::from(latency);
        if d.dst != 0 {
            if !self.can_claim_wb(wb_cycle, cfg.int_wb_ports) {
                self.stall(now, StallCause::WbPort, obs);
                return false;
            }
            self.claim_wb(wb_cycle);
        }
        self.write_reg(d.dst, value, wb_cycle);
        self.fetched(now, d.inst, Lane::Int, l0, obs);
        true
    }

    /// Fetch-path accounting and the issue charge; called exactly once per
    /// issued instruction, while `self.pc` still addresses it.
    #[inline]
    fn fetched(&mut self, now: u64, inst: Inst, lane: Lane, l0: &mut L0Cache, obs: &mut Observer) {
        if l0.fetch(self.pc) {
            obs.stats.l0_hits += 1;
        } else {
            obs.stats.l0_misses += 1;
        }
        obs.issue(now, self.hart_id as u8, self.pc, lane, inst);
    }

    /// The ops whose semantics depend on cluster state machines: CSRs
    /// (barrier, FPU fence, SSR enable, counters), SSR configuration and
    /// DMA commands. Returns whether the op issued.
    #[allow(clippy::too_many_arguments)]
    fn issue_generic(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        d: &TextEntry,
        fpss: &mut Fpss,
        ssrs: &mut [Ssr; 3],
        dma: &mut Dma,
        obs: &mut Observer,
    ) -> Result<bool, SimFault> {
        let value = match d.inst {
            Inst::Csr { op, csr, src, .. } => {
                let Some(old) = self.read_csr(now, csr, fpss, ssrs, obs) else {
                    return Ok(false);
                };
                let v = if op.is_imm() { u32::from(src) } else { self.regs[usize::from(src)] };
                let new = match op {
                    CsrOp::Rw | CsrOp::Rwi => Some(v),
                    CsrOp::Rs | CsrOp::Rsi => (v != 0).then_some(old | v),
                    CsrOp::Rc | CsrOp::Rci => (v != 0).then_some(old & !v),
                };
                // Other CSRs are read-only or scratch in this model.
                if let (Some(new), CSR_SSR) = (new, csr) {
                    fpss.set_ssr_enabled(new & 1 != 0);
                }
                old
            }
            Inst::Scfgwi { value, addr } => {
                let (word, i) = ssr_cfg(addr)?;
                if ssrs[i].busy() {
                    self.stall(now, StallCause::SsrCfg, obs);
                    return Ok(false);
                }
                ssrs[i].write_cfg(word, self.regs[value.index() as usize]);
                0
            }
            Inst::Scfgri { addr, .. } => {
                let (word, i) = ssr_cfg(addr)?;
                ssrs[i].read_cfg(word)
            }
            Inst::Dma { op, rs1, rs2, .. } => {
                let a = self.regs[rs1.index() as usize];
                let b = self.regs[rs2.index() as usize];
                // The configuration ops write no register (`d.dst` is 0).
                match op {
                    DmaOp::Src => dma.set_src(a),
                    DmaOp::Dst => dma.set_dst(a),
                    DmaOp::Str => dma.set_strides(a, b),
                    DmaOp::Rep => dma.set_reps(a),
                    DmaOp::CpyI => {
                        // Claim the port before queueing: a stalled attempt
                        // must not start the transfer its retry starts again.
                        if d.dst != 0 && !self.can_claim_wb(now + 1, cfg.int_wb_ports) {
                            self.stall(now, StallCause::WbPort, obs);
                            return Ok(false);
                        }
                        return Ok(self.issue_alu(now, cfg, l0, d, dma.start(a), 1, obs));
                    }
                    DmaOp::StatI => {}
                }
                dma.outstanding()
            }
            other => {
                return Err(SimFault::new(format!("unhandled integer instruction `{other}`")));
            }
        };
        Ok(self.issue_alu(now, cfg, l0, d, value, 1, obs))
    }

    /// The value a CSR read returns this cycle, or `None` when the read
    /// stalls (the FPU fence before the drain, the barrier before release).
    fn read_csr(
        &mut self,
        now: u64,
        csr: u16,
        fpss: &Fpss,
        ssrs: &[Ssr; 3],
        obs: &mut Observer,
    ) -> Option<u32> {
        Some(match csr {
            CSR_SSR => u32::from(fpss.ssr_enabled()),
            CSR_FPU_FENCE => {
                if !fpss.drained(now) || ssrs.iter().any(Ssr::busy) {
                    self.stall(now, StallCause::Fence, obs);
                    return None;
                }
                0
            }
            CSR_BARRIER => {
                if self.barrier == BarrierState::Released {
                    // Every hart has arrived; the read completes now.
                    self.barrier = BarrierState::Idle;
                    0
                } else {
                    // Arrive (idempotently) and stall until the cluster
                    // releases all waiting harts in one cycle.
                    if self.barrier == BarrierState::Idle {
                        trace_event!(obs.tracer, now, self.hart_id as u8, EventKind::BarrierArrive);
                    }
                    self.barrier = BarrierState::Waiting;
                    self.stall(now, StallCause::Barrier, obs);
                    return None;
                }
            }
            CSR_MHARTID => self.hart_id,
            CSR_CLUSTER_ID => self.cluster_id,
            CSR_MCYCLE => now as u32,
            CSR_MINSTRET => obs.stats.instructions() as u32,
            _ => 0,
        })
    }
}

/// Decodes an SSR configuration address.
fn ssr_cfg(addr: u16) -> Result<(SsrCfgWord, usize), SimFault> {
    SsrCfgWord::from_addr(addr)
        .ok_or_else(|| SimFault::new(format!("invalid ssr config address {addr:#x}")))
}

impl Default for IntCore {
    fn default() -> Self {
        IntCore::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wb_port_claims() {
        let mut c = IntCore::new(0);
        assert!(c.can_claim_wb(5, 1));
        c.claim_wb(5);
        assert!(!c.can_claim_wb(5, 1));
        assert!(c.can_claim_wb(5, 2));
        assert!(c.can_claim_wb(6, 1));
    }
}
