//! The lowered text section: every loaded instruction pre-resolved once,
//! at `load_program`, into the entry the core issues from.
//!
//! A [`TextEntry`] keeps the full [`Inst`] (for trace events and the few
//! stateful ops) next to its micro-op [`BlockOp`] and its integer
//! scoreboard operands. The micro-op pre-resolves everything that is static
//! per pc — immediate values, pc-relative targets (`auipc`, `jal`, branch
//! targets), mul/div latencies and FP offload metadata — so an issue
//! attempt is one small match with no decode work. Only ops whose semantics
//! depend on cluster state machines (CSRs, SSR configuration, DMA commands)
//! lower to [`BlockOp::Generic`] and are matched on their `Inst` at issue.
//!
//! The table is indexed by pc: entry `i` is the instruction at
//! `TEXT_BASE + 4*i`. Text is immutable between loads, so `load_program`
//! (which relowers) and `Cluster::reset` (which clears) are the only
//! invalidation points.

use snitch_riscv::csr::CSR_FPU_FENCE;
use snitch_riscv::inst::Inst;
use snitch_riscv::meta::RegRef;
use snitch_riscv::ops::{AluImmOp, AluOp, BranchOp, CsrOp, LoadOp, StoreOp};

use crate::config::ClusterConfig;
use crate::fpss::FpMeta;

/// How an FP offload's captured integer operand is computed at issue time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OffloadVal {
    /// No integer operand travels with the offload.
    None,
    /// `rs1 + offset` (FP loads and stores).
    Addr { rs1: u8, offset: i32 },
    /// A plain register read (`fcvt`/`fmv` int sources, FREP repeat counts).
    Reg { rs1: u8 },
}

/// One pre-lowered micro-op. Register operands are raw indices; pc-relative
/// values are resolved against the op's own pc at lowering time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockOp {
    Lui {
        value: u32,
    },
    /// `pc + imm`, precomputed.
    Auipc {
        value: u32,
    },
    AluImm {
        op: AluImmOp,
        rs1: u8,
        imm: i32,
    },
    AluReg {
        op: AluOp,
        rs1: u8,
        rs2: u8,
        latency: u32,
    },
    Load {
        op: LoadOp,
        rs1: u8,
        offset: i32,
    },
    Store {
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        taken_pc: u32,
    },
    Jal {
        target: u32,
    },
    Jalr {
        rs1: u8,
        offset: i32,
    },
    Fence,
    /// `ecall`/`ebreak`: halts without advancing the pc.
    Ecall,
    /// FP/FREP offload into the FP subsystem (the entry's [`Inst`] travels
    /// with it; `meta` is its pre-extracted FPU issue metadata).
    Offload {
        val: OffloadVal,
        meta: FpMeta,
        is_frep: bool,
        writes_int_rf: bool,
    },
    /// The canonical FPU fence (`csrrs x0, fpu_fence, x0`): stalls `Fence`
    /// until the FP subsystem is drained and no streamer is busy.
    FenceWait,
    /// CSR, SSR-config and DMA ops (and anything unknown): matched on the
    /// entry's [`Inst`] at issue.
    Generic,
}

/// One lowered instruction: the [`Inst`], its micro-op and its integer
/// hazard operands. Index 0 is x0, whose scoreboard slot is always ready,
/// so it doubles as the "no operand" sentinel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TextEntry {
    pub(crate) inst: Inst,
    pub(crate) op: BlockOp,
    /// Integer source register indices for the issue hazard scan (non-zero
    /// sources in operand order, duplicates collapsed).
    pub(crate) srcs: [u8; 2],
    /// Integer destination register index (0 when none).
    pub(crate) dst: u8,
}

impl TextEntry {
    /// Lowers `inst`, located at `pc`.
    pub(crate) fn lower(inst: Inst, pc: u32, cfg: &ClusterConfig) -> Self {
        let mut srcs = [0u8; 2];
        let mut n = 0;
        inst.for_each_use(|u| {
            if let RegRef::Int(r) = u {
                let r = r.index();
                if r != 0 && n < 2 && !srcs.contains(&r) {
                    srcs[n] = r;
                    n += 1;
                }
            }
        });
        // At most one integer def; `defs` omits x0 and includes the FP→int
        // write-backs.
        let mut dst = 0;
        inst.for_each_def(|d| {
            if let RegRef::Int(r) = d {
                dst = r.index();
            }
        });
        TextEntry { inst, op: lower_op(&inst, pc, cfg), srcs, dst }
    }
}

fn lower_op(inst: &Inst, pc: u32, cfg: &ClusterConfig) -> BlockOp {
    if inst.is_fp() || inst.is_frep() {
        let val = match *inst {
            Inst::Flw { rs1, offset, .. }
            | Inst::Fld { rs1, offset, .. }
            | Inst::Fsw { rs1, offset, .. }
            | Inst::Fsd { rs1, offset, .. } => OffloadVal::Addr { rs1: rs1.index(), offset },
            Inst::FpCvtI2F { rs1, .. } | Inst::FpMvX2F { rs1, .. } => {
                OffloadVal::Reg { rs1: rs1.index() }
            }
            Inst::FrepO { rep, .. } | Inst::FrepI { rep, .. } => {
                OffloadVal::Reg { rs1: rep.index() }
            }
            _ => OffloadVal::None,
        };
        return BlockOp::Offload {
            val,
            meta: FpMeta::of(inst),
            is_frep: inst.is_frep(),
            writes_int_rf: inst.fp_writes_int_rf(),
        };
    }
    match *inst {
        Inst::Lui { imm, .. } => BlockOp::Lui { value: imm as u32 },
        Inst::Auipc { imm, .. } => BlockOp::Auipc { value: pc.wrapping_add(imm as u32) },
        Inst::OpImm { op, rs1, imm, .. } => BlockOp::AluImm { op, rs1: rs1.index(), imm },
        Inst::OpReg { op, rs1, rs2, .. } => BlockOp::AluReg {
            op,
            rs1: rs1.index(),
            rs2: rs2.index(),
            latency: if op.is_div() {
                cfg.div_latency
            } else if op.is_muldiv() {
                cfg.mul_latency
            } else {
                1
            },
        },
        Inst::Jal { offset, .. } => BlockOp::Jal { target: pc.wrapping_add(offset as u32) },
        Inst::Jalr { rs1, offset, .. } => BlockOp::Jalr { rs1: rs1.index(), offset },
        Inst::Branch { op, rs1, rs2, offset } => BlockOp::Branch {
            op,
            rs1: rs1.index(),
            rs2: rs2.index(),
            taken_pc: pc.wrapping_add(offset as u32),
        },
        Inst::Load { op, rs1, offset, .. } => BlockOp::Load { op, rs1: rs1.index(), offset },
        Inst::Store { op, rs2, rs1, offset } => {
            BlockOp::Store { op, rs1: rs1.index(), rs2: rs2.index(), offset }
        }
        Inst::Fence => BlockOp::Fence,
        Inst::Ecall | Inst::Ebreak => BlockOp::Ecall,
        // Only the canonical zero-register encoding: any other fence-CSR
        // form could carry real hazards or a write.
        Inst::Csr { op: CsrOp::Rs, rd, csr: CSR_FPU_FENCE, src: 0 } if rd.is_zero() => {
            BlockOp::FenceWait
        }
        _ => BlockOp::Generic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_asm::layout::TEXT_BASE;
    use snitch_riscv::ops::{FpCmpOp, FpFmt};
    use snitch_riscv::reg::{FpReg, IntReg};

    fn lower(inst: Inst) -> TextEntry {
        TextEntry::lower(inst, TEXT_BASE, &ClusterConfig::default())
    }

    #[test]
    fn lowering_extracts_int_operands() {
        let e =
            lower(Inst::OpReg { op: AluOp::Add, rd: IntReg::A0, rs1: IntReg::A1, rs2: IntReg::A2 });
        assert_eq!(e.srcs, [IntReg::A1.index(), IntReg::A2.index()]);
        assert_eq!(e.dst, IntReg::A0.index());

        // Duplicate sources collapse; x0 is ignored on both sides.
        let e = lower(Inst::OpReg {
            op: AluOp::Add,
            rd: IntReg::ZERO,
            rs1: IntReg::A1,
            rs2: IntReg::A1,
        });
        assert_eq!(e.srcs, [IntReg::A1.index(), 0]);
        assert_eq!(e.dst, 0);

        let e =
            lower(Inst::OpImm { op: AluImmOp::Addi, rd: IntReg::A0, rs1: IntReg::ZERO, imm: 5 });
        assert_eq!(e.srcs, [0, 0]);
    }

    #[test]
    fn lowering_flags_fp_to_int_destinations() {
        let e = lower(Inst::FpCmp {
            op: FpCmpOp::Lt,
            fmt: FpFmt::D,
            rd: IntReg::A0,
            rs1: FpReg::FA0,
            rs2: FpReg::FA1,
        });
        assert_eq!(e.dst, IntReg::A0.index());
        assert!(matches!(e.op, BlockOp::Offload { writes_int_rf: true, .. }));
    }
}
