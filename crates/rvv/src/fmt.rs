//! Assembly-style formatting of vector instructions.
//!
//! `VInst` renders as RVV-flavoured assembly (`vfmacc.vv v1, v2, v3` …):
//! what `sdv_core::TraceEvent::render` prints for a vector instruction, and
//! handy in test failures.

use crate::instr::{
    ArithKind, CmpKind, FArithKind, FmaKind, MaskKind, MemAddr, RedKind, VInst, VOp,
};
use std::fmt;

fn mem_operand(addr: &MemAddr) -> String {
    match addr {
        MemAddr::Unit { base } => format!("({base:#x})"),
        MemAddr::Strided { base, stride } => format!("({base:#x}), stride={stride}"),
        MemAddr::Indexed { base, index } => format!("({base:#x}), v{index}"),
    }
}

impl fmt::Display for VInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = if self.masked { ", v0.t" } else { "" };
        match &self.op {
            VOp::Load { vd, addr } => {
                let mn = match addr {
                    MemAddr::Unit { .. } => "vle.v",
                    MemAddr::Strided { .. } => "vlse.v",
                    MemAddr::Indexed { .. } => "vlxe.v",
                };
                write!(f, "{mn} v{vd}, {}{m}", mem_operand(addr))
            }
            VOp::LoadWiden { vd, base } => write!(f, "vlwu.v v{vd}, ({base:#x}){m}"),
            VOp::Store { vs, addr } => {
                let mn = match addr {
                    MemAddr::Unit { .. } => "vse.v",
                    MemAddr::Strided { .. } => "vsse.v",
                    MemAddr::Indexed { .. } => "vsxe.v",
                };
                write!(f, "{mn} v{vs}, {}{m}", mem_operand(addr))
            }
            VOp::ArithVX { kind, vd, x, scalar } => {
                let mn = match kind {
                    ArithKind::Add => "vadd.vx",
                    ArithKind::Sll => "vsll.vx",
                };
                write!(f, "{mn} v{vd}, v{x}, {scalar}{m}")
            }
            VOp::FArithVV { kind, vd, x, y } => {
                write!(f, "{}.vv v{vd}, v{x}, v{y}{m}", farith_mnemonic(*kind))
            }
            VOp::FArithVF { kind, vd, x, scalar } => {
                write!(
                    f,
                    "{}.vf v{vd}, v{x}, {}{m}",
                    farith_mnemonic(*kind),
                    f64::from_bits(*scalar)
                )
            }
            VOp::FmaVV { kind, vd, x, y } => {
                let mn = match kind {
                    FmaKind::Macc => "vfmacc.vv",
                    FmaKind::Nmsac => "vfnmsac.vv",
                };
                write!(f, "{mn} v{vd}, v{x}, v{y}{m}")
            }
            VOp::FmaVF { kind, vd, scalar, y } => {
                let mn = match kind {
                    FmaKind::Macc => "vfmacc.vf",
                    FmaKind::Nmsac => "vfnmsac.vf",
                };
                write!(f, "{mn} v{vd}, {}, v{y}{m}", f64::from_bits(*scalar))
            }
            VOp::CmpVX { kind: CmpKind::Eq, md, x, scalar } => {
                write!(f, "vmseq.vx v{md}, v{x}, {scalar}{m}")
            }
            VOp::MaskOp { kind, md, m1, m2 } => {
                let mn = match kind {
                    MaskKind::And => "vmand.mm",
                    MaskKind::Or => "vmor.mm",
                };
                write!(f, "{mn} v{md}, v{m1}, v{m2}")
            }
            VOp::Popc { m: src } => write!(f, "vpopc.m x_, v{src}{m}"),
            VOp::Red { kind, vd, x, acc } => {
                let mn = match kind {
                    RedKind::Sum => "vredsum.vs",
                    RedKind::Fsum => "vfredsum.vs",
                };
                write!(f, "{mn} v{vd}, v{x}, v{acc}{m}")
            }
            VOp::Mv { vd, x } => write!(f, "vmv.v.v v{vd}, v{x}{m}"),
            VOp::MvVX { vd, scalar } => write!(f, "vmv.v.x v{vd}, {scalar:#x}{m}"),
            VOp::MvSX { vd, scalar } => write!(f, "vmv.s.x v{vd}, {scalar:#x}"),
            VOp::MvXS { x } => write!(f, "vmv.x.s x_, v{x}"),
        }
    }
}

fn farith_mnemonic(k: FArithKind) -> &'static str {
    match k {
        FArithKind::Fadd => "vfadd",
        FArithKind::Fsub => "vfsub",
        FArithKind::Fmul => "vfmul",
        FArithKind::Fdiv => "vfdiv",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_stores() {
        let i = VInst::new(VOp::Load { vd: 3, addr: MemAddr::Unit { base: 0x1000 } });
        assert_eq!(i.to_string(), "vle.v v3, (0x1000)");
        let i = VInst::masked(VOp::Load { vd: 3, addr: MemAddr::Indexed { base: 0x20, index: 7 } });
        assert_eq!(i.to_string(), "vlxe.v v3, (0x20), v7, v0.t");
        let i =
            VInst::new(VOp::Store { vs: 2, addr: MemAddr::Strided { base: 0x40, stride: -16 } });
        assert_eq!(i.to_string(), "vsse.v v2, (0x40), stride=-16");
        let i = VInst::new(VOp::LoadWiden { vd: 1, base: 0 });
        assert_eq!(i.to_string(), "vlwu.v v1, (0x0)");
    }

    #[test]
    fn arithmetic_mnemonics() {
        let i = VInst::new(VOp::FmaVV { kind: FmaKind::Macc, vd: 1, x: 2, y: 3 });
        assert_eq!(i.to_string(), "vfmacc.vv v1, v2, v3");
        let i = VInst::new(VOp::ArithVX { kind: ArithKind::Sll, vd: 4, x: 5, scalar: 3 });
        assert_eq!(i.to_string(), "vsll.vx v4, v5, 3");
        let i = VInst::new(VOp::FArithVF {
            kind: FArithKind::Fmul,
            vd: 1,
            x: 1,
            scalar: 2.5f64.to_bits(),
        });
        assert_eq!(i.to_string(), "vfmul.vf v1, v1, 2.5");
    }

    #[test]
    fn mask_and_reduction_mnemonics() {
        let i = VInst::new(VOp::Popc { m: 0 });
        assert_eq!(i.to_string(), "vpopc.m x_, v0");
        let i = VInst::new(VOp::Red { kind: RedKind::Fsum, vd: 6, x: 7, acc: 6 });
        assert_eq!(i.to_string(), "vfredsum.vs v6, v7, v6");
        let i = VInst::masked(VOp::CmpVX { kind: CmpKind::Eq, md: 4, x: 2, scalar: 7 });
        assert_eq!(i.to_string(), "vmseq.vx v4, v2, 7, v0.t");
    }

    #[test]
    fn every_op_formats_without_panicking() {
        // Smoke over one instance of each variant.
        let ops = vec![
            VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } },
            VOp::LoadWiden { vd: 1, base: 0 },
            VOp::Store { vs: 1, addr: MemAddr::Indexed { base: 0, index: 2 } },
            VOp::ArithVX { kind: ArithKind::Sll, vd: 1, x: 2, scalar: 9 },
            VOp::FArithVV { kind: FArithKind::Fdiv, vd: 1, x: 2, y: 3 },
            VOp::FArithVF { kind: FArithKind::Fsub, vd: 1, x: 2, scalar: 0 },
            VOp::FmaVV { kind: FmaKind::Macc, vd: 1, x: 2, y: 3 },
            VOp::FmaVF { kind: FmaKind::Nmsac, vd: 1, scalar: 0, y: 2 },
            VOp::CmpVX { kind: CmpKind::Eq, md: 1, x: 2, scalar: 4 },
            VOp::MaskOp { kind: MaskKind::Or, md: 1, m1: 2, m2: 3 },
            VOp::Popc { m: 1 },
            VOp::Red { kind: RedKind::Sum, vd: 1, x: 2, acc: 3 },
            VOp::Mv { vd: 1, x: 2 },
            VOp::MvVX { vd: 1, scalar: 3 },
            VOp::MvSX { vd: 1, scalar: 3 },
            VOp::MvXS { x: 1 },
        ];
        for op in ops {
            let s = VInst::new(op).to_string();
            assert!(!s.is_empty());
            assert!(s.starts_with('v'), "mnemonic should be vector-prefixed: {s}");
        }
    }
}
