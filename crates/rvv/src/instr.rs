//! The vector instruction set subset.
//!
//! Instructions are plain data so the same value can be (a) functionally
//! executed by [`crate::exec::exec`] and (b) costed by the `sdv-uarch` timing
//! model. Operand conventions follow RVV assembly semantics but are spelled
//! out field-by-field to avoid `vs1`/`vs2` ordering confusion:
//!
//! * binary ops compute `vd[i] = op(x[i], y[i])` (or `op(x[i], scalar)`),
//! * FMAs compute `vd[i] = vd[i] ± x[i]·y[i]` per [`FmaKind`],
//! * reductions compute `vd[0] = red(acc[0], x[0..vl])` like `vredsum.vs`.

/// A vector register number (0–31).
pub type Reg = u8;

/// Addressing mode of a vector memory instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemAddr {
    /// Consecutive elements starting at `base` (vle / vse).
    Unit {
        /// Byte address of element 0.
        base: u64,
    },
    /// Constant byte stride between elements (vlse / vsse).
    Strided {
        /// Byte address of element 0.
        base: u64,
        /// Byte distance between consecutive elements (may be negative).
        stride: i64,
    },
    /// Per-element byte offsets from a register (vlxe / vsxe — gather/scatter).
    Indexed {
        /// Base byte address.
        base: u64,
        /// Register holding unsigned byte offsets, one per element.
        index: Reg,
    },
}

/// Integer element-wise operations (VX form only: the kernels add and shift
/// by a scalar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithKind {
    /// Wrapping addition.
    Add,
    /// Logical shift left by `scalar & 63`.
    Sll,
}

/// Floating-point element-wise operations (VV and VF forms). Every FP
/// instruction is double precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FArithKind {
    /// Addition.
    Fadd,
    /// Subtraction `x - y`.
    Fsub,
    /// Multiplication.
    Fmul,
    /// Division `x / y`.
    Fdiv,
}

/// Fused multiply-add flavours. All compute into `vd` using `vd`'s prior value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmaKind {
    /// `vd += x*y` (vfmacc).
    Macc,
    /// `vd -= x*y` (vfnmsac).
    Nmsac,
}

/// Comparison kinds producing mask results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Integer equal.
    Eq,
}

/// Mask-to-mask logical operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskKind {
    /// `md = m1 & m2`.
    And,
    /// `md = m1 | m2`.
    Or,
}

/// Reduction kinds (`vd[0] = red(acc[0], x[0..vl])`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedKind {
    /// Integer sum.
    Sum,
    /// FP ordered sum (the paper's SpMV/PR use this heavily).
    Fsum,
}

/// A vector operation with its operands.
#[derive(Debug, Clone, PartialEq)]
pub enum VOp {
    /// Vector load: `vd <- memory`.
    Load {
        /// Destination register.
        vd: Reg,
        /// Addressing mode.
        addr: MemAddr,
    },
    /// Widening unit-stride load (`vlwu.v`, RVV v0.7.1): reads u32
    /// elements from memory and zero-extends them into the 64-bit register
    /// elements. Used to stream u32 index/adjacency arrays without paying
    /// double traffic.
    LoadWiden {
        /// Destination register.
        vd: Reg,
        /// Byte address of element 0; element footprint in memory is 4
        /// bytes.
        base: u64,
    },
    /// Vector store: `memory <- vs`.
    Store {
        /// Source register.
        vs: Reg,
        /// Addressing mode.
        addr: MemAddr,
    },
    /// Integer arithmetic, vector-scalar: `vd[i] = op(x[i], scalar)`.
    ArithVX {
        /// Operation.
        kind: ArithKind,
        /// Destination.
        vd: Reg,
        /// Vector operand.
        x: Reg,
        /// Scalar operand.
        scalar: u64,
    },
    /// FP arithmetic, vector-vector.
    FArithVV {
        /// Operation.
        kind: FArithKind,
        /// Destination.
        vd: Reg,
        /// Left operand.
        x: Reg,
        /// Right operand.
        y: Reg,
    },
    /// FP arithmetic, vector-scalar (`scalar` is an f64 bit pattern).
    FArithVF {
        /// Operation.
        kind: FArithKind,
        /// Destination.
        vd: Reg,
        /// Vector operand.
        x: Reg,
        /// Scalar operand, f64 bit pattern.
        scalar: u64,
    },
    /// FP fused multiply-add, vector-vector.
    FmaVV {
        /// Flavour.
        kind: FmaKind,
        /// Accumulator / destination.
        vd: Reg,
        /// Multiplicand.
        x: Reg,
        /// Multiplier.
        y: Reg,
    },
    /// FP fused multiply-add with scalar multiplicand.
    FmaVF {
        /// Flavour.
        kind: FmaKind,
        /// Accumulator / destination.
        vd: Reg,
        /// Scalar multiplicand, f64 bit pattern.
        scalar: u64,
        /// Vector multiplier.
        y: Reg,
    },
    /// Comparison against a scalar: `md.bit[i] = cmp(x[i], scalar)`.
    CmpVX {
        /// Comparison.
        kind: CmpKind,
        /// Mask destination.
        md: Reg,
        /// Vector operand.
        x: Reg,
        /// Scalar operand.
        scalar: u64,
    },
    /// Mask-register logical op: `md = op(m1, m2)` over all VLEN bits up to vl.
    MaskOp {
        /// Operation.
        kind: MaskKind,
        /// Destination mask register.
        md: Reg,
        /// First source.
        m1: Reg,
        /// Second source.
        m2: Reg,
    },
    /// Population count of mask bits in `[0, vl)` -> scalar result (vpopc).
    Popc {
        /// Mask source.
        m: Reg,
    },
    /// Reduction: `vd[0] = red(acc[0], x[0..vl])`.
    Red {
        /// Reduction kind.
        kind: RedKind,
        /// Scalar-holding destination.
        vd: Reg,
        /// Vector source.
        x: Reg,
        /// Register whose element 0 seeds the reduction.
        acc: Reg,
    },
    /// Whole-register move of the active elements: `vd[i] = x[i]` (vmv.v.v).
    Mv {
        /// Destination.
        vd: Reg,
        /// Source.
        x: Reg,
    },
    /// Broadcast a scalar to all active elements (vmv.v.x / vfmv.v.f).
    MvVX {
        /// Destination.
        vd: Reg,
        /// Scalar value / bit pattern.
        scalar: u64,
    },
    /// Write `scalar` into element 0 only (vmv.s.x).
    MvSX {
        /// Destination.
        vd: Reg,
        /// Scalar value.
        scalar: u64,
    },
    /// Read element 0 -> scalar result (vmv.x.s / vfmv.f.s).
    MvXS {
        /// Source.
        x: Reg,
    },
}

/// A complete vector instruction: an operation plus the mask flag.
#[derive(Debug, Clone, PartialEq)]
pub struct VInst {
    /// The operation.
    pub op: VOp,
    /// When true, executes under `v0.t`: masked-off elements are undisturbed.
    pub masked: bool,
}

impl VInst {
    /// An unmasked instruction.
    pub fn new(op: VOp) -> Self {
        Self { op, masked: false }
    }

    /// A masked (`v0.t`) instruction.
    pub fn masked(op: VOp) -> Self {
        Self { op, masked: true }
    }

    /// Whether this instruction touches memory.
    pub fn is_mem(&self) -> bool {
        matches!(self.op, VOp::Load { .. } | VOp::LoadWiden { .. } | VOp::Store { .. })
    }

    /// Whether this instruction produces a scalar result the core must wait
    /// for (a scalar↔vector synchronization point in the timing model).
    pub fn produces_scalar(&self) -> bool {
        matches!(self.op, VOp::Popc { .. } | VOp::MvXS { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_mem_classification() {
        let ld = VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } });
        let add = VInst::new(VOp::ArithVX { kind: ArithKind::Add, vd: 1, x: 2, scalar: 3 });
        assert!(ld.is_mem());
        assert!(!add.is_mem());
    }

    #[test]
    fn scalar_producers_flagged() {
        assert!(VInst::new(VOp::Popc { m: 0 }).produces_scalar());
        assert!(VInst::new(VOp::MvXS { x: 3 }).produces_scalar());
        assert!(!VInst::new(VOp::Mv { vd: 1, x: 2 }).produces_scalar());
    }

    #[test]
    fn masked_constructor_sets_flag() {
        let i = VInst::masked(VOp::Mv { vd: 1, x: 2 });
        assert!(i.masked);
        assert!(!VInst::new(VOp::Mv { vd: 1, x: 2 }).masked);
    }
}
