//! Vector type configuration: SEW, LMUL, and the `vsetvl` rule.

/// Standard element width in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sew {
    /// 8-bit elements.
    E8,
    /// 16-bit elements.
    E16,
    /// 32-bit elements.
    E32,
    /// 64-bit elements (double precision; the paper's headline configuration).
    E64,
}

impl Sew {
    /// Element width in bits.
    #[inline]
    pub fn bits(self) -> usize {
        match self {
            Sew::E8 => 8,
            Sew::E16 => 16,
            Sew::E32 => 32,
            Sew::E64 => 64,
        }
    }

    /// Element width in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        self.bits() / 8
    }

    /// The SEW half this one widens from (`E64 -> E32`, …).
    pub fn half(self) -> Option<Sew> {
        match self {
            Sew::E8 => None,
            Sew::E16 => Some(Sew::E8),
            Sew::E32 => Some(Sew::E16),
            Sew::E64 => Some(Sew::E32),
        }
    }

    /// All supported widths, narrow to wide.
    pub fn all() -> [Sew; 4] {
        [Sew::E8, Sew::E16, Sew::E32, Sew::E64]
    }

    /// Mask keeping only the low `bits()` bits of a u64 value.
    #[inline]
    pub fn value_mask(self) -> u64 {
        match self {
            Sew::E64 => u64::MAX,
            s => (1u64 << s.bits()) - 1,
        }
    }
}

/// Register-group multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lmul {
    /// One register per operand.
    M1,
    /// Groups of two registers.
    M2,
    /// Groups of four registers.
    M4,
    /// Groups of eight registers.
    M8,
}

impl Lmul {
    /// Number of registers in a group.
    #[inline]
    pub fn factor(self) -> usize {
        match self {
            Lmul::M1 => 1,
            Lmul::M2 => 2,
            Lmul::M4 => 4,
            Lmul::M8 => 8,
        }
    }

    /// All supported multipliers.
    pub fn all() -> [Lmul; 4] {
        [Lmul::M1, Lmul::M2, Lmul::M4, Lmul::M8]
    }
}

/// The dynamic vector type: the `(SEW, LMUL)` pair set by `vsetvl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VType {
    /// Element width.
    pub sew: Sew,
    /// Register group multiplier.
    pub lmul: Lmul,
}

impl VType {
    /// Convenience constructor.
    pub fn new(sew: Sew, lmul: Lmul) -> Self {
        Self { sew, lmul }
    }

    /// `VLMAX = VLEN / SEW * LMUL` for a given VLEN in bits.
    pub fn vlmax(&self, vlen_bits: usize) -> usize {
        vlen_bits / self.sew.bits() * self.lmul.factor()
    }
}

impl Default for VType {
    /// SEW=64, LMUL=1 — the configuration the paper's kernels run in.
    fn default() -> Self {
        Self { sew: Sew::E64, lmul: Lmul::M1 }
    }
}

/// The `vsetvl` rule, with the paper's MAXVL CSR cap folded in.
///
/// Returns the granted vector length: `min(avl, VLMAX, maxvl_cap)`.
/// `maxvl_cap` models the custom CSR described in §2.1 of the paper that
/// lets experiments lower the machine's maximum VL at runtime.
pub fn vsetvl(avl: usize, vtype: VType, vlen_bits: usize, maxvl_cap: usize) -> usize {
    avl.min(vtype.vlmax(vlen_bits)).min(maxvl_cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sew_widths() {
        assert_eq!(Sew::E8.bits(), 8);
        assert_eq!(Sew::E64.bytes(), 8);
        assert_eq!(Sew::E32.bytes(), 4);
    }

    #[test]
    fn sew_half_chain() {
        assert_eq!(Sew::E64.half(), Some(Sew::E32));
        assert_eq!(Sew::E32.half(), Some(Sew::E16));
        assert_eq!(Sew::E8.half(), None);
    }

    #[test]
    fn value_mask_matches_width() {
        assert_eq!(Sew::E8.value_mask(), 0xFF);
        assert_eq!(Sew::E32.value_mask(), 0xFFFF_FFFF);
        assert_eq!(Sew::E64.value_mask(), u64::MAX);
    }

    #[test]
    fn vlmax_paper_configuration() {
        // The paper's VPU: VLEN = 16384 bits => 256 f64 elements at LMUL=1.
        let vt = VType::default();
        assert_eq!(vt.vlmax(16384), 256);
        // With LMUL=8 and SEW=64: 2048 elements.
        assert_eq!(VType::new(Sew::E64, Lmul::M8).vlmax(16384), 2048);
        // SVE-like 512-bit machine: 8 f64 elements.
        assert_eq!(vt.vlmax(512), 8);
    }

    #[test]
    fn vsetvl_grants_min_of_all_caps() {
        let vt = VType::default();
        // avl smaller than everything.
        assert_eq!(vsetvl(10, vt, 16384, 256), 10);
        // VLMAX binds.
        assert_eq!(vsetvl(10_000, vt, 16384, 256), 256);
        // The MAXVL CSR binds (the paper's §2.1 experiment knob).
        assert_eq!(vsetvl(10_000, vt, 16384, 64), 64);
        assert_eq!(vsetvl(100, vt, 16384, 8), 8);
        // avl = 0 grants 0.
        assert_eq!(vsetvl(0, vt, 16384, 256), 0);
    }
}
