//! Architectural vector state: register file + vector length.

use crate::regfile::{VRegFile, VLMAX};
use crate::{Lmul, Sew};

/// The complete architectural state of the vector unit.
#[derive(Debug, Clone)]
pub struct VState {
    /// The vector register file.
    pub regs: VRegFile,
    /// Current vector length in elements.
    pub vl: usize,
    /// The paper's custom MAXVL CSR: an experiment knob capping the VL
    /// granted by `vsetvli` (§2.1). Defaults to "no cap".
    pub maxvl_cap: usize,
}

impl VState {
    /// State matching the paper's VPU: VLEN = 16384 bits (256 × f64).
    pub fn paper_vpu() -> Self {
        Self { regs: VRegFile::default(), vl: 0, maxvl_cap: usize::MAX }
    }

    /// The most `vsetvli` grants: VLMAX under the MAXVL CSR.
    #[inline]
    pub fn maxvl(&self) -> usize {
        VLMAX.min(self.maxvl_cap)
    }

    /// Execute `vsetvli`: request `avl` elements. Returns the granted VL,
    /// `min(avl, VLMAX, MAXVL cap)`, which also becomes the current VL.
    /// `Sew` and `Lmul` have one value each (see their docs).
    pub fn set_vl(&mut self, avl: usize, _: Sew, _: Lmul) -> usize {
        self.vl = avl.min(self.maxvl());
        self.vl
    }

    /// Program the MAXVL CSR (the experiment knob). Does not retroactively
    /// shrink the current `vl`; like the hardware, it takes effect at the
    /// next `vsetvli`.
    pub fn set_maxvl_cap(&mut self, cap: usize) {
        assert!(cap > 0, "MAXVL cap must be positive");
        self.maxvl_cap = cap;
    }

    /// Whether element `i` is active under the given mask flag (mask register
    /// is architecturally `v0`).
    #[inline]
    pub fn active(&self, masked: bool, i: usize) -> bool {
        !masked || self.regs.get_mask(0, i)
    }

    /// Snapshot per-element activity for the first `vl` elements into `out`
    /// (cleared first): all-true when unmasked, else the low `vl` bits of
    /// `v0`. The bulk form of [`VState::active`], used by the batch
    /// execution backend to hoist the mask check out of element loops.
    pub fn snapshot_active(&self, masked: bool, vl: usize, out: &mut Vec<bool>) {
        if masked {
            self.regs.read_mask_bits_into(0, vl, out);
        } else {
            out.clear();
            out.resize(vl, true);
        }
    }

    /// Reset to the power-on state (all registers zero, VL 0, no cap),
    /// keeping the register-file allocation.
    pub fn reset(&mut self) {
        self.regs.clear();
        self.vl = 0;
        self.maxvl_cap = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_vl(st: &mut VState, avl: usize) -> usize {
        st.set_vl(avl, Sew::E64, Lmul::M1)
    }

    #[test]
    fn paper_vpu_vlmax() {
        let mut st = VState::paper_vpu();
        assert_eq!(set_vl(&mut st, 1 << 20), 256);
        assert_eq!(st.maxvl(), 256);
    }

    #[test]
    fn maxvl_csr_caps_grants() {
        let mut st = VState::paper_vpu();
        st.set_maxvl_cap(32);
        assert_eq!(set_vl(&mut st, 1000), 32);
        st.set_maxvl_cap(8);
        assert_eq!(st.maxvl(), 8);
        assert_eq!(set_vl(&mut st, 1000), 8);
        assert_eq!(set_vl(&mut st, 0), 0);
    }

    #[test]
    fn set_vl_grants_avl_when_small() {
        let mut st = VState::paper_vpu();
        assert_eq!(set_vl(&mut st, 13), 13);
        assert_eq!(st.vl, 13);
    }

    #[test]
    fn active_respects_mask_flag() {
        let mut st = VState::paper_vpu();
        st.regs.set_mask(0, 1, true);
        assert!(st.active(false, 0)); // unmasked: everything active
        assert!(!st.active(true, 0));
        assert!(st.active(true, 1));
    }

    #[test]
    fn snapshot_active_matches_elementwise() {
        let mut st = VState::paper_vpu();
        for i in 0..16 {
            st.regs.set_mask(0, i, i % 3 == 1);
        }
        let mut out = Vec::new();
        for masked in [false, true] {
            st.snapshot_active(masked, 16, &mut out);
            assert_eq!(out.len(), 16);
            for (i, &a) in out.iter().enumerate() {
                assert_eq!(a, st.active(masked, i), "masked={masked} i={i}");
            }
        }
        st.snapshot_active(true, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cap_rejected() {
        VState::paper_vpu().set_maxvl_cap(0);
    }
}
