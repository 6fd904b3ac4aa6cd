//! The vector register file.
//!
//! 32 architectural registers of VLEN = 16384 bits, each 256 `u64` words:
//! one element per word (SEW = 64, the only width). Any register can be read
//! as a mask, one bit per element, LSB-first: bit `i` is bit `i % 64` of word
//! `i / 64`, the same place the RVV byte layout puts it on a little-endian
//! machine.

use crate::instr::Reg;

/// Number of architectural vector registers.
pub const NUM_VREGS: usize = 32;

/// VLEN in bits: the paper's VPU.
pub const VLEN: usize = 16384;

/// Elements per register: `VLEN / 64`, the VL that `vsetvli` grants at most.
pub const VLMAX: usize = VLEN / 64;

/// The vector register file.
#[derive(Debug, Clone)]
pub struct VRegFile {
    words: Box<[[u64; VLMAX]]>,
}

impl Default for VRegFile {
    fn default() -> Self {
        Self { words: vec![[0; VLMAX]; NUM_VREGS].into_boxed_slice() }
    }
}

impl VRegFile {
    /// VLEN in bits ([`VLEN`]; kept because `benchmark/` calls it).
    pub fn vlen_bits(&self) -> usize {
        VLEN
    }

    /// The elements of register `reg`.
    #[inline]
    pub fn reg(&self, reg: Reg) -> &[u64; VLMAX] {
        &self.words[reg as usize]
    }

    /// The elements of register `reg`, mutably.
    #[inline]
    pub fn reg_mut(&mut self, reg: Reg) -> &mut [u64; VLMAX] {
        &mut self.words[reg as usize]
    }

    /// Element `idx` of register `reg`.
    #[inline]
    pub fn get(&self, reg: Reg, idx: usize) -> u64 {
        self.reg(reg)[idx]
    }

    /// Write element `idx` of register `reg`.
    #[inline]
    pub fn set(&mut self, reg: Reg, idx: usize, value: u64) {
        self.reg_mut(reg)[idx] = value;
    }

    /// Snapshot elements `0..n` of `reg` into `out` (cleared first): the
    /// alias-safe source operand of the batch kernels.
    pub fn read_elems_into(&self, reg: Reg, n: usize, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.reg(reg)[..n]);
    }

    /// Write elements `0..vals.len()` of `reg`.
    pub fn write_elems(&mut self, reg: Reg, vals: &[u64]) {
        self.reg_mut(reg)[..vals.len()].copy_from_slice(vals);
    }

    /// Like [`Self::write_elems`] but only writes element `i` where
    /// `active[i]` is set; inactive elements keep their old value (masked-off
    /// undisturbed semantics). Returns the number of elements written.
    pub fn write_elems_where(&mut self, reg: Reg, vals: &[u64], active: &[bool]) -> usize {
        debug_assert_eq!(vals.len(), active.len());
        let mut n = 0;
        for ((w, &v), &a) in self.reg_mut(reg).iter_mut().zip(vals).zip(active) {
            if a {
                *w = v;
                n += 1;
            }
        }
        n
    }

    /// Snapshot mask bits `0..n` of register `reg` into `out` (cleared
    /// first), one 64-bit word at a time.
    pub fn read_mask_bits_into(&self, reg: Reg, n: usize, out: &mut Vec<bool>) {
        out.clear();
        for (w, &word) in self.reg(reg)[..n.div_ceil(64)].iter().enumerate() {
            let take = (n - w * 64).min(64);
            out.extend((0..take).map(|i| (word >> i) & 1 == 1));
        }
    }

    /// Write mask bits `0..bits.len()` of register `reg`; bits beyond the
    /// written range stay undisturbed (tail-undisturbed mask semantics).
    pub fn write_mask_bits(&mut self, reg: Reg, bits: &[bool]) {
        for (word, bs) in self.reg_mut(reg).iter_mut().zip(bits.chunks(64)) {
            for (i, &b) in bs.iter().enumerate() {
                *word = *word & !(1 << i) | (b as u64) << i;
            }
        }
    }

    /// Like [`Self::write_mask_bits`] but only updates bit `i` where
    /// `active[i]` is set; inactive bits keep their old value (masked-off
    /// undisturbed semantics for compares writing a mask destination).
    pub fn write_mask_bits_where(&mut self, reg: Reg, bits: &[bool], active: &[bool]) {
        debug_assert_eq!(bits.len(), active.len());
        let chunks = bits.chunks(64).zip(active.chunks(64));
        for (word, (bs, act)) in self.reg_mut(reg).iter_mut().zip(chunks) {
            for (i, (&b, &a)) in bs.iter().zip(act).enumerate() {
                if a {
                    *word = *word & !(1 << i) | (b as u64) << i;
                }
            }
        }
    }

    /// Element `idx` as an f64.
    #[inline]
    pub fn get_f64(&self, reg: Reg, idx: usize) -> f64 {
        f64::from_bits(self.get(reg, idx))
    }

    /// Write element `idx` as an f64.
    #[inline]
    pub fn set_f64(&mut self, reg: Reg, idx: usize, v: f64) {
        self.set(reg, idx, v.to_bits());
    }

    /// Mask bit `idx` of register `reg`.
    #[inline]
    pub fn get_mask(&self, reg: Reg, idx: usize) -> bool {
        (self.reg(reg)[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Write mask bit `idx` of register `reg`.
    #[inline]
    pub fn set_mask(&mut self, reg: Reg, idx: usize, v: bool) {
        let word = &mut self.reg_mut(reg)[idx / 64];
        let m = 1u64 << (idx % 64);
        if v {
            *word |= m;
        } else {
            *word &= !m;
        }
    }

    /// Zero every register (machine reset).
    pub fn clear(&mut self) {
        self.words.fill([0; VLMAX]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_are_independent() {
        let mut rf = VRegFile::default();
        rf.set(1, VLMAX - 1, 42);
        assert_eq!(rf.get(0, VLMAX - 1), 0);
        assert_eq!(rf.get(2, 0), 0);
        assert_eq!(rf.get(1, VLMAX - 1), 42);
    }

    #[test]
    fn f64_roundtrip() {
        let mut rf = VRegFile::default();
        rf.set_f64(7, 2, -3.75);
        assert_eq!(rf.get_f64(7, 2), -3.75);
    }

    #[test]
    fn mask_bits_are_the_words_lsb_first() {
        let mut rf = VRegFile::default();
        for i in 0..VLMAX {
            rf.set_mask(0, i, i % 3 == 0);
        }
        for i in 0..VLMAX {
            assert_eq!(rf.get_mask(0, i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(rf.get(0, 1) & 0b111, 0b100, "bit 66 is word 1, bit 2");
        // Clearing a bit leaves neighbours alone.
        rf.set_mask(0, 0, false);
        assert!(!rf.get_mask(0, 0));
        assert!(rf.get_mask(0, 3));
    }

    #[test]
    fn write_elems_where_skips_inactive() {
        let mut rf = VRegFile::default();
        rf.write_elems(1, &[0xEE; VLMAX]);
        let vals: Vec<u64> = (0..100).map(|i| i + 1).collect();
        let active: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let written = rf.write_elems_where(1, &vals, &active);
        assert_eq!(written, active.iter().filter(|&&a| a).count());
        for i in 0..VLMAX {
            let want = if i < 100 && i % 3 == 0 { i as u64 + 1 } else { 0xEE };
            assert_eq!(rf.get(1, i), want, "i={i}");
        }
        let mut out = Vec::new();
        rf.read_elems_into(1, 4, &mut out);
        assert_eq!(out, [1, 0xEE, 0xEE, 4]);
    }

    #[test]
    fn mask_words_roundtrip_matches_bitwise() {
        let mut rf = VRegFile::default();
        let bits: Vec<bool> = (0..200).map(|i| (i * 7) % 3 == 0).collect();
        rf.write_mask_bits(5, &bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rf.get_mask(5, i), b, "bit {i}");
        }
        // Bits beyond the written range stay undisturbed.
        rf.set_mask(5, 220, true);
        rf.write_mask_bits(5, &bits[..100]);
        assert!(rf.get_mask(5, 220));
        let mut out = Vec::new();
        rf.read_mask_bits_into(5, 200, &mut out);
        assert_eq!(out, bits);
    }

    #[test]
    fn masked_mask_write_keeps_inactive_bits() {
        let mut rf = VRegFile::default();
        for i in 0..128 {
            rf.set_mask(9, i, true);
        }
        let bits = [false; 128];
        let active: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        rf.write_mask_bits_where(9, &bits, &active);
        for i in 0..128 {
            assert_eq!(rf.get_mask(9, i), i % 2 == 1, "bit {i}");
        }
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut rf = VRegFile::default();
        rf.set(9, 0, u64::MAX);
        rf.clear();
        assert_eq!(rf.get(9, 0), 0);
    }
}
