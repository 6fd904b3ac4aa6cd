//! The vector register file.
//!
//! 32 architectural registers of VLEN bits each, stored as a flat byte
//! array. Elements are accessed little-endian at any supported SEW, and any
//! register can be read as a mask (one bit per element, LSB-first), matching
//! the RVV mask register layout.

use crate::vtype::Sew;

/// Number of architectural vector registers.
pub const NUM_VREGS: usize = 32;

/// The vector register file.
#[derive(Debug, Clone)]
pub struct VRegFile {
    vlen_bits: usize,
    vlen_bytes: usize,
    data: Vec<u8>,
}

impl VRegFile {
    /// Create a register file with the given VLEN in bits.
    ///
    /// # Panics
    /// Panics unless `vlen_bits` is a multiple of 64 and at least 64.
    pub fn new(vlen_bits: usize) -> Self {
        assert!(vlen_bits >= 64 && vlen_bits.is_multiple_of(64), "VLEN must be a multiple of 64 bits");
        let vlen_bytes = vlen_bits / 8;
        Self { vlen_bits, vlen_bytes, data: vec![0; NUM_VREGS * vlen_bytes] }
    }

    /// VLEN in bits.
    pub fn vlen_bits(&self) -> usize {
        self.vlen_bits
    }

    /// VLEN in bytes (the `vlenb` CSR).
    pub fn vlen_bytes(&self) -> usize {
        self.vlen_bytes
    }

    /// Maximum number of elements of width `sew` in one register.
    pub fn elems_per_reg(&self, sew: Sew) -> usize {
        self.vlen_bytes / sew.bytes()
    }

    #[inline]
    fn reg_base(&self, reg: u8) -> usize {
        debug_assert!((reg as usize) < NUM_VREGS);
        reg as usize * self.vlen_bytes
    }

    /// Raw bytes of register `reg`.
    pub fn reg_bytes(&self, reg: u8) -> &[u8] {
        let b = self.reg_base(reg);
        &self.data[b..b + self.vlen_bytes]
    }

    /// Mutable raw bytes of register `reg`.
    pub fn reg_bytes_mut(&mut self, reg: u8) -> &mut [u8] {
        let b = self.reg_base(reg);
        &mut self.data[b..b + self.vlen_bytes]
    }

    /// Read element `idx` of the register *group* starting at `reg`, at width
    /// `sew`, zero-extended into a u64. With LMUL > 1 the index may spill
    /// into subsequent registers.
    ///
    /// Registers are contiguous in storage, so element `idx` of the group
    /// lives at byte offset `reg * VLENB + idx * SEW/8` — no per-access
    /// div/mod to locate the spill register. Each width gets a typed
    /// fixed-size load instead of a byte-loop through a scratch buffer.
    #[inline]
    pub fn get(&self, reg: u8, sew: Sew, idx: usize) -> u64 {
        let off = self.reg_base(reg) + idx * sew.bytes();
        debug_assert!(
            off + sew.bytes() <= self.data.len(),
            "element index {idx} overflows register group at v{reg}"
        );
        match sew {
            Sew::E8 => self.data[off] as u64,
            Sew::E16 => {
                u16::from_le_bytes(self.data[off..off + 2].try_into().unwrap()) as u64
            }
            Sew::E32 => {
                u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as u64
            }
            Sew::E64 => u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap()),
        }
    }

    /// Write element `idx` of the register group starting at `reg` at width
    /// `sew`. The value is truncated to the element width.
    #[inline]
    pub fn set(&mut self, reg: u8, sew: Sew, idx: usize, value: u64) {
        let off = self.reg_base(reg) + idx * sew.bytes();
        debug_assert!(
            off + sew.bytes() <= self.data.len(),
            "element index {idx} overflows register group at v{reg}"
        );
        match sew {
            Sew::E8 => self.data[off] = value as u8,
            Sew::E16 => {
                self.data[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes())
            }
            Sew::E32 => {
                self.data[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes())
            }
            Sew::E64 => self.data[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        }
    }

    /// Raw bytes of the first `len_bytes` of the register group at `reg`
    /// (spilling into subsequent registers, which are contiguous).
    #[inline]
    pub fn group_bytes(&self, reg: u8, len_bytes: usize) -> &[u8] {
        let b = self.reg_base(reg);
        debug_assert!(b + len_bytes <= self.data.len(), "group at v{reg} overflows the file");
        &self.data[b..b + len_bytes]
    }

    /// Mutable raw bytes of the first `len_bytes` of the group at `reg`.
    #[inline]
    pub fn group_bytes_mut(&mut self, reg: u8, len_bytes: usize) -> &mut [u8] {
        let b = self.reg_base(reg);
        debug_assert!(b + len_bytes <= self.data.len(), "group at v{reg} overflows the file");
        &mut self.data[b..b + len_bytes]
    }

    /// Snapshot elements `0..n` of the group at `reg` into `out` (cleared
    /// first), zero-extended to u64. This is the bulk form of [`Self::get`]
    /// used for alias-safe source snapshots: one bounds check and a typed
    /// chunk walk instead of `n` independent element reads.
    pub fn read_elems_into(&self, reg: u8, sew: Sew, n: usize, out: &mut Vec<u64>) {
        out.clear();
        if n == 0 {
            return;
        }
        let b = self.reg_base(reg);
        let bytes = &self.data[b..b + n * sew.bytes()];
        out.reserve(n);
        match sew {
            Sew::E8 => out.extend(bytes.iter().map(|&v| v as u64)),
            Sew::E16 => out.extend(
                bytes.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().unwrap()) as u64),
            ),
            Sew::E32 => out.extend(
                bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64),
            ),
            Sew::E64 => out
                .extend(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()))),
        }
    }

    /// Write elements `0..vals.len()` of the group at `reg`, each truncated
    /// to the element width. This is the bulk form of [`Self::set`] used by
    /// the batch execution backend: one bounds check and a typed chunk walk
    /// instead of `n` independent element writes.
    pub fn write_elems(&mut self, reg: u8, sew: Sew, vals: &[u64]) {
        if vals.is_empty() {
            return;
        }
        let b = self.reg_base(reg);
        let bytes = &mut self.data[b..b + vals.len() * sew.bytes()];
        match sew {
            Sew::E8 => {
                for (c, &v) in bytes.iter_mut().zip(vals) {
                    *c = v as u8;
                }
            }
            Sew::E16 => {
                for (c, &v) in bytes.chunks_exact_mut(2).zip(vals) {
                    c.copy_from_slice(&(v as u16).to_le_bytes());
                }
            }
            Sew::E32 => {
                for (c, &v) in bytes.chunks_exact_mut(4).zip(vals) {
                    c.copy_from_slice(&(v as u32).to_le_bytes());
                }
            }
            Sew::E64 => {
                for (c, &v) in bytes.chunks_exact_mut(8).zip(vals) {
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Like [`Self::write_elems`] but only writes element `i` where
    /// `active[i]` is set; inactive elements keep their old value (masked-off
    /// undisturbed semantics). Returns the number of elements written.
    pub fn write_elems_where(&mut self, reg: u8, sew: Sew, vals: &[u64], active: &[bool]) -> usize {
        debug_assert_eq!(vals.len(), active.len());
        if vals.is_empty() {
            return 0;
        }
        let b = self.reg_base(reg);
        let bytes = &mut self.data[b..b + vals.len() * sew.bytes()];
        let mut n = 0;
        match sew {
            Sew::E8 => {
                for ((c, &v), &a) in bytes.iter_mut().zip(vals).zip(active) {
                    if a {
                        *c = v as u8;
                        n += 1;
                    }
                }
            }
            Sew::E16 => {
                for ((c, &v), &a) in bytes.chunks_exact_mut(2).zip(vals).zip(active) {
                    if a {
                        c.copy_from_slice(&(v as u16).to_le_bytes());
                        n += 1;
                    }
                }
            }
            Sew::E32 => {
                for ((c, &v), &a) in bytes.chunks_exact_mut(4).zip(vals).zip(active) {
                    if a {
                        c.copy_from_slice(&(v as u32).to_le_bytes());
                        n += 1;
                    }
                }
            }
            Sew::E64 => {
                for ((c, &v), &a) in bytes.chunks_exact_mut(8).zip(vals).zip(active) {
                    if a {
                        c.copy_from_slice(&v.to_le_bytes());
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Snapshot mask bits `0..n` of register `reg` into `out` (cleared
    /// first), reading the register one 64-bit word at a time instead of one
    /// bit at a time.
    pub fn read_mask_bits_into(&self, reg: u8, n: usize, out: &mut Vec<bool>) {
        out.clear();
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.vlen_bits, "mask bit range {n} out of register");
        let b = self.reg_base(reg);
        out.reserve(n);
        for w in 0..n.div_ceil(64) {
            let off = b + w * 8;
            let word = u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap());
            let take = (n - w * 64).min(64);
            out.extend((0..take).map(|i| (word >> i) & 1 == 1));
        }
    }

    /// Write mask bits `0..bits.len()` of register `reg` from a bool slice,
    /// read-modify-writing 64-bit words so bits beyond the written range stay
    /// undisturbed (tail-undisturbed mask semantics).
    pub fn write_mask_bits(&mut self, reg: u8, bits: &[bool]) {
        let n = bits.len();
        debug_assert!(n <= self.vlen_bits, "mask bit range {n} out of register");
        let b = self.reg_base(reg);
        for w in 0..n.div_ceil(64) {
            let off = b + w * 8;
            let mut word = u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap());
            let take = (n - w * 64).min(64);
            for i in 0..take {
                let m = 1u64 << i;
                if bits[w * 64 + i] {
                    word |= m;
                } else {
                    word &= !m;
                }
            }
            self.data[off..off + 8].copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Like [`Self::write_mask_bits`] but only updates bit `i` where
    /// `active[i]` is set; inactive bits keep their old value (masked-off
    /// undisturbed semantics for compares writing a mask destination).
    pub fn write_mask_bits_where(&mut self, reg: u8, bits: &[bool], active: &[bool]) {
        let n = bits.len();
        debug_assert_eq!(n, active.len());
        debug_assert!(n <= self.vlen_bits, "mask bit range {n} out of register");
        let b = self.reg_base(reg);
        for w in 0..n.div_ceil(64) {
            let off = b + w * 8;
            let mut word = u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap());
            let take = (n - w * 64).min(64);
            for i in 0..take {
                if active[w * 64 + i] {
                    let m = 1u64 << i;
                    if bits[w * 64 + i] {
                        word |= m;
                    } else {
                        word &= !m;
                    }
                }
            }
            self.data[off..off + 8].copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Read element `idx` as an f64 (requires SEW=64 layout).
    #[inline]
    pub fn get_f64(&self, reg: u8, idx: usize) -> f64 {
        f64::from_bits(self.get(reg, Sew::E64, idx))
    }

    /// Write element `idx` as an f64.
    #[inline]
    pub fn set_f64(&mut self, reg: u8, idx: usize, v: f64) {
        self.set(reg, Sew::E64, idx, v.to_bits());
    }

    /// Read mask bit `idx` of register `reg` (LSB-first bit layout).
    #[inline]
    pub fn get_mask(&self, reg: u8, idx: usize) -> bool {
        let b = self.reg_base(reg);
        debug_assert!(idx / 8 < self.vlen_bytes, "mask bit {idx} out of range");
        (self.data[b + idx / 8] >> (idx % 8)) & 1 == 1
    }

    /// Write mask bit `idx` of register `reg`.
    #[inline]
    pub fn set_mask(&mut self, reg: u8, idx: usize, v: bool) {
        let b = self.reg_base(reg);
        debug_assert!(idx / 8 < self.vlen_bytes, "mask bit {idx} out of range");
        let byte = &mut self.data[b + idx / 8];
        if v {
            *byte |= 1 << (idx % 8);
        } else {
            *byte &= !(1 << (idx % 8));
        }
    }

    /// Zero every register (machine reset).
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_sizes() {
        let rf = VRegFile::new(16384);
        assert_eq!(rf.vlen_bits(), 16384);
        assert_eq!(rf.vlen_bytes(), 2048);
        assert_eq!(rf.elems_per_reg(Sew::E64), 256);
        assert_eq!(rf.elems_per_reg(Sew::E8), 2048);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_vlen_panics() {
        VRegFile::new(100);
    }

    #[test]
    fn get_set_roundtrip_all_sews() {
        let mut rf = VRegFile::new(512);
        for sew in Sew::all() {
            let n = rf.elems_per_reg(sew);
            for i in 0..n {
                let v = (i as u64).wrapping_mul(0x9E37_79B9) & sew.value_mask();
                rf.set(3, sew, i, v);
            }
            for i in 0..n {
                let v = (i as u64).wrapping_mul(0x9E37_79B9) & sew.value_mask();
                assert_eq!(rf.get(3, sew, i), v, "sew={sew:?} i={i}");
            }
        }
    }

    #[test]
    fn set_truncates_to_sew() {
        let mut rf = VRegFile::new(128);
        rf.set(0, Sew::E8, 0, 0x1FF);
        assert_eq!(rf.get(0, Sew::E8, 0), 0xFF);
        // Neighbouring element untouched.
        assert_eq!(rf.get(0, Sew::E8, 1), 0);
    }

    #[test]
    fn registers_are_independent() {
        let mut rf = VRegFile::new(128);
        rf.set(1, Sew::E64, 0, 42);
        assert_eq!(rf.get(0, Sew::E64, 0), 0);
        assert_eq!(rf.get(2, Sew::E64, 0), 0);
        assert_eq!(rf.get(1, Sew::E64, 0), 42);
    }

    #[test]
    fn group_access_spills_into_next_register() {
        let mut rf = VRegFile::new(128); // 2 x u64 per register
        rf.set(4, Sew::E64, 3, 99); // element 3 of group at v4 => element 1 of v5
        assert_eq!(rf.get(5, Sew::E64, 1), 99);
    }

    #[test]
    fn f64_roundtrip() {
        let mut rf = VRegFile::new(256);
        rf.set_f64(7, 2, -3.75);
        assert_eq!(rf.get_f64(7, 2), -3.75);
    }

    #[test]
    fn mask_bits_roundtrip() {
        let mut rf = VRegFile::new(256);
        for i in 0..256 {
            rf.set_mask(0, i, i % 3 == 0);
        }
        for i in 0..256 {
            assert_eq!(rf.get_mask(0, i), i % 3 == 0, "bit {i}");
        }
        // Clearing a bit leaves neighbours alone.
        rf.set_mask(0, 0, false);
        assert!(!rf.get_mask(0, 0));
        assert!(rf.get_mask(0, 3));
    }

    #[test]
    fn read_elems_into_matches_get_all_sews() {
        let mut rf = VRegFile::new(512);
        for sew in Sew::all() {
            let n = rf.elems_per_reg(sew) * 2; // span a 2-register group
            for i in 0..n {
                rf.set(4, sew, i, (i as u64).wrapping_mul(0xD1B5_4A33) & sew.value_mask());
            }
            let mut out = Vec::new();
            rf.read_elems_into(4, sew, n, &mut out);
            assert_eq!(out.len(), n);
            for (i, &o) in out.iter().enumerate() {
                assert_eq!(o, rf.get(4, sew, i), "sew={sew:?} i={i}");
            }
        }
    }

    #[test]
    fn write_elems_matches_set_all_sews() {
        let mut a = VRegFile::new(512);
        let mut b = VRegFile::new(512);
        for sew in Sew::all() {
            let n = a.elems_per_reg(sew) * 2; // span a 2-register group
            let vals: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0xC2B2_AE35)).collect();
            for (i, &v) in vals.iter().enumerate() {
                a.set(4, sew, i, v);
            }
            b.write_elems(4, sew, &vals);
            assert_eq!(a.reg_bytes(4), b.reg_bytes(4), "sew={sew:?}");
            assert_eq!(a.reg_bytes(5), b.reg_bytes(5), "sew={sew:?} spill");
        }
    }

    #[test]
    fn write_elems_where_skips_inactive() {
        let mut rf = VRegFile::new(256);
        for sew in Sew::all() {
            let n = rf.elems_per_reg(sew);
            for i in 0..n {
                rf.set(1, sew, i, 0xEE);
            }
            let vals: Vec<u64> = (0..n).map(|i| i as u64 + 1).collect();
            let active: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let written = rf.write_elems_where(1, sew, &vals, &active);
            assert_eq!(written, active.iter().filter(|&&a| a).count());
            for i in 0..n {
                let want = if i % 3 == 0 { (i as u64 + 1) & sew.value_mask() } else { 0xEE };
                assert_eq!(rf.get(1, sew, i), want, "sew={sew:?} i={i}");
            }
        }
    }

    #[test]
    fn mask_words_roundtrip_matches_bitwise() {
        let mut rf = VRegFile::new(256);
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
        let mut rf = VRegFile::new(256);
        for i in 0..128 {
            rf.set_mask(9, i, true);
        }
        let bits: Vec<bool> = (0..128).map(|_| false).collect();
        let active: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        rf.write_mask_bits_where(9, &bits, &active);
        for i in 0..128 {
            assert_eq!(rf.get_mask(9, i), i % 2 == 1, "bit {i}");
        }
    }

    #[test]
    fn group_bytes_cover_spilled_registers() {
        let mut rf = VRegFile::new(128); // 16 bytes per register
        rf.set(6, Sew::E64, 3, 0xAABB); // element 1 of v7
        let g = rf.group_bytes(6, 32);
        assert_eq!(u64::from_le_bytes(g[24..32].try_into().unwrap()), 0xAABB);
        rf.group_bytes_mut(6, 32)[0] = 0x7F;
        assert_eq!(rf.get(6, Sew::E8, 0), 0x7F);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut rf = VRegFile::new(128);
        rf.set(9, Sew::E64, 0, u64::MAX);
        rf.clear();
        assert_eq!(rf.get(9, Sew::E64, 0), 0);
    }
}
