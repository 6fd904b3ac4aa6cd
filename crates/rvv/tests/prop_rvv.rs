#![allow(clippy::needless_range_loop)] // lanes indexed against multiple reference slices
//! Randomized tests of the RVV functional engine: every operation is checked
//! against a plain-Rust scalar model over random vector lengths, element
//! widths, values, and masks. Randomness comes from the in-repo
//! deterministic `sdv_engine::Rng`, so runs replay identically with no
//! external crates.

use sdv_engine::Rng;
use sdv_rvv::{exec, ArithKind, CmpKind, Lmul, MemAddr, RedKind, Sew, VInst, VOp, VState};

struct Mem(Vec<u8>);
impl sdv_rvv::VMemory for Mem {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.0[a..a + buf.len()]);
    }
    fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let a = addr as usize;
        self.0[a..a + buf.len()].copy_from_slice(buf);
    }
}

fn random_sew(rng: &mut Rng) -> Sew {
    [Sew::E8, Sew::E16, Sew::E32, Sew::E64][rng.index(4)]
}

fn random_words(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

fn random_mask(rng: &mut Rng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.chance(0.5)).collect()
}

fn state_with(vl: usize, sew: Sew, xs: &[u64], ys: &[u64], mask: &[bool]) -> VState {
    let mut st = VState::new(2048); // 32 e64 per register
    st.set_vl(vl, sew, Lmul::M1);
    for i in 0..vl {
        st.regs.set(1, sew, i, xs[i]);
        st.regs.set(2, sew, i, ys[i]);
        st.regs.set_mask(0, i, mask[i]);
    }
    st
}

#[test]
fn int_binary_ops_match_reference() {
    let kinds = [ArithKind::Add, ArithKind::Sll];
    let mut rng = Rng::new(0x5ADD_0001);
    for case in 0..128 {
        let sew = random_sew(&mut rng);
        let vl = 1 + rng.index(32);
        let xs = random_words(&mut rng, 32);
        let ys = random_words(&mut rng, 32);
        let mask = random_mask(&mut rng, 32);
        let masked = rng.chance(0.5);
        let kind = kinds[rng.index(kinds.len())];
        let mut st = state_with(vl, sew, &xs, &ys, &mask);
        // Pre-fill destination with a sentinel to observe undisturbed lanes.
        for i in 0..32.min(st.regs.elems_per_reg(sew)) {
            st.regs.set(3, sew, i, 0xAAAA_AAAA_AAAA_AAAA & sew.value_mask());
        }
        let scalar = ys[0];
        let op = VOp::ArithVX { kind, vd: 3, x: 1, scalar };
        let inst = if masked { VInst::masked(op) } else { VInst::new(op) };
        let mut mem = Mem(vec![0; 8]);
        exec(&inst, &mut st, &mut mem);
        let m = sew.value_mask();
        for i in 0..vl {
            let (a, b) = (xs[i] & m, scalar & m);
            let sh = (b as u32) & (sew.bits() as u32 - 1);
            let want = match kind {
                ArithKind::Add => a.wrapping_add(b),
                ArithKind::Sll => a << sh,
            } & m;
            let got = st.regs.get(3, sew, i);
            if !masked || mask[i] {
                assert_eq!(got, want, "case {case} lane {i} kind {kind:?} sew {sew:?}");
            } else {
                assert_eq!(got, 0xAAAA_AAAA_AAAA_AAAA & m, "masked-off lane {i} disturbed");
            }
        }
    }
}

#[test]
fn compare_eq_matches_reference() {
    let mut rng = Rng::new(0x5ADD_0002);
    for case in 0..128 {
        let sew = random_sew(&mut rng);
        let vl = 1 + rng.index(32);
        // A few distinct values, so equal lanes are as common as unequal ones.
        let xs: Vec<u64> = (0..32).map(|_| rng.below(4) << 5).collect();
        let scalar = xs[rng.index(vl)] | (rng.next_u64() & !sew.value_mask());
        let mask = vec![false; 32];
        let mut st = state_with(vl, sew, &xs, &xs, &mask);
        let mut mem = Mem(vec![0; 8]);
        exec(&VInst::new(VOp::CmpVX { kind: CmpKind::Eq, md: 4, x: 1, scalar }), &mut st, &mut mem);
        for i in 0..vl {
            let want = xs[i] == scalar & sew.value_mask();
            assert_eq!(st.regs.get_mask(4, i), want, "case {case} lane {i} sew {sew:?}");
        }
    }
}

#[test]
fn reduction_sum_equals_fold() {
    let mut rng = Rng::new(0x5ADD_0003);
    for _ in 0..128 {
        let vl = 1 + rng.index(32);
        let xs = random_words(&mut rng, 32);
        let seed = rng.next_u64();
        let sew = Sew::E64;
        let mask = vec![false; 32];
        let mut st = state_with(vl, sew, &xs, &xs, &mask);
        st.regs.set(5, sew, 0, seed);
        let mut mem = Mem(vec![0; 8]);
        exec(&VInst::new(VOp::Red { kind: RedKind::Sum, vd: 6, x: 1, acc: 5 }), &mut st, &mut mem);
        let want = xs[..vl].iter().fold(seed, |a, &b| a.wrapping_add(b));
        assert_eq!(st.regs.get(6, sew, 0), want);
    }
}

#[test]
fn popc_counts_the_mask_bits_below_vl() {
    let mut rng = Rng::new(0x5ADD_0004);
    for _ in 0..128 {
        let vl = 1 + rng.index(32);
        let bits = random_mask(&mut rng, 32);
        let mut st = VState::new(2048);
        st.set_vl(vl, Sew::E64, Lmul::M1);
        for i in 0..32 {
            st.regs.set_mask(2, i, bits[i]);
        }
        let mut mem = Mem(vec![0; 8]);
        let info = exec(&VInst::new(VOp::Popc { m: 2 }), &mut st, &mut mem);
        let want = bits[..vl].iter().filter(|&&b| b).count() as u64;
        assert_eq!(info.scalar, Some(want));
    }
}

#[test]
fn load_store_roundtrip_random_strides() {
    let mut rng = Rng::new(0x5ADD_0008);
    for _ in 0..128 {
        let vl = 1 + rng.index(32);
        let xs = random_words(&mut rng, 32);
        let stride_elems = 1 + rng.below(4) as i64;
        let sew = Sew::E64;
        let mask = vec![false; 32];
        let mut st = state_with(vl, sew, &xs, &xs, &mask);
        let mut mem = Mem(vec![0; 32 * 5 * 8 + 64]);
        let stride = stride_elems * 8;
        let store = VOp::Store { vs: 1, addr: MemAddr::Strided { base: 0, stride } };
        let load = VOp::Load { vd: 12, addr: MemAddr::Strided { base: 0, stride } };
        exec(&VInst::new(store), &mut st, &mut mem);
        exec(&VInst::new(load), &mut st, &mut mem);
        for i in 0..vl {
            assert_eq!(st.regs.get(12, sew, i), xs[i]);
        }
    }
}

#[test]
fn vsetvl_never_exceeds_caps() {
    let mut rng = Rng::new(0x5ADD_0009);
    for _ in 0..128 {
        let avl = rng.index(100_000);
        let cap = 1 + rng.index(511);
        let sew = random_sew(&mut rng);
        let mut st = VState::paper_vpu();
        st.set_maxvl_cap(cap);
        let vl = st.set_vl(avl, sew, Lmul::M1);
        assert!(vl <= avl);
        assert!(vl <= cap);
        assert!(vl <= 16384 / sew.bits());
        if avl > 0 && cap > 0 {
            assert!(vl > 0, "nonzero request with nonzero caps grants nonzero");
        }
    }
}
