#![allow(clippy::needless_range_loop)] // lanes indexed against multiple reference slices
//! Randomized tests of the RVV functional engine: every operation is checked
//! against a plain-Rust scalar model over random vector lengths, values, and
//! masks. Randomness comes from the in-repo deterministic `sdv_engine::Rng`,
//! so runs replay identically with no external crates.

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

fn random_words(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

fn random_mask(rng: &mut Rng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.chance(0.5)).collect()
}

fn state_with(vl: usize, xs: &[u64], ys: &[u64], mask: &[bool]) -> VState {
    let mut st = VState::paper_vpu();
    st.set_vl(vl, Sew::E64, Lmul::M1);
    for i in 0..vl {
        st.regs.set(1, i, xs[i]);
        st.regs.set(2, i, ys[i]);
        st.regs.set_mask(0, i, mask[i]);
    }
    st
}

#[test]
fn int_binary_ops_match_reference() {
    let kinds = [ArithKind::Add, ArithKind::Sll];
    let mut rng = Rng::new(0x5ADD_0001);
    for case in 0..128 {
        let vl = 1 + rng.index(32);
        let xs = random_words(&mut rng, 32);
        let ys = random_words(&mut rng, 32);
        let mask = random_mask(&mut rng, 32);
        let masked = rng.chance(0.5);
        let kind = kinds[rng.index(kinds.len())];
        let mut st = state_with(vl, &xs, &ys, &mask);
        // Pre-fill destination with a sentinel to observe undisturbed lanes.
        for i in 0..32 {
            st.regs.set(3, i, 0xAAAA_AAAA_AAAA_AAAA);
        }
        let scalar = ys[0];
        let op = VOp::ArithVX { kind, vd: 3, x: 1, scalar };
        let inst = if masked { VInst::masked(op) } else { VInst::new(op) };
        let mut mem = Mem(vec![0; 8]);
        exec(&inst, &mut st, &mut mem);
        for i in 0..vl {
            let want = match kind {
                ArithKind::Add => xs[i].wrapping_add(scalar),
                ArithKind::Sll => xs[i] << (scalar % 64),
            };
            let got = st.regs.get(3, i);
            if !masked || mask[i] {
                assert_eq!(got, want, "case {case} lane {i} kind {kind:?}");
            } else {
                assert_eq!(got, 0xAAAA_AAAA_AAAA_AAAA, "masked-off lane {i} disturbed");
            }
        }
    }
}

#[test]
fn compare_eq_matches_reference() {
    let mut rng = Rng::new(0x5ADD_0002);
    for case in 0..128 {
        let vl = 1 + rng.index(32);
        // A few distinct values, so equal lanes are as common as unequal ones.
        let xs: Vec<u64> = (0..32).map(|_| rng.below(4) << 5).collect();
        let scalar = xs[rng.index(vl)];
        let mask = vec![false; 32];
        let mut st = state_with(vl, &xs, &xs, &mask);
        let mut mem = Mem(vec![0; 8]);
        exec(&VInst::new(VOp::CmpVX { kind: CmpKind::Eq, md: 4, x: 1, scalar }), &mut st, &mut mem);
        for i in 0..vl {
            assert_eq!(st.regs.get_mask(4, i), xs[i] == scalar, "case {case} lane {i}");
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
        let mask = vec![false; 32];
        let mut st = state_with(vl, &xs, &xs, &mask);
        st.regs.set(5, 0, seed);
        let mut mem = Mem(vec![0; 8]);
        exec(&VInst::new(VOp::Red { kind: RedKind::Sum, vd: 6, x: 1, acc: 5 }), &mut st, &mut mem);
        let want = xs[..vl].iter().fold(seed, |a, &b| a.wrapping_add(b));
        assert_eq!(st.regs.get(6, 0), want);
    }
}

#[test]
fn popc_counts_the_mask_bits_below_vl() {
    let mut rng = Rng::new(0x5ADD_0004);
    for _ in 0..128 {
        let vl = 1 + rng.index(32);
        let bits = random_mask(&mut rng, 32);
        let mut st = VState::paper_vpu();
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
        let mask = vec![false; 32];
        let mut st = state_with(vl, &xs, &xs, &mask);
        let mut mem = Mem(vec![0; 32 * 5 * 8 + 64]);
        let stride = stride_elems * 8;
        let store = VOp::Store { vs: 1, addr: MemAddr::Strided { base: 0, stride } };
        let load = VOp::Load { vd: 12, addr: MemAddr::Strided { base: 0, stride } };
        exec(&VInst::new(store), &mut st, &mut mem);
        exec(&VInst::new(load), &mut st, &mut mem);
        for i in 0..vl {
            assert_eq!(st.regs.get(12, i), xs[i]);
        }
    }
}

/// The mask layout: a unit-stride load of known bytes into `v0` makes lane
/// `i` active exactly when bit `i % 8` of byte `i / 8` is set (LSB-first),
/// across 64-bit word boundaries, for a masked `vadd.vx` and for `vpopc`.
#[test]
fn mask_lanes_are_the_lsb_first_bits_of_loaded_bytes() {
    let bytes: Vec<u8> = (0..32u32).map(|i| (i.wrapping_mul(0x9D) ^ 0xA5) as u8).collect();
    let mut mem = Mem(vec![0; 4096]);
    mem.0[..32].copy_from_slice(&bytes);
    let mut st = VState::paper_vpu();
    st.set_vl(4, Sew::E64, Lmul::M1);
    exec(&VInst::new(VOp::Load { vd: 0, addr: MemAddr::Unit { base: 0 } }), &mut st, &mut mem);
    let vl = 200;
    st.set_vl(vl, Sew::E64, Lmul::M1);
    exec(&VInst::new(VOp::MvVX { vd: 1, scalar: 1000 }), &mut st, &mut mem);
    exec(
        &VInst::masked(VOp::ArithVX { kind: ArithKind::Add, vd: 1, x: 1, scalar: 7 }),
        &mut st,
        &mut mem,
    );
    exec(&VInst::new(VOp::Store { vs: 1, addr: MemAddr::Unit { base: 1024 } }), &mut st, &mut mem);
    let popc = exec(&VInst::new(VOp::Popc { m: 0 }), &mut st, &mut mem).scalar;
    let bit = |i: usize| (bytes[i / 8] >> (i % 8)) & 1 == 1;
    for i in 0..vl {
        let a = 1024 + 8 * i;
        let got = u64::from_le_bytes(mem.0[a..a + 8].try_into().unwrap());
        assert_eq!(got, if bit(i) { 1007 } else { 1000 }, "lane {i}");
    }
    assert_eq!(popc, Some((0..vl).filter(|&i| bit(i)).count() as u64));
}

#[test]
fn vsetvli_never_exceeds_caps() {
    let mut rng = Rng::new(0x5ADD_0009);
    for _ in 0..128 {
        let avl = rng.index(100_000);
        let cap = 1 + rng.index(511);
        let mut st = VState::paper_vpu();
        st.set_maxvl_cap(cap);
        let vl = st.set_vl(avl, Sew::E64, Lmul::M1);
        assert!(vl <= avl);
        assert!(vl <= cap);
        assert!(vl <= sdv_rvv::VLMAX);
        if avl > 0 && cap > 0 {
            assert!(vl > 0, "nonzero request with nonzero caps grants nonzero");
        }
    }
}
