//! Fast Fourier Transform (complex f64, radix-2 Stockham autosort).
//!
//! The paper evaluates a 2048-point FFT, noting it combines arithmetic
//! intensity with "complex memory access patterns". The Stockham DIF
//! formulation used here (after Vizcaino et al.'s long-vector FFT work)
//! exposes exactly that: every stage has a long unit-stride dimension and a
//! strided/twiddle-table dimension, and the vector kernel picks whichever
//! loop is longer to vectorize —
//!
//! * early stages (`s < m`): vectorize over butterfly groups — unit-stride
//!   loads, *stride-2s stores*, twiddle factors loaded as vectors;
//! * late stages (`s ≥ m`): vectorize within a group — everything
//!   unit-stride, twiddle broadcast from a scalar.
//!
//! Data is split-format (separate re/im arrays), the standard layout for
//! vector FFTs. Unit-stride and strided accesses reach all of it, which is
//! why `sdv-rvv` models no segment (`vlseg2e`) loads: an interleaved-complex
//! kernel would be their only user.

use sdv_core::Vm;
use sdv_rvv::{Lmul, Reg, Sew};

// Register conventions.
const AR: Reg = 1;
const AI: Reg = 2;
const BR: Reg = 3;
const BI: Reg = 4;
const TR: Reg = 5;
const TI: Reg = 6;
const UR: Reg = 7;
const UI: Reg = 8;
const OR: Reg = 9;
const OI: Reg = 10;
const WR: Reg = 11;
const WI: Reg = 12;

/// Host-side complex buffer as (re, im) vectors.
pub type Complexes = (Vec<f64>, Vec<f64>);

/// Naive O(n²) DFT — the gold reference for tests.
pub fn dft_naive(re: &[f64], im: &[f64]) -> Complexes {
    let n = re.len();
    let mut or_ = vec![0.0; n];
    let mut oi = vec![0.0; n];
    for k in 0..n {
        let (mut sr, mut si) = (0.0, 0.0);
        for t in 0..n {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            let (s, c) = ang.sin_cos();
            sr += re[t] * c - im[t] * s;
            si += re[t] * s + im[t] * c;
        }
        or_[k] = sr;
        oi[k] = si;
    }
    (or_, oi)
}

/// Host-side Stockham DIF FFT — validates the index scheme the device
/// kernels mirror. Returns the transform in natural order.
pub fn stockham_host(re: &[f64], im: &[f64]) -> Complexes {
    let n = re.len();
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power-of-two size");
    let p = n.trailing_zeros();
    let mut a = (re.to_vec(), im.to_vec());
    let mut b = (vec![0.0; n], vec![0.0; n]);
    for q in 0..p {
        let n_cur = n >> q;
        let m = n_cur / 2;
        let s = 1usize << q;
        for pp in 0..m {
            let ang = -2.0 * std::f64::consts::PI * pp as f64 / n_cur as f64;
            let (wi, wr) = ang.sin_cos();
            for k in 0..s {
                let i0 = k + s * pp;
                let i1 = k + s * (pp + m);
                let (ar, ai) = (a.0[i0], a.1[i0]);
                let (br, bi) = (a.0[i1], a.1[i1]);
                let (tr, ti) = (ar - br, ai - bi);
                b.0[k + s * 2 * pp] = ar + br;
                b.1[k + s * 2 * pp] = ai + bi;
                b.0[k + s * (2 * pp + 1)] = tr * wr - ti * wi;
                b.1[k + s * (2 * pp + 1)] = tr * wi + ti * wr;
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Per-stage twiddle tables: stage q holds `n >> (q+1)` factors.
fn twiddles(n: usize) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let p = n.trailing_zeros();
    let mut twr = Vec::with_capacity(n);
    let mut twi = Vec::with_capacity(n);
    let mut offs = Vec::with_capacity(p as usize + 1);
    offs.push(0);
    for q in 0..p {
        let n_cur = n >> q;
        for pp in 0..n_cur / 2 {
            let ang = -2.0 * std::f64::consts::PI * pp as f64 / n_cur as f64;
            let (s, c) = ang.sin_cos();
            twr.push(c);
            twi.push(s);
        }
        offs.push(twr.len());
    }
    (twr, twi, offs)
}

/// Simulated-memory layout of one FFT instance.
#[derive(Debug, Clone)]
pub struct FftDevice {
    /// Transform size (power of two).
    pub n: usize,
    /// log2(n).
    pub stages: u32,
    /// Buffer A real/imag (f64\[n\] each).
    pub ar: u64,
    /// Buffer A imag.
    pub ai: u64,
    /// Buffer B real.
    pub br: u64,
    /// Buffer B imag.
    pub bi: u64,
    /// Twiddle reals (f64\[n-1\]).
    pub twr: u64,
    /// Twiddle imags (f64\[n-1\]).
    pub twi: u64,
    /// Per-stage offsets into the twiddle tables (host-side).
    pub tw_offs: Vec<usize>,
}

/// Allocate and populate an FFT instance with the given input signal.
pub fn setup_fft<V: Vm>(vm: &mut V, re: &[f64], im: &[f64]) -> FftDevice {
    let n = re.len();
    assert!(n.is_power_of_two() && n >= 2, "need a power-of-two size >= 2");
    assert_eq!(im.len(), n);
    let (twr_v, twi_v, tw_offs) = twiddles(n);
    let dev = FftDevice {
        n,
        stages: n.trailing_zeros(),
        ar: vm.alloc(8 * n, 64),
        ai: vm.alloc(8 * n, 64),
        br: vm.alloc(8 * n, 64),
        bi: vm.alloc(8 * n, 64),
        twr: vm.alloc(8 * twr_v.len(), 64),
        twi: vm.alloc(8 * twi_v.len(), 64),
        tw_offs,
    };
    let m = vm.mem_mut();
    m.poke_f64_slice(dev.ar, re);
    m.poke_f64_slice(dev.ai, im);
    m.poke_f64_slice(dev.twr, &twr_v);
    m.poke_f64_slice(dev.twi, &twi_v);
    dev
}

/// A deterministic mixed-tone test signal of length `n`.
pub fn test_signal(n: usize) -> Complexes {
    let re = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (2.0 * std::f64::consts::PI * 3.0 * t).cos()
                + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * t).sin()
        })
        .collect();
    let im = (0..n).map(|i| 0.25 * (i as f64 / n as f64 - 0.5)).collect();
    (re, im)
}

/// Which buffer holds the result after all stages.
fn result_buffers(dev: &FftDevice) -> (u64, u64) {
    if dev.stages.is_multiple_of(2) {
        (dev.ar, dev.ai)
    } else {
        (dev.br, dev.bi)
    }
}

/// Read back the transform result.
pub fn read_result<V: Vm>(vm: &V, dev: &FftDevice) -> Complexes {
    let (r, i) = result_buffers(dev);
    (vm.mem().peek_f64_vec(r, dev.n), vm.mem().peek_f64_vec(i, dev.n))
}

/// Scalar Stockham FFT (timed).
pub fn fft_scalar<V: Vm>(vm: &mut V, dev: &FftDevice) {
    let n = dev.n;
    let (mut sr, mut si, mut dr, mut di) = (dev.ar, dev.ai, dev.br, dev.bi);
    for q in 0..dev.stages {
        let n_cur = n >> q;
        let m = (n_cur / 2) as u64;
        let s = 1u64 << q;
        let toff = dev.tw_offs[q as usize] as u64;
        for pp in 0..m {
            let wr = vm.load_f64(dev.twr + 8 * (toff + pp));
            let wi = vm.load_f64(dev.twi + 8 * (toff + pp));
            vm.int_ops(3);
            for k in 0..s {
                let i0 = k + s * pp;
                let i1 = k + s * (pp + m);
                let ar = vm.load_f64(sr + 8 * i0);
                let ai = vm.load_f64(si + 8 * i0);
                let br = vm.load_f64(sr + 8 * i1);
                let bi = vm.load_f64(si + 8 * i1);
                let (tr, ti) = (ar - br, ai - bi);
                let o0 = k + s * 2 * pp;
                let o1 = k + s * (2 * pp + 1);
                vm.store_f64(dr + 8 * o0, ar + br);
                vm.store_f64(di + 8 * o0, ai + bi);
                vm.store_f64(dr + 8 * o1, tr * wr - ti * wi);
                vm.store_f64(di + 8 * o1, tr * wi + ti * wr);
                vm.fp_ops(10);
                vm.int_ops(4);
                vm.branch(k + 1 != s);
            }
            vm.branch(pp + 1 != m);
        }
        std::mem::swap(&mut sr, &mut dr);
        std::mem::swap(&mut si, &mut di);
        vm.int_ops(2);
    }
}

/// Long-vector Stockham FFT (timed).
pub fn fft_vector<V: Vm>(vm: &mut V, dev: &FftDevice) {
    let n = dev.n;
    let (mut sr, mut si, mut dr, mut di) = (dev.ar, dev.ai, dev.br, dev.bi);
    for q in 0..dev.stages {
        let n_cur = n >> q;
        let m = (n_cur / 2) as u64;
        let s = 1u64 << q;
        let toff = dev.tw_offs[q as usize] as u64;
        vm.int_ops(4);
        if s >= m {
            // Late stage: vectorize within a group — all unit-stride,
            // twiddle broadcast from scalar loads.
            for pp in 0..m {
                let wr = vm.load_f64(dev.twr + 8 * (toff + pp));
                let wi = vm.load_f64(dev.twi + 8 * (toff + pp));
                vm.int_ops(3);
                let mut k = 0u64;
                while k < s {
                    let vl = vm.setvl((s - k) as usize, Sew::E64, Lmul::M1) as u64;
                    let i0 = 8 * (k + s * pp);
                    let i1 = 8 * (k + s * (pp + m));
                    vm.vle(AR, sr + i0);
                    vm.vle(AI, si + i0);
                    vm.vle(BR, sr + i1);
                    vm.vle(BI, si + i1);
                    vm.vfsub_vv(TR, AR, BR);
                    vm.vfsub_vv(TI, AI, BI);
                    vm.vfadd_vv(UR, AR, BR);
                    vm.vfadd_vv(UI, AI, BI);
                    let o0 = 8 * (k + s * 2 * pp);
                    let o1 = 8 * (k + s * (2 * pp + 1));
                    vm.vse(UR, dr + o0);
                    vm.vse(UI, di + o0);
                    // (tr + i·ti)(wr + i·wi)
                    vm.vfmul_vf(OR, TR, wr);
                    vm.vfnmsac_vf(OR, wi, TI);
                    vm.vfmul_vf(OI, TR, wi);
                    vm.vfmacc_vf(OI, wr, TI);
                    vm.vse(OR, dr + o1);
                    vm.vse(OI, di + o1);
                    vm.int_ops(4);
                    k += vl;
                    vm.branch(k < s);
                }
                vm.branch(pp + 1 != m);
            }
        } else {
            // Early stage: vectorize over groups — strided loads/stores,
            // twiddle factors as vectors.
            let ld_stride = (8 * s) as i64;
            let st_stride = (16 * s) as i64;
            for k in 0..s {
                let mut pp = 0u64;
                vm.int_ops(2);
                while pp < m {
                    let vl = vm.setvl((m - pp) as usize, Sew::E64, Lmul::M1) as u64;
                    let i0 = 8 * (k + s * pp);
                    let i1 = 8 * (k + s * (pp + m));
                    if s == 1 {
                        vm.vle(AR, sr + i0);
                        vm.vle(AI, si + i0);
                        vm.vle(BR, sr + i1);
                        vm.vle(BI, si + i1);
                    } else {
                        vm.vlse(AR, sr + i0, ld_stride);
                        vm.vlse(AI, si + i0, ld_stride);
                        vm.vlse(BR, sr + i1, ld_stride);
                        vm.vlse(BI, si + i1, ld_stride);
                    }
                    vm.vle(WR, dev.twr + 8 * (toff + pp));
                    vm.vle(WI, dev.twi + 8 * (toff + pp));
                    vm.vfsub_vv(TR, AR, BR);
                    vm.vfsub_vv(TI, AI, BI);
                    vm.vfadd_vv(UR, AR, BR);
                    vm.vfadd_vv(UI, AI, BI);
                    vm.vfmul_vv(OR, TR, WR);
                    vm.vfnmsac_vv(OR, TI, WI);
                    vm.vfmul_vv(OI, TR, WI);
                    vm.vfmacc_vv(OI, TI, WR);
                    let o0 = 8 * (k + s * 2 * pp);
                    let o1 = 8 * (k + s * (2 * pp + 1));
                    vm.vsse(UR, dr + o0, st_stride);
                    vm.vsse(UI, di + o0, st_stride);
                    vm.vsse(OR, dr + o1, st_stride);
                    vm.vsse(OI, di + o1, st_stride);
                    vm.int_ops(4);
                    pp += vl;
                    vm.branch(pp < m);
                }
                vm.branch(k + 1 != s);
            }
        }
        std::mem::swap(&mut sr, &mut dr);
        std::mem::swap(&mut si, &mut di);
        vm.int_ops(2);
    }
    vm.fence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_core::FunctionalMachine;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn stockham_host_matches_dft() {
        for n in [2usize, 4, 8, 64, 256] {
            let (re, im) = test_signal(n);
            let want = dft_naive(&re, &im);
            let got = stockham_host(&re, &im);
            let tol = 1e-9 * n as f64;
            assert!(close(&got.0, &want.0, tol), "re mismatch n={n}");
            assert!(close(&got.1, &want.1, tol), "im mismatch n={n}");
        }
    }

    #[test]
    fn impulse_transforms_to_ones() {
        let mut re = vec![0.0; 16];
        re[0] = 1.0;
        let im = vec![0.0; 16];
        let (or_, oi) = stockham_host(&re, &im);
        assert!(or_.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert!(oi.iter().all(|&v| v.abs() < 1e-12));
    }

    fn check_device(n: usize) {
        let (re, im) = test_signal(n);
        let want = stockham_host(&re, &im);
        let tol = 1e-9 * n as f64;

        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_fft(&mut vm, &re, &im);
        fft_scalar(&mut vm, &dev);
        let got = read_result(&vm, &dev);
        assert!(close(&got.0, &want.0, tol) && close(&got.1, &want.1, tol), "scalar n={n}");

        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_fft(&mut vm, &re, &im);
        fft_vector(&mut vm, &dev);
        let got = read_result(&vm, &dev);
        assert!(close(&got.0, &want.0, tol) && close(&got.1, &want.1, tol), "vector n={n}");
    }

    #[test]
    fn device_kernels_match_host_small() {
        check_device(8);
        check_device(64);
    }

    #[test]
    fn device_kernels_match_host_512() {
        check_device(512);
    }

    #[test]
    fn paper_size_2048() {
        check_device(2048);
    }

    #[test]
    fn vector_respects_maxvl_cap() {
        let n = 256;
        let (re, im) = test_signal(n);
        let want = stockham_host(&re, &im);
        for cap in [8, 16, 64, 256] {
            let mut vm = FunctionalMachine::new(64 << 20);
            vm.set_maxvl_cap(cap);
            let dev = setup_fft(&mut vm, &re, &im);
            fft_vector(&mut vm, &dev);
            let got = read_result(&vm, &dev);
            assert!(close(&got.0, &want.0, 1e-6), "cap={cap}");
        }
    }

    #[test]
    fn odd_and_even_stage_counts_land_in_right_buffer() {
        check_device(4); // 2 stages: result in A
        check_device(8); // 3 stages: result in B
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 1024;
        let (re, im) = test_signal(n);
        let (fr, fi) = stockham_host(&re, &im);
        let time: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        let freq: f64 = fr.iter().zip(&fi).map(|(r, i)| r * r + i * i).sum::<f64>() / n as f64;
        assert!((time - freq).abs() < 1e-6 * time, "Parseval: {time} vs {freq}");
    }
}
