//! Integration tests asserting the paper's central qualitative claims on
//! the full platform model (reduced workloads for test-suite speed).
//!
//! These are the claims §4/§5 of the paper make:
//! 1. every implementation slows down as memory latency is added;
//! 2. the slowdown shrinks as VL grows — scalar worst, VL=256 best;
//! 3. scalar cores stop benefiting from bandwidth early, long vectors keep
//!    benefiting up to high caps;
//! 4. all implementations compute identical results while doing so.

use sdv_bench::{run, Cell, ImplKind, KernelKind, Workloads};

fn slowdown(w: &Workloads, kernel: KernelKind, imp: ImplKind, lat: u64) -> f64 {
    let base = run(w, Cell { kernel, imp, extra_latency: 0, bandwidth: 64 }).cycles as f64;
    let slowed = run(w, Cell { kernel, imp, extra_latency: lat, bandwidth: 64 }).cycles as f64;
    slowed / base
}

fn bw_gain(w: &Workloads, kernel: KernelKind, imp: ImplKind) -> f64 {
    let capped = run(w, Cell { kernel, imp, extra_latency: 0, bandwidth: 1 }).cycles as f64;
    let full = run(w, Cell { kernel, imp, extra_latency: 0, bandwidth: 64 }).cycles as f64;
    capped / full
}

#[test]
fn claim1_latency_always_hurts() {
    let w = Workloads::small();
    for kernel in KernelKind::all() {
        for imp in
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 8 }, ImplKind::Vector { maxvl: 256 }]
        {
            let s = slowdown(&w, kernel, imp, 512);
            assert!(
                s > 1.05,
                "{kernel:?}/{imp:?}: +512 latency must slow things down, got {s:.3}x"
            );
        }
    }
}

#[test]
fn claim2_long_vectors_tolerate_latency_spmv_pr() {
    let w = Workloads::small();
    for kernel in [KernelKind::Spmv, KernelKind::Pr] {
        let scalar = slowdown(&w, kernel, ImplKind::Scalar, 1024);
        let vl8 = slowdown(&w, kernel, ImplKind::Vector { maxvl: 8 }, 1024);
        let vl64 = slowdown(&w, kernel, ImplKind::Vector { maxvl: 64 }, 1024);
        let vl256 = slowdown(&w, kernel, ImplKind::Vector { maxvl: 256 }, 1024);
        assert!(
            scalar > vl8 && vl8 > vl64 && vl64 > vl256,
            "{kernel:?}: slowdowns must fall with VL: scalar {scalar:.2} vl8 {vl8:.2} vl64 {vl64:.2} vl256 {vl256:.2}"
        );
        assert!(vl256 > 1.0);
    }
}

#[test]
fn claim2_endpoints_bfs_fft() {
    // BFS and FFT are noisier at reduced scale; assert the endpoints the
    // paper's tables pin down: scalar is the worst column, vl=256 the best.
    let w = Workloads::small();
    for kernel in [KernelKind::Bfs, KernelKind::Fft] {
        let scalar = slowdown(&w, kernel, ImplKind::Scalar, 1024);
        let vl256 = slowdown(&w, kernel, ImplKind::Vector { maxvl: 256 }, 1024);
        assert!(
            scalar > vl256,
            "{kernel:?}: scalar slowdown {scalar:.2} must exceed vl256 {vl256:.2}"
        );
    }
}

#[test]
fn claim3_bandwidth_exploitation_grows_with_vl() {
    let w = Workloads::small();
    for kernel in [KernelKind::Spmv, KernelKind::Pr, KernelKind::Fft] {
        let scalar = bw_gain(&w, kernel, ImplKind::Scalar);
        let vl256 = bw_gain(&w, kernel, ImplKind::Vector { maxvl: 256 });
        assert!(
            vl256 > 2.0 * scalar,
            "{kernel:?}: vl256 must exploit bandwidth far better: scalar {scalar:.2}x vs vl256 {vl256:.2}x"
        );
    }
}

#[test]
fn claim3_scalar_plateaus_early() {
    // Scalar SpMV barely improves past 2-4 B/cycle (the paper's plateau).
    let w = Workloads::small();
    let t4 = run(
        &w,
        Cell { kernel: KernelKind::Spmv, imp: ImplKind::Scalar, extra_latency: 0, bandwidth: 4 },
    )
    .cycles as f64;
    let t64 = run(
        &w,
        Cell { kernel: KernelKind::Spmv, imp: ImplKind::Scalar, extra_latency: 0, bandwidth: 64 },
    )
    .cycles as f64;
    assert!(t4 / t64 < 1.25, "scalar should gain <25% beyond 4 B/cy, got {:.2}x", t4 / t64);
    // While vl=256 still gains a lot beyond 4 B/cy.
    let v4 = run(
        &w,
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 4,
        },
    )
    .cycles as f64;
    let v64 = run(
        &w,
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        },
    )
    .cycles as f64;
    assert!(v4 / v64 > 2.0, "vl256 should gain >2x beyond 4 B/cy, got {:.2}x", v4 / v64);
}

#[test]
fn claim4_results_identical_under_any_knobs() {
    use sdv_core::{SdvMachine, Vm};
    use sdv_kernels::spmv;
    let w = Workloads::small();
    let want = spmv::expected_y(&w.mat);
    for (lat, bw, maxvl) in [(0u64, 64u64, 256usize), (1024, 64, 8), (0, 1, 64), (512, 2, 16)] {
        let mut m = SdvMachine::new(w.heap);
        m.set_extra_latency(lat);
        m.set_bandwidth_limit(bw);
        m.set_maxvl_cap(maxvl);
        let dev = spmv::setup_spmv(&mut m, &w.mat, &w.sell);
        spmv::spmv_vector_sell(&mut m, &dev);
        m.finish();
        let got = spmv::read_y(&m, &dev);
        for (g, e) in got.iter().zip(&want) {
            assert!((g - e).abs() < 1e-9 * (1.0 + e.abs()), "knobs must never change results");
        }
    }
}

#[test]
fn vector_wins_at_full_bandwidth() {
    // §4: at full bandwidth the long-vector implementations win outright on
    // the throughput-style kernels.
    let w = Workloads::small();
    for kernel in [KernelKind::Spmv, KernelKind::Pr, KernelKind::Fft] {
        let s =
            run(&w, Cell { kernel, imp: ImplKind::Scalar, extra_latency: 0, bandwidth: 64 }).cycles;
        let v = run(
            &w,
            Cell { kernel, imp: ImplKind::Vector { maxvl: 256 }, extra_latency: 0, bandwidth: 64 },
        )
        .cycles;
        assert!(v * 2 < s, "{kernel:?}: vl256 ({v}) should be >2x faster than scalar ({s})");
    }
}
