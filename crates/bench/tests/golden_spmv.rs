//! Golden-number regression tests: pin the small-workload SpMV cycle counts
//! that anchor the paper's Figure 3 story (vectorization flattens the
//! latency curve). These exact numbers are also rows of
//! `results/golden/fig3_small.csv`; any optimization to the simulator hot
//! path must reproduce them bit-for-bit.
//!
//! If a deliberate *model* change (new timing rule, new cache policy) moves
//! these numbers, regenerate the golden CSV with
//! `cargo run --release --bin study -- fig3 --small --csv results/golden/fig3_small.csv`
//! and update the constants here in the same commit, explaining why.

use sdv_bench::{run, Cell, ImplKind, KernelKind, Sweeper, Workloads};

const SCALAR_LAT0: u64 = 134_015;
const VL256_LAT0: u64 = 25_805;
const SCALAR_LAT512: u64 = 996_735;
const VL256_LAT512: u64 = 38_705;

fn cell(imp: ImplKind, extra_latency: u64) -> Cell {
    Cell { kernel: KernelKind::Spmv, imp, extra_latency, bandwidth: 64 }
}

#[test]
fn spmv_small_golden_cycles() {
    let w = Workloads::small();
    let anchors = [
        (cell(ImplKind::Scalar, 0), SCALAR_LAT0),
        (cell(ImplKind::Vector { maxvl: 256 }, 0), VL256_LAT0),
        (cell(ImplKind::Scalar, 512), SCALAR_LAT512),
        (cell(ImplKind::Vector { maxvl: 256 }, 512), VL256_LAT512),
    ];
    // Via the one-shot entry point...
    for (c, want) in anchors {
        assert_eq!(run(&w, c).cycles, want, "golden cycles moved for {c:?}");
    }
    // ...and via the pooled runner `study` uses.
    let mut sweeper = Sweeper::new();
    for (c, want) in anchors {
        assert_eq!(
            sweeper.run_cell(&w, c).cycles,
            want,
            "pooled runner diverged from golden cycles for {c:?}"
        );
    }
}

#[test]
fn spmv_small_vectorization_flattens_latency() {
    // The paper's qualitative claim, checked on the pinned numbers: adding
    // +512 cycles of memory latency hurts the scalar run far more than the
    // long-vector run.
    let scalar_slowdown = SCALAR_LAT512 as f64 / SCALAR_LAT0 as f64;
    let vector_slowdown = VL256_LAT512 as f64 / VL256_LAT0 as f64;
    assert!(scalar_slowdown > 4.0, "scalar slowdown {scalar_slowdown}");
    assert!(vector_slowdown < 2.0, "vl=256 slowdown {vector_slowdown}");
}
