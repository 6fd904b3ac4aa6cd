//! A complete sparse iterative solve on the platform model: conjugate
//! gradients over an SPD banded operator, composed from the long-vector
//! SpMV, dot products, and AXPYs — a real scientific-application shape, run
//! under the paper's knobs.
//!
//! Run with: `cargo run --release --example cg_solver`

use sdv_core::{SdvMachine, Vm};
use sdv_kernels::{cg, CsrMatrix, SellCS};

fn main() {
    let n = 4000;
    let mat = CsrMatrix::spd_banded(n, 4, 42);
    let sell = SellCS::from_csr(&mat, 256, 256);
    println!(
        "CG on an SPD banded system: n={n}, nnz={}, {:.1} nnz/row\n",
        mat.nnz(),
        mat.mean_row_len()
    );

    println!("{:<28} {:>12} {:>6} {:>14}", "configuration", "cycles", "iters", "residual");
    for (label, maxvl, lat) in [
        ("vl=256", 256usize, 0u64),
        ("vl=8", 8, 0),
        ("vl=256, +512 latency", 256, 512),
        ("vl=8,   +512 latency", 8, 512),
    ] {
        let mut m = SdvMachine::new(256 << 20);
        m.set_maxvl_cap(maxvl);
        m.set_extra_latency(lat);
        let dev = cg::setup_cg(&mut m, &mat, &sell);
        let out = cg::cg_vector(&mut m, &dev, 1e-10, 500);
        let cycles = m.finish();
        let true_res = cg::residual_host(&m, &dev, &mat);
        assert!(true_res < 1e-8, "solver must actually solve: {true_res}");
        println!("{label:<28} {cycles:>12} {:>6} {:>14.3e}", out.iterations, out.residual);
    }
    println!(
        "\nSame solution everywhere; the cycle column shows the paper's two effects\n\
         surviving composition into a full solver (SpMV + dots + AXPYs per iteration)."
    );
}
