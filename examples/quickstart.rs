//! Quickstart: build the FPGA-SDV platform model, run a long-vector AXPY,
//! and play with the paper's three experiment knobs.
//!
//! Run with: `cargo run --release --example quickstart`

use sdv_core::{SdvMachine, Vm};
use sdv_rvv::{Lmul, Sew};

/// y <- a*x + y over `n` doubles, strip-mined VL-agnostically (the RVV
/// idiom: `vsetvli` grants whatever the machine allows per iteration).
fn axpy(vm: &mut impl Vm, a: f64, x: u64, y: u64, n: usize) {
    let mut i = 0usize;
    while i < n {
        let vl = vm.setvl(n - i, Sew::E64, Lmul::M1);
        let off = 8 * i as u64;
        vm.vle(1, x + off); // v1 = x[i..i+vl]
        vm.vle(2, y + off); // v2 = y[i..i+vl]
        vm.vfmacc_vf(2, a, 1); // v2 += a * v1
        vm.vse(2, y + off);
        vm.int_ops(2);
        i += vl;
        vm.branch(i < n);
    }
    vm.fence();
}

fn run_once(maxvl: usize, extra_latency: u64, bandwidth: u64) -> u64 {
    let n = 1 << 16;
    let mut m = SdvMachine::new(8 << 20);
    // The paper's three knobs: §2.1 MAXVL CSR, §2.2 latency controller,
    // §2.3 bandwidth limiter.
    m.set_maxvl_cap(maxvl);
    m.set_extra_latency(extra_latency);
    m.set_bandwidth_limit(bandwidth);

    let x = m.alloc(8 * n, 64);
    let y = m.alloc(8 * n, 64);
    for i in 0..n {
        m.mem_mut().poke_f64(x + 8 * i as u64, i as f64);
        m.mem_mut().poke_f64(y + 8 * i as u64, 1.0);
    }
    axpy(&mut m, 2.0, x, y, n);
    let cycles = m.finish();

    // The functional result is exact regardless of timing configuration.
    assert_eq!(m.mem().peek_f64(y + 8 * 1000), 1.0 + 2.0 * 1000.0);
    cycles
}

fn main() {
    // Print the platform topology (the paper's Figures 1-2 in text form).
    println!("{}\n", SdvMachine::new(1 << 12).describe());
    println!("FPGA-SDV model — AXPY over 64Ki doubles\n");
    println!("{:<24} {:>12}", "configuration", "cycles");
    for (label, maxvl, lat, bw) in [
        ("vl=256, no knobs", 256, 0, 64),
        ("vl=8,   no knobs", 8, 0, 64),
        ("vl=256, +512 latency", 256, 512, 64),
        ("vl=8,   +512 latency", 8, 512, 64),
        ("vl=256, 4 B/cy cap", 256, 0, 4),
        ("vl=8,   4 B/cy cap", 8, 0, 4),
    ] {
        println!("{label:<24} {:>12}", run_once(maxvl, lat, bw));
    }
    println!("\nLong vectors pay less for added latency and exploit more bandwidth —");
    println!("the two effects the paper quantifies (SC'23, Figures 3-5).");
}
