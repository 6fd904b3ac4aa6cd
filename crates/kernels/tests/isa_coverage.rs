//! The ISA is what the kernels execute, and stays that way.
//!
//! Every vector kernel the harness and `study` dispatch to runs on small
//! inputs at MAXVL 8 and 256 under [`TracingMachine`], and the set of
//! (variant, kind/addressing) pairs it executed must equal the instruction
//! set `sdv-rvv` models. [`pair`] names each pair and the one after it in a
//! wildcard-free `match`, so a new `VOp` variant, kind or addressing mode does
//! not compile until it has a place in that chain — and then fails this test
//! until a kernel executes it; an instruction no kernel executes any more
//! fails it too, and is deleted rather than excused.
//!
//! The tiled drivers (`*_tiled`) run on an `SdvMachine`'s own tile `Vm`s,
//! which a wrapper cannot reach; they compose the loop bodies traced here and
//! add one instruction of their own (see [`NOT_TRACED`]).

use sdv_core::{FunctionalMachine, TraceEvent, TracingMachine, Vm};
use sdv_kernels::{bfs, cg, dense, fft, pagerank, spmv, CsrMatrix, Graph, SellCS};
use sdv_rvv::{ArithKind, CmpKind, FArithKind, FmaKind, MaskKind, MemAddr, RedKind, VOp};
use std::collections::BTreeSet;

/// The name of `op`'s (variant, kind/addressing) pair, and a representative
/// of the pair listed after it (`None` after the last).
fn pair(op: &VOp) -> (&'static str, Option<VOp>) {
    use {ArithKind as A, FArithKind as F, FmaKind as Fma, MemAddr::*, VOp::*};
    let (unit, strided, indexed) =
        (Unit { base: 0 }, Strided { base: 0, stride: 0 }, Indexed { base: 0, index: 0 });
    let (vd, vs, md, x, y, m, scalar) = (0, 0, 0, 0, 0, 0, 0);
    let avx = |kind| ArithVX { kind, vd, x, scalar };
    let (fvv, fvf) = (|kind| FArithVV { kind, vd, x, y }, |kind| FArithVF { kind, vd, x, scalar });
    let (mvv, mvf) = (|kind| FmaVV { kind, vd, x, y }, |kind| FmaVF { kind, vd, scalar, y });
    let mask = |kind| MaskOp { kind, md, m1: m, m2: m };
    let red = |kind| Red { kind, vd, x, acc: 0 };
    let (name, next) = match op {
        Load { addr: Unit { .. }, .. } => ("vle", Load { vd, addr: strided }),
        Load { addr: Strided { .. }, .. } => ("vlse", Load { vd, addr: indexed }),
        Load { addr: Indexed { .. }, .. } => ("vlxe", LoadWiden { vd, base: 0 }),
        LoadWiden { .. } => ("vlwu", Store { vs, addr: unit }),
        Store { addr: Unit { .. }, .. } => ("vse", Store { vs, addr: strided }),
        Store { addr: Strided { .. }, .. } => ("vsse", Store { vs, addr: indexed }),
        Store { addr: Indexed { .. }, .. } => ("vsxe", avx(A::Add)),
        ArithVX { kind: A::Add, .. } => ("vadd.vx", avx(A::Sll)),
        ArithVX { kind: A::Sll, .. } => ("vsll.vx", fvv(F::Fadd)),
        FArithVV { kind: F::Fadd, .. } => ("vfadd.vv", fvv(F::Fsub)),
        FArithVV { kind: F::Fsub, .. } => ("vfsub.vv", fvv(F::Fmul)),
        FArithVV { kind: F::Fmul, .. } => ("vfmul.vv", fvv(F::Fdiv)),
        FArithVV { kind: F::Fdiv, .. } => ("vfdiv.vv", fvf(F::Fadd)),
        FArithVF { kind: F::Fadd, .. } => ("vfadd.vf", fvf(F::Fsub)),
        FArithVF { kind: F::Fsub, .. } => ("vfsub.vf", fvf(F::Fmul)),
        FArithVF { kind: F::Fmul, .. } => ("vfmul.vf", fvf(F::Fdiv)),
        FArithVF { kind: F::Fdiv, .. } => ("vfdiv.vf", mvv(Fma::Macc)),
        FmaVV { kind: Fma::Macc, .. } => ("vfmacc.vv", mvv(Fma::Nmsac)),
        FmaVV { kind: Fma::Nmsac, .. } => ("vfnmsac.vv", mvf(Fma::Macc)),
        FmaVF { kind: Fma::Macc, .. } => ("vfmacc.vf", mvf(Fma::Nmsac)),
        FmaVF { kind: Fma::Nmsac, .. } => {
            ("vfnmsac.vf", CmpVX { kind: CmpKind::Eq, md, x, scalar })
        }
        CmpVX { kind: CmpKind::Eq, .. } => ("vmseq.vx", mask(MaskKind::And)),
        MaskOp { kind: MaskKind::And, .. } => ("vmand", mask(MaskKind::Or)),
        MaskOp { kind: MaskKind::Or, .. } => ("vmor", Popc { m }),
        Popc { .. } => ("vpopc", red(RedKind::Sum)),
        Red { kind: RedKind::Sum, .. } => ("vredsum", red(RedKind::Fsum)),
        Red { kind: RedKind::Fsum, .. } => ("vfredsum", Mv { vd, x }),
        Mv { .. } => ("vmv.v.v", MvVX { vd, scalar }),
        MvVX { .. } => ("vmv.v.x", MvSX { vd, scalar }),
        MvSX { .. } => ("vmv.s.x", MvXS { x }),
        MvXS { .. } => return ("vmv.x.s", None),
    };
    (name, Some(next))
}

/// Every pair of the ISA, by following [`pair`]'s chain from `vle`.
fn isa() -> BTreeSet<&'static str> {
    let mut all = BTreeSet::new();
    let mut op = Some(VOp::Load { vd: 0, addr: MemAddr::Unit { base: 0 } });
    while let Some(o) = op {
        let (name, next) = pair(&o);
        assert!(all.insert(name), "{name} is listed twice");
        op = next;
    }
    all
}

/// Constructible pairs no kernel traced here executes, each with why it is
/// in the ISA all the same.
const NOT_TRACED: [(&str, &str); 3] = [
    ("vfsub.vf", "`FArithKind` is shared by the .vv and .vf forms; FFT subtracts vectors"),
    ("vfdiv.vf", "`FArithKind` is shared by the .vv and .vf forms; PageRank divides vectors"),
    ("vmor", "only `bfs_vector_tiled` on two or more tiles executes it (a peer may have reached the vertex); `study fig_scale`'s golden rows pin that op stream"),
];

#[test]
fn the_kernels_execute_exactly_the_isa() {
    let mat = CsrMatrix::random_uniform(96, 5, 11);
    let sell = SellCS::from_csr(&mat, 32, 32);
    let spd = CsrMatrix::spd_banded(96, 2, 3);
    let spd_sell = SellCS::from_csr(&spd, 32, 32);
    let graph = Graph::uniform(200, 4, 7);
    let (re, im) = fft::test_signal(64);

    // The pairs executed by any kernel, and those executed under `v0.t`.
    let (mut seen, mut masked) = (BTreeSet::new(), BTreeSet::new());
    for maxvl in [8, 256] {
        let mut run = |kernel: &dyn Fn(&mut TracingMachine<FunctionalMachine>)| {
            let mut vm = TracingMachine::new(FunctionalMachine::new(8 << 20), 1 << 20);
            vm.set_maxvl_cap(maxvl);
            kernel(&mut vm);
            assert_eq!(vm.dropped(), 0, "the trace cap must hold a whole kernel run");
            for e in vm.events() {
                if let TraceEvent::Vector { inst, .. } = e {
                    let name = pair(&inst.op).0;
                    seen.insert(name);
                    if inst.masked {
                        masked.insert(name);
                    }
                }
            }
        };
        run(&|vm| {
            let dev = spmv::setup_spmv(vm, &mat, &sell);
            spmv::spmv_vector_sell(vm, &dev);
        });
        run(&|vm| {
            let dev = spmv::setup_spmv(vm, &mat, &sell);
            spmv::spmv_vector_csr(vm, &dev);
        });
        run(&|vm| {
            let dev = bfs::setup_bfs(vm, &graph, 32, 0);
            bfs::bfs_vector(vm, &dev);
        });
        run(&|vm| {
            let dev = pagerank::setup_pagerank(vm, &graph, 32, 0.85, 2);
            pagerank::pagerank_vector(vm, &dev);
        });
        run(&|vm| {
            let dev = fft::setup_fft(vm, &re, &im);
            fft::fft_vector(vm, &dev);
        });
        run(&|vm| {
            let dev = cg::setup_cg(vm, &spd, &spd_sell);
            cg::cg_vector(vm, &dev, 1e-9, 20);
        });
        run(&|vm| {
            let dev = dense::setup_triad(vm, 300, 3.0, 5);
            dense::triad_vector(vm, &dev);
        });
        run(&|vm| {
            let dev = dense::setup_gemm(vm, 12, 5);
            dense::gemm_vector(vm, &dev);
        });
    }

    let isa = isa();
    assert_eq!(isa.len(), 31, "the ISA is 31 (variant, kind/addressing) pairs");
    let excused: BTreeSet<&str> = NOT_TRACED.iter().map(|&(name, _)| name).collect();
    assert!(excused.is_subset(&isa), "NOT_TRACED names a pair that is not in the ISA");
    let expected: BTreeSet<&str> = isa.difference(&excused).copied().collect();
    let unexecuted: Vec<_> = expected.difference(&seen).collect();
    let excused_but_executed: Vec<_> = seen.difference(&expected).collect();
    assert!(
        unexecuted.is_empty() && excused_but_executed.is_empty(),
        "in the ISA but executed by no kernel (delete them): {unexecuted:?}; \
         executed by a kernel but listed in NOT_TRACED (drop the entry): {excused_but_executed:?}"
    );
    // The four instructions that ever run under v0.t (all of them BFS's).
    assert_eq!(masked, BTreeSet::from(["vadd.vx", "vlwu", "vlxe", "vsxe"]));
}
