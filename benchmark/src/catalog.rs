//! The fixed part of the benchmark: the five workloads with their grids, and
//! the metric tables `BENCHMARK.json` is generated from.

use sdv_bench::{Cell, ImplKind, KernelKind, Workloads};
use sdv_engine::Rng;
use sdv_kernels::{fft, CsrMatrix, Graph, SellCS};
use sdv_uarch::TimingConfig;

/// Where a workload's cells are simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontDoor {
    /// `Sweeper::try_run_cell` in this process, one thread.
    InProcess,
    /// An in-process `serve()` with one worker, reached over loopback TCP
    /// through `Sweeper::set_remote`.
    Sweepd,
}

/// Cells that run under one timing configuration (one `Sweeper` each).
pub struct Group {
    pub cfg: TimingConfig,
    pub cells: Vec<Cell>,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub front: FrontDoor,
    /// Paper anchors carried by this workload: the implementation whose SpMV
    /// slowdown at +32 and +1024 cycles the paper reports, and those ratios.
    pub anchor: Option<(ImplKind, [f64; 2])>,
    groups: fn() -> Vec<Group>,
}

impl Spec {
    pub fn groups(&self) -> Vec<Group> {
        (self.groups)()
    }

    /// Distinct implementations in the grid, in first-seen order: the SpMV
    /// probe cells of the per-layer replays use these.
    pub fn impls(&self) -> Vec<ImplKind> {
        let mut out: Vec<ImplKind> = Vec::new();
        for g in self.groups() {
            for c in g.cells {
                if !out.contains(&c.imp) {
                    out.push(c.imp);
                }
            }
        }
        out
    }
}

const OTHERS: [KernelKind; 3] = [KernelKind::Bfs, KernelKind::Pr, KernelKind::Fft];
const SPMV: [KernelKind; 1] = [KernelKind::Spmv];

fn vl(maxvl: usize) -> ImplKind {
    ImplKind::Vector { maxvl }
}

fn grid(
    impls: &[ImplKind],
    kernels: &[KernelKind],
    latencies: &[u64],
    bandwidths: &[u64],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &imp in impls {
        for &kernel in kernels {
            for &extra_latency in latencies {
                for &bandwidth in bandwidths {
                    cells.push(Cell {
                        kernel,
                        imp,
                        extra_latency,
                        bandwidth,
                    });
                }
            }
        }
    }
    cells
}

/// The shape of the three single-tile simulate grids: per implementation,
/// SpMV (the kernel the paper's anchors are stated on) walks the whole knob
/// axis, and the other kernels run once, at the axis's stressed end. The
/// issue's full cross product costs 4-6 s a pass; on this host a cell needs
/// about eight samples spread over the run before its minimum settles, and a
/// run has 20 s, so a pass may cost about 2 s. A kernel's host work barely
/// moves with the knob (BFS/scalar: 0.27, 0.29, 0.30 s at +0, +32, +1024), so
/// the cells left out repeated work the ones kept already time.
fn knob_axis(
    impls: &[ImplKind],
    others: &[KernelKind],
    latencies: &[u64],
    bandwidths: &[u64],
) -> Vec<Cell> {
    let stressed_latency = [latencies.iter().copied().max().unwrap_or(0)];
    let stressed_bandwidth = [bandwidths.iter().copied().min().unwrap_or(64)];
    let mut cells = Vec::new();
    for &imp in impls {
        cells.extend(grid(&[imp], &SPMV, latencies, bandwidths));
        cells.extend(grid(&[imp], others, &stressed_latency, &stressed_bandwidth));
    }
    cells
}

fn single(cells: Vec<Cell>) -> Vec<Group> {
    vec![Group {
        cfg: TimingConfig::default(),
        cells,
    }]
}

/// `tiles` tiles on the smallest square mesh that seats them, one L2 bank
/// per node: what `--tiles N` selects on the study binaries.
fn tiled_cfg(tiles: usize) -> TimingConfig {
    let mut cfg = TimingConfig::default();
    cfg.mem.tiles = tiles;
    cfg.mem.mesh = sdv_bench::cli::mesh_for_tiles(tiles);
    cfg.mem.num_banks = cfg.mem.mesh.nodes();
    cfg
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "scalar_latency",
        why: "scalar core + L1 path only; rvv and the VPU do nothing, so it is the bypass workload for any exec or VPU change",
        front: FrontDoor::InProcess,
        anchor: Some((ImplKind::Scalar, [1.22, 8.78])),
        // FFT/scalar is left out: at n=2048 it ends in a coherence-audit
        // InvariantViolation at this commit, and a workload must not contain
        // operations that fail. The traced run still runs it once and
        // reports `canary.fft_scalar_failed`.
        groups: || {
            single(knob_axis(&[ImplKind::Scalar], &[KernelKind::Bfs, KernelKind::Pr], &[0, 32, 1024], &[64]))
        },
    },
    Spec {
        name: "longvec_latency",
        why: "few fat vector instructions: rvv exec, VpuTiming::dispatch and the per-line vpu_access walk do the work",
        front: FrontDoor::InProcess,
        anchor: Some((ImplKind::Vector { maxvl: 256 }, [1.05, 3.39])),
        groups: || single(knob_axis(&[vl(128), vl(256)], &OTHERS, &[0, 32, 1024], &[64])),
    },
    Spec {
        name: "shortvec_bandwidth",
        why: "millions of tiny vector instructions under the Bandwidth Limiter: per-instruction dispatch and classify cost dominates",
        front: FrontDoor::InProcess,
        anchor: None,
        groups: || single(knob_axis(&[vl(8), vl(16)], &OTHERS, &[0], &[1, 8, 64])),
    },
    Spec {
        name: "tiles_scaleout",
        why: "4 and 16 tiles: the only user of capture-then-replay, the EventQueue wheel, MESI with real sharers and a 4x4 mesh",
        front: FrontDoor::InProcess,
        anchor: None,
        // 4 tiles run the long-vector kernels; 16 tiles add the short-vector
        // SpMV and BFS, whose millions of tiny ops are what load the event
        // queue. PageRank at vl=8 (1 s a cell, twice) is left out for the
        // same two-second pass budget as above.
        groups: || {
            let all = [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr];
            let mut sixteen = grid(&[vl(8)], &[KernelKind::Spmv, KernelKind::Bfs], &[0], &[64]);
            sixteen.extend(grid(&[vl(256)], &all, &[0], &[64]));
            vec![
                Group { cfg: tiled_cfg(4), cells: grid(&[vl(256)], &all, &[0], &[64]) },
                Group { cfg: tiled_cfg(16), cells: sixteen },
            ]
        },
    },
    Spec {
        name: "service_small",
        why: "the 224-cell fig3 --small grid through sweepd, cold then warm: cache, JSON and server code that no simulate workload enters",
        front: FrontDoor::Sweepd,
        anchor: None,
        groups: || {
            single(grid(
                &ImplKind::paper_set(),
                &KernelKind::all(),
                &[0, 16, 32, 64, 128, 256, 512, 1024],
                &[64],
            ))
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Seed 0 stands for the paper's generator seeds.
pub const DEFAULT_SEED: u64 = 0;

/// The paper-scale inputs for `seed`, built from the public fields of
/// [`Workloads`]: same sizes for every seed (n = 11397, 2^15 vertices at
/// degree 16, 2048-point FFT), different matrix and graph. Seed 0 is
/// `Workloads::paper()` bit for bit.
pub fn paper_inputs(seed: u64) -> Workloads {
    let (mat_seed, graph_seed) = if seed == DEFAULT_SEED {
        (0xCA6E, 0x6AF)
    } else {
        let mut r = Rng::new(seed);
        (r.next_u64(), r.next_u64())
    };
    let mat = CsrMatrix::cage10_scale(mat_seed);
    let sell = SellCS::from_csr(&mat, 256, 256);
    Workloads {
        graph: Graph::paper_graph(graph_seed),
        signal: fft::test_signal(2048),
        mat,
        sell,
        bfs_src: 0,
        pr_iters: 5,
        heap: 256 << 20,
    }
}

/// `sweepd` builds `Workloads::small()` itself and refuses any other
/// fingerprint, so the service workload's seed cannot change the arrays; it
/// permutes the order the grid is requested in instead.
pub fn request_order(cells: &[Cell], seed: u64) -> Vec<Cell> {
    let mut out = cells.to_vec();
    if seed != DEFAULT_SEED {
        Rng::new(seed).shuffle(&mut out);
    }
    out
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; unused for per-layer metrics.
    pub bound: f64,
    /// A count or simulated statistic that must repeat exactly between two
    /// runs of the same code with the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound,
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        exact: true,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("sim_host_s", "s", 0.25),
    e2e("warm_wall_ms", "ms", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("peak_heap_mb", "MB", 0.05),
    e2e("setup_s", "s", 0.25),
];

/// Reported by every workload with `--trace 1`. A layer a workload does not
/// enter reports 0 (`bench.server.*` off `service_small`, `anchor.err_pct`
/// where no anchor cell is in the grid).
pub const PER_LAYER: [MetricDef; 67] = [
    time("rvv.exec_s", "s"),
    time("rvv.exec_share", "ratio"),
    time("rvv.ns_per_elem", "ns/elem"),
    exact("rvv.vinstrs", "count"),
    exact("rvv.elements", "count"),
    time("core.glue_s", "s"),
    time("core.reset_us", "us"),
    time("core.tiled1_over_inline", "ratio"),
    time("core.cell_ns_per_op", "ns/op"),
    time("uarch.timing_s", "s"),
    time("uarch.timing_share", "ratio"),
    time("uarch.ns_per_op", "ns/op"),
    time("uarch.ns_per_access", "ns/access"),
    time("uarch.issue_ns_per_op", "ns/op"),
    time("uarch.scalar_ns_per_op", "ns/op"),
    time("uarch.vpu_dispatch_ns", "ns"),
    time("uarch.memhier_core_ns", "ns/access"),
    time("uarch.memhier_vpu_ns", "ns/access"),
    time("uarch.finish_us", "us"),
    exact("uarch.sim_cycles", "cycles"),
    exact("uarch.ops", "count"),
    exact("uarch.accesses", "count"),
    exact("uarch.scalar_stall_cycles", "cycles"),
    exact("uarch.vpu_mem_wait_cycles", "cycles"),
    exact("uarch.stats_hash48", "count"),
    time("memsys.cache_access_ns", "ns/access"),
    time("memsys.dram_submit_ns", "ns/access"),
    exact("memsys.l1_miss_ratio", "ratio"),
    exact("memsys.l2_miss_ratio", "ratio"),
    exact("memsys.dram_bytes", "bytes"),
    exact("memsys.coherence_msgs", "count"),
    time("noc.send_ns", "ns"),
    exact("noc.packets", "count"),
    exact("noc.link_wait_cycles", "cycles"),
    time("engine.event_pair_ns", "ns"),
    exact("engine.events", "count"),
    time("engine.stats_collect_us", "us"),
    time("bench.harness.cell_ms_p50", "ms"),
    time("bench.harness.cell_ms_p95", "ms"),
    time("bench.harness.overhead_us", "us/cell"),
    time("bench.harness.memo_hit_ns", "ns"),
    time("host.allocs_per_cell", "count"),
    time("host.alloc_kb_per_cell", "KB/cell"),
    time("bench.cache.store_us", "us"),
    time("bench.cache.load_us", "us"),
    time("bench.cache.miss_us", "us"),
    time("bench.cache.key_us", "us"),
    exact("bench.cache.entry_bytes", "bytes"),
    time("bench.cache.fingerprint_ms", "ms"),
    MetricDef {
        name: "bench.cache.hit_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.0,
        exact: true,
    },
    time("bench.cache.warm_wall_ms", "ms"),
    time("bench.json.parse_ns_per_byte", "ns/byte"),
    time("bench.json.emit_ns_per_byte", "ns/byte"),
    time("bench.server.inproc_s", "s"),
    time("bench.server.cold_wall_s", "s"),
    time("bench.server.cold_overhead_ms_per_cell", "ms/cell"),
    time("bench.server.warm_us_per_cell", "us/cell"),
    time("bench.server.status_rtt_us", "us"),
    exact("bench.server.simulated", "count"),
    exact("bench.server.simulated_after_warm", "count"),
    exact("bench.server.cache_hits", "count"),
    exact("bench.server.dup_sim_ratio", "ratio"),
    time("trace.overhead_pct", "%"),
    time("trace.spans", "count"),
    exact("anchor.err_pct", "%"),
    exact("canary.fft_scalar_failed", "count"),
    exact("failed_share", "ratio"),
];

/// How long one run measures, and therefore what `--seconds` the driver
/// passes. Three paper-scale passes of the slowest grid fit.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated so the file and the tables cannot drift; a
/// unit test compares the committed file with this text.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = SPECS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn grid_sizes_are_pinned() {
        let sizes: Vec<usize> = SPECS
            .iter()
            .map(|s| s.groups().iter().map(|g| g.cells.len()).sum())
            .collect();
        // Smaller than the issue's 12/24/24/12: see `knob_axis`, and the three
        // FFT/scalar cells fail at this commit and live in the canary.
        assert_eq!(sizes, [5, 12, 12, 8, 224]);
        let tiles: Vec<usize> = spec("tiles_scaleout")
            .unwrap()
            .groups()
            .iter()
            .map(|g| g.cfg.mem.tiles)
            .collect();
        assert_eq!(tiles, [4, 16]);
        assert_eq!(
            spec("tiles_scaleout").unwrap().groups()[1]
                .cfg
                .mem
                .mesh
                .nodes(),
            16
        );
    }

    #[test]
    fn no_grid_repeats_a_cell() {
        for s in &SPECS {
            for g in s.groups() {
                for (i, c) in g.cells.iter().enumerate() {
                    assert!(!g.cells[..i].contains(c), "{}: {c:?} twice", s.name);
                }
            }
        }
    }

    #[test]
    fn service_grid_has_exactly_the_golden_files_rows() {
        let golden = include_str!("../../results/golden/fig3_small.csv");
        let cells = spec("service_small").unwrap().groups().remove(0).cells;
        let mut rows: Vec<String> = golden
            .lines()
            .skip(1)
            .map(|l| l.rsplit_once(',').expect("a cycles column").0.to_string())
            .collect();
        let mut mine: Vec<String> = cells
            .iter()
            .map(|c| format!("{},{},{}", c.kernel.name(), c.imp, c.extra_latency))
            .collect();
        rows.sort();
        mine.sort();
        assert_eq!(rows, mine);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen: Vec<&str> = Vec::new();
        for name in SPECS
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name, 64), "bad name {name}");
            assert!(!seen.contains(&name), "{name} used twice");
            seen.push(name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains(['\n', '"']));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END
                .iter()
                .find(|m| m.name == "setup_s")
                .unwrap()
                .bound,
            largest
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
        let parsed = sdv_bench::json::Json::parse(&benchmark_json()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("workloads")
                .and_then(|w| w.as_arr())
                .map(<[_]>::len),
            Some(5)
        );
    }

    #[test]
    fn default_seed_reproduces_the_paper_inputs_bit_for_bit() {
        assert_eq!(
            paper_inputs(DEFAULT_SEED).fingerprint(),
            Workloads::paper().fingerprint()
        );
        let other = paper_inputs(7);
        assert_ne!(other.fingerprint(), Workloads::paper().fingerprint());
        assert_eq!(other.fingerprint(), paper_inputs(7).fingerprint());
        assert_eq!(other.mat.nrows, 11397);
        assert_eq!(other.graph.n, 1 << 15);
    }

    #[test]
    fn request_order_is_a_seeded_permutation() {
        let cells = spec("service_small").unwrap().groups().remove(0).cells;
        assert_eq!(request_order(&cells, DEFAULT_SEED), cells);
        let a = request_order(&cells, 3);
        assert_eq!(a, request_order(&cells, 3));
        assert_ne!(a, cells);
        assert!(cells.iter().all(|c| a.contains(c)) && a.len() == cells.len());
    }
}
