//! study — the paper's grid figures (FIG3–5), the stall attribution behind
//! them (STALL), the tile scale-out (EXT8), the design-choice ablations
//! (ABL1–4) and extension studies (EXT1–7), plus the `calibrate` smoke.
//!
//! Usage: `study --list`
//!        `study NAME [--small] [--threads N] [--cache | --cache-dir DIR]`
//!        `study all --out DIR [--small] [--threads N] [--cache | --cache-dir DIR]`
//!
//! `roofline` also takes `--bw N`, `calibrate` kernel names (`study
//! calibrate SPMV BFS`), `fig3`/`fig4`/`fig5`/`fig_stalls` [`FIGURE_FLAGS`]
//! and `fig_scale` [`SCALE_FLAGS`] ([`own_flags`]). Every study runs the
//! paper-scale inputs unless `--small` is given.
//!
//! A study is a plain function in [`STUDIES`]: it builds its [`Cell`]s, runs
//! them through [`Run::grid`] — a [`Sweeper`], so every study inherits worker
//! threads, the persistent result cache with content-fingerprinted keys and
//! per-cell fault isolation (`FAILED` cells, exit 4) — and writes tables to
//! its [`Run`]. `results/NAME.txt` is `study NAME`'s stdout and
//! `results/NAME.csv` a figure's CSV; `study all` writes every one of them
//! from one process, which simulates each distinct cell once. `fig_stalls`
//! and `fig_scale` each check a gate on what they print ([`stall_verdict`],
//! [`check_sums`]); a violated gate is exit 1 once every file is written,
//! unless a failed cell already makes it exit 4.

use sdv_bench::cache::{CacheKey, ResultCache};
use sdv_bench::figure::{self, Figure};
use sdv_bench::metrics::StallBreakdown;
use sdv_bench::table::{render, slowdown_cell};
use sdv_bench::Workloads;
use sdv_bench::{cli, metrics, Cell, CellOutcome, ImplKind, KernelKind, RunResult, Sweeper};
use sdv_core::{SdvMachine, Vm};
use sdv_engine::Stats;
use sdv_kernels::{dense, spmv, CsrMatrix, Graph, SellCS};
use sdv_noc::MeshConfig;
use sdv_uarch::{estimate_energy, EnergyConfig, TimingConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const BIN: &str = "study";

/// `(name, id, about, function)`: `results/NAME.txt` is named after `name`,
/// `id` is DESIGN.md's experiment index.
type Study = (&'static str, &'static str, &'static str, fn(&mut Run));

/// In `study all`'s order: every cell of Fig. 4 and of the stall
/// breakdown, a sixth of Fig. 5's, a third of the scale-out's and most
/// default-config cells of the studies are Fig. 3 cells.
const STUDIES: &[Study] = &[
    ("fig3", "FIG3", "Fig. 3: cycles vs added latency", |run| figure_study(run, Figure::Latency)),
    ("fig4", "FIG4", "Fig. 4: slowdown, §4.1 anchors", |run| figure_study(run, Figure::Slowdown)),
    ("fig5", "FIG5", "Fig. 5: time vs bandwidth cap", |run| figure_study(run, Figure::Bandwidth)),
    ("fig_stalls", "STALL", "stall breakdown at +0/+1024; gate: monotone in MAXVL", fig_stalls),
    ("fig_scale", "EXT8", "tile scale-out: 1/4/16 tiles x vl; gate: exact counter sums", fig_scale),
    ("ablation_spmv", "ABL1", "SpMV format: SELL-C-σ vs row-at-a-time CSR gather", ablation_spmv),
    ("ablation_mlp", "ABL2", "MLP is the mechanism: MSHRs, run-ahead, VPU queue", ablation_mlp),
    ("ablation_banks", "ABL3", "L2HN banking: 1x1 vs 2x2 vs 4x4 mesh", ablation_banks),
    ("ablation_sigma", "ABL4", "SELL-C-σ sorting window: σ = 1, C, n", ablation_sigma),
    ("inputs_study", "EXT1", "input sensitivity: matrix and graph families", inputs_study),
    ("dense_contrast", "EXT2", "STREAM triad and DGEMM through the same two knobs", dense_contrast),
    ("ablation_prefetch", "EXT3", "scalar next-line prefetcher depth", ablation_prefetch),
    ("energy_study", "EXT4", "counts-based energy and EDP of the SpMV grid", energy_study),
    ("roofline", "EXT5", "roofline placement of the four kernels", roofline),
    ("lanes_study", "EXT6", "VPU lane-count sweep at fixed VLEN", lanes_study),
    ("ablation_rows", "EXT7", "flat vs open-row DRAM model", ablation_rows),
    ("calibrate", "-", "reduced grid with wall time per cell: speed and shape smoke", calibrate),
];

/// Flags of the grid figures and `fig_stalls` alone, the one switch first.
#[rustfmt::skip]
const FIGURE_FLAGS: &[&str] = &["--watchdog", "--csv", "--server", "--retries", "--metrics-json",
    "--trace", "--trace-kernel", "--cycle-budget", "--fault", "--fault-seed"];

/// `fig_scale`'s share of [`FIGURE_FLAGS`]: its three topologies cannot share
/// one server, and it has no traced cell.
#[rustfmt::skip]
const SCALE_FLAGS: &[&str] = &["--watchdog", "--csv", "--metrics-json", "--cycle-budget",
    "--fault", "--fault-seed"];

/// The flags beyond `--small`, `--threads` and the cache's that entry `name`
/// takes; `study all` takes none of them.
fn own_flags(name: &str) -> &'static [&'static str] {
    match name {
        "fig3" | "fig4" | "fig5" | "fig_stalls" => FIGURE_FLAGS,
        "fig_scale" => SCALE_FLAGS,
        "roofline" => &["--bw"],
        _ => &[],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--paper") {
        cli::die_usage(BIN, "--paper was removed: studies run paper scale unless --small is given");
    }
    let switches = [&["--list", "--small", "--cache"], &FIGURE_FLAGS[..1]].concat();
    let valued = [&["--threads", "--cache-dir", "--bw", "--out"], &FIGURE_FLAGS[1..]].concat();
    let positional =
        cli::check_flags(&args, &switches, &valued).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    if args.iter().any(|a| a == "--list") {
        for (name, id, about, _) in STUDIES {
            println!("{name:<18} {id:<5} {about}");
        }
        return;
    }
    let names = STUDIES.iter().map(|s| s.0).collect::<Vec<_>>().join(", ");
    let Some((name, rest)) = positional.split_first() else {
        cli::die_usage(BIN, &format!("name a study or all (or --list): {names}"));
    };
    let entry = STUDIES.iter().find(|s| s.0 == *name);
    if entry.is_none() && *name != "all" {
        cli::die_usage(BIN, &format!("unknown study '{name}'; studies: {names}, all"));
    }
    let foreign = |f: &&str| !own_flags(name).contains(f) && args.iter().any(|a| a == f);
    if let Some(flag) = FIGURE_FLAGS.iter().chain(&["--bw"]).find(|f| foreign(f)) {
        let owners: Vec<&str> =
            STUDIES.iter().map(|s| s.0).filter(|s| own_flags(s).contains(flag)).collect();
        cli::die_usage(BIN, &format!("{flag} belongs to study {}", owners.join(", ")));
    }
    let bw = cli::parse_arg::<u64>(&args, "--bw").unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let out_dir = cli::arg_value(&args, "--out").map(PathBuf::from);
    if out_dir.is_some() != (*name == "all") {
        cli::die_usage(BIN, "--out DIR belongs to `study all`, which needs it");
    }
    if let Some(arg) = rest.first().filter(|_| *name != "calibrate") {
        cli::die_usage(BIN, &format!("unexpected argument '{arg}'"));
    }
    let mut run = Run {
        args: &args,
        small: args.iter().any(|a| a == "--small"),
        threads: cli::threads(BIN, &args),
        bw,
        rest,
        csv: cli::arg_value(&args, "--csv").map(PathBuf::from),
        out: None,
        outcomes: Vec::new(),
        memo: Default::default(),
        requested: 0,
        simulated: 0,
        gate_failed: false,
    };
    match (entry, out_dir) {
        (Some((.., study)), _) => study(&mut run),
        (None, dir) => all(&mut run, &dir.expect("`all` has --out")),
    }
    cli::report_failures_and_exit(BIN, &run.outcomes);
    if run.gate_failed {
        std::process::exit(1);
    }
}

/// `study all --out DIR`: every entry but `calibrate` (it prints wall times),
/// stdout to `DIR/NAME.txt`, cell counts to stderr.
fn all(run: &mut Run, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        cli::die_bad_input(BIN, &format!("cannot create {}: {e}", dir.display()));
    }
    for (name, _, _, study) in STUDIES.iter().filter(|s| s.0 != "calibrate") {
        let (requested, simulated) = (run.requested, run.simulated);
        run.csv = own_flags(name).contains(&"--csv").then(|| dir.join(format!("{name}.csv")));
        run.out = Some(String::new());
        study(run);
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, run.out.take().expect("set above")) {
            cli::die_bad_input(BIN, &format!("cannot write {}: {e}", path.display()));
        }
        let (r, s) = (run.requested - requested, run.simulated - simulated);
        eprintln!("{BIN} all: {name}: {r} cells requested, {s} simulated");
    }
    eprintln!("{BIN} all: {} cells requested, {} simulated", run.requested, run.simulated);
}

/// What the command line asked of a study, what it printed, and every
/// outcome it produced.
struct Run<'a> {
    args: &'a [String],
    small: bool,
    threads: usize,
    /// `roofline`'s bandwidth cap.
    bw: Option<u64>,
    /// Positional arguments after the study's name (`calibrate`'s kernels).
    rest: &'a [&'a str],
    /// Where a figure writes its CSV: `--csv`, or `DIR/NAME.csv` in `all`
    /// ([`Run::write_csv`]).
    csv: Option<PathBuf>,
    /// The running study's stdout, through `Run`'s [`std::fmt::Write`]:
    /// kept for `DIR/NAME.txt` under `study all`, printed at once otherwise.
    out: Option<String>,
    outcomes: Vec<CellOutcome>,
    /// Every completed cell and program by result-cache key text, so memo and
    /// cache agree on what is the same cell; like the cache, no failures.
    memo: std::collections::HashMap<String, (u64, Stats)>,
    /// Cells and programs asked for, and those simulated in this process.
    requested: usize,
    simulated: usize,
    /// Whether a study's gate failed ([`Run::fail_gate`]).
    gate_failed: bool,
}

impl Run<'_> {
    fn workloads(&self) -> Workloads {
        (if self.small { Workloads::small } else { Workloads::paper })()
    }

    /// Run `cells` on inputs `w` under `cfg`, in input order. The memo
    /// answers what it holds; the rest go to a `Sweeper`, which serves one
    /// `(Workloads, TimingConfig)` pair, so each grid gets its own and drops
    /// it (machines included) when done.
    fn grid(&mut self, w: &Workloads, cfg: TimingConfig, cells: &[Cell]) -> Vec<CellOutcome> {
        let (input_fp, cfg_text) = (w.fingerprint(), cfg.canonical());
        let key = |c| CacheKey::for_cell(c, &input_fp, &cfg_text, sdv_rvv::Backend).text().into();
        let todo: Vec<Cell> =
            cells.iter().copied().filter(|&c| !self.memo.contains_key(&key(c))).collect();
        let mut fresh = std::collections::HashMap::new();
        if !todo.is_empty() {
            let mut sweeper = Sweeper::with_config(cfg);
            let scale = if self.small { "small" } else { "paper" };
            cli::configure_sweeper(BIN, self.args, &mut sweeper, scale);
            for out in sweeper.sweep_outcomes(w, &todo, self.threads) {
                if let CellOutcome::Done(r) = &out {
                    self.memo.insert(key(r.cell), (r.cycles, r.stats.clone()));
                }
                fresh.insert(out.cell(), out);
            }
            self.simulated += sweeper.fresh_simulations();
        }
        self.requested += cells.len();
        let outcomes: Vec<CellOutcome> = cells
            .iter()
            .map(|&cell| match self.memo.get(&key(cell)) {
                Some((cycles, stats)) => {
                    CellOutcome::Done(RunResult { cell, cycles: *cycles, stats: stats.clone() })
                }
                None => fresh[&cell].clone(),
            })
            .collect();
        self.outcomes.extend(outcomes.iter().cloned());
        outcomes
    }

    /// Cycles of a program that is not a [`Cell`] — TRIAD, DGEMM and
    /// CSR-gather SpMV; `KernelKind` is the paper's four kernels — through
    /// the memo and the result cache. The only execution in this binary that
    /// is not a `Sweeper`'s. `input_fp` must determine the input content, or
    /// `knobs` must carry every parameter it is generated from.
    fn custom_cycles(
        &mut self,
        program: &str,
        input_fp: &str,
        knobs: &str,
        cfg: &TimingConfig,
        simulate: impl FnOnce() -> u64,
    ) -> u64 {
        self.requested += 1;
        let key = CacheKey::new(program, input_fp, &cfg.canonical(), knobs);
        if let Some(&(cycles, _)) = self.memo.get(key.text()) {
            return cycles;
        }
        let cache = cli::cache_dir(BIN, self.args).map(|dir| {
            ResultCache::open(&dir).unwrap_or_else(|e| cli::die_bad_input(BIN, &e.to_string()))
        });
        let cycles = cache.as_ref().and_then(|c| c.load(&key)).map_or_else(
            || {
                self.simulated += 1;
                let cycles = simulate();
                cache.iter().for_each(|c| c.store(&key, cycles, &Stats::new()));
                cycles
            },
            |hit| hit.cycles,
        );
        self.memo.insert(key.text().into(), (cycles, Stats::new()));
        cycles
    }

    /// Write a figure's CSV where [`Run::csv`] says, if anywhere, and say so.
    fn write_csv(&mut self, csv: String) {
        let Some(path) = self.csv.clone() else { return };
        if let Err(e) = std::fs::write(&path, csv) {
            cli::die_bad_input(BIN, &format!("cannot write {}: {e}", path.display()));
        }
        writeln!(self, "wrote {}", path.display()).unwrap();
    }

    /// The running study's gate failed: say why now, and exit 1 once every
    /// file is written.
    fn fail_gate(&mut self, why: &str) {
        eprintln!("{BIN}: gate failed: {why}");
        self.gate_failed = true;
    }

    fn table(&mut self, title: &str, row_header: &str, col_headers: &[String], rows: &Rows) {
        writeln!(self, "{}", render(title, row_header, col_headers, rows)).unwrap();
    }

    fn line(&mut self, text: &str) {
        writeln!(self, "{text}").unwrap();
    }
}

impl std::fmt::Write for Run<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        match &mut self.out {
            Some(buffer) => buffer.push_str(s),
            None => print!("{s}"),
        }
        Ok(())
    }
}

/// FIG3–5 — the paper's grid figures ([`figure`]). The hardening flags set
/// every cell's config, and `--server` ships the grid to `sweepd`.
fn figure_study(run: &mut Run, fig: Figure) {
    let cfg = cli::hardening_config(run.args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let w = run.workloads();
    let outcomes = run.grid(&w, cfg, &figure::cells(fig));
    let (text, csv) = figure::text_and_csv(fig, &outcomes);
    write!(run, "{text}").unwrap();
    run.write_csv(csv);
    // Only `study figN` takes these two, and it prints as it goes.
    metrics::write_metrics_if_requested(BIN, run.args, &outcomes);
    metrics::write_trace_if_requested(BIN, run.args, &w, cfg, figure::traced_cell(fig));
}

/// STALL's added latency, beside +0: Fig. 3's harshest.
const STRESSED: u64 = 1024;

/// STALL — where each implementation's time goes: memory stalls, VPU queue
/// backpressure, VPU sync waits and branch bubbles as shares of wall time,
/// one table per kernel at +0 and at [`STRESSED`], then the paper's claim as
/// two monotone sequences per kernel, memory-stall fraction and cycles
/// ([`stall_verdict`], the gate). Its cells
/// are Fig. 3's; the CSV has the raw counters, one row per cell.
fn fig_stalls(run: &mut Run) {
    let cfg = cli::hardening_config(run.args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let w = run.workloads();
    let (impls, lats) = (ImplKind::paper_set(), [0, STRESSED]);
    let outcomes = run.grid(&w, cfg, &cross(&KernelKind::all(), &impls, &lats));
    let headers = strings(&["cycles", "mem%", "vpu-queue%", "vpu-sync%", "branch%"]);
    let pct = |part: u64, total: u64| format!("{:.1}%", 100.0 * part as f64 / total as f64);
    for block in outcomes.chunks(impls.len() * lats.len()) {
        let name = block[0].cell().kernel.name();
        for (li, lat) in lats.iter().enumerate() {
            let rows: Rows = block[li..]
                .iter()
                .step_by(lats.len())
                .map(|o| {
                    let columns = stat_columns(o, |r| {
                        let b = breakdown(r);
                        vec![
                            r.cycles.to_string(),
                            pct(b.memory_cycles(), b.cycles),
                            pct(b.vpu_queue, b.cycles),
                            pct(b.vpu_sync, b.cycles),
                            pct(b.branch, b.cycles),
                        ]
                    });
                    (o.cell().imp.to_string(), columns)
                })
                .collect();
            let title = format!("Stall breakdown — {name} at +{lat} cycles added latency");
            run.table(&title, "impl", &headers, &rows);
        }
        let (holds, verdict) = stall_verdict(block);
        run.line(&format!("{verdict}\n"));
        if !holds {
            run.fail_gate(&verdict);
        }
    }
    let mut csv =
        String::from("kernel,impl,extra_latency,cycles,mem_stall,vpu_queue,vpu_sync,branch\n");
    for o in &outcomes {
        let Cell { kernel, imp, extra_latency: lat, .. } = o.cell();
        let k = kernel.name();
        match o {
            CellOutcome::Done(r) => {
                let b = breakdown(r);
                let (mem, queue, sync) = (b.memory_cycles(), b.vpu_queue, b.vpu_sync);
                writeln!(csv, "{k},{imp},{lat},{},{mem},{queue},{sync},{}", r.cycles, b.branch)
            }
            CellOutcome::Failed { .. } => writeln!(csv, "{k},{imp},{lat},FAILED,,,,"),
        }
        .unwrap();
    }
    run.write_csv(csv);
    // Only `study fig_stalls` takes these two, and it prints as it goes.
    metrics::write_metrics_if_requested(BIN, run.args, &outcomes);
    let traced = figure::traced_cell(Figure::Latency);
    metrics::write_trace_if_requested(BIN, run.args, &w, cfg, traced);
}

/// A completed cell's stall breakdown (every completed cell carries stats).
fn breakdown(r: &RunResult) -> StallBreakdown {
    StallBreakdown::from_stats(r.cycles, &r.stats).expect("completed cells carry stats")
}

/// STALL's gate on one kernel's outcomes (implementations × {+0,
/// [`STRESSED`]}, as [`cross`] orders them): whether the vector
/// implementations' memory-stall fraction and cycles at [`STRESSED`] are both
/// nonincreasing in MAXVL, and the verdict line. At +1024 every
/// implementation is nearly fully memory-bound, so adjacent small-MAXVL
/// fractions are ties near 1.0 that jitter in the 4th decimal; a rise of up
/// to 2e-3 forgives that jitter without masking a real rise. A kernel whose
/// fractions all lie within 2e-3 of each other passes the fraction half on
/// ties alone, and its verdict says it is flat rather than falling; the
/// cycles half, which forgives nothing, is what discriminates such a kernel.
/// A failed cell fails the gate.
fn stall_verdict(block: &[CellOutcome]) -> (bool, String) {
    let name = block[0].cell().kernel.name();
    let points: Option<Vec<(usize, f64, u64)>> = block
        .iter()
        .filter(|o| o.cell().extra_latency == STRESSED)
        .filter_map(|o| match o.cell().imp {
            ImplKind::Vector { maxvl } => Some((maxvl, o)),
            ImplKind::Scalar => None,
        })
        .map(|(maxvl, o)| match o {
            CellOutcome::Done(r) => Some((maxvl, breakdown(r).memory_stall_fraction(), r.cycles)),
            CellOutcome::Failed { .. } => None,
        })
        .collect();
    let Some(p) = points else {
        return (false, format!("{name}: verdict skipped — kernel has failed cells"));
    };
    let tie = 2e-3;
    let fraction_holds = p.windows(2).all(|w| w[1].1 <= w[0].1 + tie);
    let cycles_rise = p.windows(2).find(|w| w[1].2 > w[0].2);
    let (lo, hi) =
        p.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, fr, _)| (lo.min(fr), hi.max(fr)));
    let shown: Vec<String> = p.iter().map(|(vl, fr, _)| format!("vl{vl}={fr:.3}")).collect();
    let fraction = if !fraction_holds {
        "NOT monotone — latency tolerance claim violated".to_string()
    } else if hi - lo <= tie {
        format!("flat (saturated at +{STRESSED})")
    } else {
        "monotone falling with MAXVL (longer vectors hide more latency)".to_string()
    };
    let cycles = match cycles_rise {
        Some(w) => format!("cycles RISE from vl{} to vl{} — claim violated", w[0].0, w[1].0),
        None if p.windows(2).all(|w| w[1].2 < w[0].2) => "cycles fall with MAXVL".to_string(),
        None => "cycles never rise with MAXVL".to_string(),
    };
    (
        fraction_holds && cycles_rise.is_none(),
        format!(
            "{name}: memory-stall fraction at +{STRESSED}: {} — {fraction}; {cycles}",
            shown.join(" ")
        ),
    )
}

/// EXT8 — the tile scale-out: the three partitionable kernels (SpMV by SELL
/// slice ranges, BFS by frontier slices, PageRank by vertex chunks) on 1, 4
/// and 16 tiles sharing the banked L2, MESI directory and DRAM channel
/// through the mesh, at vl=8, 64 and 256. Per kernel, a cycles table with
/// each topology's speedup over one tile, then a traffic line per topology
/// at vl=256: directory recalls, invalidations and downgrades summed over
/// banks, and the busiest NoC link. Every completed cell's counters must add
/// up ([`check_sums`], the gate).
///
/// A tile count runs on the smallest of the square meshes (2×2, 4×4, 8×8)
/// that seats it, one L2HN bank per node ([`cli::with_tiles`]). One tile is
/// the paper's machine running its single-stream programs, so those nine
/// cells are Fig. 3's. The CSV is long-format (`kernel,impl,tiles,mesh,
/// kind,name,value`): cycles, per-tile stall attribution (`stall`), per-bank
/// directory traffic (`directory`) and per-link busy cycles (`noc`), one row
/// per counter, so a new topology never changes the column set.
fn fig_scale(run: &mut Run) {
    let base = cli::hardening_config(run.args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let w = run.workloads();
    let kernels: Vec<KernelKind> =
        KernelKind::all().into_iter().filter(|k| k.partitionable()).collect();
    let vls = [VL8, VL64, VL256];
    let cells = cross(&kernels, &vls, &[0]);
    // One grid per topology: the tile count and mesh are part of the timing
    // configuration, and so of every cache key. The first is one tile.
    let grids: Vec<(usize, String, Vec<CellOutcome>)> = [1, 4, 16]
        .into_iter()
        .map(|tiles| {
            let cfg = cli::with_tiles(base, tiles);
            let mesh = format!("{}x{}", cfg.mem.mesh.width, cfg.mem.mesh.height);
            (tiles, mesh, run.grid(&w, cfg, &cells))
        })
        .collect();
    let headers: Vec<String> =
        vls.iter().flat_map(|vl| [vl.to_string(), "speedup".to_string()]).collect();
    for (ki, kernel) in kernels.iter().enumerate() {
        let at = |grid: &[CellOutcome], vi: usize| grid[ki * vls.len() + vi].cycles();
        let rows: Rows = grids
            .iter()
            .map(|(tiles, mesh, grid)| {
                let columns = (0..vls.len())
                    .flat_map(|vi| match (at(grid, vi), at(&grids[0].2, vi)) {
                        (Some(c), Some(one)) => {
                            [c.to_string(), format!("{:.2}x", one as f64 / c as f64)]
                        }
                        (Some(c), None) => [c.to_string(), "-".to_string()],
                        (None, _) => ["FAILED".to_string(), "-".to_string()],
                    })
                    .collect();
                (format!("tiles={tiles} ({mesh})"), columns)
            })
            .collect();
        run.table(&format!("Tile scale-out — {}", kernel.name()), "topology", &headers, &rows);
        for (tiles, mesh, grid) in &grids {
            if let CellOutcome::Done(r) = &grid[ki * vls.len() + vls.len() - 1] {
                let link = busiest_link(r).map_or("no NoC traffic".to_string(), |(l, busy)| {
                    format!("link {l} busy {:.1}%", 100.0 * busy as f64 / r.cycles as f64)
                });
                let [recalls, invalidations, downgrades] =
                    [".recalls", ".invalidations", ".downgrades"].map(|c| bank_sum(r, c));
                run.line(&format!(
                    "  tiles={tiles} ({mesh}): directory recalls={recalls} \
                     invalidations={invalidations} downgrades={downgrades}; busiest {link}"
                ));
            }
        }
        run.line("");
    }
    let mut csv = String::from("kernel,impl,tiles,mesh,kind,name,value\n");
    for (ki, kernel) in kernels.iter().enumerate() {
        for (tiles, mesh, grid) in &grids {
            for o in &grid[ki * vls.len()..][..vls.len()] {
                let (k, imp) = (kernel.name(), o.cell().imp);
                let CellOutcome::Done(r) = o else {
                    writeln!(csv, "{k},{imp},{tiles},{mesh},cycles,total,FAILED").unwrap();
                    continue;
                };
                if let Err(e) = check_sums(r, *tiles) {
                    run.fail_gate(&format!("fig_scale {k}/{imp}/tiles={tiles}: {e}"));
                }
                writeln!(csv, "{k},{imp},{tiles},{mesh},cycles,total,{}", r.cycles).unwrap();
                for (key, v) in r.stats.iter() {
                    // One tile's stats carry no tile prefix; exported under
                    // tile0 so the column is uniform.
                    let key = if *tiles == 1 && key.starts_with("scalar.stall.") {
                        format!("tile0.{key}")
                    } else {
                        key.to_string()
                    };
                    if let Some(kind) = exported_kind(&key) {
                        writeln!(csv, "{k},{imp},{tiles},{mesh},{kind},{key},{v}").unwrap();
                    }
                }
            }
        }
    }
    run.write_csv(csv);
    let all: Vec<CellOutcome> = grids.into_iter().flat_map(|(.., grid)| grid).collect();
    metrics::write_metrics_if_requested(BIN, run.args, &all);
}

/// EXT8's CSV kind of counter `key`, `None` for a counter it does not export.
fn exported_kind(key: &str) -> Option<&'static str> {
    let directory = [".recalls", ".invalidations", ".downgrades"];
    if key.starts_with("tile") && key.contains(".scalar.stall.") {
        Some("stall")
    } else if key.starts_with("l2.bank") && directory.iter().any(|c| key.ends_with(c)) {
        Some("directory")
    } else if key.starts_with("noc.link") && key.ends_with(".busy_cycles") {
        Some("noc")
    } else {
        None
    }
}

/// Sum of `l2.bank{i}.<counter>` over all banks.
fn bank_sum(r: &RunResult, counter: &str) -> u64 {
    r.stats
        .iter()
        .filter(|(k, _)| k.starts_with("l2.bank") && k.ends_with(counter))
        .map(|(_, v)| v)
        .sum()
}

/// The busiest NoC link: `(from_to label, busy cycles)`.
fn busiest_link(r: &RunResult) -> Option<(String, u64)> {
    r.stats
        .iter()
        .filter(|(k, _)| k.starts_with("noc.link") && k.ends_with(".busy_cycles"))
        .max_by_key(|&(_, v)| v)
        .map(|(k, v)| {
            let label = k.trim_start_matches("noc.link").trim_end_matches(".busy_cycles");
            (label.to_string(), v)
        })
}

/// EXT8's gate on one completed cell of a `tiles`-tile machine: per-bank
/// directory counters sum to the aggregate coherence counters, and per-tile
/// stall and op counters to the unprefixed aggregates the tables read.
fn check_sums(r: &RunResult, tiles: usize) -> Result<(), String> {
    let recalls = bank_sum(r, ".recalls") + bank_sum(r, ".downgrades");
    let mut sums = vec![
        ("bank recalls+downgrades".to_string(), recalls, "coherence.recall"),
        ("bank invalidations".to_string(), bank_sum(r, ".invalidations"), "coherence.invalidate"),
    ];
    if tiles > 1 {
        for key in ["scalar.stall_cycles", "scalar.stall.vpu_sync_cycles", "scalar.ops"] {
            let per_tile = (0..tiles).map(|t| r.stats.get(&format!("tile{t}.{key}"))).sum();
            sums.push((format!("per-tile {key} sum"), per_tile, key));
        }
    }
    match sums.into_iter().find(|(_, sum, key)| *sum != r.stats.get(key)) {
        Some((what, sum, key)) => Err(format!("{what} {sum} != {key} {}", r.stats.get(key))),
        None => Ok(()),
    }
}

/// Kernels × implementations × added latencies at full bandwidth, the last
/// varying fastest: cell `(k, i, l)` is `[(k * impls.len() + i) * lats.len() + l]`.
fn cross(kernels: &[KernelKind], impls: &[ImplKind], lats: &[u64]) -> Vec<Cell> {
    let per_kernel = |&k| impls.iter().flat_map(move |&i| lats.iter().map(move |&l| (k, i, l)));
    let cell = |(kernel, imp, extra_latency)| Cell { kernel, imp, extra_latency, bandwidth: 64 };
    kernels.iter().flat_map(per_kernel).map(cell).collect()
}

/// The stat-derived columns of a completed cell, or one `FAILED` column.
fn stat_columns(o: &CellOutcome, columns: impl FnOnce(&RunResult) -> Vec<String>) -> Vec<String> {
    match o {
        CellOutcome::Done(r) => columns(r),
        CellOutcome::Failed { .. } => strings(&["FAILED"]),
    }
}

const VL8: ImplKind = ImplKind::Vector { maxvl: 8 };
const VL64: ImplKind = ImplKind::Vector { maxvl: 64 };
const VL256: ImplKind = ImplKind::Vector { maxvl: 256 };

/// Table rows: a label and one string per column.
type Rows = Vec<(String, Vec<String>)>;

fn strings(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// A cell's cycle count, or `FAILED`.
fn cycles(o: &CellOutcome) -> String {
    o.cycles().map_or_else(|| "FAILED".to_string(), |c| c.to_string())
}

/// `num`'s cycles over `den`'s through `fmt`, or `FAILED` if either failed.
fn ratio(num: &CellOutcome, den: &CellOutcome, fmt: impl Fn(f64) -> String) -> String {
    match (num.cycles(), den.cycles()) {
        (Some(n), Some(d)) => fmt(n as f64 / d as f64),
        _ => "FAILED".to_string(),
    }
}

/// ABL1 — SpMV format ablation: SELL-C-σ vs row-at-a-time CSR
/// vectorization, across the latency sweep.
///
/// The paper uses the SELL-style long-vector SpMV; this ablation shows why:
/// CSR row-gather runs at VL = row length (≈13 for CAGE10) regardless of
/// the machine's MAXVL, and pays a scalar synchronization per row, so it
/// gains almost nothing from longer vectors and tolerates latency far
/// worse.
fn ablation_spmv(run: &mut Run) {
    let w = run.workloads();
    let cfg = TimingConfig::default();
    let latencies = [0u64, 64, 256, 1024];
    let maxvls = [8usize, 64, 256];
    let sell = run.grid(&w, cfg, &cross(&[KernelKind::Spmv], &[VL8, VL64, VL256], &latencies));
    let mut rows: Rows = maxvls
        .iter()
        .zip(sell.chunks(latencies.len()))
        .map(|(vl, row)| (format!("Sell vl={vl}"), row.iter().map(cycles).collect()))
        .collect();
    // Same matrix, same knobs, another program: the key's program tag is
    // what keeps CSR-gather entries apart from the SELL cells above.
    let input_fp = w.fingerprint();
    for maxvl in maxvls {
        let row = latencies
            .iter()
            .map(|&lat| {
                let (program, knobs) =
                    (format!("SPMV-CsrGather/vl={maxvl}"), format!("lat={lat} bw=64"));
                run.custom_cycles(&program, &input_fp, &knobs, &cfg, || {
                    let mut m = SdvMachine::new(w.heap);
                    m.set_extra_latency(lat);
                    m.set_maxvl_cap(maxvl);
                    let dev = spmv::setup_spmv(&mut m, &w.mat, &w.sell);
                    spmv::spmv_vector_csr(&mut m, &dev);
                    m.finish()
                })
                .to_string()
            })
            .collect();
        rows.push((format!("CsrGather vl={maxvl}"), row));
    }
    let headers: Vec<String> = latencies.iter().map(|l| format!("+{l}")).collect();
    run.table("ABL1 — SpMV format ablation: cycles vs added latency", "format", &headers, &rows);
    run.line("Expected: SELL improves steeply with VL; CsrGather barely moves (row length caps its effective VL).");
}

/// ABL2 — MLP ablation: the *mechanism* behind Figure 3.
///
/// DESIGN.md attributes the latency results to memory-level parallelism:
/// the scalar core's MLP is bounded by its MSHRs and run-ahead window, the
/// VPU's by its decoupling queue and outstanding-request window. This
/// ablation sweeps those four structures on SpMV and reports the +1024
/// slowdown each configuration yields — demonstrating that the headline
/// result is produced by MLP, not by incidental parameters.
fn ablation_mlp(run: &mut Run) {
    let w = run.workloads();
    // One table each: `rows` × `cols` values of two structures, set by `set`.
    type Axis = [(usize, String); 3];
    type Set = fn(&mut TimingConfig, usize, usize);
    let tables: [(&str, &str, Axis, Axis, ImplKind, Set); 2] = [
        (
            "ABL2a — scalar SpMV +1024-latency slowdown vs MSHRs x run-ahead window",
            "scalar",
            [1, 4, 16].map(|m| (m, format!("{m} MSHRs"))),
            [8, 32, 128].map(|w| (w, format!("win={w}"))),
            ImplKind::Scalar,
            |cfg, mshrs, window| {
                cfg.scalar.max_outstanding_loads = mshrs;
                cfg.scalar.runahead_window = window;
            },
        ),
        (
            "ABL2b — vl=256 SpMV +1024-latency slowdown vs VPU queue depth x request window",
            "vpu",
            [1, 4, 16].map(|d| (d, format!("queue={d}"))),
            [16, 64, 256].map(|o| (o, format!("out={o}"))),
            VL256,
            |cfg, depth, outstanding| {
                cfg.vpu.queue_depth = depth;
                cfg.vpu.vmem_outstanding = outstanding;
            },
        ),
    ];
    for (title, row_header, rows, cols, imp, set) in tables {
        let body: Rows = rows
            .iter()
            .map(|(r, label)| {
                let row = cols
                    .iter()
                    .map(|(c, _)| {
                        let mut cfg = TimingConfig::default();
                        set(&mut cfg, *r, *c);
                        let o = run.grid(&w, cfg, &cross(&[KernelKind::Spmv], &[imp], &[0, 1024]));
                        ratio(&o[1], &o[0], slowdown_cell)
                    })
                    .collect();
                (label.clone(), row)
            })
            .collect();
        run.table(title, row_header, &cols.map(|(_, label)| label), &body);
    }
    run.line(
        "Reading the tables: MLP is min(window-limited, MSHR/queue-limited), so growing a\n\
         non-binding structure changes little (flat rows/columns away from the diagonal),\n\
         and shrinking the queue can even *lower* the ratio by inflating the zero-latency\n\
         baseline. The bottom-right corners — both structures deep — give the paper's\n\
         latency tolerance; the top-left corners behave like the scalar core.",
    );
}

/// ABL3 — L2HN bank / NoC ablation.
///
/// The FPGA-SDV distributes the shared L2 over four banks on a 2×2 mesh.
/// This ablation compares 1 bank (1×1 mesh) against 4 banks (2×2) and a
/// hypothetical 16-bank 4×4 mesh on SpMV and PageRank: banking raises the
/// L2's aggregate request throughput, which long vectors — firing many
/// concurrent line requests — feel far more than the scalar core does.
fn ablation_banks(run: &mut Run) {
    let w = run.workloads();
    let meshes = [(1usize, 1usize), (2, 2), (4, 4)];
    let kernels = [KernelKind::Spmv, KernelKind::Pr];
    let impls = [ImplKind::Scalar, VL8, VL256];
    let cells = cross(&kernels, &impls, &[0]);
    let by_mesh: Vec<Vec<CellOutcome>> = meshes
        .iter()
        .map(|&(width, height)| {
            let mut cfg = TimingConfig::default();
            cfg.mem.num_banks = width * height;
            cfg.mem.mesh = MeshConfig { width, height, ..MeshConfig::default() };
            // Keep the configured L2 capacity constant (64 KiB) across bank
            // counts. The effective capacity is not constant: a bank picks
            // its set from line-index bits that also picked the bank, so the
            // banks hold 64 / 16 / 8 KiB at 1x1 / 2x2 / 4x4 (DESIGN.md §9).
            cfg.mem.l2_bank.size_bytes = (64 * 1024 / cfg.mem.num_banks) as u64;
            run.grid(&w, cfg, &cells)
        })
        .collect();
    let headers: Vec<String> = meshes.iter().map(|(mw, mh)| format!("{mw}x{mh} mesh")).collect();
    for (ki, kernel) in kernels.iter().enumerate() {
        let rows: Rows = impls
            .iter()
            .enumerate()
            .map(|(ii, imp)| {
                (
                    imp.to_string(),
                    by_mesh.iter().map(|o| cycles(&o[ki * impls.len() + ii])).collect(),
                )
            })
            .collect();
        run.table(
            &format!(
                "ABL3 — {} cycles vs L2HN banking (configured L2 capacity fixed)",
                kernel.name()
            ),
            "impl",
            &headers,
            &rows,
        );
    }
    run.line(
        "Reading the tables: vl=256 gains from 1x1 to 2x2 (parallel banks serve its\n\
         concurrent line requests) and saturates by 4x4 (smaller per-bank slices, longer\n\
         routes); the latency-bound scalar core actually *loses* as the mesh grows —\n\
         banking is a vector-unit design decision, which is why EPAC pairs the VPU with\n\
         a banked L2HN. Confound: only the configured 64 KiB is fixed. Each bank picks\n\
         its set from line-index bits that also picked the bank, so the L2 holds 64,\n\
         16 and 8 KiB at 1x1, 2x2 and 4x4 (DESIGN.md §9), and the scalar core's loss\n\
         is partly lost capacity.",
    );
}

/// ABL4 — SELL-C-σ sorting-window ablation (extension).
///
/// σ controls how far rows may be reordered before slicing: σ=1 keeps
/// natural order (no sorting, most padding), σ=C sorts within each slice
/// (less padding, locality preserved), σ=n sorts globally (least padding,
/// but scatters the x-gather's banded locality across slices). The paper's
/// SpMV inherits this trade-off from Gómez et al.; this ablation shows why
/// each side of the trade-off is measurable on a cage-like matrix.
fn ablation_sigma(run: &mut Run) {
    // The standard matrix, re-sliced: each σ is a `Workloads` of its own, so
    // its cache keys differ by content fingerprint.
    let mut w = Workloads { heap: 256 << 20, ..run.workloads() };
    let (n, c) = (w.mat.nrows, 256);
    let rows: Rows = [("sigma=1 (none)", 1), ("sigma=C (local)", c), ("sigma=n (global)", n)]
        .iter()
        .map(|&(label, sigma)| {
            w.sell = SellCS::from_csr(&w.mat, c, sigma);
            let cells = cross(&[KernelKind::Spmv], &[VL256], &[0, 1024]);
            let o = run.grid(&w, TimingConfig::default(), &cells);
            let fill = format!("{:.2}x", w.sell.fill_ratio(w.mat.nnz()));
            (label.to_string(), vec![fill, cycles(&o[0]), cycles(&o[1])])
        })
        .collect();
    run.table(
        &format!("ABL4 — SELL-C-σ sorting window on a cage-like matrix (n={n}, C={c})"),
        "window",
        &strings(&["fill ratio", "cycles +0", "cycles +1024"]),
        &rows,
    );
    run.line(
        "Two competing effects: σ=n eliminates padding (fill →1.0) and is fastest at\n\
              zero latency, but globally-sorted slices scatter the x-gathers' banded\n\
              locality, so its +1024 slowdown is ~2x worse than σ=C's; σ=C keeps rows\n\
              near the diagonal together, preserving the latency tolerance the paper\n\
              measures (the figure harness uses σ=C). On cage-like matrices σ=1 buys\n\
              nothing over σ=C: row lengths within a 256-row window are already similar.",
    );
}

/// EXT1 — input-sensitivity study (extension beyond the paper).
///
/// The paper evaluates SpMV on CAGE10 and the graph kernels on one 2^15
/// graph. This study re-runs the latency experiment on inputs with very
/// different locality — banded (best-case gathers), cage-like (the paper's
/// regime), and uniform-random (worst case) matrices; uniform vs RMAT
/// graphs — showing the latency-tolerance conclusion is not an artifact of
/// one input.
fn inputs_study(run: &mut Run) {
    let (n, gn, lat) = if run.small { (1200, 11, 512u64) } else { (11397, 15, 1024) };
    let impls = [ImplKind::Scalar, VL8, VL256];
    let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
    // Each family is a `Workloads` of its own (the fields its kernel does
    // not read keep the standard inputs), keyed by content fingerprint.
    let base = || Workloads { heap: 256 << 20, bfs_src: 0, ..run.workloads() };
    let mats = [
        ("banded", CsrMatrix::banded(n, 6, 1)),
        ("cage-like", CsrMatrix::cage_like(n, 2)),
        ("uniform", CsrMatrix::random_uniform(n, 13, 3)),
    ];
    let graphs = [("uniform", Graph::uniform(1 << gn, 16, 4)), ("rmat", Graph::rmat(gn, 16, 5))];
    let spmv = mats.map(|(name, mat)| {
        (name, Workloads { sell: SellCS::from_csr(&mat, 256, 256), mat, ..base() })
    });
    let bfs = graphs.map(|(name, graph)| (name, Workloads { graph, ..base() }));
    for (title, family, kernel, inputs) in [
        ("SpMV", "matrix", KernelKind::Spmv, &spmv[..]),
        ("BFS", "graph", KernelKind::Bfs, &bfs[..]),
    ] {
        let rows: Rows = inputs
            .iter()
            .map(|(name, w)| {
                let o = run.grid(w, TimingConfig::default(), &cross(&[kernel], &impls, &[0, lat]));
                let row =
                    o.chunks(2).map(|pair| ratio(&pair[1], &pair[0], slowdown_cell)).collect();
                (name.to_string(), row)
            })
            .collect();
        let title = format!("EXT1 — {title} +{lat}-latency slowdown across {family} families");
        run.table(&title, family, &headers, &rows);
    }
    run.line(
        "Expected: the scalar column dominates every row — latency tolerance of long\n\
              vectors is input-independent, even where absolute locality differs wildly.",
    );
}

#[derive(Clone, Copy)]
enum Dense {
    Triad,
    Gemm,
}

/// Cycles of one dense kernel (not a [`Cell`]: see [`Run::custom_cycles`]).
/// Its input is generated from `(n, seed 1)` — TRIAD's scale is the constant
/// 3.0 — so the program tag and knobs determine the cell.
fn dense_cycles(
    run: &mut Run,
    kernel: Dense,
    n: usize,
    imp: ImplKind,
    cfg: TimingConfig,
    lat: u64,
    bw: u64,
) -> u64 {
    let name = match kernel {
        Dense::Triad => "TRIAD",
        Dense::Gemm => "DGEMM",
    };
    let knobs = format!("n={n} seed=1 lat={lat} bw={bw}");
    run.custom_cycles(&format!("{name}/{imp}"), "generated", &knobs, &cfg, || {
        let mut m = SdvMachine::with_config(128 << 20, cfg);
        if let ImplKind::Vector { maxvl } = imp {
            m.set_maxvl_cap(maxvl);
        }
        m.set_extra_latency(lat);
        m.set_bandwidth_limit(bw);
        let vector = matches!(imp, ImplKind::Vector { .. });
        match kernel {
            Dense::Triad => {
                let dev = dense::setup_triad(&mut m, n, 3.0, 1);
                if vector {
                    dense::triad_vector(&mut m, &dev);
                } else {
                    dense::triad_scalar(&mut m, &dev);
                }
            }
            Dense::Gemm => {
                let dev = dense::setup_gemm(&mut m, n, 1);
                if vector {
                    dense::gemm_vector(&mut m, &dev);
                } else {
                    dense::gemm_scalar(&mut m, &dev);
                }
            }
        }
        m.finish()
    })
}

/// EXT2 — dense-vs-non-dense contrast (extension beyond the paper).
///
/// The paper's pitch: long vectors help *beyond* dense linear algebra. This
/// study quantifies the other side of that sentence on the same platform —
/// STREAM triad and DGEMM through the identical latency/bandwidth knobs —
/// so both halves of the claim are measurable: dense kernels vectorize well
/// (as everyone expects), and the four non-dense codes keep most of that
/// benefit (the paper's contribution).
fn dense_contrast(run: &mut Run) {
    let (triad_n, gemm_n) = if run.small { (1 << 14, 48) } else { (1 << 17, 128) };
    let impls = [ImplKind::Scalar, VL8, VL64, VL256];
    let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
    for (name, kernel, n) in [("TRIAD", Dense::Triad, triad_n), ("DGEMM", Dense::Gemm, gemm_n)] {
        // Both tables divide by a baseline cell, which the memo runs once.
        let cycles_at = |run: &mut Run, imp, lat, bw| {
            dense_cycles(run, kernel, n, imp, TimingConfig::default(), lat, bw) as f64
        };
        // Latency slowdowns (the Fig. 4 view, dense edition).
        let rows: Rows = [0, 256, 1024]
            .iter()
            .map(|&lat| {
                let slowdown =
                    |&imp| slowdown_cell(cycles_at(run, imp, lat, 64) / cycles_at(run, imp, 0, 64));
                (format!("+{lat}"), impls.iter().map(slowdown).collect())
            })
            .collect();
        run.table(&format!("EXT2 — {name} latency slowdown (n={n})"), "+latency", &headers, &rows);
        // Bandwidth exploitation (the Fig. 5 view).
        let rows: Rows = [1, 8, 64]
            .iter()
            .map(|&bw| {
                let norm =
                    |&imp| format!("{:.3}", cycles_at(run, imp, 0, bw) / cycles_at(run, imp, 0, 1));
                (format!("{bw} B/cy"), impls.iter().map(norm).collect())
            })
            .collect();
        let title = format!("EXT2 — {name} time vs bandwidth cap (normalized to 1 B/cy)");
        run.table(&title, "bandwidth", &headers, &rows);
    }
    run.line(
        "Dense kernels show the same two effects, amplified — the paper's non-dense codes\n\
              retain most of this benefit, which is its 'hope beyond dense algebra' message.",
    );
}

/// EXT3 — scalar next-line prefetcher ablation (extension).
///
/// A natural "what if" behind Figure 3: how much of the scalar core's
/// latency pain would a stream prefetcher remove, as a function of its
/// depth? Streaming kernels (triad, FFT) recover with deep prefetch;
/// gather-dominated kernels (SpMV, PR) barely move at any depth —
/// sharpening the paper's point that the *vector* way of expressing
/// gathers is what tolerates latency, not just "more prefetch".
fn ablation_prefetch(run: &mut Run) {
    let w = run.workloads();
    let triad_n = if run.small { 1 << 14 } else { 1 << 16 };
    let depths = [0usize, 1, 4, 16];
    let lats = [0u64, 1024];
    let kernels = [KernelKind::Fft, KernelKind::Spmv, KernelKind::Pr];
    let cells = cross(&kernels, &[ImplKind::Scalar], &lats);
    let cfg = |depth| {
        let mut c = TimingConfig::default();
        c.mem.l1_prefetch_depth = depth;
        c
    };
    let by_depth: Vec<Vec<CellOutcome>> =
        depths.iter().map(|&d| run.grid(&w, cfg(d), &cells)).collect();

    let headers: Vec<String> = depths
        .iter()
        .map(|&d| if d == 0 { "no pf".into() } else { format!("depth {d}") })
        .collect();
    for (li, &lat) in lats.iter().enumerate() {
        let triad = depths
            .iter()
            .map(|&d| {
                dense_cycles(run, Dense::Triad, triad_n, ImplKind::Scalar, cfg(d), lat, 64)
                    .to_string()
            })
            .collect();
        let mut rows = vec![("TRIAD (stream)".to_string(), triad)];
        for (ki, kernel) in kernels.iter().enumerate() {
            rows.push((
                format!("{} (scalar)", kernel.name()),
                by_depth.iter().map(|o| cycles(&o[ki * lats.len() + li])).collect(),
            ));
        }
        run.table(
            &format!("EXT3 — scalar cycles at +{lat} DRAM latency vs prefetch depth"),
            "kernel",
            &headers,
            &rows,
        );
    }
    run.line(
        "Expected: streaming rows (TRIAD, FFT) improve with depth; gather rows (SpMV,\n\
              PR) move far less — and even depth-16 covers only a few hundred cycles of\n\
              lookahead, nowhere near +1024. The VPU hides the same latency for gathers\n\
              with hundreds of outstanding requests; that is the paper's point.",
    );
}

/// EXT4 — first-order energy study (extension).
///
/// Attaches the counts-based energy model to the Figure 3 grid: for each
/// implementation of SpMV, estimate energy and energy-delay product at zero
/// and high added latency. Long vectors don't just run faster — less time
/// means less static energy, and fewer instructions mean less control
/// overhead, while DRAM energy stays roughly constant (same data moved).
fn energy_study(run: &mut Run) {
    let w = run.workloads();
    let energy = EnergyConfig::default();
    let impls = [ImplKind::Scalar, VL8, VL64, VL256];
    let lats = [0u64, 1024];
    let outcomes =
        run.grid(&w, TimingConfig::default(), &cross(&[KernelKind::Spmv], &impls, &lats));
    let headers = strings(&["cycles", "energy [uJ]", "EDP [uJ*Mcy]", "dram share", "static share"]);
    for (li, lat) in lats.iter().enumerate() {
        let rows: Rows = impls
            .iter()
            .enumerate()
            .map(|(ii, imp)| {
                let columns = stat_columns(&outcomes[ii * lats.len() + li], |r| {
                    let e = estimate_energy(&energy, &r.stats, r.cycles);
                    vec![
                        format!("{}", r.cycles),
                        format!("{:.1}", e.total_nj / 1000.0),
                        format!("{:.1}", e.edp() / 1e9),
                        format!("{:.0}%", 100.0 * e.fraction("dram")),
                        format!("{:.0}%", 100.0 * e.fraction("static")),
                    ]
                });
                (imp.to_string(), columns)
            })
            .collect();
        run.table(
            &format!("EXT4 — SpMV energy estimate at +{lat} cycles of DRAM latency"),
            "impl",
            &headers,
            &rows,
        );
    }
    run.line(
        "Long vectors cut static energy (shorter runs) and scalar-control energy;\n\
              DRAM energy is workload-bound — so the energy win tracks the speedup but\n\
              saturates once runtime is DRAM-dominated.",
    );
}

/// EXT5 — roofline placement of the four kernels (extension).
///
/// For each kernel and implementation, compute achieved FLOP/cycle and
/// operational intensity (FLOPs per DRAM byte) from the run's statistics,
/// and place them against the machine's two roofs: peak FP throughput
/// (8 lanes × 1 FMA ≈ 8 FLOP/cycle at SEW=64) and the memory roof
/// (bandwidth cap × intensity; `--bw N` sets the cap). Shows at a glance
/// that all four paper kernels sit on or near the memory roof — they are
/// exactly the workloads where the bandwidth/latency knobs matter.
fn roofline(run: &mut Run) {
    let bw = run.bw.unwrap_or(64);
    let w = run.workloads();
    let impls = [ImplKind::Scalar, VL256];
    let cells: Vec<Cell> = impls
        .iter()
        .flat_map(|&imp| {
            KernelKind::all().map(|kernel| Cell { kernel, imp, extra_latency: 0, bandwidth: bw })
        })
        .collect();
    let outcomes = run.grid(&w, TimingConfig::default(), &cells);

    let lanes_peak = 8.0; // FLOP/cycle at SEW=64 (8 lanes, 1 op each)
    writeln!(run, "machine roofs: compute {lanes_peak:.0} FLOP/cy, memory {bw} B/cy\n").unwrap();
    let headers = strings(&["FLOPs", "DRAM bytes", "intensity", "FLOP/cy", "bound by"]);
    for (imp, block) in impls.iter().zip(outcomes.chunks(KernelKind::all().len())) {
        let rows: Rows = block
            .iter()
            .map(|o| {
                let columns = stat_columns(o, |r| {
                    // Scalar fp ops are mostly FMAs (2 FLOPs); vector fp element
                    // ops likewise. Factor 2 is the roofline convention.
                    let fp_ops = r.stats.get("scalar.fp_ops") + r.stats.get("vpu.fp_elements");
                    let flops = 2.0 * fp_ops as f64;
                    let bytes = r.stats.get("dram.bytes") as f64;
                    let intensity = flops / bytes.max(1.0);
                    let perf = flops / r.cycles as f64;
                    let bound =
                        if bw as f64 * intensity < lanes_peak { "memory" } else { "compute" };
                    vec![
                        format!("{flops:.2e}"),
                        format!("{bytes:.2e}"),
                        format!("{intensity:.3}"),
                        format!("{perf:.3}"),
                        bound.to_string(),
                    ]
                });
                (format!("{} {imp}", o.cell().kernel.name()), columns)
            })
            .collect();
        run.table(&format!("EXT5 — roofline placement ({imp})"), "kernel", &headers, &rows);
    }
    let (ridge, ridge16, ridge1) = (lanes_peak / bw as f64, lanes_peak / 16.0, lanes_peak / 1.0);
    writeln!(
        run,
        "Ridge point at {bw} B/cy: {ridge:.3} FLOP/byte. The four kernels sit at or below the\n\
         ridge even at full bandwidth (BFS is integer-only: intensity 0), and under the\n\
         paper's throttled settings (1-16 B/cy) the ridge moves to {ridge16:.2}-{ridge1:.2} FLOP/byte —\n\
         every kernel is then firmly memory-bound, which is why VL, latency, and\n\
         bandwidth (not FP throughput) decide their performance."
    )
    .unwrap();
}

/// EXT6 — lane-count study (extension).
///
/// The paper's §1 cites "the optimal vector length [and] the ideal vector
/// register size" as open questions; lanes are the third side of that
/// triangle. This study sweeps the VPU's lane count at fixed VLEN and
/// MAXVL=256 across the four kernels: memory-bound kernels saturate early
/// (more lanes only shorten the arithmetic occupancy, which is not the
/// bottleneck), so the FPGA-SDV's 8 lanes are a sensible design point.
fn lanes_study(run: &mut Run) {
    let w = run.workloads();
    let lane_counts = [2usize, 4, 8, 16, 32];
    let cells = cross(&KernelKind::all(), &[VL256], &[0]);
    let by_lanes: Vec<Vec<CellOutcome>> = lane_counts
        .iter()
        .map(|&lanes| {
            let mut cfg = TimingConfig::default();
            cfg.vpu.lanes = lanes;
            run.grid(&w, cfg, &cells)
        })
        .collect();
    let rows: Rows = KernelKind::all()
        .iter()
        .enumerate()
        .map(|(ki, kernel)| {
            (kernel.name().to_string(), by_lanes.iter().map(|o| cycles(&o[ki])).collect())
        })
        .collect();
    let headers: Vec<String> = lane_counts.iter().map(|l| format!("{l} lanes")).collect();
    run.table(
        "EXT6 — vl=256 cycles vs VPU lane count (VLEN fixed at 16384 bits)",
        "kernel",
        &headers,
        &rows,
    );
    run.line(
        "Expected: clear gains up to ~8 lanes, then saturation — the non-dense kernels\n\
              are memory-bound, so datapath width stops being the bottleneck (the paper's\n\
              Vitruvius ships 8 lanes).",
    );
}

/// EXT7 — DRAM row-buffer sensitivity (extension).
///
/// The baseline model (and the calibrated figures) use a flat DRAM service
/// latency. This study turns on the open-row model (8 KiB rows, 8 banks,
/// +20-cycle activate penalty) and re-runs the kernels: streaming-dominant
/// kernels barely change (high row-hit rate), gather-dominant kernels pay —
/// confirming the paper's latency knob, which shifts *all* accesses equally,
/// is a clean instrument on top of either DRAM model.
fn ablation_rows(run: &mut Run) {
    let w = run.workloads();
    let cells = cross(&KernelKind::all(), &[ImplKind::Scalar, VL256], &[0]);
    let mut open_row = TimingConfig::default();
    open_row.mem.dram.row_bits = 13; // 8 KiB rows
    open_row.mem.dram.dram_banks = 8;
    open_row.mem.dram.row_miss_penalty = 20;
    let flat = run.grid(&w, TimingConfig::default(), &cells);
    let open = run.grid(&w, open_row, &cells);
    let rows: Rows = cells
        .iter()
        .zip(flat.iter().zip(&open))
        .map(|(c, (flat, open))| {
            let mut columns = vec![cycles(flat), cycles(open)];
            columns.extend(stat_columns(open, |r| {
                let hits = r.stats.get("dram.row_hits") as f64;
                let reqs = r.stats.get("dram.requests").max(1) as f64;
                vec![format!("{:.0}%", 100.0 * hits / reqs)]
            }));
            (format!("{} {}", c.kernel.name(), c.imp), columns)
        })
        .collect();
    let headers = strings(&["flat DRAM", "open-row DRAM", "row hit rate"]);
    run.table("EXT7 — cycles under flat vs open-row DRAM models", "kernel", &headers, &rows);
    run.line(
        "Streaming traffic keeps high row-hit rates (small delta); scattered gathers\n\
              activate constantly. Either way the knobs' semantics are unchanged — the\n\
              calibrated figures use the flat model.",
    );
}

/// Calibration smoke: run a reduced grid and print cycles plus key stats,
/// for checking simulation speed and the qualitative shape before full
/// figure sweeps. Kernel names after `calibrate` restrict the grid. Each
/// cell is a grid of its own so that it has a wall time (on a fresh
/// machine); with a cache the wall times measure the cache, not the
/// simulator — the cycles column is unchanged.
fn calibrate(run: &mut Run) {
    let named: Vec<KernelKind> = run
        .rest
        .iter()
        .map(|a| a.to_ascii_uppercase().parse().unwrap_or_else(|e: String| cli::die_usage(BIN, &e)))
        .collect();
    let kernels = if named.is_empty() { KernelKind::all().to_vec() } else { named };
    let w = run.workloads();
    writeln!(
        run,
        "workloads: {} (matrix n={} nnz={}, graph n={} edges={}, fft n={})",
        if run.small { "small" } else { "paper" },
        w.mat.nrows,
        w.mat.nnz(),
        w.graph.n,
        w.graph.num_edges(),
        w.signal.0.len()
    )
    .unwrap();
    for kernel in kernels {
        for imp in [ImplKind::Scalar, VL8, VL64, VL256] {
            for (lat, bw) in [(0u64, 64u64), (1024, 64), (0, 1)] {
                let t0 = std::time::Instant::now();
                let cell = Cell { kernel, imp, extra_latency: lat, bandwidth: bw };
                let o = run.grid(&w, TimingConfig::default(), &[cell]).remove(0);
                let wall = t0.elapsed();
                let dram_lines =
                    stat_columns(&o, |r| vec![r.stats.get("dram.requests").to_string()]);
                let (name, cycles, dram_lines) = (kernel.name(), cycles(&o), &dram_lines[0]);
                writeln!(
                    run,
                    "{name:<5} {imp:<8} lat={lat:<5} bw={bw:<3} cycles={cycles:<12} \
                     dram_lines={dram_lines:<9} wall={wall:?}"
                )
                .unwrap();
            }
        }
        writeln!(run).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_engine::SimError;

    fn result(cell: Cell, counters: &[(&str, u64)]) -> RunResult {
        let mut stats = Stats::new();
        counters.iter().for_each(|&(key, v)| stats.set(key, v));
        RunResult { cell, cycles: 1_000_000, stats }
    }

    /// One kernel's STALL outcomes in which the vector cells at +1024 have
    /// memory-stall fractions `at_stressed`, vl=8 first, and cycles that
    /// halve from one MAXVL to the next.
    fn stall_block(at_stressed: [f64; 6]) -> Vec<CellOutcome> {
        let mut fractions = at_stressed.into_iter();
        cross(&[KernelKind::Spmv], &ImplKind::paper_set(), &[0, STRESSED])
            .into_iter()
            .map(|cell| {
                let gated = cell.extra_latency == STRESSED && cell.imp != ImplKind::Scalar;
                let fraction =
                    if gated { fractions.next().expect("six vector cells") } else { 0.5 };
                let cycles = match cell.imp {
                    ImplKind::Vector { maxvl } => 256_000_000 / maxvl as u64,
                    ImplKind::Scalar => 1_000_000,
                };
                let wait = (fraction * cycles as f64) as u64;
                let mut r = result(cell, &[("vpu.mem_wait_cycles", wait)]);
                r.cycles = cycles;
                CellOutcome::Done(r)
            })
            .collect()
    }

    /// `block`'s cell at `(imp, STRESSED)` with its cycles set to `cycles`
    /// and its memory-stall fraction kept.
    fn set_stressed_cycles(block: &mut [CellOutcome], imp: ImplKind, cycles: u64) {
        let o =
            block.iter_mut().find(|o| o.cell().imp == imp && o.cell().extra_latency == STRESSED);
        let Some(CellOutcome::Done(r)) = o else { panic!("no completed {imp} cell") };
        let wait = r.stats.get("vpu.mem_wait_cycles") * cycles / r.cycles;
        r.stats.set("vpu.mem_wait_cycles", wait);
        r.cycles = cycles;
    }

    #[test]
    fn the_stall_gate_forgives_ties_and_fails_a_rise_or_a_failed_cell() {
        let (holds, line) = stall_verdict(&stall_block([1.0, 1.0, 0.999, 1.0, 0.9, 0.8]));
        assert!(holds && line.contains("vl64=1.000 vl128=0.900"), "a 1e-3 rise is a tie: {line}");

        let (holds, line) = stall_verdict(&stall_block([1.0, 0.99, 0.95, 0.953, 0.9, 0.8]));
        assert!(!holds && line.contains("NOT monotone"), "a 3e-3 rise fails: {line}");

        let mut block = stall_block([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]);
        let vl256_stressed = block.len() - 1;
        let cell = block[vl256_stressed].cell();
        assert_eq!((cell.imp, cell.extra_latency), (VL256, STRESSED));
        block[vl256_stressed] =
            CellOutcome::Failed { cell, error: SimError::Panic { what: "x".into() } };
        let (holds, line) = stall_verdict(&block);
        assert!(!holds && line.contains("failed cells"), "{line}");
    }

    #[test]
    fn the_stall_gate_calls_a_kernel_flat_when_every_fraction_is_a_tie() {
        let (holds, line) = stall_verdict(&stall_block([1.0, 1.0, 0.999, 1.0, 0.9995, 0.9985]));
        assert!(holds && line.contains("— flat (saturated at +1024);"), "all ties: {line}");
        assert!(line.ends_with("; cycles fall with MAXVL"), "{line}");
        let (holds, line) = stall_verdict(&stall_block([1.0, 1.0, 1.0, 1.0, 1.0, 0.997]));
        assert!(holds && line.contains("monotone falling"), "a 3e-3 fall is a fall: {line}");
    }

    #[test]
    fn the_stall_gate_fails_cycles_that_rise_with_maxvl_even_when_fractions_are_flat() {
        let mut block = stall_block([1.0; 6]);
        set_stressed_cycles(&mut block, VL256, 256_000_000 / 128 + 1);
        let (holds, line) = stall_verdict(&block);
        assert!(!holds && line.contains("— flat (saturated at +1024);"), "{line}");
        assert!(line.ends_with("; cycles RISE from vl128 to vl256 — claim violated"), "{line}");

        let mut block = stall_block([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]);
        set_stressed_cycles(&mut block, ImplKind::Vector { maxvl: 16 }, 256_000_000 / 8 + 1);
        let (holds, line) = stall_verdict(&block);
        assert!(!holds && line.contains("RISE from vl8 to vl16"), "one cycle is a rise: {line}");

        let mut block = stall_block([1.0; 6]);
        set_stressed_cycles(&mut block, VL256, 256_000_000 / 128);
        let (holds, line) = stall_verdict(&block);
        assert!(holds && line.ends_with("; cycles never rise with MAXVL"), "a tie holds: {line}");
    }

    #[test]
    fn the_scale_out_gate_fails_a_counter_sum_that_misses_by_one() {
        let cell = Cell { kernel: KernelKind::Bfs, imp: VL256, extra_latency: 0, bandwidth: 64 };
        #[rustfmt::skip]
        let consistent = [
            ("l2.bank0.recalls", 2), ("l2.bank1.recalls", 1), ("l2.bank1.downgrades", 3),
            ("coherence.recall", 6), ("l2.bank0.invalidations", 4), ("coherence.invalidate", 4),
            ("tile0.scalar.ops", 5), ("tile1.scalar.ops", 7), ("scalar.ops", 12),
        ];
        let with = |change: &[(&str, u64)]| result(cell, &[&consistent[..], change].concat());
        assert_eq!(check_sums(&with(&[]), 2), Ok(()));

        let e = check_sums(&with(&[("coherence.recall", 7)]), 2).unwrap_err();
        assert!(e.contains("recalls+downgrades 6 != coherence.recall 7"), "{e}");

        let e = check_sums(&with(&[("tile1.scalar.ops", 6)]), 2).unwrap_err();
        assert!(e.contains("per-tile scalar.ops sum 11 != scalar.ops 12"), "{e}");
        assert_eq!(check_sums(&with(&[("tile1.scalar.ops", 6)]), 1), Ok(()), "one tile: no sum");
    }
}
