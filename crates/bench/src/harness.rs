//! The experiment runner.

use crate::cache::{CacheKey, ResultCache};
use sdv_core::{Knobs, SdvMachine, Vm};
use sdv_engine::{SimError, StableHash, Stats};
use sdv_kernels::fft::{self, Complexes};
use sdv_kernels::{bfs, pagerank, spmv, CsrMatrix, Graph, SellCS};
use sdv_uarch::{TimingConfig, WatchdogConfig};

/// Which kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Sparse matrix-vector multiplication (CAGE10-scale input).
    Spmv,
    /// Breadth-first search (2^15-node graph).
    Bfs,
    /// PageRank (2^15-node graph).
    Pr,
    /// 2048-point FFT.
    Fft,
}

impl KernelKind {
    /// All four, in the paper's order.
    pub fn all() -> [KernelKind; 4] {
        [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr, KernelKind::Fft]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Spmv => "SPMV",
            KernelKind::Bfs => "BFS",
            KernelKind::Pr => "PR",
            KernelKind::Fft => "FFT",
        }
    }

    /// Whether the kernel's vector implementation has a partitioned
    /// multi-tile driver. FFT's butterfly network does not decompose into
    /// disjoint tile ranges.
    pub fn partitionable(self) -> bool {
        !matches!(self, KernelKind::Fft)
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "SPMV" => Ok(KernelKind::Spmv),
            "BFS" => Ok(KernelKind::Bfs),
            "PR" => Ok(KernelKind::Pr),
            "FFT" => Ok(KernelKind::Fft),
            other => Err(format!("unknown kernel '{other}' (expected SPMV, BFS, PR, or FFT)")),
        }
    }
}

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplKind {
    /// The scalar baseline.
    Scalar,
    /// The vector implementation with the MAXVL CSR capped at `maxvl`.
    Vector {
        /// Maximum vector length in double-precision elements (8..=256).
        maxvl: usize,
    },
}

impl ImplKind {
    /// The paper's implementation set: scalar + VL ∈ {8,16,32,64,128,256}.
    pub fn paper_set() -> Vec<ImplKind> {
        let mut v = vec![ImplKind::Scalar];
        for vl in [8, 16, 32, 64, 128, 256] {
            v.push(ImplKind::Vector { maxvl: vl });
        }
        v
    }
}

/// Column label: `scalar` or `vl=N`. Formats straight into the output
/// stream — no intermediate `String` per cell like the old `label()`.
impl std::fmt::Display for ImplKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImplKind::Scalar => f.write_str("scalar"),
            ImplKind::Vector { maxvl } => write!(f, "vl={maxvl}"),
        }
    }
}

/// Inverse of the `Display` labels: `scalar` or `vl=N`.
impl std::str::FromStr for ImplKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "scalar" {
            return Ok(ImplKind::Scalar);
        }
        if let Some(n) = s.strip_prefix("vl=") {
            let maxvl: usize = n
                .parse()
                .map_err(|_| format!("bad implementation label '{s}': 'vl=' needs a number"))?;
            if maxvl == 0 {
                return Err(format!("bad implementation label '{s}': vl must be positive"));
            }
            return Ok(ImplKind::Vector { maxvl });
        }
        Err(format!("unknown implementation label '{s}' (expected 'scalar' or 'vl=N')"))
    }
}

/// The paper's workloads, built once.
pub struct Workloads {
    /// The SpMV matrix (CAGE10-like).
    pub mat: CsrMatrix,
    /// Its SELL-C-σ form (C = 256, full σ).
    pub sell: SellCS,
    /// The graph for BFS/PR.
    pub graph: Graph,
    /// The FFT input signal.
    pub signal: Complexes,
    /// BFS source vertex.
    pub bfs_src: usize,
    /// PageRank iterations (the paper runs a fixed-iteration PR; we default
    /// to 5 to keep full sweeps tractable — relative behaviour is
    /// iteration-count independent).
    pub pr_iters: usize,
    /// Simulated heap per machine.
    pub heap: usize,
}

impl Workloads {
    /// Full paper-scale inputs: CAGE10-scale matrix (n = 11397), 2^15-node
    /// graph at average degree 16, 2048-point FFT.
    pub fn paper() -> Self {
        let mat = CsrMatrix::cage10_scale(0xCA6E);
        // σ = C: sort rows only within slice windows, preserving the
        // matrix's banded locality for the x-gathers (as Gómez et al. do).
        let sell = SellCS::from_csr(&mat, 256, 256);
        Self {
            graph: Graph::paper_graph(0x6AF),
            signal: fft::test_signal(2048),
            mat,
            sell,
            bfs_src: 0,
            pr_iters: 5,
            heap: 256 << 20,
        }
    }

    /// Reduced inputs for CI / smoke tests.
    pub fn small() -> Self {
        let mat = CsrMatrix::cage_like(1200, 0xCA6E);
        let sell = SellCS::from_csr(&mat, 256, 256);
        Self {
            graph: Graph::uniform(1 << 11, 16, 0x6AF),
            signal: fft::test_signal(512),
            mat,
            sell,
            bfs_src: 0,
            pr_iters: 3,
            heap: 96 << 20,
        }
    }

    /// A 32-hex content fingerprint of every input a cycle count depends on.
    ///
    /// This is the workload half of the persistent cache key, and what the
    /// `sweepd` protocol compares to prove client and server built the same
    /// inputs. It hashes the actual data — matrix structure and values,
    /// SELL-C-σ layout, graph adjacency, FFT signal — not the generator
    /// seeds, so any change to workload construction is key-visible. The
    /// struct is exhaustively destructured: adding an input field without
    /// fingerprinting it is a compile error. `sell` is hashed too, although
    /// `paper()` and `small()` derive it from `mat`: the fields are public,
    /// so a caller can pair any two.
    ///
    /// Nothing can skip this before a warm sweep's first cache lookup, so the
    /// arrays go through [`StableHash::u32s`] and [`StableHash::f64s`], whose
    /// stripe accumulate keeps eight lanes of vector multiplies in flight
    /// rather than one dependent multiply a word: about 0.45 ms for the
    /// 8.4 MB of `paper()` inputs on a 2-vCPU AVX-512 Xeon guest, near a plain
    /// read of the same arrays.
    pub fn fingerprint(&self) -> String {
        let Workloads { mat, sell, graph, signal, bfs_src, pr_iters, heap } = self;
        let mut h = StableHash::new();
        let CsrMatrix { nrows, ncols, row_ptr, col_idx, vals } = mat;
        h.u64(*nrows as u64);
        h.u64(*ncols as u64);
        h.u32s(row_ptr);
        h.u32s(col_idx);
        h.f64s(vals);
        let SellCS { c, nrows, perm, slice_ptr, slice_width, cols, vals } = sell;
        h.u64(*c as u64);
        h.u64(*nrows as u64);
        h.u32s(perm);
        h.u64s(slice_ptr);
        h.u32s(slice_width);
        h.u32s(cols);
        h.f64s(vals);
        let Graph { n, row_ptr, adj } = graph;
        h.u64(*n as u64);
        h.u32s(row_ptr);
        h.u32s(adj);
        h.f64s(&signal.0);
        h.f64s(&signal.1);
        h.u64(*bfs_src as u64);
        h.u64(*pr_iters as u64);
        h.u64(*heap as u64);
        h.finish_hex()
    }
}

/// One grid cell: what to run and under which knob settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Kernel.
    pub kernel: KernelKind,
    /// Implementation.
    pub imp: ImplKind,
    /// Extra DRAM latency in cycles (§2.2 knob).
    pub extra_latency: u64,
    /// DRAM bandwidth cap in bytes/cycle (§2.3 knob), 64 = unthrottled.
    pub bandwidth: u64,
}

impl Cell {
    /// Whether this cell can run on more than one tile: the vector
    /// implementation of a partitionable kernel (scalar codes are one
    /// instruction stream). The one statement of which cells have a
    /// partitioned driver — the sweep rejection, `drive_kernel` and
    /// `study fig_scale`'s kernel list all read it.
    pub fn partitionable(&self) -> bool {
        self.kernel.partitionable() && matches!(self.imp, ImplKind::Vector { .. })
    }

    /// The one range check of a cell's knobs, made wherever a cell enters:
    /// a bandwidth the Bandwidth Limiter can program (`1..=line_bytes`
    /// bytes/cycle under `cfg`) and an extra latency below the armed
    /// watchdog's progress window. A longer one would look like a wedged
    /// resource to that watchdog, and the bound keeps the DRAM path's
    /// arithmetic clear of overflow.
    pub fn check_knobs(&self, cfg: &TimingConfig) -> Result<(), String> {
        let line = cfg.mem.dram.line_bytes;
        if !(1..=line).contains(&self.bandwidth) {
            return Err(format!("bandwidth {} B/cy is outside 1-{line}", self.bandwidth));
        }
        let window = WatchdogConfig::default_on().progress_window;
        if self.extra_latency >= window {
            let lat = self.extra_latency;
            return Err(format!("extra latency {lat} is not below {window} cycles"));
        }
        Ok(())
    }
}

/// `cells` without its repeats, in first-seen order: the one dedup every
/// sweep entry point (local, client, server) applies to a requested grid.
pub(crate) fn unique_cells(cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    let mut seen = std::collections::HashSet::new();
    cells.into_iter().filter(|c| seen.insert(*c)).collect()
}

/// The outcome of one cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The cell that produced this result.
    pub cell: Cell,
    /// Measured cycles (the paper's hardware counter).
    pub cycles: u64,
    /// Component statistics for deeper analysis.
    pub stats: Stats,
}

/// How one grid cell ended: a measured result, or a structured failure
/// (watchdog deadlock, budget exhaustion, invariant violation, or an
/// isolated panic). Failed cells never abort the rest of a grid.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell ran to completion and passed the end-of-run audits.
    Done(RunResult),
    /// The cell failed; the error says how and carries the diagnostic.
    Failed {
        /// The cell that failed.
        cell: Cell,
        /// The structured failure.
        error: SimError,
    },
}

impl CellOutcome {
    /// The cell this outcome belongs to.
    pub fn cell(&self) -> Cell {
        match self {
            CellOutcome::Done(r) => r.cell,
            CellOutcome::Failed { cell, .. } => *cell,
        }
    }

    /// Measured cycles, when the cell completed.
    pub fn cycles(&self) -> Option<u64> {
        match self {
            CellOutcome::Done(r) => Some(r.cycles),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the cell completed.
    pub fn is_done(&self) -> bool {
        matches!(self, CellOutcome::Done(_))
    }

    /// The failure, when the cell failed.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            CellOutcome::Done(_) => None,
            CellOutcome::Failed { error, .. } => Some(error),
        }
    }
}

/// Run one cell on a fresh machine with the given timing configuration,
/// surfacing watchdog and audit failures as a structured error.
pub fn try_run_with_config(
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
) -> Result<RunResult, SimError> {
    try_run_on(&mut SdvMachine::new(w.heap), w, cell, cfg)
}

/// One cell on `m`: the one-cell group, no deadline.
fn try_run_on(
    m: &mut SdvMachine,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
) -> Result<RunResult, SimError> {
    try_run_group(m, w, &[cell], cfg, None).pop().expect("one cell in, one result out")
}

/// Most cells one functional pass times at once: the paper's widest knob
/// axis (eight latencies). A requested grid may name any number of knob
/// values for one program, and every replica is a whole timing model.
pub(crate) const GROUP_MAX: usize = 8;

/// Run a group of cells — one program, i.e. equal `(kernel, imp)`, under
/// different knob settings — on a pooled machine in **one functional pass**:
/// the machine is rewound to the fresh state of `cfg`'s topology (keeping its
/// allocations) with one timing replica per cell, the kernel runs to
/// completion once (its control flow depends only on functional state; no
/// kernel reads `rdcycle`), and each replica then surfaces its own latched
/// watchdog failure or audit violation. Every cell's cycles and statistics
/// are bit-identical to a brand-new machine running that cell alone; results
/// come back in `cells` order.
///
/// `wall` is the wall-clock deadline of *one* cell; the group is armed with
/// the sum over its cells, since that is the work the one run stands for. The
/// deadline is host-speed dependent, so it lives outside [`TimingConfig`] (it
/// must never reach a cache key or the client/server identity check);
/// `sweepd` arms it to convert runaway work into structured
/// [`SimError::DeadlineExceeded`] failures instead of a wedged worker.
///
/// On more than one tile the merge order of the tiles' ops depends on the
/// timing model's clocks, so there is no one op stream to share: the cells
/// run one after another, each a group of its own.
///
/// # Panics
/// Panics if `cells` is empty or names more than one program. Every cell is
/// a whole timing model held at once; sweeps cap a group at eight.
pub fn try_run_group(
    m: &mut SdvMachine,
    w: &Workloads,
    cells: &[Cell],
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> Vec<Result<RunResult, SimError>> {
    let program = cells.first().expect("a group holds at least one cell");
    assert!(
        cells.iter().all(|c| (c.kernel, c.imp) == (program.kernel, program.imp)),
        "a group shares one program: {cells:?}"
    );
    // A cell whose knobs are out of range fails alone; the rest of the group
    // runs without it.
    if cells.iter().any(|c| c.check_knobs(&cfg).is_err()) {
        let valid: Vec<Cell> =
            cells.iter().copied().filter(|c| c.check_knobs(&cfg).is_ok()).collect();
        let mut ran =
            if valid.is_empty() { Vec::new() } else { try_run_group(m, w, &valid, cfg, wall) }
                .into_iter();
        return cells
            .iter()
            .map(|c| match c.check_knobs(&cfg) {
                Ok(()) => ran.next().expect("one result per valid cell"),
                Err(what) => Err(SimError::BadInput { what }),
            })
            .collect();
    }
    let tiles = cfg.mem.tiles;
    if tiles > 1 && cells.len() > 1 {
        return cells
            .iter()
            .flat_map(|c| try_run_group(m, w, std::slice::from_ref(c), cfg, wall))
            .collect();
    }
    // Validate before the reset builds a timing model: the highest requestor
    // id this topology will mint must fit the directory mask (an oversized
    // one panics in MemHierarchy::new), and a cell without a partitioned
    // driver is rejected rather than silently run on one tile of many.
    let rejected = sdv_memsys::requestor_id(2 * tiles - 1).err().or_else(|| {
        (tiles > 1 && !program.partitionable()).then(|| SimError::BadInput {
            what: format!(
                "{}/{} has no partitioned multi-tile driver",
                program.kernel.name(),
                program.imp
            ),
        })
    });
    if let Some(e) = rejected {
        return cells.iter().map(|_| Err(e.clone())).collect();
    }
    let knobs: Vec<Knobs> = cells
        .iter()
        .map(|c| Knobs { extra_latency: c.extra_latency, bandwidth: c.bandwidth })
        .collect();
    m.reset_with_replicas(cfg, &knobs);
    if let Some(limit) = wall {
        m.set_wall_deadline(limit * cells.len() as u32);
    }
    if let ImplKind::Vector { maxvl } = program.imp {
        m.set_maxvl_cap(maxvl);
    }
    drive_kernel(m, w, *program);
    let finished = m.try_finish_each();
    finished
        .into_iter()
        .zip(cells)
        .enumerate()
        .map(|(i, (cycles, &cell))| Ok(RunResult { cell, cycles: cycles?, stats: m.stats_of(i) }))
        .collect()
}

/// Dispatch one cell's kernel onto a configured machine. A partitionable
/// cell on a machine with more than one tile runs its partitioned driver;
/// one tile runs the paper's single-stream program.
fn drive_kernel(m: &mut SdvMachine, w: &Workloads, cell: Cell) {
    let partitioned = m.tiles() > 1 && cell.partitionable();
    match (cell.kernel, cell.imp) {
        (KernelKind::Spmv, ImplKind::Scalar) => {
            let dev = spmv::setup_spmv(m, &w.mat, &w.sell);
            spmv::spmv_scalar(m, &dev);
        }
        (KernelKind::Spmv, ImplKind::Vector { .. }) => {
            let dev = spmv::setup_spmv(m, &w.mat, &w.sell);
            if partitioned {
                spmv::spmv_vector_sell_tiled(m, &dev);
            } else {
                spmv::spmv_vector_sell(m, &dev);
            }
        }
        (KernelKind::Bfs, ImplKind::Scalar) => {
            let dev = bfs::setup_bfs(m, &w.graph, 256, w.bfs_src);
            bfs::bfs_scalar(m, &dev);
        }
        (KernelKind::Bfs, ImplKind::Vector { .. }) => {
            let dev = bfs::setup_bfs(m, &w.graph, 256, w.bfs_src);
            if partitioned {
                bfs::bfs_vector_tiled(m, &dev);
            } else {
                bfs::bfs_vector(m, &dev);
            }
        }
        (KernelKind::Pr, ImplKind::Scalar) => {
            let dev = pagerank::setup_pagerank(m, &w.graph, 256, 0.85, w.pr_iters);
            pagerank::pagerank_scalar(m, &dev);
        }
        (KernelKind::Pr, ImplKind::Vector { .. }) => {
            let dev = pagerank::setup_pagerank(m, &w.graph, 256, 0.85, w.pr_iters);
            if partitioned {
                pagerank::pagerank_vector_tiled(m, &dev);
            } else {
                pagerank::pagerank_vector(m, &dev);
            }
        }
        (KernelKind::Fft, ImplKind::Scalar) => {
            let dev = fft::setup_fft(m, &w.signal.0, &w.signal.1);
            fft::fft_scalar(m, &dev);
        }
        (KernelKind::Fft, ImplKind::Vector { .. }) => {
            let dev = fft::setup_fft(m, &w.signal.0, &w.signal.1);
            fft::fft_vector(m, &dev);
        }
    }
}

/// Render a caught panic payload for a [`SimError::Panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one group inside a panic-isolation boundary. A panic leaves the
/// pooled machine in an unknown state, so the slot is cleared and the next
/// run on this worker rebuilds it. A panic also names no replica, so a group
/// that panics is run again one cell at a time: a cell that panics alone
/// becomes a structured [`SimError::Panic`] outcome, the others get the
/// results they would have had on their own — outcomes under any fault plan
/// are those of a cell-by-cell sweep, and no panic tears down the grid.
pub(crate) fn run_group_guarded(
    slot: &mut Option<SdvMachine>,
    w: &Workloads,
    cells: &[Cell],
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> Vec<CellOutcome> {
    let m = slot.get_or_insert_with(|| SdvMachine::new(w.heap));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_run_group(m, w, cells, cfg, wall)
    })) {
        Ok(results) => results
            .into_iter()
            .zip(cells)
            .map(|(r, &cell)| match r {
                Ok(r) => CellOutcome::Done(r),
                Err(error) => CellOutcome::Failed { cell, error },
            })
            .collect(),
        Err(payload) => {
            *slot = None;
            match cells {
                &[cell] => vec![CellOutcome::Failed {
                    cell,
                    error: SimError::Panic { what: panic_message(payload.as_ref()) },
                }],
                _ => cells
                    .iter()
                    .flat_map(|c| run_group_guarded(slot, w, std::slice::from_ref(c), cfg, wall))
                    .collect(),
            }
        }
    }
}

/// [`run_group_guarded`] for one cell.
#[cfg(test)]
pub(crate) fn run_guarded(
    slot: &mut Option<SdvMachine>,
    w: &Workloads,
    cell: Cell,
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
) -> CellOutcome {
    run_group_guarded(slot, w, &[cell], cfg, wall).pop().expect("one cell in, one outcome out")
}

/// Run one cell with the default machine configuration. Panics if the cell
/// fails; [`try_run_with_config`] returns the error instead.
pub fn run(w: &Workloads, cell: Cell) -> RunResult {
    try_run_with_config(w, cell, TimingConfig::default())
        .unwrap_or_else(|e| panic!("cell {}/{} failed: {e}", cell.kernel.name(), cell.imp))
}

/// Run one cell on a fresh machine with timeline tracing enabled, returning
/// the result together with the Chrome `trace_event` JSON. Probes are pure
/// observers, so the cycles match an untraced run of the same cell exactly.
pub fn try_run_traced(
    w: &Workloads,
    cell: Cell,
    mut cfg: TimingConfig,
) -> Result<(RunResult, String), SimError> {
    cfg.probe.trace = true;
    let mut m = SdvMachine::new(w.heap);
    let r = try_run_on(&mut m, w, cell, cfg)?;
    Ok((r, m.trace_json()))
}

/// A persistent experiment runner.
///
/// Holds a pool of simulated machines whose big allocations (register file,
/// simulated heap, execution scratch) survive from cell to cell, and a memo
/// of every cell simulated so far: overlapping figure grids (e.g. the
/// unthrottled column FIG3 and FIG4 share) are simulated exactly once.
///
/// Use one `Sweeper` per [`Workloads`]: pooled machines are sized for the
/// first workload's heap, and memoized results are only valid for the inputs
/// they ran against.
pub struct Sweeper {
    machines: Vec<std::sync::Mutex<Option<SdvMachine>>>,
    memo: std::collections::HashMap<Cell, CellOutcome>,
    cfg: TimingConfig,
    cache: Option<ResultCache>,
    remote: Option<RemoteSweep>,
    retry: crate::server::RetryPolicy,
    input_fp: Option<String>,
    fresh_simulations: std::sync::atomic::AtomicUsize,
}

/// Where a remote-mode sweep sends its cells: a `sweepd` server address plus
/// the workload name (`small` / `paper`) the server must be holding.
#[derive(Debug, Clone)]
pub struct RemoteSweep {
    /// `host:port` of the `sweepd` server.
    pub addr: String,
    /// Workload name the server was started with.
    pub workload: String,
}

impl Default for Sweeper {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweeper {
    /// An empty runner with default timing. Machines are created lazily,
    /// one per worker thread.
    pub fn new() -> Self {
        Self::with_config(TimingConfig::default())
    }

    /// An empty runner whose cells run under `cfg` — how `study` arms the
    /// watchdog or a fault plan for every cell of a sweep.
    pub fn with_config(cfg: TimingConfig) -> Self {
        Self {
            machines: Vec::new(),
            memo: std::collections::HashMap::new(),
            cfg,
            cache: None,
            remote: None,
            retry: crate::server::RetryPolicy::none(),
            input_fp: None,
            fresh_simulations: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Attach a persistent result cache: every cell is looked up before
    /// simulating and stored after (completed cells only). Cache hits count
    /// as simulated for [`Sweeper::cells_simulated`] purposes — they fill
    /// the memo exactly like a run — but skip the actual simulation.
    pub fn set_cache(&mut self, cache: ResultCache) {
        self.cache = Some(cache);
    }

    /// Route every sweep to a `sweepd` server instead of simulating locally.
    /// The server must hold the same workload (name *and* content
    /// fingerprint) and the same canonical timing configuration; mismatches
    /// come back as [`SimError::Remote`] outcomes, never as wrong numbers.
    pub fn set_remote(&mut self, addr: &str, workload: &str) {
        self.remote = Some(RemoteSweep { addr: addr.to_string(), workload: workload.to_string() });
    }

    /// Retry transient remote failures (connect refused, dropped
    /// connection, `overloaded`, `draining`) per `policy`. Safe at any
    /// count: sweep submission is idempotent thanks to the server's
    /// exactly-once dedup, and each retry re-requests only missing cells.
    pub fn set_retry_policy(&mut self, policy: crate::server::RetryPolicy) {
        self.retry = policy;
    }

    /// Cells actually simulated by this process (memo/cache/remote hits
    /// excluded). The `sweepd` smoke test uses this to prove exactly-once
    /// simulation under duplicate-heavy load.
    pub fn fresh_simulations(&self) -> usize {
        self.fresh_simulations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The workload fingerprint used in cache keys, computed once per
    /// sweeper (one `Sweeper` serves one [`Workloads`]).
    fn input_fingerprint(&mut self, w: &Workloads) -> String {
        self.input_fp.get_or_insert_with(|| w.fingerprint()).clone()
    }

    /// Number of distinct cells simulated so far.
    pub fn cells_simulated(&self) -> usize {
        self.memo.len()
    }

    fn ensure_slots(&mut self, n: usize) {
        while self.machines.len() < n {
            self.machines.push(std::sync::Mutex::new(None));
        }
    }

    /// Run one cell sequentially on the pooled machine. A cell already in
    /// the memo returns its recorded result without re-simulating.
    ///
    /// # Panics
    /// Panics if the cell fails; use [`Sweeper::try_run_cell`] when the
    /// configuration can produce failures (fault injection, budgets).
    pub fn run_cell(&mut self, w: &Workloads, cell: Cell) -> RunResult {
        match self.try_run_cell(w, cell) {
            CellOutcome::Done(r) => r,
            CellOutcome::Failed { cell, error } => {
                panic!("cell {}/{} failed: {error}", cell.kernel.name(), cell.imp)
            }
        }
    }

    /// Run one cell sequentially on the pooled machine, reporting failures
    /// as a structured outcome instead of panicking. Routes through the
    /// attached cache or remote server like a sweep would.
    pub fn try_run_cell(&mut self, w: &Workloads, cell: Cell) -> CellOutcome {
        if let Some(r) = self.memo.get(&cell) {
            return r.clone();
        }
        self.sweep_outcomes_with(w, &[cell], 1, |_| {}).pop().expect("one cell in, one out")
    }

    /// Run a grid of cells across OS threads, reusing pooled machines and
    /// the memo. Results come back in input order; duplicate cells — within
    /// this grid or remembered from earlier calls — are simulated once.
    ///
    /// # Panics
    /// Panics if any cell fails; use [`Sweeper::sweep_outcomes`] when the
    /// configuration can produce failures.
    pub fn sweep(&mut self, w: &Workloads, cells: &[Cell], threads: usize) -> Vec<RunResult> {
        self.sweep_outcomes(w, cells, threads)
            .into_iter()
            .map(|o| match o {
                CellOutcome::Done(r) => r,
                CellOutcome::Failed { cell, error } => {
                    panic!("cell {}/{} failed: {error}", cell.kernel.name(), cell.imp)
                }
            })
            .collect()
    }

    /// Like [`Sweeper::sweep`], but every cell's fate comes back as a
    /// [`CellOutcome`]: failing cells (watchdog aborts, invariant
    /// violations, even panics) are isolated and the rest of the grid
    /// completes.
    pub fn sweep_outcomes(
        &mut self,
        w: &Workloads,
        cells: &[Cell],
        threads: usize,
    ) -> Vec<CellOutcome> {
        self.sweep_outcomes_with(w, cells, threads, |_| {})
    }

    /// [`Sweeper::sweep_outcomes`] with a progress callback, invoked from
    /// worker threads once per freshly-simulated cell (memo hits are not
    /// reported).
    pub fn sweep_outcomes_with(
        &mut self,
        w: &Workloads,
        cells: &[Cell],
        threads: usize,
        on_cell: impl Fn(&CellOutcome) + Sync,
    ) -> Vec<CellOutcome> {
        assert!(threads > 0);
        // Unique not-yet-memoized cells, in first-seen order.
        let todo = unique_cells(cells.iter().copied().filter(|c| !self.memo.contains_key(c)));
        if let Some(remote) = self.remote.clone() {
            // `client_sweep` returns Ok only once every requested cell has
            // streamed back. Either way a cell the server did not return
            // fails, with the transport error if there was one: the grid
            // never silently loses cells.
            let error = self.sweep_remote(&remote, w, &todo, &on_cell).err().unwrap_or_else(|| {
                SimError::Remote { what: "server did not return this cell".to_string() }
            });
            for c in todo {
                self.memo
                    .entry(c)
                    .or_insert_with(|| CellOutcome::Failed { cell: c, error: error.clone() });
            }
            return cells.iter().map(|c| self.memo[c].clone()).collect();
        }
        // Cells that share a program run as one group, one functional pass
        // (`try_run_group`); a cell with a program to itself is a group of one.
        let groups = schedule_groups(todo, threads);
        let workers = threads.min(groups.len().max(1));
        self.ensure_slots(workers);
        // Cache keys need the workload fingerprint and canonical config;
        // compute them once, outside the workers (the fingerprint hashes
        // every input array).
        let key_ctx: Option<(String, String)> =
            self.cache.is_some().then(|| (self.input_fingerprint(w), self.cfg.canonical()));
        let cache = self.cache.as_ref().zip(key_ctx.as_ref()).map(|(c, (fp, cfg))| CacheContext {
            cache: c,
            input_fp: fp,
            cfg_text: cfg,
        });
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Vec<CellOutcome>>> =
            groups.iter().map(|_| std::sync::Mutex::new(Vec::new())).collect();
        let machines = &self.machines;
        let groups = &groups;
        let cfg = self.cfg;
        let on_cell = &on_cell;
        let cache = cache.as_ref();
        let fresh = &self.fresh_simulations;
        std::thread::scope(|s| {
            for machine in machines.iter().take(workers) {
                let slots = &slots;
                let next = &next;
                s.spawn(move || {
                    // Each worker owns one pooled machine for the whole
                    // grid. Groups run inside a panic-isolation boundary, so
                    // one diseased cell cannot take the grid down with it.
                    let mut guard = machine.lock().unwrap();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(group) = groups.get(i) else { break };
                        let outs =
                            run_group_cached(cache, &mut guard, w, group, cfg, None, |_, _| {});
                        let simulated = outs.iter().filter(|(_, from_cache)| !from_cache).count();
                        fresh.fetch_add(simulated, std::sync::atomic::Ordering::Relaxed);
                        let outs: Vec<CellOutcome> =
                            outs.into_iter().map(|(out, _)| out).inspect(on_cell).collect();
                        *slots[i].lock().unwrap() = outs;
                    }
                });
            }
        });
        for slot in slots {
            for out in slot.into_inner().unwrap() {
                self.memo.insert(out.cell(), out);
            }
        }
        cells.iter().map(|c| self.memo[c].clone()).collect()
    }

    /// Remote-mode sweep: ship the deduplicated grid to the `sweepd` server
    /// (with retries per the configured [`RetryPolicy`](crate::RetryPolicy))
    /// and memoize the streamed results. A failure that outlives the retry
    /// budget comes back as `Err`; results streamed before it are memoized
    /// all the same.
    fn sweep_remote(
        &mut self,
        remote: &RemoteSweep,
        w: &Workloads,
        todo: &[Cell],
        on_cell: &(impl Fn(&CellOutcome) + Sync),
    ) -> Result<(), SimError> {
        let input_fp = self.input_fingerprint(w);
        let cfg_text = self.cfg.canonical();
        let mut got: std::collections::HashMap<Cell, CellOutcome> =
            std::collections::HashMap::new();
        let transport = crate::server::client_sweep(
            &remote.addr,
            &remote.workload,
            &input_fp,
            &cfg_text,
            todo,
            &self.retry,
            |out| {
                on_cell(&out);
                got.insert(out.cell(), out);
            },
        );
        // Partial results are results: memoize everything that made it
        // across before deciding what to do about the rest.
        for (c, out) in got {
            self.memo.insert(c, out);
        }
        transport.map(|_| ())
    }
}

/// Where a worker looks cells up and stores them: the cache plus the two
/// texts, fixed for a sweep, that go into every key beside the cell.
#[derive(Clone, Copy)]
pub(crate) struct CacheContext<'a> {
    pub(crate) cache: &'a ResultCache,
    pub(crate) input_fp: &'a str,
    pub(crate) cfg_text: &'a str,
}

/// One worker-side group execution, shared by the in-process sweep and the
/// `sweepd` worker: look every cell up in the cache (when attached), simulate
/// the misses — and only those — as one isolated group, persist the completed
/// ones, and call `stored` on each entry just published. Failures are never
/// cached: a failing cell re-runs next time, keeping its diagnostic
/// reproducible. Outcomes come back in `cells` order, each with whether the
/// cache answered it.
pub(crate) fn run_group_cached(
    cache: Option<&CacheContext<'_>>,
    slot: &mut Option<SdvMachine>,
    w: &Workloads,
    cells: &[Cell],
    cfg: TimingConfig,
    wall: Option<std::time::Duration>,
    stored: impl Fn(&ResultCache, &CacheKey),
) -> Vec<(CellOutcome, bool)> {
    let key_of = |ctx: &CacheContext<'_>, cell| {
        CacheKey::for_cell(cell, ctx.input_fp, ctx.cfg_text, sdv_rvv::Backend)
    };
    let mut outs: Vec<Option<(CellOutcome, bool)>> = cells
        .iter()
        .map(|&cell| {
            let hit = cache.and_then(|ctx| ctx.cache.load(&key_of(ctx, cell)))?;
            let done = RunResult { cell, cycles: hit.cycles, stats: hit.stats };
            Some((CellOutcome::Done(done), true))
        })
        .collect();
    let misses: Vec<Cell> =
        cells.iter().zip(&outs).filter(|(_, out)| out.is_none()).map(|(&c, _)| c).collect();
    if !misses.is_empty() {
        let mut ran = run_group_guarded(slot, w, &misses, cfg, wall).into_iter();
        for out in outs.iter_mut().filter(|out| out.is_none()) {
            let fresh = ran.next().expect("one outcome per simulated cell");
            if let (Some(ctx), CellOutcome::Done(r)) = (cache, &fresh) {
                let key = key_of(ctx, r.cell);
                ctx.cache.store(&key, r.cycles, &r.stats);
                stored(ctx.cache, &key);
            }
            *out = Some((fresh, false));
        }
    }
    outs.into_iter().map(|out| out.expect("hit or simulated")).collect()
}

/// Summed [`predicted_cost`] of a group.
fn group_cost(cells: &[Cell]) -> u64 {
    cells.iter().map(predicted_cost).fold(0, u64::saturating_add)
}

/// Unique `cells` as the groups a sweep runs: cells with equal
/// `(kernel, imp)` together, first-seen order inside a group, at most
/// [`GROUP_MAX`] to a group. Sharing a pass only pays while every worker has
/// one, so while there are fewer groups than `workers` the costliest group
/// that still can be is halved. Long-pole-first on the groups' summed
/// predicted cost: the predicted-slowest group starts first, so no worker is
/// left simulating a multi-second group alone at the end of the grid
/// (makespan, not throughput, bounds a sweep). The sort is stable, and
/// results still come back in input order via the memo.
fn schedule_groups(cells: Vec<Cell>, workers: usize) -> Vec<Vec<Cell>> {
    let mut index = std::collections::HashMap::new();
    let mut programs: Vec<Vec<Cell>> = Vec::new();
    for c in cells {
        let at = *index.entry((c.kernel, c.imp)).or_insert_with(|| {
            programs.push(Vec::new());
            programs.len() - 1
        });
        programs[at].push(c);
    }
    let mut groups: Vec<Vec<Cell>> =
        programs.iter().flat_map(|p| p.chunks(GROUP_MAX).map(<[Cell]>::to_vec)).collect();
    while groups.len() < workers {
        let Some(big) = (0..groups.len())
            .filter(|&i| groups[i].len() > 1)
            .max_by_key(|&i| (group_cost(&groups[i]), std::cmp::Reverse(i)))
        else {
            break;
        };
        let half = groups[big].len() / 2;
        let tail = groups[big].split_off(half);
        groups.push(tail);
    }
    groups.sort_by_key(|g| std::cmp::Reverse(group_cost(g)));
    groups
}

/// Relative host-cost estimate for scheduling (arbitrary units). Calibrated
/// against observed small-workload wall times: graph kernels dominate
/// (PageRank > BFS >> SpMV > FFT), short-vector and scalar implementations
/// cost the most host work per cell, and extra DRAM latency grows the
/// simulated cycle count without changing the host work much.
pub(crate) fn predicted_cost(c: &Cell) -> u64 {
    let kernel: u64 = match c.kernel {
        KernelKind::Pr => 24,
        KernelKind::Bfs => 14,
        KernelKind::Spmv => 5,
        KernelKind::Fft => 1,
    };
    let imp: u64 = match c.imp {
        ImplKind::Scalar => 30,
        ImplKind::Vector { maxvl } => 20 + (256 / maxvl.max(1)) as u64,
    };
    // Saturating: a grid is scheduled before `try_run_group` rejects a cell
    // whose latency is out of range.
    (kernel * imp).saturating_mul(c.extra_latency.saturating_add(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(kernel: KernelKind, imp: ImplKind) -> Cell {
        Cell { kernel, imp, extra_latency: 0, bandwidth: 64 }
    }

    #[test]
    fn pooled_slot_recovers_after_deadline_failure() {
        // A walled cell that blows its deadline latches a structured fault
        // on the pooled machine; reset_with_config must clear it so the
        // next cell on the same slot runs clean and bit-identical.
        let w = Workloads::small();
        let c = cell(KernelKind::Bfs, ImplKind::Scalar);
        let cfg = TimingConfig::default();
        let mut slot = None;
        let clean = match run_guarded(&mut slot, &w, c, cfg, None) {
            CellOutcome::Done(r) => r.cycles,
            other => panic!("clean run failed: {other:?}"),
        };
        match run_guarded(&mut slot, &w, c, cfg, Some(std::time::Duration::ZERO)) {
            CellOutcome::Failed { error: SimError::DeadlineExceeded { .. }, .. } => {}
            other => panic!("zero deadline must fail the cell: {other:?}"),
        }
        assert!(slot.is_some(), "a structured failure keeps the pooled machine");
        match run_guarded(&mut slot, &w, c, cfg, None) {
            CellOutcome::Done(r) => {
                assert_eq!(r.cycles, clean, "post-failure run must be bit-identical")
            }
            other => panic!("post-failure run failed: {other:?}"),
        }
    }

    /// A multi-tile configuration on the study's smallest scale-out step:
    /// 4 tiles on the default 2×2 mesh.
    fn tiled_cfg(tiles: usize) -> TimingConfig {
        let mut cfg = TimingConfig::default();
        cfg.mem.tiles = tiles;
        cfg
    }

    #[test]
    fn multi_tile_cells_dispatch_and_are_deterministic() {
        let w = Workloads::small();
        let c = cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 });
        let a = try_run_with_config(&w, c, tiled_cfg(4)).expect("tiled SpMV runs");
        let b = try_run_with_config(&w, c, tiled_cfg(4)).expect("tiled SpMV reruns");
        assert_eq!(a.cycles, b.cycles, "multi-tile cycles must be reproducible");
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "multi-tile stats must be reproducible"
        );
        assert!(a.stats.get("tile3.scalar.ops") > 0, "all four tiles must do work");
    }

    #[test]
    fn multi_tile_rejects_scalar_and_fft_with_structured_error() {
        let w = Workloads::small();
        let scalar =
            try_run_with_config(&w, cell(KernelKind::Spmv, ImplKind::Scalar), tiled_cfg(4));
        assert!(
            matches!(scalar, Err(SimError::BadInput { .. })),
            "scalar at tiles>1 must be a structured rejection: {scalar:?}"
        );
        let fft = try_run_with_config(
            &w,
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 256 }),
            tiled_cfg(4),
        );
        assert!(
            matches!(fft, Err(SimError::BadInput { .. })),
            "FFT at tiles>1 must be a structured rejection: {fft:?}"
        );
        let too_many = try_run_with_config(
            &w,
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
            tiled_cfg(1 << 10),
        );
        assert!(
            matches!(too_many, Err(SimError::BadInput { .. })),
            "a topology past directory capacity must be rejected, not panic: {too_many:?}"
        );
    }

    #[test]
    fn one_tile_on_a_4x4_mesh_is_the_same_through_vm0_and_the_machine() {
        // One tile programmed through `vm(0)` and through `impl Vm for
        // SdvMachine` is one op stream — here on a non-default 4×4 mesh, so
        // the equivalence covers scaled topologies too. (The *partitioned*
        // drivers are a different op stream even on one tile: PageRank's
        // adds a rank-mass merge phase.)
        let w = Workloads::small();
        let c = cell(KernelKind::Pr, ImplKind::Vector { maxvl: 64 });
        let mut cfg = TimingConfig::default();
        cfg.mem.mesh = sdv_noc::MeshConfig::grid(4, 4);
        cfg.mem.num_banks = 16;
        let direct = try_run_with_config(&w, c, cfg).expect("4x4 run through the harness");

        let mut m = SdvMachine::with_config(w.heap, cfg);
        m.set_maxvl_cap(64);
        let dev = pagerank::setup_pagerank(&mut m.vm(0), &w.graph, 256, 0.85, w.pr_iters);
        pagerank::pagerank_vector(&mut m.vm(0), &dev);
        let cycles = m.try_finish().expect("4x4 run through vm(0)");
        assert_eq!(cycles, direct.cycles, "vm(0) on 4x4 must match the machine as Vm");
        assert_eq!(format!("{:?}", m.stats()), format!("{:?}", direct.stats));
    }

    #[test]
    fn traced_multi_tile_cell_returns_the_trace_of_the_machine_that_ran() {
        // The trace must come from the machine that ran the cell, whatever
        // its tile count.
        let w = Workloads::small();
        let c = cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 });
        let untraced = try_run_with_config(&w, c, tiled_cfg(4)).expect("4-tile SpMV");
        let (traced, json) = try_run_traced(&w, c, tiled_cfg(4)).expect("traced 4-tile SpMV");
        assert_eq!(traced.cycles, untraced.cycles, "probes are pure observers");
        let doc = crate::json::Json::parse(&json).expect("trace is JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
        let spans = events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"));
        assert!(spans.count() > 0, "a traced run must carry its vector-instruction spans");
    }

    #[test]
    fn pooled_slot_serves_changing_topologies_bit_identically() {
        // One worker's machine across 4 -> 1 -> 4 tiles, with a deadline
        // failure latched during the first 4-tile cell's merge (vl=8: the
        // cell must issue more ops than the deadline's check stride).
        let w = Workloads::small();
        let c = cell(KernelKind::Bfs, ImplKind::Vector { maxvl: 8 });
        let fresh = |cfg: TimingConfig| {
            let r = try_run_with_config(&w, c, cfg).expect("fresh run");
            (r.cycles, format!("{:?}", r.stats))
        };
        let (four, one) = (fresh(tiled_cfg(4)), fresh(TimingConfig::default()));
        let mut slot = None;
        match run_guarded(&mut slot, &w, c, tiled_cfg(4), Some(std::time::Duration::ZERO)) {
            CellOutcome::Failed { error: e @ SimError::DeadlineExceeded { .. }, .. } => {
                assert!(!e.transient(), "a blown deadline is the cell's failure, not the server's")
            }
            other => panic!("zero deadline must fail the cell: {other:?}"),
        }
        // The deadline is consulted as ops issue, and ops issue while the
        // epoch is still being captured: before the fault and after it the
        // cell never held more than one slice per tile, of the two each tile
        // owns. A BFS slice at vl=8 is 32 strips of at most `width` 14-op
        // inner iterations, 8 ops of strip overhead, 16 of slice and level
        // overhead.
        let sliced = sdv_kernels::SlicedGraph::new(&w.graph, 256, 0);
        let width = sliced.slice_width.iter().copied().max().expect("slices") as usize;
        let peak = slot.as_ref().expect("the failed cell kept its machine").peak_queued_ops();
        let bound = 4 * (32 * (width * 14 + 8) + 16);
        assert!(
            0 < peak && peak <= bound,
            "queued {peak} ops at once; one slice per tile is {bound}"
        );
        for (cfg, want) in [(tiled_cfg(4), &four), (tiled_cfg(1), &one), (tiled_cfg(4), &four)] {
            match run_guarded(&mut slot, &w, c, cfg, None) {
                CellOutcome::Done(r) => {
                    assert_eq!(
                        (r.cycles, format!("{:?}", r.stats)),
                        *want,
                        "{} tiles",
                        cfg.mem.tiles
                    )
                }
                other => panic!("pooled run failed: {other:?}"),
            }
        }
    }

    #[test]
    fn long_pole_cells_sort_first() {
        // The graph kernels at short VL / scalar with high latency are the
        // multi-second cells; FFT at long VL is the cheapest.
        let slow = Cell {
            kernel: KernelKind::Pr,
            imp: ImplKind::Vector { maxvl: 8 },
            extra_latency: 512,
            bandwidth: 64,
        };
        let fast = Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        };
        assert!(predicted_cost(&slow) > predicted_cost(&fast));
        assert!(
            predicted_cost(&cell(KernelKind::Bfs, ImplKind::Scalar))
                > predicted_cost(&cell(KernelKind::Bfs, ImplKind::Vector { maxvl: 256 }))
        );
        assert!(
            predicted_cost(&cell(KernelKind::Pr, ImplKind::Vector { maxvl: 8 }))
                > predicted_cost(&cell(KernelKind::Pr, ImplKind::Vector { maxvl: 256 }))
        );
    }

    #[test]
    fn groups_share_a_program_hold_at_most_eight_and_leave_no_worker_idle() {
        let at = |kernel, imp, extra_latency| Cell { kernel, imp, extra_latency, bandwidth: 64 };
        let vl8 = ImplKind::Vector { maxvl: 8 };
        // Interleaved on purpose: grouping is by program, not by position.
        let mut cells = Vec::new();
        for lat in 0..11 {
            cells.push(at(KernelKind::Pr, vl8, lat));
            if lat < 3 {
                cells.push(at(KernelKind::Fft, ImplKind::Scalar, lat));
            }
        }
        cells.push(at(KernelKind::Bfs, vl8, 0));
        let lats = |g: &[Cell]| g.iter().map(|c| c.extra_latency).collect::<Vec<_>>();

        let groups = schedule_groups(cells.clone(), 1);
        for g in &groups {
            assert!(g.iter().all(|c| (c.kernel, c.imp) == (g[0].kernel, g[0].imp)), "{g:?}");
        }
        // Costliest first: eleven PR cells are a full group and a rest.
        assert_eq!(groups.iter().map(Vec::len).collect::<Vec<_>>(), [8, 3, 1, 3]);
        assert_eq!(lats(&groups[0]), [0, 1, 2, 3, 4, 5, 6, 7], "first-seen order inside a group");
        assert_eq!(lats(&groups[1]), [8, 9, 10]);
        assert_eq!(groups[3][0].kernel, KernelKind::Fft, "the cheapest program goes last");

        // Six workers, four groups: the costliest splittable group is halved
        // until every worker has one; no cell is lost or repeated.
        let groups = schedule_groups(cells.clone(), 6);
        assert_eq!(groups.iter().map(Vec::len).collect::<Vec<_>>(), [4, 3, 2, 2, 1, 3]);
        let mut all: Vec<Cell> = groups.concat();
        all.sort_by_key(|c| (c.kernel.name(), c.extra_latency));
        cells.sort_by_key(|c| (c.kernel.name(), c.extra_latency));
        assert_eq!(all, cells);
        // More workers than cells: singletons, and the loop ends.
        assert_eq!(schedule_groups(cells.clone(), 64).len(), cells.len());
    }

    #[test]
    fn sweep_returns_results_in_input_order_despite_scheduling() {
        let w = Workloads::small();
        let mut sw = Sweeper::new();
        // Input deliberately cheapest-first: scheduling must not reorder
        // the returned results.
        let cells = [
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 256 }),
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
        ];
        let rs = sw.sweep(&w, &cells, 2);
        for (c, r) in cells.iter().zip(&rs) {
            assert_eq!(*c, r.cell, "result order must match input order");
        }
    }

    #[test]
    fn paper_impl_set_has_seven_columns() {
        let set = ImplKind::paper_set();
        assert_eq!(set.len(), 7);
        assert_eq!(set[0], ImplKind::Scalar);
        assert_eq!(set[6], ImplKind::Vector { maxvl: 256 });
    }

    #[test]
    fn smoke_run_every_kernel_small() {
        let w = Workloads::small();
        for k in KernelKind::all() {
            for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 256 }] {
                let r = run(&w, cell(k, imp));
                assert!(r.cycles > 0, "{k:?}/{imp:?}");
            }
        }
    }

    #[test]
    fn vector_beats_scalar_at_full_bandwidth_small() {
        let w = Workloads::small();
        for k in [KernelKind::Spmv, KernelKind::Fft] {
            let s = run(&w, cell(k, ImplKind::Scalar)).cycles;
            let v = run(&w, cell(k, ImplKind::Vector { maxvl: 256 })).cycles;
            assert!(v < s, "{k:?}: vector {v} should beat scalar {s}");
        }
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let w = Workloads::small();
        let cells = vec![
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 64 }),
        ];
        let swept = Sweeper::new().sweep(&w, &cells, 2);
        for (c, r) in cells.iter().zip(&swept) {
            let solo = run(&w, *c);
            assert_eq!(solo.cycles, r.cycles, "determinism across threads");
        }
    }

    #[test]
    fn pooled_machine_reuse_is_bit_identical() {
        let w = Workloads::small();
        let mut sw = Sweeper::new();
        let cells = [
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }),
            cell(KernelKind::Spmv, ImplKind::Scalar),
            cell(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }), // memo hit
        ];
        let rs: Vec<u64> = cells.iter().map(|c| sw.run_cell(&w, *c).cycles).collect();
        assert_eq!(rs[0], rs[2], "memoized result matches the original");
        assert_eq!(sw.cells_simulated(), 2, "duplicate cell must not re-simulate");
        for (c, got) in cells.iter().zip(&rs) {
            assert_eq!(run(&w, *c).cycles, *got, "pooled machine must match a fresh one");
        }
    }

    #[test]
    fn sweep_thread_count_does_not_change_results() {
        let w = Workloads::small();
        let mut cells = Vec::new();
        for imp in
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 32 }, ImplKind::Vector { maxvl: 256 }]
        {
            for lat in [0, 256] {
                cells.push(Cell {
                    kernel: KernelKind::Spmv,
                    imp,
                    extra_latency: lat,
                    bandwidth: 64,
                });
            }
        }
        cells.push(cells[0]); // duplicate: exercises the memo path
        let one = Sweeper::new().sweep(&w, &cells, 1);
        let four = Sweeper::new().sweep(&w, &cells, 4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.cycles, b.cycles, "1-thread vs 4-thread: {:?}", a.cell);
        }
        assert_eq!(one[0].cycles, one[cells.len() - 1].cycles, "duplicate cell agrees");
    }

    #[test]
    fn latency_knob_increases_cycles_small() {
        let w = Workloads::small();
        let base = run(&w, cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 })).cycles;
        let mut c = cell(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 });
        c.extra_latency = 512;
        let slowed = run(&w, c).cycles;
        assert!(slowed > base);
    }

    /// One input field of a `Workloads`.
    type Field<T> = fn(&mut Workloads) -> &mut T;

    /// Perturb the first, middle and last element of the array `field`
    /// picks: each perturbation must move the fingerprint, and restoring
    /// the element must bring the old one back.
    fn perturb_each<T: Copy>(
        w: &mut Workloads,
        name: &str,
        field: Field<Vec<T>>,
        bump: fn(T) -> T,
    ) {
        let fp = w.fingerprint();
        let len = field(w).len();
        assert!(len > 0, "{name} is empty");
        for at in [0, len / 2, len - 1] {
            let old = field(w)[at];
            field(w)[at] = bump(old);
            assert_ne!(w.fingerprint(), fp, "{name}[{at}] perturbed");
            field(w)[at] = old;
            assert_eq!(w.fingerprint(), fp, "{name}[{at}] restored");
        }
    }

    /// Every input field reaches the fingerprint: the twelve arrays at
    /// their ends and middle, the eight scalars, and a pair of `col_idx`
    /// entries swapped one stripe (16 `u32`s) apart, which the bulk fold
    /// sees because each stripe meets its own key.
    #[test]
    fn fingerprint_sees_every_field() {
        let mut w = Workloads::small();
        let (u32_bump, f64_bump) = (|x: u32| x ^ 1, |x: f64| f64::from_bits(x.to_bits() ^ 1));
        perturb_each(&mut w, "mat.row_ptr", |w| &mut w.mat.row_ptr, u32_bump);
        perturb_each(&mut w, "mat.col_idx", |w| &mut w.mat.col_idx, u32_bump);
        perturb_each(&mut w, "mat.vals", |w| &mut w.mat.vals, f64_bump);
        perturb_each(&mut w, "sell.perm", |w| &mut w.sell.perm, u32_bump);
        perturb_each(&mut w, "sell.slice_ptr", |w| &mut w.sell.slice_ptr, |x: u64| x ^ 1);
        perturb_each(&mut w, "sell.slice_width", |w| &mut w.sell.slice_width, u32_bump);
        perturb_each(&mut w, "sell.cols", |w| &mut w.sell.cols, u32_bump);
        perturb_each(&mut w, "sell.vals", |w| &mut w.sell.vals, f64_bump);
        perturb_each(&mut w, "graph.row_ptr", |w| &mut w.graph.row_ptr, u32_bump);
        perturb_each(&mut w, "graph.adj", |w| &mut w.graph.adj, u32_bump);
        perturb_each(&mut w, "signal.0", |w| &mut w.signal.0, f64_bump);
        perturb_each(&mut w, "signal.1", |w| &mut w.signal.1, f64_bump);

        let scalars: [(&str, Field<usize>); 8] = [
            ("mat.nrows", |w| &mut w.mat.nrows),
            ("mat.ncols", |w| &mut w.mat.ncols),
            ("sell.c", |w| &mut w.sell.c),
            ("sell.nrows", |w| &mut w.sell.nrows),
            ("graph.n", |w| &mut w.graph.n),
            ("bfs_src", |w| &mut w.bfs_src),
            ("pr_iters", |w| &mut w.pr_iters),
            ("heap", |w| &mut w.heap),
        ];
        let fp = w.fingerprint();
        for (name, field) in scalars {
            *field(&mut w) += 1;
            assert_ne!(w.fingerprint(), fp, "{name} perturbed");
            *field(&mut w) -= 1;
            assert_eq!(w.fingerprint(), fp, "{name} restored");
        }

        let cols = &w.mat.col_idx;
        let j = (0..cols.len() - 16).find(|&j| cols[j] != cols[j + 16]).expect("two distinct");
        w.mat.col_idx.swap(j, j + 16);
        assert_ne!(w.fingerprint(), fp, "col_idx[{j}] swapped with col_idx[{}]", j + 16);
    }
}
