//! The untraced run: set-up, timed passes through the workload's front door,
//! the all-hit (warm) sweeps, and the correctness checks. End-to-end metrics
//! come only from here.

use crate::catalog::{self, FrontDoor, Group, Spec};
use crate::drive::{self, References};
use crate::estimate::{median, minimum, MinTimes};
use sdv_bench::cache::{CacheKey, ResultCache};
use sdv_bench::{
    client_request, serve, Cell, CellOutcome, ImplKind, KernelKind, RetryPolicy, ServerConfig,
    Sweeper, Workloads,
};
use sdv_core::{FunctionalMachine, SdvMachine, Vm};
use sdv_engine::Stats;
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// All-hit sweeps per service pass over the wire.
pub const WARM_SWEEPS_PER_PASS: usize = 20;
/// Fewest all-hit sweeps of a simulate workload's grid from the disk cache.
const MIN_DISK_SWEEPS: usize = 30;
/// Two passes at least, so that every cell's cycles are seen twice.
const MIN_PASSES: usize = 2;

/// What a run found: counts of operations and named values.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Cells asked of a warm disk cache, and how many it did not hold.
    pub warm_lookups: u64,
    pub warm_misses: u64,
    values: Vec<(String, f64)>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            warm_lookups: 0,
            warm_misses: 0,
            values: Vec::new(),
        }
    }
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    /// One more operation whose result is `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A failed operation (already counted as attempted) or a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.correct = false;
        eprintln!("sdvbench: FAILED: {what}");
    }
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    if base.is_dir() {
        base.join("out")
    } else {
        PathBuf::from("benchmark/out")
    }
}

/// Scratch directories for result caches, under `benchmark/out`, removed
/// when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("cache-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// An in-process `sweepd`: one worker, a persistent cache, loopback TCP.
pub struct Server {
    pub addr: String,
    pub cache_dir: PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    pub fn start(cache_dir: PathBuf) -> Result<Self, String> {
        let cache = ResultCache::open(&cache_dir).map_err(|e| e.to_string())?;
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let mut sc = ServerConfig::new("small", TimingConfig::default(), Backend::default(), 1);
        sc.cache = Some(cache);
        let handle = std::thread::spawn(move || serve(listener, sc));
        let server = Self {
            addr,
            cache_dir,
            handle: Some(handle),
        };
        // The listener is bound, so the connect queues until `serve` starts
        // accepting; a reply means the workload is built and the worker up.
        client_request(&server.addr, "ping", &RetryPolicy::retries(5, 0))
            .map_err(|e| format!("server did not answer ping: {e}"))?;
        Ok(server)
    }

    /// Drain and join; returns once the server thread has ended.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let asked = client_request(&self.addr, "shutdown", &RetryPolicy::retries(3, 0));
        match handle.join() {
            Ok(Ok(())) => asked
                .map(|_| ())
                .map_err(|e| format!("shutdown request: {e}")),
            Ok(Err(e)) => Err(format!("server ended with: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// Everything the timed part needs, built by [`set_up`].
pub struct Ctx {
    pub w: Workloads,
    pub fingerprint: String,
    /// Cells in the order they are requested.
    pub groups: Vec<Group>,
    pub server: Option<Server>,
}

impl Ctx {
    pub fn cells(&self) -> usize {
        self.groups.iter().map(|g| g.cells.len()).sum()
    }

    /// Every cell with its index over the whole grid and its group's timing
    /// configuration, in request order.
    pub fn indexed_cells(&self) -> impl Iterator<Item = (usize, &TimingConfig, Cell)> {
        self.groups
            .iter()
            .flat_map(|g| g.cells.iter().map(move |&c| (&g.cfg, c)))
            .enumerate()
            .map(|(idx, (cfg, c))| (idx, cfg, c))
    }

    /// Distinct `(kernel, implementation)` pairs with how many cells use
    /// each: functional work does not depend on the latency/bandwidth knobs.
    pub fn programs(&self) -> Vec<((KernelKind, ImplKind), usize)> {
        let mut out: Vec<((KernelKind, ImplKind), usize)> = Vec::new();
        for c in self.groups.iter().flat_map(|g| &g.cells) {
            match out.iter_mut().find(|(p, _)| *p == (c.kernel, c.imp)) {
                Some(e) => e.1 += 1,
                None => out.push(((c.kernel, c.imp), 1)),
            }
        }
        out
    }
}

/// What `setup_s` times: build the inputs from the seed, fingerprint them,
/// build the first machine, and for the service workload open the cache
/// directory, bind, spawn the server and wait for its first reply.
pub fn set_up(spec: &Spec, seed: u64, scratch: &mut Scratch) -> Result<Ctx, String> {
    let (w, groups) = match spec.front {
        FrontDoor::InProcess => (catalog::paper_inputs(seed), spec.groups()),
        FrontDoor::Sweepd => {
            let groups = spec
                .groups()
                .into_iter()
                .map(|g| Group {
                    cells: catalog::request_order(&g.cells, seed),
                    cfg: g.cfg,
                })
                .collect();
            (Workloads::small(), groups)
        }
    };
    let fingerprint = w.fingerprint();
    drop(std::hint::black_box(SdvMachine::new(w.heap)));
    let server = match spec.front {
        FrontDoor::InProcess => None,
        FrontDoor::Sweepd => Some(Server::start(scratch.fresh_dir())?),
    };
    Ok(Ctx {
        w,
        fingerprint,
        groups,
        server,
    })
}

/// Set up [`SETUPS`] times; returns the last context and the median time.
pub fn timed_set_up(spec: &Spec, seed: u64, scratch: &mut Scratch) -> Result<(Ctx, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // stops the previous server before the next binds
        let t = Instant::now();
        let ctx = set_up(spec, seed, scratch)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(ctx);
    }
    Ok((last.expect("SETUPS > 0"), median(&times)))
}

/// Peak resident set of this process so far, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first-pass result of every cell, against which later results of the
/// same cell are compared.
pub struct Seen {
    cycles: Vec<Option<u64>>,
    pub stats: Vec<Option<Stats>>,
}

impl Seen {
    pub fn new(cells: usize) -> Self {
        Self {
            cycles: vec![None; cells],
            stats: vec![None; cells],
        }
    }

    pub fn cycles(&self, idx: usize) -> Option<u64> {
        self.cycles[idx]
    }

    /// Count one cell result: failed if the cell failed or its cycles differ
    /// from the first time this cell was seen.
    pub fn observe(
        &mut self,
        idx: usize,
        cell: Cell,
        out: &CellOutcome,
        how: &str,
        r: &mut Report,
    ) {
        match out {
            CellOutcome::Done(res) => {
                let first = *self.cycles[idx].get_or_insert(res.cycles);
                if self.stats[idx].is_none() {
                    self.stats[idx] = Some(res.stats.clone());
                }
                r.op(first == res.cycles, || {
                    format!(
                        "{}: {} cycles {how}, {first} before",
                        label(cell),
                        res.cycles
                    )
                });
            }
            CellOutcome::Failed { error, .. } => {
                let msg: String = error.to_string().chars().take(160).collect();
                r.op(false, || format!("{} {how}: {msg}", label(cell)));
            }
        }
    }
}

pub fn label(c: Cell) -> String {
    format!(
        "{}/{} +{} bw{}",
        c.kernel.name(),
        c.imp,
        c.extra_latency,
        c.bandwidth
    )
}

/// Stop starting passes once another one as long as the longest so far
/// would overrun the budget.
pub struct PassClock {
    start: Instant,
    budget: Duration,
    longest: Duration,
    passes: usize,
}

impl PassClock {
    pub fn new(budget_s: f64) -> Self {
        Self {
            start: Instant::now(),
            budget: Duration::from_secs_f64(budget_s.max(0.0)),
            longest: Duration::ZERO,
            passes: 0,
        }
    }

    pub fn pass_done(&mut self, took: Duration) {
        self.longest = self.longest.max(took);
        self.passes += 1;
    }

    pub fn another(&self, at_least: usize) -> bool {
        self.passes < at_least || self.start.elapsed() + self.longest <= self.budget
    }

    pub fn passes(&self) -> usize {
        self.passes
    }

    pub fn left(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

/// One pass of every cell in grid order through `Sweeper::try_run_cell` on a
/// fresh `Sweeper` per group, one thread; each cell's wall is one sample.
pub fn sweeper_pass(ctx: &Ctx, times: &mut MinTimes, seen: &mut Seen, r: &mut Report) -> Duration {
    let t_pass = Instant::now();
    let mut idx = 0;
    for g in &ctx.groups {
        let mut sw = Sweeper::with_config(g.cfg);
        for &cell in &g.cells {
            let t = Instant::now();
            let out = sw.try_run_cell(&ctx.w, cell);
            times.record(idx, t.elapsed().as_secs_f64());
            seen.observe(idx, cell, &out, "in process", r);
            idx += 1;
        }
    }
    t_pass.elapsed()
}

/// Persist every completed cell as the harness would have.
pub fn store_results(ctx: &Ctx, seen: &Seen, dir: &Path) -> Result<(), String> {
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    for (idx, cfg, cell) in ctx.indexed_cells() {
        if let (Some(cycles), Some(stats)) = (seen.cycles(idx), &seen.stats[idx]) {
            let key =
                CacheKey::for_cell(cell, &ctx.fingerprint, &cfg.canonical(), Backend::default());
            cache.store(&key, cycles, stats);
        }
    }
    Ok(())
}

/// One all-hit regeneration of the whole grid from the disk cache at `dir`,
/// the way a study binary run with `--cache` does it: a fresh `Sweeper`
/// (which fingerprints the inputs again) per group. Returns its wall time.
pub fn disk_sweep(ctx: &Ctx, dir: &Path, seen: &mut Seen, r: &mut Report) -> f64 {
    let mut wall = 0.0;
    let mut idx = 0;
    for g in &ctx.groups {
        let t = Instant::now();
        let mut sw = Sweeper::with_config(g.cfg);
        let outs = match ResultCache::open(dir) {
            Ok(cache) => {
                sw.set_cache(cache);
                sw.sweep_outcomes(&ctx.w, &g.cells, 1)
            }
            Err(e) => {
                r.fail(format!("cannot reopen the cache: {e}"));
                return f64::INFINITY;
            }
        };
        wall += t.elapsed().as_secs_f64();
        r.warm_lookups += g.cells.len() as u64;
        r.warm_misses += sw.fresh_simulations() as u64;
        if sw.fresh_simulations() != 0 {
            r.fail(format!(
                "{} cells missed the warm disk cache",
                sw.fresh_simulations()
            ));
        }
        for (&cell, out) in g.cells.iter().zip(&outs) {
            seen.observe(idx, cell, out, "from the disk cache", r);
            idx += 1;
        }
    }
    wall
}

/// One sweep of the whole grid through the server from a fresh client
/// `Sweeper`; returns its wall time.
pub fn wire_sweep(ctx: &Ctx, addr: &str, how: &str, seen: &mut Seen, r: &mut Report) -> f64 {
    let g = &ctx.groups[0];
    let t = Instant::now();
    let mut sw = Sweeper::with_config(g.cfg);
    sw.set_remote(addr, "small");
    let outs = sw.sweep_outcomes(&ctx.w, &g.cells, 1);
    let wall = t.elapsed().as_secs_f64();
    for (idx, (&cell, out)) in g.cells.iter().zip(&outs).enumerate() {
        seen.observe(idx, cell, out, how, r);
    }
    wall
}

/// The service grid's cycles rendered as `fig3_latency --small --csv` writes
/// them, whatever order they were requested in.
pub fn fig3_csv(ctx: &Ctx, seen: &Seen) -> String {
    let cells = &ctx.groups[0].cells;
    let mut rows: Vec<(usize, u64, usize, String)> = cells
        .iter()
        .enumerate()
        .map(|(idx, c)| {
            let k = KernelKind::all()
                .iter()
                .position(|k| *k == c.kernel)
                .unwrap_or(0);
            let i = ImplKind::paper_set()
                .iter()
                .position(|i| *i == c.imp)
                .unwrap_or(0);
            let shown = seen
                .cycles(idx)
                .map_or("FAILED".to_string(), |cy| cy.to_string());
            (
                k,
                c.extra_latency,
                i,
                format!(
                    "{},{},{},{shown}\n",
                    c.kernel.name(),
                    c.imp,
                    c.extra_latency
                ),
            )
        })
        .collect();
    rows.sort();
    let mut csv = String::from("kernel,impl,extra_latency,cycles\n");
    for row in rows {
        csv.push_str(&row.3);
    }
    csv
}

pub const GOLDEN_FIG3_SMALL: &str = include_str!("../../results/golden/fig3_small.csv");

/// Untimed: every program of the grid once on the repository's
/// `FunctionalMachine`, output against the host reference.
fn check_functional_outputs(ctx: &Ctx, r: &mut Report) {
    let refs = References::new(&ctx.w);
    for ((kernel, imp), _) in ctx.programs() {
        let mut m = FunctionalMachine::new(ctx.w.heap);
        if let ImplKind::Vector { maxvl } = imp {
            m.set_maxvl_cap(maxvl);
        }
        let dev = drive::setup(&mut m, &ctx.w, kernel);
        drive::run(&mut m, &dev, imp);
        r.op(refs.check(&m, &dev).is_ok(), || {
            format!(
                "{}/{imp}: functional output differs from the host reference",
                kernel.name()
            )
        });
    }
}

fn measure_in_process(
    ctx: &Ctx,
    seconds: f64,
    scratch: &mut Scratch,
    r: &mut Report,
) -> Result<(), String> {
    let warm_reserve = (0.08 * seconds).min(1.5);
    let mut times = MinTimes::new(ctx.cells());
    let mut seen = Seen::new(ctx.cells());
    let mut clock = PassClock::new(seconds - warm_reserve);
    while clock.another(MIN_PASSES) {
        let took = sweeper_pass(ctx, &mut times, &mut seen, r);
        clock.pass_done(took);
    }
    r.set("sim_host_s", times.sum_of_min());
    println!(
        "# {} passes of {} cells, one thread",
        clock.passes(),
        ctx.cells()
    );

    let dir = scratch.fresh_dir();
    store_results(ctx, &seen, &dir)?;
    let warm_end = Instant::now() + clock.left() + Duration::from_secs_f64(warm_reserve);
    let mut warm = Vec::new();
    while warm.len() < MIN_DISK_SWEEPS || Instant::now() < warm_end {
        warm.push(disk_sweep(ctx, &dir, &mut seen, r));
    }
    r.set("warm_wall_ms", minimum(&warm) * 1e3);
    println!("# {} all-hit sweeps from the disk cache", warm.len());
    Ok(())
}

/// Arrivals per segment of a cold sweep.
const COLD_SEGMENT: usize = 8;

/// The cold sweep as a sum of per-segment minima. A whole cold sweep takes
/// two seconds and this host's slow phases last about as long, so the
/// minimum of a handful of whole sweeps still carries a phase; a stretch of
/// eight results is short enough to meet a quiet moment in some pass.
///
/// The server has one worker that always picks the queued cell with the
/// highest predicted cost, so for one request order it completes the cells
/// in one order, and the k-th arrival is the same cell's completion every
/// pass (results completed together may be written in either order, which
/// moves a boundary by microseconds). The first segment starts when the
/// client starts (connect, request, identity check); the last ends when
/// `sweep_outcomes_with` returns.
#[derive(Default)]
pub struct ColdSweeps {
    segments: Option<MinTimes>,
    whole: Vec<f64>,
}

impl ColdSweeps {
    /// One cold sweep of the whole grid against a server that has never
    /// seen it.
    pub fn sweep(&mut self, ctx: &Ctx, addr: &str, seen: &mut Seen, r: &mut Report) {
        let g = &ctx.groups[0];
        let arrivals: std::sync::Mutex<Vec<f64>> =
            std::sync::Mutex::new(Vec::with_capacity(g.cells.len()));
        let t = Instant::now();
        let mut sw = Sweeper::with_config(g.cfg);
        sw.set_remote(addr, "small");
        let outs = sw.sweep_outcomes_with(&ctx.w, &g.cells, 1, |_| {
            let at = t.elapsed().as_secs_f64();
            arrivals
                .lock()
                .expect("no other thread holds the arrivals")
                .push(at);
        });
        let wall = t.elapsed().as_secs_f64();
        self.whole.push(wall);
        for (idx, (&cell, out)) in g.cells.iter().zip(&outs).enumerate() {
            seen.observe(idx, cell, out, "cold through sweepd", r);
        }
        let arrivals = arrivals.into_inner().expect("the sweep has returned");
        if arrivals.len() != g.cells.len() {
            return; // a transport failure: the cells above are already counted as failed
        }
        let ends: Vec<f64> = arrivals
            .chunks(COLD_SEGMENT)
            .map(|c| c[c.len() - 1])
            .collect();
        let segments = self
            .segments
            .get_or_insert_with(|| MinTimes::new(ends.len()));
        let mut from = 0.0;
        for (i, &end) in ends.iter().enumerate() {
            // the last segment runs to the end of the call, past the `done` line
            let to = if i + 1 == ends.len() { wall } else { end };
            segments.record(i, to - from);
            from = to;
        }
    }

    pub fn count(&self) -> usize {
        self.whole.len()
    }

    /// Fastest whole sweep.
    pub fn min_whole_s(&self) -> f64 {
        minimum(&self.whole)
    }

    /// Sum of per-segment minima (the fastest whole sweep if no sweep ever
    /// delivered every cell).
    pub fn seconds(&self) -> f64 {
        self.segments
            .as_ref()
            .map_or(self.min_whole_s(), MinTimes::sum_of_min)
    }
}

fn measure_service(
    mut ctx: Ctx,
    seconds: f64,
    scratch: &mut Scratch,
    r: &mut Report,
) -> Result<Ctx, String> {
    let mut seen = Seen::new(ctx.cells());
    let mut cold = ColdSweeps::default();
    let mut warm = Vec::new();
    let mut clock = PassClock::new(seconds);
    while clock.another(MIN_PASSES) {
        let t_pass = Instant::now();
        let server = match ctx.server.take() {
            Some(s) => s,
            None => Server::start(scratch.fresh_dir())?,
        };
        cold.sweep(&ctx, &server.addr, &mut seen, r);
        for _ in 0..WARM_SWEEPS_PER_PASS {
            warm.push(wire_sweep(
                &ctx,
                &server.addr,
                "warm through sweepd",
                &mut seen,
                r,
            ));
        }
        server.stop()?;
        clock.pass_done(t_pass.elapsed());
    }
    r.set("sim_host_s", cold.seconds());
    r.set("warm_wall_ms", minimum(&warm) * 1e3);
    println!(
        "# {} cold sweeps (fastest whole {:.4} s), {} warm sweeps of {} cells through sweepd",
        cold.count(),
        cold.min_whole_s(),
        warm.len(),
        ctx.cells()
    );
    let csv = fig3_csv(&ctx, &seen);
    r.op(csv == GOLDEN_FIG3_SMALL, || {
        "cycles differ from results/golden/fig3_small.csv".to_string()
    });
    Ok(ctx)
}

/// The whole untraced run of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut scratch =
        Scratch::new().map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let mut r = Report::default();
    let (ctx, setup_s) = timed_set_up(spec, seed, &mut scratch)?;
    r.set("setup_s", setup_s);
    let ctx = match spec.front {
        FrontDoor::InProcess => {
            measure_in_process(&ctx, seconds, &mut scratch, &mut r)?;
            ctx
        }
        FrontDoor::Sweepd => measure_service(ctx, seconds, &mut scratch, &mut r)?,
    };
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("peak_heap_mb", crate::alloc::peak_live_mb());
    check_functional_outputs(&ctx, &mut r);
    Ok(r)
}
