//! Helpers for the integration tests that drive the built binaries or an
//! in-process `sweepd` server.
#![allow(dead_code)] // each test file uses its own subset

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sdv_bench::json::Json;
use sdv_bench::server::{client_request, client_sweep, RetryPolicy, SweepSummary};
use sdv_bench::{serve, Cell, CellOutcome, ServerConfig, Workloads};
use sdv_engine::SimError;
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;

/// The repository's `results/` directory.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A committed file under `results/golden/`, whole.
pub fn golden(name: &str) -> String {
    let path = results_dir().join("golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("{bin}: {e}"))
}

/// `(stdout, stderr)` of a run that must succeed.
pub fn ok(bin: &str, args: &[&str]) -> (String, String) {
    let out = run(bin, args);
    let [stdout, stderr] = [out.stdout, out.stderr].map(|b| String::from_utf8_lossy(&b).into());
    assert!(out.status.success(), "{bin} {args:?} failed: {stderr}");
    (stdout, stderr)
}

/// A fresh scratch directory (the caller removes it).
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `dir` joined with `name`, as the `&str` a command line takes.
pub fn path_in(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("utf-8 temp path").to_string()
}

/// Bind port 0 and serve the small workload at the default timing, with
/// `tweak` applied to the server's configuration: `(address, join handle)`.
pub fn spawn_server(
    threads: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut sc = ServerConfig::new("small", TimingConfig::default(), Backend, threads);
    tweak(&mut sc);
    let handle = std::thread::spawn(move || serve(listener, sc).unwrap());
    (addr, handle)
}

/// A control op (`ping`, `stats`, `status`, `shutdown`) that must succeed
/// on the first attempt.
pub fn ask(addr: &str, op: &str) -> Json {
    client_request(addr, op, &RetryPolicy::none()).unwrap()
}

/// Sweep `cells` at the default timing through the server at `addr`,
/// retrying per `policy`. Outcomes arrive in completion order and come back
/// in `cells` order.
pub fn try_sweep_from(
    addr: &str,
    w: &Workloads,
    cells: &[Cell],
    policy: &RetryPolicy,
) -> Result<(SweepSummary, Vec<CellOutcome>), SimError> {
    let mut outcomes = Vec::new();
    let summary = client_sweep(
        addr,
        "small",
        &w.fingerprint(),
        &TimingConfig::default().canonical(),
        cells,
        policy,
        |o| outcomes.push(o),
    )?;
    let in_order = cells
        .iter()
        .map(|c| outcomes.iter().find(|o| o.cell() == *c).expect("every cell streamed").clone())
        .collect();
    Ok((summary, in_order))
}

/// [`try_sweep_from`] without retries, which must succeed.
pub fn sweep_from(addr: &str, w: &Workloads, cells: &[Cell]) -> (SweepSummary, Vec<CellOutcome>) {
    try_sweep_from(addr, w, cells, &RetryPolicy::none()).unwrap()
}
