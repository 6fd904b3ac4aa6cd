//! SWEEPD — the long-running sweep job server (and its control client).
//!
//! Usage:
//!
//! * `sweepd serve [--addr A | --port N] [--small] [--threads N]
//!   [--cache|--cache-dir D] [--tiles N] [--mesh WxH] [--watchdog]
//!   [--cycle-budget N] [--max-queue N] [--io-timeout-ms N] [--cell-wall-ms N]`
//!   — run the server until a `shutdown` request or SIGTERM/SIGINT (both
//!   drain in-flight work, flush the cache, and exit 0). Holds the workload
//!   arrays, pooled machines, and result memo resident; every unique cell is
//!   simulated at most once for the server's lifetime. `--port 0` binds an
//!   ephemeral port; the bound address is printed on stderr either way.
//! * `sweepd submit [--addr A] [--small] [--tiles N] [--mesh WxH]
//!   [--watchdog] [--cycle-budget N] [--retries N]
//!   --cells "SPMV,scalar,0,64;FFT,vl=256,128,64"`
//!   — submit a grid and stream results to stdout as
//!   `kernel,impl,extra_latency,bandwidth,cycles` lines (completion order).
//!   The submitted workload/config identity must match the server's.
//! * `sweepd ping|stats|status|shutdown [--addr A] [--retries N]` — control
//!   ops; `status` includes per-worker health and queue depth.
//! * `sweepd gc [--cache-dir D] --max-bytes N` — evict least-recently-used
//!   cache entries until the cache fits the budget; corrupt entries are
//!   quarantined, never silently deleted.
//! * `sweepd fsck [--cache-dir D]` — verify every cache entry's checksum,
//!   quarantining anything unreadable into the cache's `corrupt/` subdir.
//!
//! Exit codes follow the uniform table in `cli`: 2 usage, 3 bad input,
//! 4 simulation fault, 5 service unavailable (bind conflict, overloaded,
//! draining). The wire protocol is line-delimited JSON; see EXPERIMENTS.md.
//! Service faults ([`ChaosPlan`](sdv_bench::ChaosPlan)) are armed by tests,
//! in-process; no flag here sets one.

use sdv_bench::json::Json;
use sdv_bench::{cli, server, Cell, CellOutcome, ResultCache, Workloads};
use sdv_uarch::TimingConfig;

const BIN: &str = "sweepd";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(cmd) = args.get(1).map(String::as_str) else {
        cli::die_usage(
            BIN,
            "usage: sweepd serve|submit|ping|stats|status|shutdown|gc|fsck [flags]",
        );
    };
    let Some((switches, valued)) = flag_table(cmd) else {
        cli::die_usage(BIN, &format!("unknown subcommand '{cmd}'"));
    };
    let positional =
        cli::check_flags(&args, &switches, &valued).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    if let Some(arg) = positional.get(1) {
        cli::die_usage(BIN, &format!("unexpected argument '{arg}'"));
    }
    let addr = match cli::parse_arg::<String>(&args, "--addr") {
        Ok(v) => v.unwrap_or_else(|| server::DEFAULT_ADDR.to_string()),
        Err(e) => cli::die_usage(BIN, &e),
    };
    match cmd {
        "serve" => serve(&args, &addr),
        "submit" => submit(&args, &addr),
        "gc" => gc(&args),
        "fsck" => fsck(&args),
        _ => control(&args, cmd, &addr),
    }
}

/// A subcommand's `(switches, valued)` flags, `None` for an unknown one.
/// `serve` and `submit` share the flags [`timing_config`] reads.
fn flag_table(cmd: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    const TIMING_SWITCHES: [&str; 2] = ["--small", "--watchdog"];
    const TIMING_VALUED: [&str; 6] =
        ["--addr", "--cycle-budget", "--fault", "--fault-seed", "--tiles", "--mesh"];
    const SERVE_VALUED: [&str; 6] =
        ["--port", "--threads", "--cache-dir", "--max-queue", "--io-timeout-ms", "--cell-wall-ms"];
    const SUBMIT_VALUED: [&str; 2] = ["--cells", "--retries"];
    Some(match cmd {
        "serve" => (
            [&TIMING_SWITCHES[..], &["--cache"]].concat(),
            [&TIMING_VALUED[..], &SERVE_VALUED].concat(),
        ),
        "submit" => (TIMING_SWITCHES.to_vec(), [&TIMING_VALUED[..], &SUBMIT_VALUED].concat()),
        "ping" | "stats" | "status" | "shutdown" => (Vec::new(), vec!["--addr", "--retries"]),
        "gc" => (vec!["--cache"], vec!["--cache-dir", "--max-bytes"]),
        "fsck" => (vec!["--cache"], vec!["--cache-dir"]),
        _ => return None,
    })
}

/// The timing configuration shared by `serve` and `submit` — both sides
/// must derive it from the same flags or the server will (correctly)
/// reject the sweep.
fn timing_config(args: &[String]) -> TimingConfig {
    let mut cfg = cli::hardening_config(args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    cli::apply_topology(args, &mut cfg).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    cfg
}

/// Route SIGTERM and SIGINT into the server's drain path. The handler may
/// only touch a static atomic; a watcher thread forwards the flag to the
/// [`server::ShutdownSignal`], and the accept loop (which polls every few
/// milliseconds) picks it up from there.
#[cfg(unix)]
fn install_signal_handlers(shutdown: server::ShutdownSignal) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static CAUGHT: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_sig: i32) {
        CAUGHT.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if CAUGHT.load(Ordering::SeqCst) {
            shutdown.request();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_signal_handlers(_shutdown: server::ShutdownSignal) {}

fn serve(args: &[String], addr: &str) {
    let small = args.iter().any(|a| a == "--small");
    let threads = cli::threads(BIN, args);
    let workload = if small { "small" } else { "paper" };
    let mut sc =
        server::ServerConfig::new(workload, timing_config(args), sdv_rvv::Backend, threads);
    sc.cache = cli::cache_dir(BIN, args).map(|dir| match ResultCache::open(&dir) {
        Ok(c) => c,
        Err(e) => cli::die_bad_input(BIN, &e.to_string()),
    });
    match cli::parse_arg::<usize>(args, "--max-queue") {
        Ok(Some(0)) => cli::die_usage(BIN, "--max-queue must be positive"),
        Ok(Some(n)) => sc.max_queue = n,
        Ok(None) => {}
        Err(e) => cli::die_usage(BIN, &e),
    }
    match cli::parse_arg::<u64>(args, "--io-timeout-ms") {
        Ok(Some(0)) => sc.io_timeout = None,
        Ok(Some(ms)) => sc.io_timeout = Some(std::time::Duration::from_millis(ms)),
        Ok(None) => {}
        Err(e) => cli::die_usage(BIN, &e),
    }
    match cli::parse_arg::<u64>(args, "--cell-wall-ms") {
        Ok(Some(0)) => cli::die_usage(BIN, "--cell-wall-ms must be positive (omit for no limit)"),
        Ok(Some(ms)) => sc.cell_wall = Some(std::time::Duration::from_millis(ms)),
        Ok(None) => {}
        Err(e) => cli::die_usage(BIN, &e),
    }

    // `--port N` is shorthand for a loopback bind; `--port 0` asks the OS
    // for an ephemeral port (the serving line below reports what it chose).
    let bind_addr = match cli::parse_arg::<u16>(args, "--port") {
        Ok(Some(p)) => format!("127.0.0.1:{p}"),
        Ok(None) => addr.to_string(),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let listener = std::net::TcpListener::bind(&bind_addr).unwrap_or_else(|e| {
        if e.kind() == std::io::ErrorKind::AddrInUse {
            cli::die_unavailable(
                BIN,
                &format!(
                    "cannot bind {bind_addr}: address already in use \
                     (is another sweepd running? try --port 0 for an ephemeral port)"
                ),
            );
        }
        cli::die_bad_input(BIN, &format!("cannot bind {bind_addr}: {e}"))
    });
    let local = listener.local_addr().map_or_else(|_| bind_addr.clone(), |a| a.to_string());
    install_signal_handlers(sc.signal.clone());
    eprintln!(
        "{BIN}: serving workload '{}' on {local} ({} threads, build {})",
        sc.workload,
        sc.threads,
        sdv_engine::build_info()
    );
    if let Err(e) = server::serve(listener, sc) {
        cli::die_bad_input(BIN, &format!("server failed: {e}"));
    }
    eprintln!("{BIN}: shut down cleanly");
}

fn submit(args: &[String], addr: &str) {
    let small = args.iter().any(|a| a == "--small");
    let cfg = timing_config(args);
    let cells_spec = match cli::parse_arg::<String>(args, "--cells") {
        Ok(Some(s)) => s,
        Ok(None) => cli::die_usage(BIN, "submit needs --cells \"KERNEL,impl,lat,bw;...\""),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let cells: Vec<Cell> = cells_spec
        .split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|spec| {
            parse_cell(spec.trim(), &cfg)
                .unwrap_or_else(|e| cli::die_usage(BIN, &format!("--cells: '{spec}': {e}")))
        })
        .collect();
    if cells.is_empty() {
        cli::die_usage(BIN, "--cells named no cells");
    }
    let policy = cli::retry_policy(args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let w = if small { Workloads::small() } else { Workloads::paper() };
    let mut failures = 0usize;
    let summary = server::client_sweep(
        addr,
        if small { "small" } else { "paper" },
        &w.fingerprint(),
        &cfg.canonical(),
        &cells,
        &policy,
        |out| {
            let c = out.cell();
            match &out {
                CellOutcome::Done(r) => println!(
                    "{},{},{},{},{}",
                    c.kernel.name(),
                    c.imp,
                    c.extra_latency,
                    c.bandwidth,
                    r.cycles
                ),
                CellOutcome::Failed { error, .. } => {
                    failures += 1;
                    eprintln!(
                        "{BIN}: cell {}/{} (+{} latency, {} B/cy) FAILED: {error}",
                        c.kernel.name(),
                        c.imp,
                        c.extra_latency,
                        c.bandwidth
                    );
                }
            }
        },
    );
    match summary {
        Ok(s) => {
            eprintln!(
                "{BIN}: {} unique cells; server lifetime: {} simulated, {} cache hits",
                s.cells, s.simulated, s.cache_hits
            );
            if failures > 0 {
                std::process::exit(cli::EXIT_SIM_FAULT);
            }
        }
        Err(e) => {
            eprintln!("{BIN}: {e}");
            std::process::exit(cli::exit_code_for(&e));
        }
    }
}

/// `KERNEL,impl,extra_latency,bandwidth` — a `submit` output line without
/// the trailing cycles column — with knobs `cfg` can run.
fn parse_cell(spec: &str, cfg: &TimingConfig) -> Result<Cell, String> {
    let fields: Vec<&str> = spec.split(',').collect();
    if fields.len() != 4 {
        return Err(format!("expected 4 comma-separated fields, found {}", fields.len()));
    }
    let cell = Cell {
        kernel: fields[0].parse()?,
        imp: fields[1].parse()?,
        extra_latency: fields[2]
            .parse()
            .map_err(|_| format!("bad extra_latency '{}'", fields[2]))?,
        bandwidth: fields[3].parse().map_err(|_| format!("bad bandwidth '{}'", fields[3]))?,
    };
    cell.check_knobs(cfg)?;
    Ok(cell)
}

fn control(args: &[String], op: &str, addr: &str) {
    let policy = cli::retry_policy(args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    match server::client_request(addr, op, &policy) {
        Ok(v) => {
            if let Json::Obj(fields) = &v {
                for (k, val) in fields {
                    println!("{k:<12} {}", val.to_line().trim_matches('"'));
                }
            } else {
                println!("{}", v.to_line());
            }
        }
        Err(e) => {
            eprintln!("{BIN}: {e}");
            std::process::exit(cli::exit_code_for(&e));
        }
    }
}

fn gc(args: &[String]) {
    let max_bytes = match cli::parse_arg::<u64>(args, "--max-bytes") {
        Ok(Some(n)) => n,
        Ok(None) => cli::die_usage(BIN, "gc needs --max-bytes N"),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let dir = cli::cache_dir(BIN, args).unwrap_or_else(|| cli::DEFAULT_CACHE_DIR.into());
    let cache = ResultCache::open(&dir).unwrap_or_else(|e| cli::die_bad_input(BIN, &e.to_string()));
    let s = cache.gc(max_bytes);
    println!("cache gc: {}", dir.display());
    println!("  {:<22} {}", "entries scanned", s.scanned);
    println!("  {:<22} {}", "evicted (LRU)", s.evicted);
    println!("  {:<22} {}", "corrupt quarantined", s.corrupt);
    println!("  {:<22} {}", "bytes before", s.bytes_before);
    println!("  {:<22} {}", "bytes after", s.bytes_after);
}

fn fsck(args: &[String]) {
    let dir = cli::cache_dir(BIN, args).unwrap_or_else(|| cli::DEFAULT_CACHE_DIR.into());
    let cache = ResultCache::open(&dir).unwrap_or_else(|e| cli::die_bad_input(BIN, &e.to_string()));
    let s = cache.fsck();
    println!("cache fsck: {}", dir.display());
    println!("  {:<22} {}", "entries scanned", s.scanned);
    println!("  {:<22} {}", "valid", s.valid);
    println!("  {:<22} {}", "quarantined now", s.quarantined);
    println!("  {:<22} {}", "already quarantined", s.previously_quarantined);
    println!("  {:<22} {}", "valid bytes", s.valid_bytes);
    if s.quarantined > 0 {
        eprintln!(
            "{BIN}: {} corrupt entr{} moved to {}",
            s.quarantined,
            if s.quarantined == 1 { "y" } else { "ies" },
            cache.corrupt_dir().display()
        );
    }
}
