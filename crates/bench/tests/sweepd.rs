//! Integration tests for the sweep job server: real TCP, real workers,
//! concurrent clients with overlapping grids.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

mod common;
use common::{ask, golden, ok, run, spawn_server, sweep_from, try_sweep_from};

use sdv_bench::json::Json;
use sdv_bench::server::{client_request, client_sweep, RetryPolicy, ShutdownSignal};
use sdv_bench::{
    Cell, CellOutcome, ChaosKind, ChaosPlan, ImplKind, KernelKind, Sweeper, Workloads,
};
use sdv_engine::SimError;
use sdv_uarch::TimingConfig;

/// Two concurrent clients submit duplicate-heavy overlapping grids; every
/// unique cell is simulated exactly once for the server's lifetime, both
/// clients get full, agreeing results, and shutdown is clean.
#[test]
fn duplicate_heavy_concurrent_clients_simulate_each_cell_once() {
    let (addr, handle) = spawn_server(2, |_| {});
    let w = Workloads::small();

    let mk =
        |imp, extra_latency| Cell { kernel: KernelKind::Spmv, imp, extra_latency, bandwidth: 64 };
    // 3 unique cells; client A asks for two of them (one duplicated in the
    // same request), client B overlaps on both of A's plus one of its own.
    let a_cells = vec![
        mk(ImplKind::Scalar, 0),
        mk(ImplKind::Vector { maxvl: 64 }, 0),
        mk(ImplKind::Scalar, 0),
    ];
    let b_cells = vec![
        mk(ImplKind::Scalar, 0),
        mk(ImplKind::Vector { maxvl: 64 }, 0),
        mk(ImplKind::Vector { maxvl: 256 }, 0),
    ];

    let (a, b) = std::thread::scope(|s| {
        let wa = &w;
        let aa = addr.clone();
        let ha = s.spawn(move || sweep_from(&aa, wa, &a_cells));
        let ab = addr.clone();
        let hb = s.spawn(move || sweep_from(&ab, wa, &b_cells));
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(a.0.cells, 2, "client A's duplicate collapses to 2 unique cells");
    assert_eq!(b.0.cells, 3);
    // The `simulated` counter is server-lifetime; after both sweeps it must
    // equal the number of unique cells across both grids.
    let stats = ask(&addr, "stats");
    assert_eq!(stats.get("simulated").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(stats.get("served").and_then(|v| v.as_u64()), Some(5));

    // Overlapping cells agree across clients.
    let cycles_of = |outcomes: &[CellOutcome], cell: Cell| {
        outcomes
            .iter()
            .find(|o| o.cell() == cell)
            .and_then(|o| o.cycles())
            .expect("cell present and done")
    };
    for cell in [mk(ImplKind::Scalar, 0), mk(ImplKind::Vector { maxvl: 64 }, 0)] {
        assert_eq!(cycles_of(&a.1, cell), cycles_of(&b.1, cell));
    }

    let ok = ask(&addr, "shutdown");
    assert_eq!(ok.get("ok").and_then(|v| v.as_bool()), Some(true));
    handle.join().unwrap();
}

/// A client whose identity (config) differs from the server's is rejected
/// with a transport-level error, not wrong results.
#[test]
fn mismatched_identity_is_rejected() {
    let (addr, handle) = spawn_server(1, |_| {});
    let w = Workloads::small();
    let mut cfg = TimingConfig::default();
    cfg.vpu.lanes = 4;
    let err = client_sweep(
        &addr,
        "small",
        &w.fingerprint(),
        &cfg.canonical(),
        &[Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Scalar,
            extra_latency: 0,
            bandwidth: 64,
        }],
        &RetryPolicy::none(),
        |_| {},
    )
    .unwrap_err();
    assert!(err.to_string().contains("cfg"), "error names the mismatched field: {err}");
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

fn spmv(imp: ImplKind) -> Cell {
    Cell { kernel: KernelKind::Spmv, imp, extra_latency: 0, bandwidth: 64 }
}

/// A sweep that would overflow the bounded job queue is rejected up front
/// with a classed `overloaded` error — transient, so clients may retry —
/// and the server stays healthy for correctly-sized work.
#[test]
fn a_sweep_beyond_the_queue_bound_is_rejected_as_overloaded() {
    let (addr, handle) = spawn_server(1, |sc| sc.max_queue = 1);
    let w = Workloads::small();
    let too_big = vec![
        spmv(ImplKind::Scalar),
        spmv(ImplKind::Vector { maxvl: 64 }),
        spmv(ImplKind::Vector { maxvl: 256 }),
    ];
    let err = try_sweep_from(&addr, &w, &too_big, &RetryPolicy::none()).unwrap_err();
    assert!(matches!(err, SimError::Overloaded { .. }), "got: {err}");
    assert!(err.transient(), "overload must invite a retry");
    assert!(err.to_string().contains("queue full"), "names the cause: {err}");

    // A right-sized sweep on the same server succeeds.
    let (s, outcomes) = try_sweep_from(&addr, &w, &too_big[..1], &RetryPolicy::none()).unwrap();
    assert_eq!(s.cells, 1);
    assert!(matches!(outcomes[0], CellOutcome::Done(_)));
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// With drop-connection chaos armed, a retrying client still completes the
/// sweep (idempotent re-submission); a non-retrying client would have died.
#[test]
fn retry_rides_out_a_chaos_dropped_connection() {
    let (addr, handle) =
        spawn_server(1, |sc| sc.chaos = ChaosPlan::only(ChaosKind::DropConnection, 7));
    let w = Workloads::small();
    let cells = [spmv(ImplKind::Scalar), spmv(ImplKind::Vector { maxvl: 64 })];
    let policy = RetryPolicy::retries(6, 7);
    let (s, outcomes) = try_sweep_from(&addr, &w, &cells, &policy).unwrap();
    assert_eq!(s.cells, 2);
    assert!(outcomes.iter().all(|o| matches!(o, CellOutcome::Done(_))));
    client_request(&addr, "shutdown", &policy).unwrap();
    handle.join().unwrap();
}

/// A client that connects and then sends nothing is reaped by the
/// per-connection io timeout instead of holding a handler hostage; other
/// clients are unaffected.
#[test]
fn a_stalled_client_is_reaped_without_blocking_others() {
    let (addr, handle) = spawn_server(1, |sc| sc.io_timeout = Some(Duration::from_millis(200)));
    let stalled = std::net::TcpStream::connect(&addr).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A healthy client sweeps to completion while the stall is pending.
    let w = Workloads::small();
    let (s, outcomes) =
        try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none()).unwrap();
    assert_eq!(s.cells, 1);
    assert!(matches!(outcomes[0], CellOutcome::Done(_)));

    // The server gives up on the silent connection: we observe EOF.
    let n = std::io::Read::read(&mut { stalled }, &mut [0u8; 16]).unwrap();
    assert_eq!(n, 0, "reaped connection closes cleanly from the client's view");
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// The graceful-shutdown state machine end to end, driven by the same
/// [`ShutdownSignal`] the SIGTERM handler uses: an in-flight sweep runs to
/// completion, new sweeps are rejected with a classed `draining` error,
/// and the server then exits cleanly.
#[test]
fn shutdown_signal_drains_in_flight_work_and_rejects_new_sweeps() {
    let signal = ShutdownSignal::new();
    let sig = signal.clone();
    let (addr, handle) = spawn_server(1, move |sc| sc.signal = sig);
    let w = Workloads::small();
    // A long grid on one worker so the drain window is wide open.
    let grid: Vec<Cell> = [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr, KernelKind::Fft]
        .into_iter()
        .flat_map(|k| {
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 64 }, ImplKind::Vector { maxvl: 256 }]
                .map(|imp| Cell { kernel: k, imp, extra_latency: 0, bandwidth: 64 })
        })
        .collect();

    let (in_flight, rejected) = std::thread::scope(|s| {
        let wa = &w;
        let ga = grid.clone();
        let aa = addr.clone();
        let sweeping = s.spawn(move || try_sweep_from(&aa, wa, &ga, &RetryPolicy::none()));
        // Give the sweep time to be admitted, then pull the plug.
        std::thread::sleep(Duration::from_millis(150));
        signal.request();
        std::thread::sleep(Duration::from_millis(100));
        let rejected = try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none());
        (sweeping.join().unwrap(), rejected)
    });

    let (s, outcomes) = in_flight.expect("the admitted sweep survives the drain");
    assert_eq!(s.cells as usize, grid.len());
    assert!(outcomes.iter().all(|o| matches!(o, CellOutcome::Done(_))));
    let err = rejected.expect_err("a sweep submitted mid-drain is turned away");
    assert!(matches!(err, SimError::Draining { .. } | SimError::Unavailable { .. }), "got: {err}");
    // serve() returns without a shutdown op ever being sent.
    handle.join().unwrap();
    assert!(std::net::TcpStream::connect(&addr).is_err(), "the drained server no longer listens");
    // The acceptor thread owned the listener; serve() joined it, so the
    // port is free for the next server the moment serve() is back.
    std::net::TcpListener::bind(&addr).expect("the drained server released its port");
}

/// The PR-13-format sweep request line for `cells`, naming `backend`.
fn sweep_request_line(w: &Workloads, cells: &[Cell], backend: &str) -> String {
    let cells = cells
        .iter()
        .map(|c| {
            Json::obj([
                ("kernel", Json::str(c.kernel.name())),
                ("imp", Json::str(c.imp.to_string())),
                ("lat", Json::num(c.extra_latency)),
                ("bw", Json::num(c.bandwidth)),
            ])
        })
        .collect();
    let req = Json::obj([
        ("op", Json::str("sweep")),
        ("workload", Json::str("small")),
        ("workload_fp", Json::str(w.fingerprint())),
        ("cfg", Json::str(TimingConfig::default().canonical())),
        ("backend", Json::str(backend)),
        ("cells", Json::Arr(cells)),
    ]);
    req.to_line()
}

/// Read one sweep's response lines as the server wrote them, result lines
/// sorted (completion order is not part of the protocol), the `done` line
/// last.
fn read_sweep_lines(reader: impl std::io::BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    for line in reader.lines() {
        let line = line.unwrap();
        let done = line.starts_with("{\"done\"");
        lines.push(line);
        if done {
            break;
        }
    }
    let results = lines.len() - 1;
    lines[..results].sort();
    lines
}

/// Submit `cells` over a raw socket and return [`read_sweep_lines`].
fn raw_sweep_lines(addr: &str, w: &Workloads, cells: &[Cell]) -> Vec<String> {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    writeln!(stream, "{}", sweep_request_line(w, cells, "scalar")).unwrap();
    read_sweep_lines(std::io::BufReader::new(stream))
}

/// The wire format did not move when the second exec backend was deleted: a
/// request naming `simd` is refused by name (never silently served by the
/// one engine), the connection survives the refusal, and the `scalar` token
/// every PR-13 client sends is served.
#[test]
fn a_simd_request_is_refused_and_a_scalar_one_served_on_the_same_connection() {
    use std::io::Write;
    let (addr, handle) = spawn_server(1, |_| {});
    let w = Workloads::small();
    let cells = [spmv(ImplKind::Vector { maxvl: 256 })];
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());

    writeln!(stream, "{}", sweep_request_line(&w, &cells, "simd")).unwrap();
    let mut refusal = String::new();
    reader.read_line(&mut refusal).unwrap();
    assert_eq!(
        refusal.trim_end(),
        r#"{"error":"backend mismatch: server has 'scalar', request has 'simd'"}"#
    );

    writeln!(stream, "{}", sweep_request_line(&w, &cells, "scalar")).unwrap();
    let served = read_sweep_lines(&mut reader);
    assert_eq!(served.len(), 2, "one result line and the done line: {served:?}");
    let cycles = Json::parse(&served[0]).unwrap().get("cycles").and_then(Json::as_u64);
    assert_eq!(cycles, Some(Sweeper::new().run_cell(&w, cells[0]).cycles));
    drop((stream, reader)); // or the drain waits on this open connection

    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// A memoized cell is answered with the bytes rendered when it was
/// published: two clients asking at once get byte-identical lines, the same
/// ones the cold client got, and nothing is simulated again.
#[test]
fn concurrent_warm_clients_get_byte_identical_lines_and_simulate_nothing() {
    let (addr, handle) = spawn_server(2, |_| {});
    let w = Workloads::small();
    let cells = [
        spmv(ImplKind::Scalar),
        spmv(ImplKind::Vector { maxvl: 8 }),
        spmv(ImplKind::Vector { maxvl: 64 }),
        spmv(ImplKind::Vector { maxvl: 256 }),
    ];
    let cold = raw_sweep_lines(&addr, &w, &cells);
    assert_eq!(cold.len(), cells.len() + 1);
    let simulated = |v: &Json| v.get("simulated").and_then(|n| n.as_u64());
    assert_eq!(simulated(&ask(&addr, "stats")), Some(4));

    let start = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let warm = || {
            start.wait();
            raw_sweep_lines(&addr, &w, &cells)
        };
        let ha = s.spawn(warm);
        let hb = s.spawn(warm);
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a, b, "two warm clients, one set of bytes");
    assert_eq!(a, cold, "and they are the bytes the cold client was sent");
    let stats = ask(&addr, "stats");
    assert_eq!(simulated(&stats), Some(4), "a warm sweep simulates nothing");
    assert_eq!(stats.get("served").and_then(|n| n.as_u64()), Some(12));

    // The library client decodes those same lines to the same results.
    let (_, outcomes) = sweep_from(&addr, &w, &cells);
    for line in &cold[..cells.len()] {
        let v = Json::parse(line).unwrap();
        let cycles = v.get("cycles").and_then(|n| n.as_u64());
        let imp = v.get("imp").and_then(|i| i.as_str()).unwrap();
        let out = outcomes.iter().find(|o| o.cell().imp.to_string() == imp).unwrap();
        assert_eq!(out.cycles(), cycles, "{imp}");
        let CellOutcome::Done(r) = out else { panic!("{imp} failed") };
        let Some(Json::Obj(stats)) = v.get("stats") else { panic!("no stats") };
        assert_eq!(r.stats.iter().count(), stats.len(), "{imp}: every counter decoded");
        for (k, n) in stats {
            assert_eq!(Some(r.stats.get(k)), n.as_u64(), "{imp} {k}");
        }
    }
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

/// An unreachable server fails every cell of the grid as `Unavailable`:
/// nothing is simulated locally in its place.
#[test]
fn an_unreachable_server_fails_every_cell_as_unavailable() {
    // Grab an ephemeral port and release it: nothing listens there now.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let w = Workloads::small();
    let cells = [spmv(ImplKind::Scalar), spmv(ImplKind::Vector { maxvl: 64 })];
    let mut sweeper = Sweeper::with_config(TimingConfig::default());
    sweeper.set_remote(&dead_addr, "small");
    for o in sweeper.sweep_outcomes(&w, &cells, 1) {
        assert!(matches!(o.error(), Some(SimError::Unavailable { .. })), "{o:?}");
    }
    assert_eq!(sweeper.fresh_simulations(), 0);
}

/// A cell that outlives the per-cell wall deadline comes back as a
/// structured failure; the server itself keeps serving.
#[test]
fn a_runaway_cell_trips_the_wall_deadline_as_a_failed_cell() {
    // Small-workload cells simulate in milliseconds of host time, so the
    // runaway threshold has to sit at microseconds: the first wall check
    // (every 2^14 cycles) already finds it blown.
    let (addr, handle) = spawn_server(1, |sc| sc.cell_wall = Some(Duration::from_micros(1)));
    let w = Workloads::small();
    let (s, outcomes) =
        try_sweep_from(&addr, &w, &[spmv(ImplKind::Scalar)], &RetryPolicy::none()).unwrap();
    assert_eq!(s.cells, 1);
    match &outcomes[0] {
        CellOutcome::Failed { error, .. } => {
            assert!(error.to_string().contains("deadline"), "names the cause: {error}");
        }
        CellOutcome::Done(r) => {
            panic!("a 1 µs deadline cannot fit a real cell ({} cycles)", r.cycles)
        }
    }
    // The server survives its client's runaway cell.
    let pong = ask(&addr, "ping");
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
    ask(&addr, "shutdown");
    handle.join().unwrap();
}

// The `sweepd` binary, driven as a shell would.

const SWEEPD: &str = env!("CARGO_BIN_EXE_sweepd");

/// A `sweepd serve` child, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    /// The rest of its stderr, after the serving line.
    stderr: std::io::BufReader<std::process::ChildStderr>,
}

/// `sweepd serve --port PORT ARGS` (0: an ephemeral port), its address read
/// off the serving line on stderr.
fn serve_bin(port: u16, args: &[&str]) -> Daemon {
    let mut child = Command::new(SWEEPD)
        .args(["serve", "--port", &port.to_string()])
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("sweepd serve starts");
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    while !line.contains("serving workload") {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "sweepd exited before serving");
    }
    let addr = line.split(" on ").nth(1).and_then(|at| at.split(' ').next()).expect("address");
    Daemon { child, addr: addr.to_string(), stderr }
}

impl Daemon {
    /// Wait for exit status 0, after `sweepd shutdown` if `shut`; the stderr.
    fn exit_ok(mut self, shut: bool) -> String {
        if shut {
            ok(SWEEPD, &["shutdown", "--addr", &self.addr]);
        }
        let status = self.child.wait().expect("sweepd exits");
        let mut log = String::new();
        std::io::Read::read_to_string(&mut self.stderr, &mut log).expect("stderr");
        assert!(status.success(), "sweepd exited {status}: {log}");
        log
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Duplicates collapse, `status` shows the workers, and the fig3 grid through
/// the server is the golden CSV cold and again warm, from the memo alone.
#[test]
fn the_binary_collapses_duplicates_and_answers_a_warm_fig3_from_its_memo() {
    let d = serve_bin(0, &["--small", "--threads", "2"]);
    let cells = "SPMV,scalar,0,64;SPMV,vl=64,0,64;SPMV,scalar,0,64";
    let (_, summary) = ok(SWEEPD, &["submit", "--addr", &d.addr, "--small", "--cells", cells]);
    assert!(summary.contains("2 unique cells; server lifetime: 2 simulated"), "{summary}");
    assert!(ok(SWEEPD, &["status", "--addr", &d.addr]).0.contains("workers"));
    let csv = std::env::temp_dir().join(format!("sdv_sweepd_fig3_{}.csv", std::process::id()));
    let fig3 = || {
        let path = csv.to_str().expect("utf-8 path");
        ok(env!("CARGO_BIN_EXE_study"), &["fig3", "--small", "--server", &d.addr, "--csv", path]);
        let stats = ok(SWEEPD, &["stats", "--addr", &d.addr]).0;
        let simulated = stats.lines().find(|l| l.starts_with("simulated ")).map(str::to_string);
        (std::fs::read_to_string(&csv).expect("fig3 wrote its CSV"), simulated.expect("stats"))
    };
    let (cold, warm) = (fig3(), fig3());
    let _ = std::fs::remove_file(&csv);
    assert_eq!(cold.0, golden("fig3_small.csv"));
    assert_eq!(warm, cold, "the warm pass is the cold bytes, and simulates nothing");
    d.exit_ok(true);
}

/// SIGTERM while a submit streams: the in-flight sweep drains to its last
/// cell, and both processes exit 0.
#[cfg(unix)]
#[test]
fn sigterm_mid_submit_drains_every_cell_and_both_processes_exit_0() {
    let d = serve_bin(0, &["--small", "--threads", "1"]);
    let cells = "SPMV,scalar,0,64;SPMV,vl=64,0,64;SPMV,vl=256,0,64;BFS,scalar,0,64;PR,scalar,0,64;\
                 FFT,scalar,0,64";
    let mut submit = Command::new(SWEEPD)
        .args(["submit", "--addr", &d.addr, "--small", "--cells", cells])
        .stdout(Stdio::piped())
        .spawn()
        .expect("sweepd submit starts");
    let mut lines = std::io::BufReader::new(submit.stdout.take().expect("piped")).lines();
    // TERM the server as soon as the first result lands (sweep in flight).
    assert!(lines.next().is_some_and(|l| l.is_ok()), "submit streamed nothing before TERM");
    let kill = Command::new("kill").args(["-TERM", &d.child.id().to_string()]).status();
    assert!(kill.expect("kill runs").success());
    let streamed = 1 + lines.map_while(Result::ok).count();
    assert!(submit.wait().expect("submit exits").success(), "in-flight submit failed");
    let log = d.exit_ok(false);
    assert_eq!(streamed, 6, "drained submit returned {streamed} of 6 cells");
    assert!(log.contains("draining") && log.contains("shut down cleanly"), "{log}");
}

/// `submit --retries` outlives a server started 0.7 s late; a second
/// `serve` on that busy port is exit 5 naming the cause.
#[test]
fn a_retrying_submit_outlives_a_late_server_and_a_second_serve_on_its_port_exits_5() {
    let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(700));
        serve_bin(port, &["--small", "--threads", "1"])
    });
    let addr = format!("127.0.0.1:{port}");
    let submit = ["submit", "--addr", &addr, "--retries", "10", "--small", "--cells"];
    let (_, summary) = ok(SWEEPD, &[&submit[..], &["SPMV,scalar,0,64"]].concat());
    assert!(summary.contains("1 unique cells"), "unexpected summary: {summary}");
    let d = late.join().expect("late server started");
    let dup = run(SWEEPD, &["serve", "--port", &port.to_string(), "--small"]);
    let stderr = String::from_utf8_lossy(&dup.stderr);
    assert_eq!(dup.status.code(), Some(5), "a bind conflict is exit 5: {stderr}");
    assert!(stderr.contains("address already in use"), "unhelpful bind error: {stderr}");
    d.exit_ok(true);
}

/// A 4-tile server streams a topology-matched submit and refuses a one-tile
/// client rather than serve it another topology's numbers.
#[test]
fn a_four_tile_server_serves_a_matched_submit_and_refuses_a_mismatched_one() {
    let d = serve_bin(0, &["--small", "--threads", "2", "--tiles", "4"]);
    let submit = ["submit", "--addr", &d.addr, "--small", "--cells"];
    let matched = [&submit[..], &["SPMV,vl=256,0,64;BFS,vl=256,0,64", "--tiles", "4"]].concat();
    let (lines, _) = ok(SWEEPD, &matched);
    assert_eq!(lines.lines().count(), 2, "tiled submit returned: {lines}");
    let mismatched = run(SWEEPD, &[&submit[..], &["SPMV,vl=256,0,64"]].concat());
    assert!(!mismatched.status.success(), "a topology-mismatched submit was accepted");
    d.exit_ok(true);
}
