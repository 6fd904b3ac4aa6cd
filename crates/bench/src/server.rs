//! The `sweepd` sweep service: a long-running, supervised simulation job
//! server.
//!
//! Figure regeneration is dominated by repeated, overlapping sweep grids —
//! the ROADMAP names "the simulator as a long-running, sharded server" as
//! the way to absorb that traffic at near-zero marginal cost. `sweepd`
//! keeps the expensive state resident (workload arrays, pooled machines,
//! warm memo) and serves cells over a local TCP socket:
//!
//! * **protocol** — line-delimited JSON (hand-rolled, [`crate::json`]); one
//!   request object per line, one response object per line. Ops: `ping`,
//!   `stats`, `status`, `sweep`, `shutdown`. A request line that does not
//!   end in a newline (a client died mid-frame) is rejected with a wire
//!   `error`, never silently accepted.
//! * **dedup** — a cell is simulated at most once for the server's
//!   lifetime: requests check the result memo, the in-flight set, and the
//!   queue before enqueueing, so duplicate-heavy concurrent clients share
//!   work instead of repeating it. Dedup also makes every request
//!   idempotent, which is what lets clients retry blindly.
//! * **scheduling** — a worker takes a *group*: the queued cells of one
//!   program (equal kernel and implementation, any knob values), of all
//!   programs the one with the highest summed predicted host cost — the same
//!   long-pole-first policy the in-process [`Sweeper`](crate::Sweeper) uses,
//!   bounding grid makespan — and simulates it in one functional pass.
//!   Dedup, the cache, `simulated` and failures all stay per cell.
//! * **streaming** — sweep results are written back in completion order as
//!   they land — the cells of a group land together — followed by a `done`
//!   summary line. A result line is rendered once, by the worker that
//!   publishes the cell; a request for a finished cell is answered by copying
//!   those bytes to the socket.
//! * **honesty** — a sweep request carries the client's workload name,
//!   workload content fingerprint, and canonical config text; the server
//!   verifies all three (and the one backend token) against its own and rejects
//!   mismatches outright. A `sweepd` answer is either bit-identical to a
//!   local simulation or an explicit error — never a silently-wrong number.
//!
//! # Resilience
//!
//! The service is built to survive its own failure modes, not just its
//! clients':
//!
//! * **supervision** — cells already run inside `catch_unwind`
//!   ([`run_group_cached`]); on top of that, the accept loop watches every
//!   worker thread and respawns any that dies (a panic that escapes the
//!   boundary, or injected chaos), requeueing the cells it held. Per-worker
//!   health, the cells a worker holds included, is visible through the
//!   `status` op.
//! * **backpressure** — the job queue is bounded
//!   ([`ServerConfig::max_queue`]); a sweep that would overflow it is
//!   rejected with a classed `overloaded` wire error instead of being
//!   accepted unboundedly. Clients treat it as transient and back off.
//! * **deadlines** — per-connection socket read/write timeouts
//!   ([`ServerConfig::io_timeout`]) reap stalled clients so a dead peer can
//!   never wedge a handler thread, and an optional per-cell wall deadline
//!   ([`ServerConfig::cell_wall`]; a group is allowed the sum over its cells)
//!   converts runaway cells into structured [`SimError::DeadlineExceeded`]
//!   failures.
//! * **graceful shutdown** — a `shutdown` op or an external
//!   [`ShutdownSignal`] (SIGTERM in the `sweepd` binary) starts a *drain*:
//!   new sweeps are rejected with a classed `draining` error, in-flight
//!   cells and sweeps complete, the cache is flushed, and [`serve`] returns
//!   `Ok`.
//! * **chaos** — a seeded [`ChaosPlan`](crate::ChaosPlan) injects service
//!   faults (dropped connection, delayed response, killed worker, corrupted
//!   cache entry) at deterministic points. Tests arm it through
//!   [`ServerConfig::chaos`]; the seeded soak in `tests/hardening.rs` proves
//!   sweeps under chaos stay bit-identical to a fault-free run.
//!
//! Every cell outcome is also backed by the persistent
//! [`ResultCache`](crate::ResultCache) when one is attached, so results
//! survive server restarts.

use crate::cache::{ResultCache, BACKEND_TOKEN};
use crate::chaos::{ChaosPlan, ServerChaos, DELAY_RESPONSE};
use crate::harness::{
    predicted_cost, run_group_cached, unique_cells, CacheContext, Cell, CellOutcome, ImplKind,
    KernelKind, RunResult, Workloads, GROUP_MAX,
};
use crate::json::{Json, Parser};
use sdv_core::SdvMachine;
use sdv_engine::{Rng, SimError, Stats};
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Default listen address: loopback only — `sweepd` trusts its clients.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7745";

/// Default bound on the job queue (unique cells awaiting a worker). Far
/// above any figure grid, low enough that a runaway client hits
/// `overloaded` long before the server hits the allocator.
pub const DEFAULT_MAX_QUEUE: usize = 4096;

/// Default per-connection socket read/write timeout.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest the accept loop waits for a connection before it supervises
/// workers, checks the external shutdown signal, and tests drain completion.
/// A connection itself wakes the loop at once.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A cloneable external shutdown request — how the `sweepd` binary's signal
/// handler (SIGTERM/SIGINT) asks a running [`serve`] loop to drain. Also
/// usable in-process by tests.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSignal(Arc<AtomicBool>);

impl ShutdownSignal {
    /// A fresh, un-requested signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a graceful drain. Async-signal-safe (a single atomic store).
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Everything a server instance is configured with.
pub struct ServerConfig {
    /// Which standard workload the server holds (`"small"` or `"paper"`).
    pub workload: String,
    /// Timing configuration every cell runs under.
    pub cfg: TimingConfig,
    /// Worker threads (pooled machines).
    pub threads: usize,
    /// Optional persistent cache behind the in-memory memo.
    pub cache: Option<ResultCache>,
    /// Bound on queued cells; a sweep that would exceed it is rejected with
    /// a classed `overloaded` error.
    pub max_queue: usize,
    /// Per-connection socket read/write timeout; `None` disables reaping
    /// (tests only — production servers should always carry one).
    pub io_timeout: Option<Duration>,
    /// Optional wall-clock deadline per cell. Host-speed dependent, so it is
    /// deliberately *not* part of [`TimingConfig`] — it must never reach a
    /// cache key or the client/server identity check.
    pub cell_wall: Option<Duration>,
    /// Seeded service-fault injection (inert by default).
    pub chaos: ChaosPlan,
    /// External graceful-shutdown request (signal handlers, tests).
    pub signal: ShutdownSignal,
}

impl ServerConfig {
    /// A production-default configuration: bounded queue, 30 s socket
    /// timeouts, no wall deadline, no chaos. The ignored `Backend` parameter
    /// is frozen-API residue: `benchmark/` passes `Backend::default()` here
    /// and may not be edited alongside other code (ROADMAP 1(a)).
    pub fn new(workload: &str, cfg: TimingConfig, _: Backend, threads: usize) -> Self {
        Self {
            workload: workload.to_string(),
            cfg,
            threads,
            cache: None,
            max_queue: DEFAULT_MAX_QUEUE,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            cell_wall: None,
            chaos: ChaosPlan::none(),
            signal: ShutdownSignal::new(),
        }
    }
}

struct Shared {
    w: Workloads,
    workload: String,
    input_fp: String,
    cfg: TimingConfig,
    cfg_text: String,
    cache: Option<ResultCache>,
    max_queue: usize,
    cell_wall: Option<Duration>,
    chaos: ServerChaos,
    state: Mutex<State>,
    /// Workers sleep here waiting for queued cells.
    work: Condvar,
    /// Request handlers sleep here waiting for completed cells.
    done: Condvar,
}

/// Per-worker health, reported by the `status` op.
#[derive(Default, Clone)]
struct WorkerHealth {
    alive: bool,
    simulated: u64,
    cache_hits: u64,
    failed: u64,
    restarts: u64,
    /// The cells this worker currently holds (one group) — what the
    /// supervisor requeues if the worker dies holding them.
    current: Vec<Cell>,
}

/// Unique cells awaiting a worker. The set answers "is it queued?" in
/// constant time — admission asks that once per requested cell while holding
/// the state lock — and both live behind `push`/`pop_costliest_group` so
/// they cannot drift apart.
#[derive(Default)]
struct JobQueue {
    cells: Vec<Cell>,
    members: HashSet<Cell>,
}

impl JobQueue {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn contains(&self, c: &Cell) -> bool {
        self.members.contains(c)
    }

    /// Enqueue `c` unless it is queued already.
    fn push(&mut self, c: Cell) {
        if self.members.insert(c) {
            self.cells.push(c);
        }
    }

    /// Take one group: of the queued programs the one whose cells have the
    /// highest summed predicted host cost, and its first [`GROUP_MAX`] cells
    /// in queue order. Empty only if the queue is.
    fn pop_costliest_group(&mut self) -> Vec<Cell> {
        let mut cost: HashMap<(KernelKind, ImplKind), u64> = HashMap::new();
        for c in &self.cells {
            *cost.entry((c.kernel, c.imp)).or_default() += predicted_cost(c);
        }
        let Some(program) = self.cells.iter().map(|c| (c.kernel, c.imp)).max_by_key(|p| cost[p])
        else {
            return Vec::new();
        };
        let mut group = Vec::new();
        self.cells.retain(|c| {
            let take = (c.kernel, c.imp) == program && group.len() < GROUP_MAX;
            if take {
                group.push(*c);
            }
            !take
        });
        for c in &group {
            self.members.remove(c);
        }
        group
    }
}

#[derive(Default)]
struct State {
    queue: JobQueue,
    inflight: HashSet<Cell>,
    /// Every finished cell as the response line it is answered with,
    /// rendered once by the worker that published it: a memoized answer
    /// costs each later client a reference count and a copy to its socket.
    results: HashMap<Cell, Arc<str>>,
    workers: Vec<WorkerHealth>,
    /// Cells this server actually simulated (the exactly-once counter).
    simulated: u64,
    /// Cells answered from the persistent cache.
    cache_hits: u64,
    /// Result lines streamed to clients (counts duplicates).
    served: u64,
    /// Sweep requests currently streaming results; drain waits for them.
    active_sweeps: usize,
    /// New sweeps are rejected; in-flight work completes.
    draining: bool,
    /// Workers exit; set only once the drain has fully quiesced.
    shutdown: bool,
}

/// Lock the shared state, recovering from poisoning: a panicking handler
/// thread must degrade to one lost connection, never to a dead server.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_on<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Decrements `active_sweeps` when a sweep handler exits by *any* path —
/// including a write error to a reaped client — so a drain can never wait
/// on a sweep that is no longer running.
struct SweepGuard<'a>(&'a Shared);

impl Drop for SweepGuard<'_> {
    fn drop(&mut self) {
        lock_state(self.0).active_sweeps -= 1;
    }
}

/// Run the server until a `shutdown` request (wire op or external
/// [`ShutdownSignal`]) arrives, then drain gracefully: finish in-flight
/// cells and sweeps, flush the cache, join the workers, return `Ok`.
/// Blocks the calling thread. The listener is taken pre-bound so callers
/// (and tests) can bind port 0 and read the real address first.
pub fn serve(listener: TcpListener, sc: ServerConfig) -> std::io::Result<()> {
    let w = match sc.workload.as_str() {
        "small" => Workloads::small(),
        "paper" => Workloads::paper(),
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload '{other}' (expected 'small' or 'paper')"),
            ));
        }
    };
    let threads = sc.threads.max(1);
    let io_timeout = sc.io_timeout;
    let signal = sc.signal.clone();
    let shared = Arc::new(Shared {
        input_fp: w.fingerprint(),
        w,
        workload: sc.workload,
        cfg_text: sc.cfg.canonical(),
        cfg: sc.cfg,
        cache: sc.cache,
        max_queue: sc.max_queue,
        cell_wall: sc.cell_wall,
        chaos: sc.chaos.arm(),
        state: Mutex::new(State {
            workers: vec![WorkerHealth { alive: true, ..Default::default() }; threads],
            ..Default::default()
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    });
    let spawn_worker = |id: usize| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || worker(&shared, id))
    };
    let mut workers: Vec<_> = (0..threads).map(spawn_worker).collect();
    // Accepts block in a thread of their own and arrive here over a channel,
    // so a connection is picked up the moment it lands while the loop still
    // ticks every ACCEPT_POLL to supervise workers, watch the shutdown
    // signal, and complete drains.
    let wake_addr = listener.local_addr()?;
    let stop_accepting = Arc::new(AtomicBool::new(false));
    let (conn_tx, conns) = mpsc::channel();
    let acceptor = {
        let stop = Arc::clone(&stop_accepting);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break; // the wake-up connect (or a client that lost the race)
                }
                let failed = conn.is_err();
                if conn_tx.send(conn).is_err() {
                    break;
                }
                if failed {
                    // Out of descriptors, most likely: accept would fail
                    // again at once, so let handlers finish first.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            // The listener drops here, so the port is free once this thread
            // has been joined.
        })
    };
    loop {
        if signal.requested() {
            let mut st = lock_state(&shared);
            if !st.draining {
                st.draining = true;
                eprintln!("sweepd: shutdown signal received; draining");
            }
        }
        match conns.recv_timeout(ACCEPT_POLL) {
            Ok(Ok(stream)) => {
                if ServerChaos::hit(&shared.chaos.drop_connection) {
                    // Chaos: the client sees a closed connection and must
                    // retry (the request, being idempotent, is safe to).
                    drop(stream);
                } else {
                    let _ = stream.set_read_timeout(io_timeout);
                    let _ = stream.set_write_timeout(io_timeout);
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        if let Err(e) = handle_connection(&shared, stream) {
                            // Client went away or stalled past the timeout:
                            // reaped, their problem, not ours.
                            eprintln!("sweepd: connection reaped: {e}");
                        }
                    });
                }
            }
            Ok(Err(e)) => eprintln!("sweepd: accept failed: {e}"),
            Err(RecvTimeoutError::Timeout) => {}
            // No acceptor, no wake-ups: keep the tick by hand.
            Err(RecvTimeoutError::Disconnected) => std::thread::sleep(ACCEPT_POLL),
        }
        supervise(&shared, &mut workers, &spawn_worker);
        let mut st = lock_state(&shared);
        if st.draining && st.queue.is_empty() && st.inflight.is_empty() && st.active_sweeps == 0 {
            st.shutdown = true;
            drop(st);
            shared.work.notify_all();
            shared.done.notify_all();
            break;
        }
    }
    stop_accepting.store(true, Ordering::SeqCst);
    if wake_acceptor(wake_addr, &acceptor) {
        let _ = acceptor.join();
    } else {
        eprintln!("sweepd: could not wake the acceptor; the port stays bound until exit");
    }
    for h in workers {
        let _ = h.join();
    }
    if let Some(cache) = &shared.cache {
        cache.flush();
    }
    Ok(())
}

/// Unblock the acceptor thread, which sits in `accept` and has just been
/// told to stop: connect to the listener ourselves. If a real client's
/// connection woke it first, the listener is gone and the connect is refused;
/// either way the thread ends, so try until it has (or a second has passed).
/// Returns whether it ended.
fn wake_acceptor(mut addr: SocketAddr, acceptor: &std::thread::JoinHandle<()>) -> bool {
    if addr.ip().is_unspecified() {
        // Bound to every interface: loopback is one of them.
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    for _ in 0..1000 {
        if acceptor.is_finished() {
            return true;
        }
        let _ = TcpStream::connect_timeout(&addr, ACCEPT_POLL);
        std::thread::sleep(Duration::from_millis(1));
    }
    acceptor.is_finished()
}

/// Respawn any worker thread that died (escaped panic or injected chaos),
/// requeueing the cells it held so no sweep waits forever on a dead worker.
fn supervise(
    shared: &Shared,
    workers: &mut [std::thread::JoinHandle<()>],
    spawn_worker: &impl Fn(usize) -> std::thread::JoinHandle<()>,
) {
    if lock_state(shared).shutdown {
        return; // workers are exiting on purpose
    }
    for (id, handle) in workers.iter_mut().enumerate() {
        if !handle.is_finished() {
            continue;
        }
        // Reclaim the dead worker's cells BEFORE spawning its replacement:
        // both share the health slot, and a replacement that starts first
        // could grab a fresh group into `current` — a late take() would then
        // requeue those live cells and leave the dead worker's stranded in
        // `inflight`, hanging their sweep forever.
        {
            let mut st = lock_state(shared);
            let health = &mut st.workers[id];
            health.restarts += 1;
            health.alive = true;
            for cell in std::mem::take(&mut health.current) {
                st.inflight.remove(&cell);
                if !st.results.contains_key(&cell) {
                    st.queue.push(cell);
                }
            }
        }
        shared.work.notify_all();
        let dead = std::mem::replace(handle, spawn_worker(id));
        let _ = dead.join();
        eprintln!("sweepd: worker {id} died; respawned");
    }
}

/// One worker: owns one pooled machine, drains the queue a group at a time,
/// long-pole-first.
fn worker(shared: &Shared, id: usize) {
    let mut slot: Option<SdvMachine> = None;
    let cache = shared.cache.as_ref().map(|cache| CacheContext {
        cache,
        input_fp: &shared.input_fp,
        cfg_text: &shared.cfg_text,
    });
    loop {
        let group = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                let group = st.queue.pop_costliest_group();
                if !group.is_empty() {
                    st.inflight.extend(&group);
                    st.workers[id].current.clone_from(&group);
                    break group;
                }
                st = wait_on(&shared.work, st);
            }
        };
        if ServerChaos::hit(&shared.chaos.kill_worker) {
            // Chaos: die holding a group. The supervisor requeues its cells
            // and respawns this slot; no cleanup here, exactly like a crash.
            lock_state(shared).workers[id].alive = false;
            return;
        }
        let outs = run_group_cached(
            cache.as_ref(),
            &mut slot,
            &shared.w,
            &group,
            shared.cfg,
            shared.cell_wall,
            |cache, key| {
                if ServerChaos::hit(&shared.chaos.corrupt_cache_entry) {
                    // Chaos: change the cycle count of the entry just
                    // published. This run's in-memory result is unaffected;
                    // the next process to load it must quarantine and
                    // re-simulate.
                    corrupt_file(&cache.entry_file(key));
                }
            },
        );
        // Rendered once, here, outside the lock; every client that asks for
        // one of these cells from now on is sent these bytes. Nothing reads
        // the outcomes again, so they are freed here too rather than under
        // the lock.
        let published: Vec<(Cell, Arc<str>, bool, bool)> = outs
            .into_iter()
            .map(|(out, from_cache)| {
                let line = outcome_to_json(&out).to_line().into();
                (out.cell(), line, from_cache, !out.is_done())
            })
            .collect();
        // One critical section for the group: its results arrive together.
        let mut st = lock_state(shared);
        st.workers[id].current.clear();
        for (cell, line, from_cache, failed) in published {
            st.inflight.remove(&cell);
            if from_cache {
                st.cache_hits += 1;
                st.workers[id].cache_hits += 1;
            } else {
                st.simulated += 1;
                st.workers[id].simulated += 1;
            }
            if failed {
                st.workers[id].failed += 1;
            }
            st.results.insert(cell, line);
        }
        drop(st);
        shared.done.notify_all();
    }
}

/// Flip the low bit of the last digit on the `cycles` line of the entry at
/// `path` (chaos: corrupt-cache-entry). A digit XOR 1 is still a digit, so
/// the entry parses and holds a wrong count: only its checksum can catch it.
fn corrupt_file(path: &std::path::Path) {
    const CYCLES: &[u8] = b"\ncycles ";
    let Ok(mut bytes) = std::fs::read(path) else { return };
    let Some(at) = bytes.windows(CYCLES.len()).position(|w| w == CYCLES) else { return };
    let digits = at + CYCLES.len();
    let end = digits + bytes[digits..].iter().take_while(|b| b.is_ascii_digit()).count();
    if end > digits {
        bytes[end - 1] ^= 0x01;
        let _ = std::fs::write(path, &bytes);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        if reader.read_until(b'\n', &mut frame)? == 0 {
            return Ok(()); // client closed cleanly
        }
        if !frame.ends_with(b"\n") {
            // Partial frame at EOF: the client died mid-request. Never
            // treat it as a complete request — reject and close.
            respond(
                shared,
                &mut writer,
                &error_line("truncated request: connection closed mid-frame"),
            )?;
            return Ok(());
        }
        // A frame that is not UTF-8 is one bad request, like any other
        // frame that does not parse, not a reason to drop the connection.
        let text = std::str::from_utf8(&frame).map_err(|_| "frame is not UTF-8".to_string());
        let req = match text.and_then(|t| Json::parse(t.trim_end())) {
            Ok(v) => v,
            Err(e) => {
                respond(shared, &mut writer, &error_line(&format!("bad request: {e}")))?;
                continue;
            }
        };
        match req.get("op").and_then(Json::as_str) {
            Some("ping") => respond(
                shared,
                &mut writer,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("build", Json::str(sdv_engine::build_info())),
                    ("workload", Json::str(shared.workload.as_str())),
                    ("workload_fp", Json::str(shared.input_fp.as_str())),
                    ("backend", Json::str(BACKEND_TOKEN)),
                ]),
            )?,
            Some("stats") => {
                let st = lock_state(shared);
                let msg = Json::obj([
                    ("ok", Json::Bool(true)),
                    ("simulated", Json::num(st.simulated)),
                    ("cache_hits", Json::num(st.cache_hits)),
                    ("served", Json::num(st.served)),
                    ("memoized", Json::num(st.results.len() as u64)),
                    ("inflight", Json::num(st.inflight.len() as u64)),
                    ("queued", Json::num(st.queue.len() as u64)),
                ]);
                drop(st);
                respond(shared, &mut writer, &msg)?;
            }
            Some("status") => {
                let msg = status_json(shared);
                respond(shared, &mut writer, &msg)?;
            }
            Some("shutdown") => {
                respond(
                    shared,
                    &mut writer,
                    &Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
                )?;
                let mut st = lock_state(shared);
                st.draining = true;
                drop(st);
                shared.work.notify_all();
                shared.done.notify_all();
                return Ok(());
            }
            Some("sweep") => handle_sweep(shared, &req, &mut writer)?,
            other => respond(
                shared,
                &mut writer,
                &error_line(&format!("unknown op {:?}", other.unwrap_or("<missing>"))),
            )?,
        }
    }
}

/// The `status` response: service health plus one entry per worker slot.
fn status_json(shared: &Shared) -> Json {
    let st = lock_state(shared);
    let workers: Vec<Json> = st
        .workers
        .iter()
        .enumerate()
        .map(|(id, h)| {
            Json::obj([
                ("id", Json::num(id as u64)),
                ("alive", Json::Bool(h.alive)),
                ("simulated", Json::num(h.simulated)),
                ("cache_hits", Json::num(h.cache_hits)),
                ("failed", Json::num(h.failed)),
                ("restarts", Json::num(h.restarts)),
                ("current", Json::Arr(h.current.iter().map(|&c| cell_to_json(c)).collect())),
            ])
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("draining", Json::Bool(st.draining)),
        ("queued", Json::num(st.queue.len() as u64)),
        ("max_queue", Json::num(shared.max_queue as u64)),
        ("inflight", Json::num(st.inflight.len() as u64)),
        ("active_sweeps", Json::num(st.active_sweeps as u64)),
        ("memoized", Json::num(st.results.len() as u64)),
        ("served", Json::num(st.served)),
        ("workers", Json::Arr(workers)),
    ])
}

fn handle_sweep(
    shared: &Shared,
    req: &Json,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    // Identity checks: refuse to serve anything we cannot serve *exactly*.
    let checks = [
        ("workload", shared.workload.as_str()),
        ("workload_fp", shared.input_fp.as_str()),
        ("cfg", shared.cfg_text.as_str()),
        ("backend", BACKEND_TOKEN),
    ];
    for (field, want) in checks {
        let got = req.get(field).and_then(Json::as_str).unwrap_or("<missing>");
        if got != want {
            return respond(
                shared,
                writer,
                &error_line(&format!("{field} mismatch: server has '{want}', request has '{got}'")),
            );
        }
    }
    let Some(cell_values) = req.get("cells").and_then(Json::as_arr) else {
        return respond(shared, writer, &error_line("sweep request needs a 'cells' array"));
    };
    let pending = match cell_values.iter().map(cell_from_json).collect::<Result<Vec<Cell>, _>>() {
        Ok(cells) => unique_cells(cells),
        Err(e) => return respond(shared, writer, &error_line(&format!("bad cell: {e}"))),
    };
    let total = pending.len();
    // Admission control and the drain gate share one critical section with
    // the enqueue: a sweep either is fully admitted (and holds the drain
    // open via `active_sweeps`) or was never admitted at all.
    {
        let mut st = lock_state(shared);
        if st.draining {
            return respond(
                shared,
                writer,
                &classed_error("server is draining for shutdown; retry elsewhere", "draining"),
            );
        }
        let fresh: Vec<Cell> = pending
            .iter()
            .copied()
            .filter(|c| {
                !st.results.contains_key(c) && !st.inflight.contains(c) && !st.queue.contains(c)
            })
            .collect();
        if st.queue.len() + fresh.len() > shared.max_queue {
            let msg = format!(
                "job queue full: {} queued + {} new would exceed the {}-cell bound",
                st.queue.len(),
                fresh.len(),
                shared.max_queue
            );
            return respond(shared, writer, &classed_error(&msg, "overloaded"));
        }
        for c in fresh {
            st.queue.push(c);
        }
        st.active_sweeps += 1;
        drop(st);
        shared.work.notify_all();
    }
    let _guard = SweepGuard(shared);
    // Stream results in completion order.
    let mut pending: HashSet<Cell> = pending.into_iter().collect();
    while !pending.is_empty() {
        let ready: Vec<(Cell, Arc<str>)> = {
            let mut st = lock_state(shared);
            loop {
                let ready: Vec<(Cell, Arc<str>)> = pending
                    .iter()
                    .filter_map(|c| Some((*c, Arc::clone(st.results.get(c)?))))
                    .collect();
                if !ready.is_empty() {
                    st.served += ready.len() as u64;
                    break ready;
                }
                if st.shutdown {
                    // Unreachable by design (drain waits for active sweeps),
                    // but never hang a client if the invariant breaks.
                    drop(st);
                    return respond(
                        shared,
                        writer,
                        &classed_error("server shut down mid-sweep", "draining"),
                    );
                }
                st = wait_on(&shared.done, st);
            }
        };
        // One flush per batch: a cold sweep still sees each cell the moment
        // it completes (batches of one), a warm one is not a syscall a line.
        for (cell, line) in ready {
            pending.remove(&cell);
            write_line(shared, writer, &line)?;
        }
        writer.flush()?;
    }
    let (simulated, cache_hits) = {
        let st = lock_state(shared);
        (st.simulated, st.cache_hits)
    };
    respond(
        shared,
        writer,
        &Json::obj([
            ("done", Json::Bool(true)),
            ("cells", Json::num(total as u64)),
            ("simulated", Json::num(simulated)),
            ("cache_hits", Json::num(cache_hits)),
        ]),
    )
}

/// Write and flush one response line.
fn respond(shared: &Shared, writer: &mut BufWriter<TcpStream>, msg: &Json) -> std::io::Result<()> {
    write_line(shared, writer, &msg.to_line())?;
    writer.flush()
}

/// Buffer one already-rendered response line (with the chaos delay-response
/// hook, which fires once per line whoever rendered it).
fn write_line(
    shared: &Shared,
    writer: &mut BufWriter<TcpStream>,
    line: &str,
) -> std::io::Result<()> {
    if ServerChaos::hit(&shared.chaos.delay_response) {
        std::thread::sleep(DELAY_RESPONSE);
    }
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

fn error_line(msg: &str) -> Json {
    Json::obj([("error", Json::str(msg))])
}

/// An error response carrying a machine-readable class (`overloaded`,
/// `draining`) so clients can distinguish transient rejections (retry with
/// backoff) from permanent ones.
fn classed_error(msg: &str, class: &'static str) -> Json {
    Json::obj([("error", Json::str(msg)), ("class", Json::str(class))])
}

/// The wire spelling of a cell: `{"kernel","imp","lat","bw"}`.
fn cell_to_json(c: Cell) -> Json {
    Json::obj([
        ("kernel", Json::str(c.kernel.name())),
        ("imp", Json::str(c.imp.to_string())),
        ("lat", Json::num(c.extra_latency)),
        ("bw", Json::num(c.bandwidth)),
    ])
}

fn cell_from_json(v: &Json) -> Result<Cell, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
    let cell = Cell {
        kernel: field("kernel")?.as_str().ok_or("kernel must be a string")?.parse()?,
        imp: field("imp")?.as_str().ok_or("imp must be a string")?.parse()?,
        extra_latency: field("lat")?.as_u64().ok_or("lat must be a u64")?,
        bandwidth: field("bw")?.as_u64().ok_or("bw must be a u64")?,
    };
    cell.check_knobs(&TimingConfig::default())?;
    Ok(cell)
}

fn outcome_to_json(out: &CellOutcome) -> Json {
    let mut fields = match cell_to_json(out.cell()) {
        Json::Obj(f) => f,
        _ => unreachable!("cell_to_json returns an object"),
    };
    match out {
        CellOutcome::Done(r) => {
            fields.push(("cycles".to_string(), Json::num(r.cycles)));
            let stats: Vec<(String, Json)> =
                r.stats.iter().map(|(k, v)| (k.to_string(), Json::num(v))).collect();
            fields.push(("stats".to_string(), Json::Obj(stats)));
        }
        CellOutcome::Failed { error, .. } => {
            fields.push(("error".to_string(), Json::str(error.to_string())));
        }
    }
    Json::Obj(fields)
}

/// What one line of a sweep response says.
#[derive(Debug)]
enum SweepReply {
    /// One cell's result.
    Outcome(CellOutcome),
    /// The closing summary: every requested cell has been streamed.
    Done(SweepSummary),
    /// The server turned the whole request away.
    Rejected(SimError),
}

/// Decode one sweep response line. A result line is a handful of scalar
/// fields plus a `stats` object of some hundred counters, so the counters go
/// straight into a [`Stats`] registry and only the scalars become a tree.
fn decode_reply(line: &str) -> Result<SweepReply, String> {
    let mut fields = Vec::new();
    let mut stats = Stats::new();
    let mut p = Parser::new(line);
    p.object_with(|p, key| {
        if key == "stats" {
            p.object_with(|p, stat| {
                let v = p.u64().map_err(|e| format!("stat '{stat}': {e}"))?;
                stats.set(&stat, v);
                Ok(())
            })
        } else {
            fields.push((key.into_owned(), p.value()?));
            Ok(())
        }
    })?;
    p.end()?;
    let v = Json::Obj(fields);
    let error = v.get("error").and_then(Json::as_str);
    if v.get("kernel").is_none() {
        // No cell fields: a rejection of the request, or the summary.
        if let Some(msg) = error {
            return Ok(SweepReply::Rejected(rejection_error(&v, "sweep", msg)));
        }
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            let count = |k| v.get(k).and_then(Json::as_u64).unwrap_or(0);
            return Ok(SweepReply::Done(SweepSummary {
                cells: count("cells"),
                simulated: count("simulated"),
                cache_hits: count("cache_hits"),
            }));
        }
    }
    let cell = cell_from_json(&v)?;
    Ok(SweepReply::Outcome(match error {
        // The server's structured error crossed the wire as text; it comes
        // back as a Remote failure so exit codes still classify correctly.
        Some(err) => CellOutcome::Failed { cell, error: remote_err(err) },
        None => {
            let cycles =
                v.get("cycles").and_then(Json::as_u64).ok_or("result needs cycles or error")?;
            CellOutcome::Done(RunResult { cell, cycles, stats })
        }
    }))
}

fn remote_err(what: impl std::fmt::Display) -> SimError {
    SimError::Remote { what: what.to_string() }
}

/// A transport-layer failure: connect refused, timeout, stream closed.
/// Transient — the request is idempotent, so callers retry.
fn unavailable(what: impl std::fmt::Display) -> SimError {
    SimError::Unavailable { what: what.to_string() }
}

/// Map a server rejection line to the matching structured error: classed
/// rejections (`overloaded`, `draining`) are transient; everything else is
/// a permanent [`SimError::Remote`].
fn rejection_error(v: &Json, context: &str, msg: &str) -> SimError {
    match v.get("class").and_then(Json::as_str) {
        Some("overloaded") => SimError::Overloaded { what: msg.to_string() },
        Some("draining") => SimError::Draining { what: msg.to_string() },
        _ => remote_err(format!("server rejected {context}: {msg}")),
    }
}

/// Client-side retry policy for transient failures (connect refused,
/// dropped connection, `overloaded`, `draining`): exponential backoff with
/// seeded-deterministic jitter, so two runs of the same binary retry on the
/// same schedule — reproducibility extends to failure handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Backoff before retry k (0-based) is `base_ms << k`, capped…
    pub base_ms: u64,
    /// …at `max_ms`, plus deterministic jitter in `[0, backoff/2]`.
    pub max_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: the first failure is final. What library callers get
    /// unless they opt in (`--retries` on the CLI).
    pub fn none() -> Self {
        Self { attempts: 1, base_ms: 0, max_ms: 0, seed: 0 }
    }

    /// `attempts` total tries with 25 ms base backoff capped at 1.6 s.
    pub fn retries(attempts: u32, seed: u64) -> Self {
        Self { attempts: attempts.max(1), base_ms: 25, max_ms: 1600, seed }
    }

    /// The delay before retry number `failed` (0-based count of failures so
    /// far). Pure: same policy, same answer.
    pub fn backoff(&self, failed: u32) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << failed.min(16)).min(self.max_ms.max(1));
        let mut rng = Rng::new(self.seed ^ ((u64::from(failed) + 1) << 32));
        Duration::from_millis(exp + rng.below(exp / 2 + 1))
    }
}

/// Summary line of a completed remote sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSummary {
    /// Unique cells this request covered.
    pub cells: u64,
    /// Server-lifetime fresh simulations (exactly-once counter).
    pub simulated: u64,
    /// Server-lifetime persistent-cache hits.
    pub cache_hits: u64,
}

/// Submit a sweep grid and stream outcomes through `on_result` as the
/// server completes them. Transient failures (connect refused, dropped
/// connection, `overloaded`, `draining`) are retried per `policy` with
/// exponential backoff; each retry re-requests only the cells not yet
/// received — the server's exactly-once dedup makes re-submission free.
/// Non-transient failures surface as [`SimError::Remote`]; transport
/// failures that outlive the retry budget as [`SimError::Unavailable`].
pub fn client_sweep(
    addr: &str,
    workload: &str,
    input_fp: &str,
    cfg_text: &str,
    cells: &[Cell],
    policy: &RetryPolicy,
    mut on_result: impl FnMut(CellOutcome),
) -> Result<SweepSummary, SimError> {
    // Unique cells, first-seen order (matches the server's own dedup).
    let want = unique_cells(cells.iter().copied());
    let mut got: HashSet<Cell> = HashSet::new();
    let mut summary = SweepSummary::default();
    let mut failures = 0u32;
    loop {
        let missing: Vec<Cell> = want.iter().copied().filter(|c| !got.contains(c)).collect();
        if missing.is_empty() {
            break;
        }
        match sweep_attempt(addr, workload, input_fp, cfg_text, &missing, &mut |out| {
            if got.insert(out.cell()) {
                on_result(out);
            }
        }) {
            Ok(s) => {
                summary = s;
                if want.iter().any(|c| !got.contains(c)) {
                    // A done line means everything requested was served;
                    // anything still missing is a protocol violation, not
                    // something a retry can fix.
                    return Err(remote_err("server reported done without serving every cell"));
                }
            }
            Err(e) if e.transient() && failures + 1 < policy.attempts => {
                failures += 1;
                std::thread::sleep(policy.backoff(failures - 1));
            }
            Err(e) => return Err(e),
        }
    }
    summary.cells = want.len() as u64;
    Ok(summary)
}

/// One wire round of a sweep: submit `cells`, stream outcomes until `done`.
fn sweep_attempt(
    addr: &str,
    workload: &str,
    input_fp: &str,
    cfg_text: &str,
    cells: &[Cell],
    on_result: &mut impl FnMut(CellOutcome),
) -> Result<SweepSummary, SimError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| unavailable(format!("cannot connect to sweepd at {addr}: {e}")))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(unavailable)?);
    let req = Json::obj([
        ("op", Json::str("sweep")),
        ("workload", Json::str(workload)),
        ("workload_fp", Json::str(input_fp)),
        ("cfg", Json::str(cfg_text)),
        ("backend", Json::str(BACKEND_TOKEN)),
        ("cells", Json::Arr(cells.iter().map(|&c| cell_to_json(c)).collect())),
    ]);
    writeln!(writer, "{}", req.to_line()).map_err(unavailable)?;
    writer.flush().map_err(unavailable)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(unavailable)?;
        if !line.ends_with('\n') {
            // End of stream, or a server that died mid-line: transient
            // either way, and what did arrive whole has been delivered.
            return Err(unavailable("connection closed before the sweep finished"));
        }
        match decode_reply(&line).map_err(|e| remote_err(format!("bad response line: {e}")))? {
            SweepReply::Outcome(out) => on_result(out),
            SweepReply::Done(summary) => return Ok(summary),
            SweepReply::Rejected(e) => return Err(e),
        }
    }
}

/// Send one single-shot op (`ping`, `stats`, `status`, `shutdown`) and
/// return the response object, retrying transient failures per `policy`.
pub fn client_request(addr: &str, op: &str, policy: &RetryPolicy) -> Result<Json, SimError> {
    let mut failures = 0u32;
    loop {
        match request_attempt(addr, op) {
            Err(e) if e.transient() && failures + 1 < policy.attempts => {
                failures += 1;
                std::thread::sleep(policy.backoff(failures - 1));
            }
            other => return other,
        }
    }
}

fn request_attempt(addr: &str, op: &str) -> Result<Json, SimError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| unavailable(format!("cannot connect to sweepd at {addr}: {e}")))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(unavailable)?);
    writeln!(writer, "{}", Json::obj([("op", Json::str(op))]).to_line()).map_err(unavailable)?;
    writer.flush().map_err(unavailable)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(unavailable)?;
    if line.is_empty() {
        return Err(unavailable(format!("connection closed before a response to {op}")));
    }
    let v = Json::parse(line.trim_end()).map_err(|e| remote_err(format!("bad response: {e}")))?;
    if let Some(msg) = v.get("error").and_then(Json::as_str) {
        return Err(rejection_error(&v, op, msg));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_guarded;

    #[test]
    fn cell_wire_format_round_trips() {
        let c = Cell {
            kernel: KernelKind::Pr,
            imp: ImplKind::Vector { maxvl: 32 },
            extra_latency: 256,
            bandwidth: 8,
        };
        assert_eq!(cell_from_json(&cell_to_json(c)).unwrap(), c);
        assert!(cell_from_json(&Json::obj([("kernel", Json::str("SPMV"))])).is_err());
    }

    fn decode_outcome(line: &str) -> CellOutcome {
        match decode_reply(line) {
            Ok(SweepReply::Outcome(out)) => out,
            other => panic!("not a result line: {other:?}"),
        }
    }

    #[test]
    fn outcome_wire_format_round_trips() {
        let cell = Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Scalar,
            extra_latency: 0,
            bandwidth: 64,
        };
        let mut stats = Stats::new();
        stats.set("l2.miss", 7);
        let done = CellOutcome::Done(RunResult { cell, cycles: 12345, stats });
        let back = decode_outcome(&outcome_to_json(&done).to_line());
        assert_eq!(back.cycles(), Some(12345));
        match &back {
            CellOutcome::Done(r) => assert_eq!(r.stats.get("l2.miss"), 7),
            _ => panic!("expected Done"),
        }
        let failed = CellOutcome::Failed {
            cell,
            error: SimError::Deadlock { cycle: 9, diagnostic: "queue full".into() },
        };
        let back = decode_outcome(&outcome_to_json(&failed).to_line());
        let err = back.error().expect("failure must survive the wire");
        assert!(matches!(err, SimError::Remote { .. }), "wire failures are Remote");
        assert!(err.to_string().contains("Deadlock"), "original class text survives: {err}");
    }

    /// A result line whose `stats` object is shuffled and repeats a key
    /// decodes to what the same `set` calls give: the last value wins.
    #[test]
    fn shuffled_and_repeated_stats_keys_decode_like_sets() {
        let pairs = [("tile2.x", 5), ("a", 1), ("tile10.x", 3), ("a", 9), ("tile1.x", 2)];
        let cell = Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Scalar,
            extra_latency: 0,
            bandwidth: 64,
        };
        let head = cell_to_json(cell).to_line();
        let stats: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        let line = format!(
            "{},\"cycles\":12345,\"stats\":{{{}}}}}",
            head.strip_suffix('}').unwrap(),
            stats.join(",")
        );
        let mut want = Stats::new();
        for (k, v) in pairs {
            want.set(k, v);
        }
        match decode_outcome(&line) {
            CellOutcome::Done(r) => {
                assert!(r.stats.iter().eq(want.iter()), "{:?} != {want:?}", r.stats);
                assert_eq!(r.stats.get("a"), 9);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_is_seeded_deterministic_and_capped() {
        let p = RetryPolicy::retries(6, 42);
        for failed in 0..6 {
            assert_eq!(p.backoff(failed), p.backoff(failed), "backoff must be pure");
        }
        // Exponential base: each step's floor doubles until the cap.
        assert!(p.backoff(0) >= Duration::from_millis(25));
        assert!(p.backoff(0) <= Duration::from_millis(25 + 13));
        assert!(p.backoff(5) <= Duration::from_millis(1600 + 800), "cap + max jitter");
        // Different seeds jitter differently somewhere in the schedule.
        let q = RetryPolicy::retries(6, 43);
        assert!((0..6).any(|f| p.backoff(f) != q.backoff(f)));
        // No-retry policy still has a well-defined (zero-ish) backoff.
        assert!(RetryPolicy::none().backoff(0) <= Duration::from_millis(2));
    }

    #[test]
    fn classed_rejections_map_to_transient_errors() {
        let over =
            Json::obj([("error", Json::str("queue full")), ("class", Json::str("overloaded"))]);
        let drain = Json::obj([("error", Json::str("bye")), ("class", Json::str("draining"))]);
        let plain = Json::obj([("error", Json::str("cfg mismatch"))]);
        assert!(matches!(
            rejection_error(&over, "sweep", "queue full"),
            SimError::Overloaded { .. }
        ));
        assert!(matches!(rejection_error(&drain, "sweep", "bye"), SimError::Draining { .. }));
        let e = rejection_error(&plain, "sweep", "cfg mismatch");
        assert!(matches!(e, SimError::Remote { .. }));
        assert!(!e.transient());
    }

    /// Spawn a 1-thread small-workload server on an ephemeral port with fast
    /// io timeouts; returns (addr, serve-thread handle).
    fn spawn_raw_server() -> (String, std::thread::JoinHandle<()>) {
        spawn_raw_server_with(TimingConfig::default())
    }

    fn spawn_raw_server_with(cfg: TimingConfig) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut sc = ServerConfig::new("small", cfg, Backend, 1);
        sc.io_timeout = Some(Duration::from_secs(5));
        let handle = std::thread::spawn(move || serve(listener, sc).unwrap());
        (addr, handle)
    }

    fn spmv256() -> Cell {
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        }
    }

    /// A one-cell `sweep` frame for the small workload, as a client sends it.
    fn sweep_frame(w: &Workloads, cfg: TimingConfig, cell: Cell) -> String {
        Json::obj([
            ("op", Json::str("sweep")),
            ("workload", Json::str("small")),
            ("workload_fp", Json::str(w.fingerprint())),
            ("cfg", Json::str(cfg.canonical())),
            ("backend", Json::str(BACKEND_TOKEN)),
            ("cells", Json::Arr(vec![cell_to_json(cell)])),
        ])
        .to_line()
    }

    /// The line a server under `cfg` answers a one-cell sweep with, read raw
    /// off the socket.
    fn served_line(addr: &str, w: &Workloads, cfg: TimingConfig, cell: Cell) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut wr = BufWriter::new(stream.try_clone().unwrap());
        writeln!(wr, "{}", sweep_frame(w, cfg, cell)).unwrap();
        wr.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "a whole line: {line:?}");
        line.pop();
        line
    }

    /// The server renders a result line once, when the cell is published;
    /// what it streams — first time and from the memo — must be what
    /// `outcome_to_json` says of the same outcome, for both kinds of outcome.
    #[test]
    fn memoized_line_is_outcome_to_json_of_the_outcome() {
        let w = Workloads::small();
        let mut tight = TimingConfig::default();
        tight.watchdog.cycle_budget = 500;
        for cfg in [TimingConfig::default(), tight] {
            let local = run_guarded(&mut None, &w, spmv256(), cfg, None);
            assert_eq!(local.is_done(), cfg.watchdog.cycle_budget == 0, "{local:?}");
            let want = outcome_to_json(&local).to_line();
            let (addr, handle) = spawn_raw_server_with(cfg);
            let first = served_line(&addr, &w, cfg, spmv256());
            let again = served_line(&addr, &w, cfg, spmv256());
            assert_eq!(first, want, "as published");
            assert_eq!(again, want, "from the memo");
            let stats = client_request(&addr, "stats", &RetryPolicy::none()).unwrap();
            assert_eq!(stats.get("simulated").and_then(Json::as_u64), Some(1));
            assert_eq!(stats.get("served").and_then(Json::as_u64), Some(2));
            client_request(&addr, "shutdown", &RetryPolicy::none()).unwrap();
            handle.join().unwrap();
        }
    }

    /// A connection wakes the accept loop; it does not wait out a poll
    /// interval. Median over fresh connections to an idle server, so one
    /// descheduled round trip cannot fail it.
    #[test]
    fn a_fresh_connection_is_answered_well_inside_the_poll_interval() {
        let (addr, handle) = spawn_raw_server();
        // Once a ping is answered the workload is built and the loop running.
        client_request(&addr, "ping", &RetryPolicy::none()).unwrap();
        let mut rtts: Vec<Duration> = (0..20)
            .map(|_| {
                let t = std::time::Instant::now();
                client_request(&addr, "status", &RetryPolicy::none()).unwrap();
                t.elapsed()
            })
            .collect();
        rtts.sort();
        assert!(rtts[10] < ACCEPT_POLL / 4, "median status round trip {:?}", rtts[10]);
        client_request(&addr, "shutdown", &RetryPolicy::none()).unwrap();
        handle.join().unwrap();
    }

    /// One to three seeded edits of `line`: a random byte, a JSON syntax byte
    /// written or inserted, a byte removed, or the tail cut off.
    fn mutate(rng: &mut Rng, line: &str) -> Vec<u8> {
        const SYNTAX: &[u8] = b"\"\\{}[]:,0-e.u";
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.index(bytes.len());
            match rng.below(5) {
                0 => bytes[at] = rng.below(256) as u8,
                1 => bytes[at] = SYNTAX[rng.index(SYNTAX.len())],
                2 => bytes.insert(at, SYNTAX[rng.index(SYNTAX.len())]),
                3 if bytes.len() > 1 => drop(bytes.remove(at)),
                _ => bytes.truncate(at.max(1)),
            }
        }
        bytes
    }

    /// Hostile bytes (ROADMAP 4(c)): seeded mutations of real response lines
    /// must come back from both decoders as a value or an error — never a
    /// panic, never a hang.
    #[test]
    fn mutated_response_lines_never_panic_the_decoders() {
        let w = Workloads::small();
        let cfg = TimingConfig::default();
        let done = run_guarded(&mut None, &w, spmv256(), cfg, None);
        let failed = CellOutcome::Failed {
            cell: spmv256(),
            error: SimError::Deadlock { cycle: 9, diagnostic: "queue \"full\"\n\ttile0 é".into() },
        };
        let summary = Json::obj([("done", Json::Bool(true)), ("cells", Json::num(u64::MAX))]);
        let lines = [
            outcome_to_json(&done).to_line(),
            outcome_to_json(&failed).to_line(),
            summary.to_line(),
        ];
        let mut rng = Rng::new(0x4d);
        let (mut decoded, mut refused) = (0u32, 0u32);
        for case in 0..6000 {
            let bytes = mutate(&mut rng, &lines[case % lines.len()]);
            // A line that is not UTF-8 never reaches a decoder: read_line
            // refuses it first.
            let Ok(text) = String::from_utf8(bytes) else { continue };
            let tree = Json::parse(&text);
            let reply = decode_reply(&text);
            assert!(tree.is_ok() || reply.is_err(), "one grammar: {text}");
            match reply {
                Ok(_) => decoded += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(decoded > 100 && refused > 1000, "{decoded} decoded, {refused} refused");
    }

    /// Hostile bytes on the request side (ROADMAP 4(c)): seeded mutations of
    /// a real `sweep` frame and a `ping` frame, newline included, sent to a
    /// live server. Every complete frame gets exactly one reply: an error
    /// line, a pong, or a result stream closed by the `done` summary. The
    /// connection then still answers a ping, unless the mutation cut the
    /// frame short: that gets the `truncated` error and the server closes.
    #[test]
    fn mutated_request_frames_each_get_one_reply() {
        let w = Workloads::small();
        let fft = Cell {
            kernel: KernelKind::Fft,
            imp: ImplKind::Scalar,
            extra_latency: 0,
            bandwidth: 64,
        };
        let frames = [
            sweep_frame(&w, TimingConfig::default(), fft) + "\n",
            Json::obj([("op", Json::str("ping"))]).to_line() + "\n",
        ];
        let (addr, handle) = spawn_raw_server();
        let connect = || {
            let stream = TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            stream.set_nodelay(true).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        };
        let reply = |r: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line.pop(), Some('\n'), "a whole reply line: {line:?}");
            line
        };
        let pong = |line: &str| {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            v.get("ok").and_then(Json::as_bool) == Some(true)
        };
        let mut rng = Rng::new(0x5eed);
        let (mut conn, mut reader) = connect();
        let (mut sweeps, mut errors, mut truncated) = (0u64, 0u64, 0u32);
        for case in 0..2000 {
            let bytes = mutate(&mut rng, &frames[case % frames.len()]);
            conn.write_all(&bytes).unwrap();
            let cut = !bytes.ends_with(b"\n");
            if cut {
                conn.shutdown(std::net::Shutdown::Write).unwrap();
            }
            for _ in bytes.split_inclusive(|&b| b == b'\n').filter(|f| f.ends_with(b"\n")) {
                let line = reply(&mut reader);
                match decode_reply(&line) {
                    Ok(SweepReply::Rejected(_)) => errors += 1,
                    Ok(SweepReply::Outcome(_)) => {
                        while let Ok(SweepReply::Outcome(_)) = decode_reply(&reply(&mut reader)) {}
                        sweeps += 1;
                    }
                    Ok(SweepReply::Done(_)) => sweeps += 1,
                    Err(_) => assert!(pong(&line), "case {case}: {line}"),
                }
            }
            if cut {
                let line = reply(&mut reader);
                assert!(line.contains("truncated"), "case {case}: {line}");
                assert_eq!(reader.read_line(&mut String::new()).unwrap(), 0, "closed after");
                truncated += 1;
                (conn, reader) = connect();
            } else {
                conn.write_all(frames[1].as_bytes()).unwrap();
                let line = reply(&mut reader);
                assert!(pong(&line), "case {case}: still usable, {line}");
            }
        }
        let stats = client_request(&addr, "stats", &RetryPolicy::none()).unwrap();
        let simulated = stats.get("simulated").and_then(Json::as_u64).unwrap();
        assert!((1..=sweeps).contains(&simulated), "{simulated} simulated, {sweeps} sweeps");
        assert!(errors > 1000 && truncated > 100, "{errors} errors, {truncated} truncated");
        client_request(&addr, "shutdown", &RetryPolicy::none()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_and_truncated_frames_get_wire_errors() {
        let (addr, handle) = spawn_raw_server();

        // Malformed JSON: the server answers an error line and keeps the
        // connection usable for the next request.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        writeln!(w, "this is not json").unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert!(v.get("error").and_then(Json::as_str).unwrap().contains("bad request"), "{line}");
        line.clear();
        writeln!(w, "{}", Json::obj([("op", Json::str("ping"))]).to_line()).unwrap();
        w.flush().unwrap();
        r.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "connection survived");

        // Truncated frame: a request with no trailing newline (client died
        // mid-write) must be rejected, not silently treated as complete.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        write!(w, "{}", Json::obj([("op", Json::str("ping"))]).to_line()).unwrap();
        w.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut r = BufReader::new(stream);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert!(v.get("error").and_then(Json::as_str).unwrap().contains("truncated"), "{line}");

        // Knobs outside the Bandwidth Limiter's range or past the watchdog
        // window: refused as a bad cell, never handed to a worker.
        let w = Workloads::small();
        let vl256 = spmv256().imp;
        for (imp, extra_latency, bandwidth) in
            [(ImplKind::Scalar, 0, 0), (ImplKind::Scalar, 0, 65), (vl256, u64::MAX, 64)]
        {
            let cell = Cell { imp, extra_latency, bandwidth, ..spmv256() };
            let line = served_line(&addr, &w, TimingConfig::default(), cell);
            let v = Json::parse(&line).unwrap();
            let error = v.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.starts_with("bad cell: "), "{line}");
        }
        let stats = client_request(&addr, "stats", &RetryPolicy::none()).unwrap();
        assert_eq!(stats.get("simulated").and_then(Json::as_u64), Some(0));

        client_request(&addr, "shutdown", &RetryPolicy::none()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn status_op_reports_worker_health() {
        let (addr, handle) = spawn_raw_server();
        let v = client_request(&addr, "status", &RetryPolicy::none()).unwrap();
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(false));
        let workers = v.get("workers").and_then(Json::as_arr).expect("workers array");
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("alive").and_then(Json::as_bool), Some(true));
        assert_eq!(workers[0].get("restarts").and_then(Json::as_u64), Some(0));
        client_request(&addr, "shutdown", &RetryPolicy::none()).unwrap();
        handle.join().unwrap();
    }
}
