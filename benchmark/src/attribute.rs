//! The traced run: the same cells driven through public calls under spans,
//! whole-cell replays that split `kernels.drive` three ways (execute only /
//! timing bypassed / timed), the single-layer probes, and the service,
//! cache and JSON layers. Per-layer metrics come only from here; end-to-end
//! metrics never do.

use crate::catalog::{FrontDoor, Spec};
use crate::drive::{self, Dev, RecordingVm, References};
use crate::estimate::{minimum, percentile, MinTimes};
use crate::layers;
use crate::measure::{
    self, disk_sweep, label, out_dir, store_results, wire_sweep, Ctx, PassClock, Report, Scratch,
    Seen, Server,
};
use crate::spans::{self_seconds_by_name, Recorder};
use sdv_bench::{
    client_request, try_run_with_config, Cell, CellOutcome, ImplKind, KernelKind, RetryPolicy,
    RunResult, Sweeper, Workloads,
};
use sdv_core::{SdvMachine, TiledMachine, Vm};
use sdv_engine::{SimError, StableHash, Stats};
use sdv_uarch::TimingConfig;
use std::time::Instant;

/// Share of `--seconds` the paired plain/traced passes may use; the replays
/// and probes need the rest.
const PASS_SHARE: f64 = 0.6;

/// Per-cell minima of the traced cells, by phase.
struct TracedTimes {
    cell: MinTimes,
    drive: MinTimes,
    finish: MinTimes,
}

/// What the paired passes collect.
struct Paired {
    /// Cells through `Sweeper::try_run_cell`.
    plain: MinTimes,
    /// The same cells driven directly under spans.
    traced: TracedTimes,
    /// Allocations and bytes requested by the first pass's traced cells.
    allocs: (u64, u64),
}

/// Drive one cell directly, under spans. `machine` is the pass's pooled
/// single-tile machine; tiled cells build a fresh `TiledMachine`, as the
/// harness does.
fn traced_cell(
    ctx: &Ctx,
    cfg: TimingConfig,
    cell: Cell,
    idx: usize,
    machine: &mut SdvMachine,
    rec: &mut Recorder,
    times: &mut TracedTimes,
) -> CellOutcome {
    let at = idx as i64;
    let root = rec.open("cell", at);
    let result: Result<(u64, Stats), SimError> = if cfg.mem.tiles > 1 {
        let (mut m, _) = rec.time("core.reset", at, || {
            let mut m = TiledMachine::with_config(ctx.w.heap, cfg);
            m.set_extra_latency(cell.extra_latency);
            m.set_bandwidth_limit(cell.bandwidth);
            if let ImplKind::Vector { maxvl } = cell.imp {
                m.set_maxvl_cap(maxvl);
            }
            m
        });
        let (dev, _) = rec.time("kernels.setup", at, || {
            drive::setup(&mut m.vm(0), &ctx.w, cell.kernel)
        });
        let (driven, drive_s) = rec.time("kernels.drive", at, || drive::run_tiled(&mut m, &dev));
        // On a tiled machine the replay through the event queue happens here.
        let (cycles, finish_s) = rec.time("uarch.finish", at, || m.try_finish());
        times.drive.record(idx, drive_s);
        times.finish.record(idx, finish_s);
        let (stats, _) = rec.time("engine.stats", at, || m.stats());
        driven.and(cycles).map(|cy| (cy, stats))
    } else {
        rec.time("core.reset", at, || {
            machine.reset_with_config(cfg);
            drive::set_knobs(machine, cell);
        });
        let (dev, _): (Dev, f64) = rec.time("kernels.setup", at, || {
            drive::setup(machine, &ctx.w, cell.kernel)
        });
        let (_, drive_s) = rec.time("kernels.drive", at, || drive::run(machine, &dev, cell.imp));
        let (cycles, finish_s) = rec.time("uarch.finish", at, || machine.try_finish());
        times.drive.record(idx, drive_s);
        times.finish.record(idx, finish_s);
        let (stats, _) = rec.time("engine.stats", at, || machine.stats());
        cycles.map(|cy| (cy, stats))
    };
    times.cell.record(idx, rec.close(root));
    match result {
        Ok((cycles, stats)) => CellOutcome::Done(RunResult {
            cell,
            cycles,
            stats,
        }),
        Err(error) => CellOutcome::Failed { cell, error },
    }
}

/// One pass in which every cell runs twice back to back: plainly through
/// `Sweeper::try_run_cell` and driven directly under spans, in alternating
/// order. This host's slow phases last seconds, so a pair falls inside the
/// same phase and the difference of the two sums is the cost of tracing
/// rather than the weather.
fn paired_pass(
    ctx: &Ctx,
    pass: usize,
    rec: &mut Recorder,
    times: &mut Paired,
    seen: &mut Seen,
    r: &mut Report,
) {
    let mut idx = 0;
    for g in &ctx.groups {
        let mut sw = Sweeper::with_config(g.cfg);
        let mut machine = SdvMachine::new(ctx.w.heap);
        for &cell in &g.cells {
            let plain_first = (idx + pass).is_multiple_of(2);
            for plain_turn in [plain_first, !plain_first] {
                if plain_turn {
                    let t = Instant::now();
                    let out = sw.try_run_cell(&ctx.w, cell);
                    times.plain.record(idx, t.elapsed().as_secs_f64());
                    seen.observe(idx, cell, &out, "in process", r);
                } else {
                    let before = crate::alloc::snapshot();
                    let out =
                        traced_cell(ctx, g.cfg, cell, idx, &mut machine, rec, &mut times.traced);
                    let after = crate::alloc::snapshot();
                    if pass == 0 {
                        times.allocs.0 += after.0 - before.0;
                        times.allocs.1 += after.1 - before.1;
                    }
                    seen.observe(idx, cell, &out, "driven directly", r);
                }
            }
            idx += 1;
        }
    }
}

/// One execute-only run of a program on the benchmark's own `Vm` (kernel
/// driver + `exec_into` + `SimMemory`, no timing, no op built): the kernel's
/// wall time, its vector instruction and element counts, and whether its
/// output matches the host reference.
struct ExecRun {
    seconds: f64,
    vinstrs: u64,
    elements: u64,
    check: Result<(), String>,
}

fn exec_only_run(w: &Workloads, refs: &References, kernel: KernelKind, imp: ImplKind) -> ExecRun {
    let mut m = RecordingVm::exec_only(w.heap);
    if let ImplKind::Vector { maxvl } = imp {
        m.set_maxvl_cap(maxvl);
    }
    let dev = drive::setup(&mut m, w, kernel);
    let t = Instant::now();
    drive::run(&mut m, &dev, imp);
    let seconds = t.elapsed().as_secs_f64();
    ExecRun {
        seconds,
        vinstrs: m.vinstrs,
        elements: m.elements,
        check: refs.check(&m, &dev),
    }
}

/// Bypass replay of one program: the timed machine with the timing model
/// discarding every op, so what remains is exec + classify + line
/// coalescing + `Op` construction. Returns the kernel's wall time.
fn bypass_run(ctx: &Ctx, m: &mut SdvMachine, kernel: KernelKind, imp: ImplKind) -> f64 {
    m.reset_with_config(TimingConfig::default());
    m.set_timing_bypass(true);
    if let ImplKind::Vector { maxvl } = imp {
        m.set_maxvl_cap(maxvl);
    }
    let dev = drive::setup(m, &ctx.w, kernel);
    let t = Instant::now();
    drive::run(m, &dev, imp);
    t.elapsed().as_secs_f64()
}

/// Sum one statistic over every cell's first result.
fn total(seen: &Seen, key: &str) -> u64 {
    seen.stats.iter().flatten().map(|s| s.get(key)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated statistics: sums over the grid, and a hash of every
/// key/value of every cell. A change that only makes the simulator faster
/// leaves all of them identical.
fn simulated_statistics(ctx: &Ctx, seen: &Seen, r: &mut Report) {
    let cycles: u64 = (0..ctx.cells()).filter_map(|i| seen.cycles(i)).sum();
    let ops = total(seen, "scalar.ops") + total(seen, "vpu.instrs");
    let accesses = total(seen, "l1.load") + total(seen, "l1.store") + total(seen, "vpu.vmem_lines");
    r.set("uarch.sim_cycles", cycles as f64);
    r.set("uarch.ops", ops as f64);
    r.set("uarch.accesses", accesses as f64);
    r.set(
        "uarch.scalar_stall_cycles",
        total(seen, "scalar.stall_cycles") as f64,
    );
    r.set(
        "uarch.vpu_mem_wait_cycles",
        total(seen, "vpu.mem_wait_cycles") as f64,
    );
    let mut h = StableHash::new();
    for (i, stats) in seen.stats.iter().enumerate() {
        h.u64(seen.cycles(i).unwrap_or(u64::MAX));
        for (k, v) in stats.iter().flat_map(|s| s.iter()) {
            h.str(k);
            h.u64(v);
        }
    }
    // 48 bits: exactly representable as a JSON number.
    r.set(
        "uarch.stats_hash48",
        (h.finish() as u64 & ((1 << 48) - 1)) as f64,
    );
    let (l1_hit, l1_miss) = (total(seen, "l1.hits_total"), total(seen, "l1.misses_total"));
    let (l2_hit, l2_miss) = (total(seen, "l2.hit"), total(seen, "l2.miss"));
    r.set(
        "memsys.l1_miss_ratio",
        ratio(l1_miss as f64, (l1_hit + l1_miss) as f64),
    );
    r.set(
        "memsys.l2_miss_ratio",
        ratio(l2_miss as f64, (l2_hit + l2_miss) as f64),
    );
    r.set("memsys.dram_bytes", total(seen, "dram.bytes") as f64);
    let downgrades: u64 = seen
        .stats
        .iter()
        .flatten()
        .flat_map(|s| s.iter())
        .filter(|(k, _)| k.starts_with("l2.bank") && k.ends_with(".downgrades"))
        .map(|(_, v)| v)
        .sum();
    r.set(
        "memsys.coherence_msgs",
        (total(seen, "coherence.invalidate") + total(seen, "coherence.recall") + downgrades) as f64,
    );
    r.set("noc.packets", total(seen, "noc.packets") as f64);
    r.set(
        "noc.link_wait_cycles",
        total(seen, "noc.link_wait_cycles") as f64,
    );
    // The tiled replay schedules one event per op it issues; single-tile
    // cells issue inline and never touch the event queue.
    let events: u64 = ctx
        .indexed_cells()
        .filter(|(_, cfg, _)| cfg.mem.tiles > 1)
        .filter_map(|(idx, _, _)| seen.stats[idx].as_ref())
        .map(|s| s.get("scalar.ops"))
        .sum();
    r.set("engine.events", events as f64);
}

/// Mean absolute % error of the SpMV slowdown at +32 and +1024 cycles
/// against the ratios the paper reports for this implementation.
fn anchor_error(ctx: &Ctx, seen: &Seen, imp: ImplKind, paper: [f64; 2]) -> Option<f64> {
    let cycles_at = |lat: u64| {
        let at = Cell {
            kernel: KernelKind::Spmv,
            imp,
            extra_latency: lat,
            bandwidth: 64,
        };
        ctx.indexed_cells()
            .find(|(_, _, c)| *c == at)
            .and_then(|(idx, _, _)| seen.cycles(idx))
    };
    let base = cycles_at(0)? as f64;
    let errs: Vec<f64> = [32, 1024]
        .iter()
        .zip(paper)
        .map(|(&lat, want)| cycles_at(lat).map(|cy| 100.0 * (cy as f64 / base - want).abs() / want))
        .collect::<Option<_>>()?;
    Some(errs.iter().sum::<f64>() / errs.len() as f64)
}

/// vl=256 SpMV, BFS and PageRank on a one-tile `TiledMachine` (capture, then
/// replay through the event queue) over the same cells on `SdvMachine`
/// (inline issue): what folding the two machines into the tiled one would
/// cost the single-tile workloads. Cycles must agree.
fn tiled1_over_inline(ctx: &Ctx, r: &mut Report) -> f64 {
    let cfg = TimingConfig::default();
    let imp = ImplKind::Vector { maxvl: 256 };
    let (mut inline_s, mut tiled_s) = (0.0, 0.0);
    let mut inline_m = SdvMachine::new(ctx.w.heap);
    for kernel in [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr] {
        let cell = Cell {
            kernel,
            imp,
            extra_latency: 0,
            bandwidth: 64,
        };
        let t = Instant::now();
        inline_m.reset_with_config(cfg);
        drive::set_knobs(&mut inline_m, cell);
        let dev = drive::setup(&mut inline_m, &ctx.w, kernel);
        drive::run(&mut inline_m, &dev, imp);
        let inline_cycles = inline_m.try_finish();
        inline_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut m = TiledMachine::with_config(ctx.w.heap, cfg);
        m.set_maxvl_cap(256);
        let dev = drive::setup(&mut m.vm(0), &ctx.w, kernel);
        drive::run(&mut m.vm(0), &dev, imp);
        let tiled_cycles = m.try_finish();
        tiled_s += t.elapsed().as_secs_f64();
        r.op(inline_cycles.is_ok() && inline_cycles == tiled_cycles, || {
            format!("{}/vl=256: one-tile TiledMachine {tiled_cycles:?}, SdvMachine {inline_cycles:?}", kernel.name())
        });
    }
    ratio(tiled_s, inline_s)
}

/// The service layers: a cold sweep from two concurrent clients (so the
/// server's exactly-once dedup is exercised), status round trips, warm
/// sweeps over the wire, then warm sweeps from the same directory on disk.
fn service_layers(
    ctx: &Ctx,
    inproc_s: f64,
    scratch: &mut Scratch,
    rec: &mut Recorder,
    seen: &mut Seen,
    r: &mut Report,
) -> Result<(), String> {
    let cells = ctx.cells() as f64;
    let server = Server::start(scratch.fresh_dir())?;
    let sweep = rec.open("sweep.cold", -1);
    let t = Instant::now();
    std::thread::scope(|s| {
        let twin = s.spawn(|| {
            let mut twin_seen = Seen::new(ctx.cells());
            let mut twin_report = Report::default();
            wire_sweep(
                ctx,
                &server.addr,
                "cold through sweepd (second client)",
                &mut twin_seen,
                &mut twin_report,
            );
            twin_report
        });
        wire_sweep(ctx, &server.addr, "cold through sweepd", seen, r);
        match twin.join() {
            Ok(t) => {
                r.attempted += t.attempted;
                r.failed += t.failed;
                r.correct &= t.correct;
            }
            Err(_) => r.fail("second cold client panicked".to_string()),
        }
    });
    let cold_s = t.elapsed().as_secs_f64();
    rec.close(sweep);
    let counter = |name: &str| {
        client_request(&server.addr, "stats", &RetryPolicy::none())
            .ok()
            .and_then(|v| v.get(name).and_then(|n| n.as_u64()))
            .unwrap_or(0)
    };
    let simulated = counter("simulated");
    r.set("bench.server.cold_wall_s", cold_s);
    r.set("bench.server.inproc_s", inproc_s);
    r.set(
        "bench.server.cold_overhead_ms_per_cell",
        (cold_s - inproc_s) * 1e3 / cells,
    );
    r.set("bench.server.simulated", simulated as f64);
    r.set("bench.server.dup_sim_ratio", simulated as f64 / cells);

    let mut rtt = Vec::new();
    for _ in 0..50 {
        let (reply, s) = rec.time("server.status", -1, || {
            client_request(&server.addr, "status", &RetryPolicy::none())
        });
        r.op(reply.is_ok(), || "status request failed".to_string());
        rtt.push(s);
    }
    r.set("bench.server.status_rtt_us", percentile(&rtt, 50.0) * 1e6);

    let mut warm = Vec::new();
    for _ in 0..20 {
        let id = rec.open("sweep.warm", -1);
        warm.push(wire_sweep(
            ctx,
            &server.addr,
            "warm through sweepd",
            seen,
            r,
        ));
        rec.close(id);
    }
    r.set(
        "bench.server.warm_us_per_cell",
        minimum(&warm) * 1e6 / cells,
    );
    r.set(
        "bench.server.simulated_after_warm",
        counter("simulated") as f64,
    );
    r.set("bench.server.cache_hits", counter("cache_hits") as f64);
    let dir = server.cache_dir.clone();
    server.stop()?;

    let mut disk = Vec::new();
    for _ in 0..20 {
        let id = rec.open("sweep.disk", -1);
        disk.push(disk_sweep(ctx, &dir, seen, r));
        rec.close(id);
    }
    r.set("bench.cache.warm_wall_ms", minimum(&disk) * 1e3);
    let csv = measure::fig3_csv(ctx, seen);
    r.op(csv == measure::GOLDEN_FIG3_SMALL, || {
        "cycles differ from results/golden/fig3_small.csv".to_string()
    });
    Ok(())
}

/// The whole traced run of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut scratch =
        Scratch::new().map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let mut r = Report::default();
    let mut rec = Recorder::new();
    let id = rec.open("setup", -1);
    let mut ctx = measure::set_up(spec, seed, &mut scratch)?;
    rec.close(id);
    // The service layers start their own server once the in-process cost of
    // the same grid is known.
    drop(ctx.server.take());
    let n = ctx.cells();

    let mut times = Paired {
        plain: MinTimes::new(n),
        traced: TracedTimes {
            cell: MinTimes::new(n),
            drive: MinTimes::new(n),
            finish: MinTimes::new(n),
        },
        allocs: (0, 0),
    };
    let mut seen = Seen::new(n);
    let mut clock = PassClock::new(PASS_SHARE * seconds);
    while clock.another(1) {
        let t = Instant::now();
        paired_pass(
            &ctx,
            clock.passes(),
            &mut rec,
            &mut times,
            &mut seen,
            &mut r,
        );
        clock.pass_done(t.elapsed());
    }
    let Paired {
        plain,
        traced,
        allocs,
    } = times;
    let plain_s = plain.sum_of_min();
    let traced_s = traced.cell.sum_of_min();
    println!(
        "# {} paired passes (plain, traced) of {n} cells",
        clock.passes()
    );

    // Memo hits: the same cells again on a Sweeper that already has them.
    {
        let g = &ctx.groups[0];
        let mut sw = Sweeper::with_config(g.cfg);
        let probe = g.cells[g.cells.len() / 2];
        std::hint::black_box(sw.try_run_cell(&ctx.w, probe));
        let t = Instant::now();
        for _ in 0..2000 {
            std::hint::black_box(sw.try_run_cell(&ctx.w, probe));
        }
        r.set(
            "bench.harness.memo_hit_ns",
            t.elapsed().as_secs_f64() * 1e9 / 2000.0,
        );
    }

    // Whole-program replays: execute only, then the timed machine with its
    // timing model bypassed.
    let refs = References::new(&ctx.w);
    let programs = ctx.programs();
    let reps = if clock.left().as_secs_f64() > 0.0 {
        2
    } else {
        1
    };
    let (mut exec_s, mut bypass_s) = (0.0, 0.0);
    let (mut vinstrs, mut elements) = (0u64, 0u64);
    let mut bypass_machine = SdvMachine::new(ctx.w.heap);
    for &((kernel, imp), uses) in &programs {
        let mut func = Vec::new();
        let mut byp = Vec::new();
        for rep in 0..reps {
            let id = rec.open("replay.exec_only", -1);
            let run = exec_only_run(&ctx.w, &refs, kernel, imp);
            rec.close(id);
            if rep == 0 {
                vinstrs += run.vinstrs * uses as u64;
                elements += run.elements * uses as u64;
                r.op(run.check.is_ok(), || {
                    format!(
                        "{}/{imp}: functional output differs from the host reference",
                        kernel.name()
                    )
                });
            }
            func.push(run.seconds);
            let id = rec.open("replay.bypass", -1);
            byp.push(bypass_run(&ctx, &mut bypass_machine, kernel, imp));
            rec.close(id);
        }
        exec_s += minimum(&func) * uses as f64;
        bypass_s += minimum(&byp) * uses as f64;
    }
    drop(bypass_machine);
    let drive_s = traced.drive.sum_of_min() + traced.finish.sum_of_min();
    let timing_s = drive_s - bypass_s;
    r.set("rvv.exec_s", exec_s);
    r.set("rvv.exec_share", ratio(exec_s, traced_s));
    r.set("rvv.ns_per_elem", ratio(exec_s * 1e9, elements as f64));
    r.set("rvv.vinstrs", vinstrs as f64);
    r.set("rvv.elements", elements as f64);
    r.set("core.glue_s", bypass_s - exec_s);
    r.set("uarch.timing_s", timing_s);
    r.set("uarch.timing_share", ratio(timing_s, traced_s));

    simulated_statistics(&ctx, &seen, &mut r);
    let ops = r.get("uarch.ops").unwrap_or(0.0);
    r.set("uarch.ns_per_op", ratio(timing_s * 1e9, ops));
    r.set(
        "uarch.ns_per_access",
        ratio(timing_s * 1e9, r.get("uarch.accesses").unwrap_or(0.0)),
    );
    r.set("core.cell_ns_per_op", ratio(traced_s * 1e9, ops));
    r.set(
        "core.reset_us",
        percentile(&rec.durations("core.reset"), 50.0) * 1e6,
    );
    let tiled1 = tiled1_over_inline(&ctx, &mut r);
    r.set("core.tiled1_over_inline", tiled1);
    r.set(
        "anchor.err_pct",
        spec.anchor
            .and_then(|(imp, paper)| anchor_error(&ctx, &seen, imp, paper))
            .unwrap_or(0.0),
    );

    let cell_ms: Vec<f64> = plain.samples().iter().map(|s| s * 1e3).collect();
    r.set("bench.harness.cell_ms_p50", percentile(&cell_ms, 50.0));
    r.set("bench.harness.cell_ms_p95", percentile(&cell_ms, 95.0));
    println!(
        "# bench.harness.cell_ms: n={} samples (cells x passes)",
        cell_ms.len()
    );
    r.set(
        "bench.harness.overhead_us",
        (plain_s - traced_s) * 1e6 / n as f64,
    );
    r.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_s - plain_s, plain_s),
    );
    let (alloc_count, alloc_bytes) = allocs;
    r.set("host.allocs_per_cell", alloc_count as f64 / n as f64);
    r.set(
        "host.alloc_kb_per_cell",
        alloc_bytes as f64 / 1024.0 / n as f64,
    );

    layers::replay_probes(&ctx, &spec.impls(), &mut r);

    // The cache and JSON layers on this workload's own results.
    let results: Vec<_> = ctx
        .indexed_cells()
        .filter_map(|(idx, cfg, cell)| {
            let (cycles, stats) = (seen.cycles(idx)?, seen.stats[idx].clone()?);
            Some((cell, cfg.canonical(), cycles, stats))
        })
        .collect();
    layers::cache_and_json(&ctx, &results, &scratch.fresh_dir(), &mut r);

    match spec.front {
        FrontDoor::Sweepd => {
            service_layers(&ctx, plain_s, &mut scratch, &mut rec, &mut seen, &mut r)?
        }
        FrontDoor::InProcess => {
            let dir = scratch.fresh_dir();
            store_results(&ctx, &seen, &dir)?;
            let disk: Vec<f64> = (0..20)
                .map(|_| disk_sweep(&ctx, &dir, &mut seen, &mut r))
                .collect();
            r.set("bench.cache.warm_wall_ms", minimum(&disk) * 1e3);
        }
    }
    r.set(
        "bench.cache.hit_ratio",
        ratio(
            (r.warm_lookups - r.warm_misses) as f64,
            r.warm_lookups as f64,
        ),
    );

    // The known failure kept out of the timed grid: FFT/scalar at this
    // workload's input size.
    let canary = Cell {
        kernel: KernelKind::Fft,
        imp: ImplKind::Scalar,
        extra_latency: 0,
        bandwidth: 64,
    };
    let canary_failed = try_run_with_config(&ctx.w, canary, TimingConfig::default()).is_err();
    r.set(
        "canary.fft_scalar_failed",
        f64::from(u8::from(canary_failed)),
    );
    if canary_failed {
        println!(
            "# canary: {} fails at this input size (known at this commit; not in any timed grid)",
            label(canary)
        );
    }

    r.set("failed_share", ratio(r.failed as f64, r.attempted as f64));
    r.set("trace.spans", rec.spans().len() as f64);
    println!("# self time by span name (s, count):");
    for (name, s, count) in self_seconds_by_name(rec.spans()) {
        println!("#   {name:<20} {s:>10.4} {count:>6}");
    }
    let path = out_dir().join(format!("trace-{}.json", spec.name));
    if let Err(e) = std::fs::write(&path, rec.to_json(spec.name)) {
        eprintln!("sdvbench: cannot write {}: {e}", path.display());
    }
    Ok(r)
}
