//! Single-layer replays. A probe cell's recorded op stream (SpMV under each
//! implementation the workload uses) is pushed through one layer at a time
//! — the whole timing model, the scalar core, the VPU, the memory hierarchy
//! from either side, one cache, the DRAM channel, the mesh — so each layer's
//! host cost per call is a number of its own. No clock is read per op: each
//! replay is timed as a whole and divided by its call count.

use crate::drive;
use crate::estimate::{minimum, percentile};
use crate::measure::{Ctx, Report};
use sdv_bench::cache::{CacheKey, ResultCache};
use sdv_bench::json::Json;
use sdv_bench::{Cell, ImplKind, KernelKind};
use sdv_core::SdvMachine;
use sdv_engine::{EventQueue, Rng, Stats};
use sdv_memsys::{AccessKind, Cache, CacheConfig, DramChannel};
use sdv_noc::Mesh;
use sdv_rvv::Backend;
use sdv_uarch::scalar::ScalarCore;
use sdv_uarch::vpu::VpuTiming;
use sdv_uarch::{MemHierarchy, Op, TimingConfig, VClass};
use std::path::Path;
use std::time::Instant;

/// Replays of each kind per probe; the fastest counts.
const REPS: usize = 3;

/// Total seconds and call count of one kind of replay, summed over probes.
#[derive(Default, Clone, Copy)]
struct Tally {
    seconds: f64,
    calls: u64,
}

impl Tally {
    fn add(&mut self, seconds: f64, calls: u64) {
        if calls > 0 {
            self.seconds += seconds;
            self.calls += calls;
        }
    }

    /// 0 when the probes made too few calls of this kind for a time per
    /// call to mean anything (vector SpMV issues a handful of scalar loads).
    fn ns_per_call(&self) -> f64 {
        if self.calls < 1000 {
            0.0
        } else {
            self.seconds * 1e9 / self.calls as f64
        }
    }
}

/// Fastest of [`REPS`] runs of `f`, which returns how many calls it made.
fn fastest(mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut times = Vec::with_capacity(REPS);
    let mut calls = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        calls = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (minimum(&times), calls)
}

/// The SpMV cell of the grid under `imp` (with that cell's knobs), or a
/// default-knob one if the grid has none.
fn probe_cell(ctx: &Ctx, imp: ImplKind) -> Cell {
    ctx.groups
        .iter()
        .flat_map(|g| &g.cells)
        .find(|c| c.kernel == KernelKind::Spmv && c.imp == imp)
        .copied()
        .unwrap_or(Cell {
            kernel: KernelKind::Spmv,
            imp,
            extra_latency: 0,
            bandwidth: 64,
        })
}

fn hierarchy(cell: Cell, cfg: &TimingConfig) -> MemHierarchy {
    let mut h = MemHierarchy::new(cfg.mem);
    h.set_extra_latency(cell.extra_latency);
    h.set_bandwidth_limit(cell.bandwidth);
    h
}

/// Every memory reference of the stream: scalar addresses and vector lines.
fn references(ops: &[Op]) -> Vec<(u64, bool)> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Load { addr, .. } => out.push((*addr, false)),
            Op::Store { addr, .. } => out.push((*addr, true)),
            Op::Vector(v) => {
                if let Some(m) = &v.mem {
                    out.extend(m.lines.iter().map(|&l| (l, !m.is_load)));
                }
            }
            _ => {}
        }
    }
    out
}

/// Run the probes of every implementation in the workload and set the
/// `uarch.*_ns*`, `memsys.*_ns`, `noc.send_ns` and `engine.*` time metrics.
pub fn replay_probes(ctx: &Ctx, impls: &[ImplKind], r: &mut Report) {
    // Probes run on the single-tile machine whatever the workload's tile
    // count: the layers are the same code, and only one tile's stream fits
    // the single-requester entry points the issue names.
    let cfg = TimingConfig::default();
    // One mesh per group: 2x2 everywhere, plus 4x4 on the 16-tile group.
    let meshes: Vec<sdv_noc::MeshConfig> = ctx.groups.iter().map(|g| g.cfg.mem.mesh).collect();
    let (mut issue, mut scalar, mut vpu, mut core_side, mut vpu_side) = (
        Tally::default(),
        Tally::default(),
        Tally::default(),
        Tally::default(),
        Tally::default(),
    );
    let (mut cache, mut dram, mut noc) = (Tally::default(), Tally::default(), Tally::default());
    let mut finish_s = Vec::new();
    let mut stats_s = Vec::new();

    for &imp in impls {
        let cell = probe_cell(ctx, imp);
        // Reference: the same cell on the timed machine, which also gives a
        // finished machine to time `stats()` on.
        let mut m = SdvMachine::with_config(ctx.w.heap, cfg);
        drive::set_knobs(&mut m, cell);
        let dev = drive::setup(&mut m, &ctx.w, cell.kernel);
        drive::run(&mut m, &dev, cell.imp);
        let want = m.try_finish();
        for _ in 0..40 {
            let t = Instant::now();
            std::hint::black_box(m.stats());
            stats_s.push(t.elapsed().as_secs_f64());
        }
        drop(m);

        let ops = drive::record(&ctx.w, cell, &cfg);
        let refs = references(&ops);

        // The whole timing model: SdvTiming::issue, then try_finish.
        let mut replayed = None;
        let (s, n) = fastest(|| {
            let mut t = drive::timing_for(cell, cfg);
            for op in &ops {
                t.issue(op);
            }
            let t_fin = Instant::now();
            replayed = Some(t.try_finish());
            finish_s.push(t_fin.elapsed().as_secs_f64());
            ops.len() as u64
        });
        issue.add(s, n);
        let same = match (&want, &replayed) {
            (Ok(a), Some(Ok(b))) => a == b,
            _ => false,
        };
        r.op(same, || {
            format!(
                "probe SPMV/{imp}: replayed stream gives {replayed:?}, the timed machine {want:?}"
            )
        });

        // The scalar core alone (with the hierarchy its loads walk).
        let (s, n) = fastest(|| {
            let mut core = ScalarCore::new(cfg.scalar);
            let mut hier = hierarchy(cell, &cfg);
            let mut n = 0;
            for op in &ops {
                match op {
                    Op::IntOps(k) => core.int_ops(*k),
                    Op::FpOps(k) => core.fp_ops(*k),
                    Op::Branch { taken } => core.branch(*taken),
                    Op::Load { addr, .. } => core.load(&mut hier, *addr),
                    Op::Store { addr, .. } => core.store(&mut hier, *addr),
                    Op::Vector(_) | Op::Sync => continue,
                }
                n += 1;
            }
            core.drain();
            n
        });
        scalar.add(s, n);

        // The VPU alone: one dispatch per vector instruction.
        let (s, n) = fastest(|| {
            let mut unit = VpuTiming::new(cfg.vpu);
            let mut hier = hierarchy(cell, &cfg);
            let (mut now, mut n) = (0, 0);
            for op in &ops {
                if let Op::Vector(v) = op {
                    if v.class != VClass::SetVl {
                        let d = unit.dispatch(v, now, &mut hier);
                        now = now.max(d.accepted_at) + 1;
                        n += 1;
                    }
                }
            }
            n
        });
        vpu.add(s, n);

        // The hierarchy from the core side, one access after the previous
        // one's data is ready.
        let (s, n) = fastest(|| {
            let mut hier = hierarchy(cell, &cfg);
            let (mut now, mut n) = (0, 0);
            for op in &ops {
                let (addr, write) = match op {
                    Op::Load { addr, .. } => (*addr, false),
                    Op::Store { addr, .. } => (*addr, true),
                    _ => continue,
                };
                now = now.max(hier.core_access(addr, write, now));
                n += 1;
            }
            n
        });
        core_side.add(s, n);

        // The hierarchy from the VPU side, one line request per cycle.
        let (s, n) = fastest(|| {
            let mut hier = hierarchy(cell, &cfg);
            let (mut now, mut n) = (0, 0);
            for op in &ops {
                if let Op::Vector(v) = op {
                    if let Some(mem) = &v.mem {
                        for &line in &mem.lines {
                            std::hint::black_box(hier.vpu_access(line, !mem.is_load, now));
                            now += 1;
                            n += 1;
                        }
                    }
                }
            }
            n
        });
        vpu_side.add(s, n);

        // One L2-bank-sized cache: access, fill on a miss.
        let (s, n) = fastest(|| {
            let mut c = Cache::new(CacheConfig::l2_bank());
            for &(addr, write) in &refs {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if !c.access(addr, kind) {
                    std::hint::black_box(c.fill(addr, write));
                }
            }
            refs.len() as u64
        });
        cache.add(s, n);

        // The DRAM channel with the cell's knobs: one submit per reference.
        let (s, n) = fastest(|| {
            let mut d = DramChannel::new(cfg.mem.dram);
            d.set_extra_latency(cell.extra_latency);
            d.set_bandwidth_limit(cell.bandwidth);
            for (now, &(addr, _)) in refs.iter().enumerate() {
                std::hint::black_box(d.submit(addr, now as u64));
            }
            refs.len() as u64
        });
        dram.add(s, n);

        // The mesh(es) the workload simulates: a request packet from node 0
        // to the line's home node and a line-sized reply back.
        for mesh_cfg in &meshes {
            let (s, n) = fastest(|| {
                let mut mesh = Mesh::new(*mesh_cfg);
                let nodes = mesh_cfg.nodes();
                for (now, &(addr, _)) in refs.iter().enumerate() {
                    let home = (addr >> 6) as usize % nodes;
                    let there = mesh.send(0, home, 8, now as u64);
                    std::hint::black_box(mesh.send(home, 0, 64, there));
                }
                2 * refs.len() as u64
            });
            noc.add(s, n);
        }
    }

    r.set("uarch.issue_ns_per_op", issue.ns_per_call());
    r.set("uarch.scalar_ns_per_op", scalar.ns_per_call());
    r.set("uarch.vpu_dispatch_ns", vpu.ns_per_call());
    r.set("uarch.memhier_core_ns", core_side.ns_per_call());
    r.set("uarch.memhier_vpu_ns", vpu_side.ns_per_call());
    r.set("uarch.finish_us", percentile(&finish_s, 50.0) * 1e6);
    r.set("memsys.cache_access_ns", cache.ns_per_call());
    r.set("memsys.dram_submit_ns", dram.ns_per_call());
    r.set("noc.send_ns", noc.ns_per_call());
    r.set("engine.stats_collect_us", percentile(&stats_s, 50.0) * 1e6);
    r.set(
        "engine.event_pair_ns",
        event_pair_ns(
            ctx.groups
                .iter()
                .map(|g| g.cfg.mem.tiles)
                .max()
                .unwrap_or(1),
        ),
    );
    println!(
        "# probes: {} SpMV streams, {} ops, {} line/address references",
        impls.len(),
        issue.calls,
        cache.calls
    );
}

/// `schedule` + `pop` pairs at the tiled replay's shape: `tiles` live events,
/// each popped one rescheduled a short way ahead (an op's few cycles), now
/// and then a stall that lands past the wheel's 256 one-cycle buckets.
fn event_pair_ns(tiles: usize) -> f64 {
    const PAIRS: u64 = 400_000;
    let (s, n) = fastest(|| {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut rng = Rng::new(0xE7E7);
        for t in 0..tiles.max(1) {
            q.schedule(0, t);
        }
        for _ in 0..PAIRS {
            let (now, t) = q.pop().expect("a tile is always scheduled");
            let step = match rng.below(100) {
                0 => 300 + rng.below(1500),
                1..=9 => 10 + rng.below(190),
                _ => 1 + rng.below(4),
            };
            q.schedule(now + step, t);
        }
        PAIRS
    });
    s * 1e9 / n as f64
}

/// The cache and JSON layers on the workload's own results: key, store,
/// load, miss, entry size, fingerprint, and the wire line's emit and parse.
pub fn cache_and_json(
    ctx: &Ctx,
    results: &[(Cell, String, u64, Stats)],
    dir: &Path,
    r: &mut Report,
) {
    let Ok(cache) = ResultCache::open(dir) else {
        r.fail(format!("cannot open a cache at {}", dir.display()));
        return;
    };
    let (mut key_s, mut store_s, mut load_s, mut miss_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0u64;
    for (cell, cfg_text, cycles, stats) in results {
        let t = Instant::now();
        let key = CacheKey::for_cell(*cell, &ctx.fingerprint, cfg_text, Backend::default());
        key_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        cache.store(&key, *cycles, stats);
        store_s.push(t.elapsed().as_secs_f64());
        bytes += std::fs::metadata(cache.entry_file(&key)).map_or(0, |m| m.len());
        let t = Instant::now();
        let hit = cache.load(&key);
        load_s.push(t.elapsed().as_secs_f64());
        r.op(hit.as_ref().map(|h| h.cycles) == Some(*cycles), || {
            format!(
                "cache entry of {} does not load back",
                crate::measure::label(*cell)
            )
        });
        let absent = CacheKey::for_cell(*cell, "no-such-inputs", cfg_text, Backend::default());
        let t = Instant::now();
        let miss = cache.load(&absent);
        miss_s.push(t.elapsed().as_secs_f64());
        r.op(miss.is_none(), || {
            "a key that was never stored hit the cache".to_string()
        });
    }
    let n = results.len().max(1) as f64;
    r.set("bench.cache.key_us", percentile(&key_s, 50.0) * 1e6);
    r.set("bench.cache.store_us", percentile(&store_s, 50.0) * 1e6);
    r.set("bench.cache.load_us", percentile(&load_s, 50.0) * 1e6);
    r.set("bench.cache.miss_us", percentile(&miss_s, 50.0) * 1e6);
    r.set("bench.cache.entry_bytes", bytes as f64 / n);

    let mut fp_s = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(ctx.w.fingerprint());
        fp_s.push(t.elapsed().as_secs_f64());
    }
    r.set("bench.cache.fingerprint_ms", percentile(&fp_s, 50.0) * 1e3);

    // The result line sweepd streams per cell: the cell, its cycles, and
    // every statistic.
    let lines: Vec<Json> = results
        .iter()
        .map(|(cell, _, cycles, stats)| {
            Json::Obj(vec![
                ("kernel".to_string(), Json::str(cell.kernel.name())),
                ("imp".to_string(), Json::str(cell.imp.to_string())),
                ("lat".to_string(), Json::num(cell.extra_latency)),
                ("bw".to_string(), Json::num(cell.bandwidth)),
                ("cycles".to_string(), Json::num(*cycles)),
                (
                    "stats".to_string(),
                    Json::Obj(
                        stats
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::num(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut texts: Vec<String> = Vec::new();
    let (emit_s, emitted) = fastest(|| {
        texts = lines.iter().map(Json::to_line).collect();
        texts.iter().map(|t| t.len() as u64).sum()
    });
    let mut round_trip = true;
    let (parse_s, parsed) = fastest(|| {
        for (text, line) in texts.iter().zip(&lines) {
            round_trip &= Json::parse(text).as_ref() == Ok(line);
        }
        texts.iter().map(|t| t.len() as u64).sum()
    });
    r.op(round_trip, || {
        "a result line does not survive emit and parse".to_string()
    });
    r.set(
        "bench.json.emit_ns_per_byte",
        emit_s * 1e9 / emitted.max(1) as f64,
    );
    r.set(
        "bench.json.parse_ns_per_byte",
        parse_s * 1e9 / parsed.max(1) as f64,
    );
    println!(
        "# cache/json: n={} entries, {} bytes of result lines; p50 over entries",
        results.len(),
        emitted
    );
}
