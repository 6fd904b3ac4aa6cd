//! Stall-breakdown extraction and machine-readable exports for `study`'s
//! figures.
//!
//! Two flags build on the timing model's cycle-attribution counters:
//!
//! * `--metrics-json PATH` — per-cell stall breakdown as an
//!   `sdv-metrics-v1` JSON document (the machine-readable companion of the
//!   printed tables),
//! * `--trace PATH [--trace-kernel K]` — Chrome `trace_event` timeline of
//!   one designated cell, loadable in Perfetto or `chrome://tracing`.
//!
//! Both are pure additions: the sweep itself runs with probes off, so the
//! figures' cycle counts are untouched by either flag.

use crate::cli;
use crate::harness::{try_run_traced, Cell, CellOutcome, Workloads};
use crate::json::Json;
use sdv_engine::Stats;
use sdv_uarch::TimingConfig;

/// Per-cause stall attribution of one completed cell, extracted from the
/// component statistics the timing model exports.
#[derive(Debug, Clone, Copy)]
pub struct StallBreakdown {
    /// Total wall time of the run, cycles.
    pub cycles: u64,
    /// Scalar-core cycles lost to its own memory system (run-ahead window,
    /// MSHR cap, store-buffer backpressure, final drain).
    pub scalar_memory: u64,
    /// VPU exposed (non-overlapped) memory-wait cycles.
    pub vpu_memory: u64,
    /// Scalar cycles stalled on VPU decoupling-queue backpressure.
    pub vpu_queue: u64,
    /// Scalar cycles stalled on explicit vector synchronization.
    pub vpu_sync: u64,
    /// Branch-redirect bubbles.
    pub branch: u64,
}

impl StallBreakdown {
    /// Extract from a run's statistics. `None` when the registry is empty
    /// (simulated, cache-served and `sweepd`-served cells all carry stats).
    pub fn from_stats(cycles: u64, s: &Stats) -> Option<Self> {
        s.iter().next()?;
        Some(Self {
            cycles,
            scalar_memory: s.get("scalar.stall.window_cycles")
                + s.get("scalar.stall.mshr_cycles")
                + s.get("scalar.stall.store_buffer_cycles")
                + s.get("scalar.stall.drain_cycles"),
            vpu_memory: s.get("vpu.mem_wait_cycles"),
            vpu_queue: s.get("scalar.stall.vpu_queue_cycles"),
            vpu_sync: s.get("scalar.stall.vpu_sync_cycles"),
            branch: s.get("scalar.stall.branch_cycles"),
        })
    }

    /// Wall-time cycles attributable to waiting on memory: the scalar core's
    /// own memory stalls plus the VPU's exposed memory wait, capped at wall
    /// time. The two run on different hardware tracks and can overlap in the
    /// same wall cycle (scalar window-stalled while the VPU waits on DRAM),
    /// so the uncapped sum can exceed wall time by a few percent.
    pub fn memory_cycles(&self) -> u64 {
        (self.scalar_memory + self.vpu_memory).min(self.cycles)
    }

    /// Fraction of wall time attributable to waiting on memory. The paper's
    /// central claim reduced to one number per cell — under added latency
    /// this falls as MAXVL grows (at +1024 every implementation is nearly
    /// fully memory-bound, so small MAXVLs saturate into ties near 1.0 and
    /// the discriminating fall shows up at large MAXVL).
    pub fn memory_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.memory_cycles() as f64 / self.cycles as f64
    }
}

/// Render cell outcomes as an `sdv-metrics-v1` JSON document: one line,
/// newline-terminated.
pub fn metrics_json(bin: &str, outcomes: &[CellOutcome]) -> String {
    let cells = outcomes
        .iter()
        .map(|o| {
            let c = o.cell();
            let mut fields = vec![
                ("kernel", Json::str(c.kernel.name())),
                ("impl", Json::str(c.imp.to_string())),
                ("extra_latency", Json::num(c.extra_latency)),
                ("bandwidth", Json::num(c.bandwidth)),
            ];
            match o {
                CellOutcome::Done(r) => {
                    let breakdown = StallBreakdown::from_stats(r.cycles, &r.stats);
                    let stalls = breakdown.map_or(Json::Null, |b| {
                        let fraction = format!("{:.6}", b.memory_stall_fraction());
                        Json::obj([
                            ("scalar_memory", Json::num(b.scalar_memory)),
                            ("vpu_memory", Json::num(b.vpu_memory)),
                            ("vpu_queue", Json::num(b.vpu_queue)),
                            ("vpu_sync", Json::num(b.vpu_sync)),
                            ("branch", Json::num(b.branch)),
                            ("memory_stall_fraction", Json::Num(fraction)),
                        ])
                    });
                    fields.extend([("cycles", Json::num(r.cycles)), ("stalls", stalls)]);
                }
                CellOutcome::Failed { error, .. } => fields.extend([
                    ("cycles", Json::Null),
                    ("stalls", Json::Null),
                    ("error", Json::str(error.to_string())),
                ]),
            }
            Json::obj(fields)
        })
        .collect();
    let doc = Json::obj([
        ("schema", Json::str("sdv-metrics-v1")),
        ("bin", Json::str(bin)),
        ("build", Json::str(sdv_engine::build_info())),
        ("cells", Json::Arr(cells)),
    ]);
    doc.to_line() + "\n"
}

/// Handle `--metrics-json PATH`: write the per-cell stall breakdown.
pub fn write_metrics_if_requested(bin: &str, args: &[String], outcomes: &[CellOutcome]) {
    if let Some(path) = cli::arg_value(args, "--metrics-json") {
        if let Err(e) = std::fs::write(path, metrics_json(bin, outcomes)) {
            cli::die_bad_input(bin, &format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
}

/// Handle `--trace PATH [--trace-kernel K]`: re-run one designated cell with
/// timeline tracing enabled and write the Chrome `trace_event` JSON. The
/// traced run is separate from the sweep, so `--trace` costs one extra cell,
/// never a slower grid.
pub fn write_trace_if_requested(
    bin: &str,
    args: &[String],
    w: &Workloads,
    cfg: TimingConfig,
    default_cell: Cell,
) {
    let Some(path) = cli::arg_value(args, "--trace") else { return };
    let mut cell = default_cell;
    if let Some(k) = cli::arg_value(args, "--trace-kernel") {
        cell.kernel = match k.parse() {
            Ok(k) => k,
            Err(e) => cli::die_usage(bin, &e),
        };
    }
    match try_run_traced(w, cell, cfg) {
        Ok((r, json)) => {
            if let Err(e) = std::fs::write(path, json) {
                cli::die_bad_input(bin, &format!("cannot write {path}: {e}"));
            }
            println!(
                "wrote {path} — timeline of {}/{} at +{} cycles latency, {} B/cy \
                 ({} cycles; open in Perfetto or chrome://tracing, 1 µs = 1 cycle)",
                cell.kernel.name(),
                cell.imp,
                cell.extra_latency,
                cell.bandwidth,
                r.cycles,
            );
        }
        Err(e) => {
            eprintln!("{bin}: trace cell {}/{} failed: {e}", cell.kernel.name(), cell.imp);
            std::process::exit(cli::exit_code_for(&e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ImplKind, KernelKind, RunResult};
    use sdv_engine::SimError;

    fn cell() -> Cell {
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 1024,
            bandwidth: 64,
        }
    }

    fn stats(pairs: &[(&str, u64)]) -> Stats {
        let mut s = Stats::new();
        for &(k, v) in pairs {
            s.set(k, v);
        }
        s
    }

    #[test]
    fn breakdown_extracts_and_bounds_the_fraction() {
        let s = stats(&[
            ("scalar.stall.window_cycles", 100),
            ("scalar.stall.mshr_cycles", 50),
            ("scalar.stall.store_buffer_cycles", 25),
            ("scalar.stall.drain_cycles", 25),
            ("vpu.mem_wait_cycles", 300),
            ("scalar.stall.vpu_sync_cycles", 400),
        ]);
        let b = StallBreakdown::from_stats(1000, &s).unwrap();
        assert_eq!(b.scalar_memory, 200);
        assert_eq!(b.vpu_memory, 300);
        assert!((b.memory_stall_fraction() - 0.5).abs() < 1e-9);
        // Degenerate cycles never divide by zero or exceed 1.
        let z = StallBreakdown::from_stats(1, &s).unwrap();
        assert_eq!(z.memory_stall_fraction(), 1.0);
    }

    #[test]
    fn empty_stats_mean_no_breakdown() {
        assert!(StallBreakdown::from_stats(100, &Stats::new()).is_none());
    }

    #[test]
    fn metrics_json_shape() {
        let done = CellOutcome::Done(RunResult {
            cell: cell(),
            cycles: 12345,
            stats: stats(&[("vpu.mem_wait_cycles", 6000)]),
        });
        let statless =
            CellOutcome::Done(RunResult { cell: cell(), cycles: 999, stats: Stats::new() });
        let doc = metrics_json("fig_test", &[done, statless]);
        assert!(doc.starts_with("{\"schema\":\"sdv-metrics-v1\""), "{doc}");
        assert!(doc.contains("\"kernel\":\"SPMV\""), "{doc}");
        assert!(doc.contains("\"impl\":\"vl=256\""), "{doc}");
        assert!(doc.contains("\"cycles\":12345"), "{doc}");
        assert!(doc.contains("\"stalls\":null"), "an empty registry exports null stalls: {doc}");
        assert!(doc.contains("memory_stall_fraction"), "{doc}");
    }

    #[test]
    fn failure_text_is_escaped_by_the_codec() {
        let what = "a\"b\\c\nd".to_string();
        let failed = CellOutcome::Failed { cell: cell(), error: SimError::Panic { what } };
        let doc = metrics_json("fig_test", &[failed]);
        assert!(doc.contains("a\\\"b\\\\c\\nd"), "{doc}");
        crate::json::Json::parse(&doc).expect("a failed cell still yields valid JSON");
    }
}
