//! End-to-end checks of the observability layer: the Chrome `trace_event`
//! timeline and the `sdv-metrics-v1` stall-breakdown export must be valid
//! JSON with the documented shape, and the headline result they exist to
//! show — memory-stall fraction falling as MAXVL grows under added latency —
//! must hold on a real sweep.
//!
//! The JSON is validated with the crate's one codec, [`sdv_bench::json`]:
//! its parser accepts exactly the JSON grammar, so "it parses" means "it is
//! valid JSON".

use sdv_bench::json::Json;
use sdv_bench::metrics::{metrics_json, StallBreakdown};
use sdv_bench::{try_run_traced, Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use sdv_engine::ProbeConfig;
use sdv_uarch::TimingConfig;

mod common;
use common::{ok, path_in, scratch};

fn traced_cell() -> Cell {
    Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Vector { maxvl: 256 },
        extra_latency: 1024,
        bandwidth: 64,
    }
}

#[test]
fn trace_export_is_valid_trace_event_json() {
    let w = Workloads::small();
    let (r, json) = try_run_traced(&w, traced_cell(), TimingConfig::default()).unwrap();
    assert!(r.cycles > 0);

    let doc = Json::parse(&json).expect("trace must parse as JSON");
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut spans = 0usize;
    let mut counters = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        match ph {
            "X" => {
                spans += 1;
                let ts = ev.get("ts").and_then(Json::as_f64).expect("X has ts");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("X has dur");
                assert!(ts >= 0.0 && dur > 0.0, "span times: ts={ts} dur={dur}");
                assert!(
                    ts + dur <= r.cycles as f64,
                    "span ends inside the run: ts={ts} dur={dur} cycles={}",
                    r.cycles
                );
                let vl = ev
                    .get("args")
                    .and_then(|a| a.get("vl"))
                    .and_then(Json::as_f64)
                    .expect("X carries args.vl");
                assert!((1.0..=256.0).contains(&vl), "vl={vl}");
            }
            "C" => counters += 1,
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(spans > 0, "vector instruction lifetimes must be present");
    assert!(counters > 0, "DRAM queue-depth counters must be present");
}

#[test]
fn metrics_export_is_valid_json_with_stall_breakdowns() {
    let w = Workloads::small();
    let cells = [
        Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Scalar,
            extra_latency: 1024,
            bandwidth: 64,
        },
        traced_cell(),
    ];
    let cfg = TimingConfig { probe: ProbeConfig::sampling(), ..Default::default() };
    let outcomes = Sweeper::with_config(cfg).sweep_outcomes(&w, &cells, 1);

    let text = metrics_json("observability_test", &outcomes);
    let doc = Json::parse(&text).expect("metrics must parse as JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sdv-metrics-v1"));
    let parsed = doc.get("cells").and_then(Json::as_arr).expect("cells array");
    assert_eq!(parsed.len(), 2);
    for cell in parsed {
        let stalls = cell.get("stalls").expect("stalls key present");
        assert_ne!(*stalls, Json::Null, "live sweeps always carry stats");
        let frac =
            stalls.get("memory_stall_fraction").and_then(Json::as_f64).expect("fraction present");
        assert!((0.0..=1.0).contains(&frac), "fraction in [0,1]: {frac}");
        // At +1024 both cells are memory-crushed.
        assert!(frac > 0.9, "fraction={frac}");
    }
    let scalar = &parsed[0];
    assert_eq!(scalar.get("impl").and_then(Json::as_str), Some("scalar"));
    assert_eq!(
        scalar.get("stalls").and_then(|s| s.get("vpu_queue")).and_then(Json::as_f64),
        Some(0.0),
        "the scalar implementation never waits on the VPU"
    );
}

#[test]
fn memory_stall_fraction_falls_as_maxvl_grows() {
    let w = Workloads::small();
    let maxvls = [8usize, 16, 32, 64, 128, 256];
    let cells: Vec<Cell> = maxvls
        .iter()
        .map(|&maxvl| Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl },
            extra_latency: 1024,
            bandwidth: 64,
        })
        .collect();
    let outcomes = Sweeper::new().sweep_outcomes(&w, &cells, 1);
    let fractions: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Done(r) => {
                StallBreakdown::from_stats(r.cycles, &r.stats).unwrap().memory_stall_fraction()
            }
            CellOutcome::Failed { error, .. } => panic!("cell failed: {error}"),
        })
        .collect();
    // Same saturation tolerance as `study fig_stalls`'s gate: adjacent
    // small-MAXVL fractions are ties near 1.0 that jitter in the 4th
    // decimal; a real rise would far exceed 0.2%.
    for (w, (&vl_lo, &vl_hi)) in fractions.windows(2).zip(maxvls.iter().zip(maxvls.iter().skip(1)))
    {
        assert!(
            w[1] <= w[0] + 2e-3,
            "memory-stall fraction must not rise with MAXVL: \
             vl{vl_lo}={:.6} -> vl{vl_hi}={:.6}",
            w[0],
            w[1]
        );
    }
    // And the fall must be real end-to-end, not all ties.
    assert!(
        fractions[maxvls.len() - 1] < fractions[0] || fractions[0] >= 1.0 - 1e-9,
        "expected a strict fall (or full saturation at vl=8): {fractions:?}"
    );
}

/// `study fig_stalls` through the binary: exit 0 only if every kernel's
/// memory-stall fraction and cycles at +1024 never rise as MAXVL grows — the
/// paper's claim as a gate — and its `--metrics-json` has cycles and stalls
/// on every cell.
#[test]
fn fig_stalls_gate_passes_and_exports_parseable_metrics() {
    let dir = scratch("fig_stalls");
    let path = path_in(&dir, "metrics.json");
    ok(env!("CARGO_BIN_EXE_study"), &["fig_stalls", "--small", "--metrics-json", &path]);
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("metrics written")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sdv-metrics-v1"));
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells array");
    assert_eq!(cells.len(), 56, "four kernels × seven implementations × two latencies");
    assert!(cells.iter().all(|c| c.get("stalls").is_some() && c.get("cycles").is_some()));
}
