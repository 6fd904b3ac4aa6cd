//! The paper's three grid figures, written once.
//!
//! `fig3_latency`, `fig4_slowdown` and `fig5_bandwidth` are the same
//! program: sweep kernel × implementation × one knob axis through a
//! [`Sweeper`], print one table (and chart) per kernel, export a CSV. A
//! [`Figure`] decides exactly four things — the knob axis, what a cell shows,
//! the chart, and which cell `--trace` re-runs; everything else (flag
//! checking, hardening, cache/server wiring, `FAILED` cells, metrics export,
//! exit code 4) is the one loop in [`main`].

use crate::plot::{line_chart, Series};
use crate::table::{render, slowdown_cell};
use crate::{cli, metrics, Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use std::fmt::Write as _;

/// Which of the paper's grid figures to print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 3: cycles vs added latency, with a log-scale chart.
    Latency,
    /// Figure 4: slowdown vs the implementation's own 0-latency run, plus
    /// the paper's §4.1 SpMV anchors.
    Slowdown,
    /// Figure 5: time vs bandwidth cap, normalized to 1 B/cycle, with a
    /// linear chart.
    Bandwidth,
}

const LATENCIES: &[u64] = &[0, 16, 32, 64, 128, 256, 512, 1024];
const BANDWIDTHS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Run one figure binary end to end (parses `std::env::args`, exits the
/// process on usage errors and failed cells).
pub fn main(fig: Figure) {
    // The axis's first value is every implementation's baseline column.
    let (bin, axis, row_header, csv_header) = match fig {
        Figure::Latency => {
            ("fig3_latency", LATENCIES, "+latency", "kernel,impl,extra_latency,cycles\n")
        }
        Figure::Slowdown => {
            ("fig4_slowdown", LATENCIES, "+latency", "kernel,impl,extra_latency,slowdown\n")
        }
        Figure::Bandwidth => (
            "fig5_bandwidth",
            BANDWIDTHS,
            "bandwidth",
            "kernel,impl,bandwidth_bytes_per_cycle,normalized_time\n",
        ),
    };
    let cell_at = |kernel, imp, x| match fig {
        Figure::Latency | Figure::Slowdown => Cell { kernel, imp, extra_latency: x, bandwidth: 64 },
        Figure::Bandwidth => Cell { kernel, imp, extra_latency: 0, bandwidth: x },
    };

    let args: Vec<String> = std::env::args().collect();
    cli::check_sweep_flags(bin, &args, &[], &["--trace", "--trace-kernel"]);
    let small = args.iter().any(|a| a == "--small");
    let threads = cli::threads(bin, &args);
    let csv = cli::arg_value(&args, "--csv");
    let cfg = cli::hardening_config(&args).unwrap_or_else(|e| cli::die_usage(bin, &e));

    let w = if small { Workloads::small() } else { Workloads::paper() };
    let impls = ImplKind::paper_set();

    // The whole figure is ONE grid: the long-pole-first schedule then orders
    // cells across all four kernels, so workers never idle at a per-kernel
    // boundary, and the pooled machines are reused from kernel to kernel.
    let mut sweeper = Sweeper::with_config(cfg);
    cli::configure_sweeper(bin, &args, &mut sweeper, if small { "small" } else { "paper" });
    let cells: Vec<Cell> = KernelKind::all()
        .into_iter()
        .flat_map(|kernel| {
            impls.iter().flat_map(move |&imp| axis.iter().map(move |&x| cell_at(kernel, imp, x)))
        })
        .collect();
    let outcomes = sweeper.sweep_outcomes(&w, &cells, threads);

    let mut csv_out = String::from(csv_header);
    let headers: Vec<String> = impls.iter().map(|i| i.to_string()).collect();
    let mut anchor = None;
    let per_kernel = impls.len() * axis.len();
    for (kernel, block) in KernelKind::all().into_iter().zip(outcomes.chunks(per_kernel)) {
        let name = kernel.name();
        // block[ii * axis.len() + xi]. A failed cell — or, for the two
        // normalized figures, a failed baseline — is None and shows FAILED.
        let cycles = |ii: usize, xi: usize| block[ii * axis.len() + xi].cycles();
        let norm = |ii, xi| Some(cycles(ii, xi)? as f64 / cycles(ii, 0)? as f64);
        let rows: Vec<(String, Vec<String>)> = axis
            .iter()
            .enumerate()
            .map(|(xi, &x)| {
                let shown = impls
                    .iter()
                    .enumerate()
                    .map(|(ii, imp)| {
                        let (table, csv) = match fig {
                            Figure::Latency => {
                                let c = cycles(ii, xi).map(|c| c.to_string());
                                (c.clone(), c)
                            }
                            Figure::Slowdown => {
                                let s = norm(ii, xi);
                                (s.map(slowdown_cell), s.map(|s| format!("{s:.4}")))
                            }
                            Figure::Bandwidth => {
                                let n = norm(ii, xi);
                                (n.map(|n| format!("{n:.3}")), n.map(|n| format!("{n:.4}")))
                            }
                        };
                        let failed = || "FAILED".to_string();
                        writeln!(csv_out, "{name},{imp},{x},{}", csv.unwrap_or_else(failed))
                            .unwrap();
                        table.unwrap_or_else(failed)
                    })
                    .collect();
                let label = match fig {
                    Figure::Latency => x.to_string(),
                    Figure::Slowdown => format!("+{x}"),
                    Figure::Bandwidth => format!("{x} B/cy"),
                };
                (label, shown)
            })
            .collect();
        let title = match fig {
            Figure::Latency => {
                format!("Figure 3 — {name} execution time [cycles] vs added latency")
            }
            Figure::Slowdown => {
                format!("Figure 4 — {name} slowdown vs own 0-latency run (scalar .. vl=256)")
            }
            Figure::Bandwidth => format!(
                "Figure 5 — {name} execution time vs bandwidth cap (normalized to 1 B/cycle)"
            ),
        };
        println!("{}", render(&title, row_header, &headers, &rows));

        if fig == Figure::Slowdown {
            if kernel == KernelKind::Spmv {
                let at = |lat: u64, ii| norm(ii, axis.iter().position(|&l| l == lat)?);
                let (scalar, vl256) = (0, impls.len() - 1);
                anchor = Some(
                    match [at(32, scalar), at(32, vl256), at(1024, scalar), at(1024, vl256)] {
                        [Some(s32), Some(v32), Some(s1024), Some(v1024)] => format!(
                            "SpMV anchor (paper §4.1: +32 ⇒ scalar 1.22x vs vl256 1.05x; +1024 ⇒ 8.78x vs 3.39x)\n\
                             measured: +32 ⇒ scalar {s32:.2}x vs vl256 {v32:.2}x; +1024 ⇒ scalar {s1024:.2}x vs vl256 {v1024:.2}x"
                        ),
                        _ => "SpMV anchor skipped — anchor cells failed".to_string(),
                    },
                );
            }
            continue;
        }
        // The chart needs every point; skip it when any cell of this kernel
        // failed (the table above still shows which ones).
        if !block.iter().all(CellOutcome::is_done) {
            println!("{name}: chart skipped — kernel has failed cells\n");
            continue;
        }
        let log = fig == Figure::Latency;
        let series: Vec<Series> = impls
            .iter()
            .enumerate()
            .map(|(ii, imp)| Series {
                label: imp.to_string(),
                ys: (0..axis.len())
                    .map(|xi| if log { cycles(ii, xi).map(|c| c as f64) } else { norm(ii, xi) })
                    .map(|y| y.expect("every cell of this kernel completed"))
                    .collect(),
            })
            .collect();
        let (title, x_labels): (String, Vec<String>) = if log {
            (
                format!("{name} (log cycles; paper Fig. 3 shape: darker/longer VL = flatter)"),
                axis.iter().map(|l| format!("+{l}")).collect(),
            )
        } else {
            (
                format!("{name} (normalized time; paper Fig. 5 shape: longer VL = later plateau)"),
                axis.iter().map(|b| format!("{b}B/cy")).collect(),
            )
        };
        println!("{}", line_chart(&title, &x_labels, &series, 16, log));
    }
    if let Some(a) = anchor {
        println!("{a}\n");
    }
    if let Some(path) = csv {
        if let Err(e) = std::fs::write(path, csv_out) {
            cli::die_bad_input(bin, &format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
    metrics::write_metrics_if_requested(bin, &args, &outcomes);
    // The traced cell: SpMV at vl=256 under the figure's harshest setting
    // (the highest latency, or the tightest bandwidth cap).
    let stress = match fig {
        Figure::Latency | Figure::Slowdown => *axis.last().expect("axis is not empty"),
        Figure::Bandwidth => axis[0],
    };
    metrics::write_trace_if_requested(
        bin,
        &args,
        &w,
        cfg,
        cell_at(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }, stress),
    );
    cli::report_failures_and_exit(bin, &outcomes);
}
