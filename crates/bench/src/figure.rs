//! The paper's three grid figures, rendered once.
//!
//! Figs. 3, 4 and 5 are one program: sweep kernel × implementation × one
//! knob axis, print one table (and chart) per kernel, export a CSV. A
//! [`Figure`] decides exactly four things — the knob axis, what a cell shows,
//! the chart, and which cell `--trace` re-runs. `study fig3`, `fig4` and
//! `fig5` run the grid and write the files.

use crate::plot::{line_chart, Series};
use crate::table::{render, slowdown_cell};
use crate::{Cell, CellOutcome, ImplKind, KernelKind};
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

/// The knob axis. Its first value is every implementation's baseline column.
fn axis(fig: Figure) -> &'static [u64] {
    match fig {
        Figure::Latency | Figure::Slowdown => LATENCIES,
        Figure::Bandwidth => BANDWIDTHS,
    }
}

fn cell_at(fig: Figure, kernel: KernelKind, imp: ImplKind, x: u64) -> Cell {
    match fig {
        Figure::Latency | Figure::Slowdown => Cell { kernel, imp, extra_latency: x, bandwidth: 64 },
        Figure::Bandwidth => Cell { kernel, imp, extra_latency: 0, bandwidth: x },
    }
}

/// The whole figure as one grid, so that the long-pole-first schedule orders
/// cells across all four kernels: kernel × the paper's implementations × the
/// axis, the axis varying fastest.
pub fn cells(fig: Figure) -> Vec<Cell> {
    let impls = ImplKind::paper_set();
    let per_kernel = |k| impls.iter().flat_map(move |&i| axis(fig).iter().map(move |&x| (k, i, x)));
    let cell = |(k, i, x)| cell_at(fig, k, i, x);
    KernelKind::all().into_iter().flat_map(per_kernel).map(cell).collect()
}

/// The cell `--trace` re-runs: SpMV at vl=256 under the figure's harshest
/// setting (the highest latency, or the tightest bandwidth cap).
pub fn traced_cell(fig: Figure) -> Cell {
    let axis = axis(fig);
    let stress = if fig == Figure::Bandwidth { axis[0] } else { axis[axis.len() - 1] };
    cell_at(fig, KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }, stress)
}

/// The figure's stdout and CSV for `outcomes`, [`cells`]'s outcomes in order.
pub fn text_and_csv(fig: Figure, outcomes: &[CellOutcome]) -> (String, String) {
    let (axis, impls) = (axis(fig), ImplKind::paper_set());
    let (row_header, csv_header) = match fig {
        Figure::Latency => ("+latency", "kernel,impl,extra_latency,cycles\n"),
        Figure::Slowdown => ("+latency", "kernel,impl,extra_latency,slowdown\n"),
        Figure::Bandwidth => {
            ("bandwidth", "kernel,impl,bandwidth_bytes_per_cycle,normalized_time\n")
        }
    };
    let mut text = String::new();
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
        // A cell's table and CSV text.
        let shown = |ii, xi| match fig {
            Figure::Latency => cycles(ii, xi).map(|c| [c.to_string(), c.to_string()]),
            Figure::Slowdown => norm(ii, xi).map(|s| [slowdown_cell(s), format!("{s:.4}")]),
            Figure::Bandwidth => norm(ii, xi).map(|n| [format!("{n:.3}"), format!("{n:.4}")]),
        };
        let failed = || ["FAILED".to_string(), "FAILED".to_string()];
        let rows: Vec<(String, Vec<String>)> = axis
            .iter()
            .enumerate()
            .map(|(xi, &x)| {
                let shown = impls
                    .iter()
                    .enumerate()
                    .map(|(ii, imp)| {
                        let [table, csv] = shown(ii, xi).unwrap_or_else(failed);
                        writeln!(csv_out, "{name},{imp},{x},{csv}").unwrap();
                        table
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
        let (number, what) = match fig {
            Figure::Latency => (3, "execution time [cycles] vs added latency"),
            Figure::Slowdown => (4, "slowdown vs own 0-latency run (scalar .. vl=256)"),
            Figure::Bandwidth => (5, "execution time vs bandwidth cap (normalized to 1 B/cycle)"),
        };
        let title = format!("Figure {number} — {name} {what}");
        writeln!(text, "{}", render(&title, row_header, &headers, &rows)).unwrap();

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
            writeln!(text, "{name}: chart skipped — kernel has failed cells\n").unwrap();
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
        let x_labels: Vec<String> =
            axis.iter().map(|x| if log { format!("+{x}") } else { format!("{x}B/cy") }).collect();
        let shape = if log {
            "log cycles; paper Fig. 3 shape: darker/longer VL = flatter"
        } else {
            "normalized time; paper Fig. 5 shape: longer VL = later plateau"
        };
        let title = format!("{name} ({shape})");
        writeln!(text, "{}", line_chart(&title, &x_labels, &series, 16, log)).unwrap();
    }
    if let Some(a) = anchor {
        writeln!(text, "{a}\n").unwrap();
    }
    (text, csv_out)
}
