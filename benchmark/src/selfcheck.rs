//! `sdvbench --selfcheck`: run every workload twice in each mode, one child
//! process per run, and compare the two sets with the benchmark's own
//! bounds. A/A evidence: the same code must agree with itself before a
//! difference between two commits means anything.
//!
//! `sdvbench --baseline`: every workload once in each mode, as one JSON
//! document with the host and the build, for `baselines/`.
//!
//! `sdvbench --spread`: the acceptance rule's other half. Ten untraced runs
//! per workload, each with another seed; per end-to-end metric the distance
//! between the first and third quartile as a share of the median, against
//! the metric's bound.

use crate::catalog::{self, MetricDef};
use crate::estimate::{median, spread};
use sdv_bench::json::Json;
use std::process::Command;

struct Run {
    failed: u64,
    attempted: u64,
    metrics: Vec<(String, f64)>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} trace={trace} exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    let v = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("result has no '{k}'"))
    };
    let Some(Json::Obj(fields)) = v.get("metrics") else {
        return Err("result has no 'metrics' object".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Json::Num(raw)) => raw
                .parse::<f64>()
                .map(|x| (name.clone(), x))
                .map_err(|e| format!("{name}: {e}")),
            _ => Err(format!("{name} has no numeric value")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Run {
        failed: num("failed")?,
        attempted: num("attempted")?,
        metrics,
    })
}

/// Compare two runs of one workload in one mode; returns how many metrics
/// disagree beyond what their kind allows.
fn compare(defs: &[MetricDef], end_to_end: bool, a: &Run, b: &Run) -> usize {
    let mut bad = 0;
    for d in defs {
        let find = |r: &Run| r.metrics.iter().find(|(n, _)| n == d.name).map(|e| e.1);
        let (Some(x), Some(y)) = (find(a), find(b)) else {
            println!("  {:<44} MISSING", d.name);
            bad += 1;
            continue;
        };
        let rel = if x == y {
            0.0
        } else {
            (y - x).abs() / x.abs().max(y.abs())
        };
        let verdict = if d.exact {
            if x == y {
                "identical"
            } else {
                bad += 1;
                "DIFFERS (must repeat exactly)"
            }
        } else if end_to_end {
            if x == 0.0 || y == 0.0 {
                bad += 1;
                "ZERO (an end-to-end metric is never 0)"
            } else if rel <= d.bound {
                "within bound"
            } else {
                bad += 1;
                "OUTSIDE BOUND"
            }
        } else {
            "informational"
        };
        let bound = if end_to_end {
            format!("{:.0}%", d.bound * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "  {:<44} {x:>16.6} {y:>16.6} {:>7.2}% {bound:>5}  {verdict}",
            d.name,
            rel * 100.0
        );
    }
    if a.failed != b.failed || a.attempted == 0 {
        println!(
            "  failed operations differ: {} of {} vs {} of {}",
            a.failed, a.attempted, b.failed, b.attempted
        );
        bad += 1;
    }
    bad
}

pub fn run(args: &[String]) -> Result<(), String> {
    let (seed, seconds) = crate::seed_and_seconds(args)?;
    let mut bad = 0;
    for spec in &catalog::SPECS {
        for (trace, defs) in [
            (false, &catalog::END_TO_END[..]),
            (true, &catalog::PER_LAYER[..]),
        ] {
            println!(
                "{} trace={} seed={seed}: first run, second run, difference, bound",
                spec.name,
                u8::from(trace)
            );
            let a = child(spec.name, seed, seconds, trace)?;
            let b = child(spec.name, seed, seconds, trace)?;
            bad += compare(defs, !trace, &a, &b);
        }
    }
    if bad == 0 {
        println!(
            "selfcheck: every end-to-end metric within its bound, every exact metric identical"
        );
        Ok(())
    } else {
        Err(format!(
            "selfcheck: {bad} metrics disagree between two runs of the same code"
        ))
    }
}

/// Seeds of the spread runs: ten that are not the default.
const SPREAD_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

pub fn run_spread(args: &[String]) -> Result<(), String> {
    let (_, seconds) = crate::seed_and_seconds(args)?;
    let only = sdv_bench::cli::arg_value(args, "--workload");
    let mut wide = 0;
    for spec in catalog::SPECS
        .iter()
        .filter(|s| only.is_none_or(|o| o == s.name))
    {
        let mut runs = Vec::new();
        for seed in SPREAD_SEEDS {
            let run = child(spec.name, seed, seconds, false)?;
            if run.failed != 0 {
                return Err(format!(
                    "{} seed {seed}: {} of {} operations failed",
                    spec.name, run.failed, run.attempted
                ));
            }
            runs.push(run);
        }
        println!(
            "{}: {} seeds; metric, median, quartile spread, bound",
            spec.name,
            runs.len()
        );
        for d in &catalog::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == d.name).map(|e| e.1))
                .collect();
            let sp = spread(&values);
            // set-up time is judged on its medians only, not on its spread
            let verdict = if d.name == "setup_s" || sp <= d.bound / 3.0 {
                "steady"
            } else if sp <= d.bound {
                "within bound, above a third of it"
            } else {
                wide += 1;
                "WIDER THAN BOUND"
            };
            println!(
                "  {:<16} {:>14.6} {:>4} {:>7.2}% {:>5.0}%  {verdict}",
                d.name,
                median(&values),
                d.unit,
                sp * 100.0,
                d.bound * 100.0
            );
        }
    }
    if wide == 0 {
        Ok(())
    } else {
        Err(format!(
            "spread: {wide} metrics vary by more than their bound across seeds"
        ))
    }
}

/// The host these numbers were taken on: wall-clock values only compare
/// across runs on the same one.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().replace(['"', '\\'], " "))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run_baseline(args: &[String]) -> Result<(), String> {
    let (seed, seconds) = crate::seed_and_seconds(args)?;
    let mut out = format!(
        "{{\n  \"schema\": \"sdvbench-baseline-v1\",\n  \"build\": \"{}\",\n  \"host_cpu\": \"{}\",\n  \"host_cores\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{",
        sdv_engine::build_info(),
        host_cpu(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (i, spec) in catalog::SPECS.iter().enumerate() {
        out.push_str(&format!(
            "{}\n    \"{}\": {{",
            if i > 0 { "," } else { "" },
            spec.name
        ));
        for (j, (trace, key)) in [(false, "end_to_end"), (true, "per_layer")]
            .into_iter()
            .enumerate()
        {
            let run = child(spec.name, seed, seconds, trace)?;
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            out.push_str(&format!(
                "{}\n      \"{key}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                if j > 0 { "," } else { "" },
                run.attempted,
                run.failed,
                metrics.join(", ")
            ));
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}");
    println!("{out}");
    Ok(())
}
