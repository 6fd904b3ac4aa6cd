//! `sdvbench`: host-time benchmark of the longvec-sdv simulator.
//!
//! One workload per process. Without tracing it measures the end-to-end
//! metrics; with tracing it drives the same cells through public calls,
//! records spans in memory, replays parts of the work through one layer at a
//! time, and reports the per-layer metrics. See `README.md` in this
//! directory.

mod alloc;
mod attribute;
mod catalog;
mod drive;
mod estimate;
mod layers;
mod measure;
mod selfcheck;
mod spans;

use catalog::MetricDef;
use measure::Report;
use sdv_bench::cli::{arg_value, parse_arg};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: sdvbench --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
       sdvbench --selfcheck [--seed N] [--seconds S]
       sdvbench --spread [--workload NAME] [--seconds S]
       sdvbench --baseline [--seed N] [--seconds S]
       sdvbench --list | --print-benchmark-json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--seed` and `--seconds`, shared by the single-run and the multi-run modes.
fn seed_and_seconds(args: &[String]) -> Result<(u64, f64), String> {
    let seed = parse_arg(args, "--seed")?.unwrap_or(catalog::DEFAULT_SEED);
    let seconds: f64 = parse_arg(args, "--seconds")?.unwrap_or(catalog::RUN_SECONDS as f64);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds: {seconds} is not a positive number"));
    }
    Ok((seed, seconds))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = arg_value(args, "--workload")
        .ok_or("--workload NAME is required")?
        .to_string();
    let (seed, seconds) = seed_and_seconds(args)?;
    // `--trace 0|1` is what the driver passes; a bare `--trace` means 1.
    let trace = match args.iter().position(|a| a == "--trace") {
        None => false,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("0") => false,
            Some("1") | None => true,
            Some(other) if other.starts_with("--") => true,
            Some(other) => return Err(format!("--trace: '{other}' is not 0 or 1")),
        },
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number with all its digits; a non-finite value prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Every metric by name with its unit, then the result object as the last
/// line of standard output.
fn print_report(defs: &[MetricDef], end_to_end: bool, r: &Report) -> Result<(), String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let v = match r.get(d.name) {
            Some(v) => v,
            // A layer the workload does not enter reports 0; an end-to-end
            // metric that is missing means the workload did not run.
            None if !end_to_end => 0.0,
            None => return Err(format!("metric {} was not measured", d.name)),
        };
        println!("{:<44} {:>18} {}", d.name, json_num(v), d.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_num(v),
            d.unit
        ));
    }
    println!(
        "attempted {}  failed {}  correct {}",
        r.attempted, r.failed, r.correct
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run_workload(a: &Args) -> Result<(), String> {
    let spec = catalog::spec(&a.workload).ok_or_else(|| {
        let names: Vec<&str> = catalog::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload '{}' (expected one of: {})",
            a.workload,
            names.join(", ")
        )
    })?;
    println!(
        "# sdvbench {} seed={} seconds={} trace={} build={} threads_available={}",
        spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        sdv_engine::build_info(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if a.seed != catalog::DEFAULT_SEED && spec.anchor.is_some() {
        println!("# seed {} is not the paper's: anchor.err_pct is not comparable with the paper at this seed", a.seed);
    }
    if a.trace {
        let r = attribute::run(spec, a.seed, a.seconds)?;
        print_report(&catalog::PER_LAYER, false, &r)
    } else {
        let r = measure::run(spec, a.seed, a.seconds)?;
        print_report(&catalog::END_TO_END, true, &r)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        Ok(())
    } else if args.iter().any(|a| a == "--list") {
        for s in &catalog::SPECS {
            println!("{:<20} {}", s.name, s.why);
        }
        Ok(())
    } else if args.iter().any(|a| a == "--selfcheck") {
        selfcheck::run(&args)
    } else if args.iter().any(|a| a == "--spread") {
        selfcheck::run_spread(&args)
    } else if args.iter().any(|a| a == "--baseline") {
        selfcheck::run_baseline(&args)
    } else {
        parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run_workload(&a))
    };
    if let Err(e) = outcome {
        eprintln!("sdvbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&args(
            "--workload tiles_scaleout --seed 17 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tiles_scaleout", 17, 20.0, true)
        );
        assert!(!parse_args(&args("--workload x --trace 0")).unwrap().trace);
        assert!(parse_args(&args("--workload x --trace")).unwrap().trace);
        assert!(parse_args(&args("--trace --workload x")).unwrap().trace);
        assert!(!parse_args(&args("--workload x")).unwrap().trace);
        assert_eq!(
            parse_args(&args("--workload x")).unwrap().seed,
            catalog::DEFAULT_SEED
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seed minus")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
    }

    #[test]
    fn numbers_print_with_all_digits_and_never_as_nan() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
    }
}
