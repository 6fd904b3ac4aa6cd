//! `longvec-sdv` — command-line front end to the FPGA-SDV platform model.
//!
//! ```text
//! longvec-sdv describe                  print the instantiated platform (Fig. 1/2)
//! longvec-sdv run [options]             run one kernel cell and print cycles + stats
//!
//! options:
//!   --kernel spmv|bfs|pr|fft            (default spmv)
//!   --impl scalar|vector                (default vector)
//!   --vl N                              MAXVL cap for vector runs (default 256)
//!   --latency N                         extra DRAM latency cycles, below 2^32 (default 0)
//!   --bw N                              bandwidth cap, 1-64 bytes/cycle (default 64)
//!   --small                             reduced workloads
//!   --stats                             print component statistics after a run
//! ```
//!
//! A malformed command line is exit 2 naming the offending argument. Sweeps
//! of either knob are `study fig3` and `study fig5` (`crates/bench`).

use sdv_bench::cli::{check_flags_or_die, die_usage, parse_arg};
use sdv_bench::{run, Cell, ImplKind, KernelKind, Workloads};
use sdv_core::SdvMachine;
use sdv_uarch::TimingConfig;

const BIN: &str = "longvec-sdv";
const USAGE: &str = "longvec-sdv — FPGA-SDV platform model (see README.md)\n\n\
     usage: longvec-sdv describe\n       \
     longvec-sdv run [--kernel K] [--impl I] [--vl N] [--latency N] [--bw N] [--small] [--stats]";

/// The value of `key`, `default` when absent; exit 2 when malformed.
fn value<T>(args: &[String], key: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    parse_arg(args, key).unwrap_or_else(|e| die_usage(BIN, &e)).unwrap_or(default)
}

fn parse_cell(args: &[String]) -> Cell {
    let valued = ["--kernel", "--impl", "--vl", "--latency", "--bw"];
    check_flags_or_die(BIN, args, &["--small", "--stats"], &valued);
    let kernel: String = value(args, "--kernel", "spmv".into());
    let kernel = kernel.to_ascii_uppercase().parse::<KernelKind>().unwrap_or_else(|_| {
        die_usage(BIN, &format!("--kernel: unknown kernel '{kernel}' (spmv|bfs|pr|fft)"))
    });
    let maxvl: usize = value(args, "--vl", 256);
    if maxvl == 0 {
        die_usage(BIN, "--vl must be positive");
    }
    let imp = match value(args, "--impl", String::from("vector")).as_str() {
        "scalar" => ImplKind::Scalar,
        "vector" => ImplKind::Vector { maxvl },
        other => {
            die_usage(BIN, &format!("--impl: unknown implementation '{other}' (scalar|vector)"))
        }
    };
    let cell = Cell {
        kernel,
        imp,
        extra_latency: value(args, "--latency", 0),
        bandwidth: value(args, "--bw", 64),
    };
    if let Err(e) = cell.check_knobs(&TimingConfig::default()) {
        die_usage(BIN, &format!("--latency {} --bw {}: {e}", cell.extra_latency, cell.bandwidth));
    }
    cell
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => println!("{USAGE}"),
        Some("describe") => {
            check_flags_or_die(BIN, &args, &[], &[]);
            println!("{}", SdvMachine::new(1 << 12).describe());
        }
        Some("run") => {
            let cell = parse_cell(&args);
            let w = if args.iter().any(|a| a == "--small") {
                Workloads::small()
            } else {
                Workloads::paper()
            };
            let r = run(&w, cell);
            println!(
                "{} {} +{} latency, {} B/cy: {} cycles",
                cell.kernel.name(),
                cell.imp,
                cell.extra_latency,
                cell.bandwidth,
                r.cycles
            );
            if args.iter().any(|a| a == "--stats") {
                print!("{}", r.stats);
            }
        }
        Some("sweep") => die_usage(
            BIN,
            "sweep was removed: study fig3 sweeps the latency knob and study fig5 the \
             bandwidth knob, grouped and cached",
        ),
        Some(other) => die_usage(BIN, &format!("unknown command '{other}'\n{USAGE}")),
    }
}
