//! The `longvec-sdv` front end, driven through the built binary: a bad
//! command line is exit 2 naming what is wrong, never a panic, a silently
//! ignored flag or a help page with exit 0; a good one prints the cycles the
//! golden fig3 CSV holds for the same cell.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_longvec-sdv")).args(args).output().expect("longvec-sdv runs")
}

#[test]
fn a_bad_command_line_is_a_usage_error_naming_the_argument() {
    for (args, named) in [
        (&["run", "--small", "--vl", "abc"][..], "--vl"),
        (&["run", "--small", "--vl", "0"], "--vl"),
        (&["run", "--small", "--latnecy", "512"], "--latnecy"),
        (&["run", "--small", "--kernel", "dgemm"], "dgemm"),
        (&["run", "--small", "--bw", "0"], "--bw"),
        (&["run", "--small", "--latency", "18446744073709551615"], "--latency"),
        (&["runn", "--small"], "runn"),
        (&["sweep", "--small"], "study fig3"),
        (&["describe", "extra"], "extra"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} must name {named}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout before failing");
    }
}

#[test]
fn run_prints_the_golden_fig3_cycles() {
    let golden = include_str!("../results/golden/fig3_small.csv");
    assert!(golden.lines().any(|l| l == "BFS,vl=256,0,197931"), "the golden row moved");
    let out = run(&["run", "--small", "--kernel", "bfs"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, "BFS vl=256 +0 latency, 64 B/cy: 197931 cycles\n");
}
