//! Golden output of the study driver and the three grid figures, driven
//! through the built binaries.
//!
//! Every file under `results/golden/study_small/` and every
//! `results/golden/fig{3,4,5}_small.*` was written by the binaries of the
//! commit *before* the twelve study binaries became `study NAME` and the
//! three figure mains became `figure::main` — they pin stdout and CSV bytes
//! across that refactor and any later one. The same studies at paper scale
//! are `results/NAME.txt`; `scripts/check.sh` diffs those.
//!
//! Regenerate after a deliberate model change with
//! `study NAME --small >results/golden/study_small/NAME.txt` and
//! `figN --small >results/golden/figN_small.txt`, in the commit that moves
//! `results/golden/fig3_small.csv`.

mod common;
use common::{golden, ok, path_in, results_dir, run, scratch};

const STUDY: &str = env!("CARGO_BIN_EXE_study");

/// The eleven deterministic studies (`calibrate` prints wall times).
const DETERMINISTIC: [&str; 11] = [
    "ablation_banks",
    "ablation_mlp",
    "ablation_prefetch",
    "ablation_rows",
    "ablation_sigma",
    "ablation_spmv",
    "dense_contrast",
    "energy_study",
    "inputs_study",
    "lanes_study",
    "roofline",
];

fn entries(cache_dir: &str) -> usize {
    std::fs::read_dir(cache_dir)
        .expect("cache directory exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".entry"))
        .count()
}

#[test]
fn every_study_reproduces_its_golden_bytes_at_any_thread_count_cold_and_warm() {
    let dir = scratch("golden");
    for name in DETERMINISTIC {
        let want = golden(&format!("study_small/{name}.txt"));
        assert_eq!(ok(STUDY, &[name, "--small", "--threads", "1"]).0, want, "{name}");
        let cache = path_in(&dir, name);
        let cached = [name, "--small", "--threads", "2", "--cache-dir", &cache];
        assert_eq!(ok(STUDY, &cached).0, want, "{name}, two threads, cold cache");
        let stored = entries(&cache);
        assert!(stored > 0, "{name} stored nothing");
        assert_eq!(ok(STUDY, &cached).0, want, "{name}, warm cache");
        assert_eq!(entries(&cache), stored, "{name}: a warm rerun must not store a new entry");
        // One entry per distinct cell is what says two inputs never share a
        // key: three σ values × two latencies, five input families × three
        // implementations × two latencies.
        match name {
            "ablation_sigma" => assert_eq!(stored, 6, "each σ is keyed by its own SELL layout"),
            "inputs_study" => assert_eq!(stored, 30, "each input family is keyed by its content"),
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_list_names_every_study_and_every_results_file_has_one() {
    let list = ok(STUDY, &["--list"]).0;
    let listed: Vec<&str> = list.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(listed.len(), 12, "{list}");
    let mut deterministic: Vec<&str> =
        listed.iter().copied().filter(|n| *n != "calibrate").collect();
    deterministic.sort_unstable();
    assert_eq!(deterministic, DETERMINISTIC, "the golden set is the listed set");
    for entry in std::fs::read_dir(results_dir()).expect("results/").flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = file.strip_suffix(".txt") else { continue };
        if !["fig3", "fig4", "fig5"].contains(&stem) {
            assert!(listed.contains(&stem), "results/{file} has no study behind it");
        }
    }
    for name in DETERMINISTIC {
        assert!(results_dir().join(format!("{name}.txt")).exists(), "results/{name}.txt missing");
    }
}

#[test]
fn calibrate_cycles_are_the_golden_fig3_cycles() {
    // kernel impl lat=L bw=B cycles=C dram_lines=D wall=…; the wall time is
    // the one column that may differ from run to run.
    let out = ok(STUDY, &["calibrate", "--small"]).0;
    let fig3 = golden("fig3_small.csv");
    let mut shared = 0;
    for line in out.lines().filter(|l| l.contains("cycles=")) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let value = |key: &str| {
            fields.iter().find_map(|f| f.strip_prefix(key)).unwrap_or_else(|| panic!("{line}"))
        };
        if value("bw=") != "64" {
            continue; // fig3 runs unthrottled
        }
        let row = format!("{},{},{},{}", fields[0], fields[1], value("lat="), value("cycles="));
        assert!(fig3.lines().any(|l| l == row), "calibrate printed {row}, not a fig3 row");
        shared += 1;
    }
    assert_eq!(shared, 32, "four kernels × four implementations × two latencies");
    let one = ok(STUDY, &["calibrate", "--small", "fft"]).0;
    assert_eq!(one.lines().filter(|l| l.contains("cycles=")).count(), 12, "kernel filter");
}

#[test]
fn figures_reproduce_their_golden_stdout_and_csv() {
    let dir = scratch("figures");
    // fig3 twice: the CSV must not depend on the thread count. Each run goes
    // cold, then warm, through a cache directory of its own, and the warm
    // CSV must be the cold one's bytes. fig_stalls has no golden file.
    for (bin, fig, threads) in [
        (env!("CARGO_BIN_EXE_fig3_latency"), "fig3", "2"),
        (env!("CARGO_BIN_EXE_fig3_latency"), "fig3", "1"),
        (env!("CARGO_BIN_EXE_fig4_slowdown"), "fig4", "2"),
        (env!("CARGO_BIN_EXE_fig5_bandwidth"), "fig5", "2"),
        (env!("CARGO_BIN_EXE_fig_stalls"), "fig_stalls", "2"),
    ] {
        let cache = path_in(&dir, &format!("{fig}_t{threads}"));
        let [cold, warm] = ["cold", "warm"].map(|run| {
            let csv = format!("{cache}_{run}.csv");
            let args = ["--small", "--threads", threads, "--cache-dir", &cache, "--csv", &csv];
            (ok(bin, &args).0, std::fs::read_to_string(&csv).expect("figure wrote its CSV"), csv)
        });
        assert_eq!(warm.1, cold.1, "{fig}, {threads} threads: warm CSV");
        if fig == "fig_stalls" {
            continue;
        }
        for (stdout, csv_text, csv) in [cold, warm] {
            let want = format!("{}wrote {csv}\n", golden(&format!("{fig}_small.txt")));
            assert_eq!(stdout, want, "{fig} stdout, {threads} threads");
            let want = golden(&format!("{fig}_small.csv"));
            assert_eq!(csv_text, want, "{fig} CSV, {threads} threads");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_mistyped_or_foreign_flag_is_a_usage_error_not_a_different_simulation() {
    let fig3 = env!("CARGO_BIN_EXE_fig3_latency");
    for (bin, args, named) in [
        (fig3, &["--smal"][..], "--smal"),
        (fig3, &["--small", "--csv"], "--csv"),
        (STUDY, &["lanes_study", "--server", "x"], "--server"),
        (STUDY, &["roofline", "--small", "--bw", "x"], "--bw"),
        (STUDY, &["lanes_study", "--small", "--bw", "8"], "roofline"),
        (STUDY, &["nosuch"], "ablation_sigma"),
        (STUDY, &[], "ablation_sigma"),
        (STUDY, &["calibrate", "--paper"], "--small"),
        (STUDY, &["lanes_study", "--checkpoint", "ck"], "--cache-dir"),
        (env!("CARGO_BIN_EXE_chaos_smoke"), &["--fualt", "wedge-credit"], "--fualt"),
        (env!("CARGO_BIN_EXE_chaos_soak"), &["--run", "1"], "--run"),
        (env!("CARGO_BIN_EXE_sweepd"), &["ping", "--adr", "127.0.0.1:1"], "--adr"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{bin} {args:?} must name {named}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results before failing");
    }
}
