//! Golden output of the study driver, the five figures among its entries,
//! driven through the built binary.
//!
//! Every file under `results/golden/study_small/` and every
//! `results/golden/fig{3,4,5}_small.*` was written by the binaries of the
//! commit *before* the twelve study binaries became `study NAME` and the
//! three figure mains became `figure::main`; `fig_stalls_small.*` and
//! `fig_scale_small.*` by the `fig_stalls` and `fig_scale` binaries before
//! they became `study` entries. They pin stdout and CSV bytes across those
//! refactors and any later one. The same entries at paper scale are
//! `results/`, which `scripts/check.sh` regenerates with `study all` and
//! diffs.
//!
//! Regenerate after a deliberate model change, in the commit that moves
//! `results/golden/fig3_small.csv`, with
//! `study all --small --out results/golden/study_small`, then move each
//! figure's `NAME.{txt,csv}` it wrote there to `results/golden/NAME_small.*`,
//! dropping the `.txt`'s last line (`wrote …`).

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

/// The entries that write a CSV beside their stdout.
const FIGURES: [&str; 5] = ["fig3", "fig4", "fig5", "fig_stalls", "fig_scale"];

fn entries(cache_dir: &str) -> usize {
    std::fs::read_dir(cache_dir)
        .expect("cache directory exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".entry"))
        .count()
}

/// `(requested, simulated)` from `study all`'s stderr line for `what` (a
/// study's name, or `None` for the total).
fn cells(stderr: &str, what: Option<&str>) -> (usize, usize) {
    let prefix = what.map_or("study all: ".to_string(), |name| format!("study all: {name}: "));
    let line = stderr
        .lines()
        .find(|l| l.strip_prefix(&prefix).is_some_and(|rest| rest.starts_with(char::is_numeric)))
        .unwrap_or_else(|| panic!("no line for {what:?} in {stderr}"));
    let numbers: Vec<usize> =
        line.split_whitespace().filter_map(|w| w.trim_end_matches(',').parse().ok()).collect();
    assert_eq!(numbers.len(), 2, "{line}");
    (numbers[0], numbers[1])
}

/// `study all --small --out DIR` wrote every golden file and nothing else;
/// returns its stderr.
fn all_writes_the_golden_files(dir: &str, extra: &[&str]) -> String {
    let (_, stderr) = ok(STUDY, &[&["all", "--small", "--out", dir][..], extra].concat());
    let file = |name: &str| {
        let path = std::path::Path::new(dir).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    for name in DETERMINISTIC {
        let want = golden(&format!("study_small/{name}.txt"));
        assert!(file(&format!("{name}.txt")) == want, "{name} {extra:?}");
    }
    for fig in FIGURES {
        let csv = path_in(std::path::Path::new(dir), &format!("{fig}.csv"));
        let want = format!("{}wrote {csv}\n", golden(&format!("{fig}_small.txt")));
        assert!(file(&format!("{fig}.txt")) == want, "{fig} stdout {extra:?}");
        assert!(file(&format!("{fig}.csv")) == golden(&format!("{fig}_small.csv")), "{fig} CSV");
    }
    let written = std::fs::read_dir(dir).expect("--out DIR exists").count();
    assert_eq!(written, DETERMINISTIC.len() + 2 * FIGURES.len(), "{dir} holds only its files");
    stderr
}

#[test]
fn all_reproduces_every_golden_file_at_any_thread_count_cold_and_warm() {
    let dir = scratch("all");
    let stderr = all_writes_the_golden_files(&path_in(&dir, "t1"), &["--threads", "1"]);
    let (requested, simulated) = cells(&stderr, None);
    assert!(simulated < requested, "the memo answered nothing: {stderr}");
    // Fig. 4 is Fig. 3's grid; Fig. 5's 64 B/cycle column is its +0 column;
    // the stall breakdown is Fig. 3's +0 and +1024 columns; the scale-out's
    // one-tile cells are Fig. 3 cells, and its 4- and 16-tile ones new.
    assert_eq!(cells(&stderr, Some("fig3")), (224, 224), "{stderr}");
    assert_eq!(cells(&stderr, Some("fig4")), (224, 0), "{stderr}");
    assert_eq!(cells(&stderr, Some("fig5")), (196, 168), "{stderr}");
    assert_eq!(cells(&stderr, Some("fig_stalls")), (56, 0), "{stderr}");
    assert_eq!(cells(&stderr, Some("fig_scale")), (27, 18), "{stderr}");

    // Each distinct cell once: a cold cache stores one entry per simulation.
    let cache = path_in(&dir, "cache");
    let cached = ["--threads", "2", "--cache-dir", &cache];
    let cold = all_writes_the_golden_files(&path_in(&dir, "t2_cold"), &cached);
    assert_eq!(cells(&cold, None), (requested, simulated), "{cold}");
    assert_eq!(entries(&cache), simulated, "one entry per simulated cell");
    let warm = all_writes_the_golden_files(&path_in(&dir, "t2_warm"), &cached);
    assert_eq!(cells(&warm, None), (requested, 0), "{warm}");
    assert_eq!(entries(&cache), simulated, "a warm rerun must not store a new entry");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn each_input_is_keyed_by_its_content() {
    // One entry per distinct cell is what says two inputs never share a key:
    // three σ values × two latencies, five input families × three
    // implementations × two latencies.
    let dir = scratch("keys");
    for (name, want) in [("ablation_sigma", 6), ("inputs_study", 30)] {
        let cache = path_in(&dir, name);
        let args = [name, "--small", "--threads", "2", "--cache-dir", &cache];
        let golden = golden(&format!("study_small/{name}.txt"));
        assert_eq!(ok(STUDY, &args).0, golden, "{name}, cold cache");
        assert_eq!(entries(&cache), want, "{name}: each input is keyed by its content");
        assert_eq!(ok(STUDY, &args).0, golden, "{name}, warm cache");
        assert_eq!(entries(&cache), want, "{name}: a warm rerun must not store a new entry");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_list_names_every_entry_and_every_results_file_has_one() {
    let list = ok(STUDY, &["--list"]).0;
    let listed: Vec<&str> = list.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(listed.len(), 17, "{list}");
    let mut deterministic: Vec<&str> =
        listed.iter().copied().filter(|n| *n != "calibrate").collect();
    deterministic.sort_unstable();
    let mut want = [&DETERMINISTIC[..], &FIGURES].concat();
    want.sort_unstable();
    assert_eq!(deterministic, want, "the golden set is the listed set");
    for entry in std::fs::read_dir(results_dir()).expect("results/").flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = file.strip_suffix(".txt") else { continue };
        assert!(listed.contains(&stem), "results/{file} has no study behind it");
    }
    for name in want {
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
    // fig3 twice: the CSV must not depend on the thread count, nor on an
    // armed watchdog. Each run goes cold, then warm, through a cache
    // directory of its own, and both must be the golden bytes: the warm
    // fig_scale run replays every multi-tile cell from the cache, so
    // topology is part of every cache key.
    for (fig, threads) in [
        ("fig3", "2"),
        ("fig3", "1"),
        ("fig4", "2"),
        ("fig5", "2"),
        ("fig_stalls", "2"),
        ("fig_scale", "2"),
    ] {
        let cache = path_in(&dir, &format!("{fig}_t{threads}"));
        for run in ["cold", "warm"] {
            let csv = format!("{cache}_{run}.csv");
            let args = [fig, "--small", "--threads", threads, "--cache-dir", &cache, "--csv", &csv];
            let watchdog: &[&str] = if threads == "1" { &["--watchdog"] } else { &[] };
            let stdout = ok(STUDY, &[&args[..], watchdog].concat()).0;
            let want = format!("{}wrote {csv}\n", golden(&format!("{fig}_small.txt")));
            assert_eq!(stdout, want, "{fig} stdout, {threads} threads, {run}");
            let csv_text = std::fs::read_to_string(&csv).expect("figure wrote its CSV");
            let want = golden(&format!("{fig}_small.csv"));
            assert!(csv_text == want, "{fig} CSV, {threads} threads, {run}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_mistyped_or_foreign_flag_is_a_usage_error_not_a_different_simulation() {
    for (bin, args, named) in [
        (STUDY, &["fig3", "--smal"][..], "--smal"),
        (STUDY, &["fig3", "--small", "--csv"], "--csv"),
        (STUDY, &["lanes_study", "--server", "x"], "--server"),
        (STUDY, &["lanes_study", "--csv", "x"], "study fig3, fig4, fig5, fig_stalls, fig_scale"),
        (STUDY, &["fig_scale", "--server", "x"], "--server"),
        (STUDY, &["fig_scale", "--trace", "x"], "--trace"),
        (STUDY, &["fig_scale", "--tiles", "4"], "--tiles"),
        (STUDY, &["fig_stalls", "--latency", "512"], "--latency"),
        (STUDY, &["fig_stalls", "--check"], "--check"),
        (STUDY, &["all", "--small"], "--out"),
        (STUDY, &["fig3", "--out", "x"], "study all"),
        (STUDY, &["roofline", "--small", "--bw", "x"], "--bw"),
        (STUDY, &["lanes_study", "--small", "--bw", "8"], "roofline"),
        (STUDY, &["nosuch"], "ablation_sigma"),
        (STUDY, &[], "ablation_sigma"),
        (STUDY, &["calibrate", "--paper"], "--small"),
        (STUDY, &["lanes_study", "--checkpoint", "ck"], "--cache-dir"),
        (STUDY, &["fig4", "--small", "--retry-seed", "5"], "--retry-seed"),
        (STUDY, &["fig3", "--small", "--fallback-local"], "--fallback-local"),
        (env!("CARGO_BIN_EXE_sweepd"), &["ping", "--adr", "127.0.0.1:1"], "--adr"),
        (env!("CARGO_BIN_EXE_sweepd"), &["ping", "--retry-seed", "1"], "--retry-seed"),
        (env!("CARGO_BIN_EXE_sweepd"), &["serve", "--probe-sampling"], "--probe-sampling"),
        (env!("CARGO_BIN_EXE_sweepd"), &["serve", "--chaos", "all"], "--chaos"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{bin} {args:?} must name {named}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results before failing");
    }
}
