//! Integration tests for the persistent result cache, driven through the
//! real sweep entry points — what `--cache` actually exercises.

use sdv_bench::{CacheKey, Cell, ImplKind, KernelKind, ResultCache, Sweeper, Workloads};
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;
use std::path::PathBuf;
use std::process::{Command, Stdio};

mod common;
use common::{golden, ok, path_in, scratch};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdv_cache_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 64 }] {
        for extra_latency in [0u64, 256] {
            cells.push(Cell { kernel: KernelKind::Spmv, imp, extra_latency, bandwidth: 64 });
        }
    }
    cells
}

/// A cold sweep fills the cache; a warm sweep on a FRESH `Sweeper` (empty
/// memo) reproduces every cycle count and stat without simulating anything.
#[test]
fn warm_sweep_is_bit_identical_and_simulates_nothing() {
    let dir = temp_dir("warm");
    let w = Workloads::small();
    let cells = grid();

    let mut cold = Sweeper::new();
    cold.set_cache(ResultCache::open(&dir).unwrap());
    let cold_out = cold.sweep(&w, &cells, 2);
    assert_eq!(cold.fresh_simulations(), cells.len(), "cold run simulates every cell");

    let mut warm = Sweeper::new();
    warm.set_cache(ResultCache::open(&dir).unwrap());
    let warm_out = warm.sweep(&w, &cells, 2);
    assert_eq!(warm.fresh_simulations(), 0, "warm run must come entirely from the cache");
    for (c, h) in cold_out.iter().zip(&warm_out) {
        assert_eq!(c.cycles, h.cycles, "cached cycles must be bit-identical");
        for (name, value) in c.stats.iter() {
            assert_eq!(h.stats.get(name), value, "stat {name} must survive the round trip");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent sweepers racing the same key converge: the atomic
/// tmp+rename store means last-writer-wins with no torn entries, and a
/// third run reads a valid cache.
#[test]
fn concurrent_writers_racing_one_key_leave_a_valid_entry() {
    let dir = temp_dir("race");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Fft,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };
    let expected = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let dir = dir.clone();
                let w = &w;
                s.spawn(move || {
                    let mut sw = Sweeper::new();
                    sw.set_cache(ResultCache::open(&dir).unwrap());
                    sw.sweep(w, &[cell], 1)[0].cycles
                })
            })
            .collect();
        let got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(got.windows(2).all(|p| p[0] == p[1]), "racing writers must agree: {got:?}");
        got[0]
    });
    let mut reader = Sweeper::new();
    reader.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(reader.sweep(&w, &[cell], 1)[0].cycles, expected);
    assert_eq!(reader.fresh_simulations(), 0, "the surviving entry must be readable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every identity knob isolates its own entries: a sweep under a different
/// timing config or workload must not hit entries written by
/// another. (Key-part sensitivity is unit-tested in `cache.rs`; this checks
/// the Sweeper actually routes those parts into the key.)
#[test]
fn sweeper_cache_keys_separate_config_and_input() {
    let dir = temp_dir("keys");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };

    let mut base = Sweeper::new();
    base.set_cache(ResultCache::open(&dir).unwrap());
    base.sweep(&w, &[cell], 1);
    assert_eq!(base.fresh_simulations(), 1);

    // Different timing config -> different key -> fresh simulation.
    let mut cfg = TimingConfig::default();
    cfg.vpu.lanes = 4;
    let mut other_cfg = Sweeper::with_config(cfg);
    other_cfg.set_cache(ResultCache::open(&dir).unwrap());
    other_cfg.sweep(&w, &[cell], 1);
    assert_eq!(other_cfg.fresh_simulations(), 1, "lane-count change must miss");

    // Same identity as the first run -> pure hit.
    let mut again = Sweeper::new();
    again.set_cache(ResultCache::open(&dir).unwrap());
    again.sweep(&w, &[cell], 1);
    assert_eq!(again.fresh_simulations(), 0, "identical identity must hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The key text is a disk format: entries written before the exec backends
/// were folded into one engine must still be addressable, so the text keeps
/// its literal `backend=scalar` token and every other byte.
#[test]
fn cell_key_text_is_byte_identical_to_the_two_backend_era() {
    let cell = Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 128,
        bandwidth: 8,
    };
    let k = CacheKey::for_cell(cell, "feed", "lanes=8", Backend);
    let want = format!(
        "sdv-cache-v1 build={} prog=[SPMV/vl=64] input=feed backend=scalar \
         knobs=[lat=128 bw=8] cfg=[lanes=8]",
        sdv_engine::build_info()
    );
    assert_eq!(k.text(), want);
    let mut h = sdv_engine::StableHash::new();
    h.str(&want);
    assert_eq!(k.hex(), h.finish_hex(), "entry file names derive from the text alone");
}

/// A bit-flipped entry is rejected (checksum), deleted, and transparently
/// re-simulated — a corrupt cache can cost time but never correctness.
#[test]
fn corrupted_entry_is_resimulated_not_trusted() {
    let dir = temp_dir("corrupt");
    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Bfs,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };
    let mut cold = Sweeper::new();
    cold.set_cache(ResultCache::open(&dir).unwrap());
    let truth = cold.sweep(&w, &[cell], 1)[0].cycles;

    // Flip one digit of the cycles line in the single entry on disk.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("cold sweep wrote an entry");
    let text = std::fs::read_to_string(&entry).unwrap();
    let tampered = text.replacen(&truth.to_string(), &(truth + 1).to_string(), 1);
    assert_ne!(text, tampered, "tampering must change the entry");
    std::fs::write(&entry, &tampered).unwrap();

    let mut warm = Sweeper::new();
    warm.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(warm.sweep(&w, &[cell], 1)[0].cycles, truth);
    assert_eq!(warm.fresh_simulations(), 1, "tampered entry must be re-simulated");
    // The re-simulation repaired the entry in place (same key, same path):
    // the tampered bytes are gone and a third run hits clean.
    assert_ne!(std::fs::read_to_string(&entry).unwrap(), tampered);
    let mut third = Sweeper::new();
    third.set_cache(ResultCache::open(&dir).unwrap());
    assert_eq!(third.sweep(&w, &[cell], 1)[0].cycles, truth);
    assert_eq!(third.fresh_simulations(), 0, "repaired entry must hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sweepd fsck`'s `quarantined now` count for `dir`.
fn fsck_quarantined(dir: &str) -> usize {
    let stdout = ok(env!("CARGO_BIN_EXE_sweepd"), &["fsck", "--cache-dir", dir]).0;
    let count = stdout.lines().find_map(|l| l.trim().strip_prefix("quarantined now"));
    count.and_then(|n| n.trim().parse().ok()).unwrap_or_else(|| panic!("no count: {stdout}"))
}

/// Files in `dir` (none while it does not exist) whose name contains `part`.
fn files_named(dir: &str, part: &str) -> Vec<PathBuf> {
    let names = std::fs::read_dir(dir).into_iter().flatten().flatten();
    names.filter(|e| e.file_name().to_string_lossy().contains(part)).map(|e| e.path()).collect()
}

/// The cache is the one way to resume a killed sweep. Every cell was
/// published with fsync + rename before the SIGKILL, so the rerun writes the
/// golden figure, and a killed writer can leave only its own tmp file, which
/// fsck quarantines and nothing else. A flipped byte is quarantined and
/// re-simulated; `gc` to one byte empties the cache.
#[cfg(unix)]
#[test]
fn a_killed_sweep_resumes_from_its_cache_and_fsck_and_gc_keep_it_sound() {
    let scratch = scratch("kill");
    let (dir, csv) = (path_in(&scratch, "cache"), path_in(&scratch, "fig3.csv"));
    let study = env!("CARGO_BIN_EXE_study");
    let writes_golden = |threads: &[&str]| {
        let args = ["fig3", "--small", "--cache-dir", &dir, "--csv", &csv];
        ok(study, &[&args[..], threads].concat());
        let got = std::fs::read_to_string(&csv).expect("fig3 wrote its CSV");
        assert!(got == golden("fig3_small.csv"), "fig3 {threads:?} over the cache is not golden");
    };
    // SIGKILL part-way: once the first cell is cached.
    let mut killed = Command::new(study)
        .args(["fig3", "--small", "--threads", "1", "--cache-dir", &dir])
        .stdout(Stdio::null())
        .spawn()
        .expect("fig3 starts");
    while files_named(&dir, ".entry").is_empty() && killed.try_wait().unwrap().is_none() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    killed.kill().expect("SIGKILL");
    killed.wait().expect("reaped");
    let strays = files_named(&dir, ".tmp").len();
    writes_golden(&["--threads", "1"]);
    assert_eq!(fsck_quarantined(&dir), strays, "fsck quarantines the stray tmp files, no entry");

    let entry = files_named(&dir, ".entry").pop().expect("the sweep cached its cells");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&entry, bytes).unwrap();
    assert_eq!(fsck_quarantined(&dir), 1, "fsck quarantines the corrupted entry");
    writes_golden(&[]); // a quarantined entry is a miss, never wrong data

    ok(env!("CARGO_BIN_EXE_sweepd"), &["gc", "--cache-dir", &dir, "--max-bytes", "1"]);
    assert!(files_named(&dir, ".entry").is_empty(), "gc --max-bytes 1 left entries behind");
    let _ = std::fs::remove_dir_all(&scratch);
}
