//! Helpers for the integration tests that drive the built binaries.
#![allow(dead_code)] // each test file uses its own subset

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The repository's `results/` directory.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A committed file under `results/golden/`, whole.
pub fn golden(name: &str) -> String {
    let path = results_dir().join("golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("{bin}: {e}"))
}

/// `(stdout, stderr)` of a run that must succeed.
pub fn ok(bin: &str, args: &[&str]) -> (String, String) {
    let out = run(bin, args);
    let [stdout, stderr] = [out.stdout, out.stderr].map(|b| String::from_utf8_lossy(&b).into());
    assert!(out.status.success(), "{bin} {args:?} failed: {stderr}");
    (stdout, stderr)
}

/// A fresh scratch directory (the caller removes it).
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `dir` joined with `name`, as the `&str` a command line takes.
pub fn path_in(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("utf-8 temp path").to_string()
}
