//! Shared command-line plumbing for the workspace binaries.
//!
//! Centralizes argument parsing (with positions in error messages) and the
//! workspace exit-code convention, so every binary fails the same way:
//!
//! * exit [`EXIT_USAGE`] (2) — malformed command line,
//! * exit [`EXIT_BAD_INPUT`] (3) — an input file (baseline, cache directory)
//!   exists but cannot be parsed,
//! * exit [`EXIT_SIM_FAULT`] (4) — the simulation itself failed: watchdog
//!   deadlock, cycle budget, invariant violation, or an isolated panic,
//! * exit [`EXIT_UNAVAILABLE`] (5) — a service was not available: `sweepd`
//!   unreachable past the retry budget, its queue full (`overloaded`), the
//!   server draining for shutdown, or its port already bound. Transient by
//!   nature — rerunning (or retrying harder) can succeed.

use crate::{CellOutcome, ResultCache, Sweeper};
use sdv_engine::{FaultKind, FaultPlan, SimError};
use sdv_uarch::{TimingConfig, WatchdogConfig};

/// Exit code for a malformed command line.
pub const EXIT_USAGE: i32 = 2;
/// Exit code for an unreadable or unparseable input file.
pub const EXIT_BAD_INPUT: i32 = 3;
/// Exit code for a structured simulation failure.
pub const EXIT_SIM_FAULT: i32 = 4;
/// Exit code for a transient service failure (server unreachable,
/// overloaded, draining, or its address already in use).
pub const EXIT_UNAVAILABLE: i32 = 5;

/// The value following `key`, if present.
pub fn arg_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Parse the value following `key`. `Ok(None)` when the flag is absent;
/// `Err` (with the argument position and offending text) when the flag is
/// present but its value is missing or malformed.
pub fn parse_arg<T>(args: &[String], key: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("{key} (argument {i}) needs a value"));
    };
    v.parse::<T>()
        .map(Some)
        .map_err(|e| format!("{key} (argument {}): bad value '{v}': {e}", i + 1))
}

/// Validate a binary's whole command line: every `--token` must be one of
/// `switches` (no value) or `valued` (followed by a value that is not itself
/// a `--token`). Anything else — a typo such as `--smal`, a flag another
/// binary owns — is an error naming the argument and its position, so a
/// mistyped flag can never silently change what is simulated. Flags removed
/// in PR 15 keep their own message ([`reject_removed_flags`]). Returns the
/// positional arguments (everything that is neither a flag nor a flag's
/// value), in order.
pub fn check_flags<'a>(
    args: &'a [String],
    switches: &[&str],
    valued: &[&str],
) -> Result<Vec<&'a str>, String> {
    reject_removed_flags(args)?;
    let mut positional = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        if valued.contains(&a) {
            if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{a} (argument {i}) needs a value"));
            }
            i += 1;
        } else if a.starts_with("--") {
            if !switches.contains(&a) {
                let mut known: Vec<&str> = switches.iter().chain(valued).copied().collect();
                known.sort_unstable();
                return Err(format!(
                    "unknown argument '{a}' (argument {i}); accepted: {}",
                    known.join(" ")
                ));
            }
        } else {
            positional.push(a);
        }
        i += 1;
    }
    Ok(positional)
}

/// [`check_flags`] for a binary that takes no positional argument: exit
/// [`EXIT_USAGE`] on any violation.
pub fn check_flags_or_die(bin: &str, args: &[String], switches: &[&str], valued: &[&str]) {
    let stray = check_flags(args, switches, valued).unwrap_or_else(|e| die_usage(bin, &e));
    if let Some(arg) = stray.first() {
        die_usage(bin, &format!("unexpected argument '{arg}'"));
    }
}

/// `--threads N`: worker threads for a sweep. Defaults to the host's
/// available parallelism; zero or a non-number is a usage error.
pub fn threads(bin: &str, args: &[String]) -> usize {
    match parse_arg::<usize>(args, "--threads") {
        Ok(Some(0)) => die_usage(bin, "--threads must be positive"),
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(e) => die_usage(bin, &e),
    }
}

/// Report a command-line error and exit with [`EXIT_USAGE`].
pub fn die_usage(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(EXIT_USAGE);
}

/// Report an input-file error and exit with [`EXIT_BAD_INPUT`].
pub fn die_bad_input(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(EXIT_BAD_INPUT);
}

/// The exit code a [`SimError`] maps to: bad input files get
/// [`EXIT_BAD_INPUT`], transient service failures get [`EXIT_UNAVAILABLE`]
/// (scripts can retry on it), every other runtime failure gets
/// [`EXIT_SIM_FAULT`].
pub fn exit_code_for(e: &SimError) -> i32 {
    match e {
        SimError::BadInput { .. } => EXIT_BAD_INPUT,
        SimError::Unavailable { .. } | SimError::Overloaded { .. } | SimError::Draining { .. } => {
            EXIT_UNAVAILABLE
        }
        _ => EXIT_SIM_FAULT,
    }
}

/// Report a transient service failure and exit with [`EXIT_UNAVAILABLE`].
pub fn die_unavailable(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(EXIT_UNAVAILABLE);
}

/// Parse the shared hardening flags into a timing configuration:
///
/// * `--watchdog` — arm the default forward-progress window,
/// * `--cycle-budget N` — abort any cell that runs past `N` cycles,
/// * `--fault KIND` / `--fault-seed N` — seeded fault injection
///   (`stall-bank`, `drop-response`, `wedge-credit`, `inject-panic`).
///
/// Injecting a fault implicitly arms the progress window (otherwise a
/// wedged resource would hang the run instead of failing it cleanly).
/// Flags removed in PR 15 are a usage error here ([`reject_removed_flags`]).
pub fn hardening_config(args: &[String]) -> Result<TimingConfig, String> {
    reject_removed_flags(args)?;
    let mut cfg = TimingConfig::default();
    if args.iter().any(|a| a == "--watchdog") {
        cfg.watchdog = WatchdogConfig::default_on();
    }
    if let Some(budget) = parse_arg::<u64>(args, "--cycle-budget")? {
        cfg.watchdog.cycle_budget = budget;
    }
    if let Some(kind) = parse_arg::<FaultKind>(args, "--fault")? {
        let seed = parse_arg::<u64>(args, "--fault-seed")?.unwrap_or(1);
        cfg.fault = FaultPlan::new(kind, seed);
        if cfg.watchdog.progress_window == 0 {
            cfg.watchdog.progress_window = WatchdogConfig::default_on().progress_window;
        }
    }
    Ok(cfg)
}

/// Apply the shared scale-out topology flags to a timing configuration:
///
/// * `--tiles N` — number of core+VPU tiles sharing the L2/directory/DRAM
///   (default 1, the paper's machine). Tiles beyond 1 dispatch cells to the
///   partitioned multi-tile drivers; scalar implementations and FFT have
///   none and fail those cells with a structured bad-input error.
/// * `--mesh WxH` — mesh geometry (default 2x2). The L2HN bank count
///   follows the node count, one bank per node, so the home-node hash
///   stays balanced. Without `--mesh`, `--tiles` picks the smallest of the
///   study's square meshes (2×2, 4×4, 8×8) that seats every tile.
///
/// Both flags are cache-key visible (they land in [`TimingConfig`]'s
/// canonical form), so cached and `sweepd` results can never alias across
/// topologies.
pub fn apply_topology(args: &[String], cfg: &mut TimingConfig) -> Result<(), String> {
    if let Some(tiles) = parse_arg::<usize>(args, "--tiles")? {
        if tiles == 0 {
            return Err("--tiles must be positive".into());
        }
        *cfg = with_tiles(*cfg, tiles);
    }
    if let Some(spec) = parse_arg::<String>(args, "--mesh")? {
        let (w, h) = spec
            .split_once('x')
            .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
            .ok_or_else(|| format!("--mesh: bad value '{spec}' (expected WxH, e.g. 4x4)"))?;
        if w == 0 || h == 0 {
            return Err(format!("--mesh: bad value '{spec}': dimensions must be positive"));
        }
        cfg.mem.mesh = sdv_noc::MeshConfig::grid(w, h);
        cfg.mem.num_banks = w * h;
    }
    Ok(())
}

/// `cfg` with `tiles` core+VPU tiles on [`mesh_for_tiles`]'s geometry, one
/// L2HN bank per mesh node. One tile is the default 2×2 / four-bank machine.
pub fn with_tiles(mut cfg: TimingConfig, tiles: usize) -> TimingConfig {
    cfg.mem.tiles = tiles;
    cfg.mem.mesh = mesh_for_tiles(tiles);
    cfg.mem.num_banks = cfg.mem.mesh.nodes();
    cfg
}

/// The smallest of the scaling study's square meshes (2×2, 4×4, 8×8) whose
/// node count seats `tiles` tiles — the default geometry when `--tiles` is
/// given without `--mesh`.
pub fn mesh_for_tiles(tiles: usize) -> sdv_noc::MeshConfig {
    let side = [2usize, 4, 8].into_iter().find(|s| s * s >= tiles).unwrap_or(8);
    sdv_noc::MeshConfig::grid(side, side)
}

/// `--backend`, `--checkpoint` and `--resume` no longer exist. An unknown
/// flag is a usage error anyway ([`check_flags`]); these three say what
/// replaced them — a user passing `--checkpoint P --resume` should learn
/// that the cache directory is how a killed sweep is recovered. Also called
/// from [`hardening_config`].
fn reject_removed_flags(args: &[String]) -> Result<(), String> {
    for a in args {
        let replacement = match a.as_str() {
            "--backend" => "there is one exec engine; drop the flag",
            "--checkpoint" | "--resume" => {
                "re-run with the same --cache-dir DIR to resume a killed sweep"
            }
            _ => continue,
        };
        return Err(format!("{a} was removed: {replacement}"));
    }
    Ok(())
}

/// Default root of the persistent result cache.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// The cache directory selected by `--cache` / `--cache-dir DIR`, if any.
/// `--cache` uses [`DEFAULT_CACHE_DIR`]; `--cache-dir` implies `--cache`.
pub fn cache_dir(bin: &str, args: &[String]) -> Option<std::path::PathBuf> {
    match parse_arg::<String>(args, "--cache-dir") {
        Ok(Some(dir)) => Some(dir.into()),
        Ok(None) => args.iter().any(|a| a == "--cache").then(|| DEFAULT_CACHE_DIR.into()),
        Err(e) => die_usage(bin, &e),
    }
}

/// Parse `--retries N`, the total attempts against a `sweepd` server
/// (default 1, i.e. no retry), into a [`RetryPolicy`](crate::RetryPolicy).
/// The backoff jitter's seed is fixed, so two runs of the same command retry
/// on the same schedule.
pub fn retry_policy(args: &[String]) -> Result<crate::RetryPolicy, String> {
    Ok(match parse_arg::<u32>(args, "--retries")? {
        None | Some(0) | Some(1) => crate::RetryPolicy::none(),
        Some(n) => crate::RetryPolicy::retries(n, 1),
    })
}

/// Wire the shared sweep-acceleration flags into a [`Sweeper`]:
///
/// * `--cache` / `--cache-dir DIR` — consult (and fill) the persistent
///   result cache before simulating,
/// * `--server ADDR` — ship the grid to a running `sweepd` instead of
///   simulating locally. `workload` is the standard-workload name
///   (`small`/`paper`) the server must hold; binaries with custom inputs
///   must not pass this helper a name their inputs don't match,
/// * `--retries N` — retry transient server failures with seeded
///   exponential backoff; a failure that outlives them fails every cell the
///   server did not return.
///
/// Both cache and server may be given; remote mode wins (the server has
/// its own cache).
pub fn configure_sweeper(bin: &str, args: &[String], sweeper: &mut Sweeper, workload: &str) {
    if let Some(dir) = cache_dir(bin, args) {
        match ResultCache::open(&dir) {
            Ok(c) => sweeper.set_cache(c),
            Err(e) => die_bad_input(bin, &e.to_string()),
        }
    }
    match parse_arg::<String>(args, "--server") {
        Ok(Some(addr)) => sweeper.set_remote(&addr, workload),
        Ok(None) if args.iter().any(|a| a == "--retries") => {
            die_usage(bin, "--retries only makes sense with --server ADDR")
        }
        Ok(None) => {}
        Err(e) => die_usage(bin, &e),
    }
    match retry_policy(args) {
        Ok(policy) => sweeper.set_retry_policy(policy),
        Err(e) => die_usage(bin, &e),
    }
}

/// Print a per-cell failure summary (plus the first failure's full
/// diagnostic) to stderr and exit [`EXIT_SIM_FAULT`] when any cell failed;
/// return normally otherwise. The grid itself always completes first — this
/// runs after tables and CSVs are emitted, so partial results survive.
pub fn report_failures_and_exit(bin: &str, outcomes: &[CellOutcome]) {
    let failures: Vec<&CellOutcome> = outcomes.iter().filter(|o| !o.is_done()).collect();
    if failures.is_empty() {
        return;
    }
    eprintln!("{bin}: {} of {} cells FAILED:", failures.len(), outcomes.len());
    for f in &failures {
        if let CellOutcome::Failed { cell, error } = f {
            let full = error.to_string();
            let first_line = full.lines().next().unwrap_or_default();
            eprintln!(
                "  {}/{} (+{} latency, {} B/cy): {first_line}",
                cell.kernel.name(),
                cell.imp,
                cell.extra_latency,
                cell.bandwidth
            );
        }
    }
    if let Some(CellOutcome::Failed { error, .. }) = failures.first() {
        eprintln!("first failure in full:\n{error}");
    }
    std::process::exit(EXIT_SIM_FAULT);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_arg_reports_position_and_value() {
        let a = args(&["fig3", "--threads", "four"]);
        let e = parse_arg::<usize>(&a, "--threads").unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        assert!(e.contains("argument 2"), "{e}");
        assert!(e.contains("'four'"), "{e}");
        assert_eq!(parse_arg::<usize>(&a, "--absent").unwrap(), None);
        let ok = args(&["fig3", "--threads", "4"]);
        assert_eq!(parse_arg::<usize>(&ok, "--threads").unwrap(), Some(4));
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["fig3", "--csv"]);
        let e = parse_arg::<String>(&a, "--csv").unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn check_flags_names_the_offending_argument_and_returns_positionals() {
        let ok = args(&["study", "roofline", "--small", "--bw", "8", "spmv"]);
        assert_eq!(check_flags(&ok, &["--small"], &["--bw"]).unwrap(), ["roofline", "spmv"]);

        let (switches, valued) = (&["--small", "--cache"][..], &["--threads", "--csv"][..]);
        let typo = args(&["fig3", "--smal"]);
        let e = check_flags(&typo, switches, valued).unwrap_err();
        assert!(e.contains("'--smal'") && e.contains("argument 1") && e.contains("--small"), "{e}");

        for dangling in [&["fig3", "--csv"][..], &["fig3", "--csv", "--small"]] {
            let e = check_flags(&args(dangling), switches, valued).unwrap_err();
            assert!(e.contains("--csv") && e.contains("needs a value"), "{e}");
        }

        let removed = args(&["fig3", "--checkpoint", "ck.csv"]);
        let e = check_flags(&removed, switches, valued).unwrap_err();
        assert!(e.contains("removed") && e.contains("--cache-dir"), "{e}");
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(exit_code_for(&SimError::BadInput { what: "x".into() }), EXIT_BAD_INPUT);
        assert_eq!(
            exit_code_for(&SimError::Deadlock { cycle: 1, diagnostic: String::new() }),
            EXIT_SIM_FAULT
        );
        assert_eq!(exit_code_for(&SimError::Panic { what: "x".into() }), EXIT_SIM_FAULT);
        assert_eq!(exit_code_for(&SimError::Unavailable { what: "x".into() }), EXIT_UNAVAILABLE);
        assert_eq!(exit_code_for(&SimError::Overloaded { what: "x".into() }), EXIT_UNAVAILABLE);
        assert_eq!(exit_code_for(&SimError::Draining { what: "x".into() }), EXIT_UNAVAILABLE);
        assert_eq!(
            exit_code_for(&SimError::DeadlineExceeded { limit_ms: 1, diagnostic: String::new() }),
            EXIT_SIM_FAULT,
            "a deadline blowout is the cell's fault, not the service's"
        );
        assert_ne!(EXIT_USAGE, EXIT_BAD_INPUT);
        assert_ne!(EXIT_BAD_INPUT, EXIT_SIM_FAULT);
        assert_ne!(EXIT_SIM_FAULT, EXIT_UNAVAILABLE);
    }

    #[test]
    fn retry_flags_parse_into_a_policy() {
        assert_eq!(retry_policy(&args(&["b"])).unwrap(), crate::RetryPolicy::none());
        assert_eq!(
            retry_policy(&args(&["b", "--retries", "1"])).unwrap(),
            crate::RetryPolicy::none(),
            "one attempt means no retry"
        );
        let p = retry_policy(&args(&["b", "--retries", "5"])).unwrap();
        assert_eq!(p, crate::RetryPolicy::retries(5, 1));
        assert!(retry_policy(&args(&["b", "--retries", "many"])).is_err());
    }

    #[test]
    fn removed_flags_are_usage_errors_naming_the_replacement() {
        for (flags, named, hint) in [
            (&["fig3", "--backend", "simd"][..], "--backend", "one exec engine"),
            (&["fig3", "--backend", "scalar"], "--backend", "one exec engine"),
            (&["fig3", "--checkpoint", "ck.csv", "--resume"], "--checkpoint", "--cache-dir"),
            (&["fig3", "--resume"], "--resume", "--cache-dir"),
        ] {
            let e = hardening_config(&args(flags)).unwrap_err();
            assert!(e.starts_with(named) && e.contains("removed") && e.contains(hint), "{e}");
        }
        assert!(hardening_config(&args(&["fig3", "--cache-dir", "d", "--csv", "out"])).is_ok());
    }

    #[test]
    fn hardening_flags_compose() {
        let none = hardening_config(&args(&["fig3"])).unwrap();
        assert!(!none.watchdog.armed());
        assert!(!none.fault.is_active());

        let wd = hardening_config(&args(&["fig3", "--watchdog"])).unwrap();
        assert!(wd.watchdog.armed());

        let both =
            hardening_config(&args(&["b", "--cycle-budget", "9000", "--fault", "stall-bank"]))
                .unwrap();
        assert_eq!(both.watchdog.cycle_budget, 9000, "budget survives fault arming");
        assert!(both.watchdog.progress_window > 0, "fault implies a progress window");
        assert_eq!(both.fault.kind, FaultKind::StallBank);

        let bad = hardening_config(&args(&["b", "--fault", "bogus"]));
        assert!(bad.is_err());
    }
}
