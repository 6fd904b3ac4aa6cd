//! Persistent content-addressed result cache.
//!
//! Every simulated cell is deterministic: the cycle count is a pure function
//! of (workload inputs, timing configuration, kernel, knob settings,
//! simulator code). Seven PRs of bit-identity gates prove it — which means a
//! result computed once is a result computed forever, and re-simulating it
//! on every figure regeneration is pure waste. This module persists cell
//! outcomes under `results/cache/` keyed by a stable content hash of
//! everything the cycle count depends on:
//!
//! * the canonical [`TimingConfig`](sdv_uarch::TimingConfig) rendering
//!   (`TimingConfig::canonical()`, total by construction),
//! * a content fingerprint of the workload inputs
//!   ([`Workloads::fingerprint`](crate::Workloads::fingerprint)),
//! * the program (kernel + implementation) and knob settings,
//! * the code version ([`sdv_engine::build_info()`]) — new code never serves
//!   old results.
//!
//! Entries are small text files written with the workspace's atomic pattern
//! (unique tmp file, `fsync`, `rename`), carry an internal checksum, and
//! store the *full* key text: a load verifies both, so a torn write, a
//! bit-flip, or even a hash collision can only ever produce a cache miss,
//! never a wrong result. Corrupt entries are quarantined on sight into the
//! `corrupt/` subdirectory (preserved for post-mortem — a recurring torn
//! write points at a dying disk, and the evidence should survive the
//! self-heal) and re-made by the next run; [`ResultCache::fsck`] scans the
//! whole cache proactively and `sweepd fsck` exposes it operationally. Only
//! completed cells are cached — failures re-run. Re-running a killed sweep
//! against the same directory is the one way to resume it.

use crate::harness::Cell;
use sdv_engine::{SimError, StableHash, Stats};
use sdv_rvv::Backend;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Magic first line of every entry file; bump to orphan all old entries on
/// a format change.
const MAGIC: &str = "sdv-cache-v1";

/// The `backend=` token of the key text and the `"backend"` value of the
/// `sweepd` sweep/ping messages. There is one exec engine; the literal stays
/// so that neither format moves (no `MAGIC` bump, old clients still talk to
/// a new server, and a server still refuses a peer that names another).
pub(crate) const BACKEND_TOKEN: &str = "scalar";

/// A fully-resolved cache key: the canonical key text (stored inside the
/// entry and verified on load) plus its 32-hex digest (the filename).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    text: String,
    hex: String,
}

impl CacheKey {
    /// Assemble a key from its parts. `program` names what ran (for grid
    /// cells, the kernel/implementation pair; `study`'s non-`Cell` programs
    /// pass their own tags so e.g. SELL and CSR-gather SpMV never share an entry),
    /// `input_fp` fingerprints the workload content, `cfg` is the canonical
    /// config line, and `knobs` the per-cell sweep settings.
    pub fn new(program: &str, input_fp: &str, cfg: &str, knobs: &str) -> Self {
        let text = format!(
            "{MAGIC} build={} prog=[{program}] input={input_fp} backend={BACKEND_TOKEN} \
             knobs=[{knobs}] cfg=[{cfg}]",
            sdv_engine::build_info(),
        );
        let mut h = StableHash::new();
        h.str(&text);
        Self { hex: h.finish_hex(), text }
    }

    /// The key for one sweep-grid [`Cell`]. The ignored `Backend` parameter
    /// is frozen-API residue: `benchmark/` passes `Backend::default()` here
    /// and may not be edited alongside other code (ROADMAP 1(a)).
    pub fn for_cell(cell: Cell, input_fp: &str, cfg: &str, _: Backend) -> Self {
        Self::new(
            &format!("{}/{}", cell.kernel.name(), cell.imp),
            input_fp,
            cfg,
            &format!("lat={} bw={}", cell.extra_latency, cell.bandwidth),
        )
    }

    /// The canonical key text (embedded in the entry file).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The 32-hex digest naming the entry file.
    pub fn hex(&self) -> &str {
        &self.hex
    }
}

/// A cached cell outcome: cycles plus the flat stats counters.
///
/// Histograms are not persisted — they feed interactive observability
/// reports, not figures — so a cache-served [`Stats`] holds counters only
/// (the counters the stall-breakdown figures need are kept).
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Flat counters, rebuilt into a registry.
    pub stats: Stats,
}

/// Outcome of one [`ResultCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcSummary {
    /// Entries examined.
    pub scanned: usize,
    /// Valid entries evicted (oldest access first) to meet the budget.
    pub evicted: usize,
    /// Corrupt or truncated entries quarantined to `corrupt/`.
    pub corrupt: usize,
    /// Total entry bytes before the pass.
    pub bytes_before: u64,
    /// Total entry bytes after the pass.
    pub bytes_after: u64,
}

/// Outcome of one [`ResultCache::fsck`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckSummary {
    /// Entry and stray-tmp files examined this pass.
    pub scanned: usize,
    /// Entries whose checksum and structure verified.
    pub valid: usize,
    /// Corrupt/truncated entries and stray tmp files moved to `corrupt/`
    /// this pass.
    pub quarantined: usize,
    /// Files already sitting in `corrupt/` from earlier self-heals.
    pub previously_quarantined: usize,
    /// Total bytes across valid entries.
    pub valid_bytes: u64,
}

/// A persistent result cache rooted at one directory.
///
/// All methods take `&self` and are safe under concurrent processes: loads
/// only trust entries whose checksum and key text verify, and stores go
/// through a per-process unique tmp file + `rename`, so racing writers of
/// the same key each produce a complete entry and the last rename wins
/// (both wrote identical bytes anyway — the result is deterministic).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) the cache at `dir`.
    pub fn open(dir: &Path) -> Result<Self, SimError> {
        std::fs::create_dir_all(dir).map_err(|e| SimError::BadInput {
            what: format!("{}: cannot create cache directory: {e}", dir.display()),
        })?;
        Ok(Self { dir: dir.to_path_buf() })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk file backing `key`'s entry. Public so service-layer chaos
    /// can tamper with a just-stored entry and tests can inspect the
    /// quarantine behavior; everything else should go through
    /// [`load`](Self::load)/[`store`](Self::store).
    pub fn entry_file(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.hex()))
    }

    /// The quarantine subdirectory for corrupt entries.
    pub fn corrupt_dir(&self) -> PathBuf {
        self.dir.join("corrupt")
    }

    /// Move a damaged file into `corrupt/`, preserving it for post-mortem.
    /// Best-effort with a delete fallback: self-healing must never fail
    /// louder than the corruption it is healing.
    fn quarantine(&self, path: &Path) {
        let qdir = self.corrupt_dir();
        let moved = std::fs::create_dir_all(&qdir).is_ok() && {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            // Suffix with the pid so two processes quarantining the same
            // entry (or successive corruptions of one key) never collide.
            name.is_some_and(|n| {
                std::fs::rename(path, qdir.join(format!("{n}.{}", std::process::id()))).is_ok()
            })
        };
        if !moved {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Look up `key`. Returns the stored result only when the entry's
    /// checksum verifies *and* its embedded key text matches `key` exactly;
    /// a corrupt, truncated or unreadable (e.g. not UTF-8) entry is
    /// quarantined to `corrupt/` and reported as a miss. Hits bump the
    /// entry's access time so `gc` evicts least-recently-used entries first.
    pub fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        let path = self.entry_file(key);
        let parsed = match std::fs::read_to_string(&path) {
            Ok(text) => parse_entry(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => Err(e.to_string()),
        };
        match parsed {
            Ok((stored_key, result)) => {
                if stored_key != key.text() {
                    // Checksum-valid but a different key: a digest collision.
                    // Astronomically unlikely at 128 bits; miss without
                    // deleting the other key's entry.
                    return None;
                }
                touch(&path);
                Some(result)
            }
            Err(_) => {
                // Never trust a damaged entry — quarantine it; the cell
                // simply re-simulates and the next store rewrites it whole.
                self.quarantine(&path);
                None
            }
        }
    }

    /// Persist one completed cell. Disk errors are reported to stderr but
    /// never interrupt the sweep: the cache is an optimization, not a
    /// correctness requirement.
    pub fn store(&self, key: &CacheKey, cycles: u64, stats: &Stats) {
        let path = self.entry_file(key);
        if let Err(e) = self.store_inner(&path, key, cycles, stats) {
            eprintln!("warning: could not write cache entry {}: {e}", path.display());
        }
    }

    fn store_inner(
        &self,
        path: &Path,
        key: &CacheKey,
        cycles: u64,
        stats: &Stats,
    ) -> std::io::Result<()> {
        let mut body = format!("{MAGIC}\nkey {}\ncycles {cycles}\n", key.text());
        for (name, value) in stats.iter() {
            let _ = writeln!(body, "stat {name} {value}");
        }
        let mut h = StableHash::new();
        h.str(&body);
        // Unique per-process tmp name: concurrent writers of one key never
        // step on each other's partial file, and rename is atomic.
        let tmp = self.dir.join(format!("{}.tmp{}", key.hex(), std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            writeln!(f, "sum {}", h.finish_hex())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Evict least-recently-used entries until the cache fits in
    /// `max_bytes`. Corrupt entries are always quarantined, never counted as
    /// retained data; the `corrupt/` subdirectory itself is outside the
    /// budget (operators empty it once the post-mortem is done).
    pub fn gc(&self, max_bytes: u64) -> GcSummary {
        let mut summary = GcSummary::default();
        let Ok(dir) = std::fs::read_dir(&self.dir) else { return summary };
        // (access time, size, path) per valid entry; stray tmp files from
        // killed processes are swept as corrupt.
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        for de in dir.flatten() {
            let path = de.path();
            if path.is_dir() {
                continue; // the corrupt/ quarantine, most likely
            }
            let name = de.file_name();
            let name = name.to_string_lossy();
            if !name.ends_with(".entry") && !name.contains(".tmp") {
                continue;
            }
            summary.scanned += 1;
            let meta = de.metadata().ok();
            let size = meta.as_ref().map_or(0, |m| m.len());
            summary.bytes_before += size;
            let valid = name.ends_with(".entry")
                && std::fs::read_to_string(&path)
                    .ok()
                    .is_some_and(|text| parse_entry(&text).is_ok());
            if !valid {
                self.quarantine(&path);
                summary.corrupt += 1;
                continue;
            }
            let stamp = meta
                .and_then(|m| m.accessed().or_else(|_| m.modified()).ok())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((stamp, size, path));
        }
        summary.bytes_after = entries.iter().map(|(_, s, _)| s).sum();
        entries.sort_by_key(|(stamp, _, _)| *stamp);
        let mut i = 0;
        while summary.bytes_after > max_bytes && i < entries.len() {
            let (_, size, path) = &entries[i];
            if std::fs::remove_file(path).is_ok() {
                summary.bytes_after -= size;
                summary.evicted += 1;
            }
            i += 1;
        }
        summary
    }

    /// Verify every entry in the cache: valid entries are counted, corrupt
    /// or truncated entries (and stray tmp files from killed writers) are
    /// quarantined to `corrupt/`. The integrity half of [`gc`](Self::gc)
    /// without the eviction half — what `sweepd fsck` runs.
    pub fn fsck(&self) -> FsckSummary {
        let mut summary = FsckSummary::default();
        if let Ok(qdir) = std::fs::read_dir(self.corrupt_dir()) {
            summary.previously_quarantined = qdir.flatten().count();
        }
        let Ok(dir) = std::fs::read_dir(&self.dir) else { return summary };
        for de in dir.flatten() {
            let path = de.path();
            if path.is_dir() {
                continue;
            }
            let name = de.file_name();
            let name = name.to_string_lossy();
            if !name.ends_with(".entry") && !name.contains(".tmp") {
                continue;
            }
            summary.scanned += 1;
            let valid = name.ends_with(".entry")
                && std::fs::read_to_string(&path)
                    .ok()
                    .is_some_and(|text| parse_entry(&text).is_ok());
            if valid {
                summary.valid += 1;
                summary.valid_bytes += de.metadata().map_or(0, |m| m.len());
            } else {
                self.quarantine(&path);
                summary.quarantined += 1;
            }
        }
        summary
    }

    /// Durably flush the cache directory itself: entries are individually
    /// fsynced at store time, but the *rename* that publishes them is only
    /// durable once the directory is synced. Called on graceful shutdown so
    /// a power cut right after a drain cannot orphan freshly-stored results.
    pub fn flush(&self) {
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

/// Mark an entry as recently used. Best-effort: `relatime` mounts may defer
/// plain-read atime updates for a day, so the hit path sets the access time
/// explicitly (needs a writable handle on some platforms).
fn touch(path: &Path) {
    let now = SystemTime::now();
    let _ = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|f| f.set_times(std::fs::FileTimes::new().set_accessed(now)));
}

/// Parse and verify one entry file; returns the embedded key text and the
/// result. Any structural problem — bad magic, missing fields, checksum
/// mismatch, trailing garbage — is an error (the caller deletes the file).
fn parse_entry(text: &str) -> Result<(String, CachedResult), String> {
    let (body, sum_line) = split_checksum(text)?;
    let mut h = StableHash::new();
    h.str(body);
    let declared = sum_line.strip_prefix("sum ").ok_or("last line is not a checksum")?;
    if declared != h.finish_hex() {
        return Err("checksum mismatch".into());
    }
    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err("bad magic".into());
    }
    let key =
        lines.next().and_then(|l| l.strip_prefix("key ")).ok_or("missing key line")?.to_string();
    let cycles: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("cycles "))
        .and_then(|v| v.parse().ok())
        .ok_or("missing or bad cycles line")?;
    let mut stats = Stats::new();
    for line in lines {
        let rest = line.strip_prefix("stat ").ok_or_else(|| format!("bad line '{line}'"))?;
        let (name, value) = rest.rsplit_once(' ').ok_or_else(|| format!("bad stat '{rest}'"))?;
        let value: u64 = value.parse().map_err(|_| format!("bad stat value '{rest}'"))?;
        stats.set(name, value);
    }
    Ok((key, CachedResult { cycles, stats }))
}

/// Split an entry into (body, final `sum` line), verifying the trailing
/// newline — a truncated tail must not parse.
fn split_checksum(text: &str) -> Result<(&str, &str), String> {
    let trimmed = text.strip_suffix('\n').ok_or("missing final newline")?;
    let idx = trimmed.rfind('\n').ok_or("too short")?;
    Ok((&text[..idx + 1], &trimmed[idx + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ImplKind, KernelKind};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sdv_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(tag: &str) -> CacheKey {
        CacheKey::new(tag, "deadbeef", "lanes=8", "lat=0 bw=64")
    }

    #[test]
    fn round_trips_cycles_and_stats() {
        let cache = ResultCache::open(&tmpdir("roundtrip")).unwrap();
        let k = key("SPMV/vl=64");
        assert!(cache.load(&k).is_none(), "cold cache must miss");
        let mut stats = Stats::new();
        stats.set("l2.miss", 1234);
        stats.set("scalar.stall.mem", 9);
        cache.store(&k, 42_000, &stats);
        let got = cache.load(&k).expect("warm cache must hit");
        assert_eq!(got.cycles, 42_000);
        assert_eq!(got.stats.get("l2.miss"), 1234);
        assert_eq!(got.stats.get("scalar.stall.mem"), 9);

        // Filled out of order (`tile10.` sorts between `tile1.` and
        // `tile2.`): stored in byte order, loaded back equal.
        let mut names = ["tile2.x", "tile10.x", "a0", "tile1.x", "a", "a.b", "dram.bytes"];
        sdv_engine::Rng::new(36).shuffle(&mut names);
        let mut stats = Stats::new();
        for (i, name) in names.iter().enumerate() {
            stats.set(name, i as u64 * 1000 + 1);
        }
        let k = key("FFT/vl=8");
        cache.store(&k, 7, &stats);
        let text = std::fs::read_to_string(cache.entry_file(&k)).unwrap();
        let stored: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("stat "))
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        assert_eq!(stored, sorted, "stat lines in byte order");
        let got = cache.load(&k).expect("warm cache must hit");
        assert!(got.stats.iter().eq(stats.iter()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A checksum-valid entry whose `stat` lines are shuffled and repeat a
    /// name decodes to what the same `set` calls give: the last value wins.
    #[test]
    fn shuffled_and_repeated_stat_lines_decode_like_sets() {
        let lines = [("tile2.x", 5), ("a", 1), ("tile10.x", 3), ("a", 9), ("tile1.x", 2)];
        let mut body = format!("{MAGIC}\nkey k\ncycles 11\n");
        let mut want = Stats::new();
        for (name, value) in lines {
            body += &format!("stat {name} {value}\n");
            want.set(name, value);
        }
        let mut h = StableHash::new();
        h.str(&body);
        let text = format!("{body}sum {}\n", h.finish_hex());
        let (_, got) = parse_entry(&text).expect("a valid entry");
        assert_eq!(got.cycles, 11);
        assert!(got.stats.iter().eq(want.iter()), "{:?} != {want:?}", got.stats);
        assert_eq!(got.stats.get("a"), 9);
    }

    #[test]
    fn key_parts_are_all_significant() {
        let base = key("SPMV/vl=64");
        let others = [
            CacheKey::new("SPMV/vl=32", "deadbeef", "lanes=8", "lat=0 bw=64"),
            CacheKey::new("SPMV/vl=64", "deadbeee", "lanes=8", "lat=0 bw=64"),
            CacheKey::new("SPMV/vl=64", "deadbeef", "lanes=4", "lat=0 bw=64"),
            CacheKey::new("SPMV/vl=64", "deadbeef", "lanes=8", "lat=8 bw=64"),
        ];
        for o in &others {
            assert_ne!(base.hex(), o.hex(), "{}", o.text());
        }
    }

    #[test]
    fn cell_key_embeds_every_knob() {
        let cell = Cell {
            kernel: KernelKind::Spmv,
            imp: ImplKind::Vector { maxvl: 64 },
            extra_latency: 128,
            bandwidth: 8,
        };
        let k = CacheKey::for_cell(cell, "feed", "cfg", Backend);
        assert!(k.text().contains("SPMV/vl=64"), "{}", k.text());
        assert!(k.text().contains("lat=128 bw=8"), "{}", k.text());
        let mut other = cell;
        other.bandwidth = 16;
        assert_ne!(k.hex(), CacheKey::for_cell(other, "feed", "cfg", Backend).hex());
    }

    fn quarantined_count(cache: &ResultCache) -> usize {
        std::fs::read_dir(cache.corrupt_dir()).map_or(0, |d| d.flatten().count())
    }

    #[test]
    fn bit_flip_is_detected_and_entry_quarantined() {
        let cache = ResultCache::open(&tmpdir("bitflip")).unwrap();
        let k = key("FFT/scalar");
        cache.store(&k, 777, &Stats::new());
        let path = cache.entry_file(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit of the cycles digit region.
        let pos = bytes.windows(3).position(|w| w == b"777").unwrap();
        bytes[pos] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&k).is_none(), "corrupt entry must be a miss, not a value");
        assert!(!path.exists(), "corrupt entry must leave the live cache");
        assert_eq!(quarantined_count(&cache), 1, "…into corrupt/ for post-mortem");
        // And the cell can be re-stored and served again.
        cache.store(&k, 777, &Stats::new());
        assert_eq!(cache.load(&k).unwrap().cycles, 777);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let cache = ResultCache::open(&tmpdir("trunc")).unwrap();
        let k = key("BFS/scalar");
        cache.store(&k, 10, &Stats::new());
        let path = cache.entry_file(&k);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&k).is_none());
        assert!(!path.exists());
        assert_eq!(quarantined_count(&cache), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Seeded hostile bytes: bit flips, truncations, insertions and 0xFF
    /// bytes (not UTF-8) applied to a real entry. Every load returns the
    /// stored result or misses with the damaged file moved to `corrupt/`.
    #[test]
    fn mutated_entries_load_as_stored_or_are_quarantined() {
        let cache = ResultCache::open(&tmpdir("mutate")).unwrap();
        let k = key("SPMV/vl=64");
        let mut stats = Stats::new();
        stats.set("l2.miss", 1234);
        stats.set("scalar.stall.mem", 9);
        cache.store(&k, 42_000, &stats);
        let path = cache.entry_file(&k);
        let original = std::fs::read(&path).unwrap();
        let moved = cache.corrupt_dir().join(format!("{}.entry.{}", k.hex(), std::process::id()));
        let want: Vec<(&str, u64)> = stats.iter().collect();
        let mut rng = sdv_engine::Rng::new(0xC0FF_EE27);
        for case in 0..2000 {
            let mut bytes = original.clone();
            let at = rng.index(bytes.len());
            match case % 4 {
                0 => bytes[at] ^= 1 << rng.index(8),
                1 => bytes.truncate(at),
                2 => bytes.insert(at, rng.below(256) as u8),
                _ => bytes[at] = 0xFF,
            }
            std::fs::write(&path, &bytes).unwrap();
            match cache.load(&k) {
                Some(got) => {
                    assert_eq!(got.cycles, 42_000, "case {case}");
                    assert_eq!(got.stats.iter().collect::<Vec<_>>(), want, "case {case}");
                }
                None => {
                    assert!(!path.exists(), "case {case}: a damaged entry stayed live");
                    assert_eq!(std::fs::read(&moved).unwrap(), bytes, "case {case}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_oldest_first_and_reports() {
        let cache = ResultCache::open(&tmpdir("gc")).unwrap();
        let old = key("old");
        let new = key("new");
        cache.store(&old, 1, &Stats::new());
        cache.store(&new, 2, &Stats::new());
        // Make `old` visibly older than `new` regardless of fs timestamp
        // granularity.
        let old_path = cache.dir().join(format!("{}.entry", old.hex()));
        let past = SystemTime::now() - std::time::Duration::from_secs(3600);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&old_path)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_accessed(past).set_modified(past))
            .unwrap();
        let entry_size = std::fs::metadata(&old_path).unwrap().len();
        let summary = cache.gc(entry_size + entry_size / 2);
        assert_eq!(summary.scanned, 2);
        assert_eq!(summary.evicted, 1);
        assert!(summary.bytes_after <= entry_size + entry_size / 2);
        assert!(cache.load(&old).is_none(), "oldest entry must be the evicted one");
        assert!(cache.load(&new).is_some(), "newest entry must survive");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_corrupt_entries_even_under_budget() {
        let cache = ResultCache::open(&tmpdir("gc_corrupt")).unwrap();
        let k = key("good");
        cache.store(&k, 5, &Stats::new());
        std::fs::write(cache.dir().join("0000.entry"), "garbage\n").unwrap();
        std::fs::write(cache.dir().join("1111.tmp999"), "torn").unwrap();
        let summary = cache.gc(u64::MAX);
        assert_eq!(summary.corrupt, 2);
        assert_eq!(summary.evicted, 0);
        assert_eq!(quarantined_count(&cache), 2, "both strays quarantined, not deleted");
        assert!(cache.load(&k).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_of_empty_cache_dir_is_a_clean_noop() {
        let cache = ResultCache::open(&tmpdir("gc_empty")).unwrap();
        assert_eq!(cache.gc(0), GcSummary::default());
        assert_eq!(cache.fsck(), FsckSummary::default());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_ignores_a_concurrent_writers_live_tmp_of_this_process() {
        // A *racing* writer in this very process has a `.tmp<pid>` file mid
        // write. gc treats any tmp as a stray and quarantines it — but the
        // writer's store must still succeed end-to-end, because quarantining
        // renames the tmp away and the writer's `rename` simply fails (the
        // store is best-effort) or wins the race; either way the cache stays
        // structurally valid and a later store of the same key heals it.
        let cache = ResultCache::open(&tmpdir("gc_race")).unwrap();
        let k = key("raced");
        let tmp = cache.dir().join(format!("{}.tmp{}", k.hex(), std::process::id()));
        std::fs::write(&tmp, "half-written body").unwrap();
        let summary = cache.gc(u64::MAX);
        assert_eq!(summary.corrupt, 1, "in-flight tmp is swept as a stray");
        assert!(!tmp.exists());
        // The interrupted writer retries (as a killed-and-restarted sweep
        // would): the key must be storable and loadable afterwards.
        cache.store(&k, 99, &Stats::new());
        assert_eq!(cache.load(&k).unwrap().cycles, 99);
        assert_eq!(cache.gc(u64::MAX).corrupt, 0, "cache is structurally clean again");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn zero_byte_entry_is_quarantined_by_gc_and_fsck() {
        let cache = ResultCache::open(&tmpdir("gc_zero")).unwrap();
        std::fs::write(cache.dir().join("aaaa.entry"), b"").unwrap();
        let summary = cache.gc(u64::MAX);
        assert_eq!((summary.scanned, summary.corrupt), (1, 1));
        std::fs::write(cache.dir().join("bbbb.entry"), b"").unwrap();
        let fsck = cache.fsck();
        assert_eq!((fsck.scanned, fsck.quarantined), (1, 1));
        assert_eq!(fsck.previously_quarantined, 1, "gc's earlier catch is reported");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fsck_quarantines_a_deliberately_corrupted_entry() {
        let cache = ResultCache::open(&tmpdir("fsck")).unwrap();
        let good = key("good");
        let bad = key("bad");
        cache.store(&good, 1, &Stats::new());
        cache.store(&bad, 2, &Stats::new());
        // Corrupt `bad` in place, the way chaos does: flip one byte.
        let path = cache.entry_file(&bad);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let fsck = cache.fsck();
        assert_eq!(fsck.scanned, 2);
        assert_eq!(fsck.valid, 1);
        assert_eq!(fsck.quarantined, 1);
        assert!(fsck.valid_bytes > 0);
        assert!(!path.exists(), "corrupted entry left the live cache");
        assert_eq!(quarantined_count(&cache), 1);
        assert!(cache.load(&good).is_some(), "valid entry untouched");
        assert!(cache.load(&bad).is_none(), "corrupt entry is a miss");
        // A second fsck finds a clean cache and reports the earlier catch.
        let again = cache.fsck();
        assert_eq!((again.quarantined, again.previously_quarantined), (0, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn flush_is_safe_on_a_live_cache() {
        let cache = ResultCache::open(&tmpdir("flush")).unwrap();
        cache.store(&key("k"), 3, &Stats::new());
        cache.flush();
        assert_eq!(cache.load(&key("k")).unwrap().cycles, 3);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
