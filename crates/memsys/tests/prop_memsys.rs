//! Randomized tests of the memory-subsystem components against simple
//! reference models and hard invariants, driven by the in-repo
//! deterministic `sdv_engine::Rng`.

use sdv_engine::Rng;
use sdv_memsys::{
    AccessKind, AddressMap, BandwidthLimiter, Cache, CacheConfig, DramChannel, DramConfig,
    LatencyController,
};
use std::collections::{HashMap, HashSet};

#[test]
fn cache_agrees_with_set_model() {
    let mut rng = Rng::new(0x3E3_0001);
    for _ in 0..64 {
        let n_ops = 1 + rng.index(399);
        // Reference: per-set LRU lists over the same geometry.
        let cfg = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 }; // 8 sets
        let mut cache = Cache::new(cfg);
        let num_sets = cfg.num_sets() as u64;
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new(); // set -> MRU-first lines
        for _ in 0..n_ops {
            let line_idx = rng.below(64);
            let is_write = rng.chance(0.5);
            let addr = line_idx * 64;
            let set = line_idx % num_sets;
            let lru = model.entry(set).or_default();
            let model_hit = lru.contains(&addr);
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let got_hit = cache.access(addr, kind);
            assert_eq!(got_hit, model_hit, "line {addr:#x}");
            if model_hit {
                lru.retain(|&l| l != addr);
                lru.insert(0, addr);
            } else {
                cache.fill(addr, is_write);
                lru.insert(0, addr);
                lru.truncate(cfg.ways);
            }
        }
    }
}

#[test]
fn cache_never_exceeds_capacity() {
    let mut rng = Rng::new(0x3E3_0002);
    for _ in 0..64 {
        let n_ops = 1 + rng.index(499);
        let cfg = CacheConfig { size_bytes: 2048, ways: 4, line_bytes: 64 };
        let mut cache = Cache::new(cfg);
        let mut resident: HashSet<u64> = HashSet::new();
        for _ in 0..n_ops {
            let addr = rng.below(10_000) * 64;
            if !cache.access(addr, AccessKind::Read) {
                if let Some(v) = cache.fill(addr, false) {
                    assert!(resident.remove(&v.addr), "victim {:#x} was not resident", v.addr);
                }
                resident.insert(addr);
            }
            assert!(resident.len() <= (cfg.size_bytes / cfg.line_bytes) as usize);
        }
    }
}

#[test]
fn limiter_respects_window_budget() {
    let mut rng = Rng::new(0x3E3_0003);
    for _ in 0..64 {
        let den = 1 + rng.below(15) as u32;
        let num = 1 + rng.below(den.min(3) as u64) as u32;
        let n = 1 + rng.index(299);
        let mut sorted: Vec<u64> = (0..n).map(|_| rng.below(2000)).collect();
        sorted.sort_unstable();
        let mut limiter = BandwidthLimiter::new(num, den);
        let mut admitted: Vec<u64> = sorted.iter().map(|&t| limiter.admit(t)).collect();
        // No admission precedes its request.
        for (&a, &t) in admitted.iter().zip(&sorted) {
            assert!(a >= t);
        }
        // Budget: at most `num` admissions per aligned den-window.
        admitted.sort_unstable();
        let mut per_window: HashMap<u64, u32> = HashMap::new();
        for &a in &admitted {
            *per_window.entry(a / den as u64).or_insert(0) += 1;
        }
        for (&w, &got) in &per_window {
            assert!(got <= num, "window {w} got {got} > {num}");
        }
    }
}

#[test]
fn latency_controller_is_exact_and_pipelined() {
    let mut rng = Rng::new(0x3E3_0004);
    for _ in 0..64 {
        let extra = rng.below(5000);
        let lc = LatencyController::new(extra);
        for _ in 0..50 {
            let t = rng.below(100_000);
            assert_eq!(lc.release_time(t), t + extra);
        }
    }
}

#[test]
fn dram_completion_bounds() {
    let mut rng = Rng::new(0x3E3_0005);
    for _ in 0..64 {
        let extra = rng.below(2000);
        let bw = 1 + rng.below(64);
        let n = 1 + rng.index(99);
        let mut sorted: Vec<u64> = (0..n).map(|_| rng.below(500)).collect();
        sorted.sort_unstable();
        let mut d = DramChannel::new(DramConfig::default());
        d.set_extra_latency(extra);
        d.set_bandwidth_limit(bw);
        let service = DramConfig::default().service_latency;
        let mut last = 0u64;
        for &t in &sorted {
            let done = d.submit(t.wrapping_mul(64) % (1 << 30), t);
            assert!(done >= t + service + extra, "floor");
            // Admissions serialize: completions are non-decreasing under
            // monotone arrivals with a fixed pipeline.
            assert!(done >= last);
            last = done;
        }
        assert_eq!(d.requests(), sorted.len() as u64);
    }
}

#[test]
fn address_map_invariants() {
    let mut rng = Rng::new(0x3E3_0007);
    for _ in 0..256 {
        let addr = rng.next_u64() % (1 << 40);
        let size = 1 + rng.below(4095);
        let m = AddressMap::default();
        let line = m.line_of(addr);
        assert!(line <= addr);
        assert!(addr - line < 64);
        assert_eq!(m.bank_of(addr), m.bank_of(line));
        assert!(m.bank_of(addr) < 4);
        let spanned = m.lines_spanned(addr, size);
        assert!(spanned >= size.div_ceil(64));
        assert!(spanned <= size / 64 + 2);
    }
}
