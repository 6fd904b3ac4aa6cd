//! Counts-based energy estimation (extension).
//!
//! The EPI co-design loop the paper's platform serves is ultimately about
//! performance *and* energy. This module attaches per-event energy costs to
//! the statistics every component already reports, yielding a first-order
//! energy breakdown per run: dynamic energy from event counts, static
//! energy from cycle count. Costs default to published-ballpark 22FDX-ish
//! values (picojoules); they are configuration, not measurement.

use sdv_engine::Stats;

/// Per-event energy costs in picojoules, plus static power.
#[derive(Debug, Clone, Copy)]
pub struct EnergyConfig {
    /// One scalar ALU/branch op.
    pub scalar_op_pj: f64,
    /// One scalar FP op.
    pub scalar_fp_pj: f64,
    /// One vector element processed by a lane (arith datapath).
    pub vpu_elem_pj: f64,
    /// One vector-memory element access (address gen + alignment network).
    pub vpu_mem_elem_pj: f64,
    /// One L1 access.
    pub l1_access_pj: f64,
    /// One L2 bank access.
    pub l2_access_pj: f64,
    /// One 64-byte DRAM line transfer.
    pub dram_line_pj: f64,
    /// One flit traversing one mesh link.
    pub noc_flit_hop_pj: f64,
    /// Static (leakage + clock) power, picojoules per cycle.
    pub static_pj_per_cycle: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        Self {
            scalar_op_pj: 5.0,
            scalar_fp_pj: 15.0,
            vpu_elem_pj: 8.0,
            vpu_mem_elem_pj: 12.0,
            l1_access_pj: 10.0,
            l2_access_pj: 40.0,
            dram_line_pj: 2600.0, // ~40 pJ/byte at the device + channel
            noc_flit_hop_pj: 25.0,
            static_pj_per_cycle: 50.0,
        }
    }
}

/// One line of the energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyItem {
    /// Component label.
    pub component: &'static str,
    /// Energy in nanojoules.
    pub nanojoules: f64,
}

/// An estimated energy report.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Per-component breakdown.
    pub items: Vec<EnergyItem>,
    /// Total energy in nanojoules.
    pub total_nj: f64,
    /// Run length in cycles (for energy-delay products).
    pub cycles: u64,
}

impl EnergyReport {
    /// Energy-delay product in nJ·cycles.
    pub fn edp(&self) -> f64 {
        self.total_nj * self.cycles as f64
    }

    /// Fraction of total energy attributed to `component`.
    pub fn fraction(&self, component: &str) -> f64 {
        if self.total_nj == 0.0 {
            return 0.0;
        }
        self.items.iter().filter(|i| i.component == component).map(|i| i.nanojoules).sum::<f64>()
            / self.total_nj
    }

    /// Multi-line rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for i in &self.items {
            s.push_str(&format!(
                "{:<10} {:>12.1} nJ ({:>5.1}%)\n",
                i.component,
                i.nanojoules,
                100.0 * i.nanojoules / self.total_nj.max(f64::MIN_POSITIVE)
            ));
        }
        s.push_str(&format!("{:<10} {:>12.1} nJ\n", "total", self.total_nj));
        s
    }
}

/// Estimate energy from a run's statistics and cycle count.
pub fn estimate(cfg: &EnergyConfig, stats: &Stats, cycles: u64) -> EnergyReport {
    let pj = |n: u64, per: f64| n as f64 * per / 1000.0; // -> nJ
    let l2_accesses: u64 = stats.get("l2.hit")
        + stats.get("l2.miss")
        + stats.get("l2.store_through")
        + stats.get("l2.writeback");
    let items = vec![
        EnergyItem {
            component: "scalar",
            nanojoules: pj(stats.get("scalar.ops"), cfg.scalar_op_pj)
                + pj(stats.get("scalar.fp_ops"), cfg.scalar_fp_pj),
        },
        EnergyItem {
            component: "vpu",
            nanojoules: pj(stats.get("vpu.elements"), cfg.vpu_elem_pj)
                + pj(stats.get("vpu.vmem_elems"), cfg.vpu_mem_elem_pj),
        },
        EnergyItem {
            component: "l1",
            nanojoules: pj(stats.get("l1.load") + stats.get("l1.store"), cfg.l1_access_pj),
        },
        EnergyItem { component: "l2", nanojoules: pj(l2_accesses, cfg.l2_access_pj) },
        EnergyItem {
            component: "dram",
            nanojoules: pj(stats.get("dram.requests"), cfg.dram_line_pj),
        },
        EnergyItem {
            component: "noc",
            nanojoules: pj(stats.get("noc.flits"), cfg.noc_flit_hop_pj),
        },
        EnergyItem { component: "static", nanojoules: pj(cycles, cfg.static_pj_per_cycle) },
    ];
    let total_nj = items.iter().map(|i| i.nanojoules).sum();
    EnergyReport { items, total_nj, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_is_static_only() {
        let r = estimate(&EnergyConfig::default(), &Stats::new(), 1000);
        assert!(r.total_nj > 0.0);
        assert!((r.fraction("static") - 1.0).abs() < 1e-12);
        assert_eq!(r.fraction("dram"), 0.0);
    }

    #[test]
    fn dram_dominates_memory_bound_profiles() {
        let mut s = Stats::new();
        s.set("dram.requests", 100_000);
        s.set("scalar.ops", 1000);
        let r = estimate(&EnergyConfig::default(), &s, 10_000);
        assert!(r.fraction("dram") > 0.9, "dram fraction {}", r.fraction("dram"));
    }

    #[test]
    fn totals_are_sums_of_items() {
        let mut s = Stats::new();
        s.set("dram.requests", 10);
        s.set("vpu.elements", 5000);
        s.set("l1.load", 77);
        s.set("noc.flits", 40);
        let r = estimate(&EnergyConfig::default(), &s, 500);
        let sum: f64 = r.items.iter().map(|i| i.nanojoules).sum();
        assert!((sum - r.total_nj).abs() < 1e-9);
        assert!(r.render().contains("total"));
    }

    #[test]
    fn edp_scales_with_cycles() {
        let mut s = Stats::new();
        s.set("dram.requests", 10);
        let fast = estimate(&EnergyConfig::default(), &s, 100);
        let slow = estimate(&EnergyConfig::default(), &s, 10_000);
        assert!(slow.edp() > fast.edp());
    }

    #[test]
    fn longer_runs_pay_more_leakage() {
        let s = Stats::new();
        let a = estimate(&EnergyConfig::default(), &s, 1000);
        let b = estimate(&EnergyConfig::default(), &s, 2000);
        assert!((b.total_nj / a.total_nj - 2.0).abs() < 1e-9);
    }
}
