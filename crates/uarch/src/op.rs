//! The dynamic trace-operation vocabulary.
//!
//! While a kernel runs functionally against the platform's `Vm` API, every
//! architectural event is narrated to the timing model as an [`Op`]. The
//! vocabulary is deliberately small: scalar compute, scalar memory,
//! branches, vector instructions (carrying their resolved memory footprint),
//! and explicit scalar↔vector synchronization.

use sdv_rvv::{ExecInfo, FArithKind, MemAccessKind, MemList, RedKind, VInst, VOp};

/// Classification of a vector instruction for costing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VClass {
    /// Single-pass element-wise work (add/mul/FMA/compare/mask/moves).
    Arith,
    /// Long-latency element-wise work (divide).
    ArithLong,
    /// Reductions (lane tree + drain).
    Reduction,
    /// Memory instruction (the footprint rides in [`VectorOp::mem`]).
    Memory,
    /// `vsetvli` — handled on the scalar side but kept for accounting.
    SetVl,
}

/// The memory footprint of one vector load/store, already resolved to cache
/// lines by the functional model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorMemOp {
    /// `true` for loads.
    pub is_load: bool,
    /// `true` when the access was unit-stride (line-burst friendly).
    pub unit_stride: bool,
    /// Distinct line addresses in first-touch order (adjacent same-line
    /// element accesses coalesced, as the vector memory unit would).
    pub lines: Vec<u64>,
    /// Number of element accesses behind those lines.
    pub elems: usize,
}

/// One vector instruction as seen by the timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorOp {
    /// Cost class.
    pub class: VClass,
    /// Vector length it executed at.
    pub vl: usize,
    /// Active (unmasked) elements.
    pub active: usize,
    /// Memory footprint for `VClass::Memory`.
    pub mem: Option<VectorMemOp>,
    /// Whether the scalar core consumes this instruction's scalar result
    /// immediately (vpopc/vmv.x.s) — a synchronization point.
    pub produces_scalar: bool,
    /// Whether this is a floating-point instruction (for FLOP accounting).
    pub is_fp: bool,
}

/// A dynamic trace operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `n` scalar integer/address-generation operations.
    IntOps(u32),
    /// `n` scalar floating-point operations.
    FpOps(u32),
    /// A scalar load of `size` bytes.
    Load {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// A scalar store of `size` bytes.
    Store {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// A conditional branch.
    Branch {
        /// Whether it was taken (taken branches pay a redirect bubble).
        taken: bool,
    },
    /// A vector instruction.
    Vector(VectorOp),
    /// Wait until all outstanding vector work has completed (the scalar core
    /// reads a vector-produced scalar, or the program ends).
    Sync,
}

/// Coalesce element-granular accesses into distinct line addresses in
/// first-touch order. Full dedup for unit-stride bursts; for scattered
/// accesses only *adjacent* same-line elements coalesce, modelling a vector
/// memory unit that compares each address against its predecessor rather
/// than doing a full CAM across the whole request.
pub fn coalesce_lines(accesses: &MemList, line_bytes: u64, unit_stride: bool) -> Vec<u64> {
    let mut lines = Vec::new();
    coalesce_lines_into(accesses, line_bytes, unit_stride, &mut lines);
    lines
}

/// [`coalesce_lines`] into a caller-provided buffer (cleared first), so hot
/// paths can recycle the line list across instructions. Walks the run-length
/// representation directly: within a run addresses climb by `size` (at most a
/// line), so the run's distinct lines are exactly `first..=last` with no
/// skips — one bounds computation replaces the per-element recomputation.
pub fn coalesce_lines_into(
    accesses: &MemList,
    line_bytes: u64,
    unit_stride: bool,
    lines: &mut Vec<u64>,
) {
    lines.clear();
    let mask = !(line_bytes - 1);
    let mut last: Option<u64> = None;
    // High-water mark: a line above every line pushed so far cannot be a
    // duplicate, so the unit-stride dedup scan is skipped entirely for
    // monotonically increasing bursts (the common case — within a run lines
    // strictly climb, so only a backwards jump between runs can force a scan).
    let mut max_seen: Option<u64> = None;
    for r in accesses.runs() {
        debug_assert!(r.size as u64 <= line_bytes, "element larger than a line");
        let first = r.addr & mask;
        let end = (r.addr + r.size as u64 * (r.count as u64 - 1)) & mask;
        let mut l = first;
        loop {
            if last != Some(l)
                && (!unit_stride
                    || max_seen.is_none_or(|m| l > m)
                    || !lines.contains(&l))
            {
                lines.push(l);
                if max_seen.is_none_or(|m| l > m) {
                    max_seen = Some(l);
                }
            }
            last = Some(l);
            if l == end {
                break;
            }
            l += line_bytes;
        }
    }
}

/// Build a [`VectorOp`] from a functionally-executed instruction.
pub fn classify(inst: &VInst, info: &ExecInfo, line_bytes: u64) -> VectorOp {
    let mut pool = Vec::new();
    classify_into(inst, info, line_bytes, &mut pool)
}

/// [`classify`] with a recycled line buffer: for memory instructions the
/// coalesced lines are built in `lines_pool` and moved into the returned
/// [`VectorMemOp`] (leaving `lines_pool` empty). Callers that get the `Vec`
/// back after timing can hand it in again to avoid reallocating.
pub fn classify_into(
    inst: &VInst,
    info: &ExecInfo,
    line_bytes: u64,
    lines_pool: &mut Vec<u64>,
) -> VectorOp {
    let class = match &inst.op {
        VOp::Load { .. } | VOp::LoadWiden { .. } | VOp::Store { .. } => VClass::Memory,
        VOp::FArithVV { kind: FArithKind::Fdiv, .. }
        | VOp::FArithVF { kind: FArithKind::Fdiv, .. } => VClass::ArithLong,
        VOp::Red { .. } => VClass::Reduction,
        _ => VClass::Arith,
    };
    let mem = if class == VClass::Memory {
        let is_load = matches!(inst.op, VOp::Load { .. } | VOp::LoadWiden { .. });
        debug_assert!(info
            .mem
            .iter()
            .all(|a| (a.kind == MemAccessKind::Read) == is_load));
        coalesce_lines_into(&info.mem, line_bytes, info.unit_stride, lines_pool);
        Some(VectorMemOp {
            is_load,
            unit_stride: info.unit_stride,
            lines: std::mem::take(lines_pool),
            elems: info.mem.len(),
        })
    } else {
        None
    };
    let is_fp = matches!(
        inst.op,
        VOp::FArithVV { .. }
            | VOp::FArithVF { .. }
            | VOp::FmaVV { .. }
            | VOp::FmaVF { .. }
            | VOp::Red { kind: RedKind::Fsum, .. }
    );
    VectorOp {
        class,
        vl: info.vl,
        active: info.active,
        mem,
        produces_scalar: inst.produces_scalar(),
        is_fp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_rvv::{ArithKind, MemAccess, MemAddr};

    fn acc(addr: u64) -> MemAccess {
        MemAccess { addr, size: 8, kind: MemAccessKind::Read }
    }

    #[test]
    fn coalesce_unit_stride_dedups_fully() {
        let accesses: MemList = (0..32).map(|i| acc(i * 8)).collect();
        let lines = coalesce_lines(&accesses, 64, true);
        assert_eq!(lines, vec![0, 64, 128, 192]);
    }

    #[test]
    fn coalesce_gather_only_adjacent() {
        // Elements: line 0, line 0, line 64, line 0 -> revisit of line 0 is a
        // separate request (no full CAM).
        let accesses: MemList = [acc(0), acc(8), acc(64), acc(16)].into_iter().collect();
        let lines = coalesce_lines(&accesses, 64, false);
        assert_eq!(lines, vec![0, 64, 0]);
    }

    #[test]
    fn coalesce_empty() {
        assert!(coalesce_lines(&MemList::default(), 64, true).is_empty());
        assert!(coalesce_lines(&MemList::default(), 64, false).is_empty());
    }

    #[test]
    fn coalesce_matches_per_element_walk_on_mixed_runs() {
        // A unit-stride burst, a gap, then a strided tail: the run-walking
        // coalesce must reproduce the per-element reference exactly.
        let mixed: Vec<sdv_rvv::MemAccess> = (0..16)
            .map(|i| acc(i * 8))
            .chain((0..5).map(|i| acc(1024 + i * 40)))
            .collect();
        let list: MemList = mixed.iter().copied().collect();
        for unit in [true, false] {
            let mut want: Vec<u64> = Vec::new();
            let mut last = None;
            for a in &mixed {
                let l = a.addr & !63;
                if last != Some(l) && (!unit || !want.contains(&l)) {
                    want.push(l);
                }
                last = Some(l);
            }
            assert_eq!(coalesce_lines(&list, 64, unit), want, "unit={unit}");
        }
    }

    #[test]
    fn classify_load_builds_footprint() {
        let inst = VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } });
        let info = ExecInfo {
            mem: (0..16).map(|i| acc(i * 8)).collect(),
            scalar: None,
            active: 16,
            vl: 16,
            unit_stride: true,
        };
        let v = classify(&inst, &info, 64);
        assert_eq!(v.class, VClass::Memory);
        let m = v.mem.unwrap();
        assert!(m.is_load);
        assert!(m.unit_stride);
        assert_eq!(m.lines, vec![0, 64]);
        assert_eq!(m.elems, 16);
    }

    #[test]
    fn classify_arith_kinds() {
        let info = ExecInfo { vl: 8, active: 8, ..Default::default() };
        let add = VInst::new(VOp::ArithVX { kind: ArithKind::Add, vd: 1, x: 2, scalar: 3 });
        assert_eq!(classify(&add, &info, 64).class, VClass::Arith);
        let div = VInst::new(VOp::FArithVV { kind: FArithKind::Fdiv, vd: 1, x: 2, y: 3 });
        assert_eq!(classify(&div, &info, 64).class, VClass::ArithLong);
        let mul = VInst::new(VOp::FArithVF { kind: FArithKind::Fmul, vd: 1, x: 2, scalar: 0 });
        assert_eq!(classify(&mul, &info, 64).class, VClass::Arith);
        let red = VInst::new(VOp::Red { kind: RedKind::Fsum, vd: 1, x: 2, acc: 3 });
        assert_eq!(classify(&red, &info, 64).class, VClass::Reduction);
    }

    #[test]
    fn classify_scalar_producers() {
        let info = ExecInfo { vl: 8, active: 8, scalar: Some(3), ..Default::default() };
        let popc = VInst::new(VOp::Popc { m: 0 });
        assert!(classify(&popc, &info, 64).produces_scalar);
    }
}
