//! Functional execution of vector instructions.
#![allow(clippy::needless_range_loop)] // loops index several slices + the mask; indices are clearest
//!
//! [`exec`] applies one [`VInst`] to a [`VState`] and a [`VMemory`],
//! producing an [`ExecInfo`] that reports what happened — the per-element
//! memory accesses, the number of active elements, and any scalar result.
//! The timing model (`sdv-uarch`) consumes `ExecInfo` to cost the
//! instruction; nothing in this module knows about cycles.

use crate::instr::{
    ArithKind, CmpKind, FArithKind, FmaKind, MaskKind, MemAddr, RedKind, Reg, VInst, VOp,
};
use crate::mem::VMemory;
use crate::state::VState;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One element-granular memory access produced by a vector memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes: 8, or 4 for `vlwu`.
    pub size: u8,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// A run of accesses at consecutive addresses: element `k` of the run is at
/// `addr + k * size`. Unit-stride instructions produce one run for the whole
/// vector; gathers degenerate to one run per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRun {
    /// Byte address of the first access in the run.
    pub addr: u64,
    /// Per-access size in bytes: 8, or 4 for `vlwu`.
    pub size: u8,
    /// Number of accesses in the run.
    pub count: u32,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// The memory accesses of one instruction, stored run-length compressed but
/// preserving exact element order. Contiguous same-kind accesses coalesce
/// into a single [`MemRun`]; iterating or indexing expands back to the
/// identical [`MemAccess`] sequence a per-element list would hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemList {
    runs: Vec<MemRun>,
    total: usize,
}

impl MemList {
    /// Number of element-granular accesses (expanded, not runs).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The run-length representation, in element order.
    pub fn runs(&self) -> &[MemRun] {
        &self.runs
    }

    /// Drop all recorded accesses, keeping the allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.total = 0;
    }

    /// Append one access, merging into the last run when contiguous.
    pub fn push(&mut self, a: MemAccess) {
        self.push_run(a.addr, a.size, 1, a.kind);
    }

    /// Append `count` accesses at `addr, addr+size, ...`, merging with the
    /// last run when contiguous. A zero `count` is a no-op.
    pub fn push_run(&mut self, addr: u64, size: u8, count: u32, kind: MemAccessKind) {
        if count == 0 {
            return;
        }
        self.total += count as usize;
        if let Some(last) = self.runs.last_mut() {
            if last.kind == kind
                && last.size == size
                && addr == last.addr + last.size as u64 * last.count as u64
            {
                last.count += count;
                return;
            }
        }
        self.runs.push(MemRun { addr, size, count, kind });
    }

    /// The `i`-th element-granular access, in element order.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn access(&self, i: usize) -> MemAccess {
        let mut k = i;
        for r in &self.runs {
            if k < r.count as usize {
                return MemAccess {
                    addr: r.addr + k as u64 * r.size as u64,
                    size: r.size,
                    kind: r.kind,
                };
            }
            k -= r.count as usize;
        }
        panic!("access index {i} out of range (len {})", self.total);
    }

    /// Iterate the expanded element-granular accesses, in element order.
    pub fn iter(&self) -> impl Iterator<Item = MemAccess> + '_ {
        self.runs.iter().flat_map(|r| {
            (0..r.count as u64).map(move |k| MemAccess {
                addr: r.addr + k * r.size as u64,
                size: r.size,
                kind: r.kind,
            })
        })
    }
}

impl FromIterator<MemAccess> for MemList {
    fn from_iter<T: IntoIterator<Item = MemAccess>>(iter: T) -> Self {
        let mut l = MemList::default();
        for a in iter {
            l.push(a);
        }
        l
    }
}

/// Reusable per-machine scratch buffers for [`exec_into`]. Holding one of
/// these across instructions removes every per-instruction heap allocation
/// from the execution hot path (source snapshots, mask snapshots, element
/// addresses, staged memory bytes).
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    /// First source-operand snapshot.
    pub xs: Vec<u64>,
    /// Second source-operand snapshot.
    pub ys: Vec<u64>,
    /// Destination staging buffer: batch kernels compute every lane here,
    /// then the write-back copies all lanes (unmasked) or only the active
    /// ones (masked) into the register file.
    pub zs: Vec<u64>,
    /// Mask-operand snapshot.
    pub bs: Vec<bool>,
    /// Second mask snapshot (activity or a second mask operand).
    pub bs2: Vec<bool>,
    /// Per-element addresses of a memory instruction (None = masked off).
    pub addrs: Vec<Option<u64>>,
    /// Staged raw bytes for bulk loads/stores.
    pub bytes: Vec<u8>,
}

/// What executing one instruction did — the functional-to-timing bridge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecInfo {
    /// Memory accesses in element order, run-length compressed.
    pub mem: MemList,
    /// Scalar result (for `vpopc`, `vmv.x.s`).
    pub scalar: Option<u64>,
    /// Number of elements that were active (unmasked or mask bit set).
    pub active: usize,
    /// The VL the instruction executed at.
    pub vl: usize,
    /// Whether the addressing mode was unit-stride (timing: line bursts).
    pub unit_stride: bool,
}

impl ExecInfo {
    /// Reset for reuse on the next instruction, keeping allocations.
    pub fn reset(&mut self, vl: usize) {
        self.mem.clear();
        self.scalar = None;
        self.active = 0;
        self.vl = vl;
        self.unit_stride = false;
    }
}

/// Bytes per element in memory for `vlwu`, which zero-extends u32s.
const WIDEN_BYTES: usize = 4;

#[cfg(test)]
#[inline]
fn fp_bin(kind: FArithKind, a: u64, b: u64) -> u64 {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    let r = match kind {
        FArithKind::Fadd => x + y,
        FArithKind::Fsub => x - y,
        FArithKind::Fmul => x * y,
        FArithKind::Fdiv => x / y,
    };
    r.to_bits()
}

#[cfg(test)]
#[inline]
fn fp_fma(kind: FmaKind, acc: u64, a: u64, b: u64) -> u64 {
    let (d, x, y) = (f64::from_bits(acc), f64::from_bits(a), f64::from_bits(b));
    let r = match kind {
        FmaKind::Macc => x.mul_add(y, d),
        FmaKind::Nmsac => (-x).mul_add(y, d),
    };
    r.to_bits()
}

#[cfg(test)]
#[inline]
fn int_bin(kind: ArithKind, a: u64, b: u64) -> u64 {
    match kind {
        ArithKind::Add => a.wrapping_add(b),
        ArithKind::Sll => a << (b & 63),
    }
}

/// Element addresses touched by a memory instruction, in element order.
/// Masked-off elements are *not* accessed (RVV masked loads/stores skip them).
fn element_addrs_into(
    state: &VState,
    addr: &MemAddr,
    masked: bool,
    out: &mut Vec<Option<u64>>,
) -> bool {
    let vl = state.vl;
    out.clear();
    out.reserve(vl);
    let unit = matches!(addr, MemAddr::Unit { .. });
    for i in 0..vl {
        if !state.active(masked, i) {
            out.push(None);
            continue;
        }
        let a = match addr {
            MemAddr::Unit { base } => base + 8 * i as u64,
            MemAddr::Strided { base, stride } => (*base as i64 + stride * i as i64) as u64,
            MemAddr::Indexed { base, index } => base + state.regs.get(*index, i),
        };
        out.push(Some(a));
    }
    unit
}

/// Unmasked unit-stride load of `vl` elements of `W` bytes each (8 for
/// `vle`, 4 for `vlwu`), zero-extended into `vd`: one bulk read staged
/// through `bytes`, recorded as one run.
fn load_unit<M: VMemory, const W: usize>(
    state: &mut VState,
    mem: &M,
    vd: Reg,
    base: u64,
    bytes: &mut Vec<u8>,
    info: &mut ExecInfo,
) {
    let vl = state.vl;
    info.unit_stride = true;
    if vl > 0 {
        bytes.clear();
        bytes.resize(vl * W, 0);
        mem.read_bytes(base, bytes);
        for (w, c) in state.regs.reg_mut(vd).iter_mut().zip(bytes.chunks_exact(W)) {
            let mut b = [0u8; 8];
            b[..W].copy_from_slice(c);
            *w = u64::from_le_bytes(b);
        }
        info.mem.push_run(base, W as u8, vl as u32, MemAccessKind::Read);
        info.active = vl;
    }
}

/// Unmasked unit-stride store of `vl` elements of `vs`: one bulk write
/// staged through `bytes`, recorded as one run.
fn store_unit<M: VMemory>(
    state: &VState,
    mem: &mut M,
    vs: Reg,
    base: u64,
    bytes: &mut Vec<u8>,
    info: &mut ExecInfo,
) {
    let vl = state.vl;
    info.unit_stride = true;
    if vl > 0 {
        bytes.clear();
        bytes.extend(state.regs.reg(vs)[..vl].iter().flat_map(|w| w.to_le_bytes()));
        mem.write_bytes(base, bytes);
        info.mem.push_run(base, 8, vl as u32, MemAccessKind::Write);
        info.active = vl;
    }
}

// ---------------------------------------------------------------------------
// Batch kernels
// ---------------------------------------------------------------------------
//
// The execution hot path works on whole-vector snapshots: operands are read
// into `&[u64]` scratch slices, one `match` on the op kind selects a
// monomorphized slice loop, and results are staged in `zs` then written back
// in bulk. No per-element closure or dispatch appears inside any loop, so
// LLVM can unroll and autovectorize every kernel.
//
// Masked ops compute all `vl` lanes into the staging buffer and then write
// only the active lanes ([`VRegFile::write_elems_where`]); every op is a pure
// per-lane function, so computing an inactive lane and discarding it is
// indistinguishable from skipping it. The activity mask is snapshotted before
// the destination is written, so a masked op whose destination is `v0` sees
// the pre-instruction mask for every lane.

/// Paired element stream for the binary kernels (`vv` form): zips two
/// register snapshots.
#[inline]
fn zip2<'a>(xs: &'a [u64], ys: &'a [u64]) -> impl Iterator<Item = (u64, u64)> + 'a {
    xs.iter().copied().zip(ys.iter().copied())
}

/// Paired element stream for the `vx`/`vf` forms: a snapshot against a
/// broadcast scalar.
#[inline]
fn with_scalar(xs: &[u64], scalar: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    xs.iter().map(move |&a| (a, scalar))
}

/// Write staged lanes to `vd`: all of them when unmasked, only the
/// `v0`-active ones when masked (inactive lanes undisturbed). Returns the
/// number of active lanes.
#[inline]
fn write_lanes(
    state: &mut VState,
    masked: bool,
    vd: Reg,
    vals: &[u64],
    act: &mut Vec<bool>,
) -> usize {
    if masked {
        state.regs.read_mask_bits_into(0, vals.len(), act);
        state.regs.write_elems_where(vd, vals, act)
    } else {
        state.regs.write_elems(vd, vals);
        vals.len()
    }
}

/// Integer binary ops over an element stream. The op-kind dispatch happens
/// once; every arm is its own tight loop.
fn int_bin_batch(kind: ArithKind, pairs: impl Iterator<Item = (u64, u64)>, out: &mut Vec<u64>) {
    out.clear();
    match kind {
        ArithKind::Add => out.extend(pairs.map(|(a, b)| a.wrapping_add(b))),
        ArithKind::Sll => out.extend(pairs.map(|(a, b)| a << (b & 63))),
    }
}

/// FP binary ops over an element stream, kind dispatch hoisted.
fn fp_bin_batch(kind: FArithKind, pairs: impl Iterator<Item = (u64, u64)>, out: &mut Vec<u64>) {
    out.clear();
    macro_rules! fp {
        ($f:expr) => {
            out.extend(pairs.map(|(a, b)| ($f)(f64::from_bits(a), f64::from_bits(b)).to_bits()))
        };
    }
    match kind {
        FArithKind::Fadd => fp!(|x: f64, y: f64| x + y),
        FArithKind::Fsub => fp!(|x: f64, y: f64| x - y),
        FArithKind::Fmul => fp!(|x: f64, y: f64| x * y),
        FArithKind::Fdiv => fp!(|x: f64, y: f64| x / y),
    }
}

/// FP fused multiply-add family, accumulating in place over `acc` (the `vd`
/// snapshot): `acc[i] = fma(acc[i], x_i, y_i)` per [`FmaKind`].
fn fp_fma_batch(kind: FmaKind, acc: &mut [u64], srcs: impl Iterator<Item = (u64, u64)>) {
    macro_rules! fp {
        ($f:expr) => {
            for (d, (a, b)) in acc.iter_mut().zip(srcs) {
                *d = ($f)(f64::from_bits(*d), f64::from_bits(a), f64::from_bits(b)).to_bits();
            }
        };
    }
    match kind {
        FmaKind::Macc => fp!(|d: f64, x: f64, y: f64| x.mul_add(y, d)),
        FmaKind::Nmsac => fp!(|d: f64, x: f64, y: f64| (-x).mul_add(y, d)),
    }
}

/// Reductions over a snapshot with the kind dispatch hoisted; `active` is
/// `None` on the all-lanes fast path.
///
/// **The fold order is pinned**: a strictly sequential left fold from the
/// accumulator seed through element 0, 1, … VL−1, vfredosum-style. This is
/// the *only* reduction implementation, because any reassociation (pairwise
/// trees, per-lane partial sums) changes FP results under cancellation, ±0.0
/// signs, and NaN propagation. Do not add a tree-shaped or vectorized variant
/// without preserving this exact order;
/// `differential::fp_reduction_fold_order_is_pinned` guards it.
fn reduce_batch(kind: RedKind, seed: u64, xs: &[u64], active: Option<&[bool]>) -> u64 {
    macro_rules! fold {
        ($f:expr) => {{
            let f = $f;
            let mut r = seed;
            match active {
                None => {
                    for &v in xs {
                        r = f(r, v);
                    }
                }
                Some(act) => {
                    for (&v, &a) in xs.iter().zip(act) {
                        if a {
                            r = f(r, v);
                        }
                    }
                }
            }
            r
        }};
    }
    match kind {
        RedKind::Sum => fold!(|r: u64, v: u64| r.wrapping_add(v)),
        RedKind::Fsum => {
            fold!(|r: u64, v: u64| (f64::from_bits(r) + f64::from_bits(v)).to_bits())
        }
    }
}

/// Gather the elements at `addrs` into `vals`, recording the accesses in
/// `list`. Contiguous streaks are accumulated in two locals and flushed as
/// whole runs, so the run-length trace is built without a per-element merge
/// check against the list tail; because the kind and size are constant
/// across the loop, the resulting runs are identical to pushing each access
/// individually.
fn gather<M: VMemory>(mem: &M, addrs: &[u64], vals: &mut Vec<u64>, list: &mut MemList) {
    vals.clear();
    let mut run_addr = 0u64;
    let mut run_count = 0u32;
    for &a in addrs {
        vals.push(mem.read_uint(a, 8));
        if run_count > 0 && a == run_addr + 8 * run_count as u64 {
            run_count += 1;
        } else {
            list.push_run(run_addr, 8, run_count, MemAccessKind::Read);
            run_addr = a;
            run_count = 1;
        }
    }
    list.push_run(run_addr, 8, run_count, MemAccessKind::Read);
}

/// Scatter counterpart of [`gather`]: write `vals[i]` to `addrs[i]`,
/// recording run-compressed write accesses.
fn scatter<M: VMemory>(mem: &mut M, addrs: &[u64], vals: &[u64], list: &mut MemList) {
    let mut run_addr = 0u64;
    let mut run_count = 0u32;
    for (&a, &v) in addrs.iter().zip(vals) {
        mem.write_uint(a, 8, v);
        if run_count > 0 && a == run_addr + 8 * run_count as u64 {
            run_count += 1;
        } else {
            list.push_run(run_addr, 8, run_count, MemAccessKind::Write);
            run_addr = a;
            run_count = 1;
        }
    }
    list.push_run(run_addr, 8, run_count, MemAccessKind::Write);
}

/// Compute the element addresses of an unmasked strided/indexed access into
/// `out`. Unit-stride never reaches here — it takes the bulk path. `idx` is
/// scratch for the index-register snapshot.
fn addrs_unmasked(
    state: &VState,
    addr: &MemAddr,
    vl: usize,
    idx: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    out.clear();
    match addr {
        MemAddr::Unit { .. } => unreachable!("unit-stride takes the bulk path"),
        MemAddr::Strided { base, stride } => {
            out.extend((0..vl).map(|i| (*base as i64 + stride * i as i64) as u64));
        }
        MemAddr::Indexed { base, index } => {
            state.regs.read_elems_into(*index, vl, idx);
            out.extend(idx.iter().map(|&o| base + o));
        }
    }
}

/// Execute one instruction with fresh buffers. Convenience wrapper around
/// [`exec_into`] for tests and one-off callers; hot loops should hold an
/// [`ExecScratch`] + [`ExecInfo`] and call [`exec_into`] directly.
///
/// # Panics
/// Panics when an access falls outside the memory (a programming error in
/// the kernel, not a runtime condition).
pub fn exec<M: VMemory>(inst: &VInst, state: &mut VState, mem: &mut M) -> ExecInfo {
    let mut scratch = ExecScratch::default();
    let mut info = ExecInfo::default();
    exec_into(inst, state, mem, &mut scratch, &mut info);
    info
}

/// Execute one instruction, reusing `scratch` buffers and writing the outcome
/// into `info` (which is reset first). Allocation-free after warm-up.
///
/// # Panics
/// Panics when an access falls outside the memory (a programming error in
/// the kernel, not a runtime condition).
pub fn exec_into<M: VMemory>(
    inst: &VInst,
    state: &mut VState,
    mem: &mut M,
    scratch: &mut ExecScratch,
    info: &mut ExecInfo,
) {
    let vl = state.vl;
    let masked = inst.masked;
    info.reset(vl);
    // Split borrows: each buffer is borrowed independently of `state`.
    // Sources are snapshotted into these before any write, keeping every op
    // alias-safe (vd may equal a source register).
    let ExecScratch { xs, ys, zs, bs, bs2, addrs, bytes } = scratch;

    match &inst.op {
        VOp::Load { vd, addr } => {
            if !masked {
                if let MemAddr::Unit { base } = addr {
                    load_unit::<M, 8>(state, mem, *vd, *base, bytes, info);
                } else {
                    // Strided/indexed gather: compute every address, then one
                    // element loop builds the value batch and the
                    // run-compressed trace together.
                    addrs_unmasked(state, addr, vl, ys, xs);
                    gather(mem, xs, zs, &mut info.mem);
                    state.regs.write_elems(*vd, zs);
                    info.active = vl;
                }
            } else {
                let unit = element_addrs_into(state, addr, masked, addrs);
                info.unit_stride = unit;
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        state.regs.set(*vd, i, mem.read_uint(a, 8));
                        info.mem.push(MemAccess { addr: a, size: 8, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::LoadWiden { vd, base } => {
            if !masked {
                load_unit::<M, WIDEN_BYTES>(state, mem, *vd, *base, bytes, info);
            } else {
                info.unit_stride = true;
                for i in 0..vl {
                    if state.active(masked, i) {
                        let a = base + (i * WIDEN_BYTES) as u64;
                        state.regs.set(*vd, i, mem.read_uint(a, WIDEN_BYTES));
                        let size = WIDEN_BYTES as u8;
                        info.mem.push(MemAccess { addr: a, size, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::Store { vs, addr } => {
            if !masked {
                if let MemAddr::Unit { base } = addr {
                    store_unit(state, mem, *vs, *base, bytes, info);
                } else {
                    state.regs.read_elems_into(*vs, vl, zs);
                    addrs_unmasked(state, addr, vl, ys, xs);
                    scatter(mem, xs, zs, &mut info.mem);
                    info.active = vl;
                }
            } else {
                let unit = element_addrs_into(state, addr, masked, addrs);
                info.unit_stride = unit;
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        mem.write_uint(a, 8, state.regs.get(*vs, i));
                        info.mem.push(MemAccess { addr: a, size: 8, kind: MemAccessKind::Write });
                        info.active += 1;
                    }
                }
            }
        }
        VOp::ArithVX { kind, vd, x, scalar } => {
            state.regs.read_elems_into(*x, vl, xs);
            int_bin_batch(*kind, with_scalar(xs, *scalar), zs);
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::FArithVV { kind, vd, x, y } => {
            state.regs.read_elems_into(*x, vl, xs);
            state.regs.read_elems_into(*y, vl, ys);
            fp_bin_batch(*kind, zip2(xs, ys), zs);
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::FArithVF { kind, vd, x, scalar } => {
            state.regs.read_elems_into(*x, vl, xs);
            fp_bin_batch(*kind, with_scalar(xs, *scalar), zs);
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::FmaVV { kind, vd, x, y } => {
            state.regs.read_elems_into(*x, vl, xs);
            state.regs.read_elems_into(*y, vl, ys);
            state.regs.read_elems_into(*vd, vl, zs);
            fp_fma_batch(*kind, zs, zip2(xs, ys));
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::FmaVF { kind, vd, scalar, y } => {
            state.regs.read_elems_into(*y, vl, ys);
            state.regs.read_elems_into(*vd, vl, zs);
            let s = *scalar;
            fp_fma_batch(*kind, zs, ys.iter().map(|&b| (s, b)));
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::CmpVX { kind: CmpKind::Eq, md, x, scalar } => {
            state.regs.read_elems_into(*x, vl, xs);
            state.snapshot_active(masked, vl, bs2);
            bs.clear();
            bs.extend(xs.iter().map(|a| a == scalar));
            state.regs.write_mask_bits_where(*md, bs, bs2);
            info.active = bs2.iter().filter(|&&a| a).count();
        }
        VOp::MaskOp { kind, md, m1, m2 } => {
            state.regs.read_mask_bits_into(*m1, vl, bs);
            state.regs.read_mask_bits_into(*m2, vl, bs2);
            for i in 0..vl {
                bs[i] = match kind {
                    MaskKind::And => bs[i] & bs2[i],
                    MaskKind::Or => bs[i] | bs2[i],
                };
            }
            state.regs.write_mask_bits(*md, bs);
            info.active = vl;
        }
        VOp::Popc { m } => {
            state.regs.read_mask_bits_into(*m, vl, bs);
            let n = if masked {
                state.regs.read_mask_bits_into(0, vl, bs2);
                bs.iter().zip(bs2.iter()).filter(|&(&v, &a)| v && a).count()
            } else {
                bs.iter().filter(|&&v| v).count()
            };
            info.scalar = Some(n as u64);
            info.active = vl;
        }
        VOp::Red { kind, vd, x, acc } => {
            state.regs.read_elems_into(*x, vl, xs);
            let seed = state.regs.get(*acc, 0);
            let r = if masked {
                state.regs.read_mask_bits_into(0, vl, bs2);
                info.active = bs2.iter().filter(|&&a| a).count();
                reduce_batch(*kind, seed, xs, Some(bs2))
            } else {
                info.active = vl;
                reduce_batch(*kind, seed, xs, None)
            };
            state.regs.set(*vd, 0, r);
        }
        VOp::Mv { vd, x } => {
            state.regs.read_elems_into(*x, vl, xs);
            info.active = write_lanes(state, masked, *vd, xs, bs);
        }
        VOp::MvVX { vd, scalar } => {
            zs.clear();
            zs.resize(vl, *scalar);
            info.active = write_lanes(state, masked, *vd, zs, bs);
        }
        VOp::MvSX { vd, scalar } => {
            state.regs.set(*vd, 0, *scalar);
            info.active = 1;
        }
        VOp::MvXS { x } => {
            info.scalar = Some(state.regs.get(*x, 0));
            info.active = 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Reference interpreter (tests only)
// ---------------------------------------------------------------------------

/// The pre-batch per-element interpreter, kept as the oracle for the
/// differential tests: every element re-dispatches on op kind x mask.
/// Slow but obvious -- each arm is a direct transcription of the RVV
/// semantics, with no staging buffers and no bulk paths.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Execute one instruction the slow way. Matches [`exec`] exactly (the
    /// differential tests below assert this).
    pub(crate) fn exec_ref<M: VMemory>(inst: &VInst, state: &mut VState, mem: &mut M) -> ExecInfo {
        let vl = state.vl;
        let masked = inst.masked;
        let mut out = ExecInfo::default();
        out.reset(vl);
        let info = &mut out;
        let mut xs: Vec<u64> = Vec::new();
        let mut ys: Vec<u64> = Vec::new();
        let mut bs: Vec<bool> = Vec::new();
        let mut bs2: Vec<bool> = Vec::new();
        let mut addrs: Vec<Option<u64>> = Vec::new();
        let (xs, ys, bs, bs2, addrs) = (&mut xs, &mut ys, &mut bs, &mut bs2, &mut addrs);

        match &inst.op {
            VOp::Load { vd, addr } => {
                info.unit_stride = element_addrs_into(state, addr, masked, addrs);
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        state.regs.set(*vd, i, mem.read_uint(a, 8));
                        info.mem.push(MemAccess { addr: a, size: 8, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
            VOp::LoadWiden { vd, base } => {
                info.unit_stride = true;
                for i in 0..vl {
                    if state.active(masked, i) {
                        let a = base + (i * WIDEN_BYTES) as u64;
                        state.regs.set(*vd, i, mem.read_uint(a, WIDEN_BYTES));
                        let size = WIDEN_BYTES as u8;
                        info.mem.push(MemAccess { addr: a, size, kind: MemAccessKind::Read });
                        info.active += 1;
                    }
                }
            }
            VOp::Store { vs, addr } => {
                info.unit_stride = element_addrs_into(state, addr, masked, addrs);
                for (i, a) in addrs.iter().enumerate() {
                    if let Some(a) = *a {
                        mem.write_uint(a, 8, state.regs.get(*vs, i));
                        info.mem.push(MemAccess { addr: a, size: 8, kind: MemAccessKind::Write });
                        info.active += 1;
                    }
                }
            }
            VOp::ArithVX { kind, vd, x, scalar } => {
                state.regs.read_elems_into(*x, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, i, int_bin(*kind, xs[i], *scalar));
                        info.active += 1;
                    }
                }
            }
            VOp::FArithVV { kind, vd, x, y } => {
                state.regs.read_elems_into(*x, vl, xs);
                state.regs.read_elems_into(*y, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, i, fp_bin(*kind, xs[i], ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::FArithVF { kind, vd, x, scalar } => {
                state.regs.read_elems_into(*x, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, i, fp_bin(*kind, xs[i], *scalar));
                        info.active += 1;
                    }
                }
            }
            VOp::FmaVV { kind, vd, x, y } => {
                state.regs.read_elems_into(*x, vl, xs);
                state.regs.read_elems_into(*y, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let acc = state.regs.get(*vd, i);
                        state.regs.set(*vd, i, fp_fma(*kind, acc, xs[i], ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::FmaVF { kind, vd, scalar, y } => {
                state.regs.read_elems_into(*y, vl, ys);
                for i in 0..vl {
                    if state.active(masked, i) {
                        let acc = state.regs.get(*vd, i);
                        state.regs.set(*vd, i, fp_fma(*kind, acc, *scalar, ys[i]));
                        info.active += 1;
                    }
                }
            }
            VOp::CmpVX { kind: CmpKind::Eq, md, x, scalar } => {
                state.regs.read_elems_into(*x, vl, xs);
                state.snapshot_active(masked, vl, bs2);
                bs.clear();
                bs.extend((0..vl).map(|i| xs[i] == *scalar));
                state.regs.write_mask_bits_where(*md, bs, bs2);
                info.active = bs2.iter().filter(|&&a| a).count();
            }
            VOp::MaskOp { kind, md, m1, m2 } => {
                state.regs.read_mask_bits_into(*m1, vl, bs);
                state.regs.read_mask_bits_into(*m2, vl, bs2);
                for i in 0..vl {
                    bs[i] = match kind {
                        MaskKind::And => bs[i] & bs2[i],
                        MaskKind::Or => bs[i] | bs2[i],
                    };
                }
                state.regs.write_mask_bits(*md, bs);
                info.active = vl;
            }
            VOp::Popc { m } => {
                state.regs.read_mask_bits_into(*m, vl, bs);
                let n = if masked {
                    state.regs.read_mask_bits_into(0, vl, bs2);
                    bs.iter().zip(bs2.iter()).filter(|&(&v, &a)| v && a).count()
                } else {
                    bs.iter().filter(|&&v| v).count()
                };
                info.scalar = Some(n as u64);
                info.active = vl;
            }
            VOp::Red { kind, vd, x, acc } => {
                state.regs.read_elems_into(*x, vl, xs);
                let mut r = state.regs.get(*acc, 0);
                for (i, &v) in xs.iter().enumerate() {
                    if !state.active(masked, i) {
                        continue;
                    }
                    info.active += 1;
                    r = match kind {
                        RedKind::Sum => r.wrapping_add(v),
                        RedKind::Fsum => fp_bin(FArithKind::Fadd, r, v),
                    };
                }
                state.regs.set(*vd, 0, r);
            }
            VOp::Mv { vd, x } => {
                state.regs.read_elems_into(*x, vl, xs);
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, i, xs[i]);
                        info.active += 1;
                    }
                }
            }
            VOp::MvVX { vd, scalar } => {
                for i in 0..vl {
                    if state.active(masked, i) {
                        state.regs.set(*vd, i, *scalar);
                        info.active += 1;
                    }
                }
            }
            VOp::MvSX { vd, scalar } => {
                state.regs.set(*vd, 0, *scalar);
                info.active = 1;
            }
            VOp::MvXS { x } => {
                info.scalar = Some(state.regs.get(*x, 0));
                info.active = 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMemory;
    use crate::{Lmul, Sew};

    fn st(vl: usize) -> VState {
        let mut s = VState::paper_vpu();
        s.set_vl(vl, Sew::E64, Lmul::M1);
        s
    }

    fn run(s: &mut VState, op: VOp) -> ExecInfo {
        let mut m = FlatMemory::new(1);
        exec(&VInst::new(op), s, &mut m)
    }

    fn run_masked(s: &mut VState, op: VOp) -> ExecInfo {
        let mut m = FlatMemory::new(1);
        exec(&VInst::masked(op), s, &mut m)
    }

    #[test]
    fn unit_load_store_roundtrip() {
        let mut s = st(8);
        let mut mem = FlatMemory::new(1024);
        for i in 0..8 {
            mem.write_uint(i * 8, 8, 100 + i);
        }
        let info = exec(
            &VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 8);
        assert!(info.unit_stride);
        assert_eq!(s.regs.get(1, 0), 100);
        assert_eq!(s.regs.get(1, 7), 107);
        let info = exec(
            &VInst::new(VOp::Store { vs: 1, addr: MemAddr::Unit { base: 512 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 8);
        assert_eq!(mem.read_uint(512 + 7 * 8, 8), 107);
    }

    #[test]
    fn strided_load_reads_with_stride() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        for i in 0..4u64 {
            mem.write_uint(i * 24, 8, i + 1);
        }
        exec(
            &VInst::new(VOp::Load { vd: 2, addr: MemAddr::Strided { base: 0, stride: 24 } }),
            &mut s,
            &mut mem,
        );
        for i in 0..4 {
            assert_eq!(s.regs.get(2, i), i as u64 + 1);
        }
    }

    #[test]
    fn indexed_gather_uses_byte_offsets() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        mem.write_uint(40, 8, 7);
        mem.write_uint(8, 8, 9);
        // offsets: 40, 8, 40, 8
        for (i, off) in [40u64, 8, 40, 8].iter().enumerate() {
            s.regs.set(3, i, *off);
        }
        let info = exec(
            &VInst::new(VOp::Load { vd: 4, addr: MemAddr::Indexed { base: 0, index: 3 } }),
            &mut s,
            &mut mem,
        );
        assert!(!info.unit_stride);
        assert_eq!(s.regs.get(4, 0), 7);
        assert_eq!(s.regs.get(4, 1), 9);
        assert_eq!(s.regs.get(4, 2), 7);
        assert_eq!(s.regs.get(4, 3), 9);
    }
    #[test]
    fn widening_load_unit_stride() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        // Four consecutive u32 values.
        for i in 0..4u64 {
            mem.write_uint(i * 4, 4, 0x8000_0000 + i);
        }
        let info = exec(&VInst::new(VOp::LoadWiden { vd: 2, base: 0 }), &mut s, &mut mem);
        assert!(info.unit_stride);
        assert_eq!(info.mem.len(), 4);
        assert_eq!(info.mem.access(1).addr, 4, "element footprint is 4 bytes");
        assert_eq!(info.mem.access(0).size, 4);
        for i in 0..4 {
            assert_eq!(s.regs.get(2, i), 0x8000_0000 + i as u64, "zero-extended");
        }
    }

    #[test]
    fn masked_load_skips_inactive_elements() {
        let mut s = st(4);
        let mut mem = FlatMemory::new(1024);
        for i in 0..4u64 {
            mem.write_uint(i * 8, 8, 50 + i);
        }
        s.regs.set_mask(0, 0, true);
        s.regs.set_mask(0, 2, true);
        s.regs.set(5, 1, 999); // will stay undisturbed
        let info = exec(
            &VInst::masked(VOp::Load { vd: 5, addr: MemAddr::Unit { base: 0 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 2);
        assert_eq!(info.active, 2);
        assert_eq!(s.regs.get(5, 0), 50);
        assert_eq!(s.regs.get(5, 1), 999);
        assert_eq!(s.regs.get(5, 2), 52);
    }

    #[test]
    fn int_add_and_tail_undisturbed() {
        let mut s = st(4);
        s.regs.set(10, 4, 777); // beyond vl: must stay
        for i in 0..4 {
            s.regs.set(8, i, i as u64);
        }
        run(&mut s, VOp::ArithVX { kind: ArithKind::Add, vd: 10, x: 8, scalar: 10 });
        for i in 0..4 {
            assert_eq!(s.regs.get(10, i), i as u64 + 10);
        }
        assert_eq!(s.regs.get(10, 4), 777, "tail must be undisturbed");
    }

    #[test]
    fn arith_vx_add_and_sll() {
        let mut s = st(3);
        for i in 0..3 {
            s.regs.set(1, i, 5);
        }
        run(&mut s, VOp::ArithVX { kind: ArithKind::Add, vd: 2, x: 1, scalar: 20 });
        assert_eq!(s.regs.get(2, 0), 25);
        run(&mut s, VOp::ArithVX { kind: ArithKind::Sll, vd: 2, x: 1, scalar: 3 });
        assert_eq!(s.regs.get(2, 0), 40); // 5 << 3
                                          // Shift amounts are taken mod 64: 67 & 63 = 3.
        run(&mut s, VOp::ArithVX { kind: ArithKind::Sll, vd: 2, x: 1, scalar: 67 });
        assert_eq!(s.regs.get(2, 0), 40);
    }

    #[test]
    fn fp_ops_and_fma() {
        let mut s = st(2);
        s.regs.set_f64(1, 0, 2.0);
        s.regs.set_f64(1, 1, -4.0);
        s.regs.set_f64(2, 0, 3.0);
        s.regs.set_f64(2, 1, 0.5);
        run(&mut s, VOp::FArithVV { kind: FArithKind::Fmul, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 6.0);
        assert_eq!(s.regs.get_f64(3, 1), -2.0);
        // vd += x*y
        run(&mut s, VOp::FmaVV { kind: FmaKind::Macc, vd: 3, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 12.0);
        assert_eq!(s.regs.get_f64(3, 1), -4.0);
        run(
            &mut s,
            VOp::FArithVF { kind: FArithKind::Fadd, vd: 3, x: 3, scalar: 1.0f64.to_bits() },
        );
        assert_eq!(s.regs.get_f64(3, 0), 13.0);
        // vd -= s*y
        run(&mut s, VOp::FmaVF { kind: FmaKind::Nmsac, vd: 3, scalar: 2.0f64.to_bits(), y: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 7.0);
        run(&mut s, VOp::FArithVV { kind: FArithKind::Fsub, vd: 4, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(4, 1), -4.5);
        run(&mut s, VOp::FArithVV { kind: FArithKind::Fdiv, vd: 4, x: 1, y: 2 });
        assert_eq!(s.regs.get_f64(4, 1), -8.0);
    }

    #[test]
    fn compare_sets_mask_bits() {
        let mut s = st(4);
        for (i, v) in [1u64, 5, 3, 5].iter().enumerate() {
            s.regs.set(1, i, *v);
        }
        run(&mut s, VOp::CmpVX { kind: CmpKind::Eq, md: 7, x: 1, scalar: 5 });
        assert!(!s.regs.get_mask(7, 0));
        assert!(s.regs.get_mask(7, 1));
        assert!(!s.regs.get_mask(7, 2));
        assert!(s.regs.get_mask(7, 3));
    }

    #[test]
    fn mask_logicals() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_mask(1, i, i % 2 == 0); // 1010
            s.regs.set_mask(2, i, i < 2); //       1100
        }
        run(&mut s, VOp::MaskOp { kind: MaskKind::And, md: 3, m1: 1, m2: 2 });
        assert_eq!(
            (0..4).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
        run(&mut s, VOp::MaskOp { kind: MaskKind::Or, md: 3, m1: 1, m2: 2 });
        assert_eq!(
            (0..4).map(|i| s.regs.get_mask(3, i)).collect::<Vec<_>>(),
            vec![true, true, true, false]
        );
    }

    #[test]
    fn popc_counts_bits_below_vl() {
        let mut s = st(8);
        for i in [1usize, 3, 4, 7, 9] {
            s.regs.set_mask(2, i, true); // bit 9 is beyond vl
        }
        let info = run(&mut s, VOp::Popc { m: 2 });
        assert_eq!(info.scalar, Some(4));
        s.regs.set_mask(0, 3, true);
        s.regs.set_mask(0, 5, true);
        let info = run_masked(&mut s, VOp::Popc { m: 2 });
        assert_eq!(info.scalar, Some(1), "under v0.t only active set bits count");
    }

    #[test]
    fn fp_reduction_sum_with_seed() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_f64(1, i, (i + 1) as f64); // 1+2+3+4 = 10
        }
        s.regs.set_f64(2, 0, 100.0); // seed
        run(&mut s, VOp::Red { kind: RedKind::Fsum, vd: 3, x: 1, acc: 2 });
        assert_eq!(s.regs.get_f64(3, 0), 110.0);
    }

    #[test]
    fn masked_reduction_skips_inactive() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_f64(1, i, (i + 1) as f64);
        }
        s.regs.set_mask(0, 0, true);
        s.regs.set_mask(0, 2, true);
        s.regs.set_f64(2, 0, 0.0);
        let mut m = FlatMemory::new(1);
        exec(&VInst::masked(VOp::Red { kind: RedKind::Fsum, vd: 3, x: 1, acc: 2 }), &mut s, &mut m);
        assert_eq!(s.regs.get_f64(3, 0), 4.0); // 1 + 3
    }

    #[test]
    fn int_reduction_sum() {
        let mut s = st(4);
        for (i, v) in [5u64, 2, 9, 1].iter().enumerate() {
            s.regs.set(1, i, *v);
        }
        s.regs.set(2, 0, 100);
        run(&mut s, VOp::Red { kind: RedKind::Sum, vd: 3, x: 1, acc: 2 });
        assert_eq!(s.regs.get(3, 0), 117);
    }

    #[test]
    fn moves_and_broadcast() {
        let mut s = st(3);
        run(&mut s, VOp::MvVX { vd: 1, scalar: 42 });
        for i in 0..3 {
            assert_eq!(s.regs.get(1, i), 42);
        }
        run(&mut s, VOp::MvSX { vd: 2, scalar: 7 });
        assert_eq!(s.regs.get(2, 0), 7);
        assert_eq!(s.regs.get(2, 1), 0);
        let info = run(&mut s, VOp::MvXS { x: 2 });
        assert_eq!(info.scalar, Some(7));
        run(&mut s, VOp::Mv { vd: 3, x: 1 });
        assert_eq!(s.regs.get(3, 2), 42);
    }

    #[test]
    fn masked_arith_leaves_inactive_undisturbed() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set(1, i, 10);
            s.regs.set(3, i, 555);
            s.regs.set_mask(0, i, i >= 2);
        }
        let info =
            run_masked(&mut s, VOp::ArithVX { kind: ArithKind::Add, vd: 3, x: 1, scalar: 1 });
        assert_eq!(info.active, 2);
        assert_eq!(s.regs.get(3, 0), 555);
        assert_eq!(s.regs.get(3, 1), 555);
        assert_eq!(s.regs.get(3, 2), 11);
        assert_eq!(s.regs.get(3, 3), 11);
    }

    #[test]
    fn vl_zero_is_a_nop() {
        let mut s = st(0);
        s.regs.set(2, 0, 123);
        let info = run(&mut s, VOp::ArithVX { kind: ArithKind::Add, vd: 2, x: 1, scalar: 1 });
        assert_eq!(info.active, 0);
        assert_eq!(s.regs.get(2, 0), 123);
    }

    #[test]
    fn alias_safe_binary_op() {
        let mut s = st(4);
        for i in 0..4 {
            s.regs.set_f64(1, i, i as f64 + 1.0);
        }
        // vd == x == y: vd[i] = x[i] + y[i] must read pre-write values.
        run(&mut s, VOp::FArithVV { kind: FArithKind::Fadd, vd: 1, x: 1, y: 1 });
        for i in 0..4 {
            assert_eq!(s.regs.get_f64(1, i), 2.0 * (i as f64 + 1.0));
        }
    }

    #[test]
    fn memlist_merges_contiguous_and_expands_in_order() {
        let mut l = MemList::default();
        for i in 0..4u64 {
            l.push(MemAccess { addr: 100 + i * 8, size: 8, kind: MemAccessKind::Read });
        }
        assert_eq!(l.runs().len(), 1, "contiguous same-kind accesses coalesce");
        assert_eq!(l.len(), 4);
        l.push(MemAccess { addr: 500, size: 8, kind: MemAccessKind::Read });
        l.push(MemAccess { addr: 508, size: 8, kind: MemAccessKind::Write });
        assert_eq!(l.runs().len(), 3, "gap and kind change both break runs");
        assert_eq!(l.len(), 6);
        let flat: Vec<MemAccess> = l.iter().collect();
        assert_eq!(flat.len(), 6);
        for (i, a) in flat.iter().enumerate() {
            assert_eq!(*a, l.access(i), "iter and access agree at {i}");
        }
        assert_eq!(l.access(3).addr, 124);
        assert_eq!(l.access(4).addr, 500);
        assert_eq!(l.access(5).kind, MemAccessKind::Write);
    }

    #[test]
    fn memlist_strided_pushes_stay_separate() {
        let l: MemList = (0..5u64)
            .map(|i| MemAccess { addr: i * 24, size: 8, kind: MemAccessKind::Write })
            .collect();
        assert_eq!(l.len(), 5);
        assert_eq!(l.runs().len(), 5);
        assert_eq!(l.access(2).addr, 48);
    }

    #[test]
    fn memlist_push_run_merges_and_skips_empty() {
        let mut l = MemList::default();
        l.push_run(0, 8, 4, MemAccessKind::Read);
        l.push_run(32, 8, 4, MemAccessKind::Read);
        assert_eq!(l.runs().len(), 1, "adjacent runs merge");
        assert_eq!(l.len(), 8);
        l.push_run(96, 8, 0, MemAccessKind::Read);
        assert_eq!(l.len(), 8, "count 0 is a no-op");
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.runs().len(), 0);
    }

    #[test]
    fn exec_into_with_reused_scratch_matches_fresh_exec() {
        // Run a sequence of instructions twice: once with exec() (fresh
        // buffers each time) and once through a single reused scratch/info.
        // Register state, memory, and ExecInfo must match exactly.
        let prog = [
            VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 0 } }),
            VInst::new(VOp::ArithVX { kind: ArithKind::Add, vd: 2, x: 1, scalar: 5 }),
            VInst::masked(VOp::Load { vd: 3, addr: MemAddr::Strided { base: 8, stride: 16 } }),
            VInst::new(VOp::CmpVX { kind: CmpKind::Eq, md: 4, x: 2, scalar: 108 }),
            VInst::new(VOp::Store { vs: 2, addr: MemAddr::Unit { base: 256 } }),
        ];
        let setup = || {
            let mut s = st(8);
            let mut mem = FlatMemory::new(1024);
            for i in 0..8 {
                mem.write_uint(i * 8, 8, 100 + i);
            }
            for i in 0..8 {
                s.regs.set_mask(0, i as usize, i % 2 == 0);
            }
            (s, mem)
        };
        let (mut s1, mut m1) = setup();
        let fresh: Vec<ExecInfo> = prog.iter().map(|i| exec(i, &mut s1, &mut m1)).collect();
        let (mut s2, mut m2) = setup();
        let mut scratch = ExecScratch::default();
        let mut info = ExecInfo::default();
        for (i, inst) in prog.iter().enumerate() {
            exec_into(inst, &mut s2, &mut m2, &mut scratch, &mut info);
            assert_eq!(info, fresh[i], "instruction {i}");
        }
        for r in 0..8u8 {
            assert_eq!(s1.regs.reg(r), s2.regs.reg(r));
        }
        assert_eq!(m1.read_uint(256 + 7 * 8, 8), m2.read_uint(256 + 7 * 8, 8));
    }

    #[test]
    fn bulk_unit_load_records_single_run() {
        let mut s = st(8);
        let mut mem = FlatMemory::new(1024);
        let info = exec(
            &VInst::new(VOp::Load { vd: 1, addr: MemAddr::Unit { base: 64 } }),
            &mut s,
            &mut mem,
        );
        assert_eq!(info.mem.len(), 8);
        assert_eq!(info.mem.runs().len(), 1);
        let r = info.mem.runs()[0];
        assert_eq!((r.addr, r.size, r.count, r.kind), (64, 8, 8, MemAccessKind::Read));
    }
}
#[cfg(test)]
mod differential {
    //! Differential tests: the batch kernels behind [`exec_into`] — the one
    //! execution engine — against the naive per-element [`reference`]
    //! interpreter, swept over every op family × mask pattern × edge VLs,
    //! plus destination aliasing, a seeded mixed program, and the pinned
    //! FP-reduction fold. Equality is exact: the returned [`ExecInfo`]
    //! (including the memory trace), all 32 registers, and the full memory
    //! image must match bit for bit.

    use super::reference::exec_ref;
    use super::*;
    use crate::mem::FlatMemory;
    use crate::regfile::VLMAX;
    use crate::{Lmul, Sew};
    use sdv_engine::Rng;

    const MEM_SIZE: usize = 128 * 1024;
    const EDGE_VLS: [usize; 5] = [0, 1, 7, 255, 256];

    const ARITH: [ArithKind; 2] = [ArithKind::Add, ArithKind::Sll];
    const MASK: [MaskKind; 2] = [MaskKind::And, MaskKind::Or];
    const FARITH: [FArithKind; 4] =
        [FArithKind::Fadd, FArithKind::Fsub, FArithKind::Fmul, FArithKind::Fdiv];
    const FMA: [FmaKind; 2] = [FmaKind::Macc, FmaKind::Nmsac];

    /// A fully-random starting state: every register and every memory byte
    /// seeded, so undisturbed-element and tail behaviour can't hide behind
    /// zeroes.
    fn templates() -> (VState, FlatMemory) {
        let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
        let mut s = VState::paper_vpu();
        for r in 0..32u8 {
            s.regs.reg_mut(r).fill_with(|| rng.next_u64());
        }
        let mut m = FlatMemory::new(MEM_SIZE);
        let bytes: Vec<u8> = (0..MEM_SIZE / 8).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        m.write_bytes(0, &bytes);
        (s, m)
    }

    /// Mask patterns written into `v0` for the masked sweeps.
    #[derive(Clone, Copy, Debug)]
    enum MaskPat {
        Unmasked,
        Alternating,
        AllClear,
        AllSet,
        Random,
    }

    const ALL_PATS: [MaskPat; 5] = [
        MaskPat::Unmasked,
        MaskPat::Alternating,
        MaskPat::AllClear,
        MaskPat::AllSet,
        MaskPat::Random,
    ];

    impl MaskPat {
        fn masked(self) -> bool {
            !matches!(self, MaskPat::Unmasked)
        }

        fn bit(self, i: usize) -> bool {
            match self {
                MaskPat::Unmasked | MaskPat::AllSet => true,
                MaskPat::Alternating => i.is_multiple_of(2),
                MaskPat::AllClear => false,
                MaskPat::Random => (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1,
            }
        }
    }

    /// The op catalog. Register conventions: `v0` is the mask, `v4` holds
    /// controlled byte offsets for indexed addressing, and every destination
    /// is `>= 1` so masked runs never overwrite the mask register
    /// mid-instruction.
    fn catalog() -> Vec<VOp> {
        use VOp::*;
        let mut ops = vec![
            Load { vd: 6, addr: MemAddr::Unit { base: 4096 } },
            Store { vs: 6, addr: MemAddr::Unit { base: 4096 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 4096, stride: 40 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 4096, stride: 40 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 4096, stride: 0 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 65536, stride: 0 } },
            Load { vd: 6, addr: MemAddr::Strided { base: 65536, stride: -48 } },
            Store { vs: 6, addr: MemAddr::Strided { base: 65536, stride: -48 } },
            Load { vd: 6, addr: MemAddr::Indexed { base: 8192, index: 4 } },
            Store { vs: 6, addr: MemAddr::Indexed { base: 8192, index: 4 } },
            LoadWiden { vd: 6, base: 4096 },
        ];
        for kind in ARITH {
            ops.push(ArithVX { kind, vd: 1, x: 2, scalar: 0x1234_5678_9abc_def0 });
        }
        ops.push(CmpVX { kind: CmpKind::Eq, md: 5, x: 2, scalar: 0x80 });
        for kind in MASK {
            ops.push(MaskOp { kind, md: 5, m1: 6, m2: 7 });
        }
        ops.push(Popc { m: 6 });
        ops.push(Red { kind: RedKind::Sum, vd: 1, x: 2, acc: 3 });
        ops.push(Mv { vd: 1, x: 2 });
        ops.push(MvVX { vd: 1, scalar: 0xfeed_face });
        ops.push(MvSX { vd: 1, scalar: 0xfeed_face });
        ops.push(MvXS { x: 2 });
        for kind in FARITH {
            ops.push(FArithVV { kind, vd: 1, x: 2, y: 3 });
            ops.push(FArithVF { kind, vd: 1, x: 2, scalar: (-0.75f64).to_bits() });
        }
        for kind in FMA {
            ops.push(FmaVV { kind, vd: 1, x: 2, y: 3 });
            ops.push(FmaVF { kind, vd: 1, scalar: 2.5f64.to_bits(), y: 3 });
        }
        ops.push(Red { kind: RedKind::Fsum, vd: 1, x: 2, acc: 3 });
        ops
    }

    /// Run one instruction through the engine and the reference from
    /// identical state and assert bit-exact agreement on trace, registers,
    /// and memory.
    fn run_case(op: &VOp, pat: MaskPat, vl: usize, st: &VState, mt: &FlatMemory) {
        let mut s1 = st.clone();
        assert_eq!(s1.set_vl(vl, Sew::E64, Lmul::M1), vl, "test VL {vl} must be grantable");
        for i in 0..vl {
            s1.regs.set_mask(0, i, pat.bit(i));
        }
        // Controlled byte offsets for indexed addressing: in bounds,
        // unaligned on odd elements, colliding across elements.
        for i in 0..vl {
            let off = (((i * 37) % 512) * 8 + (i % 2) * 4) as u64;
            s1.regs.set(4, i, off);
        }
        let mut m1 = mt.clone();
        let mut s2 = s1.clone();
        let mut m2 = m1.clone();
        let inst = VInst { op: op.clone(), masked: pat.masked() };
        let got = exec(&inst, &mut s1, &mut m1);
        let want = exec_ref(&inst, &mut s2, &mut m2);
        let ctx = format!("{op:?} pat={pat:?} vl={vl}");
        assert_eq!(got, want, "ExecInfo diverged: {ctx}");
        assert_regs_match(&s1, &s2, &ctx);
        assert_mem_match(&m1, &m2, &ctx);
    }

    fn assert_regs_match(s1: &VState, s2: &VState, ctx: &str) {
        for r in 0..32u8 {
            assert_eq!(s1.regs.reg(r), s2.regs.reg(r), "v{r} diverged: {ctx}");
        }
    }

    fn assert_mem_match(m1: &FlatMemory, m2: &FlatMemory, ctx: &str) {
        let mut b1 = vec![0u8; MEM_SIZE];
        let mut b2 = vec![0u8; MEM_SIZE];
        m1.read_bytes(0, &mut b1);
        m2.read_bytes(0, &mut b2);
        assert!(b1 == b2, "memory diverged: {ctx}");
    }

    #[test]
    fn batch_matches_reference_e64() {
        let (st, mt) = templates();
        for op in catalog() {
            for pat in ALL_PATS {
                for vl in EDGE_VLS {
                    run_case(&op, pat, vl, &st, &mt);
                }
            }
        }
    }

    /// Every family whose kernel stages lanes before writing, with the
    /// destination aliasing a source (`vd == x`, `vd == y`) or the mask
    /// register itself (`md == v0`), FMA accumulators included, under every
    /// mask pattern at the edge VLs.
    #[test]
    fn aliased_destinations_match_reference() {
        use VOp::*;
        let (st, mt) = templates();
        let mut ops = Vec::new();
        for kind in ARITH {
            ops.push(ArithVX { kind, vd: 2, x: 2, scalar: 0x0123_4567_89ab_cdef });
        }
        ops.push(CmpVX { kind: CmpKind::Eq, md: 0, x: 2, scalar: 77 });
        for kind in FARITH {
            ops.push(FArithVV { kind, vd: 3, x: 2, y: 3 });
        }
        for kind in FMA {
            ops.push(FmaVV { kind, vd: 2, x: 2, y: 3 });
            ops.push(FmaVV { kind, vd: 3, x: 2, y: 3 });
        }
        for op in &ops {
            for pat in ALL_PATS {
                for vl in EDGE_VLS {
                    run_case(op, pat, vl, &st, &mt);
                }
            }
        }
    }

    /// The destination of a floating-point instruction, `None` for every
    /// other instruction.
    fn fp_dest(op: &VOp) -> Option<u8> {
        use VOp::*;
        match op {
            FArithVV { vd, .. }
            | FArithVF { vd, .. }
            | FmaVV { vd, .. }
            | FmaVF { vd, .. }
            | Red { kind: RedKind::Fsum, vd, .. } => Some(*vd),
            _ => None,
        }
    }

    /// Rewrite every NaN lane of an FP instruction's destination to the
    /// canonical quiet NaN. NaN sign and payload are outside the contract:
    /// Rust leaves them unspecified, so the optimizer may pick differently
    /// commuted or negated FMA forms for the batch loop and the per-element
    /// loop (seen in release builds with `target-cpu=native`). Applied to
    /// both sides, so the two states stay in lockstep for later integer ops.
    fn canonicalize_fp_result(s: &mut VState, op: &VOp, vl: usize) {
        let Some(vd) = fp_dest(op) else { return };
        for v in &mut s.regs.reg_mut(vd)[..vl] {
            if f64::from_bits(*v).is_nan() {
                *v = f64::NAN.to_bits();
            }
        }
    }

    /// A 600-step seeded program mixing the staged families with loads,
    /// stores and reductions at random VL and masking, so state carried
    /// between instructions (mask registers, aliased registers, memory the
    /// store region shares with the load region) flows through the engine
    /// and the reference identically. Registers and `ExecInfo` are compared
    /// after every step (FP results modulo NaN payload), the memory image at
    /// the end.
    #[test]
    fn seeded_mixed_program_matches_reference() {
        use VOp::*;
        let mut rng = Rng::new(0xf1e1d);
        let (mut s1, mut m1) = templates();
        let (mut s2, mut m2) = (s1.clone(), m1.clone());
        let (mut scratch, mut info) = (ExecScratch::default(), ExecInfo::default());
        let mut pool = Vec::new();
        for kind in ARITH {
            pool.push(ArithVX { kind, vd: 12, x: 4, scalar: 0x0123_4567_89ab_cdef });
            pool.push(ArithVX { kind, vd: 4, x: 4, scalar: 0x0123_4567_89ab_cdef });
        }
        for kind in FARITH {
            pool.push(FArithVV { kind, vd: 12, x: 4, y: 8 });
            pool.push(FArithVF { kind, vd: 12, x: 4, scalar: 2.5f64.to_bits() });
            pool.push(FArithVV { kind, vd: 8, x: 4, y: 8 });
        }
        for kind in FMA {
            pool.push(FmaVV { kind, vd: 12, x: 4, y: 8 });
            pool.push(FmaVF { kind, vd: 12, scalar: (-1.25f64).to_bits(), y: 8 });
        }
        pool.push(CmpVX { kind: CmpKind::Eq, md: 16, x: 4, scalar: 77 });
        pool.push(CmpVX { kind: CmpKind::Eq, md: 0, x: 4, scalar: 77 });
        for kind in MASK {
            pool.push(MaskOp { kind, md: 16, m1: 17, m2: 18 });
        }
        for step in 0..600 {
            let op = match rng.index(10) {
                0 => Load { vd: 4, addr: MemAddr::Unit { base: 64 } },
                1 => Store { vs: 8, addr: MemAddr::Unit { base: 4096 } },
                2 => {
                    Red { kind: [RedKind::Fsum, RedKind::Sum][rng.index(2)], vd: 20, x: 4, acc: 8 }
                }
                _ => pool[rng.index(pool.len())].clone(),
            };
            let vl = rng.index(VLMAX + 1);
            assert_eq!(s1.set_vl(vl, Sew::E64, Lmul::M1), vl);
            s2.set_vl(vl, Sew::E64, Lmul::M1);
            let inst = VInst { op, masked: rng.chance(0.4) };
            exec_into(&inst, &mut s1, &mut m1, &mut scratch, &mut info);
            let want = exec_ref(&inst, &mut s2, &mut m2);
            let ctx = format!("step {step}: {inst:?} vl={vl}");
            assert_eq!(info, want, "ExecInfo diverged: {ctx}");
            canonicalize_fp_result(&mut s1, &inst.op, vl);
            canonicalize_fp_result(&mut s2, &inst.op, vl);
            assert_regs_match(&s1, &s2, &ctx);
        }
        assert_mem_match(&m1, &m2, "after the program");
    }

    /// The FP reduction order is *pinned*: a strictly sequential left fold
    /// from the accumulator seed (vfredosum-style), in the engine and the
    /// reference alike. Inputs are chosen so any reassociation (pairwise
    /// tree, per-lane partial sums) changes the answer.
    #[test]
    fn fp_reduction_fold_order_is_pinned() {
        let run = |lanes: &[f64], seed: f64| -> u64 {
            let mut s = VState::paper_vpu();
            let mut m = FlatMemory::new(64);
            s.set_vl(lanes.len(), Sew::E64, Lmul::M1);
            for (i, &v) in lanes.iter().enumerate() {
                s.regs.set_f64(4, i, v);
            }
            s.regs.set_f64(8, 0, seed);
            let (mut s2, mut m2) = (s.clone(), m.clone());
            let inst = VInst::new(VOp::Red { kind: RedKind::Fsum, vd: 20, x: 4, acc: 8 });
            exec(&inst, &mut s, &mut m);
            exec_ref(&inst, &mut s2, &mut m2);
            let got = s.regs.get(20, 0);
            assert_eq!(got, s2.regs.get(20, 0), "engine and reference fold differently");
            got
        };
        // Catastrophic cancellation: 1e16 + 1.0 rounds the 1.0 away, then
        // -1e16 cancels to exactly 0.0. Any reordering yields 3.0 instead.
        let pinned = (((1e16_f64 + 1.0) + -1e16) + 2.0).to_bits();
        assert_eq!(pinned, 2.0f64.to_bits(), "the inputs must be order-sensitive");
        assert_eq!(run(&[1.0, -1e16, 2.0], 1e16), pinned, "fold order changed");
        // (-0.0) + (-0.0) keeps the sign; a +0.0-identity partial sum loses it.
        assert_eq!(run(&[-0.0, -0.0], -0.0), (-0.0f64).to_bits(), "-0.0 sign lost");
        // NaN propagates through the fold (identically: checked inside `run`).
        assert!(f64::from_bits(run(&[1.0, f64::NAN, 3.0], 0.0)).is_nan());
    }
}
