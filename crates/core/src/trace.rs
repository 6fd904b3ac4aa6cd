//! Instruction tracing.
//!
//! [`TracingMachine`] wraps any [`Vm`] and records the dynamic instruction
//! stream — vector instructions as the [`VInst`] itself (rendered as
//! RVV-style assembly on demand), scalar events in a compact form — up to a
//! configurable cap. Used for debugging kernels, for inspecting exactly what
//! a strip-mined loop emits at a given MAXVL, and by the kernels' ISA
//! coverage test to see which instructions a kernel executes.

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_rvv::{Lmul, Sew, VInst};

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A vector instruction and the VL it executed at.
    Vector {
        /// The instruction.
        inst: VInst,
        /// Vector length at execution.
        vl: usize,
    },
    /// `vsetvli` — requested and granted lengths.
    SetVl {
        /// Application vector length requested.
        avl: usize,
        /// Granted VL.
        granted: usize,
    },
    /// A scalar load.
    Load {
        /// Address.
        addr: u64,
        /// Size in bytes.
        size: u8,
    },
    /// A scalar store.
    Store {
        /// Address.
        addr: u64,
        /// Size in bytes.
        size: u8,
    },
    /// A branch (taken flag).
    Branch(bool),
    /// A vector fence.
    Fence,
}

impl TraceEvent {
    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::Vector { inst, vl } => format!("{:<44} # vl={vl}", inst.to_string()),
            TraceEvent::SetVl { avl, granted } => format!("vsetvli avl={avl} -> vl={granted}"),
            TraceEvent::Load { addr, size } => format!("l{size} {addr:#x}"),
            TraceEvent::Store { addr, size } => format!("s{size} {addr:#x}"),
            TraceEvent::Branch(taken) => format!("br {}", if *taken { "taken" } else { "fall" }),
            TraceEvent::Fence => "vfence".to_string(),
        }
    }
}

/// A `Vm` wrapper recording the dynamic instruction stream.
pub struct TracingMachine<V: Vm> {
    inner: V,
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl<V: Vm> TracingMachine<V> {
    /// Wrap `inner`, keeping at most `cap` events (later events are counted
    /// but dropped).
    pub fn new(inner: V, cap: usize) -> Self {
        Self { inner, events: Vec::new(), cap, dropped: 0 }
    }

    fn record(&mut self, e: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that exceeded the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The wrapped machine.
    pub fn into_inner(self) -> V {
        self.inner
    }

    /// Access the wrapped machine.
    pub fn inner(&self) -> &V {
        &self.inner
    }

    /// Render the whole trace, one event per line.
    pub fn dump(&self) -> String {
        let mut s: String = self.events.iter().map(|e| e.render() + "\n").collect();
        if self.dropped > 0 {
            s.push_str(&format!(
                "... {} further events dropped (cap {})\n",
                self.dropped, self.cap
            ));
        }
        s
    }
}

impl<V: Vm> Vm for TracingMachine<V> {
    fn alloc(&mut self, bytes: usize, align: usize) -> u64 {
        self.inner.alloc(bytes, align)
    }

    fn mem(&self) -> &SimMemory {
        self.inner.mem()
    }

    fn mem_mut(&mut self) -> &mut SimMemory {
        self.inner.mem_mut()
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        self.record(TraceEvent::Load { addr, size: 8 });
        self.inner.load_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.record(TraceEvent::Store { addr, size: 8 });
        self.inner.store_f64(addr, v)
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.record(TraceEvent::Load { addr, size: 8 });
        self.inner.load_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.record(TraceEvent::Store { addr, size: 8 });
        self.inner.store_u64(addr, v)
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.record(TraceEvent::Load { addr, size: 4 });
        self.inner.load_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.record(TraceEvent::Store { addr, size: 4 });
        self.inner.store_u32(addr, v)
    }

    fn int_ops(&mut self, n: u32) {
        self.inner.int_ops(n)
    }

    fn fp_ops(&mut self, n: u32) {
        self.inner.fp_ops(n)
    }

    fn branch(&mut self, taken: bool) {
        self.record(TraceEvent::Branch(taken));
        self.inner.branch(taken)
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        let granted = self.inner.setvl(avl, sew, lmul);
        self.record(TraceEvent::SetVl { avl, granted });
        granted
    }

    fn vl(&self) -> usize {
        self.inner.vl()
    }

    fn maxvl(&self, sew: Sew) -> usize {
        self.inner.maxvl(sew)
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.inner.set_maxvl_cap(cap)
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        self.record(TraceEvent::Vector { inst: inst.clone(), vl: self.inner.vl() });
        self.inner.exec_v(inst)
    }

    fn rdcycle(&mut self) -> u64 {
        self.inner.rdcycle()
    }

    fn fence(&mut self) {
        self.record(TraceEvent::Fence);
        self.inner.fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::FunctionalMachine;

    #[test]
    fn records_vector_disassembly_with_vl() {
        let mut m = TracingMachine::new(FunctionalMachine::new(1 << 16), 100);
        let a = m.alloc(8 * 16, 64);
        m.setvl(16, Sew::E64, Lmul::M1);
        m.vle(1, a);
        m.vfmacc_vf(1, 2.0, 1);
        m.vse(1, a);
        m.fence();
        let dump = m.dump();
        assert!(dump.contains("vsetvli avl=16 -> vl=16"), "{dump}");
        assert!(dump.contains("vle.v v1"), "{dump}");
        assert!(dump.contains("vfmacc.vf v1, 2, v1"), "{dump}");
        assert!(dump.contains("# vl=16"), "{dump}");
        assert!(dump.contains("vfence"), "{dump}");
    }

    #[test]
    fn traces_scalar_events() {
        let mut m = TracingMachine::new(FunctionalMachine::new(1 << 16), 100);
        let a = m.alloc(64, 64);
        m.store_f64(a, 1.0);
        let _ = m.load_f64(a);
        m.branch(true);
        assert_eq!(m.events().len(), 3);
        assert_eq!(m.events()[2], TraceEvent::Branch(true));
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut m = TracingMachine::new(FunctionalMachine::new(1 << 16), 2);
        let a = m.alloc(64, 64);
        for _ in 0..5 {
            let _ = m.load_f64(a);
        }
        assert_eq!(m.events().len(), 2);
        assert_eq!(m.dropped(), 3);
        assert!(m.dump().contains("3 further events dropped"));
    }

    #[test]
    fn tracing_does_not_change_results() {
        let plain = {
            let mut m = FunctionalMachine::new(1 << 16);
            let a = m.alloc(8 * 8, 64);
            for i in 0..8 {
                m.mem_mut().poke_f64(a + 8 * i, i as f64);
            }
            m.setvl(8, Sew::E64, Lmul::M1);
            m.vle(1, a);
            m.vfmul_vf(1, 1, 3.0);
            m.vse(1, a);
            m.mem().peek_f64_vec(a, 8)
        };
        let traced = {
            let mut m = TracingMachine::new(FunctionalMachine::new(1 << 16), 10);
            let a = m.alloc(8 * 8, 64);
            for i in 0..8 {
                m.mem_mut().poke_f64(a + 8 * i, i as f64);
            }
            m.setvl(8, Sew::E64, Lmul::M1);
            m.vle(1, a);
            m.vfmul_vf(1, 1, 3.0);
            m.vse(1, a);
            m.mem().peek_f64_vec(a, 8)
        };
        assert_eq!(plain, traced);
    }

    #[test]
    fn kernel_trace_shows_strip_mining() {
        // A 40-element loop at MAXVL=16 strips as 16+16+8.
        let mut m = TracingMachine::new(FunctionalMachine::new(1 << 16), 1000);
        m.set_maxvl_cap(16);
        let a = m.alloc(8 * 40, 64);
        let mut i = 0usize;
        while i < 40 {
            let vl = m.setvl(40 - i, Sew::E64, Lmul::M1);
            m.vle(1, a + 8 * i as u64);
            i += vl;
        }
        let grants: Vec<usize> = m
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SetVl { granted, .. } => Some(*granted),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![16, 16, 8]);
    }
}
