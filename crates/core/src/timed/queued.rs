//! The form an op takes while it waits to issue: on a tile's ring for the
//! merge, or in a one-tile machine's replica chunk. A multi-tile epoch holds
//! every tile's captured-but-not-issued ops at once (paper-scale 16-tile BFS
//! at MAXVL 8 peaks near 205 k). As [`Op`]s that is 64 bytes a slot plus one
//! heap buffer per vector memory op. A [`QueuedOp`] is a `Copy` record of 16
//! bytes: a scalar op carries its payload, a vector op its class, flags and
//! counts narrowed to `u16`, and a memory op's line addresses go to the
//! queue's line arena, a `VecDeque<u64>` that drains in step with the records
//! ([`TileQueue`] keeps the two together). The narrowing is checked: a count
//! that does not fit panics at [`QueuedOp::encode`] instead of wrapping.

use sdv_uarch::{Op, VClass, VectorMemOp, VectorOp};
use std::collections::VecDeque;

/// Captured-but-not-issued ops: their records, and the line addresses of
/// the memory ops among them in the same order.
#[derive(Debug, Default)]
pub(super) struct TileQueue {
    ops: VecDeque<QueuedOp>,
    lines: VecDeque<u64>,
}

impl TileQueue {
    /// Queue `op` behind everything already queued.
    pub(super) fn push(&mut self, op: &Op) {
        let queued = QueuedOp::encode(op, &mut self.lines);
        self.ops.push_back(queued);
    }

    /// The oldest op, decoded; a memory op takes `lines`, filled.
    pub(super) fn pop(&mut self, lines: &mut Vec<u64>) -> Option<Op> {
        let arena = std::iter::from_fn(|| self.lines.pop_front());
        self.ops.pop_front().map(|queued| queued.decode(lines, arena))
    }

    /// Hand every queued op, oldest first, to `issue`, decoded into `lines`
    /// and reclaimed after; the queue is left as it was.
    pub(super) fn replay(&self, lines: &mut Vec<u64>, mut issue: impl FnMut(&Op)) {
        let mut arena = self.lines.iter().copied();
        for queued in &self.ops {
            let op = queued.decode(lines, arena.by_ref());
            issue(&op);
            reclaim(op, lines);
        }
    }

    /// Ops queued.
    pub(super) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no op is queued.
    pub(super) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop everything queued, keeping the allocations.
    pub(super) fn clear(&mut self) {
        self.ops.clear();
        self.lines.clear();
    }
}

/// Give an issued or queued op's line buffer back to `lines`, emptied: a
/// vector memory op took it from there when it was classified or decoded.
#[inline]
pub(super) fn reclaim(op: Op, lines: &mut Vec<u64>) {
    if let Op::Vector(VectorOp { mem: Some(m), .. }) = op {
        *lines = m.lines;
        lines.clear();
    }
}

/// One queued op. Decodes to exactly the [`Op`] it was encoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueuedOp {
    IntOps(u32),
    FpOps(u32),
    Load {
        addr: u64,
        size: u8,
    },
    Store {
        addr: u64,
        size: u8,
    },
    Branch {
        taken: bool,
    },
    Vector {
        class: VClass,
        vl: u16,
        active: u16,
        produces_scalar: bool,
        is_fp: bool,
        mem: Option<QueuedMem>,
    },
    Sync,
}

/// A vector memory op's footprint; its `lines` addresses wait in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedMem {
    is_load: bool,
    unit_stride: bool,
    elems: u16,
    lines: u16,
}

/// `x` as a `u16`, or a panic naming the field: a queued op must decode to
/// the op that was captured, never to a truncated one.
fn narrow(x: usize, what: &str) -> u16 {
    u16::try_from(x).unwrap_or_else(|_| panic!("a queued op holds {what} in a u16, not {x}"))
}

impl QueuedOp {
    /// The record of `op`; a memory op's lines are appended to `arena`.
    fn encode(op: &Op, arena: &mut VecDeque<u64>) -> Self {
        match *op {
            Op::IntOps(n) => Self::IntOps(n),
            Op::FpOps(n) => Self::FpOps(n),
            Op::Load { addr, size } => Self::Load { addr, size },
            Op::Store { addr, size } => Self::Store { addr, size },
            Op::Branch { taken } => Self::Branch { taken },
            Op::Sync => Self::Sync,
            Op::Vector(ref v) => Self::Vector {
                class: v.class,
                vl: narrow(v.vl, "vl"),
                active: narrow(v.active, "active"),
                produces_scalar: v.produces_scalar,
                is_fp: v.is_fp,
                mem: v.mem.as_ref().map(|m| {
                    let queued = QueuedMem {
                        is_load: m.is_load,
                        unit_stride: m.unit_stride,
                        elems: narrow(m.elems, "elems"),
                        lines: narrow(m.lines.len(), "the line count"),
                    };
                    arena.extend(&m.lines);
                    queued
                }),
            },
        }
    }

    /// The op this record was encoded from. A memory op takes its lines
    /// off the front of `arena`, in the buffer `lines`.
    fn decode(self, lines: &mut Vec<u64>, arena: impl Iterator<Item = u64>) -> Op {
        match self {
            Self::IntOps(n) => Op::IntOps(n),
            Self::FpOps(n) => Op::FpOps(n),
            Self::Load { addr, size } => Op::Load { addr, size },
            Self::Store { addr, size } => Op::Store { addr, size },
            Self::Branch { taken } => Op::Branch { taken },
            Self::Sync => Op::Sync,
            Self::Vector { class, vl, active, produces_scalar, is_fp, mem } => {
                Op::Vector(VectorOp {
                    class,
                    vl: vl.into(),
                    active: active.into(),
                    mem: mem.map(|m| {
                        lines.extend(arena.take(m.lines.into()));
                        VectorMemOp {
                            is_load: m.is_load,
                            unit_stride: m.unit_stride,
                            lines: std::mem::take(lines),
                            elems: m.elems.into(),
                        }
                    }),
                    produces_scalar,
                    is_fp,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(class: VClass, vl: usize, mem: Option<VectorMemOp>) -> Op {
        Op::Vector(VectorOp { class, vl, active: vl, mem, produces_scalar: false, is_fp: false })
    }

    fn mem(is_load: bool, unit_stride: bool, lines: Vec<u64>, elems: usize) -> Option<VectorMemOp> {
        Some(VectorMemOp { is_load, unit_stride, lines, elems })
    }

    #[test]
    fn a_queued_op_fits_sixteen_bytes() {
        assert!(std::mem::size_of::<QueuedOp>() <= 16, "{}", std::mem::size_of::<QueuedOp>());
    }

    /// Every shape of op a queue carries: 4- and 8-byte scalar accesses, a
    /// 256-element gather listing 256 lines, a memory op with no line, and
    /// every vector class with both flags.
    fn every_shape() -> Vec<Op> {
        let gather: Vec<u64> = (0..256).map(|i| (i * 7919 % 4093) * 64).collect();
        vec![
            Op::IntOps(3),
            Op::FpOps(u32::MAX),
            Op::Load { addr: 0x1000_0004, size: 4 },
            Op::Load { addr: u64::MAX - 7, size: 8 },
            Op::Store { addr: 0x2000_0004, size: 4 },
            Op::Store { addr: 0x2000_0008, size: 8 },
            Op::Branch { taken: true },
            Op::Branch { taken: false },
            vector(VClass::Memory, 256, mem(true, false, gather, 256)),
            vector(VClass::Memory, 0, mem(false, true, Vec::new(), 0)),
            vector(VClass::Memory, 16, mem(false, true, vec![0, 64], 16)),
            vector(VClass::SetVl, 200, None),
            Op::Vector(VectorOp {
                class: VClass::Reduction,
                vl: 64,
                active: 17,
                mem: None,
                produces_scalar: true,
                is_fp: true,
            }),
            vector(VClass::ArithLong, 8, None),
            vector(VClass::Arith, 1, None),
            Op::Sync,
        ]
    }

    #[test]
    fn every_op_round_trips_in_queue_order() {
        let ops = every_shape();
        let mut queue = TileQueue::default();
        ops.iter().for_each(|op| queue.push(op));
        assert_eq!(queue.len(), ops.len());
        assert_eq!(queue.lines.len(), 256 + 2, "only memory ops put lines in the arena");
        let mut lines = Vec::with_capacity(4);
        for want in &ops {
            let op = queue.pop(&mut lines);
            assert_eq!(op.as_ref(), Some(want));
            reclaim(op.expect("just compared"), &mut lines);
        }
        assert!(queue.pop(&mut lines).is_none() && queue.is_empty());
        assert!(queue.lines.is_empty(), "the arena drains in step with the ring");
    }

    #[test]
    fn a_replay_decodes_every_op_and_leaves_the_queue_as_it_was() {
        let ops = every_shape();
        let mut queue = TileQueue::default();
        ops.iter().for_each(|op| queue.push(op));
        let (records, arena) = (queue.ops.clone(), queue.lines.clone());
        let mut lines = Vec::with_capacity(256);
        for pass in 0..2 {
            let mut got = Vec::new();
            queue.replay(&mut lines, |op| got.push(op.clone()));
            assert_eq!(got, ops, "pass {pass}: every op, in queue order");
            assert_eq!(queue.ops, records, "pass {pass}: the records stay queued");
            assert_eq!(queue.lines, arena, "pass {pass}: the arena stays full");
            assert!(lines.is_empty() && lines.capacity() >= 256, "pass {pass}: buffer returned");
        }
        queue.clear();
        assert!(queue.is_empty() && queue.lines.is_empty());
    }

    #[test]
    #[should_panic(expected = "a queued op holds vl in a u16, not 65536")]
    fn a_vl_past_u16_fails_loudly() {
        QueuedOp::encode(&vector(VClass::Arith, 1 << 16, None), &mut VecDeque::new());
    }

    #[test]
    #[should_panic(expected = "a queued op holds active in a u16, not 70000")]
    fn an_active_count_past_u16_fails_loudly() {
        let mut op = vector(VClass::Arith, 8, None);
        if let Op::Vector(v) = &mut op {
            v.active = 70_000;
        }
        QueuedOp::encode(&op, &mut VecDeque::new());
    }

    #[test]
    #[should_panic(expected = "a queued op holds elems in a u16, not 65536")]
    fn an_element_count_past_u16_fails_loudly() {
        QueuedOp::encode(
            &vector(VClass::Memory, 8, mem(true, true, vec![0], 1 << 16)),
            &mut VecDeque::new(),
        );
    }

    #[test]
    #[should_panic(expected = "a queued op holds the line count in a u16, not 65536")]
    fn a_line_count_past_u16_fails_loudly() {
        let lines = vec![0; 1 << 16];
        QueuedOp::encode(
            &vector(VClass::Memory, 8, mem(true, false, lines, 8)),
            &mut VecDeque::new(),
        );
    }
}
