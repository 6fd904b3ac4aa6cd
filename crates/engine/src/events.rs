//! A deterministic future-event list.
//!
//! Events pop in `(time, seq)` order, where `seq` is the order they were
//! scheduled in: the earliest time first, and FIFO among events at the same
//! time, so the simulation is bit-for-bit reproducible regardless of payload
//! type. Its one production user is the multi-tile merge in `sdv-core`,
//! which holds at most one event per tile.
//!
//! The queue is a `BinaryHeap` of `(time, seq, payload)` tuples. `seq` is
//! unique, so the payload never takes part in a comparison; it only has to
//! be `Ord` for the tuple to be.

use crate::clock::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of timed events with FIFO tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(Cycle, u64, T)>>,
    /// Insertion stamp for FIFO tie-breaking.
    next_seq: u64,
}

impl<T: Ord> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `payload` to fire at absolute cycle `time`. A time earlier
    /// than an already-popped one is legal and pops next.
    pub fn schedule(&mut self, time: Cycle, payload: T) {
        self.heap.push(Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|Reverse((time, _, payload))| (time, payload))
    }

    /// The time of the event [`EventQueue::pop`] would return next. An event
    /// scheduled now at a time strictly below it would pop first; at the
    /// same time it would pop after it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        // Payloads in descending order: FIFO, not the payload, decides.
        let mut q = EventQueue::new();
        for i in (0..100).rev() {
            q.schedule(7, i);
        }
        for i in (0..100).rev() {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(15, 3);
        q.schedule(5, 4); // in the past relative to popped events; still fine
        assert_eq!(q.pop(), Some((5, 4)));
        assert_eq!(q.pop(), Some((15, 3)));
        assert_eq!(q.pop(), Some((20, 2)));
    }

    #[test]
    fn peek_time_is_the_next_pops_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(20, "b");
        q.schedule(10, "a");
        q.schedule(10, "c");
        for want in [(10, "a"), (10, "c"), (20, "b")] {
            assert_eq!(q.peek_time(), Some(want.0));
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_keep_their_order() {
        let mut q = EventQueue::new();
        q.schedule(1_000_000, "far-a");
        q.schedule(3, "near");
        q.schedule(1_000_000, "far-b");
        q.schedule(70_000, "mid");
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((70_000, "mid")));
        assert_eq!(q.pop(), Some((1_000_000, "far-a")));
        assert_eq!(q.pop(), Some((1_000_000, "far-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_schedules_after_a_deep_advance_pop_first() {
        let mut q = EventQueue::new();
        q.schedule(10_000, "late");
        assert_eq!(q.pop(), Some((10_000, "late")));
        q.schedule(2, "early-a");
        q.schedule(1, "earliest");
        q.schedule(2, "early-b");
        q.schedule(10_001, "next");
        assert_eq!(q.pop(), Some((1, "earliest")));
        assert_eq!(q.pop(), Some((2, "early-a")));
        assert_eq!(q.pop(), Some((2, "early-b")));
        assert_eq!(q.pop(), Some((10_001, "next")));
    }
}
