//! A fixed-capacity ring buffer for the hot retirement queues.
//!
//! The timing models keep several small FIFO windows whose occupancy is
//! bounded by a config knob (the VPU decoupling queue, the scalar core's
//! run-ahead load window and store buffer). [`Ring`] pre-allocates the whole
//! window at a power-of-two size so the steady state is an index mask, a
//! store, and a length bump — no capacity checks against a growth policy, no
//! branchy wrap logic, and never an allocation after construction. If a
//! caller does exceed the pre-sized capacity (a misconfigured bound, not the
//! steady state) the ring doubles rather than corrupting the window, so
//! correctness never depends on the capacity estimate being exact.

/// A pre-sized power-of-two ring buffer of `Copy` elements.
///
/// Deliberately minimal: `push_back` / `pop_front` / `front` plus iteration,
/// which is all the bounded timing windows need. Elements must be `Copy +
/// Default` so the backing store can be pre-filled without `unsafe`.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Box<[T]>,
    /// Index of the front element (masked).
    head: usize,
    len: usize,
    /// `buf.len() - 1`; capacity is always a power of two.
    mask: usize,
}

impl<T: Copy + Default> Ring<T> {
    /// A ring pre-sized to hold at least `cap` elements without growing.
    pub fn with_capacity(cap: usize) -> Self {
        let n = cap.max(2).next_power_of_two();
        Self { buf: vec![T::default(); n].into_boxed_slice(), head: 0, len: 0, mask: n - 1 }
    }

    /// Live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest element, if any.
    #[inline]
    pub fn front(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[self.head])
        }
    }

    /// Append at the back.
    #[inline]
    pub fn push_back(&mut self, v: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        self.buf[(self.head + self.len) & self.mask] = v;
        self.len += 1;
    }

    /// Remove and return the oldest element.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(v)
    }

    /// Iterate front-to-back over the live elements.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.buf[(self.head + i) & self.mask])
    }

    /// Double the backing store, relinearizing so `head == 0`. Cold: only
    /// reached when a window outgrows its configured bound.
    #[cold]
    fn grow(&mut self) {
        let n = self.buf.len() * 2;
        let mut next = vec![T::default(); n].into_boxed_slice();
        for (i, v) in self.iter().enumerate() {
            next[i] = v;
        }
        self.buf = next;
        self.head = 0;
        self.mask = n - 1;
    }
}

/// A sorted ring buffer: a min-queue for *near-monotone* key streams.
///
/// The timing models' in-flight windows (VPU line credits, MSHR fill times,
/// DRAM queue-depth probes) pop with a monotone clock and push completion
/// times that are almost sorted — each new completion usually lands at or
/// near the current maximum. A sorted ring exploits that: `insert` scans
/// backwards from the tail (zero steps in the common append case, a few
/// element moves otherwise), and `pop_front`/pruning are O(1) head pops. A
/// binary heap pays an O(log n) sift with unpredictable branches on every
/// one of those operations.
#[derive(Debug, Clone)]
pub struct MonotoneRing<T> {
    buf: Box<[T]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl<T: Copy + Default + Ord> MonotoneRing<T> {
    /// A ring pre-sized to hold at least `cap` elements without growing.
    pub fn with_capacity(cap: usize) -> Self {
        let n = cap.max(2).next_power_of_two();
        Self { buf: vec![T::default(); n].into_boxed_slice(), head: 0, len: 0, mask: n - 1 }
    }

    /// Live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The minimum element, if any.
    #[inline]
    pub fn front(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[self.head])
        }
    }

    /// Remove and return the minimum element.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(v)
    }

    /// Insert `v`, keeping the ring sorted ascending. Scans (and shifts)
    /// backwards from the tail, so a new maximum costs one store.
    #[inline]
    pub fn insert(&mut self, v: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mut i = self.len;
        while i > 0 {
            let from = (self.head + i - 1) & self.mask;
            if self.buf[from] <= v {
                break;
            }
            self.buf[(self.head + i) & self.mask] = self.buf[from];
            i -= 1;
        }
        self.buf[(self.head + i) & self.mask] = v;
        self.len += 1;
    }

    /// The maximum element, if any (the back of the sorted ring).
    #[inline]
    pub fn back(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[(self.head + self.len - 1) & self.mask])
        }
    }

    /// Iterate min-to-max over the live elements.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.buf[(self.head + i) & self.mask])
    }

    /// Double the backing store, relinearizing so `head == 0`. Cold: only
    /// reached when a window outgrows its configured bound.
    #[cold]
    fn grow(&mut self) {
        let n = self.buf.len() * 2;
        let mut next = vec![T::default(); n].into_boxed_slice();
        for (i, v) in self.iter().enumerate() {
            next[i] = v;
        }
        self.buf = next;
        self.head = 0;
        self.mask = n - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let mut r: Ring<u64> = Ring::with_capacity(4);
        for round in 0..10u64 {
            for i in 0..3 {
                r.push_back(round * 10 + i);
            }
            for i in 0..3 {
                assert_eq!(r.pop_front(), Some(round * 10 + i));
            }
        }
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn front_and_iter_see_live_window() {
        let mut r: Ring<u64> = Ring::with_capacity(8);
        for i in 0..5u64 {
            r.push_back(i);
        }
        r.pop_front();
        r.pop_front();
        assert_eq!(r.front(), Some(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn monotone_ring_sorts_out_of_order_inserts() {
        let mut m: MonotoneRing<u64> = MonotoneRing::with_capacity(8);
        for v in [50u64, 30, 70, 30, 10, 90, 60] {
            m.insert(v);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![10, 30, 30, 50, 60, 70, 90]);
        assert_eq!(m.pop_front(), Some(10));
        assert_eq!(m.front(), Some(30));
        m.insert(5); // below the current minimum, after pops (wrapped head)
        assert_eq!(m.pop_front(), Some(5));
    }

    #[test]
    fn monotone_ring_grows_keeping_sorted_order() {
        let mut m: MonotoneRing<u64> = MonotoneRing::with_capacity(2);
        m.insert(1);
        m.pop_front(); // offset the head so growth relinearizes
        for v in (0..40u64).rev() {
            m.insert(v);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.iter().collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn grows_past_presized_capacity_preserving_order() {
        let mut r: Ring<u64> = Ring::with_capacity(2);
        // Offset the head so growth exercises the relinearization.
        r.push_back(100);
        r.pop_front();
        for i in 0..40u64 {
            r.push_back(i);
        }
        assert_eq!(r.len(), 40);
        assert_eq!(r.iter().collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
        for i in 0..40u64 {
            assert_eq!(r.pop_front(), Some(i));
        }
    }
}
