//! Randomized tests of the simulation substrate, driven by the in-repo
//! deterministic [`Rng`] so the suite needs no external crates and replays
//! identically on every run.

use sdv_engine::{EventQueue, Rng};

#[test]
fn event_queue_pops_sorted_stable() {
    let mut rng = Rng::new(0xE1E1_0001);
    for case in 0..128 {
        let n = rng.index(200);
        let events: Vec<(u64, u32)> =
            (0..n).map(|_| (rng.below(1000), rng.next_u64() as u32)).collect();
        let mut q = EventQueue::new();
        for (i, &(t, p)) in events.iter().enumerate() {
            q.schedule(t, (i, p));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((t, (seq, _))) = q.pop() {
            if let Some((lt, lseq)) = last {
                assert!(t > lt || (t == lt && seq > lseq), "stable time order, case {case}");
            }
            last = Some((t, seq));
            popped += 1;
        }
        assert_eq!(popped, events.len());
    }
}

#[test]
fn rng_streams_are_reproducible_and_bounded() {
    let mut meta = Rng::new(0xE1E1_0005);
    for _ in 0..128 {
        let seed = meta.next_u64();
        let bound = 1 + meta.below(1_000_000);
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..100 {
            let x = a.below(bound);
            assert_eq!(x, b.below(bound));
            assert!(x < bound);
        }
    }
}

#[test]
fn rng_shuffle_is_permutation() {
    let mut meta = Rng::new(0xE1E1_0006);
    for _ in 0..128 {
        let seed = meta.next_u64();
        let n = meta.index(200);
        let mut rng = Rng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
