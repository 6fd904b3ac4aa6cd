//! Randomized tests of the simulation substrate, driven by the in-repo
//! deterministic [`Rng`] so the suite needs no external crates and replays
//! identically on every run.

use sdv_engine::{EventQueue, HeapEventQueue, Rng};

#[test]
fn wheel_matches_heap_model_through_randomized_interleavings() {
    // The calendar wheel must be observationally identical to the retained
    // BinaryHeap reference: 10k+ randomized schedule/pop/pop_due steps,
    // deliberately biased toward same-cycle ties (FIFO order must hold),
    // far-future times (overflow migration), and past-of-base schedules.
    let mut rng = Rng::new(0xE1E1_0007);
    let mut total_steps = 0u64;
    for case in 0..64 {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        let mut next_id = 0u32;
        for step in 0..200 {
            total_steps += 1;
            match rng.index(8) {
                // Schedule-heavy mix so queues stay populated.
                0..=3 => {
                    let t = match rng.index(4) {
                        // Same-cycle cluster: several events at one time.
                        0 => now + rng.below(4),
                        // Near future inside one wheel window.
                        1 => now + rng.below(200),
                        // Far future: several windows out (overflow path).
                        2 => now + 300 + rng.below(5_000),
                        // Possibly in the past relative to popped events.
                        _ => now.saturating_sub(rng.below(300)),
                    };
                    let burst = 1 + rng.index(3);
                    for _ in 0..burst {
                        let id = next_id;
                        next_id += 1;
                        wheel.schedule(t, id);
                        heap.schedule(t, id);
                    }
                }
                4 | 5 => {
                    assert_eq!(wheel.pop(), heap.pop(), "case {case} step {step}");
                }
                6 => {
                    // Advance the clock, then drain everything due: the
                    // pop_due loop every production wheel user runs.
                    now += rng.below(600);
                    loop {
                        let w = wheel.pop_due(now);
                        let h = heap.pop_due(now);
                        assert_eq!(w, h, "case {case} step {step} now {now}");
                        if w.is_none() {
                            break;
                        }
                        assert!(w.unwrap().0 <= now);
                    }
                }
                _ => {
                    assert_eq!(wheel.next_time(), heap.next_time(), "case {case} step {step}");
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Full drain must agree to the last event.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain, case {case}");
            if w.is_none() {
                break;
            }
        }
    }
    assert!(total_steps >= 10_000, "the suite must exercise >=10k interleaved steps");
}

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
fn event_queue_pop_due_is_a_filtered_pop() {
    let mut rng = Rng::new(0xE1E1_0002);
    for _ in 0..128 {
        let n = rng.index(100);
        let events: Vec<u64> = (0..n).map(|_| rng.below(100)).collect();
        let now = rng.below(100);
        let mut q = EventQueue::new();
        for &t in &events {
            q.schedule(t, t);
        }
        let mut due = Vec::new();
        while let Some((t, _)) = q.pop_due(now) {
            assert!(t <= now);
            due.push(t);
        }
        let expected = events.iter().filter(|&&t| t <= now).count();
        assert_eq!(due.len(), expected);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
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
