//! The Bandwidth Limiter (paper §2.3).
//!
//! A hardware stage that throttles DDR4 request admission: it operates in
//! time windows and permits only `num` requests per `den`-cycle window. The
//! paper's example: to throttle at 33 % of peak, program `num = 1, den = 3`
//! — one request per 3-cycle window. Peak is one 64-byte line per cycle
//! (64 B/cycle), so a cap of B bytes/cycle is the fraction `B/64`.

use sdv_engine::Cycle;

/// The programmable window-based admission limiter.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthLimiter {
    num: u32,
    den: u32,
    window: Cycle,
    used: u32,
}

impl BandwidthLimiter {
    /// A limiter admitting `num` requests per `den` cycles.
    ///
    /// # Panics
    /// Panics if `num == 0` or `den == 0`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "limiter fraction must be positive");
        Self { num, den, window: 0, used: 0 }
    }

    /// A limiter matching a bytes-per-cycle cap given the line size.
    /// `bytes_per_cycle = 64` with 64-byte lines is peak (1 request/cycle).
    ///
    /// # Panics
    /// Panics if the cap is zero or exceeds one line per cycle.
    pub fn from_bytes_per_cycle(bytes_per_cycle: u64, line_bytes: u64) -> Self {
        assert!(bytes_per_cycle > 0, "cap must be positive");
        assert!(
            bytes_per_cycle <= line_bytes,
            "cap beyond one line/cycle ({line_bytes} B/cy) is unthrottled"
        );
        let g = gcd(bytes_per_cycle, line_bytes);
        Self::new((bytes_per_cycle / g) as u32, (line_bytes / g) as u32)
    }

    /// The configured `(num, den)` fraction.
    pub fn fraction(&self) -> (u32, u32) {
        (self.num, self.den)
    }

    /// Effective bytes-per-cycle for a given line size.
    pub fn bytes_per_cycle(&self, line_bytes: u64) -> f64 {
        line_bytes as f64 * self.num as f64 / self.den as f64
    }

    /// Reprogram the fraction at runtime (the software interface from the
    /// paper). Resets the current window accounting.
    pub fn set_fraction(&mut self, num: u32, den: u32) {
        assert!(num > 0 && den > 0, "limiter fraction must be positive");
        self.num = num;
        self.den = den;
        self.window = 0;
        self.used = 0;
    }

    /// Admit one request that is ready at `now`. Returns the cycle at which
    /// it is actually admitted (≥ `now`), consuming one slot in that window.
    ///
    /// Calls must have non-decreasing `now` *per limiter instance* — the
    /// admission bookkeeping is monotone like the hardware counter it models.
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        let den = self.den as Cycle;
        // Runs on every DRAM request: shift for a power-of-two window (every
        // value the 1-64 B/cycle knob programs); both branches compute the
        // same quotient.
        let mut w = if den.is_power_of_two() { now >> den.trailing_zeros() } else { now / den };
        if w < self.window {
            // `now` is earlier than our bookkeeping window: admission can
            // happen no earlier than the tracked window.
            w = self.window;
        }
        loop {
            if w > self.window {
                self.window = w;
                self.used = 0;
            }
            if self.used < self.num {
                self.used += 1;
                // Inside window w, admission is at `now` if `now` falls in
                // this window, else at the window start.
                return now.max(w * den);
            }
            w += 1;
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rate_admits_every_cycle() {
        let mut l = BandwidthLimiter::new(1, 1);
        for t in 0..100 {
            assert_eq!(l.admit(t), t);
        }
    }

    #[test]
    fn one_per_three_window_spacing() {
        // The paper's 33% example: 1 request per 3-cycle window.
        let mut l = BandwidthLimiter::new(1, 3);
        // Burst of 5 requests all ready at t=0.
        let times: Vec<Cycle> = (0..5).map(|_| l.admit(0)).collect();
        assert_eq!(times, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn idle_windows_do_not_bank_credit() {
        let mut l = BandwidthLimiter::new(1, 4);
        assert_eq!(l.admit(0), 0);
        // Windows 1 and 2 pass unused; a burst at t=12 gets no stored credit.
        let t1 = l.admit(12);
        let t2 = l.admit(12);
        let t3 = l.admit(12);
        assert_eq!((t1, t2, t3), (12, 16, 20));
    }

    #[test]
    fn from_bytes_per_cycle_fractions() {
        assert_eq!(BandwidthLimiter::from_bytes_per_cycle(64, 64).fraction(), (1, 1));
        assert_eq!(BandwidthLimiter::from_bytes_per_cycle(32, 64).fraction(), (1, 2));
        assert_eq!(BandwidthLimiter::from_bytes_per_cycle(1, 64).fraction(), (1, 64));
        assert_eq!(BandwidthLimiter::from_bytes_per_cycle(16, 64).fraction(), (1, 4));
    }

    #[test]
    fn sustained_rate_matches_fraction() {
        // 1/4 peak with 64B lines = 16 B/cycle: 1000 admissions take ~4000 cycles.
        let mut l = BandwidthLimiter::from_bytes_per_cycle(16, 64);
        let mut t = 0;
        for _ in 0..1000 {
            t = l.admit(t);
        }
        assert!((3990..=4010).contains(&t), "t={t}");
        assert!((l.bytes_per_cycle(64) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn multi_per_window_allows_bursts_within_window() {
        let mut l = BandwidthLimiter::new(2, 4);
        assert_eq!(l.admit(0), 0);
        assert_eq!(l.admit(0), 0); // same window, second slot
        assert_eq!(l.admit(0), 4); // window exhausted
        assert_eq!(l.admit(4), 4);
        assert_eq!(l.admit(4), 8);
    }

    #[test]
    fn reprogramming_takes_effect() {
        let mut l = BandwidthLimiter::new(1, 1);
        assert_eq!(l.admit(0), 0);
        l.set_fraction(1, 10);
        let a = l.admit(0);
        let b = l.admit(0);
        assert_eq!(b - a, 10);
    }

    #[test]
    fn shift_and_division_windows_admit_identically() {
        use sdv_engine::Rng;
        // `admit` with the window found by division only, as it was before
        // the power-of-two shift.
        fn admit_by_division(l: &mut BandwidthLimiter, now: Cycle) -> Cycle {
            let den = l.den as Cycle;
            let mut w = (now / den).max(l.window);
            loop {
                if w > l.window {
                    l.window = w;
                    l.used = 0;
                }
                if l.used < l.num {
                    l.used += 1;
                    return now.max(w * den);
                }
                w += 1;
            }
        }
        let mut rng = Rng::new(64);
        for den in 1..=64u32 {
            for num in [1, 3] {
                let mut by_shift = BandwidthLimiter::new(num, den);
                let mut by_division = by_shift;
                let mut now: Cycle = 0;
                for _ in 0..2_000 {
                    // Mostly nondecreasing arrivals, bursts at one cycle, and
                    // the occasional rewind behind the tracked window.
                    now = match rng.below(8) {
                        0 => now.saturating_sub(rng.below(4 * den as u64 + 1)),
                        1 | 2 => now,
                        _ => now + rng.below(2 * den as u64 + 2),
                    };
                    let want = admit_by_division(&mut by_division, now);
                    assert_eq!(by_shift.admit(now), want, "{num}/{den} at {now}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unthrottled")]
    fn cap_beyond_peak_rejected() {
        BandwidthLimiter::from_bytes_per_cycle(128, 64);
    }
}
