//! Seeded service-level chaos injection for `sweepd`.
//!
//! The engine's [`FaultPlan`](sdv_engine::FaultPlan) proves the *simulator*
//! survives hardware faults; this module extends the same seeded-plan idiom
//! one layer up, to the *service*: a [`ChaosPlan`] describes a reproducible
//! set of operational faults to inject into a running server —
//!
//! * **drop-connection** — close an accepted client connection before
//!   reading its request (clients must retry),
//! * **delay-response** — stall one response line (clients must tolerate a
//!   slow server without wedging),
//! * **kill-worker** — one worker thread dies holding the group of cells it
//!   just took (the supervisor must requeue every one and respawn the
//!   worker),
//! * **corrupt-cache-entry** — flip the low bit of the last digit of a
//!   just-written persistent cache entry's cycle count, so the entry still
//!   parses (the next load's checksum must quarantine it and re-simulate).
//!
//! Trigger ordinals are derived from the seed through the workspace
//! [`Rng`](sdv_engine::Rng), exactly like [`FaultPlan::arm`]
//! (sdv_engine::FaultPlan::arm): a chaotic run replays bit-identically from
//! its seed. A plan is armed in-process, through
//! [`ServerConfig::chaos`](crate::ServerConfig::chaos); no command line sets
//! one. The soak in `tests/hardening.rs` arms twenty seeded plans and
//! requires every sweep's results to be bit-identical to a fault-free
//! baseline — chaos may cost retries and respawns, never correctness.
//!
//! Triggers are shared across server threads, so the armed state
//! ([`ServerChaos`]) counts events with atomics; each action fires at most
//! once per plan.

use sdv_engine::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injectable service fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Close an accepted connection before serving it.
    DropConnection,
    /// Sleep before writing one response line.
    DelayResponse,
    /// A worker thread exits holding the group of cells it just took.
    KillWorker,
    /// Change the cycle count of a just-stored persistent cache entry.
    CorruptCacheEntry,
}

impl ChaosKind {
    fn bit(self) -> u8 {
        match self {
            ChaosKind::DropConnection => 1,
            ChaosKind::DelayResponse => 2,
            ChaosKind::KillWorker => 4,
            ChaosKind::CorruptCacheEntry => 8,
        }
    }
}

/// A seeded service-chaos plan: which actions are armed, and the seed their
/// trigger ordinals derive from. `Copy` and inert by default, mirroring
/// [`sdv_engine::FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    mask: u8,
    /// Seed for the trigger-ordinal derivation.
    pub seed: u64,
}

impl ChaosPlan {
    /// The inert plan: nothing armed, zero per-event cost beyond one branch.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arm all four actions with triggers derived from `seed`.
    pub fn all(seed: u64) -> Self {
        Self { mask: 0xF, seed }
    }

    /// Arm a single action.
    pub fn only(kind: ChaosKind, seed: u64) -> Self {
        Self { mask: kind.bit(), seed }
    }

    /// Whether `kind` is armed.
    pub fn includes(&self, kind: ChaosKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// Derive the concrete armed state. Each armed action gets a trigger
    /// ordinal drawn from its own seed stream (seed folded with the action,
    /// as [`sdv_engine::FaultPlan::arm`] folds the fault kind), over a range
    /// early enough that small CI sweeps still reach it.
    pub fn arm(&self) -> ServerChaos {
        let draw = |kind: ChaosKind, lo: u64, width: u64| {
            self.includes(kind).then(|| {
                let mut rng = Rng::new(self.seed ^ ((kind.bit() as u64) << 32));
                Trigger::at(lo + rng.below(width))
            })
        };
        ServerChaos {
            // A soak run opens only a handful of connections / stores only a
            // few entries, so these ordinals stay small.
            drop_connection: draw(ChaosKind::DropConnection, 1, 2),
            delay_response: draw(ChaosKind::DelayResponse, 1, 12),
            kill_worker: draw(ChaosKind::KillWorker, 1, 4),
            corrupt_cache_entry: draw(ChaosKind::CorruptCacheEntry, 1, 3),
        }
    }
}

/// A fire-once trigger shared across threads: the `n`-th matching event
/// (1-based) fires it, every other event passes through.
#[derive(Debug)]
pub struct Trigger {
    at: u64,
    seen: AtomicU64,
}

impl Trigger {
    fn at(at: u64) -> Self {
        Self { at, seen: AtomicU64::new(0) }
    }

    /// Count one event; `true` exactly once, at the armed ordinal.
    pub fn fire(&self) -> bool {
        self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.at
    }

    /// Whether the trigger has been reached.
    pub fn fired(&self) -> bool {
        self.seen.load(Ordering::Relaxed) >= self.at
    }
}

/// The armed, thread-shared state of a [`ChaosPlan`] inside a server.
/// `None` fields cost one branch per event; the server consults each at the
/// matching injection point.
#[derive(Debug, Default)]
pub struct ServerChaos {
    /// Fires at the n-th accepted connection.
    pub drop_connection: Option<Trigger>,
    /// Fires at the n-th response line written.
    pub delay_response: Option<Trigger>,
    /// Fires at the n-th group taken off the job queue.
    pub kill_worker: Option<Trigger>,
    /// Fires at the n-th persistent cache store.
    pub corrupt_cache_entry: Option<Trigger>,
}

impl ServerChaos {
    /// Count one event of the given trigger; `true` when this event is the
    /// armed one.
    pub fn hit(slot: &Option<Trigger>) -> bool {
        slot.as_ref().is_some_and(Trigger::fire)
    }
}

/// How long a delayed response sleeps. Long enough to be a real stall for
/// the client, short enough that 20 soak runs stay cheap — and well under
/// any sane `--io-timeout-ms`, so the delay alone never kills a connection.
pub const DELAY_RESPONSE: std::time::Duration = std::time::Duration::from_millis(40);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let armed = ChaosPlan::none().arm();
        assert!(armed.drop_connection.is_none());
        assert!(armed.delay_response.is_none());
        assert!(armed.kill_worker.is_none());
        assert!(armed.corrupt_cache_entry.is_none());
        assert!(!ServerChaos::hit(&armed.kill_worker), "inert slot never fires");
    }

    #[test]
    fn arming_is_deterministic_per_seed() {
        let ordinals = |seed| {
            let a = ChaosPlan::all(seed).arm();
            [
                a.drop_connection.unwrap().at,
                a.delay_response.unwrap().at,
                a.kill_worker.unwrap().at,
                a.corrupt_cache_entry.unwrap().at,
            ]
        };
        assert_eq!(ordinals(7), ordinals(7), "same seed, same plan");
        let differs = (0..16).any(|s| ordinals(s) != ordinals(s + 1));
        assert!(differs, "seeds must steer the triggers");
    }

    #[test]
    fn triggers_fire_exactly_once_across_threads() {
        let t = Trigger::at(50);
        let fires: usize = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|| (0..100).filter(|_| t.fire()).count())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(fires, 1, "one fire across 400 racing events");
        assert!(t.fired());
    }

    #[test]
    fn only_arms_its_own_kind() {
        use ChaosKind::*;
        let kinds = [DropConnection, DelayResponse, KillWorker, CorruptCacheEntry];
        for k in kinds {
            let armed: Vec<ChaosKind> =
                kinds.into_iter().filter(|&o| ChaosPlan::only(k, 3).includes(o)).collect();
            assert_eq!(armed, [k]);
            assert!(ChaosPlan::all(3).includes(k), "{k:?}");
        }
    }

    #[test]
    fn triggers_land_in_reachable_ranges() {
        for seed in 0..64 {
            let a = ChaosPlan::all(seed).arm();
            assert!((1..3).contains(&a.drop_connection.unwrap().at));
            assert!((1..13).contains(&a.delay_response.unwrap().at));
            assert!((1..5).contains(&a.kill_worker.unwrap().at));
            assert!((1..4).contains(&a.corrupt_cache_entry.unwrap().at));
        }
    }
}
