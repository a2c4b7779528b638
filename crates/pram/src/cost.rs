//! Explicit PRAM cost model: rounds (time) and operations (work).
//!
//! The SPAA'93 paper states every bound as `O(T)` parallel time and `O(W)`
//! work on an arbitrary-CRCW PRAM. Wall clock on a multicore tells you about
//! constant factors and memory systems, not about those exponents, so the
//! experiment harness validates the bounds against these counters instead:
//! an algorithm calls [`CostModel::round`] once per synchronous parallel
//! step, passing the number of operations the step performs across all
//! (virtual) processors.
//!
//! Counters are atomics so instrumented code can charge costs from inside
//! parallel loops without synchronization beyond the increments themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Accumulates PRAM rounds and work, with an optional per-phase breakdown.
#[derive(Debug, Default)]
pub struct CostModel {
    rounds: AtomicU64,
    work: AtomicU64,
    /// One entry per distinct phase name, in first-occurrence order.
    phases: Mutex<Vec<PhaseStats>>,
}

/// Rounds/work attributed to one named phase of an algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    pub name: &'static str,
    pub rounds: u64,
    pub work: u64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    pub rounds: u64,
    pub work: u64,
}

impl CostSnapshot {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            rounds: self.rounds - earlier.rounds,
            work: self.work - earlier.work,
        }
    }
}

impl CostModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one synchronous parallel round performing `ops` operations.
    #[inline]
    pub fn round(&self, ops: u64) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.work.fetch_add(ops, Ordering::Relaxed);
    }

    /// Charge `k` rounds performing `ops` operations in total.
    ///
    /// Used for primitives whose round count is known analytically (e.g. a
    /// scan of length `n` runs `2⌈log₂ n⌉` rounds and `O(n)` work) but whose
    /// host-side implementation doesn't literally execute round by round.
    #[inline]
    pub fn rounds(&self, k: u64, ops: u64) {
        self.rounds.fetch_add(k, Ordering::Relaxed);
        self.work.fetch_add(ops, Ordering::Relaxed);
    }

    /// Charge extra work to the current round (no time).
    ///
    /// For per-element costs discovered inside a round that was already
    /// charged, e.g. probe chains whose total length is part of the work
    /// bound.
    #[inline]
    pub fn work(&self, ops: u64) {
        self.work.fetch_add(ops, Ordering::Relaxed);
    }

    /// Read the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            rounds: self.rounds.load(Ordering::Relaxed),
            work: self.work.load(Ordering::Relaxed),
        }
    }

    /// Run `f`, attributing the rounds/work it charges to phase `name`.
    /// A repeated name adds to its existing entry, so a long-lived model
    /// (a shard worker's) holds one entry per distinct phase.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = self.snapshot();
        let r = f();
        let delta = self.snapshot().since(before);
        Self::add_phase(&mut self.lock_phases(), name, delta);
        r
    }

    /// Charge to this model everything `other` recorded — rounds, work and
    /// phases — as if it had been charged here. A phase measures the
    /// counters' movement while it runs, so jobs running concurrently on
    /// one model would split rounds between their phases by timing; jobs
    /// that charge private models, absorbed afterwards in a fixed order,
    /// give the same phases however they interleaved.
    pub fn absorb(&self, other: &CostModel) {
        let s = other.snapshot();
        self.rounds(s.rounds, s.work);
        let mut phases = self.lock_phases();
        for p in other.lock_phases().iter() {
            let delta = CostSnapshot {
                rounds: p.rounds,
                work: p.work,
            };
            Self::add_phase(&mut phases, p.name, delta);
        }
    }

    fn add_phase(phases: &mut Vec<PhaseStats>, name: &'static str, delta: CostSnapshot) {
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.rounds += delta.rounds;
                p.work += delta.work;
            }
            None => phases.push(PhaseStats {
                name,
                rounds: delta.rounds,
                work: delta.work,
            }),
        }
    }

    /// All recorded phases in first-occurrence order, repeated names
    /// summed.
    pub fn phases(&self) -> Vec<PhaseStats> {
        self.lock_phases().clone()
    }

    /// Reset all counters and phases.
    pub fn reset(&self) {
        self.rounds.store(0, Ordering::Relaxed);
        self.work.store(0, Ordering::Relaxed);
        self.lock_phases().clear();
    }

    /// The phase list is plain data, valid even if a panic unwound
    /// through a holder, so a poisoned lock is recovered.
    fn lock_phases(&self) -> MutexGuard<'_, Vec<PhaseStats>> {
        self.phases.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let c = CostModel::new();
        c.round(10);
        c.round(20);
        c.rounds(3, 5);
        c.work(7);
        let s = c.snapshot();
        assert_eq!(s.rounds, 5);
        assert_eq!(s.work, 42);
    }

    #[test]
    fn snapshot_since() {
        let c = CostModel::new();
        c.round(10);
        let a = c.snapshot();
        c.round(5);
        c.round(5);
        let d = c.snapshot().since(a);
        assert_eq!(d.rounds, 2);
        assert_eq!(d.work, 10);
    }

    #[test]
    fn phases_merge_by_name() {
        let c = CostModel::new();
        c.phase("naming", || c.round(4));
        c.phase("extend", || c.round(2));
        c.phase("naming", || c.round(6));
        let ps = c.phases();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].name, "naming");
        assert_eq!(ps[0].rounds, 2);
        assert_eq!(ps[0].work, 10);
        assert_eq!(ps[1].name, "extend");
        assert_eq!(ps[1].work, 2);
    }

    #[test]
    fn repeated_phase_is_stored_once() {
        let c = CostModel::new();
        for _ in 0..10_000 {
            c.phase("verify", || c.round(1));
        }
        assert_eq!(c.phases.lock().unwrap().len(), 1);
        let ps = c.phases();
        assert_eq!(ps[0].rounds, 10_000);
        assert_eq!(ps[0].work, 10_000);
    }

    #[test]
    fn absorb_adds_counters_and_phases() {
        let (c, job) = (CostModel::new(), CostModel::new());
        c.phase("ascent", || c.round(4));
        job.phase("descent", || job.round(3));
        job.phase("ascent", || job.rounds(2, 6));
        c.absorb(&job);
        assert_eq!(
            c.snapshot(),
            CostSnapshot {
                rounds: 4,
                work: 13
            }
        );
        let ps = c.phases();
        assert_eq!(ps.len(), 2);
        assert_eq!((ps[0].name, ps[0].rounds, ps[0].work), ("ascent", 3, 10));
        assert_eq!((ps[1].name, ps[1].rounds, ps[1].work), ("descent", 1, 3));
    }

    #[test]
    fn reset_clears_everything() {
        let c = CostModel::new();
        c.phase("p", || c.round(1));
        c.reset();
        assert_eq!(c.snapshot(), CostSnapshot::default());
        assert!(c.phases().is_empty());
    }

    #[test]
    fn concurrent_charging_is_consistent() {
        let c = CostModel::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.round(3);
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.rounds, 8000);
        assert_eq!(snap.work, 24000);
    }
}
