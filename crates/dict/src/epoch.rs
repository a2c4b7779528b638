//! Epoch publication: one swappable `Arc<Snapshot>` slot.
//!
//! Readers pin an epoch by cloning the `Arc` out of the slot — typically
//! once per chunk — and keep matching against that snapshot even if a new
//! epoch is published mid-chunk. Publication is a pointer swap under a
//! short write lock; no reader ever blocks on a commit (its freeze runs
//! in the store *before* `publish`).

use crate::snapshot::Snapshot;
use std::sync::{Arc, RwLock};

/// Shared handle to the current dictionary epoch.
#[derive(Debug)]
pub struct EpochHandle {
    cur: RwLock<Arc<Snapshot>>,
}

impl EpochHandle {
    /// A handle starting at `snapshot`.
    pub fn new(snapshot: Arc<Snapshot>) -> Arc<Self> {
        Arc::new(EpochHandle {
            cur: RwLock::new(snapshot),
        })
    }

    /// Pin the current epoch (cheap: one `Arc` clone under a read lock).
    pub fn load(&self) -> Arc<Snapshot> {
        self.cur.read().expect("epoch lock poisoned").clone()
    }

    /// Current epoch number without pinning.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Swap in a new snapshot. In-flight readers keep their pinned `Arc`s;
    /// the next `load` observes the new epoch.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        *self.cur.write().expect("epoch lock poisoned") = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_epoch_survives_publish() {
        let h = EpochHandle::new(Arc::new(Snapshot::build_empty(0)));
        let pinned = h.load();
        h.publish(Arc::new(Snapshot::build_empty(1)));
        assert_eq!(pinned.epoch(), 0, "in-flight reader keeps its epoch");
        assert_eq!(h.load().epoch(), 1, "next load sees the swap");
        assert_eq!(h.epoch(), 1);
    }

    #[test]
    fn concurrent_load_and_publish() {
        let h = EpochHandle::new(Arc::new(Snapshot::build_empty(0)));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..1000 {
                        let e = h.load().epoch();
                        assert!(e >= last, "epochs only move forward");
                        last = e;
                    }
                })
            })
            .collect();
        for e in 1..=100 {
            h.publish(Arc::new(Snapshot::build_empty(e)));
        }
        for r in readers {
            r.join().unwrap();
        }
    }
}
