//! Dictionary administration: the bridge between the wire protocol's
//! `DICT_*` frames and a [`DictStore`] + [`EpochHandle`] pair.
//!
//! One [`DictAdmin`] is shared by every connection of a versioned server.
//! Staging and committing serialize on the store mutex (updates are rare
//! and cheap compared to matching); a run of stage frames is one store
//! batch with one log sync. A commit freezes the store's dynamic matcher
//! into the epoch it publishes, and **publishing** it is a pointer swap on
//! the epoch handle, so the shard workers never wait for the freeze — the
//! sessions adopt the new epoch at their next chunk boundary.

use std::sync::{Arc, Mutex};

use pdm_dict::{BootFallback, CommitOutcome, DictStore, EpochHandle, StageOp, StoreError};
use pdm_pram::{CostModel, Ctx, ExecPolicy};

use crate::metrics::GlobalMetrics;
use crate::proto::DictInfo;

/// Shared admin state for a versioned server (see module docs).
pub struct DictAdmin {
    store: Mutex<DictStore>,
    handle: Arc<EpochHandle>,
    /// Why the first epoch was rebuilt instead of cold-loaded from the
    /// `.snap` sidecar; `None` = it was cold-loaded.
    boot_fallback: Option<BootFallback>,
}

impl DictAdmin {
    /// Wrap a store, publishing its current committed dictionary as the
    /// initial epoch — cold-loaded from the `.snap` sidecar when it is
    /// fresh, otherwise built in parallel on `exec`'s pool. Commits need no
    /// pool: each freezes the store's dynamic matcher.
    pub fn new(store: DictStore, exec: ExecPolicy) -> Result<Arc<Self>, StoreError> {
        let ctx = Ctx {
            exec,
            cost: Arc::new(CostModel::new()),
        };
        let boot = store.boot_snapshot(&ctx)?;
        let handle = EpochHandle::new(boot.snapshot);
        Ok(Arc::new(DictAdmin {
            store: Mutex::new(store),
            handle,
            boot_fallback: boot.fallback,
        }))
    }

    /// Was the initial epoch cold-loaded from the sidecar (no rebuild)?
    pub fn booted_cold(&self) -> bool {
        self.boot_fallback.is_none()
    }

    /// Why boot rebuilt instead of cold-loading (`None` = cold-loaded).
    pub fn boot_fallback(&self) -> Option<&BootFallback> {
        self.boot_fallback.as_ref()
    }

    /// The epoch slot to serve from (hand to
    /// [`crate::ShardedService::start_versioned`]).
    pub fn handle(&self) -> Arc<EpochHandle> {
        Arc::clone(&self.handle)
    }

    /// Stage a run of adds and removes as one store batch — one log sync
    /// ([`DictStore::stage_batch`]). One result per op, in order; each
    /// success carries the current (unchanged) epoch.
    pub fn stage(&self, ops: &[StageOp<'_>]) -> Vec<Result<u64, StoreError>> {
        let mut store = self.store.lock().expect("admin store poisoned");
        let epoch = store.epoch();
        store
            .stage_batch(ops)
            .into_iter()
            .map(|r| r.map(|()| epoch))
            .collect()
    }

    /// Commit every staged op as a new epoch and publish it. Sessions pick
    /// the new snapshot up at their next chunk boundary; `global` records
    /// the swap.
    pub fn commit(&self, global: &GlobalMetrics) -> Result<CommitOutcome, StoreError> {
        let mut store = self.store.lock().expect("admin store poisoned");
        let out = store.commit(&Ctx::seq())?;
        self.handle.publish(Arc::clone(&out.snapshot));
        global.epoch_swapped();
        Ok(out)
    }

    /// Current dictionary state (committed epoch, live/staged counts, `m`).
    pub fn info(&self) -> DictInfo {
        let store = self.store.lock().expect("admin store poisoned");
        DictInfo {
            epoch: store.epoch(),
            patterns: store.pattern_count() as u32,
            staged: store.staged_len() as u32,
            max_pattern_len: self.handle.load().max_pattern_len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::dict::to_symbols;
    use pdm_dict::SnapshotPath;

    fn admin() -> Arc<DictAdmin> {
        DictAdmin::new(DictStore::in_memory(), ExecPolicy::Seq).unwrap()
    }

    fn add(a: &DictAdmin, p: &str) -> Result<u64, StoreError> {
        a.stage(&[StageOp::Add(&to_symbols(p))]).remove(0)
    }

    #[test]
    fn commit_publishes_and_counts() {
        let a = admin();
        let g = GlobalMetrics::default();
        assert_eq!(a.handle().epoch(), 0);
        add(&a, "he").unwrap();
        add(&a, "she").unwrap();
        let out = a.commit(&g).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(a.handle().epoch(), 1, "commit published the snapshot");
        assert_eq!(g.snapshot().epoch_swaps, 1);
        let info = a.info();
        assert_eq!((info.epoch, info.patterns, info.staged), (1, 2, 0));
        assert_eq!(info.max_pattern_len, 3);
    }

    #[test]
    fn a_staged_batch_answers_each_op_in_order() {
        let a = admin();
        let (x, y) = (to_symbols("x"), to_symbols("y"));
        let got = a.stage(&[
            StageOp::Add(&x),
            StageOp::Add(&y),
            StageOp::Add(&x),
            StageOp::Remove(&y),
            StageOp::Remove(&y),
        ]);
        let ok: Vec<bool> = got.iter().map(Result::is_ok).collect();
        assert_eq!(ok, [true, true, false, true, false]);
        assert!(matches!(got[2], Err(StoreError::AlreadyPresent)));
        assert!(matches!(got[4], Err(StoreError::NotFound)));
        assert_eq!(a.info().staged, 3);
    }

    #[test]
    fn in_memory_store_boots_by_rebuilding() {
        let a = admin();
        assert!(!a.booted_cold());
        assert_eq!(a.boot_fallback(), Some(&BootFallback::NoSidecar));
    }

    #[test]
    fn compacted_store_boots_cold() {
        let ctx = Ctx::seq();
        let dir = std::env::temp_dir().join(format!("pdm-admin-boot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("dict.pdml");
        {
            let mut store = DictStore::open(&log).unwrap();
            store.stage_add(&to_symbols("he")).unwrap();
            store.stage_add(&to_symbols("she")).unwrap();
            store.commit(&ctx).unwrap();
            store.compact(&ctx).unwrap();
        }
        let store = DictStore::open(&log).unwrap();
        let a = DictAdmin::new(store, ExecPolicy::Seq).unwrap();
        assert!(a.booted_cold(), "fallback: {:?}", a.boot_fallback());
        assert_eq!(a.handle().epoch(), 1);
        assert_eq!(a.handle().load().path(), SnapshotPath::ColdLoaded);
        let info = a.info();
        assert_eq!((info.epoch, info.patterns, info.staged), (1, 2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_do_not_poison_the_store() {
        let a = admin();
        let g = GlobalMetrics::default();
        let missing = to_symbols("missing");
        assert!(a.stage(&[StageOp::Remove(&missing)])[0].is_err());
        assert!(a.commit(&g).is_err(), "nothing staged");
        add(&a, "ok").unwrap();
        assert!(a.commit(&g).is_ok());
        assert_eq!(a.info().patterns, 1);
    }
}
