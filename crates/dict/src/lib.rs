//! `pdm-dict`: the versioned dictionary store behind live updates.
//!
//! The paper's §6 (Theorems 7–10) makes the *matcher* dynamic; this crate
//! makes the *service* dynamic. It layers three pieces between the core
//! matchers and the streaming server:
//!
//! * [`log`] / [`DictStore`] — an append-only, CRC-checked pattern log
//!   with staged adds/removes, epoch-sealing commits, torn-tail recovery
//!   and compaction (which also emits a loadable snapshot file);
//! * [`Snapshot`] — one immutable epoch: canonical pattern ids, a matcher,
//!   and all-matches expansion chains, the same pattern list and the same
//!   match output whichever path produced it (a freeze, a static build or
//!   a sidecar load);
//! * [`EpochHandle`] — the `Arc`-swap slot readers pin per chunk, so
//!   in-flight work finishes against its starting epoch while new work
//!   observes the published one.
//!
//! Every [`DictStore::commit`] takes one path, whatever the size of its
//! batch: the staged ops go through the store's master `DynamicMatcher`
//! (the §6 insert/delete path), and the epoch it publishes is a freeze of
//! that matcher into the static read form (Theorems 8 and 10). A full
//! parallel `StaticMatcher` build runs only where no dynamic matcher is
//! fed yet or the bytes must be a function of the pattern set alone: a
//! boot without a usable sidecar, and compaction.
//!
//! ```
//! use pdm_dict::{DictStore, EpochHandle};
//! use pdm_core::dict::to_symbols;
//! use pdm_pram::Ctx;
//!
//! let ctx = Ctx::seq();
//! let mut store = DictStore::in_memory();
//! store.stage_add(&to_symbols("he")).unwrap();
//! store.stage_add(&to_symbols("she")).unwrap();
//! let first = store.commit(&ctx).unwrap();
//! let handle = EpochHandle::new(first.snapshot);
//!
//! let pinned = handle.load(); // a chunk pins its epoch…
//! store.stage_add(&to_symbols("hers")).unwrap();
//! handle.publish(store.commit(&ctx).unwrap().snapshot); // …while we swap
//! assert_eq!(pinned.epoch(), 1);
//! assert_eq!(handle.load().epoch(), 2);
//! assert_eq!(handle.load().pattern_count(), 3);
//! ```

pub mod epoch;
pub mod fsck;
pub mod log;
pub mod snapshot;
pub mod store;

pub use epoch::EpochHandle;
pub use fsck::{fsck_store, Finding, FsckReport, Severity};
pub use log::{RecoveredTornTail, TailFault};
pub use snapshot::{inspect, SnapError, SnapInfo, Snapshot, SnapshotPath};
pub use store::{
    BootFallback, BootOutcome, CommitOutcome, CompactReport, DictStore, StageOp, StoreError,
};
