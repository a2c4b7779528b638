//! Crash-point enumeration over the storage plane.
//!
//! Requires `--features fault-injection`. The suite runs a fixed store
//! workload (appends, commits, compactions with snapshot sidecar writes)
//! once fault-free to (a) count every mutating disk operation it issues
//! and (b) record a per-epoch oracle of `find_all` output. It then
//! replays the workload once per operation index with a crash-stop
//! installed at that op — modelling a power cut at every possible
//! instant — reopens whatever is left on disk, and asserts:
//!
//! * the store opens and boots (recovery never wedges);
//! * its committed epoch is one the fault-free run passed through, and
//!   never regresses as the crash point moves later;
//! * `find_all` over the boot snapshot is byte-identical to the oracle
//!   for that epoch;
//! * `pdm fsck` finds nothing unrepairable, and after `--repair` the
//!   store is clean.
//!
//! A failed fsync without a crash (`fail_sync_every`) must poison the
//! store instead: it never runs ahead of its log, refuses every update
//! until reopened, and the reopened store serves what the log holds.
//!
//! Fault plans are process-global, so every test serializes on one
//! mutex; this file is its own test binary and nothing else links the
//! hooks in.

#![cfg(feature = "fault-injection")]

use pdm_core::dict::to_symbols;
use pdm_core::{PatId, Sym};
use pdm_dict::fsck::fsck_store;
use pdm_dict::{DictStore, StoreError};
use pdm_pram::Ctx;
use pdm_primitives::vfs::{self, faults};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static PLANE: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pdm-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The probe text every oracle comparison matches against.
fn probe_text() -> Vec<Sym> {
    to_symbols("usherssheherhishershe and hers again")
}

/// The fixed workload: three epochs of staged updates, two compactions
/// (log rewrite + snapshot sidecar), and an uncommitted staged tail.
/// Stops at the first error — under a crash-stop plan that models the
/// process dying at that disk op.
fn workload(path: &Path, ctx: &Ctx) -> Result<(), Box<dyn std::error::Error>> {
    let mut store = DictStore::open(path)?;
    for p in ["he", "she", "his"] {
        store.stage_add(&to_symbols(p))?;
    }
    store.commit(ctx)?; // epoch 1
    store.compact(ctx)?; // rewrite + .snap sidecar
    store.stage_add(&to_symbols("hers"))?;
    store.stage_remove(&to_symbols("his"))?;
    store.commit(ctx)?; // epoch 2
    store.stage_add(&to_symbols("usher"))?;
    store.commit(ctx)?; // epoch 3
    store.compact(ctx)?;
    store.stage_add(&to_symbols("handshake"))?; // staged, never committed
    Ok(())
}

/// `find_all` output of the committed dictionary at each epoch the
/// fault-free workload passes through (epoch 0 = empty store).
fn build_oracle(ctx: &Ctx) -> Vec<Vec<(usize, PatId)>> {
    let dir = tmp_dir("oracle");
    let path = dir.join("dict.pdml");
    let text = probe_text();
    let mut oracle = vec![Vec::new()]; // epoch 0: nothing committed
    {
        let mut store = DictStore::open(&path).unwrap();
        for p in ["he", "she", "his"] {
            store.stage_add(&to_symbols(p)).unwrap();
        }
        oracle.push(store.commit(ctx).unwrap().snapshot.find_all(ctx, &text));
        store.compact(ctx).unwrap();
        store.stage_add(&to_symbols("hers")).unwrap();
        store.stage_remove(&to_symbols("his")).unwrap();
        oracle.push(store.commit(ctx).unwrap().snapshot.find_all(ctx, &text));
        store.stage_add(&to_symbols("usher")).unwrap();
        oracle.push(store.commit(ctx).unwrap().snapshot.find_all(ctx, &text));
        store.compact(ctx).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    oracle
}

/// Total mutating disk ops the fault-free workload issues — the number
/// of distinct crash points the sweep enumerates.
fn count_ops(ctx: &Ctx) -> u64 {
    let dir = tmp_dir("count");
    let path = dir.join("dict.pdml");
    faults::install(faults::DiskFaultPlan::default()); // count only
    workload(&path, ctx).expect("no faults scheduled");
    let ops = faults::counts().ops;
    faults::clear();
    std::fs::remove_dir_all(&dir).ok();
    ops
}

/// Crash the workload at mutating op `at` (tearing `torn_bytes` of the
/// dying write), then recover and check every invariant. Returns the
/// committed epoch the store reopened at.
fn crash_and_recover(ctx: &Ctx, oracle: &[Vec<(usize, PatId)>], at: u64, torn_bytes: u64) -> u64 {
    let dir = tmp_dir(&format!("sweep-{at}-{torn_bytes}"));
    let path = dir.join("dict.pdml");
    faults::install(faults::DiskFaultPlan {
        crash_at_op: at,
        crash_torn_bytes: torn_bytes,
        ..Default::default()
    });
    let crashed = workload(&path, ctx).is_err();
    assert!(
        faults::counts().crashed && crashed,
        "crash point {at} never fired"
    );
    faults::clear();

    // fsck must be able to repair whatever the crash left behind…
    let report = fsck_store(&path, true).unwrap_or_else(|e| panic!("fsck at crash {at}: {e}"));
    assert!(
        report.bootable,
        "crash {at} left an unbootable store: {:?}",
        report.findings
    );
    // …and a second pass must come back with nothing actionable (exit 0).
    let clean = fsck_store(&path, false).unwrap();
    assert_eq!(
        clean.unrepaired(),
        0,
        "crash {at}: unrepaired findings after repair: {:?}",
        clean.findings
    );

    // The store boots and serves exactly the oracle for its epoch.
    let store = DictStore::open(&path).unwrap_or_else(|e| panic!("reopen after crash {at}: {e}"));
    let epoch = store.epoch();
    assert!(
        (epoch as usize) < oracle.len(),
        "crash {at} booted to unknown epoch {epoch}"
    );
    let boot = store.boot_snapshot(ctx).unwrap();
    assert_eq!(boot.snapshot.epoch(), epoch);
    assert_eq!(
        boot.snapshot.find_all(ctx, &probe_text()),
        oracle[epoch as usize],
        "crash {at}: find_all diverged from the never-crashed oracle at epoch {epoch}"
    );
    std::fs::remove_dir_all(&dir).ok();
    epoch
}

#[test]
fn workload_has_enough_injection_sites() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let ops = count_ops(&ctx);
    eprintln!("workload issues {ops} mutating disk ops (crash points)");
    assert!(
        ops >= 30,
        "workload issues only {ops} mutating ops; the sweep needs ≥ 30 crash points"
    );
}

#[test]
fn crash_sweep_every_op_recovers_to_oracle() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let oracle = build_oracle(&ctx);
    let total = count_ops(&ctx);
    let mut last_epoch = 0u64;
    for at in 1..=total {
        let epoch = crash_and_recover(&ctx, &oracle, at, 0);
        assert!(
            epoch >= last_epoch,
            "committed epoch regressed ({last_epoch} -> {epoch}) as the crash moved to op {at}"
        );
        last_epoch = epoch;
    }
    assert_eq!(
        last_epoch,
        (oracle.len() - 1) as u64,
        "a crash at the very last op should preserve every commit"
    );
}

#[test]
fn crash_sweep_with_torn_writes_recovers_to_oracle() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let oracle = build_oracle(&ctx);
    let total = count_ops(&ctx);
    // Same sweep, but the dying write lands a 3-byte prefix: every torn
    // tail the log or a sidecar can be left with.
    for at in 1..=total {
        crash_and_recover(&ctx, &oracle, at, 3);
    }
}

#[test]
fn scheduled_write_failures_surface_and_do_not_corrupt() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let oracle = build_oracle(&ctx);
    let dir = tmp_dir("flaky");
    let path = dir.join("dict.pdml");
    // A single failed write (no crash-stop): the op errors, the store
    // object is discarded, and on-disk state still boots consistently.
    faults::install(faults::DiskFaultPlan {
        fail_write_every: 7,
        fail_write_max: 1,
        ..Default::default()
    });
    let _ = workload(&path, &ctx);
    faults::clear();
    let store = DictStore::open(&path).unwrap();
    let epoch = store.epoch() as usize;
    assert!(epoch < oracle.len());
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert_eq!(boot.snapshot.find_all(&ctx, &probe_text()), oracle[epoch]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pdmx_write_crash_sweep_never_tears_the_sidecar() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let dir = tmp_dir("pdmx");
    let path = dir.join("c.pdmx");
    let old = pdm_index::CorpusIndex::build_from_bytes(&ctx, b"abracadabra");
    let new = pdm_index::CorpusIndex::build_from_bytes(&ctx, b"mississippi bananas");
    old.write_to(&path).unwrap();

    // `write_to` is one atomic_write: create + write + sync + rename +
    // syncdir. Crash at each of the five ops (and one past the end).
    for at in 1..=6u64 {
        faults::install(faults::DiskFaultPlan {
            crash_at_op: at,
            crash_torn_bytes: 11,
            ..Default::default()
        });
        let r = new.write_to(&path);
        faults::clear();
        let loaded = pdm_index::CorpusIndex::read_from(&path)
            .unwrap_or_else(|e| panic!("sidecar unreadable after crash at op {at}: {e}"));
        if r.is_ok() {
            assert_eq!(loaded, new, "write reported success at crash {at}");
        } else {
            assert!(
                loaded == old || loaded == new,
                "crash at op {at} left a third state"
            );
            // The failed replacement may strand a temp file; fsck's
            // sweep (exercised via the dict-side tests and the smoke
            // script) removes it — here just clean up for the next lap.
            std::fs::remove_file(vfs::tmp_path(&path)).ok();
        }
        old.write_to(&path).unwrap(); // reset for the next crash point
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_reads_never_serve_truncated_data() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let dir = tmp_dir("shortread");
    let path = dir.join("c.pdmx");
    let idx = pdm_index::CorpusIndex::build_from_bytes(&ctx, b"abracadabra");
    idx.write_to(&path).unwrap();
    // Every read comes back truncated to 64 bytes: the CRC'd formats
    // must reject the prefix, never decode it.
    faults::install(faults::DiskFaultPlan {
        short_read_every: 1,
        short_read_bytes: 64,
        ..Default::default()
    });
    let err = pdm_index::CorpusIndex::read_from(&path);
    faults::clear();
    assert!(err.is_err(), "a truncated PDMX read must not decode");
    assert_eq!(pdm_index::CorpusIndex::read_from(&path).unwrap(), idx);
    std::fs::remove_dir_all(&dir).ok();
}

/// Open a store at `path` whose committed epoch 1 is `{he, she}`.
fn seeded(path: &Path, ctx: &Ctx) -> DictStore {
    let mut store = DictStore::open(path).unwrap();
    for p in ["he", "she"] {
        store.stage_add(&to_symbols(p)).unwrap();
    }
    store.commit(ctx).unwrap();
    store
}

/// Every later stage, commit and compaction of a poisoned store refuses
/// with `StoreError::Poisoned`, fault plan or not.
fn assert_refuses_updates(store: &mut DictStore, ctx: &Ctx) {
    let poisoned = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Poisoned(_)));
    assert!(poisoned(store.stage_add(&to_symbols("hers"))));
    assert!(poisoned(store.stage_remove(&to_symbols("he"))));
    assert!(poisoned(store.commit(ctx).map(drop)));
    assert!(poisoned(store.compact(ctx).map(drop)));
}

#[test]
fn poison_a_failed_commit_sync_keeps_the_store_at_its_served_epoch() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let dir = tmp_dir("poison-commit");
    let path = dir.join("dict.pdml");
    let mut store = seeded(&path, &ctx);
    store.stage_add(&to_symbols("his")).unwrap();
    faults::install(faults::DiskFaultPlan {
        fail_sync_every: 1,
        fail_sync_max: 1,
        ..Default::default()
    });
    let failed = store.commit(&ctx);
    let injected = faults::counts().injected;
    faults::clear();
    assert_eq!(injected, 1, "the commit's sync failed");
    assert!(matches!(failed, Err(StoreError::Poisoned(_))), "{failed:?}");
    // Nothing applied: the store still describes epoch 1, the one served.
    assert_eq!(
        (store.epoch(), store.pattern_count(), store.staged_len()),
        (1, 2, 1)
    );
    assert_refuses_updates(&mut store, &ctx);
    drop(store);
    // The commit record was written before its sync failed, so the
    // reopened log seals epoch 2, and the store serves exactly that.
    let mut store = DictStore::open(&path).unwrap();
    assert_eq!((store.epoch(), store.pattern_count()), (2, 3));
    let boot = store.boot_snapshot(&ctx).unwrap();
    let live = ["he", "she", "his"].map(to_symbols).to_vec();
    let want = pdm_dict::Snapshot::build_static(&ctx, 2, live).unwrap();
    assert_eq!(
        boot.snapshot.find_all(&ctx, &probe_text()),
        want.find_all(&ctx, &probe_text())
    );
    store.stage_add(&to_symbols("hers")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_a_failed_stage_sync_stages_nothing_until_reopened() {
    let _g = PLANE.lock().unwrap();
    let ctx = Ctx::seq();
    let dir = tmp_dir("poison-stage");
    let path = dir.join("dict.pdml");
    let mut store = seeded(&path, &ctx);
    faults::install(faults::DiskFaultPlan {
        fail_sync_every: 1,
        fail_sync_max: 1,
        ..Default::default()
    });
    let failed = store.stage_add(&to_symbols("his"));
    faults::clear();
    assert!(matches!(failed, Err(StoreError::Poisoned(_))), "{failed:?}");
    assert_eq!((store.epoch(), store.staged_len()), (1, 0));
    assert_refuses_updates(&mut store, &ctx);
    drop(store);
    // Reopening replays what the log holds — here the record written
    // before its sync failed, restaged — and the store takes updates again.
    let mut store = DictStore::open(&path).unwrap();
    assert_eq!((store.epoch(), store.staged_len()), (1, 1));
    store.stage_add(&to_symbols("hers")).unwrap();
    store.commit(&ctx).unwrap();
    assert_eq!((store.epoch(), store.pattern_count()), (2, 4));
    std::fs::remove_dir_all(&dir).ok();
}
