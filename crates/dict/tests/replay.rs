//! Kill−restart durability: a store reopened on its log recovers the exact
//! committed dictionary (and the staged tail), through torn tails and
//! through compaction.

use pdm_core::dict::{symbolize, to_symbols};
use pdm_dict::{DictStore, Snapshot};
use pdm_pram::Ctx;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A test's store directory, removed when the guard drops — also when a
/// failing assert unwinds through the test.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A fresh store directory and the log path inside it.
fn temp_log(name: &str) -> (TempDir, PathBuf) {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pdm-dict-{}-{}-{}",
        name,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("dict.log");
    (TempDir(dir), log)
}

#[test]
fn restart_recovers_committed_dictionary() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("restart");
    {
        let mut store = DictStore::open(&path).unwrap();
        for p in symbolize(&["he", "she", "his", "hers"]) {
            store.stage_add(&p).unwrap();
        }
        store.commit(&ctx).unwrap();
        store.stage_remove(&to_symbols("his")).unwrap();
        store.commit(&ctx).unwrap();
        // Staged but never committed: must come back staged, not live.
        store.stage_add(&to_symbols("uncommitted")).unwrap();
        // "Kill": drop without any graceful close.
    }
    let store = DictStore::open(&path).unwrap();
    assert_eq!(store.epoch(), 2);
    assert_eq!(store.live_patterns(), symbolize(&["he", "she", "hers"]));
    assert_eq!(store.staged_len(), 1, "staged tail survives restart");
    assert_eq!(store.recovered_truncated(), 0);
}

#[test]
fn torn_tail_is_truncated_on_reopen() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("torn");
    {
        let mut store = DictStore::open(&path).unwrap();
        store.stage_add(&to_symbols("keep")).unwrap();
        store.commit(&ctx).unwrap();
        store.stage_add(&to_symbols("torn")).unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let store = DictStore::open(&path).unwrap();
    assert_eq!(store.live_patterns(), symbolize(&["keep"]));
    assert_eq!(store.staged_len(), 0, "torn staged record dropped");
    assert!(store.recovered_truncated() > 0);
    // The truncation must leave an appendable log.
    let mut store = store;
    store.stage_add(&to_symbols("after")).unwrap();
    store.commit(&ctx).unwrap();
    let store = DictStore::open(&path).unwrap();
    assert_eq!(store.live_patterns(), symbolize(&["keep", "after"]));
}

#[test]
fn compaction_roundtrip_preserves_state_and_emits_snapshot() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("compact");
    let (before_live, before_epoch, before_patterns) = {
        let mut store = DictStore::open(&path).unwrap();
        for p in symbolize(&["alpha", "beta", "gamma", "delta"]) {
            store.stage_add(&p).unwrap();
        }
        store.commit(&ctx).unwrap();
        store.stage_remove(&to_symbols("beta")).unwrap();
        store.stage_remove(&to_symbols("delta")).unwrap();
        let out = store.commit(&ctx).unwrap();
        store.stage_add(&to_symbols("staged-tail")).unwrap();
        let report = store.compact(&ctx).unwrap();
        assert_eq!(report.live, 2);
        assert_eq!(report.staged, 1);
        (
            store.live_patterns(),
            store.epoch(),
            out.snapshot.patterns().unwrap().to_vec(),
        )
    };
    // Replay of the compacted log reproduces the exact state.
    let store = DictStore::open(&path).unwrap();
    assert_eq!(store.live_patterns(), before_live);
    assert_eq!(store.epoch(), before_epoch);
    assert_eq!(store.staged_len(), 1);
    // And the compacted log is smaller than the op history it replaced.
    let snap_file = pdm_dict::store::snap_path(&path);
    let snap_bytes = std::fs::read(&snap_file).unwrap();
    let snap = Snapshot::from_bytes(&ctx, &snap_bytes).unwrap();
    assert_eq!(snap.epoch(), before_epoch);
    assert_eq!(
        snap.patterns().unwrap(),
        &before_patterns[..],
        "snapshot file is canonical for the committed set"
    );
    // The loadable snapshot actually matches.
    let hits = snap.find_all(&ctx, &to_symbols("xxalphagamma"));
    assert_eq!(hits.len(), 2);
}

#[test]
fn compaction_then_further_commits_replay() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("compact-then-append");
    {
        let mut store = DictStore::open(&path).unwrap();
        for i in 0..20u32 {
            store.stage_add(&[100 + i, 200 + i, 300 + i]).unwrap();
        }
        store.commit(&ctx).unwrap();
        for i in 0..15u32 {
            store.stage_remove(&[100 + i, 200 + i, 300 + i]).unwrap();
        }
        store.commit(&ctx).unwrap();
        store.compact(&ctx).unwrap();
        // Appending after compaction must replay cleanly too.
        store.stage_add(&to_symbols("post-compact")).unwrap();
        store.commit(&ctx).unwrap();
    }
    let store = DictStore::open(&path).unwrap();
    assert_eq!(store.epoch(), 3);
    assert_eq!(store.pattern_count(), 6);
    assert!(store.live_patterns().contains(&to_symbols("post-compact")));
}

#[test]
fn boot_cold_loads_fresh_sidecar() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("boot-cold");
    {
        let mut store = DictStore::open(&path).unwrap();
        for p in symbolize(&["he", "she", "his", "hers"]) {
            store.stage_add(&p).unwrap();
        }
        store.commit(&ctx).unwrap();
        store.compact(&ctx).unwrap();
    }
    let store = DictStore::open(&path).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert!(boot.cold_loaded(), "fallback: {:?}", boot.fallback);
    assert_eq!(boot.snapshot.path(), pdm_dict::SnapshotPath::ColdLoaded);
    assert!(
        boot.snapshot.matcher().is_some_and(|m| m.cold_loaded()),
        "no naming rounds may run on a cold boot"
    );
    assert_eq!(boot.snapshot.epoch(), 1);
    // The cold-loaded epoch matches exactly what a rebuild would serve.
    let rebuilt = Snapshot::build_static(&ctx, 1, store.live_patterns()).unwrap();
    let text = to_symbols("ushershishe");
    assert_eq!(
        boot.snapshot.find_all(&ctx, &text),
        rebuilt.find_all(&ctx, &text)
    );
}

#[test]
fn boot_falls_back_with_reasons() {
    use pdm_dict::BootFallback;
    let ctx = Ctx::seq();

    // No sidecar at all (never compacted).
    let (_dir, path) = temp_log("boot-nosnap");
    {
        let mut store = DictStore::open(&path).unwrap();
        store.stage_add(&to_symbols("solo")).unwrap();
        store.commit(&ctx).unwrap();
    }
    let mut store = DictStore::open(&path).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert_eq!(boot.fallback, Some(BootFallback::NoSidecar));
    assert_eq!(boot.snapshot.pattern_count(), 1);

    // Legacy v1 sidecar (header, epoch, pattern list): not read, so boot
    // rebuilds and reports why.
    let snap_file = pdm_dict::store::snap_path(&path);
    let mut v1 = Vec::new();
    pdm_primitives::codec::write_header(&mut v1, pdm_dict::snapshot::SNAP_MAGIC, 1);
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&4u32.to_le_bytes());
    for b in "solo".bytes() {
        v1.extend_from_slice(&u32::from(b).to_le_bytes());
    }
    std::fs::write(&snap_file, v1).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert_eq!(boot.fallback, Some(BootFallback::LegacyVersion(1)));
    assert_eq!(boot.snapshot.pattern_count(), 1);

    // Corrupt sidecar: flip a byte in a fresh v2 file.
    let good = Snapshot::build_static(&ctx, 1, store.live_patterns())
        .unwrap()
        .to_sidecar_bytes()
        .unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    std::fs::write(&snap_file, &bad).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert!(
        matches!(boot.fallback, Some(BootFallback::Unreadable(_))),
        "{:?}",
        boot.fallback
    );

    // Stale epoch: sidecar seals epoch 1, store commits past it.
    std::fs::write(&snap_file, &good).unwrap();
    store.stage_add(&to_symbols("newer")).unwrap();
    store.commit(&ctx).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert_eq!(
        boot.fallback,
        Some(BootFallback::StaleEpoch {
            sidecar: 1,
            store: 2
        })
    );

    // Stale patterns: same epoch, different canonical list.
    let wrong = Snapshot::build_static(&ctx, 2, symbolize(&["imposter"]))
        .unwrap()
        .to_sidecar_bytes()
        .unwrap();
    std::fs::write(&snap_file, wrong).unwrap();
    let boot = store.boot_snapshot(&ctx).unwrap();
    assert_eq!(boot.fallback, Some(BootFallback::StalePatterns));

    // Every fallback still served a correct snapshot.
    assert_eq!(boot.snapshot.pattern_count(), 2);
    assert_eq!(boot.snapshot.epoch(), 2);
}

#[test]
fn lazy_hydration_defers_naming_until_first_commit() {
    let ctx = Ctx::seq();
    let (_dir, path) = temp_log("hydrate");
    {
        let mut store = DictStore::open(&path).unwrap();
        for p in symbolize(&["aa", "bb", "cc"]) {
            store.stage_add(&p).unwrap();
        }
        store.commit(&ctx).unwrap();
        store.compact(&ctx).unwrap();
    }
    let mut store = DictStore::open(&path).unwrap();
    // Structural replay still exposes correct counts.
    assert_eq!(store.pattern_count(), 3);
    assert_eq!(store.symbol_count(), 6);
    // First commit after a cold open hydrates, then its freeze and a
    // fresh static build agree end to end.
    store.stage_add(&to_symbols("dd")).unwrap();
    let out = store.commit(&ctx).unwrap();
    assert_eq!(out.epoch, 2);
    assert_eq!(out.snapshot.pattern_count(), 4);
    let text = to_symbols("aabbccdd");
    let rebuilt = Snapshot::build_static(&ctx, 2, store.live_patterns()).unwrap();
    assert_eq!(
        out.snapshot.find_all(&ctx, &text),
        rebuilt.find_all(&ctx, &text)
    );
}
