//! Property tests for the commit path: every commit applies its batch to
//! the store's `DynamicMatcher` and publishes a freeze of it.
//!
//! 1. `DynamicMatcher` after a *random interleaving* of inserts and
//!    deletes is equivalent to a `StaticMatcher` built from scratch on the
//!    surviving pattern set (the §6 claim the commit path leans on).
//! 2. A `DictStore` driven by the same interleaving — staged in batches
//!    of any size and committed — reports exactly the matches of a
//!    from-scratch `StaticMatcher` on every committed epoch.
//! 3. Frozen epochs over byte alphabets with the SWAR prefilter active:
//!    every epoch of a random add/remove/commit script — through
//!    delete-to-empty, re-adds, removal of the longest pattern (a `K`
//!    change), the §6 squeeze-out rebuild and runs of commits that patch
//!    the frozen tables, some while an earlier epoch is still held —
//!    reports exactly Aho–Corasick's matches and a fresh `build_static`'s,
//!    with the same canonical ids, at pool widths 1, 2 and 4; every frozen
//!    table is a valid raw table of the right size; a held epoch answers as
//!    it did when published; and an epoch's sidecar bytes load back to the
//!    same matches.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use pdm_baselines::AhoCorasick;
use pdm_core::dict::{PatId, Sym};
use pdm_core::dynamic::{DynError, DynamicMatcher, FreezeRoute};
use pdm_core::prefilter::PREFILTER_MIN_TEXT;
use pdm_core::static1d::StaticMatcher;
use pdm_core::PrefilterDecision;
use pdm_dict::{CommitOutcome, DictStore, Snapshot, SnapshotPath};
use pdm_pram::Ctx;
use pdm_primitives::FrozenPairTable;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A scripted dictionary edit: insert (roll < 7, i.e. 70%) or delete a
/// pattern over the alphabet {0,1,2}.
fn ops_strategy() -> impl Strategy<Value = Vec<(u32, Vec<Sym>)>> {
    proptest::collection::vec((0u32..10, proptest::collection::vec(0u32..3, 1..10)), 1..40)
}

/// Longest match per position, id-agnostic: the pattern *text* at each
/// position (unique — two distinct equal-length patterns cannot match at
/// the same spot).
fn longest_by_content(
    longest: &[Option<PatId>],
    pattern_of: &dyn Fn(PatId) -> Vec<Sym>,
) -> Vec<Option<Vec<Sym>>> {
    longest.iter().map(|o| o.map(pattern_of)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dynamic_equals_static_after_interleaving(
        ops in ops_strategy(),
        text in proptest::collection::vec(0u32..3, 0..200),
    ) {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        // Model of the live set: dynamic id -> pattern, plus build order.
        let mut by_id: HashMap<PatId, Vec<Sym>> = HashMap::new();
        let mut live: Vec<Vec<Sym>> = Vec::new();
        for (roll, p) in &ops {
            if *roll < 7 {
                match d.insert(&ctx, p) {
                    Ok(id) => {
                        by_id.insert(id, p.clone());
                        live.push(p.clone());
                    }
                    Err(DynError::AlreadyPresent(_)) => {}
                    Err(e) => panic!("insert: {e}"),
                }
            } else {
                match d.delete(&ctx, p) {
                    Ok(id) => {
                        by_id.remove(&id);
                        live.retain(|q| q != p);
                    }
                    Err(DynError::NotFound) => {}
                    Err(e) => panic!("delete: {e}"),
                }
            }
        }
        prop_assert_eq!(d.pattern_count(), live.len());

        let got = longest_by_content(
            &d.match_text(&ctx, &text).longest_pattern,
            &|id| by_id[&id].clone(),
        );
        if live.is_empty() {
            prop_assert!(got.iter().all(Option::is_none));
            return Ok(());
        }
        let s = StaticMatcher::build(&ctx, &live).unwrap();
        let want = longest_by_content(
            &s.match_text(&ctx, &text).longest_pattern,
            &|id| live[id as usize].clone(),
        );
        prop_assert_eq!(got, want);
    }

    #[test]
    fn store_commits_equal_static_rebuilds(
        ops in ops_strategy(),
        text in proptest::collection::vec(0u32..3, 0..160),
        batch in 1usize..6,
    ) {
        let ctx = Ctx::seq();
        let mut store = DictStore::in_memory();
        let mut live: Vec<Vec<Sym>> = Vec::new();
        let mut staged = 0usize;
        for (roll, p) in &ops {
            let ok = if *roll < 7 {
                let ok = store.stage_add(p).is_ok();
                if ok {
                    live.push(p.clone());
                }
                ok
            } else {
                let ok = store.stage_remove(p).is_ok();
                if ok {
                    live.retain(|q| q != p);
                }
                ok
            };
            if ok {
                staged += 1;
            }
            if staged >= batch {
                staged = 0;
                let out = store.commit(&ctx).unwrap();
                let snap = out.snapshot;
                // Compare id-agnostically as (position, pattern length):
                // unique per occurrence, since distinct equal-length
                // patterns cannot match at the same position.
                let mut got: Vec<(usize, u32)> = snap
                    .find_all(&ctx, &text)
                    .into_iter()
                    .map(|(i, p)| (i, snap.pattern_len(p)))
                    .collect();
                got.sort_unstable();
                let mut want: Vec<(usize, u32)> = if live.is_empty() {
                    Vec::new()
                } else {
                    StaticMatcher::build(&ctx, &live)
                        .unwrap()
                        .find_all(&ctx, &text)
                        .into_iter()
                        .map(|(i, p)| (i, live[p as usize].len() as u32))
                        .collect()
                };
                want.sort_unstable();
                prop_assert_eq!(got, want, "epoch {}", out.epoch);
            }
        }
    }
}

/// Pool widths 1, 2 and 4, shared by every case.
fn widths() -> &'static [Ctx; 3] {
    static W: OnceLock<[Ctx; 3]> = OnceLock::new();
    W.get_or_init(|| [Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)])
}

/// Distinct alert-style patterns from `(head, tail)` draws: an uppercase
/// first byte, then lowercase bytes. Uppercase bytes are rare in the texts
/// below, so the prefilter keeps an active engine. `long` goes first and
/// outgrows the rest (17–24 symbols against at most 10), so removing the
/// longest pattern lowers `K` — often without a squeeze-out rebuild, as
/// the others together outweigh it.
fn alert_pool(long: (u8, Vec<u8>), raw: Vec<(u8, Vec<u8>)>) -> Vec<Vec<Sym>> {
    let mut pool: Vec<Vec<Sym>> = Vec::new();
    for (head, tail) in std::iter::once(long).chain(raw) {
        let p: Vec<Sym> = std::iter::once(head).chain(tail).map(Sym::from).collect();
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    pool
}

/// A lowercase text with pool patterns planted between noise runs, padded
/// to at least `PREFILTER_MIN_TEXT` symbols so the prefilter scans it.
fn alert_text(pool: &[Vec<Sym>], segments: &[(usize, Vec<u8>)]) -> Vec<Sym> {
    let mut text: Vec<Sym> = Vec::new();
    for (pick, noise) in segments {
        text.extend(noise.iter().map(|&b| Sym::from(b)));
        if let Some(p) = pool.get(*pick) {
            text.extend_from_slice(p);
        }
    }
    while text.len() < PREFILTER_MIN_TEXT {
        text.push(Sym::from(b'x'));
    }
    text
}

/// One committed epoch against both oracles: Aho–Corasick over the model's
/// live list (whose positions are the canonical ids) and a fresh
/// `build_static`, at every pool width; the frozen form's `m`, `K` and
/// prefilter decision equal the fresh build's; every frozen table passes
/// `from_raw_parts` with the slot count its entries call for; the epoch's
/// sidecar bytes load back to the same matches.
fn check_epoch(snap: &Snapshot, live: &[Vec<Sym>], text: &[Sym]) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.patterns(), Some(live));
    if let Some(m) = snap.matcher() {
        let read = &m.tables().read;
        for t in std::iter::once(&read.sym)
            .chain(&read.pair)
            .chain(&read.ext)
        {
            let raw = t.raw();
            let back =
                FrozenPairTable::from_raw_parts(raw.keys().into(), raw.vals().into(), raw.len());
            prop_assert!(back.is_ok(), "{:?}", back.err());
            prop_assert_eq!(raw.slots_len(), FrozenPairTable::slots_for(raw.len()));
        }
    }
    let mut want: Vec<(usize, PatId)> = AhoCorasick::new(live)
        .find_all(text)
        .into_iter()
        .map(|o| (o.start, o.pat as PatId))
        .collect();
    want.sort_unstable();
    let built = Snapshot::build_static(&Ctx::seq(), snap.epoch(), live.to_vec()).unwrap();
    prop_assert_eq!(snap.max_pattern_len(), built.max_pattern_len());
    if let (Some(m), Some(b)) = (snap.matcher(), built.matcher()) {
        prop_assert_eq!(m.tables().levels, b.tables().levels);
        prop_assert_eq!(m.prefilter_decision(), b.prefilter_decision());
    }
    for (w, ctx) in widths().iter().enumerate() {
        prop_assert_eq!(&snap.find_all(ctx, text), &want, "width index {}", w);
        prop_assert_eq!(&built.find_all(ctx, text), &want, "width index {}", w);
    }
    let bytes = snap
        .to_sidecar_bytes()
        .expect("a committed epoch knows its patterns");
    let back = Snapshot::from_bytes(&Ctx::seq(), &bytes).unwrap();
    prop_assert_eq!(back.find_all(&Ctx::seq(), text), want);
    Ok(())
}

/// A store driven by a script, with its model: the canonical live list,
/// the ops staged since the last commit, and epochs held past their
/// publication (each with its live list and the commits since).
struct Script<'a> {
    store: DictStore,
    live: Vec<Vec<Sym>>,
    staged: Vec<(bool, Vec<Sym>)>,
    held: Vec<(Arc<Snapshot>, Vec<Vec<Sym>>, usize)>,
    text: &'a [Sym],
}

impl<'a> Script<'a> {
    fn new(text: &'a [Sym]) -> Self {
        Script {
            store: DictStore::in_memory(),
            live: Vec::new(),
            staged: Vec::new(),
            held: Vec::new(),
            text,
        }
    }

    fn add(&mut self, p: &[Sym]) {
        if self.store.stage_add(p).is_ok() {
            self.staged.push((true, p.to_vec()));
        }
    }

    fn remove(&mut self, p: &[Sym]) {
        if self.store.stage_remove(p).is_ok() {
            self.staged.push((false, p.to_vec()));
        }
    }

    fn toggle(&mut self, p: &[Sym]) {
        if self.store.would_be_live(p) {
            self.remove(p)
        } else {
            self.add(p)
        }
    }

    /// Commit what is staged (if anything), check the epoch, and re-check
    /// every held epoch: one held across two commits — the second patches
    /// the very copy it serves from — still answers as its own epoch did,
    /// and is then released.
    fn commit(&mut self) -> Result<Option<CommitOutcome>, TestCaseError> {
        if self.staged.is_empty() {
            return Ok(None);
        }
        let out = self.store.commit(&Ctx::seq()).unwrap();
        for (add, p) in self.staged.drain(..) {
            if add {
                self.live.push(p);
            } else {
                self.live.retain(|q| *q != p);
            }
        }
        prop_assert_eq!(out.path, SnapshotPath::Incremental);
        prop_assert_eq!(out.tables.is_some(), !self.live.is_empty());
        check_epoch(&out.snapshot, &self.live, self.text)?;
        for (snap, live, since) in &mut self.held {
            *since += 1;
            check_epoch(snap, live, self.text)?;
        }
        self.held.retain(|h| h.2 < 2);
        Ok(Some(out))
    }

    fn hold(&mut self, out: &CommitOutcome) {
        self.held
            .push((Arc::clone(&out.snapshot), self.live.clone(), 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ops: 0–4 stage an add, 5–6 a remove, 7 removes the longest pattern
    /// live after the staged ops, 8 removes every one of them, 9–11
    /// commit, 12 commits and holds the epoch across the next two commits.
    /// Whole-dictionary removals shrink the live size below half of what
    /// was inserted, so the §6 squeeze-out rebuild runs too. A fixed coda
    /// follows: three commits in a row (the first held; the longest pattern
    /// toggled out and back, so `K` changes twice), a removal of all but
    /// one pattern (squeeze-out), a re-add and four more commits.
    #[test]
    fn frozen_epochs_equal_aho_corasick_and_static_builds(
        long in (b'A'..=b'F', proptest::collection::vec(b'a'..=b'e', 16..24)),
        raw_pool in proptest::collection::vec(
            (b'A'..=b'F', proptest::collection::vec(b'a'..=b'e', 0..10)), 3..12),
        segments in proptest::collection::vec(
            (0usize..16, proptest::collection::vec(b'a'..=b'h', 0..12)), 4..40),
        ops in proptest::collection::vec((0u8..13, 0usize..16), 1..60),
    ) {
        let pool = alert_pool(long, raw_pool);
        let text = alert_text(&pool, &segments);
        let mut s = Script::new(&text);
        let live_after = |store: &DictStore| -> Vec<Vec<Sym>> {
            pool.iter().filter(|p| store.would_be_live(p)).cloned().collect()
        };
        for &(op, i) in &ops {
            let p = &pool[i % pool.len()];
            match op {
                0..=4 => s.add(p),
                5..=6 => s.remove(p),
                7 => {
                    if let Some(p) = live_after(&s.store).into_iter().max_by_key(Vec::len) {
                        s.remove(&p);
                    }
                }
                8 => live_after(&s.store).iter().for_each(|p| s.remove(p)),
                9..=11 => {
                    s.commit()?;
                }
                _ => {
                    if let Some(out) = s.commit()? {
                        s.hold(&out);
                    }
                }
            }
        }
        s.commit()?;
        let at = |k: usize| &pool[k % pool.len()];
        s.toggle(at(1));
        if let Some(out) = s.commit()? {
            s.hold(&out);
        }
        for _ in 0..2 {
            s.toggle(at(0));
            s.commit()?;
        }
        let keep = at(2).clone();
        for p in live_after(&s.store).iter().filter(|p| **p != keep) {
            s.remove(p);
        }
        s.commit()?;
        pool.iter().for_each(|p| s.add(p));
        s.commit()?;
        for k in [1, 2, 3, 1] {
            s.toggle(at(k));
            s.commit()?;
        }
    }
}

/// A fixed walk through the edge cases of the property above, with the
/// facts it can only hope to hit asserted outright: incremental epochs run
/// the prefilter's scan; steady-state commits with no epoch held patch the
/// frozen tables in place, and one that finds its copy still held patches
/// a copy, leaving the held epoch's answers alone; removing the longest
/// pattern lowers `m` and `K`; the squeeze-out rebuild re-freezes; and an
/// empty epoch re-fills.
#[test]
fn frozen_epochs_scan_with_the_prefilter_through_squeeze_out() {
    let ctx = Ctx::seq();
    let alerts: Vec<Vec<Sym>> = (0..24u32)
        .map(|i| {
            let head = Sym::from(b'A') + i % 26;
            let tail = (0..6 + i % 5).map(|j| Sym::from(b'a') + (i * 7 + j) % 26);
            std::iter::once(head).chain(tail).collect()
        })
        .collect();
    let longest: Vec<Sym> = std::iter::once(Sym::from(b'Z'))
        .chain(std::iter::repeat_n(Sym::from(b'q'), 40))
        .collect();
    let mut text: Vec<Sym> = (0..4096u32).map(|i| Sym::from(b'a') + i % 23).collect();
    for (k, p) in alerts.iter().chain(std::iter::once(&longest)).enumerate() {
        let at = 97 + 150 * k;
        text[at..at + p.len()].copy_from_slice(p);
    }
    let commit = |store: &mut DictStore, live: &[Vec<Sym>]| {
        let out = store.commit(&ctx).unwrap();
        check_epoch(&out.snapshot, live, &text).unwrap();
        out
    };
    let epoch = |store: &mut DictStore, live: &[Vec<Sym>]| commit(store, live).snapshot;
    // Remove `p` and add it back in one commit: no table changes size, so
    // no table needs re-freezing.
    let cycle = |store: &mut DictStore, live: &mut Vec<Vec<Sym>>, p: &Vec<Sym>| {
        store.stage_remove(p).unwrap();
        store.stage_add(p).unwrap();
        live.retain(|q| q != p);
        live.push(p.clone());
        commit(store, live)
    };

    let mut store = DictStore::in_memory();
    let mut live = alerts.clone();
    live.push(longest.clone());
    for p in &live {
        store.stage_add(p).unwrap();
    }
    let out = commit(&mut store, &live);
    assert_eq!(out.tables, Some(FreezeRoute::Refrozen), "first freeze");
    let m = out.snapshot.matcher().unwrap();
    assert_eq!(m.tables().levels, 6, "m = 41");
    assert!(
        matches!(
            m.prefilter_decision(),
            PrefilterDecision::RareByte | PrefilterDecision::PairMask
        ),
        "{:?}",
        m.prefilter_decision()
    );
    assert!(m.stats().prefilter_counters.scans > 0, "the scan ran");
    drop(out);

    // Steady state with no epoch held. The second freeze patches a clone
    // of the first copy (no second copy exists yet), so it copies; tables
    // it had nothing to patch still share their arrays with the first
    // copy, so the third may copy those once. From then on every commit
    // patches in place the copy published two commits before, which
    // nothing holds any more.
    let routes: Vec<_> = (0..6)
        .map(|k| cycle(&mut store, &mut live, &alerts[k]).tables)
        .collect();
    assert_eq!(routes[0], Some(FreezeRoute::Copied));
    assert!(
        routes[2..].iter().all(|r| *r == Some(FreezeRoute::InPlace)),
        "{routes:?}"
    );
    // Hold an epoch across two commits: the second finds its copy shared
    // and patches a copy of it; the held epoch keeps its own answers.
    let held = cycle(&mut store, &mut live, &alerts[6]);
    assert_eq!(held.tables, Some(FreezeRoute::InPlace));
    let held_live = live.clone();
    let next = cycle(&mut store, &mut live, &alerts[7]).tables;
    assert_eq!(next, Some(FreezeRoute::InPlace));
    let next = cycle(&mut store, &mut live, &alerts[8]).tables;
    assert_eq!(next, Some(FreezeRoute::Copied));
    check_epoch(&held.snapshot, &held_live, &text).unwrap();
    drop(held);
    let next = cycle(&mut store, &mut live, &alerts[9]).tables;
    assert_eq!(next, Some(FreezeRoute::InPlace));

    // Removing the longest pattern shrinks m from 41 to 11 (K 6 → 4).
    store.stage_remove(&longest).unwrap();
    live.retain(|q| *q != longest);
    let snap = epoch(&mut store, &live);
    assert_eq!(snap.max_pattern_len(), 11);
    assert_eq!(snap.matcher().unwrap().tables().levels, 4);

    // Remove 20 of 24: live symbols fall below half of those inserted
    // since the last rebuild, so the dynamic matcher squeezes out and
    // every table is re-frozen.
    let gone: Vec<Vec<Sym>> = live.drain(..20).collect();
    for p in &gone {
        store.stage_remove(p).unwrap();
    }
    assert_eq!(
        commit(&mut store, &live).tables,
        Some(FreezeRoute::Refrozen)
    );

    // Delete to empty, then re-add (fresh native ids, new canonical slots).
    for p in &live {
        store.stage_remove(p).unwrap();
    }
    let snap = epoch(&mut store, &[]);
    assert!(snap.matcher().is_none());
    assert_eq!(snap.find_all(&ctx, &text), vec![]);
    let readd: Vec<Vec<Sym>> = vec![alerts[3].clone(), longest.clone(), alerts[0].clone()];
    for p in &readd {
        store.stage_add(p).unwrap();
    }
    epoch(&mut store, &readd);
}
