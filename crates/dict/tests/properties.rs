//! Property tests for the two rebuild paths.
//!
//! 1. `DynamicMatcher` after a *random interleaving* of inserts and
//!    deletes is equivalent to a `StaticMatcher` built from scratch on the
//!    surviving pattern set (the §6 claim the incremental commit path
//!    leans on).
//! 2. A `DictStore` driven by the same interleaving — staged in batches
//!    and committed (exercising both the incremental batch-apply and the
//!    threshold-triggered full rebuild) — reports exactly the matches of a
//!    from-scratch `StaticMatcher` on every committed epoch.

use std::collections::HashMap;

use pdm_core::dict::{PatId, Sym};
use pdm_core::dynamic::{DynError, DynamicMatcher};
use pdm_core::static1d::StaticMatcher;
use pdm_dict::DictStore;
use pdm_pram::Ctx;
use proptest::prelude::*;

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
        // Tiny threshold pushes some commits onto the full-rebuild path
        // while small batches still go incremental.
        store.set_rebuild_threshold(0.4);
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
