//! Cross-matcher integration tests: every matcher in the workspace must
//! agree with every other (and with the baselines) wherever their problem
//! statements overlap.

use pdm::baselines::{naive, AhoCorasick};
use pdm::core::equal_len::EqualLenMatcher;
use pdm::core::smallalpha::SmallAlphaMatcher;
use pdm::prelude::*;
use pdm::stream::StreamMatcher;
use pdm::textgen::{corpus, strings, Alphabet};
use pdm_dict::{DictStore, SnapshotPath};
use std::sync::Arc;

fn as_usize(v: &[Option<PatId>]) -> Vec<Option<usize>> {
    v.iter().map(|o| o.map(|p| p as usize)).collect()
}

/// One workload, five matchers, one answer.
#[test]
fn all_matchers_agree_on_equal_length_workload() {
    let ctx = Ctx::seq();
    for seed in 0..10 {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 600);
        let m = 12;
        let pats = strings::excerpt_dictionary(&mut r, &text, 6, m, m);
        strings::plant_occurrences(&mut r, &mut text, &pats, 12);

        let want = naive::longest_pattern_per_position(&pats, &text);

        let st = StaticMatcher::build(&ctx, &pats).unwrap();
        assert_eq!(
            as_usize(&st.match_text(&ctx, &text).longest_pattern),
            want,
            "static s{seed}"
        );

        let eq = EqualLenMatcher::new(&pats).unwrap();
        assert_eq!(
            as_usize(&eq.match_text(&ctx, &text)),
            want,
            "equal_len s{seed}"
        );

        let sa = SmallAlphaMatcher::build_with_l(&ctx, &pats, 4, 3).unwrap();
        assert_eq!(
            as_usize(&sa.match_text(&ctx, &text).longest_pattern),
            want,
            "smallalpha s{seed}"
        );

        let dy = DynamicMatcher::with_dictionary(&ctx, &pats).unwrap();
        assert_eq!(
            as_usize(&dy.match_text(&ctx, &text).longest_pattern),
            want,
            "dynamic s{seed}"
        );

        let ac = AhoCorasick::new(&pats);
        assert_eq!(ac.longest_match_per_position(&text), want, "ac s{seed}");
    }
}

#[test]
fn static_and_dynamic_agree_on_mixed_lengths() {
    let ctx = Ctx::seq();
    for seed in 20..28 {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 800);
        let pats = strings::excerpt_dictionary(&mut r, &text, 20, 1, 50);
        strings::plant_occurrences(&mut r, &mut text, &pats, 25);

        let st = StaticMatcher::build(&ctx, &pats).unwrap();
        let dy = DynamicMatcher::with_dictionary(&ctx, &pats).unwrap();
        let a = st.match_text(&ctx, &text);
        let b = dy.match_text(&ctx, &text);
        assert_eq!(a.longest_pattern, b.longest_pattern, "s{seed}");
        assert_eq!(a.prefix_len, b.prefix_len, "s{seed} prefix lens");
    }
}

#[test]
fn dynamic_after_churn_equals_static_of_live_set() {
    // Insert everything, delete a subset (triggering rebuilds), and compare
    // against a fresh static matcher over exactly the live patterns.
    let ctx = Ctx::seq();
    let mut r = strings::rng(77);
    let mut text = strings::random_text(&mut r, Alphabet::Dna, 700);
    let pats = strings::excerpt_dictionary(&mut r, &text, 24, 2, 30);
    strings::plant_occurrences(&mut r, &mut text, &pats, 20);

    let mut dy = DynamicMatcher::new();
    for p in &pats {
        dy.insert(&ctx, p).unwrap();
    }
    // Delete every other pattern.
    let mut live: Vec<Vec<u32>> = Vec::new();
    for (i, p) in pats.iter().enumerate() {
        if i % 2 == 0 {
            dy.delete(&ctx, p).unwrap();
        } else {
            live.push(p.clone());
        }
    }
    let st = StaticMatcher::build(&ctx, &live).unwrap();
    let a = dy.match_text(&ctx, &text);
    let b = st.match_text(&ctx, &text);
    // Ids differ (dynamic keeps original ids), so compare by pattern content.
    for i in 0..text.len() {
        let da = a.longest_pattern[i].map(|p| pats[p as usize].clone());
        let db = b.longest_pattern[i].map(|p| live[p as usize].clone());
        assert_eq!(da, db, "position {i}");
        assert_eq!(a.prefix_len[i], b.prefix_len[i], "prefix len at {i}");
    }
}

#[test]
fn small_alpha_matches_static_across_l_values() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(5);
    let mut text = strings::random_text(&mut r, Alphabet::Binary, 500);
    let pats = strings::excerpt_dictionary(&mut r, &text, 10, 1, 24);
    strings::plant_occurrences(&mut r, &mut text, &pats, 15);
    let st = StaticMatcher::build(&ctx, &pats).unwrap();
    let want = as_usize(&st.match_text(&ctx, &text).longest_pattern);
    for l in 1..=6 {
        let sa = SmallAlphaMatcher::build_with_l(&ctx, &pats, 2, l).unwrap();
        let got = as_usize(&sa.match_text(&ctx, &text).longest_pattern);
        assert_eq!(got, want, "L={l}");
    }
}

#[test]
fn parallel_and_sequential_outputs_identical_everywhere() {
    let mut r = strings::rng(31);
    let mut text = strings::random_text(&mut r, Alphabet::Letters, 4000);
    let pats = strings::excerpt_dictionary(&mut r, &text, 30, 2, 64);
    strings::plant_occurrences(&mut r, &mut text, &pats, 50);

    let seq = Ctx::seq();
    let par = Ctx::par();
    let st = StaticMatcher::build(&seq, &pats).unwrap();
    assert_eq!(
        st.match_text(&seq, &text).longest_pattern,
        st.match_text(&par, &text).longest_pattern
    );
    // Matchers built under different policies also agree.
    let st_par = StaticMatcher::build(&par, &pats).unwrap();
    assert_eq!(
        st.match_text(&seq, &text).longest_pattern,
        st_par.match_text(&par, &text).longest_pattern
    );
}

/// Every `(start, pattern)` occurrence, sorted, from the baseline.
fn ac_all(pats: &[Vec<u32>], text: &[u32]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = AhoCorasick::new(pats)
        .find_all(text)
        .into_iter()
        .map(|o| (o.start, o.pat))
        .collect();
    v.sort_unstable();
    v
}

fn as_pairs(v: Vec<(usize, PatId)>) -> Vec<(usize, usize)> {
    v.into_iter().map(|(i, p)| (i, p as usize)).collect()
}

/// All-matches output of the three serving paths — a built
/// `StaticMatcher`, the frozen dynamic epoch an incremental `DictStore`
/// commit publishes, and a `StreamMatcher` fed 4 KiB chunks — against
/// Aho–Corasick on the textgen genome and log workloads.
#[test]
fn serving_paths_find_all_agree_with_aho_corasick() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(91);
    let workloads = [
        ("genome", corpus::genome_default(&mut r, 60_000)),
        ("log", corpus::log_lines(&mut r, 60_000, 48)),
    ];
    for (tag, text) in &workloads {
        let pats = strings::excerpt_dictionary(&mut r, text, 400, 8, 32);

        let st = StaticMatcher::build(&ctx, &pats).unwrap();
        let want = ac_all(&pats, text);
        assert!(!want.is_empty(), "{tag}: excerpts occur");
        assert_eq!(as_pairs(st.find_all(&ctx, text)), want, "{tag}: static");

        // Commit most of the dictionary, then a batch: like every commit,
        // it publishes a freeze of the store's dynamic matcher.
        let mut store = DictStore::in_memory();
        let (bulk, late) = pats.split_at(pats.len() - 20);
        for p in bulk {
            store.stage_add(p).unwrap();
        }
        store.commit(&ctx).unwrap();
        for p in late {
            store.stage_add(p).unwrap();
        }
        for p in &bulk[..10] {
            store.stage_remove(p).unwrap();
        }
        let outcome = store.commit(&ctx).unwrap();
        assert_eq!(outcome.path, SnapshotPath::Incremental, "{tag}");
        let snap = &outcome.snapshot;
        let live = snap
            .patterns()
            .expect("a committed epoch keeps its patterns");
        assert_eq!(
            as_pairs(snap.find_all(&ctx, text)),
            ac_all(live, text),
            "{tag}: incremental epoch"
        );

        let mut cursor = StreamMatcher::new(Arc::new(st));
        let mut streamed: Vec<(usize, usize)> = text
            .chunks(4096)
            .flat_map(|chunk| cursor.push(&ctx, chunk))
            .map(|m| (m.start as usize, m.pat as usize))
            .collect();
        streamed.sort_unstable();
        assert_eq!(streamed, want, "{tag}: stream");
    }
}
