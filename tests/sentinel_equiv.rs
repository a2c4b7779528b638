//! Sentinel-naming and frozen-table equivalence (DESIGN.md §11).
//!
//! The text hot path replaces per-position text-local name allocation with
//! the single `TEXT_MISS` sentinel and probes frozen (atomics-free)
//! snapshots of the dictionary tables. Both transformations must be
//! invisible in the output: this suite checks the fast paths against the
//! retained text-local reference paths (and the naive oracle) across every
//! matcher family and at PRAM widths 1, 2, and 4, plus the zero-alloc
//! steady-state guarantee for streaming sessions.

use std::sync::Arc;

use pdm::baselines::naive;
use pdm::core::equal_len::EqualLenMatcher;
use pdm::core::smallalpha::SmallAlphaMatcher;
use pdm::core::static1d::match_text_ref;
use pdm::naming::{FrozenNameTable, NamePool, NameTable};
use pdm::prelude::*;
use pdm::textgen::{strings, Alphabet};
use proptest::collection::vec;
use proptest::prelude::*;

/// The widths the issue calls out: sequential, and pools of 2 and 4.
fn ctxs() -> Vec<Ctx> {
    vec![Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A frozen snapshot answers every lookup exactly like the concurrent
    /// table it was taken from — present pairs, absent pairs, and
    /// left-chained tuple folds alike.
    #[test]
    fn frozen_table_equals_concurrent_table(
        pairs in vec((0u32..50, 0u32..50), 0..120),
        probes in vec((0u32..60, 0u32..60), 0..60),
        tuple in vec(0u32..60, 0..6),
    ) {
        let pool = NamePool::dictionary();
        let live = NameTable::with_capacity(512, pool);
        for &(a, b) in &pairs {
            live.name(a, b);
        }
        let frozen: FrozenNameTable = live.freeze();
        for &(a, b) in pairs.iter().chain(probes.iter()) {
            prop_assert_eq!(live.lookup(a, b), frozen.lookup(a, b), "({}, {})", a, b);
        }
        prop_assert_eq!(live.lookup_tuple(&tuple), frozen.lookup_tuple(&tuple));
    }

    /// Static matcher: the sentinel text-naming fast path equals the
    /// text-local reference descent over the same frozen read tables at
    /// every width.
    #[test]
    fn static_sentinel_equals_text_local(seed in 0u64..24) {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 400);
        let pats = strings::excerpt_dictionary(&mut r, &text, 10, 1, 24);
        strings::plant_occurrences(&mut r, &mut text, &pats, 10);

        let build_ctx = Ctx::seq();
        let st = StaticMatcher::build(&build_ctx, &pats).unwrap();
        for ctx in ctxs() {
            let fast = st.match_text(&ctx, &text);
            let frozen_ref = match_text_ref(&ctx, st.tables(), &text);
            prop_assert_eq!(&fast, &frozen_ref, "frozen ref, width {}", ctx.exec.threads());
        }
    }

    /// Equal-length matcher: the per-level freeze boundary (pattern inserts
    /// precede text probes) is output-invisible at every width.
    #[test]
    fn equal_len_frozen_equals_live(seed in 0u64..16, m in 2usize..20) {
        let mut r = strings::rng(1000 + seed);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 300);
        let pats = strings::excerpt_dictionary(&mut r, &text, 6, m, m);
        strings::plant_occurrences(&mut r, &mut text, &pats, 8);

        let eq = EqualLenMatcher::new(&pats).unwrap();
        let texts = vec![text];
        for ctx in ctxs() {
            prop_assert_eq!(
                eq.match_texts(&ctx, &texts),
                eq.match_texts_ref(&ctx, &texts),
                "width {}", ctx.exec.threads()
            );
        }
    }

    /// Small-alphabet matcher (and its binary-encoded wrapper, which
    /// delegates to it): the frozen block-tuple probe equals the live one,
    /// and both agree with the oracle, at every width.
    #[test]
    fn smallalpha_frozen_equals_live(seed in 0u64..16) {
        let mut r = strings::rng(2000 + seed);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 400);
        let pats = strings::excerpt_dictionary(&mut r, &text, 8, 9, 9);
        strings::plant_occurrences(&mut r, &mut text, &pats, 10);
        let want = naive::longest_pattern_per_position(&pats, &text);

        let sa = SmallAlphaMatcher::build_with_l(&Ctx::seq(), &pats, 4, 3).unwrap();
        for ctx in ctxs() {
            let fast = sa.match_text(&ctx, &text);
            let live = sa.match_text_ref(&ctx, &text);
            prop_assert_eq!(&fast.longest_pattern, &live.longest_pattern,
                "width {}", ctx.exec.threads());
            let got: Vec<Option<usize>> = fast
                .longest_pattern
                .iter()
                .map(|o| o.map(|p| p as usize))
                .collect();
            prop_assert_eq!(&got, &want, "oracle, width {}", ctx.exec.threads());
        }
    }

    /// Dynamic matcher still matches through the concurrent tables; its
    /// answers must agree with the static text-local reference, so the
    /// sentinel rewrite cannot have drifted either side.
    #[test]
    fn dynamic_agrees_with_static_reference(seed in 0u64..12) {
        let mut r = strings::rng(3000 + seed);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 300);
        let pats = strings::excerpt_dictionary(&mut r, &text, 8, 2, 20);
        strings::plant_occurrences(&mut r, &mut text, &pats, 8);

        let st = StaticMatcher::build(&Ctx::seq(), &pats).unwrap();
        let dy = DynamicMatcher::with_dictionary(&Ctx::seq(), &pats).unwrap();
        for ctx in ctxs() {
            let dyn_out = dy.match_text(&ctx, &text);
            let ref_out = match_text_ref(&ctx, st.tables(), &text);
            prop_assert_eq!(&dyn_out.longest_pattern, &ref_out.longest_pattern,
                "width {}", ctx.exec.threads());
        }
    }
}

#[test]
fn binary_encoded_frozen_path_matches_oracle() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(42);
    let mut text = strings::random_text(&mut r, Alphabet::Letters, 500);
    let pats = strings::excerpt_dictionary(&mut r, &text, 8, 12, 12);
    strings::plant_occurrences(&mut r, &mut text, &pats, 12);
    let want = naive::longest_pattern_per_position(&pats, &text);

    let m = BinaryEncodedMatcher::build(&ctx, &pats, 26).unwrap();
    for ctx in ctxs() {
        let got: Vec<Option<usize>> = m
            .match_text(&ctx, &text)
            .longest_pattern
            .iter()
            .map(|o| o.map(|p| p as usize))
            .collect();
        assert_eq!(got, want, "width {}", ctx.exec.threads());
    }
}

/// The tentpole's steady-state guarantee: once a streaming session is warm
/// (its scratch has grown to the working-set size), further same-sized
/// pushes perform **zero** heap allocation in the match path — observed
/// through the scratch grow counter and the matcher's alloc-event counter.
#[test]
fn streaming_steady_state_allocates_nothing() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(7);
    let mut text = strings::random_text(&mut r, Alphabet::Letters, 16 << 10);
    let pats = strings::excerpt_dictionary(&mut r, &text, 16, 2, 32);
    strings::plant_occurrences(&mut r, &mut text, &pats, 400);

    let m = Arc::new(StaticMatcher::build(&ctx, &pats).unwrap());
    let mut s = StreamMatcher::new(Arc::clone(&m));

    const CHUNK: usize = 1 << 10;
    let chunks: Vec<&[Sym]> = text.chunks(CHUNK).collect();

    // Warm-up: the first pushes must grow the scratch (it starts empty).
    let mut total = 0usize;
    for c in &chunks[..4] {
        total += s.push(&ctx, c).len();
    }
    assert!(s.scratch_grow_events() > 0, "warm-up must grow the scratch");

    // Steady state: counters freeze while matches keep flowing.
    let grows = s.scratch_grow_events();
    let allocs = m.stats().alloc_events;
    for c in &chunks[4..14] {
        total += s.push(&ctx, c).len();
    }
    assert!(total > 0, "workload must actually produce matches");
    assert_eq!(
        s.scratch_grow_events(),
        grows,
        "steady-state pushes must not grow session scratch"
    );
    assert_eq!(
        m.stats().alloc_events,
        allocs,
        "steady-state pushes must not allocate in the matcher"
    );
}

/// Same guarantee through the versioned-dictionary serving path: a
/// [`pdm_dict::Snapshot`]-backed stream session reuses its scratch too.
#[test]
fn snapshot_streaming_steady_state_allocates_nothing() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(11);
    let mut text = strings::random_text(&mut r, Alphabet::Dna, 8 << 10);
    let pats = strings::excerpt_dictionary(&mut r, &text, 10, 2, 24);
    strings::plant_occurrences(&mut r, &mut text, &pats, 200);

    let snap = Arc::new(pdm_dict::Snapshot::build_static(&ctx, 0, pats).unwrap());
    let mut s: StreamMatcher<pdm_dict::Snapshot> = StreamMatcher::new(snap);

    const CHUNK: usize = 512;
    let chunks: Vec<&[Sym]> = text.chunks(CHUNK).collect();
    let mut total = 0usize;
    for c in &chunks[..4] {
        total += s.push(&ctx, c).len();
    }
    let grows = s.scratch_grow_events();
    for c in &chunks[4..12] {
        total += s.push(&ctx, c).len();
    }
    assert!(total > 0);
    assert_eq!(
        s.scratch_grow_events(),
        grows,
        "snapshot-backed steady state must not grow session scratch"
    );
}
