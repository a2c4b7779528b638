//! Property-based tests (proptest) for the core invariants of the paper's
//! machinery: naming injectivity, prefix-name identification, the
//! match-preserving property of shrink-and-spawn, and matcher-vs-oracle
//! equivalence on arbitrary inputs.

use pdm::baselines::naive;
use pdm::naming::prefix::dyadic_names;
use pdm::naming::{NamePool, NameTable};
use pdm::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

fn tables(levels: usize) -> (NameTable, Vec<NameTable>, NameTable) {
    let pool = NamePool::dictionary();
    let sym = NameTable::with_capacity(1 << 12, pool.clone());
    let pair = (0..levels)
        .map(|_| NameTable::with_capacity(1 << 14, pool.clone()))
        .collect();
    let fold = NameTable::with_capacity(1 << 14, pool.clone());
    (sym, pair, fold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Naming (paper §3.1): names are equal iff strings are equal — over
    /// every pair of prefixes of every pair of generated strings.
    #[test]
    fn prefix_names_identify_content(
        strs in vec(vec(0u32..4, 1..40), 1..6)
    ) {
        let (sym, pair, fold) = tables(6);
        let prefs: Vec<Vec<u32>> = strs.iter().map(|s| {
            dyadic_names(
                s,
                |c| sym.name(c, 0),
                |k, a, b| pair[k - 1].name(a, b),
                |a, b| fold.name(a, b),
            ).1
        }).collect();
        for (i, a) in strs.iter().enumerate() {
            for (j, b) in strs.iter().enumerate() {
                for la in 1..=a.len() {
                    for lb in 1..=b.len() {
                        let equal_content = a[..la] == b[..lb];
                        let equal_names = prefs[i][la-1] == prefs[j][lb-1];
                        prop_assert_eq!(equal_content, equal_names,
                            "strings {} and {}, prefixes {} and {}", i, j, la, lb);
                    }
                }
            }
        }
    }

    /// Shrink-and-spawn is match-preserving (paper §3.1): occurrences of V
    /// in U at offset r correspond exactly to occurrences of the shrunk V
    /// in the r-mod-l spawned copy of U.
    #[test]
    fn shrink_and_spawn_preserves_matches(
        u in vec(0u32..3, 4..80),
        v_len in 2usize..10,
        l in 2usize..4,
        seed in 0u32..100,
    ) {
        // Derive V from U half the time so matches actually occur.
        let v: Vec<u32> = if seed % 2 == 0 && u.len() > v_len {
            let at = (seed as usize * 7) % (u.len() - v_len);
            u[at..at+v_len].to_vec()
        } else {
            (0..v_len).map(|i| (seed + i as u32) % 3).collect()
        };
        prop_assume!(v.len() >= l);
        let pool = NamePool::dictionary();
        let t = NameTable::with_capacity(1 << 12, pool);
        // Name every length-l block of both strings with one function δ.
        let name_block = |s: &[u32], at: usize| t.name_tuple(&s[at..at+l]);
        // Shrunk V: non-overlapping blocks (residue ignored per the paper).
        let vb = v.len() / l;
        let v_shrunk: Vec<u32> = (0..vb).map(|b| name_block(&v, b*l)).collect();
        // Spawned copies of U: copy r holds names at r, r+l, r+2l, ...
        let spawn = |r: usize| -> Vec<u32> {
            let mut c = Vec::new();
            let mut i = r;
            while i + l <= u.len() { c.push(name_block(&u, i)); i += l; }
            c
        };
        // Check: V's first vb·l symbols match U at position p  ⇔  the
        // shrunk V matches copy (p mod l) at index p/l.
        for p in 0..u.len() {
            let direct = p + vb*l <= u.len() && u[p..p+vb*l] == v[..vb*l];
            let copy = spawn(p % l);
            let idx = p / l;
            let reduced = idx + v_shrunk.len() <= copy.len()
                && copy[idx..idx+v_shrunk.len()] == v_shrunk[..];
            prop_assert_eq!(direct, reduced, "position {}", p);
        }
    }

    /// The static matcher equals the brute-force oracle on arbitrary
    /// dictionaries and texts (the headline correctness property).
    #[test]
    fn static_matcher_equals_oracle(
        pats in vec(vec(0u32..3, 1..12), 1..8),
        text in vec(0u32..3, 0..120),
    ) {
        // Deduplicate (the dictionary must be a set).
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &uniq).unwrap();
        let out = m.match_text(&ctx, &text);
        let want = naive::longest_pattern_per_position(&uniq, &text);
        let got: Vec<Option<usize>> = out.longest_pattern.iter()
            .map(|o| o.map(|p| p as usize)).collect();
        prop_assert_eq!(got, want);
        // Phase 1 also equals its oracle.
        let want_pref = naive::longest_prefix_per_position(&uniq, &text);
        let got_pref: Vec<usize> = out.prefix_len.iter().map(|&l| l as usize).collect();
        prop_assert_eq!(got_pref, want_pref);
    }

    /// Dynamic insert/delete sequences preserve oracle equality at every
    /// prefix of the trace.
    #[test]
    fn dynamic_trace_equals_oracle(
        ops in vec((vec(0u32..2, 1..8), any::<bool>()), 1..20),
        text in vec(0u32..2, 0..60),
    ) {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let mut live: Vec<(PatId, Vec<u32>)> = Vec::new();
        for (pat, is_insert) in ops {
            if is_insert {
                if let Ok(id) = d.insert(&ctx, &pat) {
                    live.push((id, pat)); // Err = duplicate — fine
                }
            } else if let Some(pos) = live.iter().position(|(_, p)| *p == pat) {
                let (id, p) = live.remove(pos);
                prop_assert_eq!(d.delete(&ctx, &p), Ok(id));
            }
            let got = d.match_text(&ctx, &text);
            for i in 0..text.len() {
                let want = live.iter()
                    .filter(|(_, p)| i + p.len() <= text.len() && text[i..i+p.len()] == p[..])
                    .max_by_key(|(_, p)| p.len())
                    .map(|(id, _)| *id);
                prop_assert_eq!(got.longest_pattern[i], want, "pos {}", i);
            }
        }
    }

    /// Theorem 11 matcher equals the oracle on arbitrary equal-length
    /// dictionaries (exercising every residue class and recursion depth).
    #[test]
    fn equal_len_matcher_equals_oracle(
        m in 1usize..20,
        kappa in 1usize..5,
        text in vec(0u32..3, 0..100),
        seed in any::<u64>(),
    ) {
        // Derive patterns from a seeded generator (distinct, equal length).
        let mut r = pdm::textgen::strings::rng(seed);
        use rand::Rng;
        let mut pats: Vec<Vec<u32>> = Vec::new();
        let mut guard = 0;
        while pats.len() < kappa && guard < 200 {
            guard += 1;
            let p: Vec<u32> = (0..m).map(|_| r.gen_range(0..3u32)).collect();
            if !pats.contains(&p) {
                pats.push(p);
            }
        }
        let matcher = pdm::core::equal_len::EqualLenMatcher::new(&pats).unwrap();
        let ctx = Ctx::seq();
        let got: Vec<Option<usize>> = matcher
            .match_text(&ctx, &text)
            .into_iter()
            .map(|o| o.map(|p| p as usize))
            .collect();
        let want = naive::longest_pattern_per_position(&pats, &text);
        prop_assert_eq!(got, want);
    }

    /// The §4.4 matcher equals the §4 matcher for every valid L.
    #[test]
    fn smallalpha_equals_base_for_all_l(
        pats in vec(vec(0u32..2, 1..10), 1..5),
        text in vec(0u32..2, 0..80),
        l in 1usize..6,
    ) {
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        let ctx = Ctx::seq();
        let base = StaticMatcher::build(&ctx, &uniq).unwrap();
        let want = base.match_text(&ctx, &text).longest_pattern;
        let sa = pdm::core::smallalpha::SmallAlphaMatcher::build_with_l(&ctx, &uniq, 2, l).unwrap();
        let got = sa.match_text(&ctx, &text).longest_pattern;
        prop_assert_eq!(got, want);
    }

    /// 2-D matcher equals the naive oracle on arbitrary small grids.
    #[test]
    fn dict2d_equals_oracle(
        t_rows in 1usize..12,
        t_cols in 1usize..12,
        sides in vec(1usize..5, 1..4),
        seed in any::<u64>(),
    ) {
        use pdm::core::dict2d::{Dict2DMatcher, Grid2};
        let mut r = pdm::textgen::strings::rng(seed);
        use rand::Rng;
        let text = Grid2::from_fn(t_rows, t_cols, |_, _| r.gen_range(0..2u32));
        let mut pats: Vec<Grid2> = Vec::new();
        for s in sides {
            let g = Grid2::from_fn(s, s, |_, _| r.gen_range(0..2u32));
            if !pats.iter().any(|p| p.data == g.data) {
                pats.push(g);
            }
        }
        let ctx = Ctx::seq();
        let m = Dict2DMatcher::build(&ctx, &pats).unwrap();
        let got: Vec<Option<usize>> = m
            .match_grid(&ctx, &text)
            .largest_pattern
            .into_iter()
            .map(|o| o.map(|p| p as usize))
            .collect();
        let n_pats: Vec<naive::Grid> = pats
            .iter()
            .map(|g| naive::Grid::new(g.rows, g.cols, g.data.clone()))
            .collect();
        let n_text = naive::Grid::new(text.rows, text.cols, text.data.clone());
        let want = naive::largest_square_pattern_per_cell(&n_pats, &n_text);
        prop_assert_eq!(got, want);
    }

    /// Output structural invariants that hold for any input.
    #[test]
    fn match_output_invariants(
        pats in vec(vec(0u32..5, 1..10), 1..6),
        text in vec(0u32..5, 0..80),
    ) {
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &uniq).unwrap();
        let out = m.match_text(&ctx, &text);
        for i in 0..text.len() {
            // The matched prefix really matches.
            let pl = out.prefix_len[i] as usize;
            prop_assert!(i + pl <= text.len());
            if pl > 0 {
                let owner = out.prefix_owner[i].expect("owner for matched prefix") as usize;
                prop_assert!(uniq[owner].len() >= pl);
                prop_assert_eq!(&uniq[owner][..pl], &text[i..i+pl]);
            }
            // Longest pattern is consistent with the prefix.
            if let Some(p) = out.longest_pattern[i] {
                let plen = out.longest_pattern_len[i] as usize;
                prop_assert_eq!(uniq[p as usize].len(), plen);
                prop_assert!(plen <= pl);
                prop_assert_eq!(&uniq[p as usize][..], &text[i..i+plen]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A `pdm build` index — the v2 sidecar — round-trips to a
    /// behaviourally identical matcher with the same pattern texts.
    #[test]
    fn index_serialization_roundtrip(
        pats in vec(vec(0u32..4, 1..10), 1..6),
        text in vec(0u32..4, 0..60),
    ) {
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &uniq).unwrap();
        let bytes = pdm_dict::Snapshot::build_static(&ctx, 0, uniq.clone())
            .unwrap()
            .to_sidecar_bytes()
            .unwrap();
        let snap = pdm_dict::Snapshot::from_bytes(&ctx, &bytes).unwrap();
        prop_assert_eq!(snap.patterns(), Some(&uniq[..]));
        let loaded = snap.matcher().unwrap();
        prop_assert_eq!(m.match_text(&ctx, &text), loaded.match_text(&ctx, &text));
        prop_assert_eq!(m.find_all(&ctx, &text), loaded.find_all(&ctx, &text));
    }

    /// Chunked matching equals whole-text matching for any chunk size.
    #[test]
    fn chunked_equals_whole(
        pats in vec(vec(0u32..3, 1..8), 1..5),
        text in vec(0u32..3, 0..90),
        chunk in 1usize..100,
    ) {
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &uniq).unwrap();
        prop_assert_eq!(
            m.match_text_chunked(&ctx, &text, chunk),
            m.match_text(&ctx, &text)
        );
    }
}
