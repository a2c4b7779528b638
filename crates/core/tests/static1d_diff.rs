//! Differential tests: the §4 static matcher against the Aho–Corasick and
//! naive oracles, across workload shapes, alphabets and execution policies.

use pdm_baselines::{naive, AhoCorasick};
use pdm_core::dict::symbolize;
use pdm_core::prefilter::PrefilterDecision;
use pdm_core::scratch::TextScratch;
use pdm_core::static1d::{MatchOutput, StaticMatcher, PREFETCH_DISTANCE};
use pdm_pram::{CostModel, Ctx};
use pdm_textgen::Alphabet;
use pdm_textgen::{corpus, strings};
use std::sync::Arc;

fn check_instance(ctx: &Ctx, patterns: &[Vec<u32>], text: &[u32], tag: &str) {
    let matcher = StaticMatcher::build(ctx, patterns).expect("build");
    let out = matcher.match_text(ctx, text);
    assert_eq!(
        out.longest_pattern.len(),
        text.len(),
        "{tag}: output length"
    );

    // Oracle 1: longest prefix per position (phase 1 / Theorem 1).
    let ac = AhoCorasick::new(patterns);
    let want_prefix = ac.longest_prefix_per_position(text);
    let got_prefix: Vec<usize> = out.prefix_len.iter().map(|&l| l as usize).collect();
    assert_eq!(got_prefix, want_prefix, "{tag}: longest prefix lengths");

    // Oracle 2: longest pattern per position (Theorem 3 output).
    let want_pat = naive::longest_pattern_per_position(patterns, text);
    let got_pat: Vec<Option<usize>> = out
        .longest_pattern
        .iter()
        .map(|p| p.map(|x| x as usize))
        .collect();
    assert_eq!(got_pat, want_pat, "{tag}: longest pattern per position");

    // Internal consistency: pattern length matches the dictionary.
    for (i, p) in out.longest_pattern.iter().enumerate() {
        if let Some(pid) = p {
            assert_eq!(
                out.longest_pattern_len[i] as usize,
                patterns[*pid as usize].len(),
                "{tag}: length field"
            );
            // The longest pattern cannot exceed the longest prefix.
            assert!(out.longest_pattern_len[i] <= out.prefix_len[i], "{tag}");
        } else {
            assert_eq!(out.longest_pattern_len[i], 0, "{tag}");
        }
        // Owner must be a pattern having the matched prefix.
        if out.prefix_len[i] > 0 {
            let owner = out.prefix_owner[i].expect("matched prefixes have owners") as usize;
            let plen = out.prefix_len[i] as usize;
            assert!(
                patterns[owner].len() >= plen && patterns[owner][..plen] == text[i..i + plen],
                "{tag}: owner pattern carries the prefix"
            );
        }
    }
}

#[test]
fn handcrafted_classic() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["he", "she", "his", "hers"]);
    let text: Vec<u32> = "ushers and shehis".bytes().map(u32::from).collect();
    check_instance(&ctx, &pats, &text, "classic");
}

#[test]
fn single_pattern_single_char() {
    let ctx = Ctx::seq();
    check_instance(&ctx, &symbolize(&["a"]), &[97, 98, 97], "1x1");
}

#[test]
fn pattern_equals_text() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["abcde"]);
    check_instance(&ctx, &pats, &pdm_core::dict::to_symbols("abcde"), "eq");
}

#[test]
fn text_shorter_than_patterns() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["abcdefgh", "abcd"]);
    check_instance(
        &ctx,
        &pats,
        &pdm_core::dict::to_symbols("abc"),
        "short-text",
    );
}

#[test]
fn nested_patterns() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["a", "ab", "abc", "abcd", "abcde"]);
    let text = pdm_core::dict::to_symbols("abcdeabcxab");
    check_instance(&ctx, &pats, &text, "nested");
}

#[test]
fn periodic_adversarial() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["ababab", "abab", "bab", "aa"]);
    let text = pdm_core::dict::to_symbols(&"ab".repeat(40));
    check_instance(&ctx, &pats, &text, "periodic");
}

#[test]
fn unary_alphabet_extreme() {
    let ctx = Ctx::seq();
    // All-equal symbols: every prefix of every length matches everywhere.
    let pats: Vec<Vec<u32>> = vec![vec![7; 5], vec![7; 9], vec![7; 2]];
    let text = vec![7u32; 30];
    check_instance(&ctx, &pats, &text, "unary");
}

#[test]
fn symbols_absent_from_dictionary() {
    let ctx = Ctx::seq();
    let pats = symbolize(&["xy"]);
    let text: Vec<u32> = vec![1000, 2000, 120, 121, 3000]; // "xy" at 2
    check_instance(&ctx, &pats, &text, "unknown-syms");
}

#[test]
fn randomized_small_alphabet_many_seeds() {
    let ctx = Ctx::seq();
    for seed in 0..30 {
        let mut r = strings::rng(seed);
        let pats = strings::random_dictionary(&mut r, Alphabet::Binary, 8, 1, 10);
        let mut text = strings::random_text(&mut r, Alphabet::Binary, 200);
        strings::plant_occurrences(&mut r, &mut text, &pats, 10);
        check_instance(&ctx, &pats, &text, &format!("bin-{seed}"));
    }
}

#[test]
fn randomized_byte_alphabet_with_excerpts() {
    let ctx = Ctx::seq();
    for seed in 100..115 {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 500);
        let pats = strings::excerpt_dictionary(&mut r, &text, 12, 2, 33);
        strings::plant_occurrences(&mut r, &mut text, &pats, 20);
        check_instance(&ctx, &pats, &text, &format!("excerpt-{seed}"));
    }
}

#[test]
fn randomized_shared_prefix_dictionaries() {
    let ctx = Ctx::seq();
    for seed in 200..210 {
        let mut r = strings::rng(seed);
        let pats = strings::shared_prefix_dictionary(&mut r, Alphabet::Dna, 10, 12, 6);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 400);
        strings::plant_occurrences(&mut r, &mut text, &pats, 15);
        check_instance(&ctx, &pats, &text, &format!("shared-{seed}"));
    }
}

#[test]
fn parallel_execution_agrees() {
    for threads in [0usize, 2, 4] {
        let ctx = if threads == 0 {
            Ctx::par()
        } else {
            Ctx::with_threads(threads)
        };
        let mut r = strings::rng(42);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 3000);
        let pats = strings::excerpt_dictionary(&mut r, &text, 25, 2, 60);
        strings::plant_occurrences(&mut r, &mut text, &pats, 40);
        check_instance(&ctx, &pats, &text, &format!("par-{threads}"));
    }
}

#[test]
fn non_power_of_two_lengths() {
    let ctx = Ctx::seq();
    // Lengths straddling powers of two stress residue handling.
    let pats = symbolize(&["abc", "abcdefg", "abcdefghijklm", "xyzzy"]);
    let mut text = pdm_core::dict::to_symbols("abcdefghijklmnop");
    text.extend(pdm_core::dict::to_symbols("xyzzyabcdefg"));
    check_instance(&ctx, &pats, &text, "npot");
}

#[test]
fn empty_text() {
    let ctx = Ctx::seq();
    let m = StaticMatcher::build(&ctx, &symbolize(&["ab"])).unwrap();
    let out = m.match_text(&ctx, &[]);
    assert!(out.longest_pattern.is_empty());
    assert!(out.prefix_len.is_empty());
}

#[test]
fn match_is_repeatable_on_same_matcher() {
    // Text-local name allocation must not leak state between match calls.
    let ctx = Ctx::seq();
    let pats = symbolize(&["ab", "ba"]);
    let m = StaticMatcher::build(&ctx, &pats).unwrap();
    let text = pdm_core::dict::to_symbols("abbaabba");
    let a = m.match_text(&ctx, &text);
    let b = m.match_text(&ctx, &text);
    assert_eq!(a, b);
}

/// `find_all` against Aho–Corasick at every width (`Ctx::seq`,
/// `with_threads(1|2|4)`) on texts of 1, `D − 1`, `D` and `D + 1` symbols
/// (`D` = [`PREFETCH_DISTANCE`]) and 4,127 (a served 4 KiB chunk plus its
/// 31-symbol carry). The dictionaries: small DNA excerpt sets; one with a
/// 2,000-symbol pattern, whose overlap keeps 4,127 symbols on the pooled
/// per-level rounds rather than the chunk-grained split; and a
/// `genome_default` excerpt set whose `ext[0]` and `ext[1]` key arrays are
/// large enough that their levels prefetch. `find_all_into` must also
/// charge the same table lookups and `CostModel` phases as `match_into`.
#[test]
fn find_all_agrees_with_aho_corasick() {
    let d = PREFETCH_DISTANCE;
    let lens = [1, d - 1, d, d + 1, 4127];
    let ctxs = [
        Ctx::seq(),
        Ctx::with_threads(1),
        Ctx::with_threads(2),
        Ctx::with_threads(4),
    ];
    // (tag, patterns, texts)
    let mut cases = Vec::new();
    for seed in 300..306 {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 300);
        let pats = strings::excerpt_dictionary(&mut r, &text, 8, 1, 12);
        strings::plant_occurrences(&mut r, &mut text, &pats, 10);
        let mut long = strings::random_text(&mut r, Alphabet::Dna, 4127);
        strings::plant_occurrences(&mut r, &mut long, &pats, 100);
        let mut texts = vec![text];
        texts.extend(lens.iter().map(|&n| long[..n].to_vec()));
        cases.push((format!("seed {seed}"), pats, texts));
    }
    {
        let mut r = strings::rng(306);
        let mut long = strings::random_text(&mut r, Alphabet::Dna, 4127);
        let mut pats = strings::excerpt_dictionary(&mut r, &long, 12, 2, 20);
        strings::plant_occurrences(&mut r, &mut long, &pats, 100);
        pats.push(long[1000..3000].to_vec());
        let texts: Vec<Vec<u32>> = lens.iter().map(|&n| long[..n].to_vec()).collect();
        cases.push(("long pattern".to_string(), pats, texts));
    }
    let mut r = strings::rng(307);
    let genome = corpus::genome_default(&mut r, 400_000);
    let genome_pats = strings::excerpt_dictionary(&mut r, &genome, 20_000, 12, 32);
    let from = 123_457;
    let texts = lens
        .iter()
        .map(|&n| genome[from..from + n].to_vec())
        .collect();
    cases.push(("genome".to_string(), genome_pats, texts));

    for (tag, pats, texts) in &cases {
        let m = StaticMatcher::build(&Ctx::seq(), pats).unwrap();
        assert!(
            matches!(m.prefilter_decision(), PrefilterDecision::Disabled(_)),
            "{tag}: DNA dictionaries decline the prefilter, so find_all runs the unfiltered path"
        );
        if tag == "genome" {
            for k in 0..2 {
                assert!(m.tables().read.ext[k].raw().prefetch_pays(), "ext[{k}]");
            }
        }
        let ac = AhoCorasick::new(pats);
        for text in texts {
            let mut want: Vec<(usize, usize)> = ac
                .find_all(text)
                .into_iter()
                .map(|o| (o.start, o.pat))
                .collect();
            want.sort();
            for ctx in &ctxs {
                let at = format!("{tag}, n {}, {:?}", text.len(), ctx.exec);
                let got: Vec<(usize, usize)> = m
                    .find_all(ctx, text)
                    .into_iter()
                    .map(|(i, p)| (i, p as usize))
                    .collect();
                assert_eq!(got, want, "{at}");

                let fresh = || Ctx {
                    exec: ctx.exec.clone(),
                    cost: Arc::new(CostModel::new()),
                };
                let (fa, mi) = (fresh(), fresh());
                let (mut fa_scratch, mut mi_scratch) = (TextScratch::new(), TextScratch::new());
                m.find_all_into(&fa, text, &mut fa_scratch, &mut Vec::new());
                m.match_into(&mi, text, &mut mi_scratch, &mut MatchOutput::empty());
                assert_eq!(
                    fa_scratch.table_lookups(),
                    mi_scratch.table_lookups(),
                    "{at}: table lookups"
                );
                assert_eq!(fa.cost.phases(), mi.cost.phases(), "{at}: phases");
                assert_eq!(fa.cost.snapshot(), mi.cost.snapshot(), "{at}: rounds, work");
            }
        }
    }
}

#[test]
fn dict_stats_are_linear_in_m() {
    let ctx = Ctx::seq();
    let mut r = strings::rng(1);
    let small = strings::random_dictionary(&mut r, Alphabet::Bytes, 16, 16, 32);
    let big = strings::random_dictionary(&mut r, Alphabet::Bytes, 256, 16, 32);
    let s1 = StaticMatcher::build(&ctx, &small).unwrap().stats();
    let s2 = StaticMatcher::build(&ctx, &big).unwrap().stats();
    // ~3M entries (pairs+fold+ext) plus up to |Σ| symbol entries.
    assert!(s1.table_entry_count() <= 4 * s1.dictionary_size + 512);
    assert!(s2.table_entry_count() <= 4 * s2.dictionary_size + 512);
    // Entries scale ~linearly with M (within 2x of proportional).
    let ratio = s2.table_entry_count() as f64 / s1.table_entry_count() as f64;
    let m_ratio = s2.dictionary_size as f64 / s1.dictionary_size as f64;
    assert!(
        ratio < 2.0 * m_ratio && m_ratio < 2.0 * ratio,
        "entries {ratio} vs M {m_ratio}"
    );
}

#[test]
fn text_work_scales_with_log_m_not_m() {
    // Cost-model sanity (full validation lives in the experiment harness):
    // text work per symbol must track log2(m).
    let mut works = Vec::new();
    for &m in &[16usize, 256] {
        let ctx = Ctx::seq();
        let mut r = strings::rng(7);
        let pats = strings::random_dictionary(&mut r, Alphabet::Bytes, 8, m / 2, m);
        let text = strings::random_text(&mut r, Alphabet::Bytes, 20_000);
        let matcher = StaticMatcher::build(&ctx, &pats).unwrap();
        let before = ctx.cost.snapshot();
        let _ = matcher.match_text(&ctx, &text);
        let d = ctx.cost.snapshot().since(before);
        works.push(d.work as f64 / text.len() as f64);
    }
    let ratio = works[1] / works[0];
    // log2(256)/log2(16) = 2; allow slack for constants.
    assert!(
        (1.3..=3.0).contains(&ratio),
        "work/symbol ratio {ratio} not ~2 (works: {works:?})"
    );
}

#[test]
fn chunked_match_equals_whole_text() {
    let ctx = Ctx::seq();
    for seed in 400..406 {
        let mut r = strings::rng(seed);
        let mut text = strings::random_text(&mut r, Alphabet::Letters, 700);
        let pats = strings::excerpt_dictionary(&mut r, &text, 10, 2, 50);
        strings::plant_occurrences(&mut r, &mut text, &pats, 15);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let whole = m.match_text(&ctx, &text);
        for chunk in [1usize, 7, 64, 699, 700, 10_000] {
            let chunked = m.match_text_chunked(&ctx, &text, chunk);
            assert_eq!(chunked, whole, "seed {seed} chunk {chunk}");
        }
    }
}

#[test]
fn chunked_match_empty_text() {
    let ctx = Ctx::seq();
    let m = StaticMatcher::build(&ctx, &symbolize(&["ab"])).unwrap();
    let out = m.match_text_chunked(&ctx, &[], 16);
    assert!(out.longest_pattern.is_empty());
}
