//! Suffix-array construction by induced sorting (SA-IS), and an `O(n)`
//! suffix-array checker.
//!
//! SA-IS (Nong, Zhang and Chan, 2009) classifies every suffix as S-type
//! (smaller than the suffix after it) or L-type (larger). An LMS position
//! is an S-type suffix directly after an L-type one. Once the LMS suffixes
//! are in order, two linear scans place every other suffix: a left-to-right
//! scan *induces* each L-type suffix from its successor's slot, and a
//! right-to-left scan induces the S-type ones. Sorting the LMS suffixes is
//! the same problem at most half the size: induce once from the LMS
//! positions in text order, which sorts the LMS *substrings*; name them in
//! that order; and if two names collide, recurse on the reduced string of
//! names. Every level is a constant number of linear passes over a string
//! at most half as long as its parent's, so the whole build is `O(n)` work.
//!
//! The `u32` alphabet is first remapped to dense ranks `1..=σ`, in symbol
//! order, and a sentinel `0` is appended. Being the unique smallest
//! symbol, the sentinel makes a suffix that is a prefix of another sort
//! first, which is the suffix order the queries assume. Its own slot,
//! `sa[0] = n`, is dropped from the result. When `σ < 256` the remapped
//! string holds one byte per symbol, which keeps the random reads of the
//! top level, the most expensive one, in a quarter of the memory.
//!
//! SA-IS is sequential: each scan reads slots that the same scan has just
//! written. The build therefore ignores the pool width of its [`Ctx`] and
//! charges the cost model one round per operation (`rounds == work`) for
//! each linear pass, which is what it does. DESIGN.md §12 records why
//! linear work was chosen over a parallel, polylogarithmic-depth build.

use pdm_pram::Ctx;

/// An unfilled slot while suffixes are induced.
const EMPTY: u32 = u32::MAX;

/// Build the suffix array of `text`: `sa[r]` is the start of the `r`-th
/// smallest suffix. Shorter suffixes that are prefixes of longer ones sort
/// first.
///
/// # Panics
///
/// If `text.len() >= u32::MAX`: positions, plus the sentinel and the empty
/// marker, must fit a `u32`.
pub fn build_suffix_array(ctx: &Ctx, text: &[u32]) -> Vec<u32> {
    let n = text.len();
    assert!(
        n < EMPTY as usize,
        "corpus of {n} symbols exceeds u32 positions"
    );
    if n == 0 {
        return Vec::new();
    }
    let (ranks, sigma) = DenseRanks::of(ctx, text);
    charge_pass(ctx, n);
    let mut sa = vec![0u32; n + 1];
    if sigma < 256 {
        let s: Vec<u8> = text
            .iter()
            .map(|&c| ranks.get(c) as u8)
            .chain([0])
            .collect();
        sais(ctx, &s, &mut sa, sigma + 1);
    } else {
        let s: Vec<u32> = text.iter().map(|&c| ranks.get(c)).chain([0]).collect();
        sais(ctx, &s, &mut sa, sigma + 1);
    }
    debug_assert_eq!(sa[0] as usize, n, "the sentinel suffix sorts first");
    sa.remove(0);
    sa
}

/// Check in `O(n)` time that `sa` is the suffix array of `text`, with the
/// adjacent-pair test of Burkhardt and Kärkkäinen: given that `sa` is a
/// permutation of `0..n`, it is the suffix array exactly when each
/// `(text[sa[r−1]], rank[sa[r−1]+1]) < (text[sa[r]], rank[sa[r]+1])`,
/// where `rank` inverts `sa` and the empty suffix ranks lowest.
///
/// On failure returns the rank of the first entry found wrong: one that is
/// out of range or repeated, one that is out of order with its
/// predecessor, or `min(sa.len(), text.len())` when the lengths differ or
/// the text is longer than [`build_suffix_array`] accepts.
pub fn check_suffix_array(text: &[u32], sa: &[u32]) -> Result<(), usize> {
    let n = text.len();
    if sa.len() != n || n >= EMPTY as usize {
        return Err(sa.len().min(n));
    }
    // rank[i] = 1 + the rank of suffix i; rank[n] = 0 is the empty suffix,
    // and 0 also marks a position not seen yet.
    let mut rank = vec![0u32; n + 1];
    for (r, &p) in sa.iter().enumerate() {
        let p = p as usize;
        if p >= n || rank[p] != 0 {
            return Err(r);
        }
        rank[p] = r as u32 + 1;
    }
    for r in 1..n {
        let (a, b) = (sa[r - 1] as usize, sa[r] as usize);
        if (text[a], rank[a + 1]) >= (text[b], rank[b + 1]) {
            return Err(r);
        }
    }
    Ok(())
}

/// Charge one sequential pass of `len` operations: `len` rounds, `len` work.
fn charge_pass(ctx: &Ctx, len: usize) {
    ctx.cost.rounds(len as u64, len as u64);
}

/// The dense ranks `1..=σ` of a text's symbols, in symbol order; 0 is left
/// for the sentinel.
enum DenseRanks {
    /// `table[c]`, when the largest symbol is at most `max(n, 2^16)`.
    Table(Vec<u32>),
    /// The sorted distinct symbols, searched, for larger symbol values.
    Sorted(Vec<u32>),
}

impl DenseRanks {
    /// The ranks of `text`'s symbols, and `σ`.
    fn of(ctx: &Ctx, text: &[u32]) -> (Self, usize) {
        let n = text.len();
        let max = text.iter().copied().max().unwrap_or(0) as usize;
        if max <= n.max(1 << 16) {
            let mut table = vec![0u32; max + 1];
            for &c in text {
                table[c as usize] = 1;
            }
            let mut sigma = 0u32;
            for r in table.iter_mut().filter(|r| **r != 0) {
                sigma += 1;
                *r = sigma;
            }
            charge_pass(ctx, 2 * n + max + 1);
            (Self::Table(table), sigma as usize)
        } else {
            let mut sorted = text.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let sigma = sorted.len();
            // The sort, plus one binary search per symbol when mapping.
            charge_pass(ctx, 2 * n * pdm_pram::ceil_log2(n.max(2)) as usize);
            (Self::Sorted(sorted), sigma)
        }
    }

    #[inline]
    fn get(&self, c: u32) -> u32 {
        match self {
            Self::Table(table) => table[c as usize],
            Self::Sorted(sorted) => {
                let r = sorted.binary_search(&c).expect("symbol of the text");
                r as u32 + 1
            }
        }
    }
}

/// A symbol of a string being sorted: a byte for small alphabets at the
/// top level, `u32` otherwise and in every recursion.
trait Symbol: Copy + Ord {
    fn index(self) -> usize;
}

impl Symbol for u8 {
    #[inline]
    fn index(self) -> usize {
        self.into()
    }
}

impl Symbol for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// One bit per position: set for S-type suffixes.
struct Types(Vec<u64>);

impl Types {
    /// Classify every suffix of `s`, which ends in its unique smallest
    /// symbol, in one right-to-left pass.
    fn classify<T: Symbol>(s: &[T]) -> Self {
        let n = s.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        let mut s_type = true;
        bits[(n - 1) / 64] |= 1 << ((n - 1) % 64);
        for i in (0..n - 1).rev() {
            s_type = s[i] < s[i + 1] || (s[i] == s[i + 1] && s_type);
            bits[i / 64] |= u64::from(s_type) << (i % 64);
        }
        Self(bits)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 != 0
    }

    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Fill `bkt[c]` with the first slot of bucket `c`.
fn bucket_starts(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0;
    for (b, &c) in bkt.iter_mut().zip(counts) {
        *b = sum;
        sum += c;
    }
}

/// Fill `bkt[c]` with one past the last slot of bucket `c`.
fn bucket_ends(counts: &[u32], bkt: &mut [u32]) {
    let mut sum = 0;
    for (b, &c) in bkt.iter_mut().zip(counts) {
        sum += c;
        *b = sum;
    }
}

/// Left-to-right scan placing every L-type suffix after its successor.
/// `bkt` holds bucket starts. Every suffix already in `sa` is L-type or
/// LMS, so `j − 1` is L-type exactly when `s[j−1] ≥ s[j]`.
fn induce_l<T: Symbol>(s: &[T], sa: &mut [u32], bkt: &mut [u32]) {
    for i in 0..sa.len() {
        let j = sa[i];
        if j == EMPTY || j == 0 {
            continue;
        }
        let j = j as usize - 1;
        if s[j] >= s[j + 1] {
            let c = s[j].index();
            sa[bkt[c] as usize] = j as u32;
            bkt[c] += 1;
        }
    }
}

/// Right-to-left scan placing every S-type suffix before its successor.
/// `bkt` holds bucket ends.
fn induce_s<T: Symbol>(s: &[T], sa: &mut [u32], bkt: &mut [u32], t: &Types) {
    for i in (0..sa.len()).rev() {
        let j = sa[i];
        if j == EMPTY || j == 0 {
            continue;
        }
        let j = j as usize - 1;
        if t.is_s(j) {
            let c = s[j].index();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = j as u32;
        }
    }
}

/// Whether the LMS substrings starting at `a` and `b` are equal: the same
/// symbols and types up to and including the next LMS position.
fn lms_substrings_equal<T: Symbol>(s: &[T], t: &Types, a: usize, b: usize) -> bool {
    let mut d = 0;
    loop {
        if s[a + d] != s[b + d] || t.is_s(a + d) != t.is_s(b + d) {
            return false;
        }
        if d > 0 && t.is_lms(a + d) {
            return true;
        }
        d += 1;
    }
}

/// SA-IS proper: sort the suffixes of `s` into `sa` (same length). `s`
/// ends in a unique `0` and every symbol is below `k`.
fn sais<T: Symbol>(ctx: &Ctx, s: &[T], sa: &mut [u32], k: usize) {
    let n = s.len();
    let t = Types::classify(s);
    let mut counts = vec![0u32; k];
    for &c in s {
        counts[c.index()] += 1;
    }
    let mut bkt = vec![0u32; k];
    charge_pass(ctx, 2 * n + k);

    // Step 1: seed the LMS positions at their bucket ends (in any order)
    // and induce. This sorts the LMS substrings, not yet the suffixes.
    sa.fill(EMPTY);
    bucket_ends(&counts, &mut bkt);
    for (i, &c) in s.iter().enumerate().skip(1) {
        if t.is_lms(i) {
            bkt[c.index()] -= 1;
            sa[bkt[c.index()] as usize] = i as u32;
        }
    }
    bucket_starts(&counts, &mut bkt);
    induce_l(s, sa, &mut bkt);
    bucket_ends(&counts, &mut bkt);
    induce_s(s, sa, &mut bkt, &t);
    charge_pass(ctx, 3 * n);

    // Step 2: compact the sorted LMS positions into sa[..n1], name each
    // LMS substring by its rank among the distinct ones, and gather the
    // names in text order into sa[n − n1..]. LMS positions are at least
    // two apart, so slot n1 + p/2 is free and unique for each of them.
    // Each LMS substring takes part in at most two comparisons, so naming
    // reads at most 2n symbols.
    let mut n1 = 0;
    for i in 0..n {
        let p = sa[i];
        if t.is_lms(p as usize) {
            sa[n1] = p;
            n1 += 1;
        }
    }
    sa[n1..].fill(EMPTY);
    let mut names = 0u32;
    let mut prev: Option<usize> = None;
    for i in 0..n1 {
        let p = sa[i] as usize;
        if !prev.is_some_and(|q| lms_substrings_equal(s, &t, p, q)) {
            names += 1;
            prev = Some(p);
        }
        sa[n1 + p / 2] = names - 1;
    }
    let mut j = n;
    for i in (n1..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }
    charge_pass(ctx, 5 * n);

    // Sort the reduced string: by recursion while names repeat, directly
    // once they are all distinct.
    {
        let (head, s1) = sa.split_at_mut(n - n1);
        let sa1 = &mut head[..n1];
        if (names as usize) < n1 {
            sais(ctx, s1, sa1, names as usize);
        } else {
            for (i, &c) in s1.iter().enumerate() {
                sa1[c as usize] = i as u32;
            }
            charge_pass(ctx, n1);
        }
        // Map reduced ranks back to LMS positions, reusing s1 for the LMS
        // positions in text order.
        let mut j = 0;
        for i in 1..n {
            if t.is_lms(i) {
                s1[j] = i as u32;
                j += 1;
            }
        }
        for r in sa1.iter_mut() {
            *r = s1[*r as usize];
        }
    }
    charge_pass(ctx, n + n1);

    // Step 3: seed the now sorted LMS suffixes at their bucket ends, in
    // order, and induce the final suffix array. Each LMS suffix moves to a
    // slot at or after its current one, so a right-to-left pass is safe.
    sa[n1..].fill(EMPTY);
    bucket_ends(&counts, &mut bkt);
    for i in (0..n1).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = s[p as usize].index();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p;
    }
    bucket_starts(&counts, &mut bkt);
    induce_l(s, sa, &mut bkt);
    bucket_ends(&counts, &mut bkt);
    induce_s(s, sa, &mut bkt, &t);
    charge_pass(ctx, 3 * n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_textgen::{corpus, strings};
    use proptest::prelude::*;

    fn naive_sa(text: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    fn ctxs() -> Vec<Ctx> {
        vec![Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)]
    }

    #[test]
    fn matches_naive_on_classic_strings() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![5],
            vec![1, 0, 2, 0, 2, 0],    // banana
            vec![0; 17],               // aaaa…
            vec![0, 1, 0, 1, 0, 1, 0], // abababa
            (0..100).map(|i| i % 3).collect(),
            vec![2, 1, 0],
        ];
        for ctx in ctxs() {
            for t in &cases {
                assert_eq!(build_suffix_array(&ctx, t), naive_sa(t), "text {t:?}");
            }
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom_texts() {
        let mut x = 0x12345u64;
        for ctx in ctxs() {
            for (n, sigma) in [(1000usize, 2u64), (2000, 4), (1500, 256)] {
                let t: Vec<u32> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % sigma) as u32
                    })
                    .collect();
                assert_eq!(
                    build_suffix_array(&ctx, &t),
                    naive_sa(&t),
                    "n={n} σ={sigma}"
                );
            }
        }
    }

    #[test]
    fn result_is_permutation() {
        let t: Vec<u32> = (0..512).map(|i| (i * 7 % 5) as u32).collect();
        let mut sa = build_suffix_array(&Ctx::par(), &t);
        sa.sort_unstable();
        assert!(sa.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    /// Alphabet sizes for the proptest; 0 stands for the full `u32` range.
    const SIGMAS: [u32; 5] = [1, 2, 4, 256, 0];

    /// Reduce raw draws to the alphabet `SIGMAS[pick]`. The full range keeps
    /// raw values but turns half of them into 0 and `u32::MAX`, so extreme
    /// symbols repeat and the sort-and-dedup remap runs.
    fn shape(pick: usize, raw: Vec<u32>) -> Vec<u32> {
        let sigma = SIGMAS[pick];
        raw.into_iter()
            .map(|x| match (sigma, x % 4) {
                (0, 0) => 0,
                (0, 1) => u32::MAX,
                (0, _) => x,
                _ => x % sigma,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sais_equals_naive_sort(
            pick in 0..SIGMAS.len(),
            raw in proptest::collection::vec(any::<u32>(), 0..=400),
        ) {
            let text = shape(pick, raw);
            let want = naive_sa(&text);
            for ctx in ctxs() {
                prop_assert_eq!(&build_suffix_array(&ctx, &text), &want);
            }
        }
    }

    fn fibonacci_word(n: usize) -> Vec<u32> {
        let (mut a, mut b) = (vec![0u32], vec![0u32, 1]);
        while b.len() < n {
            let next = [b.as_slice(), a.as_slice()].concat();
            a = std::mem::replace(&mut b, next);
        }
        b.truncate(n);
        b
    }

    /// At 1 Mi symbols the naive sort is too slow; the checker stands in
    /// for it on the shapes that stress induced sorting: no LMS positions
    /// at all, a period-2 text, the deepest recursion (Fibonacci), a
    /// cube-free word (Thue–Morse), the two corpus generators, and an
    /// alphabet too large for the byte-wide top level.
    #[test]
    fn checker_accepts_builder_output_at_one_mebisymbol() {
        const N: usize = 1 << 20;
        let mut r = strings::rng(3);
        let texts: Vec<(&str, Vec<u32>)> = vec![
            ("one symbol", vec![7; N]),
            ("(ab)^k", (0..N as u32).map(|i| i % 2).collect()),
            ("fibonacci", fibonacci_word(N)),
            (
                "thue-morse",
                (0..N as u32).map(|i| i.count_ones() % 2).collect(),
            ),
            ("genome_default", corpus::genome_default(&mut r, N)),
            ("log_lines", corpus::log_lines(&mut r, N, 16)),
            (
                "σ = 1024",
                (0..N as u32)
                    .map(|i| i.wrapping_mul(0x9e37_79b9) >> 22)
                    .collect(),
            ),
        ];
        for (name, t) in &texts {
            let sa = build_suffix_array(&Ctx::seq(), t);
            assert_eq!(check_suffix_array(t, &sa), Ok(()), "{name}");
        }
    }

    /// Broken entries are tested through `disk::decode`; a length mismatch
    /// cannot come out of a sidecar.
    #[test]
    fn checker_rejects_length_mismatch() {
        let t: Vec<u32> = b"abracadabra".iter().map(|&b| u32::from(b)).collect();
        let sa = build_suffix_array(&Ctx::seq(), &t);
        assert_eq!(check_suffix_array(&t, &sa[1..]), Err(10));
        assert_eq!(check_suffix_array(&[], &[]), Ok(()));
    }

    #[test]
    fn cost_model_charges_rounds_equal_to_work() {
        let ctx = Ctx::with_threads(2);
        let t: Vec<u32> = (0..5000u32).map(|i| (i * i + i / 3) % 4).collect();
        build_suffix_array(&ctx, &t);
        let c = ctx.cost.snapshot();
        assert_eq!(c.rounds, c.work);
        assert!(c.work >= 10 * t.len() as u64, "{c:?}");
    }
}
