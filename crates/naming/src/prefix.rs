//! Prefix-naming (paper §3.3, Fact 2).
//!
//! Assigns every prefix `s[0..ℓ]` a name `pref(ℓ)` such that equal prefixes
//! (of any strings in the dictionary) receive equal names. The paper runs a
//! prefix-sum with namestamping in place of addition; the subtlety is that
//! namestamping is injective but **not associative**, so the combine *shape*
//! must be a fixed function of `ℓ`. We use the dyadic left-fold:
//!
//! ```text
//! pref(ℓ) = fold(pref(ℓ − 2^k), block_k(ℓ − 2^k))      2^k = lowest set bit of ℓ
//! pref(2^k) = block_k(0), the block name itself
//! ```
//!
//! i.e. `pref(ℓ)` folds the dyadic decomposition of `[0, ℓ)` left to right.
//! [`fold_step`] decides that shape; every prefix namer in the workspace
//! calls it. Each position costs one combine (`O(len)` work per string);
//! `pref(ℓ − 2^k)` has one set bit fewer than `ℓ`, so grouping lengths by
//! popcount gives `⌈log₂ m⌉` parallel rounds — exactly Fact 2's
//! `O(log m)` time / `O(M)` work (the static build's schedule).

use crate::arena::IDENTITY;

/// One step of the dyadic left-fold: `(k, hi)` such that `pref(l)` folds
/// `pref(hi)` with the aligned level-`k` block `[hi, l)`, block number
/// `hi >> k`. `2^k` is the lowest set bit of `l` and `hi = l − 2^k`; when
/// `hi = 0`, `pref(l)` is that block's name itself. `l` must be positive.
#[inline]
pub fn fold_step(l: usize) -> (usize, usize) {
    let low = l & l.wrapping_neg();
    (low.trailing_zeros() as usize, l - low)
}

/// Aligned block names and prefix names of one string, sequentially.
///
/// `blocks[k][b]` names `s[b·2^k .. (b+1)·2^k]` for `k ≤ ⌊log₂ len⌋`
/// (level 0 names every symbol); `prefs[ℓ-1]` names `s[0..ℓ]`. Symbols,
/// block pairs at level `k` and fold steps are named through `sym`,
/// `pair(k, ..)` and `fold` — allocating callers insert, read-only callers
/// look up — so equal strings get equal names through any tables that
/// agree. `s` must be non-empty.
pub fn dyadic_names(
    s: &[u32],
    mut sym: impl FnMut(u32) -> u32,
    mut pair: impl FnMut(usize, u32, u32) -> u32,
    mut fold: impl FnMut(u32, u32) -> u32,
) -> (Vec<Vec<u32>>, Vec<u32>) {
    let len = s.len();
    let k_max = pdm_pram::floor_log2(len) as usize;
    let mut blocks: Vec<Vec<u32>> = Vec::with_capacity(k_max + 1);
    blocks.push(s.iter().map(|&c| sym(c)).collect());
    for k in 1..=k_max {
        let prev = &blocks[k - 1];
        let lvl = (0..prev.len() / 2)
            .map(|b| pair(k, prev[2 * b], prev[2 * b + 1]))
            .collect();
        blocks.push(lvl);
    }
    let mut prefs = vec![IDENTITY; len];
    for l in 1..=len {
        let (k, hi) = fold_step(l);
        let block = blocks[k][hi >> k];
        prefs[l - 1] = if hi == 0 {
            block
        } else {
            fold(prefs[hi - 1], block)
        };
    }
    (blocks, prefs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{NamePool, NameTable};

    fn setup(levels: usize) -> (NameTable, Vec<NameTable>, NameTable) {
        let pool = NamePool::dictionary();
        let sym = NameTable::with_capacity(1 << 12, pool.clone());
        let pair = (0..levels)
            .map(|_| NameTable::with_capacity(1 << 14, pool.clone()))
            .collect();
        let fold = NameTable::with_capacity(1 << 14, pool.clone());
        (sym, pair, fold)
    }

    fn names_of(
        s: &[u32],
        sym: &NameTable,
        pair: &[NameTable],
        fold: &NameTable,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        dyadic_names(
            s,
            |c| sym.name(c, 0),
            |k, a, b| pair[k - 1].name(a, b),
            |a, b| fold.name(a, b),
        )
    }

    #[test]
    fn fold_step_peels_the_lowest_block() {
        assert_eq!(fold_step(1), (0, 0));
        assert_eq!(fold_step(8), (3, 0));
        assert_eq!(fold_step(12), (2, 8));
        assert_eq!(fold_step(13), (0, 12));
        for l in 1..=1024usize {
            let (k, hi) = fold_step(l);
            assert_eq!(hi + (1 << k), l);
            assert_eq!(hi % (1 << (k + 1)), 0, "block [hi, l) is aligned");
            assert_eq!(hi.count_ones() + 1, l.count_ones());
        }
    }

    #[test]
    fn aligned_names_identify_equal_blocks() {
        let (sym, pair, fold) = setup(3);
        let (b1, _) = names_of(&[1, 2, 3, 4, 1, 2, 3, 4], &sym, &pair, &fold);
        let (b2, _) = names_of(&[1, 2, 3, 4, 9, 9, 9, 9], &sym, &pair, &fold);
        // Level 2 blocks: s1 = [1234][1234], s2 = [1234][9999].
        assert_eq!(b1[2][0], b1[2][1]);
        assert_eq!(b1[2][0], b2[2][0]);
        assert_ne!(b2[2][0], b2[2][1]);
        // Level 3 (whole string) differs.
        assert_ne!(b1[3][0], b2[3][0]);
        // Counts: floor(len / 2^k).
        assert_eq!(b1.iter().map(Vec::len).collect::<Vec<_>>(), [8, 4, 2, 1]);
    }

    #[test]
    fn aligned_names_with_residue_lengths() {
        let (sym, pair, fold) = setup(2);
        // len 5: residues ignored per §3.1.
        let (b, _) = names_of(&[5, 6, 7, 8, 9], &sym, &pair, &fold);
        assert_eq!(b.iter().map(Vec::len).collect::<Vec<_>>(), [5, 2, 1]);
    }

    #[test]
    fn equal_prefixes_equal_names_across_strings() {
        let (sym, pair, fold) = setup(4);
        let (_, pa) = names_of(&[1, 2, 3, 4, 5, 6, 7], &sym, &pair, &fold);
        let (_, pb) = names_of(&[1, 2, 3, 4, 9, 9], &sym, &pair, &fold);
        for l in 1..=4 {
            assert_eq!(pa[l - 1], pb[l - 1], "shared prefix of length {l}");
        }
        assert_ne!(pa[4], pb[4]);
    }

    #[test]
    fn distinct_prefixes_distinct_names() {
        let (sym, pair, fold) = setup(4);
        // All prefixes of all strings must be pairwise distinct unless equal.
        let strings: Vec<Vec<u32>> = vec![
            vec![1, 1, 1, 1, 1],
            vec![1, 1, 1, 1, 2],
            vec![2, 1, 1, 1, 1],
            vec![1, 2, 1, 2, 1, 2],
        ];
        let mut seen: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for s in &strings {
            let (_, p) = names_of(s, &sym, &pair, &fold);
            for l in 1..=s.len() {
                let e = seen.entry(p[l - 1]).or_insert_with(|| s[..l].to_vec());
                assert_eq!(*e, &s[..l], "name collision for different content");
            }
        }
    }

    #[test]
    fn single_symbol_prefix() {
        let (sym, pair, fold) = setup(2);
        let (_, p) = names_of(&[42], &sym, &pair, &fold);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0], sym.name(42, 0));
    }
}
