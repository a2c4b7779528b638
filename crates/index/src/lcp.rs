//! LCP array construction: the blocked-parallel Φ-array algorithm.
//!
//! `lcp[r]` is the length of the longest common prefix of the suffixes at
//! `sa[r-1]` and `sa[r]` (`lcp[0] = 0`). The Φ algorithm of Kärkkäinen,
//! Manzini and Puglisi (CPM 2009) first stores each suffix's predecessor in
//! suffix order, `Φ[sa[r]] = sa[r−1]`, then computes the permuted LCP
//! `plcp[i] = lcp(i, Φ[i])` for text positions in order. Like Kasai's, the
//! walk keeps the invariant `plcp[i] ≥ plcp[i-1] − 1`, so the running `h`
//! extends by `O(n)` comparisons in total. Unlike Kasai's, it reads `Φ[i]`
//! sequentially instead of a random `sa[rank[i] − 1]`, and overwrites `Φ`
//! with `plcp` in place. A last pass gathers `lcp[r] = plcp[sa[r]]`.
//!
//! The running `h` makes the walk sequential, so it is split into per-task
//! blocks of text positions: each block restarts `h` at 0 (a valid, merely
//! weaker, lower bound; correctness is untouched). Worst-case work grows by
//! one full comparison per block; with blocks of `n / p` positions that is
//! `O(n + p · maxlcp)`, indistinguishable from `O(n)` at realistic widths.

use pdm_pram::Ctx;
use rayon::prelude::*;

/// `Φ` of the smallest suffix, which has no predecessor.
const NONE: u32 = u32::MAX;

/// Build the LCP array for `text` and its suffix array `sa`.
pub fn build_lcp(ctx: &Ctx, text: &[u32], sa: &[u32]) -> Vec<u32> {
    let n = sa.len();
    debug_assert_eq!(text.len(), n);
    if n == 0 {
        return Vec::new();
    }
    // Φ[sa[r]] = sa[r−1]: one PRAM round of disjoint writes, run on one
    // host thread so that a malformed `sa` panics instead of racing.
    let mut phi = vec![NONE; n];
    ctx.cost.round(n as u64);
    for w in sa.windows(2) {
        phi[w[1] as usize] = w[0];
    }

    let threads = if ctx.is_parallel() {
        ctx.exec.threads().max(1)
    } else {
        1
    };
    let block = n.div_ceil(threads).max(4096);
    ctx.cost.round(n as u64);
    ctx.install(|| {
        phi.par_chunks_mut(block)
            .enumerate()
            .for_each(|(b, chunk)| {
                let lo = b * block;
                let mut h = 0usize;
                for (i, slot) in (lo..).zip(chunk.iter_mut()) {
                    let j = *slot;
                    if j == NONE {
                        h = 0;
                        *slot = 0;
                        continue;
                    }
                    let j = j as usize;
                    while i + h < n && j + h < n && text[i + h] == text[j + h] {
                        h += 1;
                    }
                    *slot = h as u32;
                    h = h.saturating_sub(1);
                }
            });
    });
    let plcp = phi;
    ctx.map(n, |r| plcp[sa[r] as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::build_suffix_array;
    use pdm_textgen::{corpus, strings};

    fn naive_lcp(a: &[u32], b: &[u32]) -> u32 {
        a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32
    }

    fn assert_naive(ctx: &Ctx, t: &[u32], what: &str) {
        let sa = build_suffix_array(ctx, t);
        let lcp = build_lcp(ctx, t, &sa);
        assert_eq!(lcp.len(), t.len());
        for r in 1..t.len() {
            assert_eq!(
                lcp[r],
                naive_lcp(&t[sa[r - 1] as usize..], &t[sa[r] as usize..]),
                "r={r} {what}"
            );
        }
        if !t.is_empty() {
            assert_eq!(lcp[0], 0);
        }
    }

    #[test]
    fn matches_naive_adjacent_lcp() {
        let mut x = 99u64;
        for ctx in [Ctx::seq(), Ctx::with_threads(2), Ctx::with_threads(4)] {
            for (n, sigma) in [(0usize, 2u64), (1, 2), (500, 2), (1200, 26)] {
                let t: Vec<u32> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % sigma) as u32
                    })
                    .collect();
                assert_naive(&ctx, &t, &format!("n={n} σ={sigma}"));
            }
        }
    }

    /// Long repeats and several blocks per width: the per-block restart of
    /// `h` must not change a value.
    #[test]
    fn matches_naive_on_genome_corpus() {
        let t = corpus::genome_default(&mut strings::rng(5), 64 << 10);
        for ctx in [Ctx::seq(), Ctx::with_threads(4)] {
            assert_naive(&ctx, &t, "genome_default");
        }
    }
}
