//! Prefix scans (parallel prefix computation).
//!
//! Written over a generic combine operation; the workhorse is
//! [`prefix_sums`], the output placement of all-matches enumeration.
//!
//! The parallel version is the standard two-pass blocked scan (per-block
//! reduce, scan of block sums, per-block rescan): `O(n)` work and, charged to
//! the PRAM model, `2⌈log₂ n⌉` rounds — the depth of the Ladner–Fischer
//! circuit it simulates.
//!
//! **Caveat for non-associative operators.** Namestamping's combine is only
//! injective, not associative (`δ(δ(a,b),c) ≠ δ(a,δ(b,c))` as integers).
//! Scans over such operators must use a *fixed* combine shape per output
//! index so equal inputs give equal outputs; that is why prefix-naming
//! (paper Fact 2) uses the dyadic fold of `pdm-naming::prefix`, not the
//! blocked parallel scan.

use pdm_pram::{ceil_log2, Ctx};

/// Sequential inclusive scan with a left-fold shape:
/// `out[i] = f(f(...f(init, a[0]), ...), a[i])`.
pub fn scan_inclusive_seq<T: Clone, A>(
    init: T,
    items: &[A],
    mut f: impl FnMut(&T, &A) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    let mut acc = init;
    for a in items {
        acc = f(&acc, a);
        out.push(acc.clone());
    }
    out
}

/// Parallel inclusive scan for an **associative** operation with identity.
///
/// Charges `2⌈log₂ n⌉` rounds and `O(n)` work to the cost model.
pub fn scan_inclusive<T, F>(ctx: &Ctx, items: &[T], identity: T, f: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Send + Sync,
{
    let n = items.len();
    ctx.cost
        .rounds(2 * ceil_log2(n.max(1)) as u64, 2 * n as u64);
    if n == 0 {
        return Vec::new();
    }
    if !ctx.is_parallel() || n < 4096 {
        return scan_inclusive_seq(identity, items, |a, b| f(a, b));
    }
    ctx.install(|| {
        use rayon::prelude::*;
        let threads = rayon::current_num_threads().max(1);
        let block = n.div_ceil(threads * 4).max(1024);
        let nblocks = n.div_ceil(block);
        // Pass 1: per-block reductions.
        let sums: Vec<T> = (0..nblocks)
            .into_par_iter()
            .map(|b| {
                let lo = b * block;
                let hi = (lo + block).min(n);
                let mut acc = identity.clone();
                for x in &items[lo..hi] {
                    acc = f(&acc, x);
                }
                acc
            })
            .collect();
        // Pass 2: exclusive scan of block sums (nblocks is small).
        let mut offsets = Vec::with_capacity(nblocks);
        let mut acc = identity.clone();
        for s in &sums {
            offsets.push(acc.clone());
            acc = f(&acc, s);
        }
        // Pass 3: rescan each block seeded with its offset.
        let mut out: Vec<T> = Vec::with_capacity(n);
        #[allow(clippy::uninit_vec)]
        {
            // Filled completely below, block by block.
            out.resize(n, identity.clone());
        }
        out.par_chunks_mut(block)
            .zip(offsets.into_par_iter())
            .enumerate()
            .for_each(|(b, (chunk, seed))| {
                let lo = b * block;
                let mut acc = seed;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    acc = f(&acc, &items[lo + i]);
                    *slot = acc.clone();
                }
            });
        out
    })
}

/// Exclusive prefix sums of `u64` counts, returning `(offsets, total)`.
/// The workhorse of output allocation (all-matches enumeration).
pub fn prefix_sums(ctx: &Ctx, counts: &[u64]) -> (Vec<u64>, u64) {
    let inc = scan_inclusive(ctx, counts, 0u64, |a, b| a + b);
    let total = inc.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(counts.len());
    out.push(0);
    out.extend_from_slice(&inc[..counts.len().saturating_sub(1)]);
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctxs() -> Vec<Ctx> {
        vec![Ctx::seq(), Ctx::par(), Ctx::with_threads(2)]
    }

    #[test]
    fn inclusive_matches_reference() {
        for ctx in ctxs() {
            for n in [0usize, 1, 2, 100, 5000, 40_000] {
                let v: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
                let got = scan_inclusive(&ctx, &v, 0, |a, b| a + b);
                let want = scan_inclusive_seq(0, &v, |a, b| a + b);
                assert_eq!(got, want, "n={n}");
            }
        }
    }

    #[test]
    fn scan_with_max_operator() {
        for ctx in ctxs() {
            let v: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
            let got = scan_inclusive(&ctx, &v, 0, |a, b| *a.max(b));
            assert_eq!(got, vec![3, 3, 4, 4, 5, 9, 9, 9]);
        }
    }

    #[test]
    fn prefix_sums_offsets_and_total() {
        for ctx in ctxs() {
            let counts = vec![2u64, 0, 3, 1];
            let (off, total) = prefix_sums(&ctx, &counts);
            assert_eq!(off, vec![0, 2, 2, 5]);
            assert_eq!(total, 6);
            let (off, total) = prefix_sums(&ctx, &[]);
            assert_eq!(off, vec![0]);
            assert_eq!(total, 0);
        }
    }

    #[test]
    fn charges_logarithmic_rounds() {
        let ctx = Ctx::seq();
        let v = vec![1u64; 1 << 14];
        let before = ctx.cost.snapshot();
        let _ = scan_inclusive(&ctx, &v, 0, |a, b| a + b);
        let d = ctx.cost.snapshot().since(before);
        assert_eq!(d.rounds, 28); // 2 * log2(2^14)
        assert!(d.work >= v.len() as u64);
    }

    #[test]
    fn seq_scan_left_fold_shape() {
        // Strings make non-associativity visible: the scan must be a left fold.
        let items = ["a", "b", "c"];
        let got = scan_inclusive_seq(String::new(), &items, |acc, s| format!("({acc}{s})"));
        assert_eq!(got, vec!["(a)", "((a)b)", "(((a)b)c)"]);
    }
}
