//! Parallel LSD radix sort for `(u64 key, u32 payload)` records.
//!
//! §6.2.1 of the paper shows dynamic stamp-counting is exactly as hard as
//! integer sorting and uses \[BDHPRS91\]-style integer sort for batched
//! updates. This is the work-efficient stand-in: stable LSD passes over
//! 8-bit digits, each pass a counting sort parallelized over blocks
//! (per-block histograms, scanned globally, then a stable scatter).
//!
//! Only as many passes run as the key width requires (`max_key` bits).

use pdm_pram::Ctx;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Sort records by `key` ascending; stable. Returns the sorted records.
pub fn radix_sort_by_key(ctx: &Ctx, records: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut recs = records.to_vec();
    let mut scratch = Vec::new();
    radix_sort_by_key_in_place(ctx, &mut recs, &mut scratch);
    recs
}

/// In-place core of [`radix_sort_by_key`]: `records` is sorted in place and
/// `scratch` is (re)used as the ping-pong buffer.
fn radix_sort_by_key_in_place(
    ctx: &Ctx,
    records: &mut Vec<(u64, u32)>,
    scratch: &mut Vec<(u64, u32)>,
) {
    let n = records.len();
    if n <= 1 {
        return;
    }
    let max_key = records.iter().map(|r| r.0).max().unwrap_or(0);
    let key_bits = 64 - max_key.leading_zeros();
    let passes = key_bits.div_ceil(RADIX_BITS).max(1);

    scratch.clear();
    scratch.resize(n, (0u64, 0u32));
    let cur = records;
    let next = scratch;

    let threads = if ctx.is_parallel() {
        ctx.exec.threads().max(1)
    } else {
        1
    };
    let block = n.div_ceil(threads).max(4096);
    let nblocks = n.div_ceil(block);

    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        // Per-block histograms. One PRAM round of O(n) work.
        ctx.cost.round(n as u64);
        let hists: Vec<[u32; BUCKETS]> = ctx.install(|| {
            use rayon::prelude::*;
            cur.par_chunks(block)
                .map(|chunk| {
                    let mut h = [0u32; BUCKETS];
                    for &(k, _) in chunk {
                        h[((k >> shift) as usize) & (BUCKETS - 1)] += 1;
                    }
                    h
                })
                .collect()
        });
        // Global exclusive offsets per (bucket, block): column-major scan.
        // Small (BUCKETS × nblocks), done sequentially; charged log rounds.
        ctx.cost.rounds(
            pdm_pram::ceil_log2(BUCKETS * nblocks) as u64,
            (BUCKETS * nblocks) as u64,
        );
        let mut offsets = vec![[0u32; BUCKETS]; nblocks];
        let mut running = 0u32;
        for b in 0..BUCKETS {
            for blk in 0..nblocks {
                offsets[blk][b] = running;
                running += hists[blk][b];
            }
        }
        // Stable scatter. One PRAM round of O(n) work.
        ctx.cost.round(n as u64);
        {
            let next_ptr = SendPtr(next.as_mut_ptr());
            ctx.install(|| {
                use rayon::prelude::*;
                cur.par_chunks(block)
                    .zip(offsets.into_par_iter())
                    .for_each(|(chunk, mut off)| {
                        // Move (not borrow) the Copy wrapper into the task.
                        #[allow(clippy::redundant_locals)]
                        let next_ptr = next_ptr;
                        for &(k, v) in chunk {
                            let b = ((k >> shift) as usize) & (BUCKETS - 1);
                            let dst = off[b] as usize;
                            off[b] += 1;
                            // SAFETY: offsets partition 0..n disjointly across
                            // (block, bucket) pairs, so each dst is written by
                            // exactly one task.
                            unsafe { *next_ptr.0.add(dst) = (k, v) };
                        }
                    });
            });
        }
        // Swap the vectors themselves (ptr/len/cap), so after every pass the
        // caller's `records` holds the latest sorted data and `scratch` the
        // ping-pong buffer — regardless of pass parity.
        std::mem::swap(cur, next);
    }
    debug_assert!(cur.windows(2).all(|w| w[0].0 <= w[1].0));
}

/// Sort plain `u64` keys ascending.
pub fn radix_sort_u64(ctx: &Ctx, keys: &[u64]) -> Vec<u64> {
    let recs: Vec<(u64, u32)> = keys.iter().map(|&k| (k, 0)).collect();
    radix_sort_by_key(ctx, &recs)
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: used only for disjoint writes as argued at the write site.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<(u64, u32)> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_003, i as u32)
            })
            .collect()
    }

    #[test]
    fn sorts_like_std() {
        for ctx in [Ctx::seq(), Ctx::par()] {
            for n in [0usize, 1, 2, 17, 1000, 100_000] {
                let recs = pseudo(n, 42);
                let got = radix_sort_by_key(&ctx, &recs);
                let mut want = recs.clone();
                want.sort_by_key(|r| r.0);
                assert_eq!(
                    got.iter().map(|r| r.0).collect::<Vec<_>>(),
                    want.iter().map(|r| r.0).collect::<Vec<_>>(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn stable_for_equal_keys() {
        let ctx = Ctx::par();
        let recs: Vec<(u64, u32)> = (0..50_000u32).map(|i| ((i % 10) as u64, i)).collect();
        let got = radix_sort_by_key(&ctx, &recs);
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn large_keys_use_more_passes() {
        let ctx = Ctx::seq();
        let recs: Vec<(u64, u32)> = vec![(u64::MAX, 0), (0, 1), (u64::MAX / 2, 2)];
        let got = radix_sort_by_key(&ctx, &recs);
        assert_eq!(got, vec![(0, 1), (u64::MAX / 2, 2), (u64::MAX, 0)]);
    }

    #[test]
    fn plain_u64_sort() {
        let ctx = Ctx::seq();
        assert_eq!(radix_sort_u64(&ctx, &[3, 1, 2]), vec![1, 2, 3]);
        assert_eq!(radix_sort_u64(&ctx, &[]), Vec::<u64>::new());
    }
}
