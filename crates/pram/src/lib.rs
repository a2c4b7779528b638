//! # pdm-pram — an arbitrary-CRCW PRAM execution substrate
//!
//! The algorithms in this workspace reproduce *Highly Efficient Dictionary
//! Matching in Parallel* (Muthukrishnan & Palem, SPAA 1993), whose bounds are
//! stated in the arbitrary-CRCW PRAM work–time framework: an algorithm runs in
//! `T` *rounds* (synchronous parallel steps) performing `W` total *operations*.
//!
//! A multicore CPU is not a PRAM, so this crate provides two things:
//!
//! 1. **Execution** ([`exec`]): data-parallel loops (`for_each`, `map`,
//!    `fill`) that run either sequentially or on a rayon thread pool,
//!    selected by [`exec::ExecPolicy`]. Every parallel construct in the
//!    workspace goes through these helpers so experiments can sweep thread
//!    counts and compare against a sequential run of the *same* code.
//!    Rounds of at most [`MIN_CHUNK`] items run inline on the caller.
//! 2. **Cost accounting** ([`cost`]): an explicit model that charges
//!    `time += 1` per round and `work += #operations`, independent of wall
//!    clock. The paper's claims (`O(log m)` time, `O(M + n log m)` work, …)
//!    are validated against these counters, while wall-clock speedups are
//!    reported separately by the benchmark harness.
//!
//! The model's concurrent writes live where they are used: the name
//! tables claim slots by compare-and-swap (`pdm_primitives::ConcPairTable`)
//! and priority writes are `fetch_min` on the attribution maps.

pub mod cost;
pub mod exec;

pub use cost::{CostModel, CostSnapshot, PhaseStats};
pub use exec::{Ctx, ExecPolicy, MIN_CHUNK};

/// `⌈log₂ x⌉` for `x ≥ 1`; `0` for `x ≤ 1`.
///
/// This is the recursion depth of shrink-and-spawn for a longest pattern of
/// length `x`, so it shows up in nearly every bound we validate.
#[inline]
pub fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// `⌊log₂ x⌋` for `x ≥ 1`; panics on `0`.
#[inline]
pub fn floor_log2(x: usize) -> u32 {
    assert!(x > 0, "floor_log2(0) is undefined");
    usize::BITS - 1 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn floor_log2_small_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1023), 9);
        assert_eq!(floor_log2(1024), 10);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn floor_log2_zero_panics() {
        floor_log2(0);
    }

    #[test]
    fn ceil_floor_relation() {
        for x in 1..2000usize {
            let c = ceil_log2(x);
            let f = floor_log2(x);
            assert!(c == f || c == f + 1, "x={x} c={c} f={f}");
            assert!(1usize << f <= x);
            assert!((1usize.checked_shl(c).unwrap_or(usize::MAX)) >= x);
        }
    }
}
