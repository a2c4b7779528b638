//! Reusable per-session scratch for text matching.
//!
//! Every text-side phase (ascent levels, descent state, longest-pattern
//! lookups, all-matches expansion) writes into buffers owned by a
//! [`TextScratch`], so a session that matches chunk after chunk — a
//! [`Matcher`](crate::matcher::Matcher) in a loop, a `StreamMatcher`
//! session — performs **zero heap allocation per chunk** once its buffers
//! have grown to the working-set size (DESIGN.md §11, "scratch-arena
//! lifecycle"). The arena tracks two cheap counters:
//!
//! * `grow_events` — how many times a buffer had to (re)allocate because a
//!   call needed more capacity than any previous call. In steady state this
//!   stops moving; the streaming tests assert exactly that.
//! * `table_lookups` — aggregate count of name-table probes issued through
//!   this scratch (computed per phase from the loop bounds, not counted in
//!   the hot loop).

use crate::dict::PatId;
use crate::static1d::MatchOutput;

/// Grow-aware buffer reuse: clear + resize, counting a grow event when the
/// existing capacity did not cover `n`.
#[inline]
pub(crate) fn ensure<T: Clone + Default>(v: &mut Vec<T>, n: usize, grows: &mut u64) {
    if v.capacity() < n {
        *grows += 1;
    }
    v.clear();
    v.resize(n, T::default());
}

/// Reusable buffers + counters for the text-matching hot path. Create one
/// per session (or per thread) and thread it through
/// [`prefix_match_into`](crate::static1d::prefix_match_into) /
/// [`match_text_into`](crate::static1d::match_text_into) /
/// `StaticMatcher::{match_into, find_all_into}`.
#[derive(Debug, Default)]
pub struct TextScratch {
    /// Ascent block names, one buffer per level (the descent reads every
    /// level, so ping-pong reuse of two buffers is not possible; capacity
    /// reuse across calls gives the same zero-steady-state-alloc property).
    pub(crate) levels: Vec<Vec<u32>>,
    /// Descent state: `(blocks, prefix-name)` per position.
    pub(crate) state: Vec<(u32, u32)>,
    /// Longest-pattern lookup results before scatter.
    pub(crate) pats: Vec<(Option<PatId>, u32, Option<PatId>)>,
    /// Full match output reused by `find_all_into`.
    pub(crate) match_out: MatchOutput,
    /// Per-position chain expansion buffer for `find_all_into`.
    pub(crate) pats_here: Vec<PatId>,
    /// Per-chunk child scratches for the chunk-grained parallel driver
    /// (one per coarse job; their counters are drained into this scratch
    /// after every parallel call).
    pub(crate) children: Vec<TextScratch>,
    /// `u8` shadow of the symbol text for SWAR prefilter scans.
    pub(crate) pf_shadow: Vec<u8>,
    /// Screened candidate starts from the prefilter scan.
    pub(crate) pf_starts: Vec<usize>,
    /// Merged candidate-start windows `(ws, we)`, starts-space.
    pub(crate) pf_windows: Vec<(usize, usize)>,
    /// Per-window `find_all` output before translation to text positions.
    pub(crate) pf_out: Vec<(usize, PatId)>,
    pub(crate) grows: u64,
    pub(crate) lookups: u64,
}

impl TextScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative buffer (re)allocation events served by this scratch.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Cumulative name-table lookups issued through this scratch.
    pub fn table_lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_counts_growth_not_reuse() {
        let mut g = 0u64;
        let mut v: Vec<u32> = Vec::new();
        ensure(&mut v, 100, &mut g);
        assert_eq!(v.len(), 100);
        assert_eq!(g, 1);
        v.iter_mut().for_each(|x| *x = 7);
        ensure(&mut v, 50, &mut g);
        assert_eq!(v.len(), 50);
        assert!(v.iter().all(|&x| x == 0), "stale contents cleared");
        assert_eq!(g, 1, "shrinking reuses capacity");
        ensure(&mut v, 100, &mut g);
        assert_eq!(g, 1, "regrowth within capacity is free");
        ensure(&mut v, 101, &mut g);
        assert_eq!(g, 2);
    }
}
