//! Block names by doubling (Karp–Miller–Rosenberg).
//!
//! `name_k(i)` names the substring `s[i .. i+2^k]`. Level 0 names single
//! symbols through the matcher's symbol table; level `k` names come from
//! `δ(name_{k−1}(i), name_{k−1}(i + 2^{k−1}))`.
//!
//! Two access patterns correspond to the two halves of shrink-and-spawn:
//!
//! * **Dictionary (shrink):** only block-aligned positions are needed —
//!   `i ≡ 0 (mod 2^k)` — because the shrunk pattern at level `k` is exactly
//!   the sequence of its aligned block names. `Σ_k len/2^k = O(len)` names
//!   per string.
//! * **Text (spawn):** *every* position is needed — the level-`k` names at
//!   offsets `i, i+2^k, i+2^k·2, …` for each `i < 2^k` are the `2^k` spawned
//!   copies. `O(n)` names per level, `O(n log m)` overall, matching the
//!   text-side work bound of Theorem 1.

use crate::arena::{NameTable, Overlay};

/// Aligned block names of a dictionary string.
///
/// `blocks[k][b]` names `s[b·2^k .. (b+1)·2^k]`, for `0 ≤ k ≤ levels` and
/// all `b` with `(b+1)·2^k ≤ s.len()`. `blocks[0]` is the symbol naming of
/// every position.
pub fn aligned_block_names(
    s: &[u32],
    levels: usize,
    sym: &NameTable,
    pair: &[NameTable],
) -> Vec<Vec<u32>> {
    assert!(pair.len() >= levels, "need one pair table per level");
    let mut blocks: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
    blocks.push(s.iter().map(|&c| sym.name(c, 0)).collect());
    for k in 1..=levels {
        let prev = &blocks[k - 1];
        let cnt = prev.len() / 2;
        let t = &pair[k - 1];
        let cur: Vec<u32> = (0..cnt)
            .map(|b| t.name(prev[2 * b], prev[2 * b + 1]))
            .collect();
        blocks.push(cur);
    }
    blocks
}

/// Level-0 names of a text slice, resolved through the overlay (dictionary
/// symbol table first, text-local names for unseen symbols), written into a
/// caller-provided buffer (cleared first; capacity is reused across calls —
/// the `TextScratch` discipline).
pub fn text_symbol_names_into(t: &[u32], sym: &Overlay, out: &mut Vec<u32>) {
    out.clear();
    out.extend(t.iter().map(|&c| sym.name(c, 0)));
}

/// Allocating convenience wrapper around [`text_symbol_names_into`].
pub fn text_symbol_names(t: &[u32], sym: &Overlay) -> Vec<u32> {
    let mut out = Vec::new();
    text_symbol_names_into(t, sym, &mut out);
    out
}

/// One doubling step over *all* positions: given `prev[i]` naming
/// `t[i..i+half]`, write names of `t[i..i+2·half]` for every valid `i` into
/// a caller-provided buffer (cleared first; capacity reused across calls).
pub fn text_double_step_into(prev: &[u32], half: usize, table: &Overlay, out: &mut Vec<u32>) {
    out.clear();
    if prev.len() < 2 * half {
        return;
    }
    let cnt = prev.len() - half; // positions i with i + 2·half ≤ t.len()
    out.extend((0..cnt).map(|i| table.name(prev[i], prev[i + half])));
}

/// Allocating convenience wrapper around [`text_double_step_into`].
pub fn text_double_step(prev: &[u32], half: usize, table: &Overlay) -> Vec<u32> {
    let mut out = Vec::new();
    text_double_step_into(prev, half, table, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{NamePool, NameTable};

    fn setup(levels: usize) -> (NameTable, Vec<NameTable>) {
        let pool = NamePool::dictionary();
        let sym = NameTable::with_capacity(1024, pool.clone());
        let pair = (0..levels)
            .map(|_| NameTable::with_capacity(4096, pool.clone()))
            .collect();
        (sym, pair)
    }

    #[test]
    fn aligned_names_identify_equal_blocks() {
        let (sym, pair) = setup(3);
        let s1: Vec<u32> = vec![1, 2, 3, 4, 1, 2, 3, 4];
        let s2: Vec<u32> = vec![1, 2, 3, 4, 9, 9, 9, 9];
        let b1 = aligned_block_names(&s1, 3, &sym, &pair);
        let b2 = aligned_block_names(&s2, 3, &sym, &pair);
        // Level 2 blocks: s1 = [1234][1234], s2 = [1234][9999].
        assert_eq!(b1[2][0], b1[2][1]);
        assert_eq!(b1[2][0], b2[2][0]);
        assert_ne!(b2[2][0], b2[2][1]);
        // Level 3 (whole string) differs.
        assert_ne!(b1[3][0], b2[3][0]);
        // Counts: floor(len / 2^k).
        assert_eq!(b1[0].len(), 8);
        assert_eq!(b1[1].len(), 4);
        assert_eq!(b1[2].len(), 2);
        assert_eq!(b1[3].len(), 1);
    }

    #[test]
    fn aligned_names_with_residue_lengths() {
        let (sym, pair) = setup(2);
        let s: Vec<u32> = vec![5, 6, 7, 8, 9]; // len 5: residues ignored per §3.1
        let b = aligned_block_names(&s, 2, &sym, &pair);
        assert_eq!(b[0].len(), 5);
        assert_eq!(b[1].len(), 2);
        assert_eq!(b[2].len(), 1);
    }

    #[test]
    fn text_doubling_matches_aligned_dictionary_names() {
        let (sym, pair) = setup(2);
        let pat: Vec<u32> = vec![7, 8, 7, 9];
        let blocks = aligned_block_names(&pat, 2, &sym, &pair);

        // Text containing the pattern at unaligned offset 1; run the
        // doubling through reused caller buffers (the `_into` API).
        let text: Vec<u32> = vec![3, 7, 8, 7, 9, 3];
        let tp = NamePool::text_local();
        let ov_sym = Overlay::new(&sym, 64, tp.clone());
        let (mut l0, mut l1, mut l2) = (Vec::new(), Vec::new(), Vec::new());
        text_symbol_names_into(&text, &ov_sym, &mut l0);
        let ov1 = Overlay::new(&pair[0], 64, tp.clone());
        text_double_step_into(&l0, 1, &ov1, &mut l1);
        let ov2 = Overlay::new(&pair[1], 64, tp.clone());
        text_double_step_into(&l1, 2, &ov2, &mut l2);

        // t[1..5] == pattern, so its level-2 name equals the pattern's.
        assert_eq!(l2[1], blocks[2][0]);
        // Non-matching position must differ.
        assert_ne!(l2[0], blocks[2][0]);
    }

    #[test]
    fn text_unknown_blocks_get_local_names() {
        let (sym, pair) = setup(1);
        let _ = aligned_block_names(&[1, 2], 1, &sym, &pair);
        let tp = NamePool::text_local();
        let ov_sym = Overlay::new(&sym, 64, tp.clone());
        let l0 = text_symbol_names(&[1, 2, 5, 5], &ov_sym);
        assert!(!NamePool::is_text_local(l0[0]));
        assert!(NamePool::is_text_local(l0[2]));
        // Equal unseen symbols share their local name.
        assert_eq!(l0[2], l0[3]);
        let ov1 = Overlay::new(&pair[0], 64, tp);
        let l1 = text_double_step(&l0, 1, &ov1);
        // (1,2) is a dictionary block; (2,5) and (5,5) are not.
        assert!(!NamePool::is_text_local(l1[0]));
        assert!(NamePool::is_text_local(l1[1]));
        assert!(NamePool::is_text_local(l1[2]));
    }

    #[test]
    fn short_text_produces_empty_levels() {
        let (sym, pair) = setup(2);
        let tp = NamePool::text_local();
        let ov_sym = Overlay::new(&sym, 8, tp.clone());
        let l0 = text_symbol_names(&[1], &ov_sym);
        let ov1 = Overlay::new(&pair[0], 8, tp);
        assert!(text_double_step(&l0, 1, &ov1).is_empty());
    }

    #[test]
    fn into_buffers_are_cleared_and_reused() {
        let (sym, pair) = setup(1);
        let _ = aligned_block_names(&[1, 2], 1, &sym, &pair);
        let tp = NamePool::text_local();
        let ov_sym = Overlay::new(&sym, 64, tp.clone());
        let mut buf = vec![99; 32]; // stale contents must vanish
        text_symbol_names_into(&[1, 2, 1, 2], &ov_sym, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf, text_symbol_names(&[1, 2, 1, 2], &ov_sym));
        let ov1 = Overlay::new(&pair[0], 64, tp);
        let mut dbl = vec![7; 8];
        text_double_step_into(&buf, 1, &ov1, &mut dbl);
        assert_eq!(dbl, text_double_step(&buf, 1, &ov1));
        // Too-short input clears the buffer rather than leaving stale data.
        text_double_step_into(&buf[..1], 1, &ov1, &mut dbl);
        assert!(dbl.is_empty());
    }
}
