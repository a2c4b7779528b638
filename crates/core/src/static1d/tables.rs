//! Dictionary preprocessing for static matching (§4, dictionary side of
//! Theorem 3: `O(log m)` time, `O(M)` work).
//!
//! The paper's recursion shrinks the dictionary by `L = 2` per level. Laid
//! out iteratively, preprocessing computes, per level `k ≤ K = ⌈log₂ m⌉`:
//!
//! 1. **aligned block names** — the shrunk patterns: `name_k(P, b·2^k)`
//!    (`Σ_k M/2^k = O(M)` names overall);
//! 2. **prefix names** (Fact 2) — every `pref(P, ℓ)` via the dyadic
//!    left-fold, scheduled in popcount-grouped rounds (`O(log m)` rounds,
//!    `O(M)` combines);
//! 3. **extension tables** — `(pref(b·2^k), name_k(b·2^k)) → pref((b+1)·2^k)`,
//!    the namestamped "incremental extension" of §4.1's Extend-Right step;
//! 4. **pattern attribution** (§4.2, Theorem 2) — which prefixes are full
//!    patterns, and for every prefix the longest pattern that prefixes it,
//!    via the nearest-one-to-the-left scan.

#![allow(clippy::needless_range_loop)] // test helpers index parallel fixtures

use crate::dict::{validate_dictionary, BuildError, Sym};
use crate::static1d::namemap::{pack2, AtomicNameMap, NameMap};
use pdm_naming::prefix::fold_step;
use pdm_naming::{FrozenNameTable, NamePool, NameTable, IDENTITY};
use pdm_pram::{ceil_log2, Ctx};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Read-optimized forms of the text-side tables: atomics-free
/// open-addressing copies of `sym`/`pair`/`ext`, each frozen as soon as its
/// last build-side writer is done, plus a dense level-0 symbol map for
/// small alphabets. All text-side lookups go through these; a matcher
/// keeps nothing else of its build.
#[derive(Debug)]
pub struct ReadTables {
    pub sym: FrozenNameTable,
    pub pair: Vec<FrozenNameTable>,
    pub ext: Vec<FrozenNameTable>,
    /// `sym_dense[c]` = level-0 name of symbol `c`, or [`IDENTITY`] when
    /// the dictionary lacks `c` (symbol names are never `IDENTITY`). Built
    /// when the largest symbol value is small enough for a flat array.
    pub sym_dense: Option<Box<[u32]>>,
}

impl ReadTables {
    /// Largest symbol value for which the dense level-0 map is built
    /// (bytes and UTF-8 code points of most texts fit; huge symbolized
    /// alphabets fall back to the frozen hash table).
    const DENSE_SYM_LIMIT: u32 = 1 << 16;

    /// Assemble from already-frozen tables (a build, the cold-load path,
    /// where the frozen slot arrays come straight off disk, and the
    /// dynamic freeze). Only the dense level-0 map is derived — an
    /// `O(|Σ|)` scan of the symbol table's entries, no rehashing of
    /// anything.
    pub fn from_frozen(
        sym: FrozenNameTable,
        pair: Vec<FrozenNameTable>,
        ext: Vec<FrozenNameTable>,
    ) -> Self {
        let sym_dense = sym.entries().map(|(c, _, _)| c).max().and_then(|max_c| {
            (max_c < Self::DENSE_SYM_LIMIT).then(|| {
                let mut d = vec![IDENTITY; max_c as usize + 1].into_boxed_slice();
                for (c, _, name) in sym.entries() {
                    d[c as usize] = name;
                }
                d
            })
        });
        ReadTables {
            sym,
            pair,
            ext,
            sym_dense,
        }
    }
}

/// Frozen dictionary tables: everything text processing needs, and
/// nothing more — built, cold-loaded and frozen-dynamic tables all have
/// this one read-only shape.
#[derive(Debug)]
pub struct StaticTables {
    /// `K = ⌈log₂ m⌉`.
    pub levels: usize,
    pub max_len: usize,
    pub total_len: usize,
    pub n_patterns: usize,
    /// Entry count of the prefix-name fold table (build-only state, dropped
    /// once the prefix names exist; the count keeps size diagnostics
    /// meaningful).
    pub fold_len: usize,
    /// prefix-name → packed `(len, pat)` of the longest pattern that is a
    /// prefix of it (Theorem 2's output).
    pub longest: NameMap,
    /// prefix-name → packed `(0, pat)`: the smallest-index pattern having
    /// this prefix (the retrieve-index answer, `I_p`).
    pub owner: NameMap,
    /// Full-string prefix name of each pattern.
    pub pattern_names: Vec<u32>,
    /// All prefix names, `pattern_prefs[p][ℓ-1]` names `P_p[0..ℓ]`.
    /// Kept because the §4.4 and all-matches layers consume them.
    pub pattern_prefs: Vec<Vec<u32>>,
    pub pool: Arc<NamePool>,
    /// Frozen read path for text processing (see [`ReadTables`]).
    pub read: ReadTables,
}

impl StaticTables {
    /// Preprocess the dictionary. Each piece of build state is dropped as
    /// soon as its last reader is done — the symbol and pair naming tables
    /// once frozen after step 1, the fold table after step 2, the block
    /// names and extension tables after step 3 — so the build's memory
    /// high-water mark never holds a build table beside every frozen one.
    pub fn build(ctx: &Ctx, patterns: &[Vec<Sym>]) -> Result<Self, BuildError> {
        let (total, max_len) = validate_dictionary(patterns)?;
        let k_levels = ceil_log2(max_len) as usize;
        let npat = patterns.len();
        let pool = NamePool::dictionary();

        let sym = NameTable::with_capacity(total, pool.clone());
        let pair: Vec<NameTable> = (1..=k_levels)
            .map(|k| {
                let cap: usize = patterns.iter().map(|p| p.len() >> k).sum();
                NameTable::with_capacity(cap.max(1), pool.clone())
            })
            .collect();

        // 1. Aligned block names (the shrunk dictionaries), level by level.
        //    blocks[k][p][b] names P_p[b·2^k .. (b+1)·2^k].
        let mut blocks: Vec<Vec<Vec<u32>>> = Vec::with_capacity(k_levels + 1);
        ctx.cost.phase("dict/blocks", || {
            let lvl0 = ctx.map(npat, |p| {
                patterns[p]
                    .iter()
                    .map(|&c| sym.name(c, 0))
                    .collect::<Vec<u32>>()
            });
            ctx.cost.work(total as u64);
            blocks.push(lvl0);
            for k in 1..=k_levels {
                let prev = &blocks[k - 1];
                let t = &pair[k - 1];
                let lvl = ctx.map(npat, |p| {
                    let pr = &prev[p];
                    (0..pr.len() / 2)
                        .map(|b| t.name(pr[2 * b], pr[2 * b + 1]))
                        .collect::<Vec<u32>>()
                });
                ctx.cost.work((total >> k) as u64);
                blocks.push(lvl);
            }
        });
        let (sym, pair) = ctx.cost.phase("dict/freeze-read-path", move || {
            (sym.freeze(), freeze_all(pair))
        });

        // 2. Prefix names in popcount-grouped rounds (Fact 2 schedule):
        //    pref(ℓ) depends on pref(hi) of `fold_step(ℓ)`, which has one
        //    fewer set bit, so all lengths with equal popcount resolve in
        //    one round.
        let fold = NameTable::with_capacity(total, pool.clone());
        let prefs: Vec<Vec<u32>> = ctx.cost.phase("dict/prefix-naming", || {
            let cells: Vec<Vec<AtomicU32>> = patterns
                .iter()
                .map(|p| (0..p.len()).map(|_| AtomicU32::new(IDENTITY)).collect())
                .collect();
            let bits = usize::BITS - max_len.leading_zeros();
            let mut groups: Vec<Vec<(u32, u32)>> = vec![Vec::new(); bits as usize];
            for (p, pat) in patterns.iter().enumerate() {
                for l in 1..=pat.len() {
                    groups[l.count_ones() as usize - 1].push((p as u32, l as u32));
                }
            }
            for g in groups.iter().filter(|g| !g.is_empty()) {
                ctx.for_each(g.len(), |gi| {
                    let (p, l) = g[gi];
                    let (p, l) = (p as usize, l as usize);
                    let (k, hi) = fold_step(l);
                    let block = blocks[k][p][hi >> k];
                    let v = if hi == 0 {
                        block
                    } else {
                        fold.name(cells[p][hi - 1].load(Ordering::Relaxed), block)
                    };
                    cells[p][l - 1].store(v, Ordering::Relaxed);
                });
            }
            cells
                .into_iter()
                .map(|v| v.into_iter().map(|a| a.into_inner()).collect())
                .collect()
        });
        let fold_len = fold.len();
        drop(fold);

        // 3. Extension tables: one entry per aligned block per level.
        let ext: Vec<NameTable> = (0..=k_levels)
            .map(|k| {
                let cap: usize = patterns.iter().map(|p| p.len() >> k).sum();
                NameTable::with_capacity(cap.max(1), pool.clone())
            })
            .collect();
        ctx.cost.phase("dict/ext-tables", || {
            for (k, ext_k) in ext.iter().enumerate() {
                ctx.for_each(npat, |p| {
                    let bl = &blocks[k][p];
                    let pf = &prefs[p];
                    for (b, &block) in bl.iter().enumerate() {
                        let key_pref = if b == 0 { IDENTITY } else { pf[(b << k) - 1] };
                        let val = pf[((b + 1) << k) - 1];
                        ext_k.insert_assoc(key_pref, block, val);
                    }
                });
                ctx.cost.work((total >> k) as u64);
            }
        });
        drop(blocks);
        let ext = ctx.cost.phase("dict/freeze-read-path", || freeze_all(ext));

        // 4. Pattern attribution (§4.2 / Theorem 2).
        let n_names = pool.allocated() as usize + 1;
        let (longest, owner) = ctx.cost.phase("dict/longest-pattern", || {
            attribute(ctx, &prefs, n_names, max_len, total)
        });

        Ok(Self {
            levels: k_levels,
            max_len,
            total_len: total,
            n_patterns: npat,
            fold_len,
            longest,
            owner,
            pattern_names: prefs.iter().map(|p| p[p.len() - 1]).collect(),
            pattern_prefs: prefs,
            pool,
            read: ReadTables::from_frozen(sym, pair, ext),
        })
    }

    /// Assemble read-only tables — the form
    /// [`Self::from_frozen_bytes`] loads and [`Self::build`] leaves — from
    /// an already-named dictionary: its frozen text-side tables, every
    /// pattern's prefix names in the order that fixes the pattern ids, the
    /// fold table's entry count and the names allocated so far (every name
    /// in `read` and `pattern_prefs` lies below it). The Theorem 2
    /// attribution maps are derived here exactly as [`Self::build`] derives
    /// them, so matching yields the ids a build over the same pattern
    /// order would. This is the dynamic dictionary's freeze
    /// ([`DynamicMatcher::freeze`](crate::dynamic::DynamicMatcher::freeze)).
    pub(crate) fn from_read_parts(
        read: ReadTables,
        pattern_prefs: Vec<Vec<u32>>,
        fold_len: usize,
        names_allocated: u32,
    ) -> Self {
        let max_len = pattern_prefs.iter().map(Vec::len).max().unwrap_or(0);
        let total_len = pattern_prefs.iter().map(Vec::len).sum();
        let levels = ceil_log2(max_len) as usize;
        debug_assert_eq!(read.pair.len(), levels);
        debug_assert_eq!(read.ext.len(), levels + 1);
        let (longest, owner) = attribute(
            &Ctx::seq(),
            &pattern_prefs,
            names_allocated as usize + 1,
            max_len,
            total_len,
        );
        Self {
            levels,
            max_len,
            total_len,
            n_patterns: pattern_prefs.len(),
            fold_len,
            longest,
            owner,
            pattern_names: pattern_prefs.iter().map(|p| p[p.len() - 1]).collect(),
            pattern_prefs,
            pool: NamePool::dictionary_resumed(names_allocated),
            read,
        }
    }
}

/// Freeze finished build tables one at a time, dropping each live table as
/// soon as its frozen copy exists.
fn freeze_all(tables: Vec<NameTable>) -> Vec<FrozenNameTable> {
    tables.into_iter().map(|t| t.freeze()).collect()
}

/// Theorem 2's attribution (§4.2): `longest[name]` packs `(len, pat)` of
/// the longest pattern that is a prefix of the named prefix, `owner[name]`
/// packs `(0, pat)` of the smallest pattern id having that prefix.
/// `prefs[p]` lists pattern `p`'s prefix names, all below `n_names`.
fn attribute(
    ctx: &Ctx,
    prefs: &[Vec<u32>],
    n_names: usize,
    max_len: usize,
    total: usize,
) -> (NameMap, NameMap) {
    let npat = prefs.len();
    let by_name = AtomicNameMap::new(n_names);
    ctx.for_each(npat, |p| {
        by_name.set_min(prefs[p][prefs[p].len() - 1], pack2(0, p as u32));
    });
    let longest = AtomicNameMap::new(n_names);
    let owner = AtomicNameMap::new(n_names);
    // Host-side: left-to-right scan per pattern. PRAM-side this is the
    // nearest-one-to-the-left prefix-max (O(log m) rounds, O(M) work) —
    // charge that schedule.
    ctx.for_each(npat, |p| {
        let mut last: Option<(u32, u32)> = None;
        for (l, &nm) in prefs[p].iter().enumerate() {
            owner.set_min(nm, pack2(0, p as u32));
            if let Some(v) = by_name.get(nm) {
                last = Some((l as u32 + 1, (v & 0xFFFF_FFFF) as u32));
            }
            if let Some((ll, pid)) = last {
                longest.set(nm, pack2(ll, pid));
            }
        }
    });
    ctx.cost.rounds(ceil_log2(max_len) as u64, total as u64);
    (longest.freeze(), owner.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::symbolize;

    #[test]
    fn builds_and_prefix_names_are_shared() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["abcd", "abce", "xbcd"]);
        let t = StaticTables::build(&ctx, &pats).unwrap();
        assert_eq!(t.levels, 2);
        // Shared prefixes "ab" / "abc" of patterns 0 and 1 share names.
        assert_eq!(t.pattern_prefs[0][0], t.pattern_prefs[1][0]);
        assert_eq!(t.pattern_prefs[0][1], t.pattern_prefs[1][1]);
        assert_eq!(t.pattern_prefs[0][2], t.pattern_prefs[1][2]);
        assert_ne!(t.pattern_prefs[0][3], t.pattern_prefs[1][3]);
        assert_ne!(t.pattern_prefs[0][0], t.pattern_prefs[2][0]);
    }

    #[test]
    fn longest_pattern_attribution() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["ab", "abcd", "bc"]);
        let t = StaticTables::build(&ctx, &pats).unwrap();
        // Prefix "abc" of pattern 1: longest pattern-prefix is "ab" (pat 0).
        let abc = t.pattern_prefs[1][2];
        let v = t.longest.get(abc).unwrap();
        let (len, pid) = crate::static1d::namemap::unpack2(v);
        assert_eq!((len, pid), (2, 0));
        // Full "abcd": longest is itself.
        let abcd = t.pattern_prefs[1][3];
        let (len, pid) = crate::static1d::namemap::unpack2(t.longest.get(abcd).unwrap());
        assert_eq!((len, pid), (4, 1));
        // Prefix "b" of "bc" is not a pattern and has no pattern prefix.
        let b = t.pattern_prefs[2][0];
        assert!(t.longest.get(b).is_none());
    }

    #[test]
    fn owner_is_min_pattern_index() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["zq", "za"]);
        let t = StaticTables::build(&ctx, &pats).unwrap();
        let z = t.pattern_prefs[1][0];
        assert_eq!(t.pattern_prefs[0][0], z, "shared prefix 'z'");
        let (_, pid) = crate::static1d::namemap::unpack2(t.owner.get(z).unwrap());
        assert_eq!(pid, 0);
    }

    #[test]
    fn rejects_bad_dictionaries() {
        let ctx = Ctx::seq();
        assert!(StaticTables::build(&ctx, &[]).is_err());
        assert!(StaticTables::build(&ctx, &symbolize(&["a", "a"])).is_err());
    }

    #[test]
    fn single_char_pattern_dictionary() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["a", "b"]);
        let t = StaticTables::build(&ctx, &pats).unwrap();
        assert_eq!(t.levels, 0);
        assert_eq!(t.read.ext.len(), 1);
        // ext[0] must contain (IDENTITY, name(a)) → pref("a").
        let na = t.read.sym.lookup(u32::from(b'a'), 0).unwrap();
        assert_eq!(
            t.read.ext[0].lookup(IDENTITY, na),
            Some(t.pattern_prefs[0][0])
        );
    }

    #[test]
    fn parallel_build_matches_sequential_semantics() {
        // Name values differ across executions, but the derived relations
        // (shared prefixes, longest-pattern lengths) must agree.
        let pats = symbolize(&["aab", "aabb", "ab", "bbb", "bb"]);
        let t1 = StaticTables::build(&Ctx::seq(), &pats).unwrap();
        let t2 = StaticTables::build(&Ctx::par(), &pats).unwrap();
        for p in 0..pats.len() {
            for l in 1..=pats[p].len() {
                let v1 = t1
                    .longest
                    .get(t1.pattern_prefs[p][l - 1])
                    .map(crate::static1d::namemap::unpack2);
                let v2 = t2
                    .longest
                    .get(t2.pattern_prefs[p][l - 1])
                    .map(crate::static1d::namemap::unpack2);
                assert_eq!(v1, v2, "pattern {p} prefix len {l}");
            }
        }
    }

    #[test]
    fn frozen_tables_are_sized_by_their_entries() {
        // A 4-letter dictionary has at most 16 distinct level-1 blocks,
        // however many aligned blocks its patterns hold; the frozen copy
        // must not inherit the build table's per-block provisioning.
        let mut x = 7u64;
        let pats: Vec<Vec<u32>> = (0..2000)
            .map(|i| {
                (0..8 + i % 17)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        u32::from(b"acgt"[(x >> 62) as usize])
                    })
                    .collect()
            })
            .collect();
        let m = crate::static1d::StaticMatcher::build(&Ctx::seq(), &pats).unwrap();
        let read = &m.tables().read;
        assert!(read.pair[0].len() <= 16);
        let frozen = std::iter::once(&read.sym)
            .chain(&read.pair)
            .chain(&read.ext);
        for (i, t) in frozen.enumerate() {
            let want = (4 * t.len().max(1)).next_power_of_two();
            assert_eq!(t.raw().slots_len(), want, "table {i}: {} entries", t.len());
        }
    }

    #[test]
    fn dictionary_work_is_linear() {
        // Work charged for preprocessing should be O(M) — within a small
        // constant of total size, independent of n.
        let ctx = Ctx::seq();
        let pats: Vec<Vec<u32>> = (0..64)
            .map(|i| {
                (0..128)
                    .map(|j| ((i * 131 + j * 17) % 256) as u32)
                    .collect()
            })
            .collect();
        let m_total: usize = pats.iter().map(Vec::len).sum();
        let before = ctx.cost.snapshot();
        let _t = StaticTables::build(&ctx, &pats).unwrap();
        let d = ctx.cost.snapshot().since(before);
        assert!(
            d.work <= 12 * m_total as u64,
            "dictionary work {} not O(M={m_total})",
            d.work
        );
        assert!(
            d.rounds <= 12 * (ceil_log2(128) as u64 + 2),
            "rounds {} not O(log m)",
            d.rounds
        );
    }
}
