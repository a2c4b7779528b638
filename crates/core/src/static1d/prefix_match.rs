//! Text processing: static prefix-matching (§4.1, Theorem 1) and the final
//! longest-pattern lookup (§4.2), in `O(log m)` time and `O(n log m)` work.
//!
//! The paper's recursion, unrolled:
//!
//! * **Ascent (= the spawn side of shrink-and-spawn):** compute level-`k`
//!   block names at *every* text position by doubling, resolving pairs
//!   through the dictionary tables. Reading the level-`k` array at stride
//!   `2^k` from offset `i` is exactly the paper's `i`-th spawned copy;
//!   storing all offsets in one flat array realizes all `2^k` copies in
//!   `O(n)` space per level.
//! * **Descent (= the unwinding with Extend-Right):** starting from the
//!   deepest level (where at most one block fits), maintain per position the
//!   longest matching shrunk-dictionary prefix as `(block count, prefix
//!   name)`. Arriving at level `k`, the count doubles (same characters, half
//!   the block size), and the paper's argument bounds the extension by
//!   `L − 1 = 1` block: if two more level-`k` blocks matched, one more
//!   level-`k+1` block would have matched. So each level does **one**
//!   namestamp lookup per position — `O(1)` work, `O(n)` per level,
//!   `O(n log m)` overall.
//!
//! The descent starts at `min(K, ⌊log₂ n⌋)`: at that level at most one block
//! fits in the text, so the base case ("shrunk patterns have ≤ 1 block") is
//! satisfied even when the text is shorter than the longest pattern.
//!
//! ## The sentinel fast path
//!
//! The paper names text blocks the dictionary never saw with "special
//! symbols" — realized historically by a text-local overlay table
//! allocating fresh names ≥ [`pdm_naming::TEXT_NAME_BASE`] per novel block.
//! But every consumer of those names — the next ascent level's pair lookup,
//! the descent's extension lookup — probes a *dictionary* table, which only
//! contains pairs of dictionary names, so any pair with a text-local half
//! misses identically regardless of which text-local name it carries. The
//! fast path therefore collapses all text-local names to the single
//! [`TEXT_MISS`] sentinel: no atomic pool allocation, no text-side table
//! insertions, no per-level table construction (equivalence argument in
//! DESIGN.md §11, verified by `tests/sentinel_equiv.rs`). The original
//! text-local scheme survives as [`prefix_match_ref`]/[`match_text_ref`] —
//! the proptest oracle and the bench "before" leg.

use crate::dict::{PatId, Sym};
use crate::scratch::{ensure, TextScratch};
use crate::static1d::namemap::unpack2;
use pdm_naming::{FrozenNameTable, NamePool, NameTable, IDENTITY, TEXT_MISS};
use pdm_pram::{floor_log2, Ctx};

/// Lookup interface shared by the static tables and the dynamic dictionary
/// (§6 reuses this text side verbatim against growable tables).
pub trait MatchTables: Sync {
    /// `K = ⌈log₂ m⌉` of the (current) dictionary.
    fn levels(&self) -> usize;
    /// Level-0 name of a symbol, if the dictionary contains it.
    fn sym_lookup(&self, c: Sym) -> Option<u32>;
    /// Level-`k` block name for a pair of level-`k−1` names (`1 ≤ k`).
    fn pair_lookup(&self, k: usize, a: u32, b: u32) -> Option<u32>;
    /// Extension: prefix-name extended by one level-`k` block.
    fn ext_lookup(&self, k: usize, pref: u32, block: u32) -> Option<u32>;
    /// The frozen table `pair_lookup(k, ..)` probes, when its probes are
    /// worth prefetching [`PREFETCH_DISTANCE`] positions ahead
    /// ([`FrozenPairTable::prefetch_pays`]). Tables small enough to stay in
    /// cache, and the dynamic matcher's live tables (this `None` default),
    /// run the level without look-ahead.
    ///
    /// [`FrozenPairTable::prefetch_pays`]: pdm_primitives::FrozenPairTable::prefetch_pays
    fn pair_prefetch(&self, _k: usize) -> Option<&FrozenNameTable> {
        None
    }
    /// The [`Self::ext_lookup`] counterpart of [`Self::pair_prefetch`].
    fn ext_prefetch(&self, _k: usize) -> Option<&FrozenNameTable> {
        None
    }
    /// `(pattern, length)` of the longest pattern that is a prefix of the
    /// named prefix (Theorem 2's table).
    fn longest_pattern(&self, pref: u32) -> Option<(PatId, u32)>;
    /// Some pattern having the named prefix (retrieve-index, `I_p`).
    fn owner(&self, pref: u32) -> Option<PatId>;
    /// Overlap (in symbols) a chunked text split must extend each chunk by
    /// for per-position outputs to be split-invariant — `m − 1` for a
    /// dictionary whose longest pattern has `m` symbols (every dictionary
    /// prefix at a position `i` ends within `text[i..i+m]`). `None` opts a
    /// table out of the chunk-grained parallel driver (growing tables whose
    /// `m` can move mid-call, and the reference views).
    fn chunk_overlap(&self) -> Option<usize> {
        None
    }
}

/// Per-position output of dictionary matching (the paper's output format:
/// for each location, the longest pattern that matches there; plus the
/// §4.1 prefix-matching artifacts, which the dynamic and small-alphabet
/// layers consume).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchOutput {
    /// `δ_t(τ)` length: longest dictionary prefix matching at each position.
    pub prefix_len: Vec<u32>,
    /// `δ_t(τ)`: its prefix name (`IDENTITY` when no symbol matches).
    pub prefix_name: Vec<u32>,
    /// Longest full pattern matching at each position.
    pub longest_pattern: Vec<Option<PatId>>,
    /// Its length (0 when none).
    pub longest_pattern_len: Vec<u32>,
    /// `I_p(τ)`: some pattern having the matched prefix.
    pub prefix_owner: Vec<Option<PatId>>,
}

impl MatchOutput {
    pub fn empty() -> Self {
        Self::default()
    }

    /// All `(position, pattern)` pairs with a longest-pattern match.
    pub fn occurrences(&self) -> Vec<(usize, PatId)> {
        self.longest_pattern
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .collect()
    }

    fn clear(&mut self) {
        self.prefix_len.clear();
        self.prefix_name.clear();
        self.longest_pattern.clear();
        self.longest_pattern_len.clear();
        self.prefix_owner.clear();
    }
}

/// Phase-1 result, exposed separately for layers that only need prefixes.
#[derive(Debug, Clone, Default)]
pub struct PrefixMatch {
    pub len: Vec<u32>,
    pub name: Vec<u32>,
}

/// Append into `dst`, counting a grow event if capacity was insufficient.
#[inline]
fn extend_counted<T>(dst: &mut Vec<T>, n: usize, it: impl Iterator<Item = T>, grows: &mut u64) {
    if dst.capacity() - dst.len() < n {
        *grows += 1;
    }
    dst.extend(it);
}

/// How many positions ahead of its probe every ascent and descent level
/// prefetches (DESIGN.md §11). Within a level the probes of different
/// positions are independent, so this many table misses can be in flight
/// at once; 16 measured fastest on the dense genome stream.
pub const PREFETCH_DISTANCE: usize = 16;

/// The loop body of every ascent and descent level, over one contiguous
/// block of positions: position `j`'s table probe is `key(j, blk[j])`
/// (`None` when it needs none). With a `prefetch` table, before probing
/// position `j` the loop prefetches the probe of position
/// `j + PREFETCH_DISTANCE`, if that position lies in the block.
#[inline(always)]
fn probe_ahead<S: Copy>(
    blk: &mut [S],
    key: impl Fn(usize, S) -> Option<(u32, u32)>,
    prefetch: Option<&FrozenNameTable>,
    probe: impl Fn(S, Option<(u32, u32)>) -> S,
) {
    let Some(table) = prefetch else {
        for (j, s) in blk.iter_mut().enumerate() {
            *s = probe(*s, key(j, *s));
        }
        return;
    };
    for j in 0..blk.len() {
        if let Some(&ahead) = blk.get(j + PREFETCH_DISTANCE) {
            if let Some((a, b)) = key(j + PREFETCH_DISTANCE, ahead) {
                table.prefetch(a, b);
            }
        }
        let s = blk[j];
        blk[j] = probe(s, key(j, s));
    }
}

/// Sentinel-named ascent + descent: leaves `(blocks, prefix-name)` per
/// position in `scratch.state`. Shared by the prefix-only and full paths.
fn ascend_descend<T: MatchTables>(ctx: &Ctx, tables: &T, text: &[Sym], scratch: &mut TextScratch) {
    let n = text.len();
    let kt = tables.levels().min(floor_log2(n) as usize);
    if scratch.levels.len() <= kt {
        scratch.levels.resize_with(kt + 1, Vec::new);
    }
    let mut grows = 0u64;
    let mut lookups = 0u64;

    // Ascent: block names at every position, per level; any pair with a
    // text-local (= sentinel) half misses every dictionary table, so it
    // *is* the sentinel at the next level too.
    ctx.cost.phase("text/ascent", || {
        let l0 = &mut scratch.levels[0];
        ensure(l0, n, &mut grows);
        ctx.for_each_mut(l0, |i, v| {
            *v = tables.sym_lookup(text[i]).unwrap_or(TEXT_MISS);
        });
        lookups += n as u64;
        for k in 1..=kt {
            let half = 1usize << (k - 1);
            let cnt = n + 1 - (1usize << k);
            let (lower, upper) = scratch.levels.split_at_mut(k);
            let prev = &lower[k - 1];
            let cur = &mut upper[0];
            ensure(cur, cnt, &mut grows);
            ctx.for_each_block_mut(cur, |base, blk| {
                probe_ahead(
                    blk,
                    |j, _| {
                        let (a, b) = (prev[base + j], prev[base + j + half]);
                        (a != TEXT_MISS && b != TEXT_MISS).then_some((a, b))
                    },
                    tables.pair_prefetch(k),
                    |_, key| {
                        key.and_then(|(a, b)| tables.pair_lookup(k, a, b))
                            .unwrap_or(TEXT_MISS)
                    },
                );
            });
            lookups += cnt as u64;
        }
    });

    // Descent: (blocks, prefix-name) per position; one extension per level.
    ctx.cost.phase("text/descent", || {
        ensure(&mut scratch.state, n, &mut grows); // default = (0, IDENTITY)
        for k in (0..=kt).rev() {
            let lvl = &scratch.levels[k];
            let span = 1usize << k;
            let blocks = |st: (u32, u32)| if k == kt { 0 } else { st.0 << 1 };
            ctx.for_each_block_mut(&mut scratch.state, |base, blk| {
                probe_ahead(
                    blk,
                    |j, st| {
                        let at = base + j + ((blocks(st) as usize) << k);
                        let block = if at + span <= n { lvl[at] } else { TEXT_MISS };
                        (block != TEXT_MISS).then_some((st.1, block))
                    },
                    tables.ext_prefetch(k),
                    |st, key| {
                        let b = blocks(st);
                        match key.and_then(|(pref, block)| tables.ext_lookup(k, pref, block)) {
                            Some(np) => (b + 1, np),
                            None => (b, st.1),
                        }
                    },
                );
            });
            lookups += n as u64;
        }
    });

    scratch.grows += grows;
    scratch.lookups += lookups;
}

/// Static prefix-matching (§4.1) into caller-owned buffers: `out` is
/// overwritten, `scratch` buffers are reused across calls (zero steady-state
/// allocation).
pub fn prefix_match_into<T: MatchTables>(
    ctx: &Ctx,
    tables: &T,
    text: &[Sym],
    scratch: &mut TextScratch,
    out: &mut PrefixMatch,
) {
    let n = text.len();
    out.len.clear();
    out.name.clear();
    if n == 0 {
        return;
    }
    ascend_descend(ctx, tables, text, scratch);
    let mut grows = 0u64;
    extend_counted(
        &mut out.len,
        n,
        scratch.state.iter().map(|s| s.0),
        &mut grows,
    );
    extend_counted(
        &mut out.name,
        n,
        scratch.state.iter().map(|s| s.1),
        &mut grows,
    );
    scratch.grows += grows;
}

/// Static prefix-matching (§4.1): longest dictionary prefix per position.
pub fn prefix_match<T: MatchTables>(ctx: &Ctx, tables: &T, text: &[Sym]) -> PrefixMatch {
    let mut scratch = TextScratch::new();
    let mut out = PrefixMatch::default();
    prefix_match_into(ctx, tables, text, &mut scratch, &mut out);
    out
}

/// Full dictionary matching (phase 1 + the longest-pattern lookup) into
/// caller-owned buffers: `out` is overwritten, `scratch` is reused.
pub fn match_text_into<T: MatchTables>(
    ctx: &Ctx,
    tables: &T,
    text: &[Sym],
    scratch: &mut TextScratch,
    out: &mut MatchOutput,
) {
    let n = text.len();
    out.clear();
    if n == 0 {
        return;
    }
    let mut grows = 0u64;
    let mut pats = std::mem::take(&mut scratch.pats);
    ensure(&mut pats, n, &mut grows);
    descend_into(ctx, tables, text, scratch, &mut pats, |blocks, name| {
        if blocks == 0 {
            return (None, 0, None);
        }
        let owner = tables.owner(name);
        match tables.longest_pattern(name) {
            Some((pid, plen)) => (Some(pid), plen, owner),
            None => (None, 0, owner),
        }
    });
    let state = &scratch.state;
    extend_counted(
        &mut out.prefix_len,
        n,
        state.iter().map(|s| s.0),
        &mut grows,
    );
    extend_counted(
        &mut out.prefix_name,
        n,
        state.iter().map(|s| s.1),
        &mut grows,
    );
    extend_counted(
        &mut out.longest_pattern,
        n,
        pats.iter().map(|p| p.0),
        &mut grows,
    );
    extend_counted(
        &mut out.longest_pattern_len,
        n,
        pats.iter().map(|p| p.1),
        &mut grows,
    );
    extend_counted(
        &mut out.prefix_owner,
        n,
        pats.iter().map(|p| p.2),
        &mut grows,
    );
    scratch.pats = pats;
    scratch.grows += grows;
}

/// Theorem 1's ascent and descent over `text`, then the §4.2
/// `text/longest-lookup` round, which sets `out[i] = at(blocks, name)`
/// from the descent state `(blocks, prefix name)` of each position `i`
/// (`out.len() == text.len()`), left in `scratch.state`. The round is
/// charged as `n` table lookups whatever `at` probes, so every caller
/// reports the same counts. Runs chunk-grained when [`chunk_grain`] says
/// so: each coarse job then runs the whole pipeline sequentially over an
/// overlap-extended slice in a child scratch and writes its proper range
/// of the state and of `out`.
pub(crate) fn descend_into<T: MatchTables, O: Send>(
    ctx: &Ctx,
    tables: &T,
    text: &[Sym],
    scratch: &mut TextScratch,
    out: &mut [O],
    at: impl Fn(u32, u32) -> O + Sync + Send,
) {
    let n = text.len();
    debug_assert_eq!(out.len(), n);
    let Some(k) = chunk_grain(ctx, tables, n) else {
        ascend_descend(ctx, tables, text, scratch);
        let state = &scratch.state;
        ctx.cost.phase("text/longest-lookup", || {
            ctx.for_each_mut(out, |i, o| *o = at(state[i].0, state[i].1));
        });
        scratch.lookups += n as u64;
        return;
    };
    descend_chunk_grained(ctx, tables, text, scratch, out, &at, k);
}

/// How many coarse chunks a parallel match of `n` symbols should split
/// into, or `None` to run the per-level fine-grained rounds. The per-level
/// rounds dispatch the pool `~3·log m` times per call; on short rounds the
/// wake/park handshake dominates and parallel runs *slower* than
/// sequential (BENCH_text.json's par-width-2 static1d regression). A
/// chunk-grained split pays one dispatch for the whole call instead.
fn chunk_grain<T: MatchTables>(ctx: &Ctx, tables: &T, n: usize) -> Option<usize> {
    if !ctx.is_parallel() || n <= pdm_pram::MIN_CHUNK {
        return None;
    }
    let overlap = tables.chunk_overlap()?;
    // A chunk must dwarf both its overlap (redundant boundary work) and
    // the dispatch threshold for the split to pay.
    let min_chunk = (4 * overlap).max(pdm_pram::MIN_CHUNK);
    let k = ctx.exec.threads().min(n / min_chunk);
    (k >= 2).then_some(k)
}

/// The chunk-grained half of [`descend_into`]: one pool round of `k`
/// coarse jobs. Outputs are identical to the whole-text call: every
/// dictionary prefix starting in a chunk ends within its `m − 1` overlap
/// (the [`StaticMatcher::match_text_chunked`](crate::static1d::StaticMatcher)
/// argument), and chunks partition `[0, n)`. Per-chunk scratch lives in
/// `scratch.children`, so steady-state calls stay allocation-free.
fn descend_chunk_grained<T: MatchTables, O: Send>(
    ctx: &Ctx,
    tables: &T,
    text: &[Sym],
    scratch: &mut TextScratch,
    out: &mut [O],
    at: &(impl Fn(u32, u32) -> O + Sync + Send),
    k: usize,
) {
    let n = text.len();
    let overlap = tables.chunk_overlap().unwrap_or(0);
    let chunk = n.div_ceil(k);
    let mut grows = 0u64;

    let mut children = std::mem::take(&mut scratch.children);
    if children.len() < k {
        children.resize_with(k, TextScratch::default);
        grows += 1;
    }

    struct Job<'a, O> {
        text: &'a [Sym],
        scratch: &'a mut TextScratch,
        state: &'a mut [(u32, u32)],
        out: &'a mut [O],
        /// Sequential, with a cost model of its own: jobs run at once, so
        /// they charge apart and are absorbed in chunk order afterwards.
        ctx: Ctx,
    }

    ensure(&mut scratch.state, n, &mut grows);
    let mut jobs: Vec<Job<O>> = Vec::with_capacity(k);
    {
        let (mut state, mut rest) = (&mut scratch.state[..], out);
        let mut from = 0usize;
        for child in children.iter_mut().take(k) {
            let end = (from + chunk).min(n);
            let (my_state, state_tail) = state.split_at_mut(end - from);
            let (mine, tail) = rest.split_at_mut(end - from);
            (state, rest) = (state_tail, tail);
            jobs.push(Job {
                text: &text[from..(end + overlap).min(n)],
                scratch: child,
                state: my_state,
                out: mine,
                ctx: Ctx::seq(),
            });
            from = end;
            if from >= n {
                break;
            }
        }
    }

    ctx.for_each_mut_ops(&mut jobs, n as u64, |_, job| {
        // Each job runs the whole pipeline sequentially and writes its
        // proper range in place; the lookup skips the overlap tail.
        ascend_descend(&job.ctx, tables, job.text, job.scratch);
        job.state
            .copy_from_slice(&job.scratch.state[..job.state.len()]);
        let state = &job.state;
        job.ctx.cost.phase("text/longest-lookup", || {
            for (o, &(blocks, name)) in job.out.iter_mut().zip(state.iter()) {
                *o = at(blocks, name);
            }
        });
        job.scratch.lookups += job.out.len() as u64;
    });
    for job in jobs {
        ctx.cost.absorb(&job.ctx.cost);
    }

    // Fold child counters into the session scratch (drain-to-zero so the
    // caller's per-call deltas stay meaningful).
    for child in &mut children {
        grows += std::mem::take(&mut child.grows);
        scratch.lookups += std::mem::take(&mut child.lookups);
    }
    scratch.children = children;
    scratch.grows += grows;
}

/// Full dictionary matching: phase 1 + the longest-pattern lookup.
pub fn match_text<T: MatchTables>(ctx: &Ctx, tables: &T, text: &[Sym]) -> MatchOutput {
    let mut scratch = TextScratch::new();
    let mut out = MatchOutput::empty();
    match_text_into(ctx, tables, text, &mut scratch, &mut out);
    out
}

/// Reference prefix-matching with the pre-sentinel text-local naming
/// scheme: novel text blocks get fresh names from a per-call text-local
/// pool, with per-level overlay tables and per-level allocation. Kept as
/// the equivalence oracle for the sentinel fast path (`sentinel_equiv`
/// proptests) and the "before" leg of the `text_throughput` bench.
pub fn prefix_match_ref<T: MatchTables>(ctx: &Ctx, tables: &T, text: &[Sym]) -> PrefixMatch {
    let n = text.len();
    if n == 0 {
        return PrefixMatch::default();
    }
    let kt = tables.levels().min(floor_log2(n) as usize);
    let text_pool = NamePool::text_local();

    // Ascent: block names at every position, per level.
    let mut names: Vec<Vec<u32>> = Vec::with_capacity(kt + 1);
    ctx.cost.phase("text/ascent", || {
        let local0 = NameTable::with_capacity(n, text_pool.clone());
        names.push(ctx.map(n, |i| {
            tables
                .sym_lookup(text[i])
                .unwrap_or_else(|| local0.name(text[i], 0))
        }));
        for k in 1..=kt {
            let half = 1usize << (k - 1);
            let cnt = n + 1 - (1usize << k);
            let prev = &names[k - 1];
            let local = NameTable::with_capacity(cnt, text_pool.clone());
            let lvl = ctx.map(cnt, |i| {
                let (a, b) = (prev[i], prev[i + half]);
                let dict = if NamePool::is_text_local(a) || NamePool::is_text_local(b) {
                    None
                } else {
                    tables.pair_lookup(k, a, b)
                };
                dict.unwrap_or_else(|| local.name(a, b))
            });
            names.push(lvl);
        }
    });

    // Descent: (blocks, prefix-name) per position; one extension per level.
    let mut state: Vec<(u32, u32)> = vec![(0, IDENTITY); n];
    ctx.cost.phase("text/descent", || {
        for k in (0..=kt).rev() {
            let lvl = &names[k];
            let span = 1usize << k;
            ctx.for_each_mut(&mut state, |i, st| {
                let mut b = if k == kt { 0 } else { st.0 << 1 };
                let mut pref = st.1;
                let clen = (b as usize) << k;
                if i + clen + span <= n {
                    let block = lvl[i + clen];
                    if !NamePool::is_text_local(block) {
                        if let Some(np) = tables.ext_lookup(k, pref, block) {
                            pref = np;
                            b += 1;
                        }
                    }
                }
                *st = (b, pref);
            });
        }
    });

    PrefixMatch {
        len: state.iter().map(|s| s.0).collect(),
        name: state.iter().map(|s| s.1).collect(),
    }
}

/// Reference full matching on top of [`prefix_match_ref`] (see there).
pub fn match_text_ref<T: MatchTables>(ctx: &Ctx, tables: &T, text: &[Sym]) -> MatchOutput {
    let n = text.len();
    if n == 0 {
        return MatchOutput::empty();
    }
    let pm = prefix_match_ref(ctx, tables, text);
    let mut out = MatchOutput {
        prefix_len: pm.len,
        prefix_name: pm.name,
        longest_pattern: vec![None; n],
        longest_pattern_len: vec![0; n],
        prefix_owner: vec![None; n],
    };
    ctx.cost.phase("text/longest-lookup", || {
        let names = &out.prefix_name;
        let lens = &out.prefix_len;
        let pats: Vec<(Option<PatId>, u32, Option<PatId>)> = ctx.map(n, |i| {
            if lens[i] == 0 {
                return (None, 0, None);
            }
            let owner = tables.owner(names[i]);
            match tables.longest_pattern(names[i]) {
                Some((pid, plen)) => (Some(pid), plen, owner),
                None => (None, 0, owner),
            }
        });
        for (i, (p, l, o)) in pats.into_iter().enumerate() {
            out.longest_pattern[i] = p;
            out.longest_pattern_len[i] = l;
            out.prefix_owner[i] = o;
        }
    });
    out
}

/// Glue for `MatchTables` implementors backed by [`super::tables::StaticTables`]:
/// all text-side lookups route through the frozen read path (dense symbol
/// map when available, atomics-free open addressing otherwise).
impl MatchTables for super::tables::StaticTables {
    fn levels(&self) -> usize {
        self.levels
    }

    #[inline]
    fn sym_lookup(&self, c: Sym) -> Option<u32> {
        if let Some(d) = &self.read.sym_dense {
            let v = d.get(c as usize).copied().unwrap_or(IDENTITY);
            return (v != IDENTITY).then_some(v);
        }
        self.read.sym.lookup(c, 0)
    }

    #[inline]
    fn pair_lookup(&self, k: usize, a: u32, b: u32) -> Option<u32> {
        self.read.pair[k - 1].lookup(a, b)
    }

    #[inline]
    fn ext_lookup(&self, k: usize, pref: u32, block: u32) -> Option<u32> {
        self.read.ext[k].lookup(pref, block)
    }

    fn pair_prefetch(&self, k: usize) -> Option<&FrozenNameTable> {
        let t = &self.read.pair[k - 1];
        t.raw().prefetch_pays().then_some(t)
    }

    fn ext_prefetch(&self, k: usize) -> Option<&FrozenNameTable> {
        let t = &self.read.ext[k];
        t.raw().prefetch_pays().then_some(t)
    }

    fn longest_pattern(&self, pref: u32) -> Option<(PatId, u32)> {
        self.longest.get(pref).map(|v| {
            let (len, pid) = unpack2(v);
            (pid, len)
        })
    }

    fn owner(&self, pref: u32) -> Option<PatId> {
        self.owner.get(pref).map(|v| unpack2(v).1)
    }

    fn chunk_overlap(&self) -> Option<usize> {
        Some(self.max_len.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::{symbolize, to_symbols};
    use crate::static1d::StaticMatcher;

    #[test]
    fn match_output_empty_shape() {
        let e = MatchOutput::empty();
        assert!(e.prefix_len.is_empty());
        assert!(e.occurrences().is_empty());
    }

    #[test]
    fn occurrences_lists_longest_matches_only() {
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &symbolize(&["ab", "abc"])).unwrap();
        let out = m.match_text(&ctx, &to_symbols("xabcab"));
        assert_eq!(out.occurrences(), vec![(1, 1), (4, 0)]);
    }

    #[test]
    fn prefix_match_standalone_agrees_with_full_match() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["he", "hers"]);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let text = to_symbols("hershey");
        let pm = m.prefix_match(&ctx, &text);
        let full = m.match_text(&ctx, &text);
        assert_eq!(pm.len, full.prefix_len);
        assert_eq!(pm.name, full.prefix_name);
    }

    #[test]
    fn descent_starts_below_dictionary_levels_for_short_texts() {
        // m = 16 (K = 4) but the text has 3 symbols: the descent must clamp
        // to ⌊log₂ 3⌋ = 1 and still be correct.
        let ctx = Ctx::seq();
        let pats = symbolize(&["abcdefghijklmnop", "ab", "b"]);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let out = m.match_text(&ctx, &to_symbols("abz"));
        assert_eq!(out.longest_pattern[0], Some(1));
        assert_eq!(out.longest_pattern[1], Some(2));
        assert_eq!(out.prefix_len[2], 0);
    }

    #[test]
    fn sentinel_path_equals_text_local_reference() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["he", "she", "his", "hers", "xyzzy"]);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let text = to_symbols("ushers love xyzzy and xyzzx");
        let fast = match_text(&ctx, m.tables(), &text);
        let slow = match_text_ref(&ctx, m.tables(), &text);
        assert_eq!(fast, slow);
    }

    #[test]
    fn scratch_reuse_is_allocation_free_in_steady_state() {
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &symbolize(&["ab", "abc", "zzz"])).unwrap();
        let mut scratch = TextScratch::new();
        let mut out = MatchOutput::empty();
        let text = to_symbols("xabcabzzzab");
        match_text_into(&ctx, m.tables(), &text, &mut scratch, &mut out);
        let warm = scratch.grow_events();
        assert!(warm > 0, "first call must grow the buffers");
        for _ in 0..10 {
            match_text_into(&ctx, m.tables(), &text, &mut scratch, &mut out);
        }
        assert_eq!(
            scratch.grow_events(),
            warm,
            "steady-state calls must not allocate"
        );
        assert!(scratch.table_lookups() > 0);
    }
}
