//! Dynamic dictionary matching (paper §6, Theorems 7–10).
//!
//! * **insert** (§6.1): run the dictionary side of the §4 algorithm on the
//!   new pattern alone against *shared growable* tables (partly-dynamic
//!   namestamping): `O(λ)` new table entries — the per-level block, fold and
//!   extension entries form a geometric series — plus the trie path and its
//!   marked-ancestor bookkeeping.
//! * **delete** (§6.2): the pattern is only *unmarked*; its table entries
//!   are reference-counted away (dynamic stamp-counting), its retrieve-index
//!   stamps removed (dynamic stamp-listing). When the live size drops below
//!   half of everything inserted since the last rebuild, the dictionary is
//!   squeezed out and rebuilt — the paper's amortization, verbatim.
//! * **match**: exactly the static text-side algorithm (`O(log m)` time,
//!   `O(n log m)` work) running against the current tables through the
//!   [`MatchTables`] trait, plus trie marked-ancestor lookups for the
//!   longest-pattern layer.
//!
//! ```
//! use pdm_core::dynamic::DynamicMatcher;
//! use pdm_core::dict::to_symbols;
//! use pdm_pram::Ctx;
//!
//! let ctx = Ctx::seq();
//! let mut d = DynamicMatcher::new();
//! let he = d.insert(&ctx, &to_symbols("he")).unwrap();
//! d.insert(&ctx, &to_symbols("hers")).unwrap();
//! let out = d.match_text(&ctx, &to_symbols("ushers"));
//! assert_eq!(out.longest_pattern[2], Some(1)); // "hers"
//! d.delete(&ctx, &to_symbols("hers")).unwrap();
//! let out = d.match_text(&ctx, &to_symbols("ushers"));
//! assert_eq!(out.longest_pattern[2], Some(he)); // now "he"
//! ```

pub mod ancestor;
pub mod trie;

use crate::dict::{PatId, Sym};
use crate::static1d::tables::ReadTables;
use crate::static1d::{self, MatchOutput, MatchTables, PrefixMatch, StaticMatcher, StaticTables};
use pdm_naming::dynamic::{DynTable, StampList};
use pdm_naming::prefix::{dyadic_names, fold_step};
use pdm_naming::{FrozenNameTable, NamePool, IDENTITY};
use pdm_pram::{ceil_log2, Ctx};
use pdm_primitives::table::unpack;
use pdm_primitives::{FrozenPairTable, FxHashMap};
use std::sync::Arc;
use trie::PatternTrie;

/// Errors from dynamic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynError {
    EmptyPattern,
    /// Insert of a pattern already live in the dictionary.
    AlreadyPresent(PatId),
    /// Delete of a pattern that is not live.
    NotFound,
}

impl std::fmt::Display for DynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynError::EmptyPattern => write!(f, "empty pattern"),
            DynError::AlreadyPresent(p) => write!(f, "pattern already present as id {p}"),
            DynError::NotFound => write!(f, "pattern not in dictionary"),
        }
    }
}

impl std::error::Error for DynError {}

/// How [`DynamicMatcher::freeze`] produced its frozen `sym`/`pair`/`ext`
/// tables — the costliest route any one table took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FreezeRoute {
    /// Every table was patched in place (or had nothing to patch): no
    /// reader still held the copy published two freezes ago.
    InPlace,
    /// Some table was patched on a fresh copy of its slot arrays, because
    /// an epoch still held the copy (or no second copy existed yet).
    Copied,
    /// Some table was re-frozen from its entries: the first freeze, one
    /// after a squeeze-out rebuild, a new level, or an entry count that
    /// changes the table's slot count.
    Refrozen,
}

/// One frozen copy of the text-side tables, up to the `K` it was frozen
/// at. Its tables share their slot arrays with the epoch that published
/// them.
#[derive(Debug, Clone)]
struct FrozenCopy {
    sym: FrozenNameTable,
    pair: Vec<FrozenNameTable>,
    ext: Vec<FrozenNameTable>,
}

/// The two frozen copies [`DynamicMatcher::freeze`] alternates between.
/// Each freeze marks every table's change log, so a table's
/// [`DynTable::logged`] keys are exactly what `older` lacks.
#[derive(Debug)]
struct FrozenCopies {
    /// Published by the freeze before last (`None` after the first
    /// freeze): what the next freeze patches.
    older: Option<FrozenCopy>,
    /// Published by the last freeze.
    newer: FrozenCopy,
}

/// Fully dynamic dictionary matcher (insert + delete + match). Using only
/// `insert`/`match_text` gives the partly dynamic variant of §6.1.
///
/// [`Self::freeze`] copies the live dictionary into the static matcher's
/// read-only form, which serves while this matcher keeps taking updates.
#[derive(Debug)]
pub struct DynamicMatcher {
    pool: Arc<NamePool>,
    /// `K`: tables exist for levels `1..=levels` (grows with insertions).
    levels: usize,
    sym: DynTable,
    pair: Vec<DynTable>,
    fold: DynTable,
    ext: Vec<DynTable>,
    trie: PatternTrie,
    /// prefix name → trie node.
    pref_node: FxHashMap<u32, u32>,
    /// prefix name → live patterns carrying it (stamp-listing; the
    /// retrieve-index table).
    owners: StampList,
    /// Slot per assigned id; `None` = deleted.
    patterns: Vec<Option<Vec<Sym>>>,
    /// Prefix names per assigned id (empty once deleted): what
    /// [`Self::freeze`] hands the static form as its `pattern_prefs`.
    prefs: Vec<Vec<u32>>,
    /// full-prefix name → live pattern.
    name_to_pat: FxHashMap<u32, PatId>,
    live_syms: usize,
    total_syms: usize,
    rebuilds: usize,
    /// Frozen copies kept for the next [`Self::freeze`] to patch; while
    /// they exist, the `sym`/`pair`/`ext` tables log their changes.
    frozen: Option<FrozenCopies>,
}

impl Default for DynamicMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicMatcher {
    /// An empty dictionary.
    pub fn new() -> Self {
        let pool = NamePool::dictionary();
        DynamicMatcher {
            sym: DynTable::new(pool.clone()),
            fold: DynTable::new(pool.clone()),
            pool,
            levels: 0,
            pair: Vec::new(),
            ext: vec![],
            trie: PatternTrie::new(),
            pref_node: FxHashMap::default(),
            owners: StampList::new(),
            patterns: Vec::new(),
            prefs: Vec::new(),
            name_to_pat: FxHashMap::default(),
            live_syms: 0,
            total_syms: 0,
            rebuilds: 0,
            frozen: None,
        }
    }

    /// Start from an initial dictionary `D₀`.
    pub fn with_dictionary(ctx: &Ctx, patterns: &[Vec<Sym>]) -> Result<Self, DynError> {
        let mut d = Self::new();
        for p in patterns {
            d.insert(ctx, p)?;
        }
        Ok(d)
    }

    /// Number of live (inserted, not deleted) patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.iter().filter(|p| p.is_some()).count()
    }

    /// Total live symbols (`M` of the current dictionary).
    pub fn symbol_count(&self) -> usize {
        self.live_syms
    }

    /// Longest live pattern length (`m`; 0 when the dictionary is empty).
    pub fn max_pattern_len(&self) -> usize {
        self.patterns
            .iter()
            .flatten()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Squeeze-out rebuilds performed so far (E8 diagnostics).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Current table entries across all levels (space diagnostics).
    pub fn table_entry_count(&self) -> usize {
        self.sym.len()
            + self.fold.len()
            + self.pair.iter().map(DynTable::len).sum::<usize>()
            + self.ext.iter().map(DynTable::len).sum::<usize>()
    }

    /// Insert a pattern; returns its id. `O(λ)` table work, `O(log λ)` time
    /// on the PRAM schedule (Theorem 7), plus `O(λ log M)`-style trie
    /// bookkeeping (Theorem 8).
    pub fn insert(&mut self, ctx: &Ctx, pattern: &[Sym]) -> Result<PatId, DynError> {
        if pattern.is_empty() {
            return Err(DynError::EmptyPattern);
        }
        if let Some(node) = self.trie.find(pattern) {
            if let Some(pid) = self.trie.pattern_at(node) {
                return Err(DynError::AlreadyPresent(pid));
            }
        }
        let pid = self.patterns.len() as PatId;
        self.patterns.push(Some(pattern.to_vec()));
        self.prefs.push(Vec::new());
        self.insert_into_tables(ctx, pid);
        Ok(pid)
    }

    /// Delete a live pattern by content; returns the id it had.
    /// Amortized `O(λ)` table work (stamp-counting) + rebuild amortization.
    pub fn delete(&mut self, ctx: &Ctx, pattern: &[Sym]) -> Result<PatId, DynError> {
        let node = self.trie.find(pattern).ok_or(DynError::NotFound)?;
        let pid = self.trie.pattern_at(node).ok_or(DynError::NotFound)?;
        self.release_from_tables(ctx, pid, node);
        self.patterns[pid as usize] = None;
        if self.live_syms * 2 < self.total_syms {
            self.rebuild(ctx);
        }
        Ok(pid)
    }

    /// Batch insert (paper §6.1.1: "our description carries over to the
    /// case when several pattern strings are inserted simultaneously").
    /// Per-pattern results in input order; later duplicates of earlier
    /// batch members fail individually, earlier successes stand.
    pub fn insert_batch(
        &mut self,
        ctx: &Ctx,
        patterns: &[Vec<Sym>],
    ) -> Vec<Result<PatId, DynError>> {
        patterns.iter().map(|p| self.insert(ctx, p)).collect()
    }

    /// Batch delete; at most one squeeze-out rebuild at the end instead of
    /// per-delete checks (the batched amortization of §6.2.1).
    pub fn delete_batch(
        &mut self,
        ctx: &Ctx,
        patterns: &[Vec<Sym>],
    ) -> Vec<Result<PatId, DynError>> {
        let out = patterns
            .iter()
            .map(|p| {
                let node = self.trie.find(p).ok_or(DynError::NotFound)?;
                let pid = self.trie.pattern_at(node).ok_or(DynError::NotFound)?;
                self.release_from_tables(ctx, pid, node);
                self.patterns[pid as usize] = None;
                Ok(pid)
            })
            .collect();
        if self.live_syms * 2 < self.total_syms {
            self.rebuild(ctx);
        }
        out
    }

    /// Match a text against the *current* dictionary (Theorem 8/10 output:
    /// longest live pattern per position).
    pub fn match_text(&self, ctx: &Ctx, text: &[Sym]) -> MatchOutput {
        static1d::match_text(ctx, self, text)
    }

    /// Phase 1 only (Theorems 7/9): longest live dictionary prefix per
    /// position.
    pub fn prefix_match(&self, ctx: &Ctx, text: &[Sym]) -> PrefixMatch {
        static1d::prefix_match(ctx, self, text)
    }

    // ---- internals ---------------------------------------------------------

    /// Aligned block names and prefix names of a live pattern, by pure
    /// lookups (every entry is present while the pattern is live).
    fn lookup_names(&self, pattern: &[Sym]) -> (Vec<Vec<u32>>, Vec<u32>) {
        dyadic_names(
            pattern,
            |c| self.sym.lookup(c, 0).expect("sym entry present"),
            |k, x, y| self.pair[k - 1].lookup(x, y).expect("pair entry present"),
            |a, b| self.fold.lookup(a, b).expect("fold entry present"),
        )
    }

    /// Freeze the live dictionary into the static matcher's read-only form
    /// — what a matcher cold-loaded from a snapshot sidecar has: frozen
    /// copies of the symbol, pair and extension tables up to the live
    /// `K = ⌈log₂ m⌉`, the Theorem 2 attribution maps, and the prefix
    /// chains. `order[i]` is the id (from [`Self::insert`]) of the live
    /// pattern that becomes pattern `i` of the result; it must list every
    /// live pattern once. Matching through the result is the static text
    /// side verbatim (Theorems 8 and 10: "as static"), with no naming
    /// rounds. The result carries no prefilter.
    ///
    /// The frozen tables cost what changed since they were last frozen,
    /// not the dictionary: this matcher keeps the tables of the last two
    /// freezes and patches the older copy — published two freezes ago —
    /// with the keys its tables created or removed since
    /// ([`FrozenNameTable::patch`]): in place once no epoch holds that copy
    /// any more, on a copy of the arrays otherwise. A table is re-frozen
    /// from its entries only on the first freeze, after a squeeze-out
    /// rebuild, at a level the copy lacks, or when its entry count changes
    /// its slot count. The attribution maps, chains and prefix lists stay
    /// `O(M)` per freeze: a removal renumbers the canonical ids they hold.
    pub fn freeze(&mut self, order: &[PatId]) -> (StaticMatcher, FreezeRoute) {
        assert!(!order.is_empty(), "an empty dictionary has no static form");
        debug_assert_eq!(
            order.len(),
            self.pattern_count(),
            "order lists every live pattern"
        );
        let prefs: Vec<Vec<u32>> = order
            .iter()
            .map(|&id| {
                debug_assert!(
                    self.patterns[id as usize].is_some(),
                    "order lists live patterns"
                );
                self.prefs[id as usize].clone()
            })
            .collect();
        let max_len = prefs.iter().map(Vec::len).max().unwrap_or(0);
        let levels = ceil_log2(max_len) as usize;
        debug_assert!(
            self.pair[levels..].iter().all(DynTable::is_empty)
                && self.ext[levels + 1..].iter().all(DynTable::is_empty),
            "levels above the live K hold no entries"
        );
        let (copy, route) = self.refresh_frozen(levels);
        let read = ReadTables::from_frozen(copy.sym, copy.pair, copy.ext);
        let m = StaticMatcher::from_frozen_tables(StaticTables::from_read_parts(
            read,
            prefs,
            self.fold.len(),
            self.pool.allocated(),
        ));
        (m, route)
    }

    /// The `sym`, `pair` and `ext` tables: the ones frozen copies mirror.
    fn tables_mut(&mut self) -> impl Iterator<Item = &mut DynTable> {
        std::iter::once(&mut self.sym)
            .chain(self.pair.iter_mut())
            .chain(self.ext.iter_mut())
    }

    /// A new level table, logging from the start if frozen copies exist.
    fn new_table(&self) -> DynTable {
        let mut t = DynTable::new(self.pool.clone());
        if self.frozen.is_some() {
            t.mark_log();
        }
        t
    }

    /// Bring the older frozen copy (or, right after the first freeze, a
    /// clone of the newer one) up to the live tables at `levels`, table by
    /// table, and rotate it in as the newer copy. Returns it for
    /// publishing — its arrays shared with the copy kept here — and the
    /// costliest route a table took.
    fn refresh_frozen(&mut self, levels: usize) -> (FrozenCopy, FreezeRoute) {
        // The base is moved, never cloned, unless it is the only copy: a
        // clone shares the arrays and sends every patch onto a copy. A
        // fresh log (right after the first freeze) holds exactly what the
        // newer copy lacks.
        let (base, newer) = match self.frozen.take() {
            None => (None, None),
            Some(FrozenCopies {
                older: Some(older),
                newer,
            }) => (Some(older), Some(newer)),
            Some(FrozenCopies { older: None, newer }) => (Some(newer.clone()), Some(newer)),
        };
        let (base_sym, base_pair, base_ext) = match base {
            Some(FrozenCopy { sym, pair, ext }) => (Some(sym), pair, ext),
            None => (None, Vec::new(), Vec::new()),
        };
        let (mut base_pair, mut base_ext) = (base_pair.into_iter(), base_ext.into_iter());
        let mut route = FreezeRoute::InPlace;
        let sym = refresh(base_sym, &self.sym, &mut route);
        let pair = (0..levels)
            .map(|k| refresh(base_pair.next(), &self.pair[k], &mut route))
            .collect();
        let ext = (0..=levels)
            .map(|k| refresh(base_ext.next(), &self.ext[k], &mut route))
            .collect();
        let fresh = FrozenCopy { sym, pair, ext };
        self.frozen = Some(FrozenCopies {
            older: newer,
            newer: fresh.clone(),
        });
        self.tables_mut().for_each(DynTable::mark_log);
        (fresh, route)
    }

    fn insert_into_tables(&mut self, ctx: &Ctx, pid: PatId) {
        let pattern = self.patterns[pid as usize].clone().expect("live slot");
        let lam = pattern.len();
        // Grow level structure as the longest pattern grows (no rebuild
        // needed: higher levels start empty and only this pattern fills
        // them).
        let needed = ceil_log2(lam) as usize;
        while self.levels < needed {
            self.pair.push(self.new_table());
            self.levels += 1;
        }
        while self.ext.len() < self.levels + 1 {
            self.ext.push(self.new_table());
        }
        let (blocks, prefs) = dyadic_names(
            &pattern,
            |c| self.sym.name_ref(c, 0),
            |k, x, y| self.pair[k - 1].name_ref(x, y),
            |a, b| self.fold.name_ref(a, b),
        );
        // Extension entries per level.
        for (k, lvl) in blocks.iter().enumerate() {
            for (b, &block) in lvl.iter().enumerate() {
                let key = if b == 0 {
                    IDENTITY
                } else {
                    prefs[(b << k) - 1]
                };
                let val = prefs[((b + 1) << k) - 1];
                self.ext[k].assoc_ref(key, block, val);
            }
        }
        // Trie path, prefix→node map, retrieve-index stamps, pattern mark.
        let path = self.trie.insert_path(&pattern);
        for l in 1..=lam {
            self.pref_node.entry(prefs[l - 1]).or_insert(path[l - 1]);
            self.owners.insert(prefs[l - 1], pid);
        }
        self.trie.mark(path[lam - 1], pid);
        self.name_to_pat.insert(prefs[lam - 1], pid);
        self.prefs[pid as usize] = prefs;
        self.live_syms += lam;
        self.total_syms += lam;
        // PRAM schedule of the insert (Theorem 7): O(log λ) rounds, O(λ) ops.
        ctx.cost.rounds(ceil_log2(lam) as u64 + 2, 4 * lam as u64);
    }

    fn release_from_tables(&mut self, ctx: &Ctx, pid: PatId, node: u32) {
        let pattern = self.patterns[pid as usize].clone().expect("live slot");
        let lam = pattern.len();
        let (blocks, prefs) = self.lookup_names(&pattern);
        // Release in the reverse order of insertion so lookups stay valid
        // while we still need them (they don't — names are all computed —
        // but symmetric order keeps the refcount audit trivial).
        for (k, lvl) in blocks.iter().enumerate() {
            for (b, &block) in lvl.iter().enumerate() {
                let key = if b == 0 {
                    IDENTITY
                } else {
                    prefs[(b << k) - 1]
                };
                self.ext[k].release(key, block);
            }
        }
        for l in 1..=lam {
            let (k, hi) = fold_step(l);
            if hi > 0 {
                self.fold.release(prefs[hi - 1], blocks[k][hi >> k]);
            }
        }
        for (k, lvl) in blocks.iter().enumerate().skip(1) {
            for (b, _) in lvl.iter().enumerate() {
                self.pair[k - 1].release(blocks[k - 1][2 * b], blocks[k - 1][2 * b + 1]);
            }
        }
        for &c in &pattern {
            self.sym.release(c, 0);
        }
        for l in 1..=lam {
            self.owners.remove(prefs[l - 1], pid);
            if self.owners.count(prefs[l - 1]) == 0 {
                self.pref_node.remove(&prefs[l - 1]);
            }
        }
        self.trie.unmark(node);
        self.name_to_pat.remove(&prefs[lam - 1]);
        self.prefs[pid as usize] = Vec::new();
        self.live_syms -= lam;
        ctx.cost.rounds(ceil_log2(lam) as u64 + 2, 4 * lam as u64);
    }

    /// The paper's squeeze-out: drop everything, re-insert live patterns
    /// (ids preserved). Amortized against the deletions that shrank us.
    fn rebuild(&mut self, ctx: &Ctx) {
        self.rebuilds += 1;
        // Every name changes, so no frozen copy can be patched.
        self.frozen = None;
        self.pool = NamePool::dictionary();
        self.sym = DynTable::new(self.pool.clone());
        self.fold = DynTable::new(self.pool.clone());
        self.pair.clear();
        self.ext.clear();
        self.levels = 0;
        self.trie = PatternTrie::new();
        self.pref_node.clear();
        self.owners = StampList::new();
        self.name_to_pat.clear();
        self.live_syms = 0;
        self.total_syms = 0;
        let live: Vec<PatId> = self
            .patterns
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i as PatId))
            .collect();
        for pid in live {
            self.insert_into_tables(ctx, pid);
        }
    }
}

/// One frozen table brought up to `live`: `base` patched with the current
/// state of every key `live` logged since `base` was frozen, while its slot
/// count still fits the live entry count; re-frozen from the live entries
/// otherwise (or without a base). Raises `route` to the route taken.
fn refresh(
    base: Option<FrozenNameTable>,
    live: &DynTable,
    route: &mut FreezeRoute,
) -> FrozenNameTable {
    match base {
        Some(mut t) if t.slots_len() == FrozenPairTable::slots_for(live.len()) => {
            let changes: Vec<(u32, u32, Option<u32>)> = live
                .logged()
                .iter()
                .map(|&k| {
                    let (a, b) = unpack(k);
                    (a, b, live.lookup(a, b))
                })
                .collect();
            if t.patch(&changes) {
                *route = (*route).max(FreezeRoute::Copied);
            }
            t
        }
        _ => {
            *route = FreezeRoute::Refrozen;
            FrozenNameTable::from_entries(&live.entries())
        }
    }
}

impl MatchTables for DynamicMatcher {
    fn levels(&self) -> usize {
        self.levels
    }

    fn sym_lookup(&self, c: Sym) -> Option<u32> {
        self.sym.lookup(c, 0)
    }

    fn pair_lookup(&self, k: usize, a: u32, b: u32) -> Option<u32> {
        self.pair[k - 1].lookup(a, b)
    }

    fn ext_lookup(&self, k: usize, pref: u32, block: u32) -> Option<u32> {
        self.ext.get(k)?.lookup(pref, block)
    }

    fn longest_pattern(&self, pref: u32) -> Option<(PatId, u32)> {
        let node = *self.pref_node.get(&pref)?;
        self.trie.longest_pattern_prefix(node)
    }

    fn owner(&self, pref: u32) -> Option<PatId> {
        self.owners.any(pref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::to_symbols;

    #[test]
    fn insert_match_delete_roundtrip() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let a = d.insert(&ctx, &to_symbols("ab")).unwrap();
        let b = d.insert(&ctx, &to_symbols("abcd")).unwrap();
        let text = to_symbols("xabcdx");
        let out = d.match_text(&ctx, &text);
        assert_eq!(out.longest_pattern[1], Some(b));
        d.delete(&ctx, &to_symbols("abcd")).unwrap();
        let out = d.match_text(&ctx, &text);
        assert_eq!(out.longest_pattern[1], Some(a));
        d.delete(&ctx, &to_symbols("ab")).unwrap();
        let out = d.match_text(&ctx, &text);
        assert_eq!(out.longest_pattern[1], None);
        assert_eq!(out.prefix_len[1], 0);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let id = d.insert(&ctx, &to_symbols("xy")).unwrap();
        assert_eq!(
            d.insert(&ctx, &to_symbols("xy")),
            Err(DynError::AlreadyPresent(id))
        );
        // Delete, then re-insert is fine (fresh id).
        d.delete(&ctx, &to_symbols("xy")).unwrap();
        assert!(d.insert(&ctx, &to_symbols("xy")).is_ok());
    }

    #[test]
    fn delete_absent_rejected() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        d.insert(&ctx, &to_symbols("abc")).unwrap();
        assert_eq!(d.delete(&ctx, &to_symbols("ab")), Err(DynError::NotFound));
        assert_eq!(d.delete(&ctx, &to_symbols("zz")), Err(DynError::NotFound));
    }

    #[test]
    fn empty_pattern_rejected() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        assert_eq!(d.insert(&ctx, &[]), Err(DynError::EmptyPattern));
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let ctx = Ctx::seq();
        let d = DynamicMatcher::new();
        let out = d.match_text(&ctx, &to_symbols("abc"));
        assert!(out.longest_pattern.iter().all(Option::is_none));
    }

    #[test]
    fn rebuild_fires_and_preserves_ids() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let keep = d.insert(&ctx, &to_symbols("keepme")).unwrap();
        let mut victims = Vec::new();
        for i in 0..20u32 {
            let p: Vec<u32> = vec![1000 + i, 2000 + i, 3000 + i, 4000 + i];
            victims.push(p.clone());
            d.insert(&ctx, &p).unwrap();
        }
        for v in &victims {
            d.delete(&ctx, v).unwrap();
        }
        assert!(d.rebuilds() > 0, "squeeze-out must have fired");
        assert_eq!(d.pattern_count(), 1);
        let out = d.match_text(&ctx, &to_symbols("xxkeepmex"));
        assert_eq!(out.longest_pattern[2], Some(keep));
    }

    #[test]
    fn refcounts_shared_prefixes_survive_partial_delete() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        d.insert(&ctx, &to_symbols("abcde")).unwrap();
        let keep = d.insert(&ctx, &to_symbols("abcxy")).unwrap();
        d.delete(&ctx, &to_symbols("abcde")).unwrap();
        // Shared "abc" entries must still support matching "abcxy".
        let out = d.match_text(&ctx, &to_symbols("zabcxyz"));
        assert_eq!(out.longest_pattern[1], Some(keep));
        // And prefix lengths reflect only the live pattern.
        assert_eq!(out.prefix_len[1], 5);
    }

    #[test]
    fn table_entries_return_to_zero() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        d.insert(&ctx, &to_symbols("hello")).unwrap();
        d.insert(&ctx, &to_symbols("help")).unwrap();
        d.delete(&ctx, &to_symbols("hello")).unwrap();
        d.delete(&ctx, &to_symbols("help")).unwrap();
        // After deleting everything a rebuild leaves no live entries.
        assert_eq!(d.symbol_count(), 0);
        assert_eq!(d.table_entry_count(), 0);
    }

    #[test]
    fn batch_insert_and_delete() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let batch = vec![
            to_symbols("alpha"),
            to_symbols("beta"),
            to_symbols("alpha"), // duplicate within the batch
            to_symbols("gamma"),
        ];
        let res = d.insert_batch(&ctx, &batch);
        assert!(res[0].is_ok() && res[1].is_ok() && res[3].is_ok());
        assert_eq!(
            res[2],
            Err(DynError::AlreadyPresent(*res[0].as_ref().unwrap()))
        );
        assert_eq!(d.pattern_count(), 3);

        let res = d.delete_batch(&ctx, &[to_symbols("beta"), to_symbols("nope")]);
        assert!(res[0].is_ok());
        assert_eq!(res[1], Err(DynError::NotFound));
        assert_eq!(d.pattern_count(), 2);
        let out = d.match_text(&ctx, &to_symbols("xbetaxalphax"));
        assert_eq!(out.longest_pattern[1], None, "beta deleted");
        assert!(out.longest_pattern[6].is_some(), "alpha still live");
    }

    #[test]
    fn delete_batch_rebuilds_once() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let pats: Vec<Vec<u32>> = (0..30u32).map(|i| vec![i, i + 1, i + 2, i + 3]).collect();
        d.insert_batch(&ctx, &pats)
            .into_iter()
            .for_each(|r| assert!(r.is_ok()));
        let dels: Vec<Vec<u32>> = pats[..25].to_vec();
        d.delete_batch(&ctx, &dels)
            .into_iter()
            .for_each(|r| assert!(r.is_ok()));
        // One rebuild at batch end, not one per threshold crossing.
        assert_eq!(d.rebuilds(), 1);
        assert_eq!(d.pattern_count(), 5);
    }

    #[test]
    fn owner_is_a_live_pattern_with_prefix() {
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        d.insert(&ctx, &to_symbols("abc")).unwrap();
        let id2 = d.insert(&ctx, &to_symbols("abd")).unwrap();
        d.delete(&ctx, &to_symbols("abc")).unwrap();
        let out = d.match_text(&ctx, &to_symbols("abz"));
        // Prefix "ab" is still live (via "abd"); owner must be the live one.
        assert_eq!(out.prefix_len[0], 2);
        assert_eq!(out.prefix_owner[0], Some(id2));
    }
}
