//! Static dictionary matching with strings (paper §4, Theorems 1–3).
//!
//! ```
//! use pdm_core::static1d::StaticMatcher;
//! use pdm_core::dict::{symbolize, to_symbols};
//! use pdm_pram::Ctx;
//!
//! let ctx = Ctx::seq();
//! let matcher = StaticMatcher::build(&ctx, &symbolize(&["he", "she", "hers"])).unwrap();
//! let out = matcher.match_text(&ctx, &to_symbols("ushers"));
//! assert_eq!(out.longest_pattern[1], Some(1)); // "she" at position 1
//! assert_eq!(out.longest_pattern[2], Some(2)); // "hers" at position 2
//! assert_eq!(out.prefix_len[3], 0);            // nothing starts with 'r'
//! ```

pub mod frozen_serial;
pub mod namemap;
pub mod prefix_match;
pub mod tables;

pub use prefix_match::{
    match_text, match_text_into, match_text_ref, prefix_match, prefix_match_into, prefix_match_ref,
    MatchOutput, MatchTables, PrefixMatch, PREFETCH_DISTANCE,
};
pub use tables::StaticTables;

use crate::allmatches::PatternChains;
use crate::dict::{BuildError, PatId, Sym};
use crate::prefilter::{Prefilter, PrefilterCounters, PrefilterDecision, ScanVerdict};
use crate::prefilter::{PREFILTER_MIN_TEXT, REASON_NO_PATTERNS};
use crate::scratch::{ensure, TextScratch};
use pdm_pram::Ctx;
use prefix_match::descend_into;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Cumulative text-side counters, aggregated across every scratch that
/// passes through this matcher (surfaced by `pdm stats` and
/// [`MatcherStats`](crate::matcher::MatcherStats)).
#[derive(Debug, Default)]
struct Metrics {
    match_calls: AtomicU64,
    alloc_events: AtomicU64,
    table_lookups: AtomicU64,
}

/// The static dictionary matcher: preprocess once (`O(log m)` time, `O(M)`
/// work), match any number of texts (`O(log m)` time, `O(n log m)` work
/// each) — Theorem 3.
#[derive(Debug)]
pub struct StaticMatcher {
    tables: StaticTables,
    /// Pattern suffix-chains for all-matches expansion, built lazily on the
    /// first `find_all_into` call and shared by every session thereafter.
    chains: OnceLock<PatternChains>,
    /// SWAR candidate prefilter for `find_all_into` (DESIGN.md §16).
    /// `None` when pattern texts were unavailable (e.g. a bare frozen
    /// index); snapshot loaders can attach one via [`Self::set_prefilter`].
    prefilter: Option<Prefilter>,
    metrics: Metrics,
    /// Whether this matcher was cold-loaded from the frozen snapshot form
    /// (no parallel build ran). Surfaced through
    /// [`MatcherStats::cold_loaded`](crate::matcher::MatcherStats) so boot
    /// paths can *assert* that a snapshot spared them the rebuild.
    cold_loaded: bool,
}

/// Size diagnostics for a built dictionary (see [`StaticMatcher::stats`]).
/// Total table entries are `O(M)` — the paper's dictionary-side space after
/// the hash-table substitution (DESIGN.md §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictStats {
    pub levels: usize,
    pub n_patterns: usize,
    pub dictionary_size: usize,
    pub max_pattern_len: usize,
    pub names_allocated: usize,
    pub sym_entries: usize,
    pub pair_entries: usize,
    pub fold_entries: usize,
    pub ext_entries: usize,
    /// Text-side `match_*` calls served so far.
    pub match_calls: u64,
    /// Scratch-buffer (re)allocation events across those calls — flat in
    /// steady state (see [`crate::scratch::TextScratch`]).
    pub alloc_events: u64,
    /// Name-table probes issued across those calls.
    pub table_lookups: u64,
    /// Prefilter strategy in effect (or why it is off).
    pub prefilter: PrefilterDecision,
    /// Cumulative prefilter scan/verify counters.
    pub prefilter_counters: PrefilterCounters,
}

impl DictStats {
    /// All table entries combined.
    pub fn table_entry_count(&self) -> usize {
        self.sym_entries + self.pair_entries + self.fold_entries + self.ext_entries
    }
}

impl StaticMatcher {
    /// Preprocess a dictionary of distinct, non-empty patterns. The SWAR
    /// candidate prefilter is analyzed from the same pattern texts and
    /// attached automatically (possibly in its disabled state — see
    /// [`Prefilter::analyze`]).
    pub fn build(ctx: &Ctx, patterns: &[Vec<Sym>]) -> Result<Self, BuildError> {
        let mut m = Self::from_tables(StaticTables::build(ctx, patterns)?);
        m.prefilter = Some(Prefilter::analyze(patterns));
        Ok(m)
    }

    fn from_tables(tables: StaticTables) -> Self {
        Self {
            tables,
            chains: OnceLock::new(),
            prefilter: None,
            metrics: Metrics::default(),
            cold_loaded: false,
        }
    }

    /// Wrap read-only tables assembled outside a build
    /// (`StaticTables::from_read_parts`) and prime the all-matches prefix
    /// chains now, so the first match against them pays nothing extra.
    pub(crate) fn from_frozen_tables(tables: StaticTables) -> Self {
        let m = Self::from_tables(tables);
        m.prime_chains(crate::allmatches::pattern_chains(&m));
        m
    }

    /// Fold a scratch's counter deltas into the matcher-wide metrics.
    fn record(&self, scratch: &TextScratch, grows0: u64, lookups0: u64) {
        self.metrics.match_calls.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .alloc_events
            .fetch_add(scratch.grow_events() - grows0, Ordering::Relaxed);
        self.metrics
            .table_lookups
            .fetch_add(scratch.table_lookups() - lookups0, Ordering::Relaxed);
    }

    /// Longest pattern (and prefix) starting at every text position.
    pub fn match_text(&self, ctx: &Ctx, text: &[Sym]) -> MatchOutput {
        let mut scratch = TextScratch::new();
        let mut out = MatchOutput::empty();
        self.match_into(ctx, text, &mut scratch, &mut out);
        out
    }

    /// [`Self::match_text`] into caller-owned buffers: `out` is overwritten
    /// and `scratch` is reused across calls, so a session matching chunk
    /// after chunk allocates nothing once warm.
    pub fn match_into(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut MatchOutput,
    ) {
        let (g0, l0) = (scratch.grow_events(), scratch.table_lookups());
        match_text_into(ctx, &self.tables, text, scratch, out);
        self.record(scratch, g0, l0);
    }

    /// Match a *set* of texts (the paper's problem statement takes
    /// `T = {T₁, …}`); tables are shared, so total work is
    /// `O(Σ nᵢ · log m)` with no per-text dictionary cost.
    pub fn match_texts(&self, ctx: &Ctx, texts: &[Vec<Sym>]) -> Vec<MatchOutput> {
        texts.iter().map(|t| self.match_text(ctx, t)).collect()
    }

    /// Phase 1 only: longest dictionary *prefix* per position (Theorem 1).
    pub fn prefix_match(&self, ctx: &Ctx, text: &[Sym]) -> PrefixMatch {
        let mut scratch = TextScratch::new();
        let mut out = PrefixMatch::default();
        self.prefix_match_into(ctx, text, &mut scratch, &mut out);
        out
    }

    /// [`Self::prefix_match`] into caller-owned buffers (see
    /// [`Self::match_into`]).
    pub fn prefix_match_into(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut PrefixMatch,
    ) {
        let (g0, l0) = (scratch.grow_events(), scratch.table_lookups());
        prefix_match_into(ctx, &self.tables, text, scratch, out);
        self.record(scratch, g0, l0);
    }

    /// Memory-lean variant of [`Self::match_text`] for long texts: process
    /// the text in chunks of `chunk` symbols, each extended by `m − 1`
    /// overlap symbols, so peak memory is `O(chunk · log m)` instead of
    /// `O(n · log m)`. A match starting inside a chunk lies entirely within
    /// the extended window (prefixes are ≤ `m` long), so outputs are
    /// identical to the whole-text call.
    pub fn match_text_chunked(&self, ctx: &Ctx, text: &[Sym], chunk: usize) -> MatchOutput {
        assert!(chunk > 0, "chunk size must be positive");
        let n = text.len();
        let overlap = self.tables.max_len.saturating_sub(1);
        let mut out = MatchOutput::empty();
        let mut scratch = TextScratch::new();
        let mut part = MatchOutput::empty();
        let mut at = 0usize;
        while at < n {
            let end_proper = (at + chunk).min(n);
            let end = (end_proper + overlap).min(n);
            self.match_into(ctx, &text[at..end], &mut scratch, &mut part);
            let take = end_proper - at;
            out.prefix_len.extend_from_slice(&part.prefix_len[..take]);
            out.prefix_name.extend_from_slice(&part.prefix_name[..take]);
            out.longest_pattern
                .extend_from_slice(&part.longest_pattern[..take]);
            out.longest_pattern_len
                .extend_from_slice(&part.longest_pattern_len[..take]);
            out.prefix_owner
                .extend_from_slice(&part.prefix_owner[..take]);
            at = end_proper;
        }
        out
    }

    /// All `(start, pattern)` occurrences, sorted by start then pattern —
    /// the classical sequential output format, produced from the
    /// longest-match output plus the §2 all-matches expansion.
    pub fn find_all(&self, ctx: &Ctx, text: &[Sym]) -> Vec<(usize, PatId)> {
        let mut scratch = TextScratch::new();
        let mut out = Vec::new();
        self.find_all_into(ctx, text, &mut scratch, &mut out);
        out
    }

    /// [`Self::find_all`] into caller-owned buffers. When the SWAR
    /// prefilter is active (DESIGN.md §16) the text is scanned for
    /// candidate windows first and only those run the KMR pipeline; the
    /// match set is identical to the unfiltered path either way. Uses the
    /// lazily-built per-pattern prefix chains (`chain[p]` = longest
    /// pattern properly prefixing `p`): the patterns matching at a
    /// position are exactly the chain from the longest match downward, so
    /// the expansion needs no allocation beyond the reused scratch.
    pub fn find_all_into(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut Vec<(usize, PatId)>,
    ) {
        out.clear();
        let (g0, l0) = (scratch.grow_events(), scratch.table_lookups());
        if !self.find_all_prefiltered(ctx, text, scratch, out) {
            self.find_all_core(ctx, text, scratch, out);
        }
        self.record(scratch, g0, l0);
    }

    /// Prefiltered path: scan → candidate windows → per-window KMR
    /// verification. Returns `false` when the prefilter is absent,
    /// inactive, the text is too short, or the scan bailed out on density
    /// (the caller then runs the unfiltered path).
    fn find_all_prefiltered(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut Vec<(usize, PatId)>,
    ) -> bool {
        let Some(pf) = &self.prefilter else {
            return false;
        };
        let n = text.len();
        if n < PREFILTER_MIN_TEXT {
            return false;
        }
        let mut shadow = std::mem::take(&mut scratch.pf_shadow);
        let mut starts = std::mem::take(&mut scratch.pf_starts);
        let mut windows = std::mem::take(&mut scratch.pf_windows);
        let caps0 = shadow.capacity() + starts.capacity() + windows.capacity();
        let verdict = pf.scan(text, &mut shadow, &mut starts, &mut windows);
        if shadow.capacity() + starts.capacity() + windows.capacity() != caps0 {
            scratch.grows += 1;
        }
        scratch.pf_shadow = shadow;
        scratch.pf_starts = starts;
        if verdict != ScanVerdict::Windows {
            scratch.pf_windows = windows;
            return false;
        }
        // Verify each window through the ordinary KMR path. A window
        // `(ws, we)` owns candidate *starts* in `[ws, we)`; its slice
        // extends `m − 1` past the last owned start so any pattern
        // starting inside fits. Matches with a relative start ≥ `we − ws`
        // belong to (and are re-found by) a later window — windows are
        // disjoint in start space, so each occurrence is emitted exactly
        // once, in ascending order.
        let m = self.tables.max_len.max(1);
        let mut wout = std::mem::take(&mut scratch.pf_out);
        let mut verified = 0u64;
        for &(ws, we) in &windows {
            let end = (we - 1 + m).min(n);
            let slice = &text[ws..end];
            verified += slice.len() as u64;
            self.find_all_core(ctx, slice, scratch, &mut wout);
            for &(rel, pid) in wout.iter() {
                if rel < we - ws {
                    out.push((ws + rel, pid));
                }
            }
        }
        pf.note_verified(verified, windows.len() as u64);
        scratch.pf_out = wout;
        scratch.pf_windows = windows;
        true
    }

    /// The unfiltered all-matches expansion (also the per-window verifier).
    /// It reads each position's `(blocks, prefix name)` straight from the
    /// descent state and looks up only Theorem 2's longest pattern there;
    /// the patterns matching at a position are that pattern's chain.
    fn find_all_core(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut Vec<(usize, PatId)>,
    ) {
        out.clear();
        if text.is_empty() {
            return;
        }
        let mut longest = std::mem::take(&mut scratch.longest);
        ensure(&mut longest, text.len(), &mut scratch.grows);
        let tables = &self.tables;
        descend_into(ctx, tables, text, scratch, &mut longest, |blocks, name| {
            if blocks == 0 {
                return None;
            }
            tables.longest_pattern(name).map(|(pid, _)| pid)
        });
        let chains = self
            .chains
            .get_or_init(|| crate::allmatches::pattern_chains(self));
        let cap0 = out.capacity() + scratch.pats_here.capacity();
        for (i, &longest) in longest.iter().enumerate() {
            scratch.pats_here.clear();
            let mut cur = longest;
            while let Some(p) = cur {
                scratch.pats_here.push(p);
                cur = chains.chain[p as usize];
            }
            scratch.pats_here.sort_unstable();
            out.extend(scratch.pats_here.iter().map(|&p| (i, p)));
        }
        if out.capacity() + scratch.pats_here.capacity() != cap0 {
            scratch.grows += 1;
        }
        scratch.longest = longest;
    }

    /// The prefilter attached to this matcher, if any.
    pub fn prefilter(&self) -> Option<&Prefilter> {
        self.prefilter.as_ref()
    }

    /// Attach (or detach) a prefilter: snapshot loaders prime one decoded
    /// from the sidecar; benchmarks pass `None` to measure the unfiltered
    /// path. The prefilter must describe exactly this dictionary.
    pub fn set_prefilter(&mut self, pf: Option<Prefilter>) {
        self.prefilter = pf;
    }

    /// Build-time prefilter decision (strategy or disable reason).
    pub fn prefilter_decision(&self) -> PrefilterDecision {
        self.prefilter
            .as_ref()
            .map(|pf| pf.decision())
            .unwrap_or(PrefilterDecision::Disabled(REASON_NO_PATTERNS))
    }

    /// Access the underlying tables (consumed by §4.4 and the experiments).
    pub fn tables(&self) -> &StaticTables {
        &self.tables
    }

    /// Size diagnostics: names allocated and per-table entry counts.
    /// Entry counts come from the frozen read path (identical to the live
    /// counts — freezing preserves every entry), so they are available on
    /// cold-loaded matchers too.
    pub fn stats(&self) -> DictStats {
        let t = &self.tables;
        DictStats {
            levels: t.levels,
            n_patterns: t.n_patterns,
            dictionary_size: t.total_len,
            max_pattern_len: t.max_len,
            names_allocated: t.pool.allocated() as usize,
            sym_entries: t.read.sym.len(),
            pair_entries: t.read.pair.iter().map(|x| x.len()).sum(),
            fold_entries: t.fold_len,
            ext_entries: t.read.ext.iter().map(|x| x.len()).sum(),
            match_calls: self.metrics.match_calls.load(Ordering::Relaxed),
            alloc_events: self.metrics.alloc_events.load(Ordering::Relaxed),
            table_lookups: self.metrics.table_lookups.load(Ordering::Relaxed),
            prefilter: self.prefilter_decision(),
            prefilter_counters: self
                .prefilter
                .as_ref()
                .map(|pf| pf.counters())
                .unwrap_or_default(),
        }
    }

    /// Serialize the read path to the frozen snapshot form (see
    /// [`frozen_serial`]).
    pub fn to_frozen_bytes(&self) -> Vec<u8> {
        self.tables.to_frozen_bytes()
    }

    /// Cold-load a matcher from the frozen snapshot form: `O(bytes)` work,
    /// no naming rounds, no parallel build. The result reports
    /// `cold_loaded = true` in its [`MatcherStats`](crate::matcher::Matcher)
    /// so callers can verify the rebuild was actually skipped.
    pub fn from_frozen_bytes(data: &[u8]) -> Result<Self, frozen_serial::LoadError> {
        let mut m = Self::from_tables(StaticTables::from_frozen_bytes(data)?);
        m.cold_loaded = true;
        Ok(m)
    }

    /// Whether this matcher was cold-loaded (see [`Self::from_frozen_bytes`]).
    pub fn cold_loaded(&self) -> bool {
        self.cold_loaded
    }

    /// Seed the all-matches prefix chains with precomputed values (a
    /// snapshot loader restoring serialized chains). A no-op if the chains
    /// were already built; `chains` must describe exactly this dictionary.
    pub fn prime_chains(&self, chains: PatternChains) {
        debug_assert_eq!(chains.chain.len(), self.pattern_count());
        let _ = self.chains.set(chains);
    }

    /// Longest pattern length in the dictionary (`m`).
    pub fn max_pattern_len(&self) -> usize {
        self.tables.max_len
    }

    /// Length of pattern `p` in symbols (available even on a matcher
    /// loaded via [`Self::from_frozen_bytes`] — the streaming layer needs
    /// it to decide which window a match's *end* falls in).
    pub fn pattern_len(&self, p: PatId) -> u32 {
        self.tables.pattern_prefs[p as usize].len() as u32
    }

    /// Total dictionary size in symbols (`M`).
    pub fn symbol_count(&self) -> usize {
        self.tables.total_len
    }

    /// Number of patterns (`κ`).
    pub fn pattern_count(&self) -> usize {
        self.tables.n_patterns
    }

    /// All namestamp-table entries combined (the paper's `O(M)` space).
    pub fn table_entry_count(&self) -> usize {
        self.stats().table_entry_count()
    }
}
