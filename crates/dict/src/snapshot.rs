//! Immutable matcher snapshots and their one on-disk form, the v2
//! cold-start sidecar.
//!
//! A [`Snapshot`] is one epoch of the dictionary, frozen: a canonical
//! pattern list (ids are positions in that list) and a read-only
//! [`StaticMatcher`] over it — frozen name tables, the Theorem 2
//! attribution maps, the prefix chains that expand longest-match output
//! into *all* matches per position, and the SWAR prefilter. Every epoch
//! has that one form whichever path produced it: a full parallel build at
//! a boot without a usable sidecar ([`SnapshotPath::FullRebuild`]), a load
//! of the v2 sidecar ([`SnapshotPath::ColdLoaded`]), or a freeze of the
//! store's dynamic matcher at a commit ([`SnapshotPath::Incremental`],
//! [`DynamicMatcher::freeze`]); only an empty epoch has no matcher.
//! Snapshots are what the serving layer pins per chunk — they never change
//! after construction, so a session can finish a chunk against the epoch
//! it started with while the store publishes a successor.
//!
//! **Sidecar bytes** ([`Snapshot::to_sidecar_bytes`], `PDMS` version 2): a
//! sectioned, CRC-trailed container (shared [`pdm_primitives::codec`]
//! framing) holding the epoch, the canonical pattern list and the *built*
//! static matcher — frozen name tables, prefix chains and prefilter. It is
//! what compaction writes beside a dictionary log and what `pdm build`
//! writes as an index. Loading it ([`SnapshotPath::ColdLoaded`])
//! reconstructs a servable snapshot in O(file size) with **zero naming
//! rounds**: the frozen tables' probe order depends only on key bits and
//! slot counts, so the raw slot arrays deserialize without rehashing. An
//! empty epoch is META plus a zero-count PATTERNS section. Name values
//! depend on the path that named the dictionary, so only a snapshot from
//! [`Snapshot::build_static`] has sidecar bytes that are a function of the
//! pattern set alone (compaction and `pdm build` write that one). Version 1
//! files (epoch plus pattern list, no matcher, no checksum) are no longer
//! read: [`Snapshot::from_bytes`] rejects them, and a store that finds one
//! boots by rebuilding from its log.

use pdm_core::allmatches::{pattern_chains, PatternChains};
use pdm_core::dynamic::{DynamicMatcher, FreezeRoute};
use pdm_core::static1d::frozen_serial::LoadError;
use pdm_core::{BuildError, PatId, Prefilter, StaticMatcher, Sym, TextScratch};
use pdm_pram::Ctx;
use pdm_primitives::codec::{self, CodecError, SectionReader, SectionWriter};
use std::sync::Arc;

/// File magic for serialized snapshots.
pub const SNAP_MAGIC: [u8; 4] = *b"PDMS";
/// The sidecar format: sectioned container with the built matcher.
pub const SNAP_VERSION: u32 = 2;

/// v2 section ids. An empty epoch has only META and PATTERNS.
pub const SEC_META: u32 = 1;
pub const SEC_PATTERNS: u32 = 2;
pub const SEC_TABLES: u32 = 3;
pub const SEC_CHAINS: u32 = 4;
/// SWAR prefilter tables (strategy + anchors + exact screen). Optional on
/// load — sidecars written before this section existed re-analyze from
/// `SEC_PATTERNS` instead — but always written, so a loaded sidecar
/// re-serializes byte-identically.
pub const SEC_PREFILTER: u32 = 5;

/// Everything that can go wrong loading a snapshot.
#[derive(Debug)]
pub enum SnapError {
    /// Framing, checksum, or structural failure (shared codec shape).
    Corrupt(CodecError),
    /// The frozen matcher tables inside a v2 sidecar failed to decode.
    Tables(LoadError),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Corrupt(e) => write!(f, "snapshot {e}"),
            Self::Tables(e) => write!(f, "snapshot tables: {e}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Corrupt(e) => Some(e),
            Self::Tables(e) => Some(e),
        }
    }
}

impl From<CodecError> for SnapError {
    fn from(e: CodecError) -> Self {
        Self::Corrupt(e)
    }
}

fn corrupt(why: impl Into<String>) -> SnapError {
    SnapError::Corrupt(CodecError::Corrupt(why.into()))
}

/// Which path produced a snapshot (diagnostics; all paths are behaviorally
/// identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPath {
    /// Batch applied through the §6 `DynamicMatcher` (Theorems 7–10), then
    /// frozen into the static read form: every commit.
    Incremental,
    /// Full parallel `StaticMatcher` build on the pool (Theorem 3): the
    /// first epoch of a store booted without a usable sidecar, what
    /// compaction and `pdm build` serialize, and a wrapped prebuilt
    /// matcher. No commit takes this path.
    FullRebuild,
    /// Deserialized from a v2 sidecar — no naming rounds ran at all.
    ColdLoaded,
}

/// One immutable epoch of the dictionary.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    /// Canonical pattern list; `None` when wrapped around a bare index
    /// (pattern texts unknown — the snapshot still matches, but cannot be
    /// re-serialized).
    patterns: Option<Vec<Vec<Sym>>>,
    /// The read-only matcher; its pattern ids are the canonical ids.
    /// `None` for an empty epoch, which matches nothing.
    matcher: Option<Arc<StaticMatcher>>,
    path: SnapshotPath,
}

impl Snapshot {
    /// Build the static-path snapshot (full parallel build). Empty
    /// dictionaries yield an empty epoch — the §4 build rejects zero
    /// patterns, an empty epoch is still a valid epoch.
    pub fn build_static(
        ctx: &Ctx,
        epoch: u64,
        patterns: Vec<Vec<Sym>>,
    ) -> Result<Self, BuildError> {
        if patterns.is_empty() {
            let mut s = Self::build_empty(epoch);
            s.path = SnapshotPath::FullRebuild;
            return Ok(s);
        }
        let m = StaticMatcher::build(ctx, &patterns)?;
        Ok(Snapshot {
            epoch,
            patterns: Some(patterns),
            matcher: Some(Arc::new(m)),
            path: SnapshotPath::FullRebuild,
        })
    }

    /// The incremental-path snapshot: freeze the live dictionary of the
    /// store's dynamic matcher into the static read form
    /// ([`DynamicMatcher::freeze`], which patches the frozen copy it
    /// published two freezes ago) and attach the prefilter analyzed from
    /// `patterns`. `native[i]` is the dynamic matcher's id for canonical
    /// pattern `i`. Also returns how the frozen tables were produced
    /// (`None` for an empty epoch, which freezes nothing).
    pub fn freeze_dynamic(
        epoch: u64,
        d: &mut DynamicMatcher,
        patterns: Vec<Vec<Sym>>,
        native: &[PatId],
    ) -> (Self, Option<FreezeRoute>) {
        debug_assert_eq!(patterns.len(), native.len());
        if patterns.is_empty() {
            return (Self::build_empty(epoch), None);
        }
        let (mut m, route) = d.freeze(native);
        m.set_prefilter(Some(Prefilter::analyze(&patterns)));
        let snap = Snapshot {
            epoch,
            patterns: Some(patterns),
            matcher: Some(Arc::new(m)),
            path: SnapshotPath::Incremental,
        };
        (snap, Some(route))
    }

    /// An empty epoch (no patterns; matches nothing).
    pub fn build_empty(epoch: u64) -> Self {
        Snapshot {
            epoch,
            patterns: Some(Vec::new()),
            matcher: None,
            path: SnapshotPath::Incremental,
        }
    }

    /// Wrap a prebuilt static matcher (a fixed `pdm serve --dict`
    /// dictionary) as epoch `epoch`. Pattern texts are unknown, so the
    /// snapshot has no sidecar bytes, but matching and all-matches
    /// expansion work — the chains come from the static tables.
    pub fn from_static(epoch: u64, m: Arc<StaticMatcher>) -> Self {
        Snapshot {
            epoch,
            patterns: None,
            matcher: Some(m),
            path: SnapshotPath::FullRebuild,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Which path produced this snapshot.
    pub fn path(&self) -> SnapshotPath {
        self.path
    }

    pub fn pattern_count(&self) -> usize {
        self.matcher.as_ref().map_or(0, |m| m.pattern_count())
    }

    pub fn max_pattern_len(&self) -> usize {
        self.matcher.as_ref().map_or(0, |m| m.max_pattern_len())
    }

    /// Length of canonical pattern `p` (panics if `p` is out of range).
    pub fn pattern_len(&self, p: PatId) -> u32 {
        self.matcher
            .as_ref()
            .expect("an empty epoch has no patterns")
            .pattern_len(p)
    }

    /// Canonical pattern list, if known.
    pub fn patterns(&self) -> Option<&[Vec<Sym>]> {
        self.patterns.as_deref()
    }

    /// The matcher backing this epoch (`None` for an empty epoch).
    pub fn matcher(&self) -> Option<&StaticMatcher> {
        self.matcher.as_deref()
    }

    /// The shared matcher and the canonical pattern list, for callers that
    /// outlive the snapshot (`pdm match --index` hands the matcher to a
    /// stream session).
    pub fn into_parts(self) -> (Option<Arc<StaticMatcher>>, Option<Vec<Vec<Sym>>>) {
        (self.matcher, self.patterns)
    }

    /// Every `(position, canonical pattern)` occurrence in `text`, sorted
    /// by position then pattern id — the same contract as
    /// [`StaticMatcher::find_all`], with canonical ids, so results are
    /// identical whichever path produced the snapshot.
    pub fn find_all(&self, ctx: &Ctx, text: &[Sym]) -> Vec<(usize, PatId)> {
        let mut scratch = TextScratch::new();
        let mut v = Vec::new();
        self.find_all_into(ctx, text, &mut scratch, &mut v);
        v
    }

    /// [`Self::find_all`] into caller-owned buffers. Every epoch delegates
    /// to its read-only static matcher, so the whole match reuses
    /// `scratch` (zero steady-state allocation per chunk) and runs through
    /// the SWAR candidate prefilter when it is active (DESIGN.md §16).
    pub fn find_all_into(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut TextScratch,
        out: &mut Vec<(usize, PatId)>,
    ) {
        out.clear();
        if let Some(m) = &self.matcher {
            m.find_all_into(ctx, text, scratch, out);
        }
    }

    /// Serialize the epoch into the v2 sidecar layout: sectioned,
    /// CRC-trailed, loadable in O(file size) with zero naming rounds. Every
    /// epoch with known pattern texts has one, including a frozen
    /// incremental epoch (its name values, and so its bytes, differ from a
    /// fresh build's; its matches do not) and an empty epoch (META and a
    /// zero-count PATTERNS section). `None` only when the pattern texts are
    /// unknown ([`Snapshot::from_static`]).
    pub fn to_sidecar_bytes(&self) -> Option<Vec<u8>> {
        let patterns = self.patterns.as_ref()?;
        let mut w = SectionWriter::new();
        w.section(SEC_META, self.epoch.to_le_bytes().to_vec());
        w.section(SEC_PATTERNS, encode_patterns(patterns));
        if let Some(m) = &self.matcher {
            w.section(SEC_TABLES, m.to_frozen_bytes());
            w.section(SEC_CHAINS, encode_chains(&pattern_chains(m)));
            let pf_bytes = match m.prefilter() {
                Some(pf) => pf.to_bytes(),
                None => Prefilter::analyze(patterns).to_bytes(),
            };
            w.section(SEC_PREFILTER, pf_bytes);
        }
        Some(w.finish(SNAP_MAGIC, SNAP_VERSION))
    }

    /// Format version of a `.snap` buffer without loading it — boot logic
    /// routes other versions straight to the rebuild fallback.
    pub fn peek_version(bytes: &[u8]) -> Result<u32, CodecError> {
        codec::read_header(bytes, SNAP_MAGIC)
    }

    /// Load a v2 sidecar (no naming rounds; `ctx` is not used). Any other
    /// version is a [`CodecError::VersionMismatch`].
    pub fn from_bytes(_ctx: &Ctx, bytes: &[u8]) -> Result<Self, SnapError> {
        codec::require_version(codec::read_header(bytes, SNAP_MAGIC)?, SNAP_VERSION)?;
        Self::from_sidecar_v2(bytes)
    }

    /// Cold path: reconstruct the servable snapshot from the v2 sections.
    fn from_sidecar_v2(bytes: &[u8]) -> Result<Self, SnapError> {
        let r = SectionReader::open(bytes, SNAP_MAGIC)?;
        let meta = r.section(SEC_META).ok_or_else(|| corrupt("missing META"))?;
        if meta.len() < 8 {
            return Err(corrupt(format!(
                "META section too short ({} bytes)",
                meta.len()
            )));
        }
        let epoch = u64::from_le_bytes(meta[..8].try_into().expect("bounds checked"));
        let patterns = decode_patterns(
            r.section(SEC_PATTERNS)
                .ok_or_else(|| corrupt("missing PATTERNS"))?,
        )?;
        if patterns.is_empty() {
            if r.section(SEC_TABLES).is_some() {
                return Err(corrupt("TABLES present, PATTERNS lists 0"));
            }
            let mut s = Self::build_empty(epoch);
            s.path = SnapshotPath::ColdLoaded;
            return Ok(s);
        }
        let tables = r
            .section(SEC_TABLES)
            .ok_or_else(|| corrupt("missing TABLES"))?;
        let mut m = StaticMatcher::from_frozen_bytes(tables).map_err(SnapError::Tables)?;
        if m.pattern_count() != patterns.len() {
            return Err(corrupt(format!(
                "TABLES holds {} patterns, PATTERNS lists {}",
                m.pattern_count(),
                patterns.len()
            )));
        }
        for (p, pat) in patterns.iter().enumerate() {
            if m.pattern_len(p as PatId) as usize != pat.len() {
                return Err(corrupt(format!("pattern {p} length disagrees with tables")));
            }
        }
        let chains = decode_chains(
            r.section(SEC_CHAINS)
                .ok_or_else(|| corrupt("missing CHAINS"))?,
            patterns.len(),
        )?;
        m.prime_chains(chains);
        // Attach the stored prefilter tables; sidecars written before the
        // section existed re-analyze from the pattern texts (same result,
        // O(M) work — still zero naming rounds).
        let pf = match r.section(SEC_PREFILTER) {
            Some(sec) => Prefilter::from_bytes(sec)
                .map_err(|e| corrupt(format!("PREFILTER section: {e}")))?,
            None => Prefilter::analyze(&patterns),
        };
        m.set_prefilter(Some(pf));
        Ok(Snapshot {
            epoch,
            patterns: Some(patterns),
            matcher: Some(Arc::new(m)),
            path: SnapshotPath::ColdLoaded,
        })
    }
}

/// `count u32 | count × (len u32, len × sym u32)` — the PATTERNS section.
fn encode_patterns(patterns: &[Vec<Sym>]) -> Vec<u8> {
    let total: usize = patterns.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(4 + patterns.len() * 4 + total * 4);
    out.extend_from_slice(&(patterns.len() as u32).to_le_bytes());
    for p in patterns {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        for &s in p {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
    out
}

fn decode_patterns(sec: &[u8]) -> Result<Vec<Vec<Sym>>, SnapError> {
    let mut at = 0usize;
    let mut take = |n: usize| -> Result<&[u8], SnapError> {
        let s = sec
            .get(at..at + n)
            .ok_or_else(|| corrupt("PATTERNS section truncated"))?;
        at += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
    let mut patterns = Vec::with_capacity(count.min(sec.len() / 4));
    for _ in 0..count {
        let len = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
        let raw = take(len * 4)?;
        patterns.push(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect::<Vec<Sym>>(),
        );
    }
    if at != sec.len() {
        return Err(corrupt("trailing bytes in PATTERNS section"));
    }
    Ok(patterns)
}

/// `count u32 | count × chain u32 (MAX = none) | count × depth u32`.
fn encode_chains(chains: &PatternChains) -> Vec<u8> {
    let k = chains.chain.len();
    let mut out = Vec::with_capacity(4 + 8 * k);
    out.extend_from_slice(&(k as u32).to_le_bytes());
    for c in &chains.chain {
        out.extend_from_slice(&c.unwrap_or(u32::MAX).to_le_bytes());
    }
    for &d in &chains.depth {
        out.extend_from_slice(&d.to_le_bytes());
    }
    out
}

fn decode_chains(sec: &[u8], expect: usize) -> Result<PatternChains, SnapError> {
    if sec.len() < 4 {
        return Err(corrupt("CHAINS section truncated"));
    }
    let k = u32::from_le_bytes(sec[..4].try_into().expect("sized")) as usize;
    if k != expect {
        return Err(corrupt(format!(
            "CHAINS lists {k} patterns, expected {expect}"
        )));
    }
    if sec.len() != 4 + 8 * k {
        return Err(corrupt("CHAINS section size disagrees with its count"));
    }
    let word = |i: usize| -> u32 {
        u32::from_le_bytes(sec[4 + 4 * i..8 + 4 * i].try_into().expect("sized"))
    };
    let mut chain = Vec::with_capacity(k);
    for i in 0..k {
        let c = word(i);
        if c != u32::MAX && c as usize >= k {
            return Err(corrupt(format!(
                "chain entry {i} points past pattern count"
            )));
        }
        chain.push((c != u32::MAX).then_some(c));
    }
    let depth: Vec<u32> = (0..k).map(|i| word(k + i)).collect();
    Ok(PatternChains { chain, depth })
}

/// What `pdm snap inspect` reports for a `PDMS` sidecar — parsed without
/// building any matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapInfo {
    pub version: u32,
    pub epoch: u64,
    pub patterns: usize,
    /// `(section id, byte length)` in file order.
    pub sections: Vec<(u32, usize)>,
}

/// Inspect a `.snap` buffer: version, epoch, pattern count and section
/// sizes. Validation depth matches the load path — the whole-file CRC is
/// checked and every section decoded exactly as a cold load does (table
/// probe paths, pattern-id ranges, chains, prefilter). Any version but 2
/// is a [`CodecError::VersionMismatch`].
pub fn inspect(bytes: &[u8]) -> Result<SnapInfo, SnapError> {
    let snap = Snapshot::from_bytes(&Ctx::seq(), bytes)?;
    Ok(SnapInfo {
        version: SNAP_VERSION,
        epoch: snap.epoch(),
        patterns: snap.pattern_count(),
        sections: SectionReader::open(bytes, SNAP_MAGIC)?.sections().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::dict::{symbolize, to_symbols};

    fn pats() -> Vec<Vec<Sym>> {
        symbolize(&["he", "she", "his", "hers"])
    }

    #[test]
    fn static_and_dynamic_paths_agree() {
        let ctx = Ctx::seq();
        let patterns = pats();
        let s = Snapshot::build_static(&ctx, 1, patterns.clone()).unwrap();
        let mut d = DynamicMatcher::new();
        let native: Vec<PatId> = patterns
            .iter()
            .map(|p| d.insert(&ctx, p).unwrap())
            .collect();
        let (dsnap, _) = Snapshot::freeze_dynamic(1, &mut d, patterns, &native);
        let text = to_symbols("ushershishe");
        assert_eq!(s.find_all(&ctx, &text), dsnap.find_all(&ctx, &text));
        assert_eq!((s.epoch(), s.patterns()), (dsnap.epoch(), dsnap.patterns()));
        // The frozen epoch keeps serving after the master moves on.
        d.delete(&ctx, &to_symbols("she")).unwrap();
        d.insert(&ctx, &to_symbols("us")).unwrap();
        assert_eq!(s.find_all(&ctx, &text), dsnap.find_all(&ctx, &text));
    }

    #[test]
    fn frozen_epoch_follows_canonical_order_and_round_trips() {
        // Native ids run in insert order; canonical ids follow `native`.
        let ctx = Ctx::seq();
        let mut d = DynamicMatcher::new();
        let mut native = Vec::new();
        for p in ["hers", "his", "she", "he"] {
            native.push(d.insert(&ctx, &to_symbols(p)).unwrap());
        }
        native.reverse();
        let patterns = pats();
        let (frozen, _) = Snapshot::freeze_dynamic(4, &mut d, patterns.clone(), &native);
        let built = Snapshot::build_static(&ctx, 4, patterns).unwrap();
        let m = frozen.matcher().unwrap();
        assert!(m.prefilter().is_some());
        let bytes = frozen.to_sidecar_bytes().expect("frozen epochs serialize");
        let back = Snapshot::from_bytes(&ctx, &bytes).unwrap();
        for text in ["ushershishe", "hers his she he", "h", ""] {
            let t = to_symbols(text);
            let want = built.find_all(&ctx, &t);
            assert_eq!(frozen.find_all(&ctx, &t), want, "{text:?}");
            assert_eq!(back.find_all(&ctx, &t), want, "{text:?}");
        }
    }

    #[test]
    fn find_all_matches_static_matcher() {
        let ctx = Ctx::seq();
        let patterns = pats();
        let m = StaticMatcher::build(&ctx, &patterns).unwrap();
        let snap = Snapshot::build_static(&ctx, 0, patterns).unwrap();
        let text = to_symbols("ushers she his");
        assert_eq!(snap.find_all(&ctx, &text), m.find_all(&ctx, &text));
    }

    #[test]
    fn wrapped_index_matches_without_texts() {
        let ctx = Ctx::seq();
        let patterns = pats();
        let m = Arc::new(StaticMatcher::build(&ctx, &patterns).unwrap());
        let snap = Snapshot::from_static(0, m.clone());
        let text = to_symbols("usherss");
        assert_eq!(snap.find_all(&ctx, &text), m.find_all(&ctx, &text));
        assert!(snap.to_sidecar_bytes().is_none(), "texts unknown");
        assert_eq!(snap.max_pattern_len(), 4);
    }

    #[test]
    fn sidecar_v2_cold_load_is_equivalent_and_skips_naming() {
        let ctx = Ctx::seq();
        let snap = Snapshot::build_static(&ctx, 7, pats()).unwrap();
        let bytes = snap.to_sidecar_bytes().unwrap();
        assert_eq!(Snapshot::peek_version(&bytes), Ok(SNAP_VERSION));
        let back = Snapshot::from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(back.epoch(), 7);
        assert_eq!(back.path(), SnapshotPath::ColdLoaded);
        assert!(
            back.matcher().unwrap().cold_loaded(),
            "no naming rounds ran"
        );
        assert_eq!(back.patterns(), snap.patterns());
        for text in ["ushershishe", "hers his she he", ""] {
            let t = to_symbols(text);
            assert_eq!(back.find_all(&ctx, &t), snap.find_all(&ctx, &t), "{text:?}");
        }
    }

    #[test]
    fn cold_loaded_snapshot_reserializes_to_same_sidecar() {
        let ctx = Ctx::seq();
        let snap = Snapshot::build_static(&ctx, 3, pats()).unwrap();
        let bytes = snap.to_sidecar_bytes().unwrap();
        let back = Snapshot::from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(
            back.to_sidecar_bytes().unwrap(),
            bytes,
            "v2 sidecar is a serialization fixed point"
        );
    }

    #[test]
    fn wrapped_static_matcher_still_freezes() {
        // `from_static` has no pattern texts, so no sidecar — but a static
        // snapshot built from texts always has one.
        let ctx = Ctx::seq();
        let m = Arc::new(StaticMatcher::build(&ctx, &pats()).unwrap());
        assert!(Snapshot::from_static(0, m).to_sidecar_bytes().is_none());
        let s = Snapshot::build_static(&ctx, 0, pats()).unwrap();
        assert!(s.to_sidecar_bytes().is_some());
    }

    #[test]
    fn empty_epoch_matches_nothing() {
        let ctx = Ctx::seq();
        let snap = Snapshot::build_empty(3);
        assert_eq!(snap.find_all(&ctx, &to_symbols("anything")), vec![]);
        assert_eq!(snap.max_pattern_len(), 0);
        assert!(snap.matcher().is_none());
    }

    #[test]
    fn empty_epoch_sidecar_round_trips() {
        let ctx = Ctx::seq();
        let bytes = Snapshot::build_empty(3).to_sidecar_bytes().unwrap();
        assert_eq!(Snapshot::peek_version(&bytes), Ok(SNAP_VERSION));
        let back = Snapshot::from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(back.epoch(), 3);
        assert_eq!(back.path(), SnapshotPath::ColdLoaded);
        assert_eq!(back.patterns(), Some(&[][..]));
        assert!(back.matcher().is_none());
        assert_eq!(back.find_all(&ctx, &to_symbols("anything")), vec![]);
        assert_eq!(back.to_sidecar_bytes().unwrap(), bytes, "fixed point");
        let info = inspect(&bytes).unwrap();
        assert_eq!((info.version, info.epoch, info.patterns), (2, 3, 0));
        assert_eq!(info.sections.len(), 2, "META and PATTERNS only");
        // A build of the empty dictionary is the same epoch.
        let built = Snapshot::build_static(&ctx, 3, Vec::new()).unwrap();
        assert_eq!(built.to_sidecar_bytes().unwrap(), bytes);
    }

    /// The retired version-1 layout: header, epoch, then the pattern list.
    fn v1_bytes(epoch: u64, patterns: &[Vec<Sym>]) -> Vec<u8> {
        let mut out = Vec::new();
        codec::write_header(&mut out, SNAP_MAGIC, 1);
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&encode_patterns(patterns));
        out
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let ctx = Ctx::seq();
        assert!(matches!(
            Snapshot::from_bytes(&ctx, b"PDMX\x01\x00\x00\x00"),
            Err(SnapError::Corrupt(CodecError::BadMagic { .. }))
        ));
        let mut bytes = Snapshot::build_empty(0).to_sidecar_bytes().unwrap();
        bytes.push(0);
        assert!(Snapshot::from_bytes(&ctx, &bytes).is_err(), "trailing byte");
        let mut v9 = Snapshot::build_empty(0).to_sidecar_bytes().unwrap();
        v9[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&ctx, &v9),
            Err(SnapError::Corrupt(CodecError::VersionMismatch {
                found: 9,
                ..
            }))
        ));
    }

    #[test]
    fn corrupt_sidecar_v2_rejected_everywhere() {
        let ctx = Ctx::seq();
        let bytes = Snapshot::build_static(&ctx, 1, pats())
            .unwrap()
            .to_sidecar_bytes()
            .unwrap();
        // Any bit flip breaks the whole-file CRC (or the magic/framing).
        let step = (bytes.len() / 37).max(1);
        for at in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x08;
            assert!(Snapshot::from_bytes(&ctx, &bad).is_err(), "flip at {at}");
        }
        // Truncation at any point is rejected too.
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Snapshot::from_bytes(&ctx, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn inspect_reports_both_versions() {
        let ctx = Ctx::seq();
        let snap = Snapshot::build_static(&ctx, 5, pats()).unwrap();
        // Version 1 is no longer read, by the loader or by inspect.
        let v1 = v1_bytes(5, &pats());
        for err in [
            Snapshot::from_bytes(&ctx, &v1).unwrap_err(),
            inspect(&v1).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    SnapError::Corrupt(CodecError::VersionMismatch {
                        found: 1,
                        supported: SNAP_VERSION
                    })
                ),
                "{err}"
            );
        }
        let v2 = inspect(&snap.to_sidecar_bytes().unwrap()).unwrap();
        assert_eq!((v2.version, v2.epoch, v2.patterns), (2, 5, 4));
        let ids: Vec<u32> = v2.sections.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            ids,
            [
                SEC_META,
                SEC_PATTERNS,
                SEC_TABLES,
                SEC_CHAINS,
                SEC_PREFILTER
            ]
        );
    }
}
