//! SWAR byte-level prefilter with candidate-window verification.
//!
//! The KMR text pipeline costs `O(n log m)` work on *every* position, hit
//! or miss. On sparse-hit workloads almost all of that work proves a
//! negative. This stage spends `O(n)` branch-light scanning to locate the
//! few positions that *could* start a match, then lets the existing KMR
//! path verify only those candidate windows — the match set is provably
//! identical (DESIGN.md §16).
//!
//! Two scan engines, chosen at build time by a density estimator:
//!
//! * **Rare-byte** ([`Engine::Rare`]): every pattern nominates the
//!   (background-frequency) rarest byte it contains, at a recorded offset.
//!   If the nominations collapse onto ≤ 3 distinct bytes with a small
//!   offset set, the scan is up to 3 memchr-style SWAR passes
//!   (broadcast / XOR / zero-lane detection over `u64` gulps); each hit
//!   `i` proposes candidate starts `i − off`.
//! * **Pair-mask** ([`Engine::Pair`]): two 256-bit classes over the
//!   first and second pattern bytes; position `i` is a candidate iff
//!   `text[i]` is a first-byte and `text[i+1]` a second-byte.
//!
//! Every proposed start then passes an **exact two-symbol screen** (a hash
//! set of the patterns' first two symbols — full `u32` symbols, so `u8`
//! shadow aliasing is rejected here), which keeps verification work
//! proportional to *plausible* starts rather than raw byte hits.
//!
//! Both engines are *complete*: a pattern occurrence at `t` implies its
//! nominated byte occurs at `t + off` (rare) and its first two symbols
//! occur at `t` (pair/screen), so `t` is always proposed and always
//! survives the screen. The engines may propose extra starts (shadow
//! aliasing, SWAR borrow artifacts); verification removes them. Dense
//! dictionaries are declined at build time with a recorded reason, and a
//! runtime bail-out abandons the scan as soon as screened candidates
//! exceed `scanned /` [`DENSITY_BAILOUT_DIV`] over the prefix scanned so
//! far, so saturated texts degrade to the unfiltered path plus one cheap
//! truncated scan instead of drowning in windows.

mod swar;

use crate::dict::Sym;
use pdm_primitives::FxHashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Texts shorter than this skip the prefilter: the scan setup would cost
/// more than the KMR rounds it saves.
pub const PREFILTER_MIN_TEXT: usize = 64;

/// Runtime bail-out: abandon the scan once screened candidates exceed
/// `scanned / DENSITY_BAILOUT_DIV + 64` over the prefix scanned so far
/// (hits arrive in ascending order, so a saturated text is detected and
/// abandoned within its first few hundred positions, not at the end).
pub const DENSITY_BAILOUT_DIV: usize = 8;

/// Rare-byte engine limits: at most this many distinct scan bytes…
const RARE_MAX_BYTES: usize = 3;
/// …and at most this many `(byte, offset)` pairs overall (each hit
/// proposes one start per offset of its byte).
const RARE_MAX_OFFSETS: usize = 8;

/// Build-time density ceilings (estimated candidate fraction of `n`).
const RARE_MAX_EST: f64 = 0.05;
const PAIR_MAX_EST: f64 = 0.20;

/// Why a matcher has no active prefilter — stable strings so stats stay
/// `Copy` and sidecars can code them compactly.
pub const REASON_DENSE: &str = "dense byte classes";
pub const REASON_ENV: &str = "disabled by PDM_PREFILTER";
pub const REASON_NO_PATTERNS: &str = "pattern texts unavailable";

/// Build-time outcome, surfaced through `DictStats` / `pdm stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterDecision {
    /// SWAR rare-byte scan is active.
    RareByte,
    /// First-two-byte class masks are active.
    PairMask,
    /// Prefilter declined; the string says why.
    Disabled(&'static str),
}

impl PrefilterDecision {
    /// Human-readable form for CLI output.
    pub fn describe(&self) -> String {
        match self {
            Self::RareByte => "rare-byte SWAR scan".into(),
            Self::PairMask => "first-pair byte masks".into(),
            Self::Disabled(why) => format!("off ({why})"),
        }
    }
}

/// One rare-byte scan target: scan the shadow for `byte`; a hit at `i`
/// proposes candidate starts `i − off` for every recorded offset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RareAnchor {
    byte: u8,
    offsets: Vec<u32>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Engine {
    Rare(Vec<RareAnchor>),
    Pair { mask1: [u64; 4], mask2: [u64; 4] },
}

/// Cumulative scan counters (`pdm stats`); relaxed atomics, matcher-wide.
#[derive(Debug, Default)]
struct PfMetrics {
    scans: AtomicU64,
    candidates: AtomicU64,
    windows: AtomicU64,
    verified_syms: AtomicU64,
    bailouts: AtomicU64,
}

/// Copy snapshot of the scan counters for stats reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterCounters {
    /// `find_all` calls that ran the scan.
    pub scans: u64,
    /// Candidate starts proposed to the exact two-symbol screen.
    pub candidates: u64,
    /// Verification windows emitted.
    pub windows: u64,
    /// Symbols handed to KMR verification (vs. `n` per unfiltered call).
    pub verified_syms: u64,
    /// Scans abandoned by the runtime density bail-out.
    pub bailouts: u64,
}

/// What one scan concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanVerdict {
    /// Candidate windows are in the output buffer; verify only those.
    Windows,
    /// Too many candidates — run the unfiltered path.
    TooDense,
    /// Engine disabled at build time.
    Inactive,
}

/// The built prefilter: scan engine + exact screen + counters. Attached to
/// a `StaticMatcher` when pattern texts were available at build (or primed
/// from a snapshot sidecar).
#[derive(Debug)]
pub struct Prefilter {
    decision: PrefilterDecision,
    engine: Option<Engine>,
    /// Longest pattern length `m` (window extension and merge gap).
    max_len: usize,
    /// Exact first-two-symbol keys of every length ≥ 2 pattern.
    screen2: FxHashSet<u64>,
    /// Exact first symbols of every length-1 pattern.
    len1: FxHashSet<Sym>,
    metrics: PfMetrics,
}

#[inline]
fn pack2(a: Sym, b: Sym) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Background byte weight: a coarse prior over "typical" text/binary
/// inputs used only to *rank* bytes by rarity and estimate candidate
/// density. Exactness does not matter — correctness never depends on it.
fn bg_weight(b: u8) -> u32 {
    match b {
        b' ' | b'e' | b't' | b'a' | b'o' | b'i' | b'n' => 600,
        b's' | b'r' | b'h' | b'l' | b'd' | b'c' | b'u' => 350,
        b'b'..=b'z' => 200,
        b'A'..=b'Z' | b'0'..=b'9' => 120,
        0 => 150,
        1..=31 | 127 => 40,
        b'.' | b',' | b'-' | b'_' | b'/' | b':' => 90,
        33..=126 => 60,
        _ => 50,
    }
}

impl Prefilter {
    /// Analyze a dictionary and build the scan engine the density
    /// estimator permits (possibly none — the decision records why).
    /// `PDM_PREFILTER=0` (or `off`) force-disables.
    pub fn analyze(patterns: &[Vec<Sym>]) -> Prefilter {
        let force_off = std::env::var("PDM_PREFILTER").is_ok_and(|v| v == "0" || v == "off");
        Self::analyze_opts(patterns, force_off)
    }

    pub(crate) fn analyze_opts(patterns: &[Vec<Sym>], force_off: bool) -> Prefilter {
        let max_len = patterns.iter().map(Vec::len).max().unwrap_or(0);
        let mut screen2 = FxHashSet::default();
        let mut len1 = FxHashSet::default();
        for p in patterns {
            match p.as_slice() {
                [] => {}
                [s] => {
                    len1.insert(*s);
                }
                [a, b, ..] => {
                    screen2.insert(pack2(*a, *b));
                }
            }
        }
        let mut pf = Prefilter {
            decision: PrefilterDecision::Disabled(REASON_DENSE),
            engine: None,
            max_len,
            screen2,
            len1,
            metrics: PfMetrics::default(),
        };
        if force_off {
            pf.decision = PrefilterDecision::Disabled(REASON_ENV);
            return pf;
        }
        if patterns.is_empty() || max_len == 0 {
            pf.decision = PrefilterDecision::Disabled(REASON_NO_PATTERNS);
            return pf;
        }

        // Effective per-byte probability: the background prior, floored by
        // a uniform draw over the dictionary's own byte alphabet when that
        // alphabet is genuinely small *and* well-sampled — a DNA dictionary
        // over {a,c,g,t} is strong evidence the text alphabet is {a,c,g,t}
        // too, where every byte class saturates even though each letter is
        // background-rare. A two-word dictionary also has few distinct
        // bytes, but says nothing about the text, hence the sample-size
        // gate.
        let mut seen = [false; 256];
        let mut total_syms = 0usize;
        for p in patterns {
            total_syms += p.len();
            for &s in p {
                seen[(s as u8) as usize] = true;
            }
        }
        let sigma_d = seen.iter().filter(|&&x| x).count().max(1);
        let small_alpha = sigma_d <= 8 && total_syms >= 4 * sigma_d;
        let total_w: u32 = (0u16..=255).map(|b| bg_weight(b as u8)).sum();
        let p_eff = |b: u8| -> f64 {
            let bg = f64::from(bg_weight(b)) / f64::from(total_w);
            if small_alpha {
                bg.max(1.0 / sigma_d as f64)
            } else {
                bg
            }
        };

        // Rare-byte nomination: each pattern's minimum-weight byte
        // (ties break toward the smallest offset).
        let mut anchors: Vec<RareAnchor> = Vec::new();
        let mut feasible = true;
        for p in patterns {
            let Some((off, &sym)) = p
                .iter()
                .enumerate()
                .min_by_key(|&(i, &s)| (bg_weight(s as u8), i))
            else {
                continue;
            };
            let byte = sym as u8;
            let a = match anchors.iter_mut().find(|a| a.byte == byte) {
                Some(a) => a,
                None => {
                    if anchors.len() == RARE_MAX_BYTES {
                        feasible = false;
                        break;
                    }
                    anchors.push(RareAnchor {
                        byte,
                        offsets: Vec::new(),
                    });
                    anchors.last_mut().expect("just pushed")
                }
            };
            if !a.offsets.contains(&(off as u32)) {
                a.offsets.push(off as u32);
            }
        }
        if feasible {
            let n_offsets: usize = anchors.iter().map(|a| a.offsets.len()).sum();
            let est: f64 = anchors
                .iter()
                .map(|a| p_eff(a.byte) * a.offsets.len() as f64)
                .sum();
            if n_offsets <= RARE_MAX_OFFSETS && est <= RARE_MAX_EST {
                anchors.sort_by_key(|a| a.byte);
                for a in &mut anchors {
                    a.offsets.sort_unstable();
                }
                pf.decision = PrefilterDecision::RareByte;
                pf.engine = Some(Engine::Rare(anchors));
                return pf;
            }
        }

        // Pair-mask fallback over the first two shadow bytes. `mask1`
        // covers *every* pattern's first byte (length-1 ones included), so
        // a position outside `mask1` can start nothing.
        let mut mask1 = [0u64; 4];
        let mut mask2 = [0u64; 4];
        for p in patterns {
            if let Some(&first) = p.first() {
                swar::set_mask(&mut mask1, first as u8);
            }
            if let Some(&second) = p.get(1) {
                swar::set_mask(&mut mask2, second as u8);
            }
        }
        let class_p = |mask: &[u64; 4]| -> f64 {
            (0u16..=255)
                .filter(|&b| swar::in_mask(mask, b as u8))
                .map(|b| p_eff(b as u8))
                .sum()
        };
        let has_len1 = !pf.len1.is_empty();
        let est = class_p(&mask1) * if has_len1 { 1.0 } else { class_p(&mask2) };
        if est <= PAIR_MAX_EST {
            pf.decision = PrefilterDecision::PairMask;
            pf.engine = Some(Engine::Pair { mask1, mask2 });
        }
        pf
    }

    /// Build-time decision (strategy or disable reason).
    pub fn decision(&self) -> PrefilterDecision {
        self.decision
    }

    /// Snapshot of the cumulative scan counters.
    pub fn counters(&self) -> PrefilterCounters {
        PrefilterCounters {
            scans: self.metrics.scans.load(Ordering::Relaxed),
            candidates: self.metrics.candidates.load(Ordering::Relaxed),
            windows: self.metrics.windows.load(Ordering::Relaxed),
            verified_syms: self.metrics.verified_syms.load(Ordering::Relaxed),
            bailouts: self.metrics.bailouts.load(Ordering::Relaxed),
        }
    }

    /// Record KMR verification volume (called by the window driver).
    pub(crate) fn note_verified(&self, syms: u64, windows: u64) {
        self.metrics
            .verified_syms
            .fetch_add(syms, Ordering::Relaxed);
        self.metrics.windows.fetch_add(windows, Ordering::Relaxed);
    }

    /// Longest pattern length the engine was built for.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Exact screen: could *some* pattern start at `text[s]`?
    #[inline]
    fn screen(&self, text: &[Sym], s: usize) -> bool {
        (s + 1 < text.len() && self.screen2.contains(&pack2(text[s], text[s + 1])))
            || (!self.len1.is_empty() && self.len1.contains(&text[s]))
    }

    /// Scan `text`, filling `windows` with disjoint candidate-start
    /// windows `(ws, we)` (starts-space, `we` exclusive), ascending.
    /// `shadow` and `starts` are caller-owned scratch.
    pub(crate) fn scan(
        &self,
        text: &[Sym],
        shadow: &mut Vec<u8>,
        starts: &mut Vec<usize>,
        windows: &mut Vec<(usize, usize)>,
    ) -> ScanVerdict {
        let Some(engine) = &self.engine else {
            return ScanVerdict::Inactive;
        };
        let n = text.len();
        let cap = n / DENSITY_BAILOUT_DIV + 64;
        self.metrics.scans.fetch_add(1, Ordering::Relaxed);
        starts.clear();
        windows.clear();
        swar::pack_shadow(text, shadow);
        let mut proposed = 0u64;
        let mut over = false;
        match engine {
            Engine::Rare(anchors) => {
                for a in anchors {
                    if over {
                        break;
                    }
                    // Prefix-density bail-out: hits arrive in ascending
                    // position order, so once *this anchor's* screened
                    // starts exceed the density cap over the prefix
                    // scanned so far, the text is saturated — stop
                    // immediately instead of scanning to the end.
                    let base = starts.len();
                    swar::for_each_byte_hit(shadow, a.byte, |i| {
                        for &off in &a.offsets {
                            let Some(s) = i.checked_sub(off as usize) else {
                                continue;
                            };
                            proposed += 1;
                            if self.screen(text, s) {
                                starts.push(s);
                            }
                        }
                        if starts.len() - base > i / DENSITY_BAILOUT_DIV + 64 {
                            over = true;
                        }
                        !over
                    });
                }
                if starts.len() > cap {
                    over = true;
                }
                if !over {
                    starts.sort_unstable();
                    starts.dedup();
                }
            }
            Engine::Pair { mask1, mask2 } => {
                let has_len1 = !self.len1.is_empty();
                for i in 0..n {
                    if !swar::in_mask(mask1, shadow[i]) {
                        continue;
                    }
                    proposed += 1;
                    let pair_hit = i + 1 < n
                        && swar::in_mask(mask2, shadow[i + 1])
                        && self.screen2.contains(&pack2(text[i], text[i + 1]));
                    if pair_hit || (has_len1 && self.len1.contains(&text[i])) {
                        starts.push(i);
                        if starts.len() > i / DENSITY_BAILOUT_DIV + 64 {
                            over = true;
                            break;
                        }
                    }
                }
            }
        }
        self.metrics
            .candidates
            .fetch_add(proposed, Ordering::Relaxed);
        if over {
            self.metrics.bailouts.fetch_add(1, Ordering::Relaxed);
            return ScanVerdict::TooDense;
        }
        // Merge nearby starts: one window per cluster, gap = m (the per-
        // window verification tail is m − 1 symbols, so closer clusters
        // are cheaper merged than re-scanned).
        let gap = self.max_len.max(8);
        for &s in starts.iter() {
            match windows.last_mut() {
                Some(last) if s < last.1 + gap => last.1 = s + 1,
                _ => windows.push((s, s + 1)),
            }
        }
        ScanVerdict::Windows
    }

    /// Deterministic sidecar encoding (sorted sets ⇒ load/save is a byte
    /// fixed point).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (kind, reason) = match (&self.engine, self.decision) {
            (Some(Engine::Rare(_)), _) => (1u8, 0u8),
            (Some(Engine::Pair { .. }), _) => (2, 0),
            (None, PrefilterDecision::Disabled(r)) => (0, reason_code(r)),
            (None, _) => (0, 0),
        };
        out.push(kind);
        out.push(reason);
        out.extend_from_slice(&(self.max_len as u32).to_le_bytes());
        match &self.engine {
            Some(Engine::Rare(anchors)) => {
                out.push(anchors.len() as u8);
                for a in anchors {
                    out.push(a.byte);
                    out.extend_from_slice(&(a.offsets.len() as u32).to_le_bytes());
                    for &o in &a.offsets {
                        out.extend_from_slice(&o.to_le_bytes());
                    }
                }
            }
            Some(Engine::Pair { mask1, mask2 }) => {
                for w in mask1.iter().chain(mask2.iter()) {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            None => {}
        }
        let mut keys: Vec<u64> = self.screen2.iter().copied().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for k in keys {
            out.extend_from_slice(&k.to_le_bytes());
        }
        let mut ones: Vec<Sym> = self.len1.iter().copied().collect();
        ones.sort_unstable();
        out.extend_from_slice(&(ones.len() as u32).to_le_bytes());
        for s in ones {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Decode a sidecar section written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Prefilter, &'static str> {
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], &'static str> {
            let s = bytes.get(at..at + n).ok_or("prefilter section truncated")?;
            at += n;
            Ok(s)
        };
        let kind = take(1)?[0];
        let reason = take(1)?[0];
        let max_len = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
        let engine = match kind {
            0 => None,
            1 => {
                let n_anchors = take(1)?[0] as usize;
                let mut anchors = Vec::with_capacity(n_anchors);
                for _ in 0..n_anchors {
                    let byte = take(1)?[0];
                    let n_offs = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
                    let mut offsets = Vec::with_capacity(n_offs.min(1024));
                    for _ in 0..n_offs {
                        offsets.push(u32::from_le_bytes(take(4)?.try_into().expect("sized")));
                    }
                    anchors.push(RareAnchor { byte, offsets });
                }
                Some(Engine::Rare(anchors))
            }
            2 => {
                let mut mask1 = [0u64; 4];
                let mut mask2 = [0u64; 4];
                for w in mask1.iter_mut().chain(mask2.iter_mut()) {
                    *w = u64::from_le_bytes(take(8)?.try_into().expect("sized"));
                }
                Some(Engine::Pair { mask1, mask2 })
            }
            _ => return Err("unknown prefilter engine kind"),
        };
        let n2 = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
        let mut screen2 = FxHashSet::default();
        for _ in 0..n2 {
            screen2.insert(u64::from_le_bytes(take(8)?.try_into().expect("sized")));
        }
        let n1 = u32::from_le_bytes(take(4)?.try_into().expect("sized")) as usize;
        let mut len1 = FxHashSet::default();
        for _ in 0..n1 {
            len1.insert(u32::from_le_bytes(take(4)?.try_into().expect("sized")));
        }
        if at != bytes.len() {
            return Err("trailing bytes in prefilter section");
        }
        let decision = match &engine {
            Some(Engine::Rare(_)) => PrefilterDecision::RareByte,
            Some(Engine::Pair { .. }) => PrefilterDecision::PairMask,
            None => PrefilterDecision::Disabled(reason_str(reason)),
        };
        Ok(Prefilter {
            decision,
            engine,
            max_len,
            screen2,
            len1,
            metrics: PfMetrics::default(),
        })
    }
}

fn reason_code(r: &'static str) -> u8 {
    match r {
        REASON_DENSE => 1,
        REASON_ENV => 2,
        REASON_NO_PATTERNS => 3,
        _ => 0,
    }
}

fn reason_str(code: u8) -> &'static str {
    match code {
        1 => REASON_DENSE,
        2 => REASON_ENV,
        3 => REASON_NO_PATTERNS,
        _ => "disabled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::{symbolize, to_symbols};

    fn scan_windows(pf: &Prefilter, text: &[Sym]) -> (ScanVerdict, Vec<(usize, usize)>) {
        let (mut sh, mut st, mut w) = (Vec::new(), Vec::new(), Vec::new());
        let v = pf.scan(text, &mut sh, &mut st, &mut w);
        (v, w)
    }

    #[test]
    fn few_patterns_get_rare_byte_engine() {
        let pf = Prefilter::analyze_opts(&symbolize(&["quiz", "jukebox"]), false);
        assert_eq!(pf.decision(), PrefilterDecision::RareByte);
    }

    #[test]
    fn tiny_sampled_alphabet_is_declined() {
        // DNA-ish: the dictionary alphabet is tiny and well-sampled, so
        // the estimator assumes the text alphabet matches and every byte
        // class saturates.
        let pf =
            Prefilter::analyze_opts(&symbolize(&["acgt", "tgca", "gatt", "acca", "ctag"]), false);
        assert_eq!(pf.decision(), PrefilterDecision::Disabled(REASON_DENSE));
        let (v, _) = scan_windows(&pf, &to_symbols("acgtacgt"));
        assert_eq!(v, ScanVerdict::Inactive);
    }

    #[test]
    fn windows_cover_every_occurrence() {
        let pats = symbolize(&["zebra", "quartz"]);
        let pf = Prefilter::analyze_opts(&pats, false);
        assert_eq!(pf.decision(), PrefilterDecision::RareByte);
        let text = to_symbols("a zebra ate quartz near the zebra pen");
        let (v, windows) = scan_windows(&pf, &text);
        assert_eq!(v, ScanVerdict::Windows);
        for occ in [2usize, 12, 28] {
            assert!(
                windows.iter().any(|&(s, e)| s <= occ && occ < e),
                "occurrence at {occ} not covered by {windows:?}"
            );
        }
    }

    #[test]
    fn windows_are_disjoint_and_ascending() {
        let pats = symbolize(&["zebra", "quartz"]);
        let pf = Prefilter::analyze_opts(&pats, false);
        let text = to_symbols("zebra quartz zebrazebra mm zebra quartzquartz m");
        let (v, windows) = scan_windows(&pf, &text);
        assert_eq!(v, ScanVerdict::Windows);
        assert!(!windows.is_empty());
        for w in windows.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn saturated_text_bails_out() {
        let pats = symbolize(&["ab"]);
        let pf = Prefilter::analyze_opts(&pats, false);
        let text: Vec<Sym> = to_symbols(&"ab".repeat(600));
        let (v, _) = scan_windows(&pf, &text);
        assert_eq!(v, ScanVerdict::TooDense);
        assert_eq!(pf.counters().bailouts, 1);
    }

    #[test]
    fn len1_patterns_screen_on_first_symbol() {
        let pats = vec![vec![u32::from(b'q')], symbolize(&["zap"])[0].clone()];
        let pf = Prefilter::analyze_opts(&pats, false);
        let text = to_symbols("mmmqmmmzapmm");
        let (v, windows) = scan_windows(&pf, &text);
        assert_eq!(v, ScanVerdict::Windows);
        for occ in [3usize, 7] {
            assert!(
                windows.iter().any(|&(s, e)| s <= occ && occ < e),
                "occurrence at {occ} not covered by {windows:?}"
            );
        }
    }

    #[test]
    fn high_symbols_alias_safely() {
        // Symbol 0x100 + 'z' truncates to 'z' in the shadow; the exact
        // screen must reject the alias but keep the true occurrence.
        let zed = u32::from(b'z') + 0x100;
        let pats = vec![vec![zed, zed, u32::from(b'k')]];
        let pf = Prefilter::analyze_opts(&pats, false);
        let mut text: Vec<Sym> = to_symbols("zzkmmmmmmmmm");
        text.extend_from_slice(&[zed, zed, u32::from(b'k')]);
        let (v, windows) = scan_windows(&pf, &text);
        assert_eq!(v, ScanVerdict::Windows);
        let occ = 12usize;
        assert!(
            windows.iter().any(|&(s, e)| s <= occ && occ < e),
            "true high-symbol occurrence not covered: {windows:?}"
        );
        // The alias cluster at 0 must not contain a *kept* match — that is
        // verification's job, but the screen should already reject it.
        assert!(
            !windows.iter().any(|&(s, e)| s == 0 && 0 < e),
            "aliased start survived the exact screen: {windows:?}"
        );
    }

    #[test]
    fn force_off_records_env_reason() {
        let pf = Prefilter::analyze_opts(&symbolize(&["quiz"]), true);
        assert_eq!(pf.decision(), PrefilterDecision::Disabled(REASON_ENV));
        let (v, _) = scan_windows(&pf, &to_symbols("a quiz"));
        assert_eq!(v, ScanVerdict::Inactive);
    }

    #[test]
    fn serialization_roundtrip_is_fixed_point() {
        for pats in [
            symbolize(&["quiz", "jukebox"]),
            symbolize(&["alpha", "beta", "gamma", "delta"]),
            symbolize(&["acgt", "tgca", "gatt", "acca", "ctag"]),
        ] {
            let pf = Prefilter::analyze_opts(&pats, false);
            let bytes = pf.to_bytes();
            let back = Prefilter::from_bytes(&bytes).unwrap();
            assert_eq!(back.decision(), pf.decision());
            assert_eq!(back.engine, pf.engine);
            assert_eq!(back.max_len(), pf.max_len());
            assert_eq!(back.to_bytes(), bytes, "byte fixed point");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Prefilter::from_bytes(&[]).is_err());
        assert!(Prefilter::from_bytes(&[9, 0, 0, 0, 0, 0]).is_err());
        let pf = Prefilter::analyze_opts(&symbolize(&["quiz"]), false);
        let mut bytes = pf.to_bytes();
        bytes.push(0);
        assert!(Prefilter::from_bytes(&bytes).is_err(), "trailing byte");
    }
}
