//! Small-alphabet dictionary matching (paper §4.4, Theorems 4–5 and
//! Corollaries 1–2).
//!
//! The base algorithm (§4) spends `O(log m)` work per text position. For a
//! small alphabet `Σ` the paper trades dictionary work for text work with a
//! collapse parameter `L`:
//!
//! * **Modified shrink-and-spawn:** build `𝒫`, the `≤(L−1)`-depth suffixes
//!   of every pattern (depths `0..L`, the paper's "`L` copies obtained by
//!   successively dropping the leading symbol"); shrink text and `𝒫` by `L`
//!   and keep only text positions `≡ 0 (mod L)` — the text *collapses* to
//!   `n/L` positions.
//! * **Step 2:** match the collapsed text against the shrunk `𝒫` with the
//!   §4 matcher — `O((n/L)·log m)` work: the win.
//! * **Step 3 (Extend-Right):** `< L` per-symbol extensions at each aligned
//!   position give `ψ(i)`, the longest `𝒫`-prefix at `i`.
//! * **Step 4 (Extend-Left):** recover the `L−1` dropped positions per
//!   window from their aligned right neighbour:
//!   `α(0) = ψ(i)`, `α(ℓ) = g(T(i−ℓ), α(ℓ−1))`, where
//!   `g(σ, B)` = longest prefix of `σ‖B` that is a `𝒫`-prefix — the
//!   alphabet-dependent table of size `O(M·L·|Σ|)` precomputed from
//!   `𝒫'' = Σ × 𝒫`. The longest *pattern* at `i−ℓ` is then the longest
//!   pattern-prefix of `α(ℓ)` (correctness: every pattern matching at
//!   `i−ℓ` lifts along the suffix chain into `ψ(i)`, all intermediate
//!   depths `≤ ℓ < L` being members of `𝒫`; and `α(ℓ)` itself matches at
//!   `i−ℓ`).
//!
//! One implementation augmentation (DESIGN.md §4.2): prefix names are also
//! computed for depth-`L` suffixes — naming only, never membership — so the
//! membership tuples `(D(1), δ(D(2..)))` exist for *every* member prefix
//! `D`, replacing the paper's per-step `≤(L−ℓ)`-suffix bookkeeping with a
//! constant-factor preprocessing cost.
//!
//! Bounds (Theorem 4): dictionary `O(M·L·|Σ|)` work; text
//! `O(n·log m / L + n)` work, `O(L + log m)` time. Corollary 1's sweet spot
//! is `L ≈ √(log m / |Σ|)`.
//!
//! ```
//! use pdm_core::smallalpha::SmallAlphaMatcher;
//! use pdm_pram::Ctx;
//!
//! let ctx = Ctx::seq();
//! // DNA dictionary (|Σ| = 4): collapse parameter chosen per Corollary 1.
//! let pats: Vec<Vec<u32>> = vec![vec![0, 1, 0], vec![1, 1]];
//! let m = SmallAlphaMatcher::build(&ctx, &pats, 4).unwrap();
//! let out = m.match_text(&ctx, &[2, 0, 1, 0, 1, 1, 3]);
//! assert_eq!(out.longest_pattern[1], Some(0)); // [0,1,0] at 1
//! assert_eq!(out.longest_pattern[4], Some(1)); // [1,1] at 4
//! ```

use crate::dict::{validate_dictionary, BuildError, PatId, Sym};
use crate::scratch::{ensure, TextScratch};
use crate::static1d::{PrefixMatch, StaticMatcher};
use pdm_naming::{FrozenNameTable, NamePool, NameTable, IDENTITY};
use pdm_pram::{ceil_log2, Ctx};
use pdm_primitives::table::pack;
use pdm_primitives::FxHashMap;

/// Sentinel symbol for text blocks absent from the shrunk dictionary.
const UNKNOWN_SYM: u32 = u32::MAX - 1;

/// Per-position output of the §4.4 matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallAlphaOutput {
    pub longest_pattern: Vec<Option<PatId>>,
    pub longest_pattern_len: Vec<u32>,
}

/// Small-alphabet matcher (Theorem 4).
#[derive(Debug)]
pub struct SmallAlphaMatcher {
    l_param: usize,
    sigma: u32,
    max_len: usize,
    n_patterns: usize,
    total_len: usize,
    /// §4 matcher over the shrunk members (None if every member is < L).
    inner: Option<StaticMatcher>,
    /// `L`-block naming, shared by dictionary and text shrinking.
    block_tuple: NameTable,
    /// Atomics-free snapshot of `block_tuple` for text-side shrinking (the
    /// dictionary side finished inserting at build time).
    frozen_block_tuple: FrozenNameTable,
    /// inner (block-level) prefix name → `(char-level prefix name, chars)`.
    block_to_char: FxHashMap<u32, (u32, u32)>,
    /// `(char-level prefix name, symbol) → extended prefix name`, member
    /// prefixes only (drives Extend-Right).
    rightext: FxHashMap<u64, u32>,
    /// `g`: `(symbol, prefix name) → (prefix name, len)` — longest
    /// `𝒫`-prefix of `σ‖B`. Key `(σ, IDENTITY)` handles empty `B`.
    g: FxHashMap<u64, (u32, u32)>,
    /// char-level prefix name → longest pattern `(id, len)` prefixing it.
    longest_pat: FxHashMap<u32, (u32, u32)>,
}

impl SmallAlphaMatcher {
    /// Corollary 1's collapse parameter for a given `m` and `|Σ|`.
    pub fn default_l(max_len: usize, sigma: u32) -> usize {
        let lg = ceil_log2(max_len).max(1) as f64;
        ((lg / sigma as f64).sqrt().round() as usize).clamp(1, max_len)
    }

    /// Build with the Corollary-1 default `L`.
    pub fn build(ctx: &Ctx, patterns: &[Vec<Sym>], sigma: u32) -> Result<Self, BuildError> {
        let (_, m) = validate_dictionary(patterns)?;
        Self::build_with_l(ctx, patterns, sigma, Self::default_l(m, sigma))
    }

    /// Build with an explicit `L ≥ 1` (Theorem 4 is parameterized by it).
    pub fn build_with_l(
        ctx: &Ctx,
        patterns: &[Vec<Sym>],
        sigma: u32,
        l_param: usize,
    ) -> Result<Self, BuildError> {
        let (total, max_len) = validate_dictionary(patterns)?;
        if l_param < 1 {
            return Err(BuildError::Unsupported("L must be ≥ 1".into()));
        }
        if let Some(p) = patterns.iter().flatten().find(|&&c| c >= sigma) {
            return Err(BuildError::Unsupported(format!(
                "symbol {p} outside alphabet of size {sigma}"
            )));
        }
        let l = l_param.min(max_len);
        let pool = NamePool::dictionary();

        // ---- 𝒫⁺: suffixes of depth 0..=L (depth L: naming only) ----------
        // members[(pat, depth)] with depth ≤ L−1; naming layer adds depth L.
        struct SufStr {
            pat: u32,
            depth: u32,
            start: usize,
        }
        let mut sufs: Vec<SufStr> = Vec::new();
        for (pid, p) in patterns.iter().enumerate() {
            for depth in 0..=l {
                if depth < p.len() {
                    sufs.push(SufStr {
                        pat: pid as u32,
                        depth: depth as u32,
                        start: depth,
                    });
                }
            }
        }
        let str_of = |s: &SufStr| -> &[Sym] { &patterns[s.pat as usize][s.start..] };

        // ---- char-level prefix names: left-chain naming ------------------
        // chain also *is* the extension relation; member entries are copied
        // into `rightext`.
        let chain = NameTable::with_capacity(total * (l + 2) + 16, pool.clone());
        let mut prefs: Vec<Vec<u32>> = Vec::with_capacity(sufs.len());
        let mut rightext: FxHashMap<u64, u32> = FxHashMap::default();
        for s in &sufs {
            let st = str_of(s);
            let mut pv = Vec::with_capacity(st.len());
            let mut cur = IDENTITY;
            for &c in st {
                let nx = chain.name(cur, c);
                if s.depth < l as u32 {
                    rightext.insert(pack(cur, c), nx);
                }
                pv.push(nx);
                cur = nx;
            }
            prefs.push(pv);
        }
        // Index: (pat, depth) → suffix index, for the σ-extension tuples.
        let mut suf_idx: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        for (i, s) in sufs.iter().enumerate() {
            suf_idx.insert((s.pat, s.depth), i);
        }

        // ---- longest-pattern attribution over member prefixes ------------
        let mut pattern_name: FxHashMap<u32, u32> = FxHashMap::default(); // full name → pid
        for (i, s) in sufs.iter().enumerate() {
            if s.depth == 0 {
                pattern_name.insert(*prefs[i].last().unwrap(), s.pat);
            }
        }
        let mut longest_pat: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
        for (i, s) in sufs.iter().enumerate() {
            if s.depth as usize >= l {
                continue; // members only
            }
            let mut last: Option<(u32, u32)> = None;
            for (t, &nm) in prefs[i].iter().enumerate() {
                if let Some(&pid) = pattern_name.get(&nm) {
                    last = Some((pid, t as u32 + 1));
                }
                if let Some(v) = last {
                    longest_pat.insert(nm, v);
                }
            }
        }

        // ---- σ-extension tuples: σ‖C membership --------------------------
        // Member prefix D = suffix(pat, j)[..t+1], j ≤ L−1: key
        // (D[0], δ(D[1..])) where D[1..] = suffix(pat, j+1)[..t] — named
        // thanks to the depth-L naming layer.
        let mut sigext: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        for (i, s) in sufs.iter().enumerate() {
            if s.depth as usize >= l {
                continue;
            }
            let st = str_of(s);
            let nxt = suf_idx.get(&(s.pat, s.depth + 1)).copied();
            for t in 0..st.len() {
                // D = st[..t+1]; D[1..] has length t.
                let tail_name = if t == 0 {
                    IDENTITY
                } else {
                    let ni = nxt.expect("depth+1 suffix exists when t ≥ 1");
                    prefs[ni][t - 1]
                };
                sigext
                    .entry(pack(st[0], tail_name))
                    .or_insert((prefs[i][t], t as u32 + 1));
            }
        }

        // ---- g-table: nearest-membership scan per (σ, member string) -----
        let mut g: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        for (i, s) in sufs.iter().enumerate() {
            if s.depth as usize >= l {
                continue;
            }
            let len = prefs[i].len();
            for sym in 0..sigma {
                let mut cur: Option<(u32, u32)> = sigext.get(&pack(sym, IDENTITY)).copied();
                if let Some(v) = cur {
                    g.insert(pack(sym, IDENTITY), v);
                }
                for t in 1..=len {
                    let b_name = prefs[i][t - 1];
                    if let Some(&v) = sigext.get(&pack(sym, b_name)) {
                        cur = Some(v);
                    }
                    match cur {
                        Some(v) => {
                            g.insert(pack(sym, b_name), v);
                        }
                        None => { /* absent key ⇒ empty α */ }
                    }
                }
            }
        }

        // ---- shrink members by L; build the inner §4 matcher -------------
        let block_tuple = NameTable::with_capacity(total * 2 + 16, pool.clone());
        let mut shrunk: Vec<Vec<u32>> = Vec::new();
        let mut shrunk_owner: Vec<usize> = Vec::new(); // suffix index per shrunk
        {
            let mut seen: FxHashMap<Vec<u32>, ()> = FxHashMap::default();
            for (i, s) in sufs.iter().enumerate() {
                if s.depth as usize >= l {
                    continue;
                }
                let st = str_of(s);
                let nb = st.len() / l;
                if nb == 0 {
                    continue;
                }
                let sv: Vec<u32> = (0..nb)
                    .map(|b| block_tuple.name_tuple(&st[b * l..(b + 1) * l]))
                    .collect();
                if seen.insert(sv.clone(), ()).is_none() {
                    shrunk.push(sv);
                    shrunk_owner.push(i);
                }
            }
        }
        let inner = if shrunk.is_empty() {
            None
        } else {
            Some(StaticMatcher::build(ctx, &shrunk).expect("shrunk members are deduped"))
        };

        // Map inner block-level prefix names to char-level prefix names.
        let mut block_to_char: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
        if let Some(ref im) = inner {
            let iprefs = &im.tables().pattern_prefs;
            for (ip, &si) in shrunk_owner.iter().enumerate() {
                for b in 1..=iprefs[ip].len() {
                    block_to_char
                        .entry(iprefs[ip][b - 1])
                        .or_insert((prefs[si][b * l - 1], (b * l) as u32));
                }
            }
        }

        // Charge the paper's dictionary schedule: O(M·L·|Σ|) work,
        // O(log m + L) rounds (host build above is sequential; the PRAM
        // algorithm runs it as rounds of namestamps + prefix-max scans).
        ctx.cost.rounds(
            (ceil_log2(max_len) + l as u32) as u64,
            (total * l * sigma as usize) as u64,
        );

        let frozen_block_tuple = block_tuple.freeze();
        Ok(SmallAlphaMatcher {
            l_param: l,
            sigma,
            max_len,
            n_patterns: patterns.len(),
            total_len: total,
            inner,
            block_tuple,
            frozen_block_tuple,
            block_to_char,
            rightext,
            g,
            longest_pat,
        })
    }

    pub fn l_param(&self) -> usize {
        self.l_param
    }

    pub fn sigma(&self) -> u32 {
        self.sigma
    }

    /// Number of patterns (`κ`).
    pub fn pattern_count(&self) -> usize {
        self.n_patterns
    }

    /// Total dictionary size in symbols (`M`).
    pub fn symbol_count(&self) -> usize {
        self.total_len
    }

    /// Longest pattern length in the dictionary (`m`).
    pub fn max_pattern_len(&self) -> usize {
        self.max_len
    }

    /// Entries across the collapse tables plus the inner §4 matcher.
    pub fn table_entry_count(&self) -> usize {
        self.block_tuple.len()
            + self.block_to_char.len()
            + self.rightext.len()
            + self.g.len()
            + self.longest_pat.len()
            + self
                .inner
                .as_ref()
                .map_or(0, StaticMatcher::table_entry_count)
    }

    /// Longest pattern per text position.
    pub fn match_text(&self, ctx: &Ctx, text: &[Sym]) -> SmallAlphaOutput {
        let mut scratch = SmallAlphaScratch::new();
        let mut out = SmallAlphaOutput {
            longest_pattern: Vec::new(),
            longest_pattern_len: Vec::new(),
        };
        self.match_text_into(ctx, text, &mut scratch, &mut out);
        out
    }

    /// [`Self::match_text`] into caller-owned buffers: `out` is overwritten
    /// and `scratch` is reused across calls, so a session matching chunk
    /// after chunk allocates nothing once warm (the static1d
    /// `match_into` contract, extended to §4.4).
    pub fn match_text_into(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        scratch: &mut SmallAlphaScratch,
        out: &mut SmallAlphaOutput,
    ) {
        self.match_text_impl(ctx, text, true, scratch, out);
    }

    /// Reference leg probing the concurrent `block_tuple` instead of its
    /// frozen snapshot (equivalence tests, bench before leg). Allocates its
    /// scratch per call — the pre-overhaul behavior.
    pub fn match_text_ref(&self, ctx: &Ctx, text: &[Sym]) -> SmallAlphaOutput {
        let mut scratch = SmallAlphaScratch::new();
        let mut out = SmallAlphaOutput {
            longest_pattern: Vec::new(),
            longest_pattern_len: Vec::new(),
        };
        self.match_text_impl(ctx, text, false, &mut scratch, &mut out);
        out
    }

    fn match_text_impl(
        &self,
        ctx: &Ctx,
        text: &[Sym],
        use_frozen: bool,
        scratch: &mut SmallAlphaScratch,
        out: &mut SmallAlphaOutput,
    ) {
        let n = text.len();
        let l = self.l_param;
        let mut grows = 0u64;
        ensure(&mut out.longest_pattern, n, &mut grows);
        ensure(&mut out.longest_pattern_len, n, &mut grows);
        if n == 0 {
            scratch.grows += grows;
            return;
        }

        // Step 1: collapse the text — L-block names at aligned positions.
        let nb = n / l;
        ensure(&mut scratch.t_shrunk, nb, &mut grows);
        ctx.for_each_mut(&mut scratch.t_shrunk, |k, v| {
            let block = &text[k * l..(k + 1) * l];
            *v = if use_frozen {
                self.frozen_block_tuple.lookup_tuple(block)
            } else {
                self.block_tuple.lookup_tuple(block)
            }
            .unwrap_or(UNKNOWN_SYM)
        });

        // Step 2: §4 prefix matching on the collapsed text.
        let pm = match &self.inner {
            Some(im) => {
                im.prefix_match_into(ctx, &scratch.t_shrunk, &mut scratch.inner, &mut scratch.pm);
                Some(&scratch.pm)
            }
            None => None,
        };

        // Steps 3–4, chunk-grained: window w owns positions
        // [wL−L+1, wL] ∩ [0, n) — contiguous, disjoint ranges that
        // partition the text — so coarse jobs over window runs write the
        // output arrays in place: no per-window buffers, no merge pass
        // (the per-window `Vec` collection dominated this path's profile),
        // and one pool dispatch instead of a fine-grained round.
        let n_windows = n.div_ceil(l) + 1;
        let jobs_n = if ctx.is_parallel() && n > pdm_pram::MIN_CHUNK {
            ctx.exec.threads().clamp(1, n_windows)
        } else {
            1
        };
        // First owned position of window w (clipped; window 0 owns just 0).
        let start = |w: usize| if w == 0 { 0 } else { ((w - 1) * l + 1).min(n) };

        struct Job<'a> {
            wa: usize,
            wb: usize,
            base: usize,
            lp: &'a mut [Option<PatId>],
            ll: &'a mut [u32],
        }
        let mut jobs: Vec<Job> = Vec::with_capacity(jobs_n);
        {
            let mut lp = &mut out.longest_pattern[..];
            let mut ll = &mut out.longest_pattern_len[..];
            let per = n_windows.div_ceil(jobs_n);
            let mut wa = 0usize;
            while wa < n_windows {
                let wb = (wa + per).min(n_windows);
                let take = start(wb) - start(wa);
                let (lp0, rest) = lp.split_at_mut(take);
                lp = rest;
                let (ll0, rest) = ll.split_at_mut(take);
                ll = rest;
                jobs.push(Job {
                    wa,
                    wb,
                    base: start(wa),
                    lp: lp0,
                    ll: ll0,
                });
                wa = wb;
            }
        }

        ctx.for_each_mut_ops(&mut jobs, n as u64, |_, job| {
            for w in job.wa..job.wb {
                let i = w * l;
                // ψ(i): longest member prefix at i.
                let mut alpha: (u32, u32) = (IDENTITY, 0);
                if i < n {
                    let (mut name, mut clen) = match pm {
                        Some(pm) if w < pm.len.len() && pm.len[w] > 0 => {
                            let bc = self.block_to_char[&pm.name[w]];
                            debug_assert_eq!(bc.1, pm.len[w] * l as u32);
                            bc
                        }
                        _ => (IDENTITY, 0),
                    };
                    // Extend-Right: fewer than L per-symbol extensions.
                    for _ in 0..l {
                        let pos = i + clen as usize;
                        if pos >= n || clen as usize >= self.max_len {
                            break;
                        }
                        match self.rightext.get(&pack(name, text[pos])) {
                            Some(&nx) => {
                                name = nx;
                                clen += 1;
                            }
                            None => break,
                        }
                    }
                    alpha = (name, clen);
                    if let Some(&(pid, plen)) =
                        (clen > 0).then(|| self.longest_pat.get(&name)).flatten()
                    {
                        job.lp[i - job.base] = Some(pid);
                        job.ll[i - job.base] = plen;
                    }
                }
                // Extend-Left: α(ℓ) = g(T(i−ℓ), α(ℓ−1)).
                for step in 1..l {
                    let Some(j) = i.checked_sub(step) else { break };
                    if j >= n {
                        continue;
                    }
                    alpha = match self.g.get(&pack(text[j], alpha.0)) {
                        Some(&v) => v,
                        None => (IDENTITY, 0),
                    };
                    if alpha.1 > 0 {
                        if let Some(&(pid, plen)) = self.longest_pat.get(&alpha.0) {
                            job.lp[j - job.base] = Some(pid);
                            job.ll[j - job.base] = plen;
                        }
                    }
                }
            }
        });
        drop(jobs);
        scratch.grows += grows;
    }
}

/// Reusable per-session buffers for [`SmallAlphaMatcher::match_text_into`]:
/// the collapsed text, the inner §4 matcher's [`TextScratch`], and its
/// prefix-match output. Steady-state calls allocate nothing once warm.
#[derive(Debug, Default)]
pub struct SmallAlphaScratch {
    /// Collapsed text: L-block names at aligned positions.
    t_shrunk: Vec<u32>,
    /// Inner §4 matcher scratch.
    inner: TextScratch,
    /// Inner prefix-match output (block-level names/lengths).
    pm: PrefixMatch,
    grows: u64,
}

impl SmallAlphaScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative buffer (re)allocation events (this scratch plus the inner
    /// matcher's).
    pub fn grow_events(&self) -> u64 {
        self.grows + self.inner.grow_events()
    }
}

/// Binary-encoded matching (Theorem 5).
///
/// For alphabets too large for the `O(M·L·|Σ|)` table, the paper encodes
/// each symbol as `b = ⌈log₂|Σ|⌉` bits and runs the Extend-Left machinery
/// bit by bit: dictionary work drops to `O(M·L·log|Σ|)`-style (the
/// alphabet-dependent factor becomes 2), at the cost of `log|Σ|` more
/// left-steps per window. Matches of the bit-encoded dictionary at bit
/// positions `≡ 0 (mod b)` are exactly the symbol-level matches (the
/// fixed-width encoding is aligned, and we only read aligned positions).
#[derive(Debug)]
pub struct BinaryEncodedMatcher {
    inner: SmallAlphaMatcher,
    /// Bits per symbol.
    bits: u32,
}

impl BinaryEncodedMatcher {
    /// Encode one symbol as `bits` bits, MSB first.
    fn encode_into(out: &mut Vec<Sym>, c: Sym, bits: u32) {
        for k in (0..bits).rev() {
            out.push((c >> k) & 1);
        }
    }

    fn encode(s: &[Sym], bits: u32) -> Vec<Sym> {
        let mut out = Vec::with_capacity(s.len() * bits as usize);
        for &c in s {
            Self::encode_into(&mut out, c, bits);
        }
        out
    }

    /// Build with the Corollary-1 default `L` over the bit domain.
    pub fn build(ctx: &Ctx, patterns: &[Vec<Sym>], sigma: u32) -> Result<Self, BuildError> {
        let (_, m) = validate_dictionary(patterns)?;
        let bits = 32 - (sigma.max(2) - 1).leading_zeros();
        let l = SmallAlphaMatcher::default_l(m * bits as usize, 2).max(bits as usize);
        Self::build_with_l(ctx, patterns, sigma, l)
    }

    /// Build with an explicit `L` (in *bit* units, per Theorem 5's step
    /// structure).
    pub fn build_with_l(
        ctx: &Ctx,
        patterns: &[Vec<Sym>],
        sigma: u32,
        l_bits: usize,
    ) -> Result<Self, BuildError> {
        validate_dictionary(patterns)?;
        if let Some(p) = patterns.iter().flatten().find(|&&c| c >= sigma) {
            return Err(BuildError::Unsupported(format!(
                "symbol {p} outside alphabet of size {sigma}"
            )));
        }
        let bits = 32 - (sigma.max(2) - 1).leading_zeros();
        let bit_patterns: Vec<Vec<Sym>> = patterns.iter().map(|p| Self::encode(p, bits)).collect();
        // Distinct symbol patterns stay distinct under fixed-width encoding.
        let inner = SmallAlphaMatcher::build_with_l(ctx, &bit_patterns, 2, l_bits)?;
        Ok(Self { inner, bits })
    }

    /// Bits per symbol used by the encoding.
    pub fn bits_per_symbol(&self) -> u32 {
        self.bits
    }

    /// Collapse parameter of the underlying bit-domain matcher.
    pub fn l_param(&self) -> usize {
        self.inner.l_param()
    }

    /// Number of patterns (`κ`).
    pub fn pattern_count(&self) -> usize {
        self.inner.pattern_count()
    }

    /// Total dictionary size in *symbols* (the bit-domain size divided out).
    pub fn symbol_count(&self) -> usize {
        self.inner.symbol_count() / self.bits as usize
    }

    /// Longest pattern length in *symbols*.
    pub fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len() / self.bits as usize
    }

    /// Entries across the bit-domain matcher's tables.
    pub fn table_entry_count(&self) -> usize {
        self.inner.table_entry_count()
    }

    /// Longest pattern per (symbol) text position.
    pub fn match_text(&self, ctx: &Ctx, text: &[Sym]) -> SmallAlphaOutput {
        let bit_text = Self::encode(text, self.bits);
        let bit_out = self.inner.match_text(ctx, &bit_text);
        let b = self.bits as usize;
        let longest_pattern: Vec<Option<PatId>> = (0..text.len())
            .map(|i| bit_out.longest_pattern[i * b])
            .collect();
        let longest_pattern_len: Vec<u32> = (0..text.len())
            .map(|i| bit_out.longest_pattern_len[i * b] / self.bits)
            .collect();
        ctx.cost.round(text.len() as u64);
        SmallAlphaOutput {
            longest_pattern,
            longest_pattern_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::{symbolize, to_symbols};
    use pdm_baselines::naive;

    fn check_l(patterns: &[Vec<u32>], text: &[u32], sigma: u32, l: usize, tag: &str) {
        let ctx = Ctx::seq();
        let m = SmallAlphaMatcher::build_with_l(&ctx, patterns, sigma, l).expect("build");
        let got: Vec<Option<usize>> = m
            .match_text(&ctx, text)
            .longest_pattern
            .into_iter()
            .map(|o| o.map(|p| p as usize))
            .collect();
        let want = naive::longest_pattern_per_position(patterns, text);
        assert_eq!(got, want, "{tag} (L={l})");
    }

    fn check_all_l(patterns: &[Vec<u32>], text: &[u32], sigma: u32, tag: &str) {
        let maxl = patterns.iter().map(Vec::len).max().unwrap();
        for l in 1..=(maxl + 1).min(6) {
            check_l(patterns, text, sigma, l, tag);
        }
    }

    #[test]
    fn binary_handcrafted() {
        let pats: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 1, 1, 0], vec![1, 1], vec![0]];
        let text: Vec<u32> = vec![0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0];
        check_all_l(&pats, &text, 2, "binary");
    }

    #[test]
    fn ascii_words() {
        let pats = symbolize(&["he", "she", "his", "hers"]);
        let text = to_symbols("ushers and shehis");
        check_all_l(&pats, &text, 128, "ascii");
    }

    #[test]
    fn l_larger_than_patterns() {
        let pats: Vec<Vec<u32>> = vec![vec![0], vec![1, 0]];
        let text: Vec<u32> = vec![1, 0, 0, 1, 0, 1];
        // L exceeding max pattern length gets clamped; all members < L means
        // no inner matcher at L=2.. — pure extend paths.
        for l in 1..=5 {
            check_l(&pats, &text, 2, l, "tiny");
        }
    }

    #[test]
    fn dna_randomized_many_seeds() {
        use pdm_textgen::{strings, Alphabet};
        for seed in 0..12 {
            let mut r = strings::rng(seed);
            let mut text = strings::random_text(&mut r, Alphabet::Dna, 300);
            let pats = strings::excerpt_dictionary(&mut r, &text, 8, 1, 17);
            strings::plant_occurrences(&mut r, &mut text, &pats, 10);
            for l in [1usize, 2, 3, 5] {
                check_l(&pats, &text, 4, l, &format!("dna-{seed}"));
            }
        }
    }

    #[test]
    fn binary_periodic_adversarial() {
        use pdm_textgen::{strings, Alphabet};
        let mut r = strings::rng(5);
        let text = strings::periodic_text(&mut r, Alphabet::Binary, 3, 120);
        let pats: Vec<Vec<u32>> = vec![
            text[0..7].to_vec(),
            text[1..5].to_vec(),
            text[2..4].to_vec(),
            vec![1, 1, 1, 1, 1],
        ];
        // Dedup just in case the period made two equal.
        let mut uniq = pats;
        uniq.sort();
        uniq.dedup();
        check_all_l(&uniq, &text, 2, "periodic");
    }

    #[test]
    fn frozen_fast_path_matches_reference() {
        use pdm_textgen::{strings, Alphabet};
        let mut r = strings::rng(21);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 600);
        let pats = strings::excerpt_dictionary(&mut r, &text, 8, 2, 20);
        strings::plant_occurrences(&mut r, &mut text, &pats, 10);
        let ctx = Ctx::seq();
        for l in [1usize, 2, 3] {
            let m = SmallAlphaMatcher::build_with_l(&ctx, &pats, 4, l).unwrap();
            assert_eq!(
                m.match_text(&ctx, &text),
                m.match_text_ref(&ctx, &text),
                "L={l}"
            );
        }
    }

    #[test]
    fn default_l_formula() {
        assert_eq!(SmallAlphaMatcher::default_l(1024, 2), 2); // √(10/2) ≈ 2.2
        assert_eq!(SmallAlphaMatcher::default_l(1024, 256), 1);
        assert!(SmallAlphaMatcher::default_l(2, 2) >= 1);
    }

    #[test]
    fn rejects_out_of_alphabet_symbols() {
        let ctx = Ctx::seq();
        let pats: Vec<Vec<u32>> = vec![vec![0, 5]];
        assert!(SmallAlphaMatcher::build(&ctx, &pats, 4).is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        use pdm_textgen::{strings, Alphabet};
        let mut r = strings::rng(8);
        let mut text = strings::random_text(&mut r, Alphabet::Dna, 4000);
        let pats = strings::excerpt_dictionary(&mut r, &text, 15, 4, 40);
        strings::plant_occurrences(&mut r, &mut text, &pats, 30);
        let ctx = Ctx::seq();
        let m = SmallAlphaMatcher::build_with_l(&ctx, &pats, 4, 3).unwrap();
        let seq = m.match_text(&Ctx::seq(), &text);
        let par = m.match_text(&Ctx::par(), &text);
        assert_eq!(seq, par);
    }

    #[test]
    fn binary_encoded_matches_naive() {
        use pdm_textgen::{strings, Alphabet};
        // Theorem 5: larger alphabets via bit encoding.
        for (sigma, alpha) in [(16u32, Alphabet::Wide(16)), (26, Alphabet::Letters)] {
            for seed in 0..6 {
                let mut r = strings::rng(seed);
                let mut text = strings::random_text(&mut r, alpha, 250);
                let pats = strings::excerpt_dictionary(&mut r, &text, 6, 1, 12);
                strings::plant_occurrences(&mut r, &mut text, &pats, 8);
                let ctx = Ctx::seq();
                let m = BinaryEncodedMatcher::build(&ctx, &pats, sigma).unwrap();
                let got: Vec<Option<usize>> = m
                    .match_text(&ctx, &text)
                    .longest_pattern
                    .into_iter()
                    .map(|o| o.map(|p| p as usize))
                    .collect();
                let want = naive::longest_pattern_per_position(&pats, &text);
                assert_eq!(got, want, "σ={sigma} seed={seed}");
            }
        }
    }

    #[test]
    fn binary_encoded_length_fields_are_symbol_units() {
        let ctx = Ctx::seq();
        let pats: Vec<Vec<u32>> = vec![vec![5, 9, 12]];
        let m = BinaryEncodedMatcher::build(&ctx, &pats, 16).unwrap();
        assert_eq!(m.bits_per_symbol(), 4);
        let out = m.match_text(&ctx, &[5, 9, 12, 3]);
        assert_eq!(out.longest_pattern[0], Some(0));
        assert_eq!(out.longest_pattern_len[0], 3, "length in symbols, not bits");
    }

    #[test]
    fn binary_encoded_rejects_out_of_range() {
        let ctx = Ctx::seq();
        let pats: Vec<Vec<u32>> = vec![vec![99]];
        assert!(BinaryEncodedMatcher::build(&ctx, &pats, 16).is_err());
    }

    #[test]
    fn binary_encoded_explicit_l_sweep() {
        use pdm_textgen::{strings, Alphabet};
        let mut r = strings::rng(9);
        let mut text = strings::random_text(&mut r, Alphabet::Wide(8), 160);
        let pats = strings::excerpt_dictionary(&mut r, &text, 4, 2, 10);
        strings::plant_occurrences(&mut r, &mut text, &pats, 6);
        let want = naive::longest_pattern_per_position(&pats, &text);
        for l in 1..=8 {
            let ctx = Ctx::seq();
            let m = BinaryEncodedMatcher::build_with_l(&ctx, &pats, 8, l).unwrap();
            let got: Vec<Option<usize>> = m
                .match_text(&ctx, &text)
                .longest_pattern
                .into_iter()
                .map(|o| o.map(|p| p as usize))
                .collect();
            assert_eq!(got, want, "L={l}");
        }
    }

    #[test]
    fn text_work_decreases_with_l() {
        use pdm_textgen::{strings, Alphabet};
        let mut r = strings::rng(3);
        let text = strings::random_text(&mut r, Alphabet::Binary, 30_000);
        let pats = strings::random_dictionary(&mut r, Alphabet::Binary, 6, 128, 256);
        let mut works = Vec::new();
        for l in [1usize, 4] {
            let build_ctx = Ctx::seq();
            let m = SmallAlphaMatcher::build_with_l(&build_ctx, &pats, 2, l).unwrap();
            let ctx = Ctx::seq();
            let _ = m.match_text(&ctx, &text);
            works.push(ctx.cost.snapshot().work as f64);
        }
        // Text work should drop substantially from L=1 to L=4 (Theorem 4:
        // the log m term divides by L).
        assert!(
            works[1] < works[0] * 0.6,
            "text work did not collapse: {works:?}"
        );
    }
}
