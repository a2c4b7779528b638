//! Seeded inputs for every workload, generated through `pdm-textgen` and
//! written to files off the clock, plus the Aho–Corasick oracle that says
//! which matches each stream chunk must produce.

use std::collections::HashSet;
use std::path::Path;

use pdm_baselines::AhoCorasick;
use pdm_textgen::corpus;
use pdm_textgen::strings::{excerpt_dictionary, rng};
use rand::rngs::StdRng;
use rand::Rng;

/// How big the inputs are: the measured size, or a tiny one for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Longest alert pattern; one base pattern has exactly this length and is
/// never removed, so `m` (and the stream carry) is the same in every epoch.
pub const ALERT_MAX_LEN: usize = 24;
/// Small churn batches: the pool holds this many sets of this many patterns.
pub const POOL_SETS: usize = 16;
pub const POOL_SET_LEN: usize = 8;
/// The bulk batch stages this share of the committed symbols, above
/// `pdm_dict::store::DEFAULT_REBUILD_THRESHOLD` (0.25).
pub const BULK_SHARE: f64 = 0.30;

/// Stream inputs for the serve workloads: one period of text (a multiple of
/// every chunk size) that the stream repeats, and a dictionary whose ids
/// are the line order of its file.
pub struct StreamInputs {
    pub text: Vec<u8>,
    pub patterns: Vec<Vec<u8>>,
    /// Churn only: the pool sets and the bulk batch.
    pub pool: Vec<Vec<Vec<u8>>>,
    pub bulk: Vec<Vec<u8>>,
}

fn alert_pattern(r: &mut StdRng, len: usize) -> Vec<u8> {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    let mut p = vec![b'A' + r.gen_range(0..26u8)];
    p.extend((1..len).map(|_| TAIL[r.gen_range(0..TAIL.len())]));
    p
}

/// Distinct alert patterns (uppercase first byte) not in `seen`.
fn alerts(r: &mut StdRng, count: usize, seen: &mut HashSet<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let len = r.gen_range(6..=ALERT_MAX_LEN);
        let p = alert_pattern(r, len);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// A log stream period of `text_len` bytes and an alert dictionary of
/// `n_pat` patterns (both smaller at smoke size).
/// Log text is lowercase, digits, spaces and newlines, so alert patterns
/// occur only where they were planted.
pub fn log_inputs(seed: u64, size: Size, text_len: usize, n_pat: usize) -> StreamInputs {
    let mut r = rng(seed ^ 0x10c5);
    let text_len = size.pick(text_len, 256 << 10);
    let n_pat = size.pick(n_pat, n_pat.min(1_000));
    let mut text: Vec<u8> = mix(&mut r, text_len, |r, n| corpus::log_lines(r, n, 48))
        .into_iter()
        .map(|c| c as u8)
        .collect();
    let mut seen = HashSet::new();
    let mut patterns = vec![alert_pattern(&mut r, ALERT_MAX_LEN)];
    seen.insert(patterns[0].clone());
    patterns.extend(alerts(&mut r, n_pat - 1, &mut seen));
    let pool: Vec<Vec<Vec<u8>>> = (0..POOL_SETS)
        .map(|_| alerts(&mut r, POOL_SET_LEN, &mut seen))
        .collect();
    let base_syms: usize =
        patterns.iter().map(Vec::len).sum::<usize>() + pool[0].iter().map(Vec::len).sum::<usize>();
    let mut bulk = Vec::new();
    let mut bulk_syms = 0usize;
    while (bulk_syms as f64) <= BULK_SHARE * base_syms as f64 {
        let p = alerts(&mut r, 1, &mut seen).remove(0);
        bulk_syms += p.len();
        bulk.push(p);
    }
    // Two planted base alerts per 64 KiB, plus one churn alert (pool or
    // bulk) so that epoch changes alter what the churn stream must match.
    let plants = text_len / (32 << 10);
    for i in 0..plants + plants / 2 {
        let p = if i < plants {
            &patterns[r.gen_range(0..patterns.len())]
        } else if i % 2 == 0 {
            &bulk[r.gen_range(0..bulk.len())]
        } else {
            let set = &pool[r.gen_range(0..POOL_SETS)];
            &set[r.gen_range(0..set.len())]
        };
        let at = r.gen_range(0..=text.len() - p.len());
        text[at..at + p.len()].copy_from_slice(p);
    }
    StreamInputs {
        text,
        patterns,
        pool,
        bulk,
    }
}

/// `n` symbols made of 16 independently seeded segments of `gen`. Each
/// segment draws its own Markov chain (and log templates), so the mix, and
/// with it match density, matching cost and suffix-array depth, varies far
/// less from seed to seed than one draw would.
fn mix(r: &mut StdRng, n: usize, gen: impl Fn(&mut StdRng, usize) -> Vec<u32>) -> Vec<u32> {
    const SEGMENTS: usize = 16;
    let mut out = Vec::with_capacity(n);
    for i in 0..SEGMENTS {
        let len = n / SEGMENTS + usize::from(i < n % SEGMENTS);
        out.extend(gen(&mut rng(r.gen()), len));
    }
    out
}

/// ACGT bytes for genome symbols 0..4 (as `pdm gen --corpus genome`).
pub fn acgt(syms: &[u32]) -> Vec<u8> {
    syms.iter().map(|&c| b"ACGT"[c as usize]).collect()
}

/// The genome stream and its dense excerpt dictionary.
pub fn genome_inputs(seed: u64, size: Size) -> StreamInputs {
    let mut r = rng(seed ^ 0x6e0e);
    let text_len = size.pick(1 << 20, 64 << 10);
    let n_pat = size.pick(20_000, 1_500);
    let syms = mix(&mut r, text_len, corpus::genome_default);
    let patterns = excerpt_dictionary(&mut r, &syms, n_pat, 12, 32)
        .iter()
        .map(|p| acgt(p))
        .collect();
    StreamInputs {
        text: acgt(&syms),
        patterns,
        pool: Vec::new(),
        bulk: Vec::new(),
    }
}

/// The index corpus and its fixed sequence of query batches.
pub struct IndexInputs {
    pub corpus: Vec<u8>,
    pub batches: Vec<Vec<Vec<u8>>>,
}

pub fn index_inputs(seed: u64, size: Size) -> IndexInputs {
    let mut r = rng(seed ^ 0x1dec);
    let n = size.pick(1 << 20, 64 << 10);
    let syms = mix(&mut r, n, corpus::genome_default);
    let batches = (0..size.pick(64, 8))
        .map(|_| {
            corpus::query_patterns(&mut r, &syms, size.pick(1000, 200), 8, 32, 8, 100)
                .iter()
                .map(|p| acgt(p))
                .collect()
        })
        .collect();
    IndexInputs {
        corpus: acgt(&syms),
        batches,
    }
}

/// One pattern per line, the format `pdm serve --dict` reads.
pub fn write_dict(path: &Path, patterns: &[Vec<u8>]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(patterns.iter().map(|p| p.len() + 1).sum());
    for p in patterns {
        buf.extend_from_slice(p);
        buf.push(b'\n');
    }
    std::fs::write(path, buf)
}

pub fn to_syms(b: &[u8]) -> Vec<u32> {
    b.iter().map(|&c| u32::from(c)).collect()
}

/// An occurrence as the server reports it: absolute start, pattern id in
/// the oracle's id space, and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Occ {
    pub start: u64,
    pub pat: u32,
    pub len: u32,
}

/// Which occurrences each chunk of the endless stream `text, text, ...`
/// must report. A chunk reports exactly the occurrences that *end* inside
/// it, so an occurrence running over the period's end belongs to the first
/// chunk of the next period.
pub struct ChunkOracle {
    per_period: usize,
    period: u64,
    /// Occurrences of one period by local chunk index; indices at or past
    /// `per_period` hold the ones that end in the next period.
    by_chunk: Vec<Vec<Occ>>,
}

impl ChunkOracle {
    /// `patterns` in oracle id order; `text.len()` must be a multiple of
    /// `chunk`.
    pub fn new(text: &[u8], patterns: &[Vec<u8>], chunk: usize) -> ChunkOracle {
        assert!(
            text.len().is_multiple_of(chunk),
            "period must be whole chunks"
        );
        let m = patterns.iter().map(Vec::len).max().unwrap_or(1);
        let ac = AhoCorasick::new(&patterns.iter().map(|p| to_syms(p)).collect::<Vec<_>>());
        let mut wrapped = to_syms(text);
        wrapped.extend(to_syms(&text[..(m - 1).min(text.len())]));
        let per_period = text.len() / chunk;
        let mut by_chunk = vec![Vec::new(); per_period + (m - 1).div_ceil(chunk) + 1];
        for o in ac.find_all(&wrapped) {
            if o.start >= text.len() {
                continue;
            }
            let len = patterns[o.pat].len();
            let end = o.start + len;
            by_chunk[(end - 1) / chunk].push(Occ {
                start: o.start as u64,
                pat: o.pat as u32,
                len: len as u32,
            });
        }
        for v in &mut by_chunk {
            v.sort_unstable();
        }
        ChunkOracle {
            per_period,
            period: text.len() as u64,
            by_chunk,
        }
    }

    /// Expected occurrences of absolute chunk `k`, sorted.
    pub fn expected(&self, k: u64, out: &mut Vec<Occ>) {
        out.clear();
        let local = (k % self.per_period as u64) as usize;
        let round = k / self.per_period as u64;
        let base = round * self.period;
        out.extend(self.by_chunk[local].iter().map(|o| Occ {
            start: o.start + base,
            ..*o
        }));
        if round > 0 {
            if let Some(prev) = self.by_chunk.get(local + self.per_period) {
                out.extend(prev.iter().map(|o| Occ {
                    start: o.start + base - self.period,
                    ..*o
                }));
            }
        }
        out.sort_unstable();
    }

    /// Occurrences in one period (for per-match rates).
    pub fn per_period_total(&self) -> usize {
        self.by_chunk.iter().map(Vec::len).sum()
    }
}
