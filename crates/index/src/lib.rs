//! # pdm-index — offline suffix-array corpus indexing
//!
//! The streaming matchers (`pdm-core`, `pdm-stream`) answer "which
//! dictionary patterns occur in this text" by preprocessing the
//! *dictionary* and scanning the *text*. This crate serves the transposed
//! workload: the corpus is large and fixed, the pattern batches arrive
//! later and change every time. Preprocess the corpus once into a suffix
//! array (+ LCP), then answer each batch with binary searches — no rebuild
//! per batch, `O(|p| log n)` per pattern instead of `O(corpus)` per batch.
//!
//! The build is linear work: a sequential SA-IS suffix array, then an LCP
//! pass whose blocks run on the same vendored-rayon pool as every matcher.
//! Both charge the same [`Ctx`] cost model.
//!
//! * [`sa`] — suffix-array construction by induced sorting (SA-IS), and
//!   the `O(n)` checker that sidecar loading runs;
//! * [`lcp`] — blocked-parallel Φ-array LCP;
//! * [`query`] — batch execution with interval merging for prefix-sharing
//!   batches, `count` and `locate` modes;
//! * [`disk`] — the versioned, CRC'd `PDMX` sidecar format.
//!
//! Where the crossover against streaming Aho–Corasick sits is an empirical
//! question — `crates/bench/src/bin/index_throughput.rs` measures it and
//! DESIGN.md §12 records the numbers.

pub mod disk;
pub mod lcp;
pub mod query;
pub mod sa;

pub use disk::DiskError;
pub use query::{BatchOptions, PatternHits, QueryMode};

use pdm_pram::Ctx;
use pdm_primitives::vfs;
use std::path::Path;

/// A corpus with its suffix array and LCP array: everything a batch query
/// needs, and exactly what the `PDMX` sidecar stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusIndex {
    /// The corpus, one `u32` per symbol.
    pub text: Vec<u32>,
    /// `sa[r]` = start position of the `r`-th smallest suffix.
    pub sa: Vec<u32>,
    /// `lcp[r]` = LCP of the suffixes at `sa[r-1]` and `sa[r]`; `lcp[0] = 0`.
    pub lcp: Vec<u32>,
}

impl CorpusIndex {
    /// Index `text`; the pool width of `ctx` reaches the LCP pass only.
    pub fn build(ctx: &Ctx, text: Vec<u32>) -> Self {
        let sa = sa::build_suffix_array(ctx, &text);
        let lcp = lcp::build_lcp(ctx, &text, &sa);
        Self { text, sa, lcp }
    }

    /// Index a byte corpus (symbols are the byte values).
    pub fn build_from_bytes(ctx: &Ctx, corpus: &[u8]) -> Self {
        Self::build(ctx, corpus.iter().map(|&b| u32::from(b)).collect())
    }

    /// Corpus length in symbols.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The suffix-array interval `[lo, hi)` of suffixes starting with
    /// `pat`; `hi - lo` is the occurrence count.
    pub fn interval(&self, pat: &[u32]) -> (usize, usize) {
        query::interval_within(&self.text, &self.sa, 0, self.sa.len(), pat)
    }

    /// Occurrence count of a single pattern.
    pub fn count(&self, pat: &[u32]) -> usize {
        let (lo, hi) = self.interval(pat);
        hi - lo
    }

    /// Sorted occurrence start positions of a single pattern.
    pub fn locate(&self, pat: &[u32]) -> Vec<u32> {
        let (lo, hi) = self.interval(pat);
        let mut out = self.sa[lo..hi].to_vec();
        out.sort_unstable();
        out
    }

    /// Run a whole pattern batch in parallel; results are in batch order.
    /// See [`query::query_batch`].
    pub fn query_batch(
        &self,
        ctx: &Ctx,
        pats: &[Vec<u32>],
        opts: &BatchOptions,
    ) -> Vec<PatternHits> {
        query::query_batch(ctx, &self.text, &self.sa, pats, opts)
    }

    /// Serialize to the `PDMX` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        disk::encode(self)
    }

    /// Deserialize and verify a `PDMX` buffer: CRC, then the suffix and LCP
    /// arrays against the corpus.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DiskError> {
        disk::decode(bytes)
    }

    /// Write the sidecar to `path` atomically (temp file → fsync → rename
    /// → fsync parent dir): a crash mid-write leaves any previous good
    /// sidecar intact instead of a torn, unloadable one.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        vfs::atomic_write(path, &self.to_bytes())
    }

    /// Read and verify a sidecar from `path`.
    pub fn read_from(path: &Path) -> std::io::Result<Self> {
        let bytes = vfs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pattern_helpers_agree_with_batch() {
        let text: Vec<u32> = b"the quick brown fox jumps over the lazy dog the end"
            .iter()
            .map(|&b| u32::from(b))
            .collect();
        let idx = CorpusIndex::build(&Ctx::par(), text.clone());
        let pat: Vec<u32> = b"the".iter().map(|&b| u32::from(b)).collect();
        assert_eq!(idx.count(&pat), 3);
        assert_eq!(idx.locate(&pat), vec![0, 31, 44]);
        let hits = idx.query_batch(
            &Ctx::par(),
            std::slice::from_ref(&pat),
            &BatchOptions {
                merge: true,
                mode: QueryMode::Locate,
            },
        );
        assert_eq!(hits[0].positions, idx.locate(&pat));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("pdm-index-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pdmx");
        let idx = CorpusIndex::build_from_bytes(&Ctx::seq(), b"abracadabra");
        idx.write_to(&path).unwrap();
        let back = CorpusIndex::read_from(&path).unwrap();
        assert_eq!(back, idx);
        std::fs::remove_dir_all(&dir).ok();
    }
}
