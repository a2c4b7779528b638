//! The `PDMX` sidecar format: a versioned, CRC'd serialization of a built
//! [`CorpusIndex`] so `pdm index` pays the construction
//! cost once and `pdm query` only ever reads.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size        field
//! 0       4           magic "PDMX"
//! 4       4           format version (currently 1)
//! 8       4           sym_width: bytes per corpus symbol, 1 or 4
//! 12      8           n: corpus length in symbols
//! 20      n·width     corpus symbols
//! …       n·4         suffix array (u32 ranks → positions)
//! …       n·4         LCP array (u32)
//! end−4   4           CRC-32 (IEEE) of everything before it
//! ```
//!
//! `sym_width` is chosen at encode time: 1 when every symbol fits a byte
//! (genomes, log text — the common case, and 4× smaller on disk), 4
//! otherwise. The header and the trailing CRC go through
//! [`pdm_primitives::codec`] — the same framing the dict log and the
//! matcher snapshot use — so truncation, bit rot and partial writes all
//! surface as one [`CodecError`] shape instead of silently wrong match
//! results. The bytes are unchanged from the pre-codec writer: existing
//! sidecars stay readable.
//!
//! A CRC only proves the bytes are the ones written. [`decode`] also
//! checks, in `O(n)`, that the suffix array is the corpus's
//! ([`sa::check_suffix_array`]) and that every LCP value fits its suffix
//! pair, so a sidecar written wrong — by a bug or by hand — is refused at
//! load instead of panicking in a query or answering wrong counts.

use crate::{sa, CorpusIndex};
use pdm_primitives::codec::{self, CodecError};

pub const MAGIC: [u8; 4] = *b"PDMX";
pub const VERSION: u32 = 1;
const HEADER_LEN: usize = 20;

/// Everything that can go wrong reading a sidecar: the format-specific
/// checks, plus the shared codec failures (magic, version, truncation, CRC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// `sym_width` was neither 1 nor 4.
    BadSymWidth(u32),
    /// The suffix array is not the corpus's; `rank` is the first entry
    /// found wrong ([`sa::check_suffix_array`]).
    BadSuffixArray { rank: usize },
    /// `lcp[rank]` is nonzero at rank 0 or longer than the shorter suffix
    /// of its pair.
    BadLcp { rank: usize },
    /// Framing or checksum failure from the shared sidecar codec.
    Corrupt(CodecError),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadSymWidth(w) => write!(f, "invalid symbol width {w} (expected 1 or 4)"),
            Self::BadSuffixArray { rank } => {
                write!(f, "index suffix array is not the corpus's (rank {rank})")
            }
            Self::BadLcp { rank } => write!(f, "index LCP value out of range (rank {rank})"),
            Self::Corrupt(e) => write!(f, "index {e}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Corrupt(e) => Some(e),
            Self::BadSymWidth(_) | Self::BadSuffixArray { .. } | Self::BadLcp { .. } => None,
        }
    }
}

impl From<CodecError> for DiskError {
    fn from(e: CodecError) -> Self {
        Self::Corrupt(e)
    }
}

/// Serialize `index` to the `PDMX` byte layout.
pub fn encode(index: &CorpusIndex) -> Vec<u8> {
    let n = index.text.len();
    let width: u32 = if index.text.iter().all(|&s| s < 256) {
        1
    } else {
        4
    };
    let mut out = Vec::with_capacity(HEADER_LEN + n * (width as usize + 8) + 4);
    codec::write_header(&mut out, MAGIC, VERSION);
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    match width {
        1 => out.extend(index.text.iter().map(|&s| s as u8)),
        _ => {
            for &s in &index.text {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
    }
    for &r in &index.sa {
        out.extend_from_slice(&r.to_le_bytes());
    }
    for &l in &index.lcp {
        out.extend_from_slice(&l.to_le_bytes());
    }
    codec::append_crc(&mut out);
    out
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

/// Deserialize and verify a `PDMX` buffer.
pub fn decode(bytes: &[u8]) -> Result<CorpusIndex, DiskError> {
    let version = codec::read_header(bytes, MAGIC)?;
    codec::require_version(version, VERSION)?;
    if bytes.len() < HEADER_LEN + 4 {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN + 4,
            actual: bytes.len(),
        }
        .into());
    }
    let width = read_u32(bytes, 8);
    if width != 1 && width != 4 {
        return Err(DiskError::BadSymWidth(width));
    }
    let n = u64::from_le_bytes(bytes[12..20].try_into().expect("bounds checked")) as usize;
    let expected = HEADER_LEN
        .checked_add(n.saturating_mul(width as usize + 8))
        .and_then(|v| v.checked_add(4))
        .unwrap_or(usize::MAX);
    if bytes.len() != expected {
        return Err(CodecError::Truncated {
            expected,
            actual: bytes.len(),
        }
        .into());
    }
    let payload = codec::verify_crc(bytes)?;

    let mut at = HEADER_LEN;
    let text: Vec<u32> = if width == 1 {
        let t = payload[at..at + n].iter().map(|&b| u32::from(b)).collect();
        at += n;
        t
    } else {
        let t = (0..n).map(|i| read_u32(payload, at + 4 * i)).collect();
        at += 4 * n;
        t
    };
    let sa: Vec<u32> = (0..n).map(|i| read_u32(payload, at + 4 * i)).collect();
    at += 4 * n;
    let lcp: Vec<u32> = (0..n).map(|i| read_u32(payload, at + 4 * i)).collect();
    sa::check_suffix_array(&text, &sa).map_err(|rank| DiskError::BadSuffixArray { rank })?;
    check_lcp(&sa, &lcp).map_err(|rank| DiskError::BadLcp { rank })?;
    Ok(CorpusIndex { text, sa, lcp })
}

/// `lcp[0] = 0`, and no `lcp[r]` is longer than the shorter suffix of its
/// pair: `lcp[r] ≤ n − max(sa[r−1], sa[r])`. `sa` must be a valid suffix
/// array. Returns the first rank that breaks this.
fn check_lcp(sa: &[u32], lcp: &[u32]) -> Result<(), usize> {
    let n = sa.len();
    if lcp.first().is_some_and(|&l| l != 0) {
        return Err(0);
    }
    match (1..n).find(|&r| lcp[r] as usize > n - sa[r - 1].max(sa[r]) as usize) {
        Some(r) => Err(r),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_pram::Ctx;

    fn sample(sigma: u32) -> CorpusIndex {
        let text: Vec<u32> = (0..300u32).map(|i| (i * 17 + i / 7) % sigma).collect();
        CorpusIndex::build(&Ctx::seq(), text)
    }

    #[test]
    fn round_trips_both_widths() {
        for sigma in [4, 1000] {
            let idx = sample(sigma);
            let bytes = encode(&idx);
            let back = decode(&bytes).expect("round trip");
            assert_eq!(back.text, idx.text);
            assert_eq!(back.sa, idx.sa);
            assert_eq!(back.lcp, idx.lcp);
            let expect_width = if sigma <= 256 { 1 } else { 4 };
            assert_eq!(read_u32(&bytes, 8), expect_width, "sigma={sigma}");
        }
    }

    #[test]
    fn detects_corruption_anywhere() {
        let bytes = encode(&sample(4));
        for at in [0usize, 5, 9, 14, 25, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {at} went unnoticed");
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = encode(&sample(4));
        for cut in [0usize, 3, HEADER_LEN, bytes.len() - 1] {
            assert!(matches!(
                decode(&bytes[..cut]),
                Err(DiskError::Corrupt(CodecError::Truncated { .. }))
            ));
        }
    }

    #[test]
    fn codec_error_variants_surface() {
        let bytes = encode(&sample(4));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode(&wrong_magic),
            Err(DiskError::Corrupt(CodecError::BadMagic { .. }))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            decode(&wrong_version),
            Err(DiskError::Corrupt(CodecError::VersionMismatch {
                found: 9,
                ..
            }))
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert!(matches!(
            decode(&flipped),
            Err(DiskError::Corrupt(CodecError::CrcMismatch { .. }))
        ));
        // The CLI greps for "checksum" on corrupt sidecars — keep the word
        // in the rendered message.
        let msg = decode(&flipped).unwrap_err().to_string();
        assert!(msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn empty_corpus_round_trips() {
        let idx = CorpusIndex::build(&Ctx::seq(), Vec::new());
        let back = decode(&encode(&idx)).expect("empty round trip");
        assert!(back.text.is_empty() && back.sa.is_empty() && back.lcp.is_empty());
    }

    /// A sidecar whose framing and CRC are valid but whose arrays are not
    /// the corpus's: `encode` CRCs whatever it is given.
    fn malformed(edit: impl FnOnce(&mut CorpusIndex)) -> Result<CorpusIndex, DiskError> {
        let mut idx = CorpusIndex::build_from_bytes(&Ctx::seq(), b"abracadabra");
        edit(&mut idx);
        decode(&encode(&idx))
    }

    #[test]
    fn rejects_crc_valid_malformed_suffix_arrays() {
        let n = "abracadabra".len() as u32;
        assert_eq!(
            malformed(|i| i.sa[3] = n + 7),
            Err(DiskError::BadSuffixArray { rank: 3 })
        );
        assert_eq!(
            malformed(|i| i.sa[5] = i.sa[4]),
            Err(DiskError::BadSuffixArray { rank: 5 })
        );
        // A swap also breaks pairs whose successor suffixes moved, so the
        // first failure may come before the swapped ranks.
        assert!(matches!(
            malformed(|i| i.sa.swap(6, 7)),
            Err(DiskError::BadSuffixArray { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_lcp_values() {
        assert_eq!(
            malformed(|i| i.lcp[0] = 1),
            Err(DiskError::BadLcp { rank: 0 })
        );
        // Rank 1 pairs "a" (position 10) with "abra" (position 7): at most 1.
        let err = malformed(|i| {
            assert_eq!((i.sa[0], i.sa[1], i.lcp[1]), (10, 7, 1));
            i.lcp[1] = 2;
        });
        assert_eq!(err, Err(DiskError::BadLcp { rank: 1 }));
    }

    /// The codec port must not change a single byte of the format:
    /// hand-assemble the pre-codec layout and check equality.
    #[test]
    fn on_disk_bytes_unchanged_by_codec_port() {
        let idx = sample(4);
        let bytes = encode(&idx);
        let mut manual = Vec::new();
        manual.extend_from_slice(&MAGIC);
        manual.extend_from_slice(&VERSION.to_le_bytes());
        manual.extend_from_slice(&1u32.to_le_bytes());
        manual.extend_from_slice(&(idx.text.len() as u64).to_le_bytes());
        manual.extend(idx.text.iter().map(|&s| s as u8));
        for &r in &idx.sa {
            manual.extend_from_slice(&r.to_le_bytes());
        }
        for &l in &idx.lcp {
            manual.extend_from_slice(&l.to_le_bytes());
        }
        manual.extend_from_slice(&pdm_primitives::crc32(&manual).to_le_bytes());
        assert_eq!(bytes, manual);
    }
}
