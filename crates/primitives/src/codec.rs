//! Shared sidecar-file framing for every on-disk format in the workspace.
//!
//! Three artifacts live next to user data on disk — the pdm-dict
//! append-only log (`PDML`), the corpus index sidecar (`PDMX`), and the
//! built-matcher snapshot (`PDMS`, which also carries the frozen `PDMT`
//! tables and is what both `pdm dict compact` and `pdm build` write). They
//! historically each carried their own magic/version/CRC plumbing and their
//! own corruption-error shape; this module is the single implementation all
//! three now share:
//!
//! * an 8-byte header — 4-byte magic + `u32` LE format version — with
//!   read/validate helpers ([`write_header`] / [`read_header`]);
//! * a trailing whole-file CRC-32 ([`append_crc`] / [`verify_crc`]), the
//!   PDMX/PDMS convention for write-once artifacts;
//! * per-record framing `[kind u8][len u32][crc u32][payload]`
//!   ([`write_record`] / [`read_record`]), the PDML convention for
//!   append-only files where the tail may be torn;
//! * a sectioned container ([`SectionWriter`] / [`SectionReader`]) used by
//!   the `.snap` v2 layout: an id → (offset, len) table after the header, so
//!   readers locate any section in O(1) and unknown sections are skippable.
//!
//! All integers are little-endian. Every validation failure is a
//! [`CodecError`], so "what a corrupt sidecar looks like" is one shape
//! across formats.

use crate::crc::{crc32, Crc32};

/// The one way any sidecar reaches disk: durable atomic replacement via
/// the [`crate::vfs`] plane (temp file → fsync → rename → fsync parent
/// dir). Re-exported here because "how a format is framed" and "how its
/// bytes become durable" are the same contract — every `PDMS`, `PDMX`
/// and rewritten `PDML` write goes through this helper, so a
/// crash at any instant leaves the previous file intact or the new file
/// complete, never a torn mixture.
pub use crate::vfs::atomic_write;

/// Header size shared by all formats: 4-byte magic + `u32` version.
pub const HEADER_LEN: usize = 8;

/// Per-record framing overhead: kind byte + payload length + record CRC.
pub const RECORD_HEADER_LEN: usize = 1 + 4 + 4;

/// Everything that can go wrong validating a sidecar through this codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with the expected magic bytes.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Recognized magic, but a format version this build cannot read.
    VersionMismatch { found: u32, supported: u32 },
    /// The buffer is shorter than its framing claims.
    Truncated { expected: usize, actual: usize },
    /// A stored checksum does not match the bytes it covers.
    CrcMismatch { stored: u32, computed: u32 },
    /// Framing is self-inconsistent (overlapping sections, absurd lengths).
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            Self::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            Self::Truncated { expected, actual } => {
                write!(f, "truncated file: need {expected} bytes, have {actual}")
            }
            Self::CrcMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            Self::Corrupt(why) => write!(f, "corrupt file: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append the standard 8-byte header (magic + LE version) to `out`.
pub fn write_header(out: &mut Vec<u8>, magic: [u8; 4], version: u32) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Validate the magic and return the stored format version. Callers decide
/// which versions they accept (old formats often stay readable).
pub fn read_header(bytes: &[u8], magic: [u8; 4]) -> Result<u32, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    if bytes[..4] != magic {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        return Err(CodecError::BadMagic {
            expected: magic,
            found,
        });
    }
    Ok(u32::from_le_bytes(
        bytes[4..8].try_into().expect("bounds checked"),
    ))
}

/// `Ok` iff `found` is exactly the one `supported` version.
pub fn require_version(found: u32, supported: u32) -> Result<(), CodecError> {
    if found == supported {
        Ok(())
    } else {
        Err(CodecError::VersionMismatch { found, supported })
    }
}

/// Append a CRC-32 trailer covering everything currently in `buf`.
pub fn append_crc(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verify a trailing CRC-32 and return the covered payload (everything
/// before the trailer).
pub fn verify_crc(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated {
            expected: 4,
            actual: bytes.len(),
        });
    }
    let payload_end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[payload_end..].try_into().expect("bounds checked"));
    let computed = crc32(&bytes[..payload_end]);
    if stored != computed {
        return Err(CodecError::CrcMismatch { stored, computed });
    }
    Ok(&bytes[..payload_end])
}

/// Append one framed record: `[kind][len][crc][payload]`, CRC over
/// kind + payload so neither can be swapped without detection.
pub fn write_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let mut h = Crc32::new();
    h.update(&[kind]);
    h.update(payload);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

/// One record cut out of an append-only file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
    /// Total framed size (header + payload) — advance by this to the next
    /// record.
    pub consumed: usize,
}

/// Outcome of [`read_record`] at some offset of an append-only file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordRead<'a> {
    /// A complete, CRC-valid record.
    Ok(Record<'a>),
    /// The buffer ends mid-record: a torn tail from a crashed append.
    /// Append-only readers truncate here and carry on.
    Torn,
    /// A complete record whose CRC (or length bound) is wrong — bit rot,
    /// not a torn write.
    Bad(CodecError),
}

/// Parse the record starting at `bytes[0]`. `max_payload` bounds the
/// declared length so a corrupt length field cannot trigger a huge read.
pub fn read_record(bytes: &[u8], max_payload: usize) -> RecordRead<'_> {
    if bytes.len() < RECORD_HEADER_LEN {
        return RecordRead::Torn;
    }
    let kind = bytes[0];
    let len = u32::from_le_bytes(bytes[1..5].try_into().expect("bounds checked")) as usize;
    if len > max_payload {
        return RecordRead::Bad(CodecError::Corrupt(format!(
            "record payload length {len} exceeds cap {max_payload}"
        )));
    }
    let stored = u32::from_le_bytes(bytes[5..9].try_into().expect("bounds checked"));
    let total = RECORD_HEADER_LEN + len;
    if bytes.len() < total {
        return RecordRead::Torn;
    }
    let payload = &bytes[RECORD_HEADER_LEN..total];
    let mut h = Crc32::new();
    h.update(&[kind]);
    h.update(payload);
    let computed = h.finish();
    if stored != computed {
        return RecordRead::Bad(CodecError::CrcMismatch { stored, computed });
    }
    RecordRead::Ok(Record {
        kind,
        payload,
        consumed: total,
    })
}

/// Builder for a sectioned, CRC-trailed container (the `.snap` v2 layout):
///
/// ```text
/// header (8)  | magic + version
/// count (4)   | number of sections
/// table       | count × (id u32, offset u64, len u64)
/// payloads    | section bytes, each 8-byte aligned (zero padding between)
/// crc (4)     | CRC-32 of everything above
/// ```
///
/// Offsets are absolute from the start of the buffer and 8-byte aligned, so
/// a loader that maps the file can view `u64` arrays in place.
#[derive(Debug, Default)]
pub struct SectionWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SectionWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a section. Ids must be unique; order is preserved.
    pub fn section(&mut self, id: u32, bytes: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|&(sid, _)| sid != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, bytes));
    }

    /// Assemble the final buffer: header, section table, aligned payloads,
    /// CRC trailer.
    pub fn finish(self, magic: [u8; 4], version: u32) -> Vec<u8> {
        let table_len = 4 + self.sections.len() * 20;
        let mut at = HEADER_LEN + table_len;
        let mut offsets = Vec::with_capacity(self.sections.len());
        for (_, bytes) in &self.sections {
            at = (at + 7) & !7;
            offsets.push(at as u64);
            at += bytes.len();
        }
        let mut out = Vec::with_capacity(at + 4);
        write_header(&mut out, magic, version);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (i, (id, bytes)) in self.sections.iter().enumerate() {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offsets[i].to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        }
        for (i, (_, bytes)) in self.sections.iter().enumerate() {
            out.resize(offsets[i] as usize, 0);
            out.extend_from_slice(bytes);
        }
        append_crc(&mut out);
        out
    }
}

/// Validated view over a [`SectionWriter`]-produced buffer. Opening checks
/// magic, whole-file CRC, and that every table entry lies inside the
/// payload region; after that, section access is infallible slicing.
#[derive(Debug)]
pub struct SectionReader<'a> {
    version: u32,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SectionReader<'a> {
    /// Validate `bytes` as a sectioned container with the given magic.
    /// Version is surfaced, not checked — callers route old versions to
    /// their legacy readers.
    pub fn open(bytes: &'a [u8], magic: [u8; 4]) -> Result<Self, CodecError> {
        let version = read_header(bytes, magic)?;
        let payload = verify_crc(bytes)?;
        if payload.len() < HEADER_LEN + 4 {
            return Err(CodecError::Truncated {
                expected: HEADER_LEN + 4,
                actual: payload.len(),
            });
        }
        let count = u32::from_le_bytes(payload[8..12].try_into().expect("bounds checked")) as usize;
        let table_end = HEADER_LEN + 4 + count * 20;
        if payload.len() < table_end {
            return Err(CodecError::Truncated {
                expected: table_end,
                actual: payload.len(),
            });
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_LEN + 4 + i * 20;
            let id = u32::from_le_bytes(payload[at..at + 4].try_into().expect("bounds checked"));
            let off =
                u64::from_le_bytes(payload[at + 4..at + 12].try_into().expect("bounds checked"))
                    as usize;
            let len = u64::from_le_bytes(
                payload[at + 12..at + 20]
                    .try_into()
                    .expect("bounds checked"),
            ) as usize;
            let end = off.saturating_add(len);
            if off < table_end || end > payload.len() {
                return Err(CodecError::Corrupt(format!(
                    "section {id} spans {off}..{end}, outside payload of {} bytes",
                    payload.len()
                )));
            }
            sections.push((id, &payload[off..end]));
        }
        Ok(Self { version, sections })
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    /// Bytes of section `id`, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|&&(sid, _)| sid == id)
            .map(|&(_, b)| b)
    }

    /// `(id, len)` of every section, in file order — for `snap inspect`.
    pub fn sections(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.sections.iter().map(|&(id, b)| (id, b.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TSTC";

    #[test]
    fn header_round_trip() {
        let mut buf = Vec::new();
        write_header(&mut buf, MAGIC, 7);
        assert_eq!(read_header(&buf, MAGIC), Ok(7));
        assert!(matches!(
            read_header(&buf, *b"XXXX"),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            read_header(&buf[..5], MAGIC),
            Err(CodecError::Truncated { .. })
        ));
        assert_eq!(require_version(7, 7), Ok(()));
        assert!(matches!(
            require_version(8, 7),
            Err(CodecError::VersionMismatch {
                found: 8,
                supported: 7
            })
        ));
    }

    #[test]
    fn crc_trailer_round_trip() {
        let mut buf = b"hello sidecar".to_vec();
        append_crc(&mut buf);
        assert_eq!(verify_crc(&buf), Ok(&b"hello sidecar"[..]));
        let mut bad = buf.clone();
        bad[3] ^= 1;
        assert!(matches!(
            verify_crc(&bad),
            Err(CodecError::CrcMismatch { .. })
        ));
        assert!(matches!(
            verify_crc(&buf[..2]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn record_round_trip_and_torn_tail() {
        let mut buf = Vec::new();
        write_record(&mut buf, 1, b"abc");
        write_record(&mut buf, 2, b"");
        let r1 = match read_record(&buf, 1024) {
            RecordRead::Ok(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((r1.kind, r1.payload), (1, &b"abc"[..]));
        let r2 = match read_record(&buf[r1.consumed..], 1024) {
            RecordRead::Ok(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((r2.kind, r2.payload), (2, &b""[..]));
        assert_eq!(r1.consumed + r2.consumed, buf.len());

        // Any strict prefix of a record is a torn tail, not corruption.
        for cut in 0..r1.consumed {
            assert_eq!(read_record(&buf[..cut], 1024), RecordRead::Torn);
        }
    }

    #[test]
    fn record_detects_corruption_and_length_bombs() {
        let mut buf = Vec::new();
        write_record(&mut buf, 3, b"payload");
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            read_record(&bad, 1024),
            RecordRead::Bad(CodecError::CrcMismatch { .. })
        ));
        let mut bomb = buf.clone();
        bomb[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_record(&bomb, 1024),
            RecordRead::Bad(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn sections_round_trip_aligned() {
        let mut w = SectionWriter::new();
        w.section(1, b"meta".to_vec());
        w.section(9, vec![0xAB; 17]);
        w.section(2, Vec::new());
        let buf = w.finish(MAGIC, 2);
        let r = SectionReader::open(&buf, MAGIC).expect("open");
        assert_eq!(r.version(), 2);
        assert_eq!(r.section(1), Some(&b"meta"[..]));
        assert_eq!(r.section(9).map(<[u8]>::len), Some(17));
        assert_eq!(r.section(2), Some(&[][..]));
        assert_eq!(r.section(77), None);
        let ids: Vec<u32> = r.sections().map(|(id, _)| id).collect();
        assert_eq!(ids, [1, 9, 2]);
        // Payload offsets are 8-byte aligned within the buffer.
        for (id, _) in r.sections() {
            let sec = r.section(id).unwrap();
            if !sec.is_empty() {
                let off = sec.as_ptr() as usize - buf.as_ptr() as usize;
                assert_eq!(off % 8, 0, "section {id} misaligned");
            }
        }
    }

    #[test]
    fn sections_reject_any_bit_flip() {
        let mut w = SectionWriter::new();
        w.section(1, vec![7u8; 40]);
        let buf = w.finish(MAGIC, 2);
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x20;
            assert!(
                SectionReader::open(&bad, MAGIC).is_err(),
                "flip at {at} went unnoticed"
            );
        }
        for cut in [0, 7, 11, buf.len() - 1] {
            assert!(SectionReader::open(&buf[..cut], MAGIC).is_err());
        }
    }
}
