//! The frozen-snapshot form (`PDMT`), the one serialized form of a built
//! matcher: a [`StaticTables`] written as its *read path* — raw frozen slot
//! arrays — so loading is `O(file size)` byte shuffling with **zero naming
//! rounds and zero rehashing**. This is the "preprocess once, match
//! forever" deployment story of Theorem 3: the dictionary side runs once,
//! the frozen tables ship to matchers.
//!
//! Each [`FrozenPairTable`]'s key/value slot arrays are dumped verbatim.
//! That is sound because a frozen table's probe sequence is a pure function
//! of (key, slot count): `mix64(pack(a, b)) & (slots − 1)` with linear
//! probing. Identical slot arrays ⇒ identical lookups, so the bytes on disk
//! *are* the table. Name *values* are preserved verbatim too (they are
//! arbitrary ids; only their equalities matter).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "PDMT" | u32 version (1)
//! u32 levels | u32 max_len | u64 total_len | u32 n_patterns
//! u32 names_allocated | u64 fold_len
//! frozen sym | levels × frozen pair | (levels+1) × frozen ext
//! namemap longest | namemap owner
//! vec<u32> pattern_names | n_patterns × vec<u32> pattern_prefs
//! ```
//!
//! where `frozen` = `u64 entries | u64 slots | slots × u64 keys |
//! slots × u32 vals` and `namemap` = `u64 count | count × u64`.
//!
//! There is no CRC at this layer: the `.snap` v2 container that carries
//! these bytes has a whole-file CRC-32 trailer (see `pdm_primitives::codec`
//! and the pdm-dict snapshot module). Structural validation still happens
//! here so a logic error upstream, or a CRC-valid but malformed file,
//! cannot produce a table that panics, hangs or loses entries at match
//! time: bounds, power-of-two slot counts, entry-count consistency, an
//! empty slot and every key on its probe path
//! ([`FrozenPairTable::from_raw_parts`]), and pattern ids in range in the
//! attribution maps.
//!
//! Loaded tables have exactly the shape a fresh build leaves behind: no
//! matcher keeps its build-side tables, so there is nothing else to
//! restore. The name pool is resumed past the serialized allocation
//! watermark, so names allocated later never collide with loaded ones.

use crate::static1d::namemap::{unpack2, NameMap};
use crate::static1d::tables::{ReadTables, StaticTables};
use pdm_naming::{FrozenNameTable, NamePool};
use pdm_primitives::codec;
use pdm_primitives::FrozenPairTable;

pub const FROZEN_MAGIC: [u8; 4] = *b"PDMT";
pub const FROZEN_VERSION: u32 = 1;

/// Errors from loading serialized tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid pdm index: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_frozen(buf: &mut Vec<u8>, t: &FrozenNameTable) {
    let raw = t.raw();
    put_u64(buf, raw.len() as u64);
    put_u64(buf, raw.slots_len() as u64);
    for &k in raw.keys() {
        buf.extend_from_slice(&k.to_le_bytes());
    }
    for &v in raw.vals() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_namemap(buf: &mut Vec<u8>, m: &NameMap) {
    put_u64(buf, m.slots().len() as u64);
    for &s in m.slots() {
        buf.extend_from_slice(&s.to_le_bytes());
    }
}

fn put_vec_u32(buf: &mut Vec<u8>, v: &[u32]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if n > self.buf.len() - self.at {
            return Err(LoadError("truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A declared count that must describe at most the remaining bytes at
    /// `width` bytes per element — rejects length bombs before allocating.
    fn count(&mut self, width: usize) -> Result<usize, LoadError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.at) as u64 / width as u64 {
            return Err(LoadError("count exceeds payload".into()));
        }
        Ok(n as usize)
    }

    /// `n` little-endian `u64`s, collected straight into the container
    /// (`Vec`, or a frozen table's shared `Arc<[u64]>`): the exact-length
    /// iterator allocates it once.
    fn u64s<C: FromIterator<u64>>(&mut self, n: usize) -> Result<C, LoadError> {
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u32s<C: FromIterator<u32>>(&mut self, n: usize) -> Result<C, LoadError> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn frozen(&mut self) -> Result<FrozenNameTable, LoadError> {
        let entries = self.u64()? as usize;
        let slots = self.count(12)?;
        let keys = self.u64s(slots)?;
        let vals = self.u32s(slots)?;
        FrozenPairTable::from_raw_parts(keys, vals, entries)
            .map(FrozenNameTable::from_raw)
            .map_err(|e| LoadError(format!("frozen table: {e}")))
    }

    fn namemap(&mut self) -> Result<NameMap, LoadError> {
        let n = self.count(8)?;
        Ok(NameMap::from_slots(self.u64s(n)?))
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>, LoadError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.at) / 4 {
            return Err(LoadError("vec count exceeds payload".into()));
        }
        self.u32s(n)
    }
}

/// Every stored `(len, pattern)` value of a loaded attribution map must
/// name a pattern that exists and a length within `max_len` (`owner`
/// stores length 0): match output indexes per-pattern arrays with these
/// ids.
fn check_attribution(
    map: &NameMap,
    what: &str,
    n_patterns: usize,
    max_len: usize,
) -> Result<(), LoadError> {
    for v in map.values() {
        let (len, pid) = unpack2(v);
        if pid as usize >= n_patterns || len as usize > max_len {
            return Err(LoadError(format!(
                "{what} map names pattern {pid} of length {len} \
                 ({n_patterns} patterns, longest {max_len})"
            )));
        }
    }
    Ok(())
}

impl StaticTables {
    /// Serialize the frozen read path to the `PDMT` layout. Built, frozen
    /// and cold-loaded tables all have the same read-only shape, so all
    /// serialize the same way.
    pub fn to_frozen_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::write_header(&mut buf, FROZEN_MAGIC, FROZEN_VERSION);
        put_u32(&mut buf, self.levels as u32);
        put_u32(&mut buf, self.max_len as u32);
        put_u64(&mut buf, self.total_len as u64);
        put_u32(&mut buf, self.n_patterns as u32);
        put_u32(&mut buf, self.pool.allocated());
        put_u64(&mut buf, self.fold_len as u64);
        put_frozen(&mut buf, &self.read.sym);
        for p in &self.read.pair {
            put_frozen(&mut buf, p);
        }
        for e in &self.read.ext {
            put_frozen(&mut buf, e);
        }
        put_namemap(&mut buf, &self.longest);
        put_namemap(&mut buf, &self.owner);
        put_vec_u32(&mut buf, &self.pattern_names);
        for p in &self.pattern_prefs {
            put_vec_u32(&mut buf, p);
        }
        buf
    }

    /// Load tables from the `PDMT` layout: `O(file size)` byte-to-integer
    /// conversion, no naming rounds, no rehashing.
    pub fn from_frozen_bytes(data: &[u8]) -> Result<Self, LoadError> {
        let version = codec::read_header(data, FROZEN_MAGIC)
            .and_then(|v| codec::require_version(v, FROZEN_VERSION).map(|()| v))
            .map_err(|e| LoadError(e.to_string()))?;
        debug_assert_eq!(version, FROZEN_VERSION);
        let mut r = Reader {
            buf: data,
            at: codec::HEADER_LEN,
        };
        let levels = r.u32()? as usize;
        let max_len = r.u32()? as usize;
        let total_len = r.u64()? as usize;
        let n_patterns = r.u32()? as usize;
        let allocated = r.u32()?;
        let fold_len = r.u64()? as usize;
        if levels > 32 || n_patterns == 0 || max_len == 0 {
            return Err(LoadError("implausible header".into()));
        }
        let sym = r.frozen()?;
        let mut pair = Vec::with_capacity(levels);
        for _ in 0..levels {
            pair.push(r.frozen()?);
        }
        let mut ext = Vec::with_capacity(levels + 1);
        for _ in 0..=levels {
            ext.push(r.frozen()?);
        }
        let longest = r.namemap()?;
        let owner = r.namemap()?;
        check_attribution(&longest, "longest", n_patterns, max_len)?;
        check_attribution(&owner, "owner", n_patterns, 0)?;
        let pattern_names = r.vec_u32()?;
        if pattern_names.len() != n_patterns {
            return Err(LoadError("pattern_names length mismatch".into()));
        }
        let mut pattern_prefs = Vec::with_capacity(n_patterns);
        for _ in 0..n_patterns {
            pattern_prefs.push(r.vec_u32()?);
        }
        if r.at != data.len() {
            return Err(LoadError("trailing bytes".into()));
        }
        Ok(StaticTables {
            levels,
            max_len,
            total_len,
            n_patterns,
            fold_len,
            longest,
            owner,
            pattern_names,
            pattern_prefs,
            pool: NamePool::dictionary_resumed(allocated),
            read: ReadTables::from_frozen(sym, pair, ext),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::{symbolize, to_symbols};
    use crate::static1d::{match_text, StaticMatcher};
    use pdm_pram::Ctx;

    #[test]
    fn frozen_roundtrip_preserves_matching() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["he", "she", "his", "hers", "xyzzy"]);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let bytes = m.tables().to_frozen_bytes();
        let loaded = StaticTables::from_frozen_bytes(&bytes).expect("load");
        let text = to_symbols("ushers and xyzzyish");
        assert_eq!(m.match_text(&ctx, &text), match_text(&ctx, &loaded, &text));
    }

    #[test]
    fn frozen_roundtrip_randomized_and_reserializable() {
        use pdm_textgen::{strings, Alphabet};
        let ctx = Ctx::seq();
        for seed in 0..5 {
            let mut r = strings::rng(seed);
            let mut text = strings::random_text(&mut r, Alphabet::Letters, 400);
            let pats = strings::excerpt_dictionary(&mut r, &text, 15, 2, 40);
            strings::plant_occurrences(&mut r, &mut text, &pats, 10);
            let m = StaticMatcher::build(&ctx, &pats).unwrap();
            let bytes = m.tables().to_frozen_bytes();
            let loaded = StaticTables::from_frozen_bytes(&bytes).unwrap();
            assert_eq!(
                m.match_text(&ctx, &text),
                match_text(&ctx, &loaded, &text),
                "seed {seed}"
            );
            // A cold-loaded table re-serializes to identical bytes — the
            // frozen form is a fixed point.
            assert_eq!(loaded.to_frozen_bytes(), bytes, "seed {seed}");
        }
    }

    #[test]
    fn frozen_stats_survive_the_round_trip() {
        let ctx = Ctx::seq();
        let pats = symbolize(&["abc", "abd", "xy"]);
        let m = StaticMatcher::build(&ctx, &pats).unwrap();
        let loaded = StaticTables::from_frozen_bytes(&m.tables().to_frozen_bytes()).unwrap();
        assert_eq!(loaded.fold_len, m.tables().fold_len);
        assert_eq!(loaded.pool.allocated(), m.tables().pool.allocated());
        assert_eq!(loaded.read.sym.len(), m.tables().read.sym.len());
        assert_eq!(loaded.n_patterns, 3);
    }

    #[test]
    fn rejects_corrupt_frozen_input() {
        assert!(StaticTables::from_frozen_bytes(b"").is_err());
        assert!(StaticTables::from_frozen_bytes(b"NOPE\x01\x00\x00\x00").is_err());
        // Wrong version.
        let mut v2 = Vec::new();
        codec::write_header(&mut v2, FROZEN_MAGIC, 9);
        assert!(StaticTables::from_frozen_bytes(&v2).is_err());
        let ctx = Ctx::seq();
        let m = StaticMatcher::build(&ctx, &symbolize(&["ab", "cd"])).unwrap();
        let bytes = m.tables().to_frozen_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 9] {
            assert!(
                StaticTables::from_frozen_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(StaticTables::from_frozen_bytes(&long).is_err(), "trailing");
    }
}
