//! # pdm-primitives — tables, scans and the on-disk plane
//!
//! The building blocks the SPAA'93 dictionary-matching algorithms and the
//! serving system stand on, all implemented here from scratch:
//!
//! * [`scan`] — inclusive prefix scans and exclusive prefix sums
//!   (`O(log n)` rounds, `O(n)` work), the output placement of
//!   all-matches enumeration;
//! * [`table`] / [`conc_table`] / [`frozen`] — the "tables" of the
//!   paper's namestamping operation (§3.2): injective key→name maps. The
//!   paper direct-addresses `M²`-sized tables; we substitute
//!   open-addressing hash tables (sequential, CAS-based concurrent, and
//!   the read-only frozen form the text side probes) with identical
//!   semantics — see DESIGN.md §2;
//! * [`hash`] — the multiply-xor hasher used by those tables (our own
//!   implementation, no external hashing crates);
//! * [`crc`] — table-driven CRC-32 shared by the on-disk formats (dict log
//!   records, index sidecars);
//! * [`codec`] — the shared sidecar framing (magic + version headers,
//!   record framing, section tables, CRC trailers) every on-disk format
//!   reads and writes through;
//! * [`vfs`] — the injectable disk I/O plane those formats are written
//!   through: durable atomic file replacement (temp → fsync → rename →
//!   fsync dir) and, behind the `fault-injection` feature, deterministic
//!   counter-scheduled disk faults (crash-stop at the Nth op, torn
//!   writes, failed fsyncs/renames, short reads) for crash-consistency
//!   testing.

pub mod codec;
pub mod conc_table;
pub mod crc;
pub mod frozen;
pub mod hash;
pub mod scan;
pub mod table;
pub mod vfs;

pub use codec::CodecError;
pub use conc_table::ConcPairTable;
pub use crc::{crc32, Crc32};
pub use frozen::{FrozenPairTable, RawTableError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use table::PairMap;
