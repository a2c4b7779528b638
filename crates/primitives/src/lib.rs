//! # pdm-primitives — classic PRAM building blocks
//!
//! The SPAA'93 dictionary-matching algorithms are assembled from a small set
//! of standard PRAM primitives, all implemented here from scratch:
//!
//! * [`scan`] — generic inclusive/exclusive prefix scans (`O(log n)` rounds,
//!   `O(n)` work), the engine behind prefix-naming (paper Fact 2);
//! * [`nearest`] — nearest-one-to-the-left / prefix maxima (paper §4.2
//!   step 2: "for each position in `A`, the nearest 1 to its left");
//! * [`compact`] — stream compaction (squeeze-out during dictionary
//!   rebuilds, §6.2);
//! * [`radix`] — parallel LSD radix sort (the integer-sorting substrate the
//!   paper relates dynamic stamp-counting to, §6.2.1);
//! * [`table`] / [`conc_table`] — the "tables" of the paper's namestamping
//!   operation (§3.2): injective key→name maps. The paper direct-addresses
//!   `M²`-sized tables; we substitute open-addressing hash tables
//!   (sequential and CAS-based concurrent) with identical semantics — see
//!   DESIGN.md §2;
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
pub mod compact;
pub mod conc_table;
pub mod crc;
pub mod frozen;
pub mod hash;
pub mod nearest;
pub mod radix;
pub mod scan;
pub mod table;
pub mod vfs;

pub use codec::CodecError;
pub use conc_table::ConcPairTable;
pub use crc::{crc32, Crc32};
pub use frozen::{FrozenPairTable, RawTableError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use table::PairMap;
