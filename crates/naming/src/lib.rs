//! # pdm-naming — Karp–Miller–Rosenberg naming machinery
//!
//! Section 3 of the SPAA'93 paper builds everything on three primitives:
//!
//! * **Naming** — assign each length-`l` string in a set a short name such
//!   that names are equal iff the strings are equal;
//! * **Namestamping** (Fact 1) — constant-time table lookup that propagates
//!   stamps from a stamped set to a query set;
//! * **Prefix-naming** (Fact 2) — a name for *every prefix* of every string,
//!   computed as "a standard prefix-sum computation using the namestamping
//!   operation in place of arithmetic addition" in `O(log m)` time and
//!   `O(M)` work.
//!
//! This crate implements them:
//!
//! * [`arena`] — name pools (dictionary-side and text-local name spaces),
//!   [`arena::NameTable`], the namestamping table (a thin policy layer over
//!   `pdm_primitives::ConcPairTable`), and [`arena::FrozenNameTable`], its
//!   read-only form the text side probes;
//! * [`prefix`] — block names and prefix-naming with a **fixed dyadic
//!   left-fold shape** per length ([`prefix::fold_step`]), so equal
//!   prefixes of different patterns receive equal names even though the
//!   naming operator is not associative. Aligned block names are the
//!   shrink of shrink-and-spawn (`name_k(i) = δ(name_{k−1}(i),
//!   name_{k−1}(i+2^{k−1}))` at block-aligned `i`);
//! * [`dynamic`] — the §6 variants: partly-dynamic namestamping (insert
//!   only), dynamic stamp-counting (reference counts) and dynamic
//!   stamp-listing (per-stamp lists), driving insert/delete in the dynamic
//!   dictionary.
//!
//! Names are `u32`s drawn from a shared [`arena::NamePool`], so a name value
//! is globally unique across all tables of a matcher: a name alone
//! identifies string content (and therefore length). `0` is reserved as the
//! name of the empty string and `u32::MAX` as invalid.

pub mod arena;
pub mod dynamic;
pub mod prefix;

pub use arena::{FrozenNameTable, NamePool, NameTable, IDENTITY, TEXT_MISS, TEXT_NAME_BASE};
