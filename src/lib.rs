//! # pdm — parallel dictionary matching
//!
//! A production-oriented Rust implementation of the algorithms in
//! *Highly Efficient Dictionary Matching in Parallel* (S. Muthukrishnan and
//! K. Palem, SPAA 1993), together with every substrate they rely on:
//!
//! * [`pram`] — arbitrary-CRCW PRAM execution substrate with an explicit
//!   time/work cost model;
//! * [`primitives`] — prefix scans, Fx hashing, open-addressing name tables
//!   (sequential, CAS-concurrent, frozen), CRC, the sidecar codec and the
//!   disk I/O plane;
//! * [`naming`] — name pools, namestamping tables, prefix-naming with one
//!   dyadic fold shape, and their dynamic variants (paper §3, §6);
//! * [`core`] — the paper's algorithms: static shrink-and-spawn dictionary
//!   matching (§4), the small-alphabet refinement (§4.4), 2-D dictionary
//!   matching (§5), dynamic dictionaries (§6), the optimal equal-length
//!   matcher (§7), and multi-dimensional single-pattern matching;
//! * [`baselines`] — Aho–Corasick, KMP, naive and Baker–Bird comparators
//!   built from scratch;
//! * [`textgen`] — workload generation for the experiment suite;
//! * [`stream`] — beyond the paper: streaming chunk-at-a-time matching
//!   ([`stream::StreamMatcher`]), a sharded multi-session service with
//!   bounded-queue backpressure ([`stream::ShardedService`]), a
//!   fault-tolerant length-prefixed TCP protocol (`pdm serve`: supervised
//!   workers, load shedding, graceful drain), and a reconnecting
//!   exactly-once client ([`stream::RetryingClient`]);
//! * [`index`] — the transposed offline workload: suffix-array corpus
//!   indexing on the same substrate (`pdm index` / `pdm query`), with
//!   interval-merged parallel batch queries and a CRC'd sidecar format.
//!
//! ## Quickstart
//!
//! ```
//! use pdm::prelude::*;
//!
//! let ctx = Ctx::par();
//! let patterns = symbolize(&["he", "she", "his", "hers"]);
//! let matcher = StaticMatcher::build(&ctx, &patterns).unwrap();
//! let text = to_symbols("ushers");
//! let out = matcher.match_text(&ctx, &text);
//! // "she" (pattern 1) is the longest pattern starting at position 1.
//! assert_eq!(out.longest_pattern[1], Some(1));
//! // "hers" (pattern 3) starts at position 2; "he" is also there but shorter.
//! assert_eq!(out.longest_pattern[2], Some(3));
//! ```

pub use pdm_baselines as baselines;
pub use pdm_core as core;
pub use pdm_index as index;
pub use pdm_naming as naming;
pub use pdm_pram as pram;
pub use pdm_primitives as primitives;
pub use pdm_stream as stream;
pub use pdm_textgen as textgen;

pub mod cli;

/// The most common imports for library users.
pub mod prelude {
    pub use pdm_core::dict::{symbolize, to_symbols, BuildError, PatId, Sym};
    pub use pdm_core::dict2d::{Dict2DMatcher, Grid2};
    pub use pdm_core::dictnd::DictNdMatcher;
    pub use pdm_core::dynamic::DynamicMatcher;
    pub use pdm_core::equal_len::EqualLenMatcher;
    pub use pdm_core::matcher::{Matcher, MatcherBuilder, MatcherKind, MatcherStats};
    pub use pdm_core::multidim::Tensor;
    pub use pdm_core::smallalpha::{BinaryEncodedMatcher, SmallAlphaMatcher};
    pub use pdm_core::static1d::{MatchOutput, StaticMatcher};
    pub use pdm_pram::{Ctx, ExecPolicy};
    pub use pdm_stream::{
        RetryConfig, RetryingClient, ServiceConfig, ShardedService, StreamMatch, StreamMatcher,
    };
}
