//! # pdm-stream — streaming ingest + sharded matching service
//!
//! The paper's matcher ([`pdm_core::static1d::StaticMatcher`]) is an
//! *offline* algorithm: it takes the whole text at once. This crate layers
//! an *online* engine on top of the same frozen tables:
//!
//! * [`StreamMatcher`] — a per-stream cursor that consumes the text in
//!   arbitrary-size chunks and reports every occurrence **exactly once**,
//!   with absolute stream offsets, including occurrences that span chunk
//!   boundaries. It carries the last `m − 1` symbols (for `m` the longest
//!   pattern) across calls; see [`stream`] for the exactly-once argument.
//! * [`ShardedService`] — many concurrent sessions over one shared,
//!   immutable dictionary (`Arc<StaticMatcher>`). Chunks are scheduled onto
//!   worker shards through *bounded* channels, so a slow consumer exerts
//!   backpressure (callers block, or get `WouldBlock` via
//!   [`Session::try_push`]) instead of growing unbounded queues.
//! * [`server`] — a minimal length-prefixed TCP byte protocol exposing
//!   the service: `pdm serve --dict words.txt --port N`. Connections are
//!   owned by a fixed pool of epoll/poll(2) event loops ([`reactor`]).
//!   Fault-tolerant: supervised shard workers, accept backoff,
//!   connection caps with load shedding, read timeouts, and graceful
//!   drain on shutdown.
//! * [`client`] — [`RetryingClient`], a reconnecting client that resumes
//!   the stream after connection loss and still delivers every match
//!   exactly once (see its module docs for the argument).
//! * [`metrics`] — per-session and global counters (chunks, bytes,
//!   matches, queue depth, stalls, and degradation events: shed
//!   connections, timeouts, worker restarts, failed sessions, …).
//! * [`faults`] — deterministic fault injection behind the
//!   `fault-injection` cargo feature (no-op stubs otherwise), driving the
//!   chaos test suite.
//! * [`admin`] — live dictionary updates: a versioned server
//!   (`Server::bind_versioned`) wraps a `pdm_dict::DictStore` in a
//!   [`DictAdmin`], accepts `DICT_ADD`/`DICT_REMOVE`/`DICT_COMMIT` frames
//!   while sessions stream, and publishes each commit as a new epoch that
//!   sessions adopt at chunk boundaries (matches are exact w.r.t. the
//!   epoch their chunk started in; see `DESIGN.md` §10).
//!
//! The dictionary side stays exactly the paper's machinery; this crate
//! never inspects the tables beyond the public `StaticMatcher` /
//! `pdm_dict::Snapshot` APIs.

pub mod admin;
pub mod client;
pub mod faults;
pub mod metrics;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod service;
pub mod stream;

pub use admin::DictAdmin;
pub use client::{ClientStats, ClientSummary, RetryConfig, RetryingClient};
pub use metrics::{GlobalMetrics, GlobalSnapshot, SessionCounters, SessionSnapshot};
pub use server::{Server, ServerConfig};
pub use service::{
    Event, PushError, ServiceConfig, Session, SessionNotify, SessionOptions, SessionSummary,
    ShardedService, TryPushError,
};
pub use stream::{StreamDict, StreamMatch, StreamMatcher};
