//! TCP front-end: one connection = one [`Session`](crate::Session).
//!
//! [`Server`] binds the listener and hands it to a fixed pool of reactor
//! threads ([`crate::reactor`]) that own every connection. Frames are
//! defined in [`crate::proto`]. Backpressure composes end to end: a full
//! shard queue parks the connection's next chunk and drops its read
//! interest, which fills the kernel buffer, which eventually blocks the
//! remote sender.
//!
//! ## Failure model
//!
//! * Transient `accept()` errors (EMFILE, ECONNABORTED, …) are retried
//!   with capped exponential backoff — only the stop flag ends accepting.
//! * Above [`ServerConfig::max_conns`] live connections, new arrivals are
//!   load-shed at accept time: one best-effort `TAG_ERROR "busy"` frame,
//!   then close. Shed work is counted, never silently dropped.
//! * [`ServerConfig::read_timeout`] bounds how long a connection may sit
//!   idle mid-stream; on expiry the session is closed with a `TAG_ERROR`.
//! * [`Server::shutdown`] drains gracefully: stop accepting, wait up to
//!   [`ServerConfig::drain_deadline`] for in-flight sessions to reach
//!   their summaries, then force-close the stragglers.
//!
//! All frames of a connection leave through one ordered output buffer, so
//! a failure can never interleave bytes with a match frame.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdm_core::static1d::StaticMatcher;
use pdm_dict::{DictStore, StageOp, StoreError};

use crate::admin::DictAdmin;
use crate::proto::{
    encode_dict_info, write_frame, TAG_DICT_ADD, TAG_DICT_COMMIT, TAG_DICT_ERR, TAG_DICT_INFO,
    TAG_DICT_INFO_RESP, TAG_DICT_OK, TAG_DICT_REMOVE, TAG_ERROR,
};
use crate::reactor::ReactorPool;
use crate::service::{ServiceConfig, ShardedService};

/// Server knobs: service tuning plus socket/lifecycle behaviour.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub service: ServiceConfig,
    /// Per-connection read timeout: a connection that sends nothing for
    /// this long mid-stream is closed with a `TAG_ERROR`. `None` = never.
    pub read_timeout: Option<Duration>,
    /// Live-connection cap; arrivals beyond it are load-shed at accept
    /// time with a busy `TAG_ERROR`. 0 = unlimited.
    pub max_conns: usize,
    /// How long [`Server::shutdown`] waits for in-flight sessions to reach
    /// their summaries before force-closing their connections.
    pub drain_deadline: Duration,
    /// Cap for the accept path's exponential error backoff.
    pub accept_backoff_max: Duration,
    /// Reactor thread count; 0 = one per available core (capped at 8).
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            read_timeout: None,
            max_conns: 0,
            drain_deadline: Duration::from_secs(5),
            accept_backoff_max: Duration::from_millis(100),
            reactors: 0,
        }
    }
}

pub(crate) type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// A running `pdm serve` instance. Bind with [`Server::bind`]; stop with
/// [`Server::shutdown`].
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// `None` once shutdown or join has taken the pool.
    reactors: Option<ReactorPool>,
    service: Arc<ShardedService>,
    admin: Option<Arc<DictAdmin>>,
    live: Arc<AtomicUsize>,
    conns: ConnRegistry,
    drain_deadline: Duration,
}

impl Server {
    /// Bind a listener (use port 0 for an ephemeral port) and start
    /// accepting connections on the reactor pool. The dictionary is
    /// fixed; `DICT_*` admin frames are rejected.
    pub fn bind(
        addr: impl ToSocketAddrs,
        dict: Arc<StaticMatcher>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let service = Arc::new(ShardedService::start(dict, cfg.service.clone()));
        Self::bind_inner(addr, service, None, cfg)
    }

    /// Bind with a live-updatable dictionary: the store's committed
    /// dictionary is published as the initial epoch, and `DICT_*` admin
    /// frames stage, commit, and inspect updates while sessions stream.
    pub fn bind_versioned(
        addr: impl ToSocketAddrs,
        store: DictStore,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let admin = DictAdmin::new(store, cfg.service.exec.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let service = Arc::new(ShardedService::start_versioned(
            admin.handle(),
            cfg.service.clone(),
        ));
        Self::bind_inner(addr, service, Some(admin), cfg)
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        service: Arc<ShardedService>,
        admin: Option<Arc<DictAdmin>>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept: the reactor drains it until WouldBlock.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
        let n = if cfg.reactors > 0 {
            cfg.reactors
        } else {
            default_reactors()
        };
        let reactors = ReactorPool::spawn(
            listener,
            Arc::clone(&service),
            admin.clone(),
            cfg.clone(),
            Arc::clone(&stop),
            Arc::clone(&live),
            Arc::clone(&conns),
            n,
        )?;
        Ok(Server {
            local_addr,
            stop,
            reactors: Some(reactors),
            service,
            admin,
            live,
            conns,
            drain_deadline: cfg.drain_deadline,
        })
    }

    /// The dictionary admin, when bound with [`Server::bind_versioned`].
    pub fn dict_admin(&self) -> Option<&Arc<DictAdmin>> {
        self.admin.as_ref()
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Service-wide metrics (chunks, bytes, matches, queue depth, stalls,
    /// and the degradation counters).
    pub fn metrics(&self) -> crate::metrics::GlobalSnapshot {
        self.service.metrics()
    }

    /// Live connection count (gauge).
    pub fn live_conns(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, wait up to the configured
    /// `drain_deadline` for in-flight connections to finish their sessions
    /// (a client that already sent `TAG_CLOSE` still receives its
    /// summary), then force-close any stragglers.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.reactors.as_ref() {
            p.wake_all();
        }
        let deadline = Instant::now() + self.drain_deadline;
        while self.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.live.load(Ordering::SeqCst) > 0 {
            // Deadline expired: force-close what's left. The reactors
            // observe EOF/reset and close the sessions.
            for (_, sock) in self.conns.lock().unwrap().iter() {
                self.service.global_metrics().drain_force_closed();
                let _ = sock.shutdown(Shutdown::Both);
            }
            let grace = Instant::now() + Duration::from_secs(1);
            while self.live.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if let Some(mut p) = self.reactors.take() {
            p.halt_and_join();
        }
    }

    /// Block on the reactor threads (used by `pdm serve`, which runs
    /// until killed).
    pub fn join(mut self) {
        if let Some(mut p) = self.reactors.take() {
            p.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(mut p) = self.reactors.take() {
            p.halt_and_join();
        }
    }
}

/// Load-shed one connection: tell the client why, then close.
pub(crate) fn shed(sock: TcpStream) {
    let mut w = &sock;
    let _ = write_frame(
        &mut w,
        TAG_ERROR,
        b"busy: connection limit reached, retry later",
    );
    let _ = sock.shutdown(Shutdown::Both);
}

/// What a static server answers every `DICT_*` frame with.
const STATIC_DICT: &[u8] =
    b"dictionary is static; start the server with a dict log to enable live updates";

/// The reply frame for one admin op's result.
fn dict_reply(result: Result<u64, StoreError>) -> (u8, Vec<u8>) {
    match result {
        Ok(epoch) => (TAG_DICT_OK, epoch.to_le_bytes().to_vec()),
        Err(e) => (TAG_DICT_ERR, e.to_string().into_bytes()),
    }
}

/// Execute one `DICT_COMMIT` or `DICT_INFO` admin frame, returning the
/// reply frame.
pub(crate) fn handle_dict_frame(
    admin: Option<&DictAdmin>,
    global: &crate::metrics::GlobalMetrics,
    tag: u8,
) -> (u8, Vec<u8>) {
    let Some(admin) = admin else {
        return (TAG_DICT_ERR, STATIC_DICT.to_vec());
    };
    match tag {
        TAG_DICT_COMMIT => dict_reply(admin.commit(global).map(|out| out.epoch)),
        TAG_DICT_INFO => (TAG_DICT_INFO_RESP, encode_dict_info(&admin.info()).to_vec()),
        _ => unreachable!("caller matched a commit or info tag"),
    }
}

/// Execute a run of consecutive `DICT_ADD`/`DICT_REMOVE` frames as one
/// store batch — one log sync for the run — returning one reply frame per
/// frame, in frame order. The replies exist only once the batch is synced,
/// so no `DICT_OK` can leave before its record is durable.
pub(crate) fn handle_stage_frames(
    admin: Option<&DictAdmin>,
    frames: &[(u8, Vec<u8>)],
) -> Vec<(u8, Vec<u8>)> {
    let Some(admin) = admin else {
        return frames
            .iter()
            .map(|_| (TAG_DICT_ERR, STATIC_DICT.to_vec()))
            .collect();
    };
    let patterns: Vec<Vec<u32>> = frames
        .iter()
        .map(|(_, p)| p.iter().map(|&b| u32::from(b)).collect())
        .collect();
    let ops: Vec<StageOp<'_>> = frames
        .iter()
        .zip(&patterns)
        .map(|((tag, _), p)| match *tag {
            TAG_DICT_ADD => StageOp::Add(p),
            TAG_DICT_REMOVE => StageOp::Remove(p),
            _ => unreachable!("caller batched only stage frames"),
        })
        .collect();
    admin.stage(&ops).into_iter().map(dict_reply).collect()
}

/// Count a connection-level failure in the right degradation bucket.
pub(crate) fn record_conn_error(global: &crate::metrics::GlobalMetrics, e: &io::Error) {
    match e.kind() {
        // The reactor's timer wheel reports idle expiry as WouldBlock;
        // a socket-level ETIMEDOUT surfaces as TimedOut.
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => global.read_timeout(),
        io::ErrorKind::UnexpectedEof => global.truncated_frame(),
        _ => {}
    }
}

pub(crate) fn conn_error_message(e: &io::Error) -> String {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            "read timeout: closing idle connection".to_string()
        }
        _ => e.to_string(),
    }
}
