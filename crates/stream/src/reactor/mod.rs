//! The serving tier: N reactor threads own all connections.
//!
//! [`crate::server::Server`] runs a fixed pool of reactors, each running
//! an epoll/poll(2) event loop (via the vendored `mio` shim). One reactor
//! owns a connection for its whole life: it decodes length-prefixed
//! frames incrementally from a per-connection read buffer, feeds the
//! [`ShardedService`] queues, and writes replies interest-driven
//! (EPOLLOUT is subscribed only after a partial write). Tens of thousands
//! of concurrent connections cost memory, not threads.
//!
//! ## Semantics contract
//!
//! The chaos and lifecycle suites pin these properties:
//!
//! * `opened == closed` accounting: every session opened gets a close
//!   marker on every path, including socket failures (the `Dead` state
//!   retries a non-blocking close each tick until it lands).
//! * One writer per connection: all frames leave through a single
//!   ordered output buffer, so an `ERROR` can never interleave bytes
//!   with a concurrently written `MATCH` frame.
//! * Backpressure without blocking: the reactor thread never blocks on
//!   a shard queue. A full queue parks the chunk in `pending_chunk`,
//!   drops read interest (so the kernel buffer, then the remote sender,
//!   fill up), and retries on a 1 ms tick.
//! * Load shedding, read/idle timeouts (timer wheel), graceful drain,
//!   and `DICT_*`/epoch frames are served on the reactor thread, with
//!   their replies queued on the same ordered output buffer.
//!
//! ## Wakeup paths
//!
//! A reactor sleeps in `poll()` and is woken by (a) socket readiness,
//! (b) a [`Waker`] fired from a shard worker after it delivers session
//! events (coalesced through a per-session atomic flag), (c) a waker
//! fired by reactor 0 handing off an accepted connection, or (d) the
//! timer wheel / pending-retry deadline.

mod timer;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Interest, Token, Waker};

use crate::admin::DictAdmin;
use crate::faults::{self, ConnFault, WaitFault};
use crate::metrics::GlobalMetrics;
use crate::proto::{
    decode_hello, encode_ack, encode_epoch, encode_hello_ack, encode_match, encode_stats,
    encode_summary, write_frame, EpochChange, FrameDecoder, TAG_ACK, TAG_CHUNK, TAG_CLOSE,
    TAG_DICT_ADD, TAG_DICT_COMMIT, TAG_DICT_INFO, TAG_DICT_REMOVE, TAG_EPOCH, TAG_ERROR, TAG_HELLO,
    TAG_HELLO_ACK, TAG_MATCH, TAG_STATS, TAG_STATS_RESP, TAG_SUMMARY,
};
use crate::server::{
    conn_error_message, handle_dict_frame, handle_stage_frames, record_conn_error, shed,
    ConnRegistry, ServerConfig,
};
use crate::service::{Event, Session, SessionNotify, SessionOptions, ShardedService, TryPushError};
use timer::TimerWheel;

const TOK_WAKER: usize = 0;
const TOK_LISTENER: usize = 1;
/// Connection tokens count up from here and are never reused, so a stale
/// token (in the ready list or timer wheel) simply misses the map.
const FIRST_CONN_TOKEN: usize = 2;

const EVENTS_CAP: usize = 1024;
/// Per-readiness-event read cap: a firehose connection yields the thread
/// after this many bytes; level-triggered epoll re-reports it next wait.
const READ_BURST: usize = 128 * 1024;
/// Stop pumping session events into the output buffer past this size, so
/// the bounded event channel keeps backpressuring the shard worker.
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Wait cap with nothing pending: bounds stop/halt latency.
const IDLE_WAIT: Duration = Duration::from_millis(250);
/// Wait cap while a chunk/close is parked on a full shard queue.
const RETRY_WAIT: Duration = Duration::from_millis(1);
/// Per-sweep budget of *failed* retries of parked operations. When far
/// more connections are parked than the shard queues have slots, an
/// uncapped sweep is O(parked) failed lock attempts per wakeup — at
/// thousands of connections that burns the CPU the workers need. The cap
/// makes a saturated sweep O(budget); rotation keeps it fair.
const RETRY_FAIL_BUDGET: usize = 16;
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Tokens whose sessions have undelivered events, pushed by shard
/// workers (via the session notify hook) and drained by the reactor.
struct ReadyList {
    tokens: Mutex<Vec<usize>>,
    waker: Arc<Waker>,
}

impl ReadyList {
    fn push(&self, token: usize) {
        let mut t = self.tokens.lock().unwrap();
        let was_empty = t.is_empty();
        t.push(token);
        drop(t);
        // First entry since the last drain wakes the reactor; later ones
        // coalesce into the same wakeup.
        if was_empty {
            let _ = self.waker.wake();
        }
    }

    fn drain_into(&self, out: &mut Vec<usize>) {
        out.append(&mut self.tokens.lock().unwrap());
    }
}

/// Handle held by [`crate::server::Server`]: join/halt the pool.
pub(crate) struct ReactorPool {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<Arc<Waker>>,
    halt: Arc<AtomicBool>,
}

impl ReactorPool {
    /// Spawn `n` reactor threads. Reactor 0 owns the listener and deals
    /// accepted connections round-robin to the pool (including itself).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        listener: TcpListener,
        service: Arc<ShardedService>,
        admin: Option<Arc<DictAdmin>>,
        cfg: ServerConfig,
        stop: Arc<AtomicBool>,
        live: Arc<AtomicUsize>,
        registry: ConnRegistry,
        n: usize,
    ) -> io::Result<ReactorPool> {
        let n = n.max(1);
        let halt = Arc::new(AtomicBool::new(false));
        let conn_ids = Arc::new(AtomicU64::new(0));

        let mut polls = Vec::with_capacity(n);
        let mut wakers = Vec::with_capacity(n);
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let poll = mio::Poll::new()?;
            let waker = Arc::new(Waker::new(&poll, Token(TOK_WAKER))?);
            let (tx, rx) = channel::<TcpStream>();
            polls.push(poll);
            wakers.push(waker);
            txs.push(tx);
            rxs.push(rx);
        }
        polls[0].register(&listener, Token(TOK_LISTENER), Interest::READABLE)?;
        let peers: Vec<(Sender<TcpStream>, Arc<Waker>)> =
            txs.into_iter().zip(wakers.iter().cloned()).collect();

        let granularity = cfg
            .read_timeout
            .map(|t| (t / 8).clamp(Duration::from_millis(1), Duration::from_millis(100)))
            .unwrap_or(Duration::from_millis(100));

        let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(n);
        let mut listener = Some(listener);
        for (idx, (poll, inbox)) in polls.into_iter().zip(rxs).enumerate() {
            let reactor = Reactor {
                idx,
                poll,
                events: mio::Events::with_capacity(EVENTS_CAP),
                waker: Arc::clone(&wakers[idx]),
                ready: Arc::new(ReadyList {
                    tokens: Mutex::new(Vec::new()),
                    waker: Arc::clone(&wakers[idx]),
                }),
                listener: if idx == 0 { listener.take() } else { None },
                listener_registered: idx == 0,
                peers: if idx == 0 { peers.clone() } else { Vec::new() },
                rr: 0,
                inbox,
                service: Arc::clone(&service),
                admin: admin.clone(),
                global: Arc::clone(service.global_metrics()),
                cfg: cfg.clone(),
                stop: Arc::clone(&stop),
                halt: Arc::clone(&halt),
                live: Arc::clone(&live),
                registry: Arc::clone(&registry),
                conn_ids: Arc::clone(&conn_ids),
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                timers: TimerWheel::new(granularity, 64, Instant::now()),
                timer_scratch: Vec::new(),
                ready_scratch: Vec::new(),
                event_scratch: Vec::new(),
                pending: Vec::new(),
                accept_cooldown: None,
                accept_backoff: ACCEPT_BACKOFF_BASE,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("pdm-reactor-{idx}"))
                .spawn(move || reactor.run());
            match spawned {
                Ok(h) => threads.push(h),
                Err(e) => {
                    // Unwind the reactors already running.
                    halt.store(true, Ordering::SeqCst);
                    for w in &wakers {
                        let _ = w.wake();
                    }
                    for h in threads {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ReactorPool {
            threads,
            wakers,
            halt,
        })
    }

    pub(crate) fn wake_all(&self) {
        for w in &self.wakers {
            let _ = w.wake();
        }
    }

    /// Block until every reactor exits (they exit on their own once the
    /// stop flag is set and their connections have drained).
    pub(crate) fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Hard stop: reactors tear down remaining connections best-effort.
    pub(crate) fn halt_and_join(&mut self) {
        self.halt.store(true, Ordering::SeqCst);
        self.wake_all();
        self.join();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// No frame yet: waiting for the first one (or a clean EOF).
    AwaitFirst,
    /// Decoding frames and pumping events. A `HELLO` session is open; a
    /// plain one opens at the first `CHUNK` or `CLOSE` (or EOF), so a
    /// connection sending only admin or stats frames pins no epoch.
    Streaming,
    /// Read side done, close marker queued (or pending); waiting for the
    /// terminal `Closed`/`Failed` event.
    Draining,
    /// Terminal frame is in the output buffer; close once it flushes.
    Closing,
    /// Socket is unusable but the session's close marker has not been
    /// enqueued yet: no more I/O, retry `try_finish` each tick so the
    /// `opened == closed` invariant still lands.
    Dead,
}

struct Conn {
    sock: TcpStream,
    token: usize,
    registry_id: u64,
    state: ConnState,
    decoder: FrameDecoder,
    /// Single ordered output buffer — the "one writer" that keeps error
    /// frames from interleaving with match frames.
    out: Vec<u8>,
    out_pos: usize,
    /// Current selector registration (`None` = deregistered).
    registered: Option<Interest>,
    session: Option<Session>,
    ack_every: u64,
    chunks_seen: u64,
    /// Chunk handed back by a full shard queue; gates further reads.
    pending_chunk: Option<Vec<u32>>,
    /// Close marker not yet enqueued (full shard queue).
    pending_close: bool,
    /// Reader-side failure to report instead of the summary.
    pending_err: Option<String>,
    /// No more socket reads (EOF, `TAG_CLOSE`, or error).
    read_done: bool,
    last_activity: Instant,
    /// Set by the session notify hook; cleared when serviced. Coalesces
    /// worker wakeups so the ready list holds each token at most once.
    ready_flag: Arc<AtomicBool>,
}

impl Conn {
    fn backpressured(&self) -> bool {
        self.pending_chunk.is_some()
    }

    fn has_pending(&self) -> bool {
        self.pending_chunk.is_some() || self.pending_close || self.state == ConnState::Dead
    }
}

/// Queue one whole frame on the connection's output buffer.
fn queue_frame(conn: &mut Conn, tag: u8, payload: &[u8]) {
    write_frame(&mut conn.out, tag, payload).expect("Vec write is infallible");
}

struct Reactor {
    idx: usize,
    poll: mio::Poll,
    events: mio::Events,
    waker: Arc<Waker>,
    ready: Arc<ReadyList>,
    /// Reactor 0 only; dropped (and deregistered) on stop.
    listener: Option<TcpListener>,
    listener_registered: bool,
    /// Reactor 0 only: handoff channels + wakers for the whole pool.
    peers: Vec<(Sender<TcpStream>, Arc<Waker>)>,
    rr: usize,
    inbox: Receiver<TcpStream>,
    service: Arc<ShardedService>,
    admin: Option<Arc<DictAdmin>>,
    global: Arc<GlobalMetrics>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    halt: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    registry: ConnRegistry,
    conn_ids: Arc<AtomicU64>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    timers: TimerWheel,
    timer_scratch: Vec<usize>,
    ready_scratch: Vec<usize>,
    event_scratch: Vec<(usize, bool, bool)>,
    /// Tokens to retry next tick (parked chunk/close, `Dead` conns).
    pending: Vec<usize>,
    accept_cooldown: Option<Instant>,
    accept_backoff: Duration,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.halt.load(Ordering::SeqCst) {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                self.close_listener();
                // A connection handed off just before the stop still
                // gets served to its summary.
                while let Ok(sock) = self.inbox.try_recv() {
                    self.adopt(sock);
                }
                if self.conns.is_empty() {
                    break;
                }
            }

            let timeout = self.wait_timeout();
            match faults::hook_reactor_wait() {
                WaitFault::Eintr => {
                    // A signal interrupted the wait: zero-event wakeup,
                    // exactly what the shim reports for real EINTR.
                    self.global.reactor_wakeup(0);
                }
                fault => {
                    if fault == WaitFault::Spurious {
                        // Wake ourselves so the poll returns with nothing
                        // useful to do.
                        let _ = self.waker.wake();
                    }
                    match self.poll.poll(&mut self.events, Some(timeout)) {
                        Err(_) => self.global.reactor_wakeup(0),
                        Ok(()) => {
                            self.global.reactor_wakeup(self.events.len() as u64);
                            self.event_scratch.clear();
                            self.event_scratch.extend(
                                self.events
                                    .iter()
                                    .map(|e| (e.token().0, e.is_readable(), e.is_writable())),
                            );
                            let batch = std::mem::take(&mut self.event_scratch);
                            for &(tok, readable, writable) in &batch {
                                match tok {
                                    TOK_WAKER => {}
                                    TOK_LISTENER => {
                                        if readable {
                                            self.accept_burst();
                                        }
                                    }
                                    _ => {
                                        if readable || writable {
                                            self.service_conn(tok, readable);
                                        }
                                    }
                                }
                            }
                            self.event_scratch = batch;
                        }
                    }
                }
            }

            // Connections handed off by reactor 0.
            while let Ok(sock) = self.inbox.try_recv() {
                self.adopt(sock);
            }

            // Sessions whose workers delivered events since the last drain.
            self.ready_scratch.clear();
            self.ready.drain_into(&mut self.ready_scratch);
            let toks = std::mem::take(&mut self.ready_scratch);
            for &tok in &toks {
                self.service_conn(tok, false);
            }
            self.ready_scratch = toks;

            // Backpressured operations parked on full shard queues.
            // Budgeted: stop after RETRY_FAIL_BUDGET conns stayed parked,
            // and rotate the unswept remainder ahead of this sweep's
            // failures so every parked conn is retried eventually.
            if !self.pending.is_empty() {
                let toks = std::mem::take(&mut self.pending);
                let mut failures = 0usize;
                let mut it = toks.into_iter();
                for tok in it.by_ref() {
                    let parked_before = self.pending.len();
                    self.service_conn(tok, false);
                    if self.pending.len() > parked_before {
                        failures += 1;
                        if failures >= RETRY_FAIL_BUDGET {
                            break;
                        }
                    }
                }
                let rest: Vec<usize> = it.collect();
                if !rest.is_empty() {
                    let failed = std::mem::replace(&mut self.pending, rest);
                    self.pending.extend(failed);
                }
            }

            self.expire_timers();

            if self.accept_cooldown.is_some_and(|cd| Instant::now() >= cd) {
                self.accept_cooldown = None;
                self.reopen_listener();
                self.accept_burst();
            }
        }
        self.teardown();
    }

    fn wait_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = IDLE_WAIT;
        if !self.pending.is_empty() {
            t = t.min(RETRY_WAIT);
        }
        if let Some(d) = self.timers.next_wait(now) {
            t = t.min(d.max(Duration::from_millis(1)));
        }
        if let Some(cd) = self.accept_cooldown {
            t = t.min(
                cd.saturating_duration_since(now)
                    .max(Duration::from_millis(1)),
            );
        }
        t
    }

    // ---- accept path (reactor 0) -------------------------------------

    /// Satellite of the readiness design: drain `accept()` until
    /// `WouldBlock` on every listener readiness event, so one event never
    /// strands the rest of a connection burst behind the next wakeup.
    fn accept_burst(&mut self) {
        if self.accept_cooldown.is_some() || self.stop.load(Ordering::SeqCst) {
            return;
        }
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            if faults::hook_accept().is_some() {
                // Injected EMFILE-shaped accept failure.
                self.global.accept_retry();
                self.start_accept_cooldown();
                return;
            }
            match listener.accept() {
                Ok((sock, _peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_BASE;
                    if faults::hook_accept_overflow().is_some() {
                        // This arrival died in the accept queue (synthetic
                        // ECONNABORTED): skip it, keep draining the burst.
                        self.global.accept_retry();
                        continue;
                    }
                    if self.cfg.max_conns > 0
                        && self.live.load(Ordering::SeqCst) >= self.cfg.max_conns
                    {
                        self.global.conn_shed();
                        shed(sock);
                        continue;
                    }
                    self.live.fetch_add(1, Ordering::SeqCst);
                    self.dispatch(sock);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    // Aborted before accept: nothing to serve, burst not over.
                    self.global.accept_retry();
                    continue;
                }
                Err(_) => {
                    // Transient failure (EMFILE, ENFILE, …): back off. The
                    // cooldown parks the listener registration so the
                    // level-triggered event doesn't spin the loop.
                    self.global.accept_retry();
                    self.start_accept_cooldown();
                    return;
                }
            }
        }
    }

    /// Round-robin an accepted connection across the pool.
    fn dispatch(&mut self, sock: TcpStream) {
        let n = self.peers.len().max(1);
        let target = self.rr % n;
        self.rr = self.rr.wrapping_add(1);
        if target == self.idx || self.peers.is_empty() {
            self.adopt(sock);
            return;
        }
        let (tx, waker) = &self.peers[target];
        if tx.send(sock).is_ok() {
            let _ = waker.wake();
        } else {
            // Peer already exited (halt): undo the live count.
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn start_accept_cooldown(&mut self) {
        if self.listener_registered {
            if let Some(l) = self.listener.as_ref() {
                let _ = self.poll.deregister(l);
            }
            self.listener_registered = false;
        }
        self.accept_cooldown = Some(Instant::now() + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(self.cfg.accept_backoff_max);
    }

    fn reopen_listener(&mut self) {
        if self.listener_registered || self.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Some(l) = self.listener.as_ref() {
            if self
                .poll
                .register(l, Token(TOK_LISTENER), Interest::READABLE)
                .is_ok()
            {
                self.listener_registered = true;
            }
        }
    }

    fn close_listener(&mut self) {
        if let Some(l) = self.listener.take() {
            if self.listener_registered {
                let _ = self.poll.deregister(&l);
                self.listener_registered = false;
            }
        }
    }

    /// Take ownership of an accepted connection (already counted live).
    fn adopt(&mut self, sock: TcpStream) {
        sock.set_nodelay(true).ok();
        if sock.set_nonblocking(true).is_err() {
            self.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let registry_id = self.conn_ids.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = sock.try_clone() {
            self.registry.lock().unwrap().insert(registry_id, clone);
        }
        if self
            .poll
            .register(&sock, Token(token), Interest::READABLE)
            .is_err()
        {
            self.registry.lock().unwrap().remove(&registry_id);
            self.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let now = Instant::now();
        if let Some(t) = self.cfg.read_timeout {
            self.timers.insert(now + t, token);
        }
        self.conns.insert(
            token,
            Conn {
                sock,
                token,
                registry_id,
                state: ConnState::AwaitFirst,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_pos: 0,
                registered: Some(Interest::READABLE),
                session: None,
                ack_every: 0,
                chunks_seen: 0,
                pending_chunk: None,
                pending_close: false,
                pending_err: None,
                read_done: false,
                last_activity: now,
                ready_flag: Arc::new(AtomicBool::new(false)),
            },
        );
    }

    // ---- per-connection state machine --------------------------------

    /// Service one connection end-to-end: read (if readable), retry
    /// parked operations, decode frames, pump session events, flush.
    fn service_conn(&mut self, tok: usize, readable: bool) {
        let Some(mut conn) = self.conns.remove(&tok) else {
            return; // stale token (ready list / timer) — already closed
        };
        conn.ready_flag.store(false, Ordering::Relaxed);
        match self.drive(&mut conn, readable) {
            Ok(()) => {
                self.update_interest(&mut conn);
                if conn.has_pending() {
                    self.pending.push(tok);
                }
                self.conns.insert(tok, conn);
            }
            Err(()) => self.destroy(conn),
        }
    }

    fn drive(&mut self, conn: &mut Conn, readable: bool) -> Result<(), ()> {
        if readable {
            self.read_socket(conn)?;
        }
        self.retry_ops(conn)?;
        self.process_frames(conn)?;
        self.handle_eof(conn)?;
        self.pump_and_flush(conn)
    }

    fn read_socket(&mut self, conn: &mut Conn) -> Result<(), ()> {
        if conn.read_done
            || conn.backpressured()
            || !matches!(conn.state, ConnState::AwaitFirst | ConnState::Streaming)
        {
            return Ok(());
        }
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        loop {
            match conn.sock.read(&mut buf) {
                Ok(0) => {
                    conn.read_done = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&buf[..n]);
                    total += n;
                    if total >= READ_BURST {
                        break; // fairness: level-triggered readiness re-arms
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return self.socket_failed(conn, e),
            }
        }
        Ok(())
    }

    /// Retry operations parked on a full shard queue (and drive `Dead`
    /// connections to their overdue close marker).
    fn retry_ops(&mut self, conn: &mut Conn) -> Result<(), ()> {
        if conn.state == ConnState::Dead {
            self.pump_events(conn); // discard events so the worker can move
            let done = match conn.session.as_mut() {
                Some(s) => s.try_finish(),
                None => true,
            };
            return if done { Err(()) } else { Ok(()) };
        }
        if let Some(data) = conn.pending_chunk.take() {
            let Some(sess) = conn.session.as_ref() else {
                return Ok(());
            };
            match sess.try_push(data) {
                Ok(()) => {}
                Err(TryPushError::WouldBlock(d)) => conn.pending_chunk = Some(d),
                Err(TryPushError::Closed(_)) => {
                    return self.conn_error(
                        conn,
                        io::Error::new(io::ErrorKind::BrokenPipe, "service shut down"),
                    );
                }
            }
        }
        if conn.pending_close {
            match conn.session.as_mut() {
                Some(sess) => {
                    if sess.try_finish() {
                        conn.pending_close = false;
                    }
                }
                None => conn.pending_close = false,
            }
        }
        Ok(())
    }

    /// Decode and handle every complete frame. A run of consecutive
    /// `DICT_ADD`/`DICT_REMOVE` frames is staged as one store batch, with
    /// one log sync ([`Self::stage_run`]); the run is answered before any
    /// other frame is handled and before returning, so replies keep frame
    /// order.
    fn process_frames(&mut self, conn: &mut Conn) -> Result<(), ()> {
        let mut run: Vec<(u8, Vec<u8>)> = Vec::new();
        while matches!(conn.state, ConnState::AwaitFirst | ConnState::Streaming)
            && !conn.backpressured()
        {
            let frame = conn.decoder.next_frame();
            if !matches!(frame, Ok(Some((TAG_DICT_ADD | TAG_DICT_REMOVE, _)))) {
                self.stage_run(conn, &mut run);
            }
            let (tag, payload) = match frame {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => return self.conn_error(conn, e),
            };
            self.global.frame_decoded();
            // One fault-hook call per decoded frame.
            match faults::hook_conn_frame() {
                ConnFault::None => {}
                // Stalls the whole reactor thread, so every connection it
                // owns waits out the stall.
                ConnFault::Stall(d) => std::thread::sleep(d),
                ConnFault::Reset => {
                    self.stage_run(conn, &mut run);
                    let _ = conn.sock.shutdown(Shutdown::Both);
                    return self.socket_failed(
                        conn,
                        io::Error::new(
                            io::ErrorKind::ConnectionReset,
                            "injected fault: connection reset",
                        ),
                    );
                }
            }
            if conn.state == ConnState::AwaitFirst {
                if tag == TAG_HELLO {
                    let Some(h) = decode_hello(&payload) else {
                        return self.conn_error(
                            conn,
                            io::Error::new(io::ErrorKind::InvalidData, "malformed hello payload"),
                        );
                    };
                    let opts = SessionOptions {
                        start_offset: h.resume_offset,
                        progress: h.ack_every > 0,
                    };
                    conn.ack_every = h.ack_every as u64;
                    self.open_session(conn, opts);
                    conn.state = ConnState::Streaming;
                    let max_pat = self.service.current().max_pattern_len() as u32;
                    queue_frame(conn, TAG_HELLO_ACK, &encode_hello_ack(max_pat));
                    continue;
                }
                // Plain protocol: this is the first regular frame; handle
                // it below.
                conn.state = ConnState::Streaming;
            }
            match tag {
                TAG_DICT_ADD | TAG_DICT_REMOVE => run.push((tag, payload)),
                TAG_CHUNK => {
                    let syms: Vec<u32> = payload.iter().map(|&b| b as u32).collect();
                    let sess = self.plain_session(conn);
                    match sess.try_push(syms) {
                        Ok(()) => {}
                        Err(TryPushError::WouldBlock(d)) => conn.pending_chunk = Some(d),
                        Err(TryPushError::Closed(_)) => {
                            return self.conn_error(
                                conn,
                                io::Error::new(io::ErrorKind::BrokenPipe, "service shut down"),
                            );
                        }
                    }
                }
                TAG_CLOSE => {
                    conn.read_done = true;
                    conn.state = ConnState::Draining;
                    if !self.plain_session(conn).try_finish() {
                        conn.pending_close = true;
                    }
                }
                TAG_DICT_COMMIT | TAG_DICT_INFO => {
                    let (rtag, rpayload) =
                        handle_dict_frame(self.admin.as_deref(), &self.global, tag);
                    queue_frame(conn, rtag, &rpayload);
                }
                TAG_STATS => {
                    queue_frame(conn, TAG_STATS_RESP, &encode_stats(&self.service.metrics()));
                }
                TAG_HELLO => {
                    return self.conn_error(
                        conn,
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "hello is only valid as the first frame",
                        ),
                    );
                }
                other => {
                    return self.conn_error(
                        conn,
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected client frame tag {other:#x}"),
                        ),
                    );
                }
            }
        }
        self.stage_run(conn, &mut run);
        Ok(())
    }

    /// Stage a run of `DICT_ADD`/`DICT_REMOVE` frames as one store batch
    /// and queue its replies, one per frame in frame order (no-op for an
    /// empty run).
    fn stage_run(&self, conn: &mut Conn, run: &mut Vec<(u8, Vec<u8>)>) {
        if run.is_empty() {
            return;
        }
        for (tag, payload) in handle_stage_frames(self.admin.as_deref(), run) {
            queue_frame(conn, tag, &payload);
        }
        run.clear();
    }

    /// The connection's session, opening a plain one if none is open yet.
    fn plain_session<'c>(&self, conn: &'c mut Conn) -> &'c mut Session {
        if conn.session.is_none() {
            self.open_session(conn, SessionOptions::default());
        }
        conn.session.as_mut().expect("session just opened")
    }

    fn handle_eof(&mut self, conn: &mut Conn) -> Result<(), ()> {
        if !conn.read_done
            || conn.backpressured()
            || !matches!(conn.state, ConnState::AwaitFirst | ConnState::Streaming)
        {
            return Ok(());
        }
        if conn.decoder.mid_frame() {
            let e = conn.decoder.truncation_error();
            return self.conn_error(conn, e);
        }
        // EOF at a frame boundary is a clean close; a connection that
        // never opened a session (no frame, or only admin and stats
        // frames) still opens and summarizes one.
        conn.state = ConnState::Draining;
        if !self.plain_session(conn).try_finish() {
            conn.pending_close = true;
        }
        Ok(())
    }

    /// Protocol/session-level failure with a usable socket: report via
    /// the terminal frame (after the summary path if a session exists).
    fn conn_error(&mut self, conn: &mut Conn, e: io::Error) -> Result<(), ()> {
        record_conn_error(&self.global, &e);
        let msg = conn_error_message(&e);
        conn.read_done = true;
        match conn.session.as_mut() {
            Some(sess) => {
                conn.pending_err = Some(msg);
                if !sess.try_finish() {
                    conn.pending_close = true;
                }
                conn.state = ConnState::Draining;
            }
            None => {
                // Pre-session: a direct error frame, then close.
                queue_frame(conn, TAG_ERROR, msg.as_bytes());
                conn.state = ConnState::Closing;
            }
        }
        Ok(())
    }

    /// Socket-level failure (reset, write error): no more I/O possible.
    /// The session, if any, still gets its close marker.
    fn socket_failed(&mut self, conn: &mut Conn, e: io::Error) -> Result<(), ()> {
        record_conn_error(&self.global, &e);
        conn.read_done = true;
        match conn.session.as_mut() {
            Some(sess) => {
                if sess.try_finish() {
                    Err(())
                } else {
                    conn.state = ConnState::Dead;
                    Ok(())
                }
            }
            None => Err(()),
        }
    }

    /// Alternate pumping events and flushing until no progress is
    /// possible: either the socket would block (EPOLLOUT takes over) or
    /// the event channel is dry.
    fn pump_and_flush(&mut self, conn: &mut Conn) -> Result<(), ()> {
        loop {
            let before = conn.out.len();
            self.pump_events(conn);
            let added = conn.out.len() > before;
            self.flush(conn)?;
            if conn.out_pos < conn.out.len() || !added {
                return Ok(());
            }
        }
    }

    fn pump_events(&mut self, conn: &mut Conn) {
        if conn.state == ConnState::Dead {
            // Can't write anything; drain and discard so the shard worker
            // is never wedged on this session's event channel.
            while let Some(ev) = conn.session.as_ref().and_then(|s| s.try_next_event()) {
                if matches!(ev, Event::Closed(_) | Event::Failed(_)) {
                    conn.session = None;
                    break;
                }
            }
            return;
        }
        if !matches!(conn.state, ConnState::Streaming | ConnState::Draining) {
            return;
        }
        loop {
            if conn.out.len() - conn.out_pos >= OUT_HIGH_WATER {
                break; // let the bounded event channel backpressure the worker
            }
            let Some(ev) = conn.session.as_ref().and_then(|s| s.try_next_event()) else {
                break;
            };
            match ev {
                Event::Matches(batch) => {
                    for m in &batch {
                        queue_frame(conn, TAG_MATCH, &encode_match(m));
                    }
                }
                Event::Progress(consumed) => {
                    conn.chunks_seen += 1;
                    if conn.ack_every > 0 && conn.chunks_seen.is_multiple_of(conn.ack_every) {
                        queue_frame(conn, TAG_ACK, &encode_ack(consumed));
                    }
                }
                Event::Epoch {
                    epoch,
                    max_pattern_len,
                } => {
                    queue_frame(
                        conn,
                        TAG_EPOCH,
                        &encode_epoch(&EpochChange {
                            epoch,
                            max_pattern_len,
                        }),
                    );
                }
                Event::Failed(msg) => {
                    queue_frame(conn, TAG_ERROR, msg.as_bytes());
                    conn.session = None;
                    conn.state = ConnState::Closing;
                    break;
                }
                Event::Closed(summary) => {
                    match conn.pending_err.take() {
                        Some(msg) => queue_frame(conn, TAG_ERROR, msg.as_bytes()),
                        None => queue_frame(conn, TAG_SUMMARY, &encode_summary(&summary)),
                    }
                    conn.session = None;
                    conn.state = ConnState::Closing;
                    break;
                }
            }
        }
    }

    fn flush(&mut self, conn: &mut Conn) -> Result<(), ()> {
        while conn.out_pos < conn.out.len() {
            match conn.sock.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    return self.write_failed(
                        conn,
                        io::Error::new(io::ErrorKind::WriteZero, "socket write returned 0"),
                    );
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.global.partial_write();
                    break; // EPOLLOUT interest takes over (update_interest)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return self.write_failed(conn, e),
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.state == ConnState::Closing {
                return Err(()); // terminal frame delivered — close
            }
        } else if conn.out_pos >= OUT_HIGH_WATER && conn.out_pos * 2 >= conn.out.len() {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        Ok(())
    }

    fn write_failed(&mut self, conn: &mut Conn, e: io::Error) -> Result<(), ()> {
        // Nothing queued can be delivered anymore.
        conn.out.clear();
        conn.out_pos = 0;
        self.socket_failed(conn, e)
    }

    /// Reconcile the selector registration with what the connection can
    /// currently make progress on.
    fn update_interest(&mut self, conn: &mut Conn) {
        let want_read = matches!(conn.state, ConnState::AwaitFirst | ConnState::Streaming)
            && !conn.read_done
            && !conn.backpressured();
        let want_write = conn.out_pos < conn.out.len() && conn.state != ConnState::Dead;
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.registered {
            return;
        }
        match (conn.registered, desired) {
            (Some(_), None) => {
                let _ = self.poll.deregister(&conn.sock);
            }
            (None, Some(i)) => {
                let _ = self.poll.register(&conn.sock, Token(conn.token), i);
            }
            (Some(_), Some(i)) => {
                let _ = self.poll.reregister(&conn.sock, Token(conn.token), i);
            }
            (None, None) => {}
        }
        conn.registered = desired;
    }

    fn open_session(&self, conn: &mut Conn, opts: SessionOptions) {
        let ready = Arc::clone(&self.ready);
        let tok = conn.token;
        let flag = Arc::clone(&conn.ready_flag);
        let notify: SessionNotify = Arc::new(move || {
            // Coalesce: one ready-list entry per service pass. The
            // ReadyList mutex provides the happens-before; the flag only
            // suppresses duplicates.
            if !flag.swap(true, Ordering::Relaxed) {
                ready.push(tok);
            }
        });
        conn.session = Some(self.service.open_with_notify(opts, Some(notify)));
    }

    fn destroy(&mut self, mut conn: Conn) {
        if conn.registered.is_some() {
            let _ = self.poll.deregister(&conn.sock);
            conn.registered = None;
        }
        self.registry.lock().unwrap().remove(&conn.registry_id);
        let _ = conn.sock.shutdown(Shutdown::Both);
        self.live.fetch_sub(1, Ordering::SeqCst);
        // Dropping a still-open Session sends a best-effort close.
    }

    fn expire_timers(&mut self) {
        if self.cfg.read_timeout.is_none() || self.timers.is_empty() {
            return;
        }
        let timeout = self.cfg.read_timeout.unwrap();
        let now = Instant::now();
        let mut fired = std::mem::take(&mut self.timer_scratch);
        fired.clear();
        self.timers.tick(now, &mut fired);
        for &tok in &fired {
            self.global.timer_expired();
            let Some(conn) = self.conns.get(&tok) else {
                continue; // closed since arming — lazy cancellation
            };
            if conn.read_done || !matches!(conn.state, ConnState::AwaitFirst | ConnState::Streaming)
            {
                continue; // no longer subject to the idle timeout
            }
            let due = conn.last_activity + timeout;
            if now < due {
                self.timers.insert(due, tok); // activity since arming
                continue;
            }
            let Some(mut conn) = self.conns.remove(&tok) else {
                continue;
            };
            conn.ready_flag.store(false, Ordering::Relaxed);
            // Same classification as a blocking read timing out.
            let e = io::Error::new(io::ErrorKind::WouldBlock, "read timeout");
            let res = self
                .conn_error(&mut conn, e)
                .and_then(|()| self.pump_and_flush(&mut conn));
            match res {
                Ok(()) => {
                    self.update_interest(&mut conn);
                    if conn.has_pending() {
                        self.pending.push(tok);
                    }
                    self.conns.insert(tok, conn);
                }
                Err(()) => self.destroy(conn),
            }
        }
        self.timer_scratch = fired;
    }

    /// Hard-stop teardown: give every in-flight session its close marker
    /// (bounded retries), then drop whatever is left.
    fn teardown(&mut self) {
        self.close_listener();
        while let Ok(sock) = self.inbox.try_recv() {
            self.live.fetch_sub(1, Ordering::SeqCst);
            drop(sock);
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        while !self.conns.is_empty() && Instant::now() < deadline {
            let toks: Vec<usize> = self.conns.keys().copied().collect();
            let mut progressed = false;
            for tok in toks {
                let Some(mut conn) = self.conns.remove(&tok) else {
                    continue;
                };
                // Discard events so no shard worker stays wedged on us.
                while conn
                    .session
                    .as_ref()
                    .and_then(|s| s.try_next_event())
                    .is_some()
                {}
                let done = match conn.session.as_mut() {
                    Some(s) => s.try_finish(),
                    None => true,
                };
                if done {
                    self.destroy(conn);
                    progressed = true;
                } else {
                    self.conns.insert(tok, conn);
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let rest: Vec<Conn> = self.conns.drain().map(|(_, c)| c).collect();
        for conn in rest {
            self.destroy(conn);
        }
    }
}
