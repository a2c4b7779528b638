//! Many concurrent streams over one shared dictionary.
//!
//! A [`ShardedService`] owns `workers` shard threads, each with a
//! **bounded** job queue. A [`Session`] (one per stream) is pinned to the
//! shard `id % workers`, so its chunks are processed in order by a single
//! worker that holds the session's [`StreamMatcher`] carry state. The
//! dictionary is an [`EpochHandle`]: one immutable [`Snapshot`] behind an
//! `Arc`-swap slot — workers share tables, never copy them (the paper's
//! "preprocess once, match many texts" economics, made concurrent).
//!
//! ## Epoch adoption
//!
//! A dictionary swap ([`EpochHandle::publish`]) never lands mid-chunk:
//! each worker checks the handle **between** chunks and adopts a newly
//! published snapshot at the chunk boundary, emitting [`Event::Epoch`]
//! first so the client can attribute every subsequent match to the new
//! epoch. A chunk already dequeued keeps the snapshot it pinned — matches
//! are exact w.r.t. the epoch their chunk started in (DESIGN.md §10).
//! Static deployments pass a plain `Arc<StaticMatcher>` to
//! [`ShardedService::start`], which wraps it as a never-swapped epoch 0.
//!
//! ## Backpressure
//!
//! Every queue is bounded. When a shard queue is full, [`Session::push`]
//! blocks (recording a stall) and [`Session::try_push`] returns
//! [`TryPushError::WouldBlock`]; when a session's event queue is full, the
//! worker blocks before accepting more work from that shard. Nothing in
//! the service grows without bound: at most `queue_cap` chunks wait per
//! shard plus one in flight per worker, and at most `events_cap` result
//! batches wait per session.
//!
//! ## Supervision
//!
//! Shard workers are supervised at two levels. A panic **inside** one
//! chunk's match call (guarded by `catch_unwind`) aborts only the session
//! that owned the chunk: it receives a terminal [`Event::Failed`] instead
//! of silently hanging, and the worker keeps serving its other sessions. A
//! panic anywhere **else** in the worker loop unwinds to the supervisor,
//! which fails every in-flight session on that shard with
//! [`Event::Failed`], counts a `worker_restart`, and re-enters the loop
//! with fresh state — the shard keeps accepting new sessions. Failed
//! sessions are also counted as closed, so `sessions_opened ==
//! sessions_closed` holds on every path.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use pdm_core::dict::Sym;
use pdm_core::static1d::StaticMatcher;
use pdm_dict::{EpochHandle, Snapshot};
use pdm_pram::{CostModel, Ctx, ExecPolicy};

use crate::metrics::{GlobalMetrics, GlobalSnapshot, SessionCounters, SessionSnapshot};
use crate::stream::{StreamMatch, StreamMatcher};

/// Tuning knobs for [`ShardedService::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Shard threads. Each owns the sessions pinned to it. Default: number
    /// of available CPUs.
    pub workers: usize,
    /// Bounded per-shard job-queue capacity (chunks waiting per shard).
    pub queue_cap: usize,
    /// Bounded per-session event-queue capacity (match batches waiting for
    /// the client to drain).
    pub events_cap: usize,
    /// Execution policy *inside* one chunk's match call. Default `Seq`:
    /// with many sessions, parallelism across shards beats parallelism
    /// within a chunk.
    pub exec: ExecPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 16,
            events_cap: 1024,
            exec: ExecPolicy::Seq,
        }
    }
}

/// What a session's worker sends back to its client handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Occurrences ending in one pushed chunk (non-empty; chunks with no
    /// matches produce no event).
    Matches(Vec<StreamMatch>),
    /// Absolute stream offset consumed so far, emitted after every chunk —
    /// only for sessions opened with [`SessionOptions::progress`]. Every
    /// match ending at or before this offset has already been emitted.
    Progress(u64),
    /// The session adopted a newly published dictionary epoch at a chunk
    /// boundary. Every [`Event::Matches`] after this event (until the next
    /// `Epoch`) was found against the named epoch; `max_pattern_len` is the
    /// new epoch's `m` (a resuming client must size its replay tail to it).
    Epoch { epoch: u64, max_pattern_len: u32 },
    /// The session's worker crashed; the session is dead and no further
    /// events follow. The payload describes the failure.
    Failed(String),
    /// The session finished; no further events follow.
    Closed(SessionSummary),
}

/// Options for [`ShardedService::open_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionOptions {
    /// Absolute stream offset the session starts at (for resumed streams;
    /// see [`StreamMatcher::resume_at`]).
    pub start_offset: u64,
    /// Emit [`Event::Progress`] after every chunk.
    pub progress: bool,
}

/// Final accounting for a closed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSummary {
    pub consumed: u64,
    pub chunks: u64,
    pub matches: u64,
}

/// Error from [`Session::push`]: the service shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError;

/// Error from [`Session::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError {
    /// The shard queue is full — backpressure. The chunk is handed back.
    WouldBlock(Vec<Sym>),
    /// The service shut down. The chunk is handed back.
    Closed(Vec<Sym>),
}

/// Callback a shard worker invokes after delivering events for a session
/// (see [`ShardedService::open_with_notify`]). Reactor threads hang their
/// poll-loop wakeup here; it must be cheap and non-blocking.
pub type SessionNotify = Arc<dyn Fn() + Send + Sync>;

enum Job {
    Open {
        id: u64,
        events: SyncSender<Event>,
        counters: Arc<SessionCounters>,
        opts: SessionOptions,
        notify: Option<SessionNotify>,
    },
    Chunk {
        id: u64,
        data: Vec<Sym>,
    },
    Close {
        id: u64,
    },
}

/// Client handle for one stream. Push chunks; drain [`Event`]s; close for
/// a [`SessionSummary`]. Dropping without closing sends a best-effort
/// close.
pub struct Session {
    id: u64,
    jobs: SyncSender<Job>,
    events: Receiver<Event>,
    counters: Arc<SessionCounters>,
    global: Arc<GlobalMetrics>,
    finished: bool,
}

impl Session {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submit a chunk, blocking (and counting a stall) while the shard
    /// queue is full.
    pub fn push(&self, data: Vec<Sym>) -> Result<(), PushError> {
        assert!(!self.finished, "push after finish/close");
        self.global.enqueued();
        let sent = match self.jobs.try_send(Job::Chunk { id: self.id, data }) {
            Err(TrySendError::Full(job)) => {
                self.global.record_stall();
                self.jobs.send(job).is_ok()
            }
            r => r.is_ok(),
        };
        if sent {
            Ok(())
        } else {
            self.global.dequeued();
            Err(PushError)
        }
    }

    /// Submit a chunk without blocking; a full shard queue yields
    /// [`TryPushError::WouldBlock`] with the chunk handed back.
    pub fn try_push(&self, data: Vec<Sym>) -> Result<(), TryPushError> {
        assert!(!self.finished, "push after finish/close");
        self.global.enqueued();
        match self.jobs.try_send(Job::Chunk { id: self.id, data }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(Job::Chunk { data, .. })) => {
                self.global.dequeued();
                self.global.record_stall();
                Err(TryPushError::WouldBlock(data))
            }
            Err(TrySendError::Disconnected(Job::Chunk { data, .. })) => {
                self.global.dequeued();
                Err(TryPushError::Closed(data))
            }
            Err(_) => unreachable!("chunk jobs come back as chunk jobs"),
        }
    }

    /// Blocking receive of the next event; `None` once the channel is
    /// closed (after [`Event::Closed`] or service shutdown).
    pub fn next_event(&self) -> Option<Event> {
        self.events.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_next_event(&self) -> Option<Event> {
        self.events.try_recv().ok()
    }

    /// Declare end-of-stream without blocking. Idempotent; events may
    /// still be pending. `false` means the shard queue is full and the
    /// close marker was **not** enqueued — retry later (the reactor
    /// retries each tick while draining events in between, which is what
    /// unjams the worker). A dead service counts as finished.
    pub fn try_finish(&mut self) -> bool {
        if self.finished {
            return true;
        }
        match self.jobs.try_send(Job::Close { id: self.id }) {
            Ok(()) => {
                self.finished = true;
                true
            }
            Err(TrySendError::Full(_)) => false,
            Err(TrySendError::Disconnected(_)) => {
                self.finished = true;
                true
            }
        }
    }

    /// Finish and drain: returns all remaining matches plus the summary.
    /// The summary is `None` if the service died mid-close or the session
    /// failed ([`Event::Failed`]).
    pub fn close(mut self) -> (Vec<StreamMatch>, Option<SessionSummary>) {
        self.finished = true;
        let mut matches = Vec::new();
        // Enqueue the close marker without deadlocking: the shard queue
        // may be full while its worker is blocked on *our* event queue,
        // so drain events between send attempts.
        let mut close_msg = Some(Job::Close { id: self.id });
        while let Some(msg) = close_msg.take() {
            match self.jobs.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    close_msg = Some(msg);
                    match self
                        .events
                        .recv_timeout(std::time::Duration::from_millis(5))
                    {
                        Ok(Event::Matches(mut m)) => matches.append(&mut m),
                        Ok(Event::Progress(_)) | Ok(Event::Epoch { .. }) => {}
                        Ok(Event::Failed(_)) => return (matches, None),
                        Ok(Event::Closed(s)) => return (matches, Some(s)),
                        Err(_) => {}
                    }
                }
                Err(TrySendError::Disconnected(_)) => return (matches, None),
            }
        }
        let mut summary = None;
        while let Ok(ev) = self.events.recv() {
            match ev {
                Event::Matches(mut m) => matches.append(&mut m),
                Event::Progress(_) | Event::Epoch { .. } => {}
                Event::Failed(_) => break,
                Event::Closed(s) => {
                    summary = Some(s);
                    break;
                }
            }
        }
        (matches, summary)
    }

    /// This session's counters (updated by its worker).
    pub fn metrics(&self) -> SessionSnapshot {
        self.counters.snapshot()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            self.finished = true;
            // Best effort — never block in drop.
            let _ = self.jobs.try_send(Job::Close { id: self.id });
        }
    }
}

/// The service: shared dictionary epochs + shard workers + bounded queues.
pub struct ShardedService {
    handle: Arc<EpochHandle>,
    shards: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    global: Arc<GlobalMetrics>,
    next_id: AtomicU64,
    events_cap: usize,
}

impl ShardedService {
    /// Spawn `cfg.workers` shard threads over a fixed dictionary, wrapped
    /// as a never-swapped epoch 0.
    pub fn start(dict: Arc<StaticMatcher>, cfg: ServiceConfig) -> Self {
        Self::start_versioned(
            EpochHandle::new(Arc::new(Snapshot::from_static(0, dict))),
            cfg,
        )
    }

    /// Spawn `cfg.workers` shard threads over a live-updatable dictionary.
    /// Publishing a new snapshot through `handle` swaps every session at
    /// its next chunk boundary (see module docs).
    pub fn start_versioned(handle: Arc<EpochHandle>, cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        let global = Arc::new(GlobalMetrics::default());
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = sync_channel::<Job>(cfg.queue_cap.max(1));
            let handle = Arc::clone(&handle);
            let global = Arc::clone(&global);
            let exec = cfg.exec.clone();
            let h = std::thread::Builder::new()
                .name(format!("pdm-shard-{w}"))
                .spawn(move || worker_loop(rx, handle, exec, global))
                .expect("spawn shard worker");
            shards.push(tx);
            handles.push(h);
        }
        Self {
            handle,
            shards,
            handles,
            global,
            next_id: AtomicU64::new(0),
            events_cap: cfg.events_cap.max(1),
        }
    }

    /// The epoch slot sessions read from (publish here to swap).
    pub fn epoch_handle(&self) -> &Arc<EpochHandle> {
        &self.handle
    }

    /// Pin the currently published dictionary snapshot.
    pub fn current(&self) -> Arc<Snapshot> {
        self.handle.load()
    }

    /// Open a new session, pinned to shard `id % workers`.
    pub fn open(&self) -> Session {
        self.open_with(SessionOptions::default())
    }

    /// Open a session with explicit [`SessionOptions`] (resume offset,
    /// progress events).
    pub fn open_with(&self, opts: SessionOptions) -> Session {
        self.open_with_notify(opts, None)
    }

    /// Open a session whose worker calls `notify` after delivering events
    /// (match batches, progress, epoch markers, failure, close). Readiness
    /// -driven callers use this to wake their poll loop instead of
    /// blocking on the event channel.
    pub fn open_with_notify(&self, opts: SessionOptions, notify: Option<SessionNotify>) -> Session {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = (id as usize) % self.shards.len();
        let (ev_tx, ev_rx) = sync_channel::<Event>(self.events_cap);
        let counters = Arc::new(SessionCounters::default());
        let opened = self.shards[shard].send(Job::Open {
            id,
            events: ev_tx,
            counters: Arc::clone(&counters),
            opts,
            notify,
        });
        assert!(opened.is_ok(), "shard worker alive while service alive");
        self.global.session_opened();
        Session {
            id,
            jobs: self.shards[shard].clone(),
            events: ev_rx,
            counters,
            global: Arc::clone(&self.global),
            finished: false,
        }
    }

    /// Service-wide counters.
    pub fn metrics(&self) -> GlobalSnapshot {
        self.global.snapshot()
    }

    /// The live counter registry (for in-crate recording, e.g. the server).
    pub(crate) fn global_metrics(&self) -> &Arc<GlobalMetrics> {
        &self.global
    }

    /// Drop the shard queues and join the workers. All sessions must be
    /// closed/dropped first (their queue handles keep workers alive).
    pub fn shutdown(mut self) {
        self.shards.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        // Senders drop here; workers exit once every session handle is
        // gone too. Do not join — a live Session would deadlock us.
        self.shards.clear();
    }
}

struct WorkerSession {
    m: StreamMatcher<Snapshot>,
    events: SyncSender<Event>,
    counters: Arc<SessionCounters>,
    progress: bool,
    notify: Option<SessionNotify>,
}

impl WorkerSession {
    /// Deliver one event, then ping the session's notify hook (if any) so
    /// a poll-loop owner wakes up to drain it.
    fn send(&self, ev: Event) {
        let _ = self.events.send(ev);
        self.notify();
    }

    /// [`Self::send`] for a match batch: a full event queue means a slow
    /// client, so block (bounded memory) and count the stall.
    fn send_matches(&self, global: &GlobalMetrics, found: Vec<StreamMatch>) {
        if let Err(TrySendError::Full(ev)) = self.events.try_send(Event::Matches(found)) {
            global.record_stall();
            let _ = self.events.send(ev);
        }
        self.notify();
    }

    fn notify(&self) {
        if let Some(n) = &self.notify {
            n();
        }
    }
}

/// Abort a session with a terminal [`Event::Failed`], keeping the
/// opened/closed accounting consistent.
fn fail_session(global: &GlobalMetrics, s: WorkerSession, why: &str) {
    global.session_failed();
    global.session_closed();
    s.send(Event::Failed(why.to_string()));
}

/// Supervisor: run the worker; if it panics, fail its in-flight sessions,
/// count a restart, and re-enter with fresh state. The shard's job queue
/// survives the crash, so queued and future sessions keep being served.
fn worker_loop(
    rx: Receiver<Job>,
    handle: Arc<EpochHandle>,
    exec: ExecPolicy,
    global: Arc<GlobalMetrics>,
) {
    let mut sessions: HashMap<u64, WorkerSession> = HashMap::new();
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_worker(&rx, &handle, &exec, &global, &mut sessions)
        }));
        match run {
            Ok(()) => break, // all job senders dropped: clean shutdown
            Err(_) => {
                global.worker_restarted();
                for (_, s) in sessions.drain() {
                    fail_session(&global, s, "shard worker crashed; session aborted");
                }
            }
        }
    }
}

fn run_worker(
    rx: &Receiver<Job>,
    handle: &Arc<EpochHandle>,
    exec: &ExecPolicy,
    global: &Arc<GlobalMetrics>,
    sessions: &mut HashMap<u64, WorkerSession>,
) {
    let ctx = Ctx {
        exec: exec.clone(),
        cost: Arc::new(CostModel::new()),
    };
    while let Ok(job) = rx.recv() {
        match job {
            Job::Open {
                id,
                events,
                counters,
                opts,
                notify,
            } => {
                let mut m = StreamMatcher::new(handle.load());
                if opts.start_offset > 0 {
                    m.resume_at(opts.start_offset);
                }
                sessions.insert(
                    id,
                    WorkerSession {
                        m,
                        events,
                        counters,
                        progress: opts.progress,
                        notify,
                    },
                );
            }
            Job::Chunk { id, data } => {
                // Keep the gauge exact even if this job faults below.
                global.dequeued();
                // May panic (fault injection / latent bug): unwinds to the
                // supervisor, which fails every session on this shard.
                crate::faults::hook_worker_loop();
                if let Some(s) = sessions.get_mut(&id) {
                    // Chunk-boundary epoch adoption: a snapshot published
                    // since the last chunk is swapped in *before* matching,
                    // with the marker event first, so every match after the
                    // marker belongs to the new epoch. A panic here (fault
                    // injection) unwinds to the supervisor mid-swap.
                    let cur = handle.load();
                    if cur.epoch() != s.m.dict().epoch() {
                        crate::faults::hook_epoch_swap();
                        let marker = Event::Epoch {
                            epoch: cur.epoch(),
                            max_pattern_len: cur.max_pattern_len() as u32,
                        };
                        s.m.swap_dict(cur);
                        global.epoch_adopted();
                        s.send(marker);
                    }
                    // Per-chunk guard: a panic in the match call costs one
                    // session, not the worker.
                    let found = catch_unwind(AssertUnwindSafe(|| {
                        crate::faults::hook_worker_chunk();
                        s.m.push(&ctx, &data)
                    }));
                    match found {
                        Ok(found) => {
                            s.counters
                                .record_chunk(data.len() as u64, found.len() as u64);
                            global.record_chunk_done(data.len() as u64, found.len() as u64);
                            if !found.is_empty() {
                                s.send_matches(global, found);
                            }
                            if s.progress {
                                s.send(Event::Progress(s.m.consumed()));
                            }
                        }
                        Err(_) => {
                            let s = sessions.remove(&id).expect("session was present");
                            fail_session(
                                global,
                                s,
                                "match worker panicked on a chunk; session aborted",
                            );
                        }
                    }
                }
            }
            Job::Close { id } => {
                if let Some(s) = sessions.remove(&id) {
                    let snap = s.counters.snapshot();
                    // Count the close *before* emitting the summary event,
                    // so a client that saw the summary also sees the count.
                    global.session_closed();
                    s.send(Event::Closed(SessionSummary {
                        consumed: s.m.consumed(),
                        chunks: snap.chunks,
                        matches: snap.matches,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::dict::{symbolize, to_symbols};

    fn service(cfg: ServiceConfig) -> ShardedService {
        let ctx = Ctx::seq();
        let dict =
            Arc::new(StaticMatcher::build(&ctx, &symbolize(&["he", "she", "hers"])).unwrap());
        ShardedService::start(dict, cfg)
    }

    #[test]
    fn single_session_roundtrip() {
        let svc = service(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let s = svc.open();
        let t = to_symbols("ushers");
        s.push(t[..3].to_vec()).unwrap();
        s.push(t[3..].to_vec()).unwrap();
        let (matches, summary) = s.close();
        let starts: Vec<u64> = matches.iter().map(|m| m.start).collect();
        assert_eq!(starts, vec![1, 2, 2]); // she@1, he@2, hers@2
        let summary = summary.unwrap();
        assert_eq!(summary.consumed, 6);
        assert_eq!(summary.chunks, 2);
        assert_eq!(summary.matches, 3);
        svc.shutdown();
    }

    #[test]
    fn many_sessions_are_isolated() {
        let svc = service(ServiceConfig {
            workers: 3,
            queue_cap: 4,
            ..Default::default()
        });
        let sessions: Vec<Session> = (0..8).map(|_| svc.open()).collect();
        for (k, s) in sessions.iter().enumerate() {
            // Session k streams k+1 copies of "she", one symbol at a time.
            let text = to_symbols(&"she".repeat(k + 1));
            for sym in text.chunks(1) {
                s.push(sym.to_vec()).unwrap();
            }
        }
        for (k, s) in sessions.into_iter().enumerate() {
            let (matches, summary) = s.close();
            // Each "she" contributes she + he.
            assert_eq!(matches.len(), 2 * (k + 1), "session {k}");
            assert_eq!(summary.unwrap().consumed, 3 * (k + 1) as u64);
        }
        let g = svc.metrics();
        assert_eq!(g.sessions_opened, 8);
        assert_eq!(g.sessions_closed, 8);
        assert_eq!(g.queue_depth, 0);
        svc.shutdown();
    }

    #[test]
    fn try_push_reports_would_block() {
        // 1 worker, tiny queue, and the worker is jammed: its first
        // session never drains its single-slot event queue, so a second
        // matching chunk blocks the worker, letting the job queue fill.
        let svc = service(ServiceConfig {
            workers: 1,
            queue_cap: 1,
            events_cap: 1,
            exec: ExecPolicy::Seq,
        });
        let s = svc.open();
        let chunk = to_symbols("she");
        // Worker stalls once two match batches exist and nobody drains.
        let mut saw_would_block = false;
        let mut accepted = 0u64;
        for _ in 0..64 {
            match s.try_push(chunk.clone()) {
                Ok(()) => accepted += 1,
                Err(TryPushError::WouldBlock(_)) => {
                    saw_would_block = true;
                    break;
                }
                Err(TryPushError::Closed(_)) => panic!("service died"),
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(saw_would_block, "bounded queue never pushed back");
        assert!(svc.metrics().stalls > 0);
        // Drain and finish cleanly.
        let (matches, _) = s.close();
        assert!(matches.len() as u64 >= accepted.min(2));
        svc.shutdown();
    }

    #[test]
    fn resumed_session_reports_absolute_offsets() {
        let svc = service(ServiceConfig::default());
        let s = svc.open_with(SessionOptions {
            start_offset: 1000,
            progress: true,
        });
        s.push(to_symbols("ushers")).unwrap();
        let mut starts = Vec::new();
        let (matches, summary) = loop {
            match s.next_event().expect("service alive") {
                Event::Matches(m) => starts.extend(m.iter().map(|o| o.start)),
                Event::Progress(consumed) => {
                    // The progress event arrives after the chunk's matches.
                    assert_eq!(consumed, 1006);
                    break s.close();
                }
                ev => panic!("unexpected event {ev:?}"),
            }
        };
        assert!(matches.is_empty());
        starts.sort_unstable();
        assert_eq!(starts, vec![1001, 1002, 1002]); // she, he, hers
        assert_eq!(summary.unwrap().consumed, 1006);
        svc.shutdown();
    }
}
