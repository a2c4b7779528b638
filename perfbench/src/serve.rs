//! The three `pdm serve` workloads: boot the server in its own process,
//! drive it from two generator threads (a sender and an epoll receiver),
//! then check every chunk's matches and compute the end-to-end metrics.
//!
//! Each run has four phases. A closed-loop warm-up and saturation phase
//! keep a fixed window of pre-encoded chunks in flight per connection
//! (throughput and CPU); an open-loop warm-up and paced phase send chunks
//! on a fixed schedule (latency, timed from each chunk's due time to the
//! `TAG_ACK` that covers it). Warm-ups are discarded.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use pdm_dict::log::{LogFile, Record};
use pdm_dict::DictStore;
use pdm_pram::Ctx;
use pdm_stream::proto;
use pdm_stream::GlobalSnapshot;

use crate::client::{self, FrameBuf, Server};
use crate::inputs::{self, ChunkOracle, Occ, StreamInputs};
use crate::procfs;
use crate::stats;

const P_WARM_SAT: u8 = 0;
const P_SAT: u8 = 1;
const P_WARM_PACED: u8 = 2;
const P_PACED: u8 = 3;
const P_DONE: u8 = 4;

/// Epoch sealed by the prepared churn store (one commit of the base set).
pub const BASE_EPOCH: u64 = 1;
/// Churn commits are triggered every this many acked stream bytes.
pub const COMMIT_EVERY: u64 = 64 << 10;
/// Paced chunks allowed in flight per connection before the sender holds
/// back (a guard against unbounded memory, never reached at the set rates).
const MAX_INFLIGHT: u64 = 4096;

/// One serve workload's load shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub chunk: usize,
    /// Streaming connections (each its own session).
    pub conns: usize,
    /// Closed-loop chunks in flight per connection.
    pub window: usize,
    /// Paced-phase rate over all connections, MiB/s: a quarter to a third
    /// of the saturated throughput measured when this benchmark was written.
    pub paced_mib_s: f64,
    /// Serve from a versioned store with live commits.
    pub churn: bool,
    /// Shares of the run spent saturated and paced (the rest is warm-up).
    pub sat_share: f64,
    pub paced_share: f64,
}

/// The churn commit script, indexed by commit number: commit 0 adds pool
/// set 0 (hydrating the store), commit 1 is the bulk batch (full rebuild),
/// and every later commit removes one pool set and adds the next (small,
/// incremental), so the dictionary size stays level.
pub struct ChurnScript<'a> {
    pub pool: &'a [Vec<Vec<u8>>],
    pub bulk: &'a [Vec<u8>],
}

impl ChurnScript<'_> {
    pub fn ops(&self, i: usize) -> (Vec<&[u8]>, Vec<&[u8]>) {
        let p = self.pool.len();
        let set = |s: usize| self.pool[s].iter().map(Vec::as_slice).collect::<Vec<_>>();
        match i {
            0 => (set(0), Vec::new()),
            1 => (self.bulk.iter().map(Vec::as_slice).collect(), Vec::new()),
            _ => (set((i - 1) % p), set((i - 2) % p)),
        }
    }

    /// Is union pattern `id` (base, then pool sets, then bulk) live in
    /// `epoch`?
    pub fn live(&self, base: usize, id: usize, epoch: u64) -> bool {
        if id < base {
            return true;
        }
        let Some(last) = epoch.checked_sub(BASE_EPOCH + 1).map(|i| i as usize) else {
            return false;
        };
        let pool_ids = self.pool.len() * self.pool[0].len();
        if id >= base + pool_ids {
            return last >= 1;
        }
        let set = (id - base) / self.pool[0].len();
        let live_set = if last <= 1 {
            0
        } else {
            (last - 1) % self.pool.len()
        };
        set == live_set
    }

    /// Union pattern list in the id order [`Self::live`] uses.
    pub fn union(&self, base: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut u = base.to_vec();
        u.extend(self.pool.iter().flatten().cloned());
        u.extend(self.bulk.iter().cloned());
        u
    }

    /// Pre-encoded stage frames for commit `i`, and their count.
    fn stage_frames(&self, i: usize) -> (Vec<u8>, usize) {
        let (adds, removes) = self.ops(i);
        let mut buf = Vec::new();
        for p in &removes {
            client::frame(&mut buf, proto::TAG_DICT_REMOVE, p);
        }
        for p in &adds {
            client::frame(&mut buf, proto::TAG_DICT_ADD, p);
        }
        (buf, adds.len() + removes.len())
    }
}

/// Write the base alert set as a one-commit log and compact it, which
/// emits the `.snap` sidecar the server cold-boots from.
pub fn prepare_store(dir: &Path, patterns: &[Vec<u8>]) -> std::io::Result<PathBuf> {
    let log = dir.join("alerts.pdml");
    let io = |e: pdm_dict::log::LogError| std::io::Error::other(e.to_string());
    let mut f = LogFile::create(&log).map_err(io)?;
    for p in patterns {
        f.append(&Record::Add(inputs::to_syms(p))).map_err(io)?;
    }
    f.append(&Record::Commit(BASE_EPOCH)).map_err(io)?;
    f.sync().map_err(io)?;
    drop(f);
    let mut store = DictStore::open(&log).map_err(|e| std::io::Error::other(e.to_string()))?;
    store
        .compact(&Ctx::par())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(log)
}

/// `<log>.snap`, the sidecar next to a store log.
pub fn snap_of(log: &Path) -> PathBuf {
    let mut os = log.as_os_str().to_owned();
    os.push(".snap");
    PathBuf::from(os)
}

/// Everything the generator observed in one serve run.
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Boots whose banner said the dictionary was cold-loaded.
    pub cold_boots: usize,
    pub server_pid_mem: procfs::Memory,
    pub rss_warm_mb: f64,
    pub cpu_sat_s: f64,
    pub stats: [GlobalSnapshot; 3],
    /// Origin-relative phase boundaries: saturation start/end, paced
    /// warm-up start, paced start/end (ns).
    pub bounds: [u64; 5],
    pub sends: Vec<Vec<SendRec>>,
    pub recv: Vec<ConnLog>,
    pub commits: Vec<CommitRec>,
    pub stage_errors: u64,
    pub origin: Instant,
}

#[derive(Debug, Clone, Copy)]
pub struct SendRec {
    /// Due time of a paced chunk; `None` in the closed loop.
    pub due: Option<u64>,
    pub sent: u64,
}

#[derive(Default)]
pub struct ConnLog {
    pub acks: Vec<u64>,
    /// Flat match-list length after each ack (chunk `k`'s matches are
    /// `matches[ends[k-1]..ends[k]]`).
    pub ends: Vec<usize>,
    pub matches: Vec<Occ>,
    /// Epoch in force for each acked chunk.
    pub epochs: Vec<u64>,
    pub epoch_events: Vec<(u64, u64)>,
    pub summary: bool,
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy)]
pub struct CommitRec {
    pub index: usize,
    pub sent: u64,
    pub done: u64,
    pub epoch: u64,
    pub ok: bool,
}

struct Shared {
    origin: Instant,
    phase: AtomicU8,
    paced_start: AtomicU64,
    sent: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    commits_done: AtomicU64,
}

impl Shared {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Boot the server `reps` times (fresh inputs each time, via `prepare`),
/// keep the last one, and drive it through the four phases.
pub fn run(
    spec: &ServeSpec,
    inp: &StreamInputs,
    server_args: &[String],
    prepare: &dyn Fn(),
    reps: usize,
    seconds: f64,
) -> std::io::Result<ServeRun> {
    let mut setup_s = Vec::with_capacity(reps);
    let mut cold_boots = 0;
    let mut booted = None;
    for rep in 0..reps {
        let (server, secs, sess) = client::timed_boot(server_args, prepare)?;
        setup_s.push(secs);
        cold_boots += usize::from(server.boot_cold);
        if rep + 1 == reps {
            booted = Some((server, sess));
        }
    }
    let (server, first) = booted.expect("at least one boot");
    let mut run = drive(spec, inp, server, first, seconds)?;
    run.setup_s = setup_s;
    run.cold_boots = cold_boots;
    Ok(run)
}

fn drive(
    spec: &ServeSpec,
    inp: &StreamInputs,
    server: Server,
    first: TcpStream,
    seconds: f64,
) -> std::io::Result<ServeRun> {
    let mut streams = vec![first];
    for _ in 1..spec.conns {
        streams.push(client::open_session(server.addr)?);
    }
    let admin = if spec.churn {
        Some(client::connect(server.addr)?)
    } else {
        None
    };
    for s in &streams {
        s.set_read_timeout(None)?;
    }
    // Every chunk of one period, pre-encoded as CHUNK frames.
    let frame_len = spec.chunk + 5;
    let mut frames = Vec::with_capacity(inp.text.len() / spec.chunk * frame_len);
    for c in inp.text.chunks(spec.chunk) {
        client::frame(&mut frames, proto::TAG_CHUNK, c);
    }
    let sh = Shared {
        origin: Instant::now(),
        phase: AtomicU8::new(P_WARM_SAT),
        paced_start: AtomicU64::new(0),
        sent: (0..spec.conns).map(|_| AtomicU64::new(0)).collect(),
        acked: (0..spec.conns).map(|_| AtomicU64::new(0)).collect(),
        commits_done: AtomicU64::new(0),
    };
    let script = ChurnScript {
        pool: &inp.pool,
        bulk: &inp.bulk,
    };
    let pid = server.proc.pid();
    let warm = (seconds * 0.1).max(0.3);
    let sat = seconds * spec.sat_share;
    let paced = seconds * spec.paced_share;

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| sender(&sh, &streams, &frames, spec));
        let sender_thread = sender.thread().clone();
        let (shr, streams_r, admin_r, script_r) = (&sh, &streams, &admin, &script);
        let receiver = scope.spawn(move || {
            receiver(
                shr,
                streams_r,
                admin_r.as_ref().map(|a| (a, script_r)),
                spec.chunk as u64,
                &sender_thread,
            )
        });

        let secs = |s: f64| Duration::from_secs_f64(s);
        std::thread::sleep(secs(warm));
        if spec.churn {
            // Measure only after the hydrating and the bulk commits.
            let deadline = Instant::now() + secs(60.0);
            while sh.commits_done.load(Ordering::Acquire) < 3 && Instant::now() < deadline {
                std::thread::sleep(secs(0.01));
            }
        }
        let stats0 = client::fetch_stats(server.addr)?;
        let rss_warm = procfs::memory(pid).map_or(0.0, |m| m.rss_mb);
        let cpu0 = procfs::cpu_seconds(pid).unwrap_or(0.0);
        let t1 = sh.ns();
        sh.phase.store(P_SAT, Ordering::Release);
        std::thread::sleep(secs(sat));
        let cpu1 = procfs::cpu_seconds(pid).unwrap_or(0.0);
        let t2 = sh.ns();
        let stats1 = client::fetch_stats(server.addr)?;
        let paced_start = sh.ns();
        sh.paced_start.store(paced_start, Ordering::Release);
        sh.phase.store(P_WARM_PACED, Ordering::Release);
        std::thread::sleep(secs(warm));
        let t3 = sh.ns();
        sh.phase.store(P_PACED, Ordering::Release);
        std::thread::sleep(secs(paced));
        let t4 = sh.ns();
        let mem = procfs::memory(pid).unwrap_or(procfs::Memory {
            rss_mb: 0.0,
            hwm_mb: 0.0,
        });
        let stats2 = client::fetch_stats(server.addr)?;
        sh.phase.store(P_DONE, Ordering::Release);
        let sends = sender.join().expect("sender thread");
        let (recv, commits, stage_errors) = receiver.join().expect("receiver thread");
        Ok(ServeRun {
            setup_s: Vec::new(),
            cold_boots: 0,
            server_pid_mem: mem,
            rss_warm_mb: rss_warm,
            cpu_sat_s: cpu1 - cpu0,
            stats: [stats0, stats1, stats2],
            bounds: [t1, t2, paced_start, t3, t4],
            sends,
            recv,
            commits,
            stage_errors,
            origin: sh.origin,
        })
    })
}

fn sender(
    sh: &Shared,
    streams: &[TcpStream],
    frames: &[u8],
    spec: &ServeSpec,
) -> Vec<Vec<SendRec>> {
    let frame_len = spec.chunk + 5;
    let per_period = (frames.len() / frame_len) as u64;
    let mut log: Vec<Vec<SendRec>> = vec![Vec::with_capacity(1 << 16); streams.len()];
    let send = |c: usize, log: &mut Vec<Vec<SendRec>>, due: Option<u64>| -> bool {
        let k = sh.sent[c].load(Ordering::Relaxed);
        let j = (k % per_period) as usize;
        let now = sh.ns();
        if client::send(&streams[c], &frames[j * frame_len..(j + 1) * frame_len]).is_err() {
            return false;
        }
        log[c].push(SendRec { due, sent: now });
        sh.sent[c].store(k + 1, Ordering::Release);
        true
    };
    let chunks_per_s = spec.paced_mib_s * (1 << 20) as f64 / spec.chunk as f64;
    let mut g: u64 = 0;
    let mut alive = vec![true; streams.len()];
    loop {
        let ph = sh.phase.load(Ordering::Acquire);
        if ph == P_DONE {
            break;
        }
        if ph <= P_SAT {
            let mut progressed = false;
            for (c, up) in alive.iter_mut().enumerate() {
                while *up
                    && sh.sent[c].load(Ordering::Relaxed) - sh.acked[c].load(Ordering::Acquire)
                        < spec.window as u64
                {
                    *up = send(c, &mut log, None);
                    progressed = true;
                }
            }
            if !progressed {
                std::thread::park_timeout(Duration::from_millis(2));
            }
            continue;
        }
        let start = sh.paced_start.load(Ordering::Acquire);
        let due = start + (g as f64 * 1e9 / chunks_per_s) as u64;
        let now = sh.ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos((due - now).min(5_000_000)));
            continue;
        }
        let c = (g % streams.len() as u64) as usize;
        if sh.sent[c].load(Ordering::Relaxed) - sh.acked[c].load(Ordering::Acquire) >= MAX_INFLIGHT
        {
            std::thread::park_timeout(Duration::from_millis(1));
            continue;
        }
        if alive[c] {
            alive[c] = send(c, &mut log, Some(due));
        }
        g += 1;
    }
    let mut close = Vec::new();
    client::frame(&mut close, proto::TAG_CLOSE, &[]);
    for s in streams {
        let _ = client::send(s, &close);
    }
    log
}

enum AdminState {
    Idle,
    Staging { left: usize, index: usize },
    Committing { sent: u64, index: usize },
}

type RecvOut = (Vec<ConnLog>, Vec<CommitRec>, u64);

fn receiver(
    sh: &Shared,
    streams: &[TcpStream],
    admin: Option<(&TcpStream, &ChurnScript)>,
    chunk: u64,
    sender: &std::thread::Thread,
) -> RecvOut {
    const ADMIN: usize = 1 << 20;
    let mut poll = Poll::new().expect("epoll instance");
    for (i, s) in streams.iter().enumerate() {
        poll.register(s, Token(i), Interest::READABLE)
            .expect("register stream");
    }
    if let Some((a, _)) = admin {
        poll.register(a, Token(ADMIN), Interest::READABLE)
            .expect("register admin");
    }
    let mut events = Events::with_capacity(16);
    let mut bufs: Vec<FrameBuf> = streams.iter().map(|_| FrameBuf::new()).collect();
    let mut admin_buf = FrameBuf::new();
    let mut logs: Vec<ConnLog> = streams
        .iter()
        .map(|_| ConnLog {
            acks: Vec::with_capacity(1 << 16),
            ends: Vec::with_capacity(1 << 16),
            matches: Vec::with_capacity(1 << 20),
            epochs: Vec::with_capacity(1 << 16),
            ..ConnLog::default()
        })
        .collect();
    let mut epoch_now = vec![BASE_EPOCH; streams.len()];
    let mut state = AdminState::Idle;
    let mut next_commit = 0usize;
    let mut commits = Vec::new();
    let mut stage_errors = 0u64;
    let mut done_at: Option<Instant> = None;
    let mut commit_frame = Vec::new();
    client::frame(&mut commit_frame, proto::TAG_DICT_COMMIT, &[]);

    loop {
        let finished = logs.iter().all(|l| l.summary || l.error.is_some());
        if sh.phase.load(Ordering::Acquire) == P_DONE {
            let t = *done_at.get_or_insert_with(Instant::now);
            let admin_idle = matches!(state, AdminState::Idle);
            if (finished && admin_idle) || t.elapsed() > Duration::from_secs(30) {
                break;
            }
        }
        if poll
            .poll(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            continue;
        }
        for ev in events.iter() {
            let tok = ev.token().0;
            if tok == ADMIN {
                let (sock, _) = admin.expect("admin registered");
                match admin_buf.fill(sock) {
                    Ok(0) | Err(_) => {
                        let _ = poll.deregister(sock);
                        stage_errors += 1;
                        state = AdminState::Idle;
                        continue;
                    }
                    Ok(_) => {}
                }
                while let Some((tag, payload)) = admin_buf.next_frame() {
                    let ok = tag == proto::TAG_DICT_OK;
                    state = match state {
                        AdminState::Staging { left, index } => {
                            stage_errors += u64::from(!ok);
                            if left == 1 {
                                let sent = sh.ns();
                                let _ = client::send(sock, &commit_frame);
                                AdminState::Committing { sent, index }
                            } else {
                                AdminState::Staging {
                                    left: left - 1,
                                    index,
                                }
                            }
                        }
                        AdminState::Committing { sent, index } => {
                            let epoch = payload
                                .get(..8)
                                .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                            commits.push(CommitRec {
                                index,
                                sent,
                                done: sh.ns(),
                                epoch,
                                ok,
                            });
                            sh.commits_done.fetch_add(1, Ordering::Release);
                            AdminState::Idle
                        }
                        AdminState::Idle => {
                            stage_errors += 1;
                            AdminState::Idle
                        }
                    };
                }
                continue;
            }
            let c = tok;
            let log = &mut logs[c];
            if log.summary || log.error.is_some() {
                continue;
            }
            match bufs[c].fill(&streams[c]) {
                Ok(0) => {
                    log.error.get_or_insert_with(|| "connection closed".into());
                    let _ = poll.deregister(&streams[c]);
                    continue;
                }
                Err(e) => {
                    log.error.get_or_insert_with(|| e.to_string());
                    let _ = poll.deregister(&streams[c]);
                    continue;
                }
                Ok(_) => {}
            }
            while let Some((tag, payload)) = bufs[c].next_frame() {
                match tag {
                    proto::TAG_MATCH => match proto::decode_match(payload) {
                        Some(m) => log.matches.push(Occ {
                            start: m.start,
                            pat: m.pat,
                            len: m.len,
                        }),
                        None => log.error = Some("malformed match".into()),
                    },
                    proto::TAG_ACK => {
                        let now = sh.ns();
                        let k = log.acks.len();
                        log.acks.push(now);
                        log.ends.push(log.matches.len());
                        log.epochs.push(epoch_now[c]);
                        sh.acked[c].store(k as u64 + 1, Ordering::Release);
                        sender.unpark();
                    }
                    proto::TAG_EPOCH => {
                        if let Some(e) = proto::decode_epoch(payload) {
                            epoch_now[c] = e.epoch;
                            log.epoch_events.push((e.epoch, sh.ns()));
                        }
                    }
                    proto::TAG_SUMMARY => log.summary = true,
                    proto::TAG_ERROR => {
                        log.error = Some(String::from_utf8_lossy(payload).into_owned());
                    }
                    _ => {}
                }
            }
        }
        // Churn: start the next batch once the stream passed its offset.
        if let (Some((sock, script)), AdminState::Idle) = (admin, &state) {
            let acked = sh.acked[0].load(Ordering::Acquire) * chunk;
            if sh.phase.load(Ordering::Acquire) < P_DONE
                && acked >= next_commit as u64 * COMMIT_EVERY
            {
                let (frames, n) = script.stage_frames(next_commit);
                let _ = client::send(sock, &frames);
                state = AdminState::Staging {
                    left: n,
                    index: next_commit,
                };
                next_commit += 1;
            }
        }
    }
    (logs, commits, stage_errors)
}

/// What checking every chunk found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub chunks: u64,
    pub wrong: u64,
    pub missing: u64,
}

/// Compare every acked chunk's matches with the oracle. `live` filters
/// the oracle by the epoch each chunk was matched in (churn); static
/// workloads compare pattern ids too, churn compares `(start, len)`.
pub fn check(
    run: &ServeRun,
    oracle: &ChunkOracle,
    live: Option<&dyn Fn(u32, u64) -> bool>,
) -> (Checked, Vec<Vec<bool>>) {
    let mut out = Checked::default();
    let mut bad = Vec::with_capacity(run.recv.len());
    let mut want = Vec::new();
    let mut got = Vec::new();
    for (c, log) in run.recv.iter().enumerate() {
        let sent = run.sends[c].len() as u64;
        out.chunks += sent;
        out.missing += sent.saturating_sub(log.acks.len() as u64);
        let mut wrong = vec![false; log.acks.len()];
        for (k, bad_k) in wrong.iter_mut().enumerate() {
            oracle.expected(k as u64, &mut want);
            let lo = if k == 0 { 0 } else { log.ends[k - 1] };
            got.clear();
            got.extend_from_slice(&log.matches[lo..log.ends[k]]);
            if let Some(live) = live {
                let e = log.epochs[k];
                want.retain(|o| live(o.pat, e));
                for o in want.iter_mut().chain(got.iter_mut()) {
                    o.pat = 0;
                }
                want.sort_unstable();
            }
            got.sort_unstable();
            if got != want {
                out.wrong += 1;
                *bad_k = true;
            }
        }
        bad.push(wrong);
    }
    (out, bad)
}

/// Chunks acked during the saturation phase and their MiB.
pub fn saturated(run: &ServeRun, chunk: usize) -> (usize, f64) {
    let (t1, t2) = (run.bounds[0], run.bounds[1]);
    let n = run
        .recv
        .iter()
        .flat_map(|l| &l.acks)
        .filter(|a| (t1..t2).contains(*a))
        .count();
    (n, (n * chunk) as f64 / (1 << 20) as f64)
}

/// Latency (ms) of every paced chunk due inside the measured window, from
/// its due time to its ack; a chunk never acked or answered wrongly
/// counts as infinitely late. Also how late the sender ran (ms).
pub fn paced_latency(run: &ServeRun, bad: &[Vec<bool>]) -> (Vec<f64>, Vec<f64>) {
    let (t3, t4) = (run.bounds[3], run.bounds[4]);
    let mut lat = Vec::new();
    let mut late = Vec::new();
    for (c, sends) in run.sends.iter().enumerate() {
        for (k, s) in sends.iter().enumerate() {
            let Some(due) = s.due else { continue };
            if due < t3 || due >= t4 {
                continue;
            }
            let ms = match run.recv[c].acks.get(k) {
                Some(&a) if !bad[c][k] => a.saturating_sub(due) as f64 / 1e6,
                _ => f64::INFINITY,
            };
            late.push(s.sent.saturating_sub(due) as f64 / 1e6);
            lat.push(ms);
        }
    }
    stats::sort(&mut lat);
    stats::sort(&mut late);
    (lat, late)
}
