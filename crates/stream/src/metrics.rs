//! Lock-free counters for the service layer.
//!
//! Two levels: [`SessionCounters`] (one per session, shared between the
//! worker that owns the session and the client handle) and
//! [`GlobalMetrics`] (one per service — aggregates plus a queue-depth
//! gauge with a high-water mark, and a stall counter for backpressure
//! events).

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-session counters (relaxed atomics; read via [`Self::snapshot`]).
#[derive(Debug, Default)]
pub struct SessionCounters {
    chunks: AtomicU64,
    bytes: AtomicU64,
    matches: AtomicU64,
}

/// A point-in-time copy of [`SessionCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSnapshot {
    pub chunks: u64,
    pub bytes: u64,
    pub matches: u64,
}

impl SessionCounters {
    pub fn record_chunk(&self, bytes: u64, matches: u64) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.matches.fetch_add(matches, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            chunks: self.chunks.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
        }
    }
}

/// Service-wide counters plus the in-flight chunk gauge.
///
/// `queue_depth` counts chunks accepted into a shard queue and not yet
/// picked up by their worker; it is bounded by `queue_cap + workers` by
/// construction. `stalls` counts backpressure events: blocking pushes that
/// had to wait, plus `try_push` calls rejected with `WouldBlock`.
///
/// The degradation counters record every fault-tolerance action so an
/// operator can see *how* the service is degrading under load or faults:
/// `conns_shed` (accept-time load shedding at the connection cap),
/// `read_timeouts` (idle connections reaped), `truncated_frames` (peers
/// that died mid-frame), `accept_retries` (transient `accept()` errors
/// survived with backoff), `worker_restarts` (shard workers respawned
/// after a crash), `sessions_failed` (sessions aborted with
/// `Event::Failed`/`TAG_ERROR` instead of a summary; also counted in
/// `sessions_closed` so open/close accounting stays consistent), and
/// `drain_forced` (connections force-closed at the drain deadline).
#[derive(Debug, Default)]
pub struct GlobalMetrics {
    chunks: AtomicU64,
    bytes: AtomicU64,
    matches: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
    stalls: AtomicU64,
    conns_shed: AtomicU64,
    read_timeouts: AtomicU64,
    truncated_frames: AtomicU64,
    accept_retries: AtomicU64,
    worker_restarts: AtomicU64,
    sessions_failed: AtomicU64,
    drain_forced: AtomicU64,
    epoch_swaps: AtomicU64,
    epoch_adoptions: AtomicU64,
    reactor_wakeups: AtomicU64,
    reactor_events: AtomicU64,
    frames_decoded: AtomicU64,
    partial_writes: AtomicU64,
    timer_expirations: AtomicU64,
}

/// A point-in-time copy of [`GlobalMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GlobalSnapshot {
    pub chunks: u64,
    pub bytes: u64,
    pub matches: u64,
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub queue_depth: u64,
    pub queue_depth_max: u64,
    pub stalls: u64,
    pub conns_shed: u64,
    pub read_timeouts: u64,
    pub truncated_frames: u64,
    pub accept_retries: u64,
    pub worker_restarts: u64,
    pub sessions_failed: u64,
    pub drain_forced: u64,
    /// Dictionary epochs published (swaps visible to new chunks).
    pub epoch_swaps: u64,
    /// Session-level adoptions of a published epoch at a chunk boundary.
    pub epoch_adoptions: u64,
    /// Reactor-loop iterations (returns from `poll`, including timeouts,
    /// spurious wakeups, and `EINTR`). Serve-mode `reactor` only.
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all wakeups;
    /// `reactor_events / reactor_wakeups` is the ready-events-per-wakeup
    /// ratio (higher = better syscall amortization).
    pub reactor_events: u64,
    /// Complete client frames decoded from per-connection read buffers.
    pub frames_decoded: u64,
    /// Socket writes that hit `WouldBlock` mid-frame and parked the rest
    /// behind an `EPOLLOUT`-style writable subscription.
    pub partial_writes: u64,
    /// Timer-wheel entries that fired (idle-timeout checks).
    pub timer_expirations: u64,
}

impl GlobalSnapshot {
    /// Number of counters in [`Self::named_fields`] (the wire-stats field
    /// count; see [`crate::proto::encode_stats`]).
    pub const FIELD_COUNT: usize = 22;

    /// Every counter as a `(name, value)` pair, in a fixed order shared by
    /// the wire encoding and the `pdm stats` output.
    pub fn named_fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
        [
            ("chunks", self.chunks),
            ("bytes", self.bytes),
            ("matches", self.matches),
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("queue_depth", self.queue_depth),
            ("queue_depth_max", self.queue_depth_max),
            ("stalls", self.stalls),
            ("conns_shed", self.conns_shed),
            ("read_timeouts", self.read_timeouts),
            ("truncated_frames", self.truncated_frames),
            ("accept_retries", self.accept_retries),
            ("worker_restarts", self.worker_restarts),
            ("sessions_failed", self.sessions_failed),
            ("drain_forced", self.drain_forced),
            ("epoch_swaps", self.epoch_swaps),
            ("epoch_adoptions", self.epoch_adoptions),
            ("reactor_wakeups", self.reactor_wakeups),
            ("reactor_events", self.reactor_events),
            ("frames_decoded", self.frames_decoded),
            ("partial_writes", self.partial_writes),
            ("timer_expirations", self.timer_expirations),
        ]
    }

    /// Rebuild a snapshot from values in [`Self::named_fields`] order.
    /// Extra trailing values (a newer peer) are ignored; too few is `None`.
    pub fn from_values(vals: &[u64]) -> Option<GlobalSnapshot> {
        if vals.len() < Self::FIELD_COUNT {
            return None;
        }
        Some(GlobalSnapshot {
            chunks: vals[0],
            bytes: vals[1],
            matches: vals[2],
            sessions_opened: vals[3],
            sessions_closed: vals[4],
            queue_depth: vals[5],
            queue_depth_max: vals[6],
            stalls: vals[7],
            conns_shed: vals[8],
            read_timeouts: vals[9],
            truncated_frames: vals[10],
            accept_retries: vals[11],
            worker_restarts: vals[12],
            sessions_failed: vals[13],
            drain_forced: vals[14],
            epoch_swaps: vals[15],
            epoch_adoptions: vals[16],
            reactor_wakeups: vals[17],
            reactor_events: vals[18],
            frames_decoded: vals[19],
            partial_writes: vals[20],
            timer_expirations: vals[21],
        })
    }
}

impl GlobalMetrics {
    pub fn record_chunk_done(&self, bytes: u64, matches: u64) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.matches.fetch_add(matches, Ordering::Relaxed);
    }

    pub fn session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub fn session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was refused at accept time (connection cap reached).
    pub fn conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed for exceeding its read/idle timeout.
    pub fn read_timeout(&self) {
        self.read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A peer died mid-frame (EOF inside a frame, not at a boundary).
    pub fn truncated_frame(&self) {
        self.truncated_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// The accept loop survived a transient `accept()` error with backoff.
    pub fn accept_retry(&self) {
        self.accept_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A crashed shard worker was respawned by its supervisor.
    pub fn worker_restarted(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// A session was aborted (`Event::Failed`) instead of closing cleanly.
    pub fn session_failed(&self) {
        self.sessions_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was force-closed at the drain deadline.
    pub fn drain_force_closed(&self) {
        self.drain_forced.fetch_add(1, Ordering::Relaxed);
    }

    /// A commit published a new dictionary epoch.
    pub fn epoch_swapped(&self) {
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// A session adopted a published epoch at a chunk boundary.
    pub fn epoch_adopted(&self) {
        self.epoch_adoptions.fetch_add(1, Ordering::Relaxed);
    }

    /// One reactor-loop iteration finished a wait that delivered `events`
    /// readiness events (0 for timeouts/spurious wakeups/`EINTR`).
    pub fn reactor_wakeup(&self, events: u64) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        self.reactor_events.fetch_add(events, Ordering::Relaxed);
    }

    /// A complete client frame was decoded from a connection read buffer.
    pub fn frame_decoded(&self) {
        self.frames_decoded.fetch_add(1, Ordering::Relaxed);
    }

    /// A socket write stopped at `WouldBlock` with bytes still pending
    /// (the connection subscribed to writability for the rest).
    pub fn partial_write(&self) {
        self.partial_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// A timer-wheel entry fired.
    pub fn timer_expired(&self) {
        self.timer_expirations.fetch_add(1, Ordering::Relaxed);
    }

    /// A chunk entered a shard queue.
    pub fn enqueued(&self) {
        let d = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.queue_depth_max.fetch_max(d, Ordering::SeqCst);
    }

    /// A chunk finished processing (left the queue *and* its worker).
    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn snapshot(&self) -> GlobalSnapshot {
        GlobalSnapshot {
            chunks: self.chunks.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            queue_depth_max: self.queue_depth_max.load(Ordering::SeqCst),
            stalls: self.stalls.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            truncated_frames: self.truncated_frames.load(Ordering::Relaxed),
            accept_retries: self.accept_retries.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            sessions_failed: self.sessions_failed.load(Ordering::Relaxed),
            drain_forced: self.drain_forced.load(Ordering::Relaxed),
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            epoch_adoptions: self.epoch_adoptions.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reactor_events: self.reactor_events.load(Ordering::Relaxed),
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            timer_expirations: self.timer_expirations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_high_water() {
        let g = GlobalMetrics::default();
        g.enqueued();
        g.enqueued();
        g.dequeued();
        g.enqueued();
        let s = g.snapshot();
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_max, 2);
    }

    #[test]
    fn session_counters_accumulate() {
        let c = SessionCounters::default();
        c.record_chunk(10, 2);
        c.record_chunk(5, 0);
        let s = c.snapshot();
        assert_eq!((s.chunks, s.bytes, s.matches), (2, 15, 2));
    }
}
