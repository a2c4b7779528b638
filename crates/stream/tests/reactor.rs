//! Reactor-tier tests: burst-accept fairness, reactor metrics, the
//! `TAG_STATS` snapshot frame, timer-wheel idle reaping, and (behind
//! `--features fault-injection`) reactor-specific chaos — spurious
//! wakeups, `epoll_wait` EINTR, and accept-queue overflow.
//!
//! Every test holds `FAULT_LOCK`: the fault plan is process-global, so a
//! chaos plan would otherwise fire on a concurrent test's server.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pdm_core::dict::symbolize;
use pdm_core::static1d::StaticMatcher;
use pdm_pram::Ctx;
use pdm_stream::faults;
use pdm_stream::proto::{
    decode_stats, decode_summary, read_frame, write_frame, TAG_CHUNK, TAG_CLOSE, TAG_ERROR,
    TAG_MATCH, TAG_STATS, TAG_STATS_RESP, TAG_SUMMARY,
};
use pdm_stream::{GlobalSnapshot, Server, ServerConfig, ServiceConfig};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds [`FAULT_LOCK`] with no fault plan installed; clears the plan
/// again on drop.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn serial() -> Serial {
    let lock = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    faults::clear();
    Serial { _lock: lock }
}

fn dict() -> Arc<StaticMatcher> {
    let ctx = Ctx::seq();
    Arc::new(StaticMatcher::build(&ctx, &symbolize(&["he", "she", "his", "hers"])).unwrap())
}

fn reactor_cfg() -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers: 2,
            queue_cap: 4,
            ..Default::default()
        },
        reactors: 2,
        ..Default::default()
    }
}

fn start(cfg: ServerConfig) -> Server {
    Server::bind(("127.0.0.1", 0), dict(), cfg).expect("bind ephemeral port")
}

fn connect(server: &Server) -> TcpStream {
    let sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock
}

/// Poll a metrics predicate for up to 2 s (event delivery is async).
fn wait_for(server: &Server, what: &str, pred: impl Fn(&GlobalSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let snap = server.metrics();
        if pred(&snap) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run one tiny session ("ushers" → 3 matches) over an open socket.
/// Returns `Ok(matches_seen)` or `Err` if the connection died first.
fn run_session(sock: TcpStream) -> Result<u64, String> {
    let mut w = sock.try_clone().map_err(|e| e.to_string())?;
    write_frame(&mut w, TAG_CHUNK, b"ushers").map_err(|e| e.to_string())?;
    write_frame(&mut w, TAG_CLOSE, b"").map_err(|e| e.to_string())?;
    let mut r = BufReader::new(sock);
    let mut matches = 0u64;
    loop {
        match read_frame(&mut r).map_err(|e| e.to_string())? {
            Some((TAG_MATCH, _)) => matches += 1,
            Some((TAG_SUMMARY, p)) => {
                let s = decode_summary(&p).ok_or("bad summary")?;
                assert_eq!(s.matches, 3, "wrong match count in summary");
                assert_eq!(matches, 3, "wrong number of match frames");
                return Ok(matches);
            }
            Some((TAG_ERROR, p)) => {
                return Err(format!("server error: {}", String::from_utf8_lossy(&p)))
            }
            Some((tag, _)) => return Err(format!("unexpected frame {tag:#x}")),
            None => return Err("connection closed before summary".into()),
        }
    }
}

/// Satellite: a single listener readiness event must drain the whole
/// accept backlog. All sockets connect *before* any session traffic, so
/// the listener sees one burst; every connection must still be served.
#[test]
fn burst_accept_drains_simultaneous_connections() {
    let _g = serial();
    const N: usize = 40;
    let server = start(reactor_cfg());
    let socks: Vec<TcpStream> = (0..N).map(|_| connect(&server)).collect();
    let handles: Vec<_> = socks
        .into_iter()
        .map(|s| std::thread::spawn(move || run_session(s)))
        .collect();
    for h in handles {
        h.join().unwrap().expect("burst-accepted session");
    }
    wait_for(&server, "all sessions closed", |m| {
        m.sessions_opened == N as u64 && m.sessions_closed == N as u64
    });
    let snap = server.metrics();
    assert_eq!(snap.sessions_failed, 0, "{snap:?}");
    server.shutdown();
}

/// Satellite: reactor-tier counters are populated and a `TAG_STATS`
/// frame returns the same snapshot over the wire.
#[test]
fn reactor_metrics_and_stats_frame() {
    let _g = serial();
    let server = start(reactor_cfg());
    run_session(connect(&server)).expect("session");
    wait_for(&server, "session closed", |m| m.sessions_closed == 1);

    let snap = server.metrics();
    assert!(snap.reactor_wakeups > 0, "{snap:?}");
    assert!(snap.reactor_events > 0, "{snap:?}");
    // chunk + close from the session above, at minimum
    assert!(snap.frames_decoded >= 2, "{snap:?}");

    // Wire snapshot: TAG_STATS → TAG_STATS_RESP with the same counters.
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    write_frame(&mut w, TAG_STATS, b"").unwrap();
    let mut r = BufReader::new(sock);
    let wire = match read_frame(&mut r).unwrap() {
        Some((TAG_STATS_RESP, p)) => decode_stats(&p).expect("decodable stats"),
        Some((tag, _)) => panic!("unexpected frame {tag:#x}"),
        None => panic!("closed before stats reply"),
    };
    assert_eq!(wire.sessions_closed, 1, "{wire:?}");
    assert!(wire.frames_decoded >= 2, "{wire:?}");
    assert!(wire.reactor_wakeups > 0, "{wire:?}");
    server.shutdown();
}

/// Idle reaping goes through the timer wheel: the conn gets a timeout
/// error frame, and the wheel's expiration counter ticks.
#[test]
fn idle_timeout_fires_through_timer_wheel() {
    let _g = serial();
    let cfg = ServerConfig {
        read_timeout: Some(Duration::from_millis(80)),
        ..reactor_cfg()
    };
    let server = start(cfg);
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    // Mid-session idle: open the session, then go quiet.
    write_frame(&mut w, TAG_CHUNK, b"ushers").unwrap();
    let mut r = BufReader::new(sock);
    let mut saw_timeout = false;
    loop {
        match read_frame(&mut r).unwrap() {
            Some((TAG_MATCH, _)) => {}
            Some((TAG_ERROR, p)) => {
                let msg = String::from_utf8_lossy(&p).into_owned();
                assert!(msg.contains("timeout"), "{msg}");
                saw_timeout = true;
            }
            Some((tag, _)) => panic!("unexpected frame {tag:#x}"),
            None => break,
        }
    }
    assert!(saw_timeout, "no timeout error frame");
    wait_for(&server, "timeout accounted", |m| {
        m.read_timeouts == 1 && m.sessions_closed == 1 && m.timer_expirations > 0
    });
    server.shutdown();
}

#[cfg(feature = "fault-injection")]
mod chaos {
    use super::*;
    use pdm_stream::faults::FaultConfig;

    /// Spurious wakeups and EINTR'd waits must be invisible: sessions
    /// complete exactly, and the injected faults demonstrably fired.
    #[test]
    fn survives_spurious_wakeups_and_eintr() {
        let _g = serial();
        faults::install(FaultConfig {
            spurious_wake_every: 2,
            spurious_wake_max: 10_000,
            wait_eintr_every: 3,
            wait_eintr_max: 10_000,
            ..Default::default()
        });
        let server = start(reactor_cfg());
        for _ in 0..4 {
            run_session(connect(&server)).expect("session under wait faults");
        }
        wait_for(&server, "sessions closed", |m| m.sessions_closed == 4);
        let counts = faults::counts();
        assert!(counts.spurious_wakes > 0, "{counts:?}");
        assert!(counts.wait_eintrs > 0, "{counts:?}");
        server.shutdown();
    }

    /// Accept-queue overflow (synthetic ECONNABORTED after `accept`)
    /// drops that arrival but must not end the burst or wedge the
    /// listener: later connections are served normally.
    #[test]
    fn accept_overflow_drops_conn_and_keeps_accepting() {
        let _g = serial();
        faults::install(FaultConfig {
            accept_overflow_every: 3,
            accept_overflow_max: 2,
            ..Default::default()
        });
        let server = start(reactor_cfg());
        let mut ok = 0;
        let mut dropped = 0;
        // Sequential connects: the 3rd and 6th arrivals are aborted.
        for _ in 0..12 {
            match run_session(connect(&server)) {
                Ok(_) => ok += 1,
                Err(_) => dropped += 1,
            }
        }
        assert_eq!(dropped, 2, "expected exactly the two injected aborts");
        assert_eq!(ok, 10);
        let counts = faults::counts();
        assert_eq!(counts.accept_overflows, 2, "{counts:?}");
        wait_for(&server, "overflow accounted", |m| m.accept_retries >= 2);
        // The plan is exhausted: a fresh connection serves fine.
        run_session(connect(&server)).expect("post-overflow session");
        server.shutdown();
    }
}
