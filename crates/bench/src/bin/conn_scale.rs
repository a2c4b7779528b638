//! Connection-scale benchmark for the reactor serving tier, written to
//! `BENCH_conns.json`.
//!
//! Drives N concurrent sessions through a live in-process server and
//! reports, per leg, aggregate throughput (MB/s over a fixed total byte
//! budget, so legs are comparable) and p99 session-completion latency:
//! `reactor_base` at the base scale (128 sessions), then `reactor_10x`
//! and `reactor_32x` (full runs only) at 10× and 32× it — the "tens of
//! thousands of connections on a handful of threads" claim in DESIGN.md
//! §15, scaled to the CI box.
//!
//! The dictionary is chosen so the text cannot match (patterns contain a
//! byte the text never uses): the bench measures frame plumbing and
//! session scheduling, not matcher throughput (that is `text_throughput`).
//!
//! Usage: `conn_scale [out.json] [--check baseline.json]`
//!
//! `PDM_BENCH_SMOKE=1` shrinks the ladder (32/320 sessions, 16 MiB total)
//! and skips the 32× leg. `--check` compares each leg's MB/s against a
//! committed baseline and exits non-zero on a loss of more than 50% (wider
//! than the matcher benches: the smoke ladder runs fewer chunks per
//! session than a full run, so session overhead weighs more).

use pdm_core::dict::Sym;
use pdm_core::static1d::StaticMatcher;
use pdm_pram::Ctx;
use pdm_stream::proto::{
    decode_summary, read_frame, write_frame, TAG_CHUNK, TAG_CLOSE, TAG_SUMMARY,
};
use pdm_stream::{Server, ServerConfig};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK: usize = 4 << 10;
const CLIENT_THREADS: usize = 8;

fn smoke() -> bool {
    std::env::var_os("PDM_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// A dictionary the bench text can never match: every pattern contains
/// byte 255, the text stays below 250.
fn no_match_dict() -> Arc<StaticMatcher> {
    let pats: Vec<Vec<Sym>> = (0..8u32)
        .map(|i| vec![255, 254, i, 255, 253 - i % 4])
        .collect();
    Arc::new(StaticMatcher::build(&Ctx::seq(), &pats).unwrap())
}

fn chunk_payload() -> Vec<u8> {
    // Deterministic pseudo-random bytes in 0..250 (xorshift).
    let mut x = 0x9e3779b9u32;
    (0..CHUNK)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x % 250) as u8
        })
        .collect()
}

struct Leg {
    name: &'static str,
    sessions: usize,
    mbps: f64,
    p99_ms: f64,
    completed: usize,
}

/// Best of `reps` runs of a leg: the box this runs on is shared and
/// single-CPU, and a capacity claim is about what the tier *can* sustain,
/// not what it does while a neighbour compiles.
fn run_leg_best(name: &'static str, sessions: usize, total_bytes: usize, reps: usize) -> Leg {
    let mut best: Option<Leg> = None;
    for _ in 0..reps {
        let leg = run_leg(name, sessions, total_bytes);
        if best.as_ref().is_none_or(|b| leg.mbps > b.mbps) {
            best = Some(leg);
        }
    }
    best.expect("at least one rep")
}

/// Run `sessions` concurrent sessions against a fresh server, streaming
/// ~`total_bytes` split evenly across them.
fn run_leg(name: &'static str, sessions: usize, total_bytes: usize) -> Leg {
    let server =
        Server::bind(("127.0.0.1", 0), no_match_dict(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let chunks_per = (total_bytes / sessions / CHUNK).max(1);
    let payload = Arc::new(chunk_payload());
    let actual_total = sessions * chunks_per * CHUNK;

    // Connect everything up front: holding N concurrent connections *is*
    // the thing under test.
    let socks: Vec<TcpStream> = (0..sessions)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            s
        })
        .collect();

    let threads = CLIENT_THREADS.min(sessions);
    let per_thread = sessions.div_ceil(threads);
    let t0 = Instant::now();
    let handles: Vec<_> = socks
        .chunks(per_thread)
        .map(|slice| {
            let socks: Vec<TcpStream> = slice.iter().map(|s| s.try_clone().unwrap()).collect();
            let payload = Arc::clone(&payload);
            std::thread::spawn(move || {
                // Round-robin writes keep every session concurrently
                // mid-stream instead of draining them one by one.
                let mut socks = socks;
                for _ in 0..chunks_per {
                    for s in &mut socks {
                        write_frame(s, TAG_CHUNK, &payload).expect("chunk");
                    }
                }
                for s in &mut socks {
                    write_frame(s, TAG_CLOSE, &[]).expect("close");
                }
                let mut done: Vec<(bool, f64)> = Vec::with_capacity(socks.len());
                for s in &mut socks {
                    let mut ok = false;
                    loop {
                        match read_frame(s) {
                            Ok(Some((TAG_SUMMARY, p))) => {
                                let sm = decode_summary(&p).expect("summary");
                                assert_eq!(
                                    sm.consumed,
                                    (chunks_per * CHUNK) as u64,
                                    "short session"
                                );
                                ok = true;
                                break;
                            }
                            Ok(Some(_)) => continue,
                            Ok(None) | Err(_) => break,
                        }
                    }
                    done.push((ok, t0.elapsed().as_secs_f64() * 1e3));
                }
                done
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(sessions);
    let mut completed = 0usize;
    for h in handles {
        for (ok, ms) in h.join().expect("client thread") {
            if ok {
                completed += 1;
            }
            latencies.push(ms);
        }
    }
    let wall = t0.elapsed();
    let snap = server.metrics();
    if std::env::var_os("PDM_BENCH_DEBUG").is_some() {
        eprintln!(
            "  {name}: wakeups {} events {} frames {} partial_writes {} stalls {} qmax {}",
            snap.reactor_wakeups,
            snap.reactor_events,
            snap.frames_decoded,
            snap.partial_writes,
            snap.stalls,
            snap.queue_depth_max
        );
    }
    drop(socks);
    server.shutdown();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let p99 = latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize];
    let mbps = actual_total as f64 / (1 << 20) as f64 / wall.as_secs_f64();
    eprintln!(
        "{name}: {sessions} sessions x {chunks_per} chunks, {completed} completed, \
         {mbps:.2} MB/s, p99 {p99:.1} ms"
    );
    Leg {
        name,
        sessions,
        mbps,
        p99_ms: p99,
        completed,
    }
}

/// Pull `legs.<name>.mbps` out of a baseline produced by this binary.
fn extract_mbps(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"{name}\""))?;
    let rest = &json[at..];
    let rest = &rest[rest.find("\"mbps\": ")? + "\"mbps\": ".len()..];
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_conns.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check" {
            check_path = args.next();
        } else {
            out_path = a;
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The byte budget must dwarf per-session setup cost even on the
    // largest ladder, or big legs measure session churn instead of
    // sustained streaming.
    let (base, total_bytes) = if smoke() {
        (32usize, 16 << 20)
    } else {
        (128usize, 96 << 20)
    };

    let reps = if smoke() { 1 } else { 3 };
    let mut legs = vec![
        run_leg_best("reactor_base", base, total_bytes, reps),
        run_leg_best("reactor_10x", base * 10, total_bytes, reps),
    ];
    if !smoke() {
        legs.push(run_leg_best("reactor_32x", base * 32, total_bytes, reps));
    }

    let reactor_max = legs
        .iter()
        .filter(|l| l.completed == l.sessions)
        .max_by_key(|l| l.sessions)
        .expect("a completed reactor leg");
    let at_10x = legs.iter().find(|l| l.name == "reactor_10x").unwrap();

    let mut leg_json = Vec::new();
    for l in &legs {
        leg_json.push(format!(
            "    \"{}\": {{\"mode\": \"reactor\", \"sessions\": {}, \"completed\": {}, \
             \"mbps\": {:.2}, \"p99_ms\": {:.1}}}",
            l.name, l.sessions, l.completed, l.mbps, l.p99_ms
        ));
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"meta\": {{\"host_cpus\": {host_cpus}, \"total_bytes\": {total_bytes}, \
         \"chunk_bytes\": {CHUNK}, \"smoke\": {}, \"note\": \"fixed total byte budget per \
         leg; non-matching dictionary, so this measures frame plumbing and session \
         scheduling, not the matcher\"}},\n  \"legs\": {{\n{}\n  }},\n  \
         \"headline\": {{\"reactor_max_sessions\": {}, \
         \"reactor_mbps_at_10x\": {:.2}, \"reactor_mbps_at_max\": {:.2}}}\n}}\n",
        smoke(),
        leg_json.join(",\n"),
        reactor_max.sessions,
        at_10x.mbps,
        reactor_max.mbps,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(base_path) = check_path {
        let base = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let mut failed = false;
        for l in &legs {
            let Some(want) = extract_mbps(&base, l.name) else {
                eprintln!("check: {} missing from baseline, skipping", l.name);
                continue;
            };
            // Wider margin than the matcher benches: smoke ladders run
            // fewer chunks per session than the committed full run, so
            // per-session overhead weighs more before any regression.
            let floor = want * 0.50;
            if l.mbps < floor {
                eprintln!(
                    "check FAIL: {} {:.2} MB/s < 50% of baseline {want:.2}",
                    l.name, l.mbps
                );
                failed = true;
            } else {
                eprintln!(
                    "check ok:   {} {:.2} MB/s vs baseline {want:.2}",
                    l.name, l.mbps
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
