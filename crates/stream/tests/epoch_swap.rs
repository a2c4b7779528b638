//! End-to-end live dictionary updates: a versioned server accepts
//! `DICT_*` admin frames while sessions stream, publishes commits as new
//! epochs, and sessions adopt them at chunk boundaries without dropping
//! the connection. Every delivered match must be correct for the epoch
//! its chunk started in (pre- and post-swap patterns both covered), and a
//! killed server must recover the exact committed dictionary from its log
//! (replay + compaction round trip). A run of stage frames is one store
//! batch: one reply per frame in frame order, one log sync, and no reply
//! at all before that sync (the sync-counting tests need
//! `--features fault-injection`).
//!
//! The disk-fault plane is process-global, so every test that writes a
//! log holds the `disk` lock while it runs.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pdm_core::dict::to_symbols;
use pdm_core::static1d::StaticMatcher;
use pdm_dict::{DictStore, SnapshotPath};
use pdm_pram::Ctx;
use pdm_stream::proto::{
    decode_dict_info, decode_epoch, decode_match, decode_summary, read_frame, write_frame,
    TAG_CHUNK, TAG_CLOSE, TAG_DICT_ADD, TAG_DICT_COMMIT, TAG_DICT_ERR, TAG_DICT_INFO,
    TAG_DICT_INFO_RESP, TAG_DICT_OK, TAG_DICT_REMOVE, TAG_EPOCH, TAG_MATCH, TAG_SUMMARY,
};
use pdm_stream::{RetryConfig, RetryingClient, Server, ServerConfig, ServiceConfig};

static DISK: Mutex<()> = Mutex::new(());

fn disk() -> MutexGuard<'static, ()> {
    DISK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers: 2,
            queue_cap: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn temp_log(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdm-epoch-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("dict.pdml")
}

/// A store whose committed epoch 1 is `{he, she}`.
fn seeded_store(log: &Path) -> DictStore {
    let mut store = DictStore::open(log).unwrap();
    store.stage_add(&to_symbols("he")).unwrap();
    store.stage_add(&to_symbols("she")).unwrap();
    store.commit(&Ctx::seq()).unwrap();
    store
}

fn connect(server: &Server) -> TcpStream {
    let sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock
}

/// Stage frames for `ops` (`true` = add) in one buffer, so that one write
/// delivers the whole run to the server.
fn stage_frames(ops: &[(bool, &str)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &(add, p) in ops {
        let tag = if add { TAG_DICT_ADD } else { TAG_DICT_REMOVE };
        write_frame(&mut buf, tag, p.as_bytes()).unwrap();
    }
    buf
}

/// The next `n` frames.
fn read_n(r: &mut impl std::io::Read, n: usize) -> Vec<(u8, Vec<u8>)> {
    (0..n)
        .map(|_| read_frame(r).expect("read frame").expect("open connection"))
        .collect()
}

/// `(epoch, patterns, staged)` over a `DICT_INFO` round trip.
fn info(w: &mut TcpStream, r: &mut impl std::io::Read) -> (u64, u32, u32) {
    write_frame(w, TAG_DICT_INFO, &[]).unwrap();
    let frames = read_until(r, TAG_DICT_INFO_RESP);
    let i = decode_dict_info(&frames.last().unwrap().1).unwrap();
    (i.epoch, i.patterns, i.staged)
}

/// Read frames until `stop` appears; returns every frame read, inclusive.
fn read_until(r: &mut impl std::io::Read, stop: u8) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    loop {
        match read_frame(r).expect("read frame") {
            Some((tag, p)) => {
                out.push((tag, p));
                if tag == stop {
                    return out;
                }
            }
            None => panic!("connection closed while waiting for tag {stop:#x}"),
        }
    }
}

fn wait_for(server: &Server, what: &str, pred: impl Fn(&pdm_stream::GlobalSnapshot) -> bool) {
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

/// The acceptance-criteria path, one connection end to end: stream a
/// chunk against epoch 1, add + commit a pattern on the same connection,
/// stream another chunk, and check each chunk's matches against its own
/// epoch's oracle — with the `TAG_EPOCH` marker separating them and the
/// session closing with a summary (never dropped).
#[test]
fn live_update_swaps_epoch_without_dropping_connection() {
    let _disk = disk();
    let log = temp_log("swap");
    let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);

    // Epoch 1 = {he, she}. "ushers": she@1(len 3), he@2(len 2) — and NOT
    // hers@2, which is only committed later (no matches from a dictionary
    // that was never committed for this chunk).
    write_frame(&mut w, TAG_CHUNK, b"ushers").unwrap();
    let mut pre = Vec::new();
    while pre.len() < 2 {
        match read_frame(&mut r).expect("read").expect("open") {
            (TAG_MATCH, p) => pre.push(decode_match(&p).unwrap()),
            (TAG_EPOCH, _) => panic!("epoch marker before any commit"),
            _ => {}
        }
    }
    let mut pre_keys: Vec<(u64, u32)> = pre.iter().map(|m| (m.start, m.len)).collect();
    pre_keys.sort_unstable();
    assert_eq!(pre_keys, vec![(1, 3), (2, 2)], "epoch-1 oracle on chunk 1");

    // Admin frames ride the same connection as the stream.
    write_frame(&mut w, TAG_DICT_ADD, b"hers").unwrap();
    let frames = read_until(&mut r, TAG_DICT_OK);
    assert!(
        frames.iter().all(|(t, _)| *t != TAG_EPOCH),
        "staging alone must not swap epochs"
    );
    write_frame(&mut w, TAG_DICT_COMMIT, &[]).unwrap();
    let frames = read_until(&mut r, TAG_DICT_OK);
    let (_, ok) = frames.last().unwrap();
    assert_eq!(
        u64::from_le_bytes(ok.clone().try_into().unwrap()),
        2,
        "commit publishes epoch 2"
    );

    // Epoch 2 = {he, she, hers}. Chunk 2 "xhersx" (abs offsets 6..12):
    // he@7(len 2), hers@7(len 4). The epoch marker must precede them.
    write_frame(&mut w, TAG_CHUNK, b"xhersx").unwrap();
    write_frame(&mut w, TAG_CLOSE, &[]).unwrap();
    let frames = read_until(&mut r, TAG_SUMMARY);
    let epoch_at = frames
        .iter()
        .position(|(t, _)| *t == TAG_EPOCH)
        .expect("epoch marker delivered before the swapped chunk's matches");
    let change = decode_epoch(&frames[epoch_at].1).unwrap();
    assert_eq!(change.epoch, 2);
    assert_eq!(change.max_pattern_len, 4, "m follows the epoch");
    let mut post_keys: Vec<(u64, u32)> = frames[epoch_at..]
        .iter()
        .filter(|(t, _)| *t == TAG_MATCH)
        .map(|(_, p)| decode_match(p).unwrap())
        .map(|m| (m.start, m.len))
        .collect();
    post_keys.sort_unstable();
    assert_eq!(post_keys, vec![(7, 2), (7, 4)], "epoch-2 oracle on chunk 2");
    assert!(
        frames[..epoch_at].iter().all(|(t, _)| *t != TAG_MATCH),
        "no chunk-2 matches before the epoch marker"
    );
    let (tag, p) = frames.last().unwrap();
    assert_eq!(*tag, TAG_SUMMARY, "session closed cleanly, not dropped");
    let summary = decode_summary(p).unwrap();
    assert_eq!(summary.consumed, 12);

    let g = server.metrics();
    assert_eq!(g.epoch_swaps, 1);
    assert_eq!(g.epoch_adoptions, 1);
    assert_eq!(g.sessions_failed, 0);
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// The reconnecting client tracks `TAG_EPOCH`: its carry/replay math
/// follows the new `max_pattern_len` and it reports the epoch change.
#[test]
fn retrying_client_follows_epoch_changes() {
    let _disk = disk();
    let log = temp_log("client");
    let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
    let mut client = RetryingClient::connect(
        server.local_addr(),
        RetryConfig {
            ack_every: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut matches = client.send(b"ushers").unwrap();
    wait_for(&server, "chunk 1 processed", |g| g.chunks >= 1);

    // Commit {hers} from a second, admin-only connection.
    let admin = connect(&server);
    let mut aw = admin.try_clone().unwrap();
    let mut ar = BufReader::new(admin);
    write_frame(&mut aw, TAG_DICT_ADD, b"hers").unwrap();
    read_until(&mut ar, TAG_DICT_OK);
    write_frame(&mut aw, TAG_DICT_COMMIT, &[]).unwrap();
    read_until(&mut ar, TAG_DICT_OK);
    write_frame(&mut aw, TAG_DICT_INFO, &[]).unwrap();
    let frames = read_until(&mut ar, TAG_DICT_INFO_RESP);
    let info = decode_dict_info(&frames.last().unwrap().1).unwrap();
    assert_eq!((info.epoch, info.patterns, info.staged), (2, 3, 0));
    drop(aw);
    drop(ar);

    matches.extend(client.send(b"xhersx").unwrap());
    let (rest, summary) = client.finish().unwrap();
    matches.extend(rest);
    let mut keys: Vec<(u64, u32)> = matches.iter().map(|m| (m.start, m.len)).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        vec![(1, 3), (2, 2), (7, 2), (7, 4)],
        "each chunk matched against its own epoch"
    );
    assert_eq!(summary.consumed, 12);
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// Kill−restart: a new server on the same `--dict-log` recovers the exact
/// committed dictionary (including live updates made over the wire), and
/// the log survives a compaction round trip.
#[test]
fn kill_restart_recovers_committed_dictionary() {
    let _disk = disk();
    let log = temp_log("restart");
    {
        let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
        let sock = connect(&server);
        let mut w = sock.try_clone().unwrap();
        let mut r = BufReader::new(sock);
        write_frame(&mut w, TAG_DICT_ADD, b"hers").unwrap();
        read_until(&mut r, TAG_DICT_OK);
        write_frame(&mut w, TAG_DICT_COMMIT, &[]).unwrap();
        read_until(&mut r, TAG_DICT_OK);
        // "Kill": no drain niceties for the log — shutdown now.
        server.shutdown();
    }

    // Replay recovers epoch 2 = {he, she, hers}; compaction preserves it.
    let mut store = DictStore::open(&log).unwrap();
    assert_eq!((store.epoch(), store.pattern_count()), (2, 3));
    store.compact(&Ctx::seq()).unwrap();
    drop(store);
    let store = DictStore::open(&log).unwrap();
    assert_eq!((store.epoch(), store.pattern_count()), (2, 3));
    let mut live = store.live_patterns();
    live.sort();
    let mut want = vec![to_symbols("he"), to_symbols("she"), to_symbols("hers")];
    want.sort();
    assert_eq!(live, want);

    // And the restarted server serves exactly that dictionary — cold-loaded
    // straight from the fresh `.snap` sidecar compaction just wrote, with
    // no parallel rebuild at boot.
    let server = Server::bind_versioned(("127.0.0.1", 0), store, cfg()).unwrap();
    let admin = server.dict_admin().expect("versioned server has an admin");
    assert!(
        admin.booted_cold(),
        "expected cold boot, got fallback {:?}",
        admin.boot_fallback()
    );
    assert_eq!(admin.handle().load().path(), SnapshotPath::ColdLoaded);
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    write_frame(&mut w, TAG_CHUNK, b"ushers").unwrap();
    write_frame(&mut w, TAG_CLOSE, &[]).unwrap();
    let frames = read_until(&mut r, TAG_SUMMARY);
    let mut keys: Vec<(u64, u32)> = frames
        .iter()
        .filter(|(t, _)| *t == TAG_MATCH)
        .map(|(_, p)| decode_match(p).unwrap())
        .map(|m| (m.start, m.len))
        .collect();
    keys.sort_unstable();
    assert_eq!(keys, vec![(1, 3), (2, 2), (2, 4)], "she, he, hers");
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// A static (`Server::bind`) server politely rejects admin frames and the
/// session keeps working.
#[test]
fn static_server_rejects_dict_frames() {
    let ctx = Ctx::seq();
    let dict =
        Arc::new(StaticMatcher::build(&ctx, &[to_symbols("he"), to_symbols("she")]).unwrap());
    let server = Server::bind(("127.0.0.1", 0), dict, cfg()).unwrap();
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    write_frame(&mut w, TAG_DICT_ADD, b"hers").unwrap();
    let frames = read_until(&mut r, TAG_DICT_ERR);
    let msg = String::from_utf8_lossy(&frames.last().unwrap().1).into_owned();
    assert!(msg.contains("static"), "{msg}");
    // The stream itself still works after the rejected admin op.
    write_frame(&mut w, TAG_CHUNK, b"ushers").unwrap();
    write_frame(&mut w, TAG_CLOSE, &[]).unwrap();
    let frames = read_until(&mut r, TAG_SUMMARY);
    assert_eq!(
        frames.iter().filter(|(t, _)| *t == TAG_MATCH).count(),
        2,
        "he + she still match"
    );
    server.shutdown();
}

/// Sixteen stage frames written at once are one batch, answered with
/// sixteen replies in frame order: the two invalid ops (a duplicate add
/// and a remove of a pattern never added) get `DICT_ERR` in their own
/// positions, and a remove then re-add of a committed pattern inside the
/// batch is validated as sequential staging would.
#[test]
fn sixteen_stage_frames_get_sixteen_replies_in_frame_order() {
    let _disk = disk();
    let log = temp_log("batch-order");
    let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    let names: Vec<String> = (0..16).map(|i| format!("a{i}")).collect();
    let ops: Vec<(bool, &str)> = (0..16)
        .map(|i| match i {
            5 => (true, "a2"),       // duplicate of op 2
            9 => (false, "nothere"), // never added
            14 => (false, "he"),     // committed in epoch 1
            15 => (true, "he"),      // re-added after op 14
            _ => (true, names[i].as_str()),
        })
        .collect();
    w.write_all(&stage_frames(&ops)).unwrap();
    let tags: Vec<u8> = read_n(&mut r, 16).into_iter().map(|(t, _)| t).collect();
    let want: Vec<u8> = (0..16)
        .map(|i| {
            if i == 5 || i == 9 {
                TAG_DICT_ERR
            } else {
                TAG_DICT_OK
            }
        })
        .collect();
    assert_eq!(tags, want);
    assert_eq!(info(&mut w, &mut r), (1, 2, 14));
    write_frame(&mut w, TAG_DICT_COMMIT, &[]).unwrap();
    read_until(&mut r, TAG_DICT_OK);
    assert_eq!(info(&mut w, &mut r), (2, 14, 0));
    drop((w, r));
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// A duplicate add inside a batch is refused alone: the ops around it
/// stage.
#[test]
fn a_duplicate_add_inside_a_batch_is_refused_alone() {
    let _disk = disk();
    let log = temp_log("batch-dup");
    let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
    let sock = connect(&server);
    let mut w = sock.try_clone().unwrap();
    let mut r = BufReader::new(sock);
    w.write_all(&stage_frames(&[(true, "x"), (true, "x"), (true, "y")]))
        .unwrap();
    let frames = read_n(&mut r, 3);
    let tags: Vec<u8> = frames.iter().map(|(t, _)| *t).collect();
    assert_eq!(tags, [TAG_DICT_OK, TAG_DICT_ERR, TAG_DICT_OK]);
    let msg = String::from_utf8_lossy(&frames[1].1).into_owned();
    assert!(msg.contains("already present"), "{msg}");
    assert_eq!(info(&mut w, &mut r), (1, 2, 2));
    drop((w, r));
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// An admin connection that stays open pins no epoch: it opens no session
/// for its `DICT_*` frames, so once the streaming session adopts the
/// committed epoch, nothing holds the boot epoch any more.
#[test]
fn an_open_admin_connection_pins_no_epoch() {
    let _disk = disk();
    let log = temp_log("pin");
    let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
    let boot = Arc::downgrade(&server.dict_admin().unwrap().handle().load());
    let stream = connect(&server);
    let mut sw = stream.try_clone().unwrap();
    let mut sr = BufReader::new(stream);
    write_frame(&mut sw, TAG_CHUNK, b"ushers").unwrap();
    let pre = read_n(&mut sr, 2);
    assert!(pre.iter().all(|(t, _)| *t == TAG_MATCH), "she, he");

    let admin = connect(&server);
    let mut aw = admin.try_clone().unwrap();
    let mut ar = BufReader::new(admin);
    write_frame(&mut aw, TAG_DICT_ADD, b"hers").unwrap();
    read_until(&mut ar, TAG_DICT_OK);
    write_frame(&mut aw, TAG_DICT_COMMIT, &[]).unwrap();
    read_until(&mut ar, TAG_DICT_OK);
    assert_eq!(info(&mut aw, &mut ar), (2, 3, 0));

    // The worker swaps the new epoch in before it sends the marker.
    write_frame(&mut sw, TAG_CHUNK, b"xhersx").unwrap();
    read_until(&mut sr, TAG_EPOCH);
    assert!(
        boot.upgrade().is_none(),
        "the open admin connection still pins the boot epoch"
    );
    write_frame(&mut sw, TAG_CLOSE, &[]).unwrap();
    read_until(&mut sr, TAG_SUMMARY);
    drop((aw, ar));
    server.shutdown();
    std::fs::remove_dir_all(log.parent().unwrap()).ok();
}

/// Log syncs counted by the disk-fault plane: a staged batch costs one, a
/// failed one answers every op with `DICT_ERR`, stages none and poisons
/// the store, and offline staging (`pdm dict add --log`, one op per call)
/// still syncs once per op.
#[cfg(feature = "fault-injection")]
mod log_syncs {
    use super::*;
    use pdm_primitives::vfs::faults::{self, DiskFaultPlan};

    #[test]
    fn a_staged_batch_costs_one_log_sync() {
        let _disk = disk();
        let log = temp_log("batch-sync");
        let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
        let sock = connect(&server);
        let mut w = sock.try_clone().unwrap();
        let mut r = BufReader::new(sock);
        let names: Vec<String> = (0..16).map(|i| format!("b{i}")).collect();
        let ops: Vec<(bool, &str)> = names.iter().map(|n| (true, n.as_str())).collect();
        faults::install(DiskFaultPlan::default()); // count only
        w.write_all(&stage_frames(&ops)).unwrap();
        let frames = read_n(&mut r, 16);
        let syncs = faults::counts().syncs;
        write_frame(&mut w, TAG_DICT_COMMIT, &[]).unwrap();
        read_until(&mut r, TAG_DICT_OK);
        let after_commit = faults::counts().syncs;
        faults::clear();
        assert!(frames.iter().all(|(t, _)| *t == TAG_DICT_OK));
        assert_eq!(syncs, 1, "sixteen stage frames, one log sync");
        assert_eq!(after_commit, 2, "a 16-op commit costs two syncs");
        drop((w, r));
        server.shutdown();
        std::fs::remove_dir_all(log.parent().unwrap()).ok();
    }

    #[test]
    fn a_failed_batch_sync_answers_every_op_with_dict_err_and_stages_none() {
        let _disk = disk();
        let log = temp_log("batch-fail");
        let server = Server::bind_versioned(("127.0.0.1", 0), seeded_store(&log), cfg()).unwrap();
        let sock = connect(&server);
        let mut w = sock.try_clone().unwrap();
        let mut r = BufReader::new(sock);
        let names: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
        let ops: Vec<(bool, &str)> = names.iter().map(|n| (true, n.as_str())).collect();
        faults::install(DiskFaultPlan {
            fail_sync_every: 1,
            fail_sync_max: 1,
            ..Default::default()
        });
        w.write_all(&stage_frames(&ops)).unwrap();
        let frames = read_n(&mut r, 16);
        let injected = faults::counts().injected;
        faults::clear();
        assert_eq!(injected, 1, "the batch's one sync failed");
        assert!(
            frames.iter().all(|(t, _)| *t == TAG_DICT_ERR),
            "no DICT_OK before its record is synced"
        );
        // Nothing staged, epoch unchanged; the poisoned store refuses
        // stages and commits until it is reopened.
        assert_eq!(info(&mut w, &mut r), (1, 2, 0));
        write_frame(&mut w, TAG_DICT_ADD, b"later").unwrap();
        let (tag, msg) = read_until(&mut r, TAG_DICT_ERR).pop().unwrap();
        assert_eq!(tag, TAG_DICT_ERR);
        assert!(String::from_utf8_lossy(&msg).contains("until reopened"));
        write_frame(&mut w, TAG_DICT_COMMIT, &[]).unwrap();
        read_until(&mut r, TAG_DICT_ERR);
        drop((w, r));
        server.shutdown();
        // Reopening replays what the log holds and takes updates again.
        let mut store = DictStore::open(&log).unwrap();
        assert_eq!((store.epoch(), store.pattern_count()), (1, 2));
        store.stage_add(&to_symbols("later")).unwrap();
        std::fs::remove_dir_all(log.parent().unwrap()).ok();
    }

    #[test]
    fn offline_staging_syncs_once_per_op() {
        let _disk = disk();
        let log = temp_log("offline-sync");
        let mut store = DictStore::open(&log).unwrap();
        faults::install(DiskFaultPlan::default());
        for p in ["he", "she", "hers"] {
            store.stage_add(&to_symbols(p)).unwrap();
        }
        let staged = faults::counts().syncs;
        store.commit(&Ctx::seq()).unwrap();
        let committed = faults::counts().syncs;
        faults::clear();
        assert_eq!((staged, committed), (3, 4));
        std::fs::remove_dir_all(log.parent().unwrap()).ok();
    }
}
