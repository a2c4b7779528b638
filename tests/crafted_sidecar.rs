//! CRC-valid `.snap` sidecars whose frozen tables are malformed: a symbol
//! table with no empty slot (a lookup miss would probe forever), a key
//! moved off its probe path (lookups could never find it), and an
//! attribution map naming a pattern that does not exist. `pdm snap
//! inspect` rejects each (exit 2), `pdm fsck` flags it (exit 1), and `pdm
//! serve` boots by rebuilding (reporting why) and then serves matches. A
//! `pdm build` index is the same sidecar, so `pdm match --index` and `pdm
//! stats --index` refuse a crafted one — and a file in the retired `PDM1`
//! index format — with a typed error (exit 2), never a panic. Every `pdm`
//! process runs under a deadline, so a loader that hangs fails the test
//! instead of stalling it.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pdm::stream::proto::{
    decode_match, read_frame, write_frame, TAG_CHUNK, TAG_CLOSE, TAG_MATCH, TAG_SUMMARY,
};
use pdm_core::dict::to_symbols;
use pdm_dict::snapshot::{SEC_TABLES, SNAP_MAGIC, SNAP_VERSION};
use pdm_dict::store::snap_path;
use pdm_dict::DictStore;
use pdm_pram::Ctx;
use pdm_primitives::codec::{SectionReader, SectionWriter, HEADER_LEN};
use pdm_primitives::hash::mix64;

const DEADLINE: Duration = Duration::from_secs(60);
const EMPTY_KEY: u64 = u64::MAX;

fn pdm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdm"))
}

/// Run to completion, killing the process and failing at the deadline.
fn run(cmd: &mut Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdm");
    let start = Instant::now();
    while child.try_wait().expect("wait").is_none() {
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            panic!("pdm {cmd:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// A compacted store (log + v2 sidecar) in a fresh directory.
fn compacted_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdm-crafted-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("dict.pdml");
    let ctx = Ctx::seq();
    let mut store = DictStore::open(&log).unwrap();
    for p in ["he", "she", "his", "hers"] {
        store.stage_add(&to_symbols(p)).unwrap();
    }
    store.commit(&ctx).unwrap();
    store.compact(&ctx).unwrap();
    log
}

/// Byte offsets of the `PDMT` tables section: the frozen tables in file
/// order, as `(offset of the entry count, slot count)`, then the offset
/// of the `longest` attribution map's slot count.
fn table_layout(t: &[u8]) -> (Vec<(usize, usize)>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(t[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(t[at..at + 8].try_into().unwrap()) as usize;
    let levels = u32_at(HEADER_LEN);
    // levels, max_len, total_len, n_patterns, names_allocated, fold_len.
    let mut at = HEADER_LEN + 4 + 4 + 8 + 4 + 4 + 8;
    let mut tables = Vec::new();
    for _ in 0..1 + levels + (levels + 1) {
        let slots = u64_at(at + 8);
        tables.push((at, slots));
        at += 16 + slots * 12;
    }
    (tables, at)
}

/// Rewrite the tables section of the sidecar at `path` with `edit`,
/// re-sealing the file (its whole-file CRC stays valid).
fn craft(path: &Path, edit: fn(&mut [u8])) {
    let bytes = std::fs::read(path).unwrap();
    let r = SectionReader::open(&bytes, SNAP_MAGIC).unwrap();
    let mut w = SectionWriter::new();
    for (id, _) in r.sections() {
        let mut sec = r.section(id).unwrap().to_vec();
        if id == SEC_TABLES {
            edit(&mut sec);
        }
        w.section(id, sec);
    }
    std::fs::write(path, w.finish(SNAP_MAGIC, SNAP_VERSION)).unwrap();
}

fn key_at(t: &[u8], table_at: usize, slot: usize) -> u64 {
    let at = table_at + 16 + 8 * slot;
    u64::from_le_bytes(t[at..at + 8].try_into().unwrap())
}

fn set_key(t: &mut [u8], table_at: usize, slot: usize, key: u64) {
    let at = table_at + 16 + 8 * slot;
    t[at..at + 8].copy_from_slice(&key.to_le_bytes());
}

/// Fill every empty slot of the symbol table and raise its entry count.
fn no_empty_slot(t: &mut [u8]) {
    let (tables, _) = table_layout(t);
    let (sym, slots) = tables[0];
    for slot in 0..slots {
        if key_at(t, sym, slot) == EMPTY_KEY {
            set_key(t, sym, slot, (0xFFFF_0000 + slot as u64) << 32);
        }
    }
    t[sym..sym + 8].copy_from_slice(&(slots as u64).to_le_bytes());
}

/// Move an isolated key of the symbol table one slot before its home.
fn key_off_its_path(t: &mut [u8]) {
    let (tables, _) = table_layout(t);
    let (sym, slots) = tables[0];
    let mask = slots - 1;
    let empty = |t: &[u8], s: usize| key_at(t, sym, s & mask) == EMPTY_KEY;
    let slot = (0..slots)
        .find(|&s| {
            !empty(t, s)
                && mix64(key_at(t, sym, s)) as usize & mask == s
                && empty(t, s.wrapping_sub(1))
                && empty(t, s + 1)
        })
        .expect("an isolated key at its home slot");
    let to = slot.wrapping_sub(1) & mask;
    let key = key_at(t, sym, slot);
    set_key(t, sym, slot, EMPTY_KEY);
    set_key(t, sym, to, key);
}

/// Point one `longest` entry at a pattern id past the pattern count.
fn pattern_out_of_range(t: &mut [u8]) {
    let (_, longest) = table_layout(t);
    let count = u64::from_le_bytes(t[longest..longest + 8].try_into().unwrap()) as usize;
    let slot = (0..count)
        .map(|i| longest + 8 + 8 * i)
        .find(|&at| t[at..at + 8] != EMPTY_KEY.to_le_bytes())
        .expect("a non-empty longest entry");
    t[slot..slot + 4].copy_from_slice(&999u32.to_le_bytes());
}

/// Boot `pdm serve` on the store, read its boot report, then stream a
/// chunk and return the report and the `(start, len)` of every match.
fn serve_and_match(log: &Path, text: &[u8]) -> (String, Vec<(u64, u32)>) {
    let mut child: Child = pdm()
        .args(["serve", "--dict-log"])
        .arg(log)
        .args(["--port", "0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pdm serve");
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut boot = String::new();
    let addr = loop {
        let Ok(line) = rx.recv_timeout(DEADLINE) else {
            child.kill().ok();
            panic!("pdm serve printed no banner within {DEADLINE:?} (boot: {boot:?})");
        };
        if line.starts_with("dictionary boot:") {
            boot = line;
        } else if let Some(rest) = line.strip_prefix("serving ") {
            let port = rest
                .split_whitespace()
                .find_map(|w| w.rsplit_once(':').and_then(|(_, p)| p.parse::<u16>().ok()))
                .expect("banner names the address");
            break format!("127.0.0.1:{port}");
        }
    };
    let sock = TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut w = BufWriter::new(sock.try_clone().unwrap());
    write_frame(&mut w, TAG_CHUNK, text).unwrap();
    write_frame(&mut w, TAG_CLOSE, b"").unwrap();
    w.flush().unwrap();
    let mut r = BufReader::new(sock);
    let mut matches = Vec::new();
    loop {
        match read_frame(&mut r).expect("read frame (no hang)") {
            Some((TAG_MATCH, p)) => {
                let m = decode_match(&p).unwrap();
                matches.push((m.start, m.len));
            }
            Some((TAG_SUMMARY, _)) | None => break,
            Some(_) => {}
        }
    }
    child.kill().ok();
    child.wait().ok();
    matches.sort_unstable();
    (boot, matches)
}

#[test]
fn malformed_frozen_tables_are_refused_everywhere() {
    type Edit = fn(&mut [u8]);
    let cases: [(&str, Edit, &str); 3] = [
        ("full", no_empty_slot, "no empty slot"),
        ("offpath", key_off_its_path, "unreachable"),
        ("badpid", pattern_out_of_range, "names pattern 999"),
    ];
    for (tag, edit, why) in cases {
        let log = compacted_store(tag);
        craft(&snap_path(&log), edit);

        let out = run(pdm()
            .args(["snap", "inspect", "--file"])
            .arg(snap_path(&log)));
        let s = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{tag}: {s}");
        assert!(s.contains(why), "{tag}: {s}");

        let out = run(pdm().args(["fsck", "--log"]).arg(&log));
        let s = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{tag}: {s}");
        assert!(s.contains("sidecar unreadable"), "{tag}: {s}");

        let (boot, matches) = serve_and_match(&log, b"ushers");
        assert!(boot.contains("rebuilt ("), "{tag}: {boot}");
        assert!(boot.contains(why), "{tag}: {boot}");
        // she@1, he@2, hers@2 — the rebuilt epoch serves every pattern.
        assert_eq!(matches, vec![(1, 3), (2, 2), (2, 4)], "{tag}");

        std::fs::remove_dir_all(log.parent().unwrap()).ok();
    }
}

#[test]
fn crafted_and_retired_indexes_are_refused() {
    let dir = std::env::temp_dir().join(format!("pdm-crafted-index-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dict = dir.join("dict.txt");
    let text = dir.join("text.bin");
    std::fs::write(&dict, "he\nshe\nhers\n").unwrap();
    std::fs::write(&text, "ushers").unwrap();

    let badpid = dir.join("badpid.pdm");
    let out = run(pdm()
        .args(["build", "--dict"])
        .arg(&dict)
        .arg("--out")
        .arg(&badpid));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    craft(&badpid, pattern_out_of_range);
    // The retired entry-list format: its magic, version 1, then a body.
    let pdm1 = dir.join("old.pdm");
    let mut old = b"PDM1".to_vec();
    old.extend_from_slice(&1u32.to_le_bytes());
    old.extend_from_slice(&[0u8; 64]);
    std::fs::write(&pdm1, &old).unwrap();

    for (index, why) in [(&badpid, "names pattern 999"), (&pdm1, "magic")] {
        for args in [
            &["match", "--all", "--text"][..],
            &["match", "--text"][..],
            &["stats"][..],
        ] {
            let mut cmd = pdm();
            cmd.args(args);
            if args.len() > 1 {
                cmd.arg(&text);
            }
            let out = run(cmd.arg("--index").arg(index));
            let s = String::from_utf8_lossy(&out.stdout);
            let e = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} {index:?}: {s}{e}");
            assert!(s.starts_with("error: "), "{args:?} {index:?}: {s}");
            assert!(s.contains(why), "{args:?} {index:?}: {s}");
            assert!(!e.contains("panicked"), "{args:?} {index:?}: {e}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
