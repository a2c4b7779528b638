//! `pdm fsck` — deep validation and repair for the store's on-disk state.
//!
//! Validation goes strictly deeper than the boot path: the log header and
//! every record CRC are checked, the record stream is *simulated* through
//! the same structural-replay rules [`crate::DictStore::open`] applies
//! (so "valid CRCs, inconsistent ops" is caught here, not at boot), the
//! `.snap` sidecar is loaded and compared against the simulated state, and
//! stray temp files from interrupted atomic writes are flagged.
//!
//! Repair (`--repair`) is deliberately conservative — it only performs
//! actions the boot path itself would perform or that cannot lose
//! committed data:
//!
//! * truncate a torn/corrupt log tail back to the last good record;
//! * rewrite the header of a log torn during creation (< 8 bytes);
//! * quarantine a corrupt or unloadable sidecar (rename to `*.corrupt`)
//!   so boot falls back to a rebuild instead of re-reading bad bytes;
//! * sweep `*.tmp` leftovers from interrupted atomic replacements.
//!
//! A log that replays to *inconsistent* operations (CRC-valid records
//! whose adds/removes contradict each other) is reported as unbootable
//! and left untouched: that is tampering or a writer bug, and truncation
//! could silently discard committed patterns.

use crate::log::{self, replay_bytes, Record, TailFault};
use crate::store::{boot_from_sidecar, snap_path, BootFallback};
use pdm_core::Sym;
use pdm_primitives::{vfs, FxHashMap};
use std::path::{Path, PathBuf};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected operational state worth reporting (e.g. a stale sidecar
    /// that boot will fall back past). Never fails an fsck.
    Info,
    /// Damage with a safe, standard repair (torn tail, stray temp file).
    Warn,
    /// Data at risk: corrupt sidecar, unbootable log.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One observation about the on-disk state.
#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    /// Which file the finding concerns.
    pub file: PathBuf,
    /// What was found.
    pub detail: String,
    /// The applicable repair, if one exists.
    pub repair: Option<String>,
    /// Did this run execute that repair (`repair: true` mode only)?
    pub repaired: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}: {}",
            self.severity,
            self.file.display(),
            self.detail
        )?;
        match (&self.repair, self.repaired) {
            (Some(r), true) => write!(f, " [repaired: {r}]"),
            (Some(r), false) => write!(f, " [repairable: {r}]"),
            (None, _) => Ok(()),
        }
    }
}

/// The outcome of checking one store (or index sidecar).
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Everything observed, in check order.
    pub findings: Vec<Finding>,
    /// Would [`crate::DictStore::open`] succeed right now (i.e. after any
    /// repairs this run performed)?
    pub bootable: bool,
    /// Which first-snapshot path `boot_snapshot` would take — cold-load,
    /// or a rebuild and why.
    pub boot_path: String,
}

impl FsckReport {
    /// No findings at all: the store is pristine.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings at `Warn` or above that were not repaired — what a
    /// non-zero fsck exit reports.
    pub fn unrepaired(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity >= Severity::Warn && !f.repaired)
            .count()
    }
}

fn finding(severity: Severity, file: &Path, detail: impl Into<String>) -> Finding {
    Finding {
        severity,
        file: file.to_path_buf(),
        detail: detail.into(),
        repair: None,
        repaired: false,
    }
}

/// Structural-replay simulation: the state `DictStore::open` would build,
/// computed without matchers. Mirrors `store.rs` exactly — committed ops
/// before the last commit record, staged ops validated against the
/// post-commit view.
struct Sim {
    /// Live committed patterns in canonical (first-commit) order.
    live: Vec<Vec<Sym>>,
    epoch: u64,
    staged: usize,
}

fn simulate(records: &[Record]) -> Result<Sim, String> {
    let last_commit = records.iter().rposition(|r| matches!(r, Record::Commit(_)));
    let mut slots: Vec<Option<Vec<Sym>>> = Vec::new();
    let mut index: FxHashMap<Vec<Sym>, usize> = FxHashMap::default();
    let mut staged_view: FxHashMap<Vec<Sym>, bool> = FxHashMap::default();
    let mut epoch = 0u64;
    let mut staged = 0usize;
    let would_be_live =
        |index: &FxHashMap<Vec<Sym>, usize>, staged_view: &FxHashMap<Vec<Sym>, bool>, p: &[Sym]| {
            staged_view
                .get(p)
                .copied()
                .unwrap_or_else(|| index.contains_key(p))
        };
    for (i, rec) in records.iter().enumerate() {
        let committed = last_commit.is_some_and(|c| i <= c);
        match rec {
            Record::Commit(e) => epoch = *e,
            Record::Add(p) if committed => {
                if p.is_empty() {
                    return Err(format!("record {i}: committed add of empty pattern"));
                }
                if index.contains_key(p) {
                    return Err(format!("record {i}: committed add of already-live pattern"));
                }
                index.insert(p.clone(), slots.len());
                slots.push(Some(p.clone()));
            }
            Record::Remove(p) if committed => {
                let Some(slot) = index.remove(p) else {
                    return Err(format!("record {i}: committed remove of absent pattern"));
                };
                slots[slot] = None;
            }
            Record::Add(p) => {
                if would_be_live(&index, &staged_view, p) {
                    return Err(format!("record {i}: staged add of already-live pattern"));
                }
                staged_view.insert(p.clone(), true);
                staged += 1;
            }
            Record::Remove(p) => {
                if !would_be_live(&index, &staged_view, p) {
                    return Err(format!("record {i}: staged remove of absent pattern"));
                }
                staged_view.insert(p.clone(), false);
                staged += 1;
            }
        }
    }
    Ok(Sim {
        live: slots.into_iter().flatten().collect(),
        epoch,
        staged,
    })
}

/// Truncate `path` back to `good_len` bytes, durably.
fn truncate_log(path: &Path, good_len: u64) -> std::io::Result<()> {
    let mut f = vfs::VfsFile::open_rw(path)?;
    f.set_len(good_len)?;
    f.sync_data()
}

/// Quarantine a damaged sidecar: rename it to `<file>.corrupt` so boot
/// stops re-reading bad bytes (and an operator can inspect it later).
fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let mut os = path.as_os_str().to_owned();
    os.push(".corrupt");
    let dest = PathBuf::from(os);
    vfs::rename(path, &dest)?;
    vfs::sync_parent_dir(path)?;
    Ok(dest)
}

/// Temp-file leftovers an interrupted atomic replacement can strand next
/// to the log: the vfs `.tmp` siblings of the log and sidecar, plus the
/// compaction scratch log.
fn stray_tmp_candidates(log_path: &Path) -> Vec<PathBuf> {
    vec![
        vfs::tmp_path(log_path),
        vfs::tmp_path(&snap_path(log_path)),
        log_path.with_extension("log.tmp"),
    ]
}

/// Deep-check (and optionally repair) the dictionary store rooted at the
/// log file `path`. See the module docs for exactly what is validated
/// and which repairs are performed.
pub fn fsck_store(path: &Path, repair: bool) -> std::io::Result<FsckReport> {
    let mut findings = Vec::new();
    let mut bootable = true;
    let mut sim: Option<Sim> = None;

    // ---- the log itself ---------------------------------------------------
    if !path.exists() {
        findings.push(finding(
            Severity::Info,
            path,
            "log does not exist; open would create a fresh empty store",
        ));
        sim = Some(Sim {
            live: Vec::new(),
            epoch: 0,
            staged: 0,
        });
    } else {
        let bytes = vfs::read(path)?;
        if bytes.len() < 8 {
            let mut f = finding(
                Severity::Warn,
                path,
                format!(
                    "log is {} bytes — shorter than the 8-byte header (crash tore the \
                     initial create; no records can be lost)",
                    bytes.len()
                ),
            );
            f.repair = Some("rewrite the empty-log header".into());
            if repair {
                log::LogFile::create(path).map_err(std::io::Error::other)?;
                f.repaired = true;
            }
            findings.push(f);
            sim = Some(Sim {
                live: Vec::new(),
                epoch: 0,
                staged: 0,
            });
        } else {
            match replay_bytes(&bytes) {
                Err(e) => {
                    findings.push(finding(
                        Severity::Error,
                        path,
                        format!(
                            "log header rejected ({e}); not repairable without operator review"
                        ),
                    ));
                    bootable = false;
                }
                Ok(replay) => {
                    if let Some(rec) = &replay.recovery {
                        let sev = match rec.fault {
                            TailFault::Torn | TailFault::TornHeader => Severity::Warn,
                            // CRC-valid framing is over; this is bit rot,
                            // but truncation is still the boot behavior.
                            TailFault::Corrupt(_) => Severity::Error,
                        };
                        let mut f = finding(sev, path, format!("{rec}"));
                        f.repair = Some(format!(
                            "truncate log to last good byte ({})",
                            replay.good_len
                        ));
                        if repair {
                            truncate_log(path, replay.good_len)?;
                            f.repaired = true;
                        }
                        findings.push(f);
                    }
                    match simulate(&replay.records) {
                        Ok(s) => sim = Some(s),
                        Err(why) => {
                            findings.push(finding(
                                Severity::Error,
                                path,
                                format!(
                                    "log replays to inconsistent state ({why}); store will not \
                                     boot — not repairable without operator review"
                                ),
                            ));
                            bootable = false;
                        }
                    }
                }
            }
        }
    }

    // ---- the .snap sidecar ------------------------------------------------
    let snap = snap_path(path);
    let mut boot_path = String::from("unbootable");
    if let Some(sim) = &sim {
        boot_path = check_sidecar(&snap, sim, repair, &mut findings)?;
        if sim.staged > 0 {
            findings.push(finding(
                Severity::Info,
                path,
                format!(
                    "{} staged (uncommitted) ops will be re-staged at boot",
                    sim.staged
                ),
            ));
        }
    }

    // ---- stray temp files -------------------------------------------------
    for tmp in stray_tmp_candidates(path) {
        if tmp.exists() {
            let mut f = finding(
                Severity::Warn,
                &tmp,
                "stray temp file from an interrupted atomic write",
            );
            f.repair = Some("remove".into());
            if repair {
                vfs::remove_file(&tmp)?;
                f.repaired = true;
            }
            findings.push(f);
        }
    }

    Ok(FsckReport {
        findings,
        bootable,
        boot_path,
    })
}

/// Validate the sidecar against the simulated store state through the
/// boot path's own decision ([`boot_from_sidecar`]). Returns the boot-path
/// description (`boot_snapshot`'s choice, in words).
fn check_sidecar(
    snap: &Path,
    sim: &Sim,
    repair: bool,
    findings: &mut Vec<Finding>,
) -> std::io::Result<String> {
    if !snap.exists() {
        findings.push(finding(
            Severity::Info,
            snap,
            "no snapshot sidecar; boot rebuilds from the log",
        ));
        return Ok("rebuild (no sidecar)".into());
    }
    let bytes = vfs::read(snap)?;
    let fallback = match boot_from_sidecar(&bytes, sim.epoch, &sim.live) {
        Ok(_) => return Ok("cold-load from sidecar".into()),
        Err(why) => why,
    };
    let (severity, detail, boot_path) = match fallback {
        BootFallback::Unreadable(e) => {
            let mut f = finding(
                Severity::Error,
                snap,
                format!("sidecar unreadable ({e}); boot falls back to rebuild"),
            );
            f.repair = Some("quarantine to *.corrupt".into());
            if repair {
                let dest = quarantine(snap)?;
                f.detail
                    .push_str(&format!("; quarantined to {}", dest.display()));
                f.repaired = true;
            }
            findings.push(f);
            return Ok("rebuild (sidecar quarantined or unreadable)".into());
        }
        BootFallback::LegacyVersion(v) => (
            Severity::Info,
            format!(
                "sidecar is format v{v}, which boot does not read; boot rebuilds (compact \
                 to rewrite it as v2)"
            ),
            format!("rebuild (legacy sidecar format v{v})"),
        ),
        BootFallback::StaleEpoch { sidecar, store } => (
            Severity::Info,
            format!(
                "sidecar epoch {sidecar} != log epoch {store}; boot rebuilds (stale sidecar — \
                 compact to refresh)"
            ),
            "rebuild (stale sidecar epoch)".into(),
        ),
        BootFallback::StalePatterns => (
            Severity::Warn,
            "sidecar seals the log's epoch but lists different patterns; boot rebuilds".into(),
            "rebuild (sidecar patterns disagree)".into(),
        ),
        BootFallback::NoSidecar => unreachable!("the sidecar bytes were read"),
    };
    findings.push(finding(severity, snap, detail));
    Ok(boot_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{encode_record, LogFile};
    use crate::store::DictStore;
    use pdm_core::dict::to_symbols;
    use pdm_pram::Ctx;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdm-fsck-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn seeded(dir: &Path) -> PathBuf {
        let path = dir.join("dict.log");
        let ctx = Ctx::seq();
        let mut store = DictStore::open(&path).unwrap();
        store.stage_add(&to_symbols("he")).unwrap();
        store.stage_add(&to_symbols("she")).unwrap();
        store.commit(&ctx).unwrap();
        store.compact(&ctx).unwrap();
        path
    }

    #[test]
    fn clean_store_is_clean_and_cold_loads() {
        let dir = tmp_dir("clean");
        let path = seeded(&dir);
        let report = fsck_store(&path, false).unwrap();
        assert!(report.clean(), "{:?}", report.findings);
        assert!(report.bootable);
        assert_eq!(report.boot_path, "cold-load from sidecar");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_detected_and_repaired() {
        let dir = tmp_dir("torn");
        let path = seeded(&dir);
        // Tear the log: append half a record.
        let rec = encode_record(&Record::Add(to_symbols("xyz")));
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.len() as u64;
        bytes.extend_from_slice(&rec[..rec.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let report = fsck_store(&path, false).unwrap();
        assert_eq!(report.unrepaired(), 1);
        assert!(report.bootable, "torn tail never blocks boot");

        let report = fsck_store(&path, true).unwrap();
        assert_eq!(report.unrepaired(), 0);
        assert!(report.findings.iter().any(|f| f.repaired));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        // Clean after repair.
        assert!(fsck_store(&path, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sidecar_quarantined() {
        let dir = tmp_dir("snapbad");
        let path = seeded(&dir);
        let snap = snap_path(&path);
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        let report = fsck_store(&path, false).unwrap();
        assert_eq!(report.unrepaired(), 1);
        assert!(report.bootable, "bad sidecar only forces a rebuild");

        let report = fsck_store(&path, true).unwrap();
        assert_eq!(report.unrepaired(), 0);
        assert!(!snap.exists(), "sidecar quarantined");
        assert!(snap_quarantine_exists(&snap));
        assert!(fsck_store(&path, false).unwrap().bootable);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn snap_quarantine_exists(snap: &Path) -> bool {
        let mut os = snap.as_os_str().to_owned();
        os.push(".corrupt");
        PathBuf::from(os).exists()
    }

    #[test]
    fn inconsistent_log_is_unbootable_and_untouched() {
        let dir = tmp_dir("inconsistent");
        let path = dir.join("dict.log");
        {
            let mut log = LogFile::create(&path).unwrap();
            log.append(&Record::Add(to_symbols("ab"))).unwrap();
            log.append(&Record::Add(to_symbols("ab"))).unwrap(); // duplicate
            log.append(&Record::Commit(1)).unwrap();
            log.sync().unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let report = fsck_store(&path, true).unwrap();
        assert!(!report.bootable);
        assert_eq!(report.boot_path, "unbootable");
        assert!(report.unrepaired() > 0);
        assert_eq!(std::fs::read(&path).unwrap(), before, "left untouched");
        assert!(DictStore::open(&path).is_err(), "fsck verdict matches open");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_sidecar_is_informational() {
        let dir = tmp_dir("stale");
        let path = seeded(&dir);
        // Advance the log one epoch past the sidecar.
        let ctx = Ctx::seq();
        let mut store = DictStore::open(&path).unwrap();
        store.stage_add(&to_symbols("hers")).unwrap();
        store.commit(&ctx).unwrap();
        drop(store);
        let report = fsck_store(&path, false).unwrap();
        assert_eq!(report.unrepaired(), 0, "stale sidecar is not a failure");
        assert!(report.bootable);
        assert!(report.boot_path.contains("stale"), "{}", report.boot_path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_compacted_store_cold_loads() {
        let dir = tmp_dir("empty");
        let path = dir.join("dict.log");
        let ctx = Ctx::seq();
        let mut store = DictStore::open(&path).unwrap();
        store.stage_add(&to_symbols("he")).unwrap();
        store.commit(&ctx).unwrap();
        store.stage_remove(&to_symbols("he")).unwrap();
        store.commit(&ctx).unwrap();
        store.compact(&ctx).unwrap();
        drop(store);
        let report = fsck_store(&path, false).unwrap();
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.boot_path, "cold-load from sidecar");
        let boot = DictStore::open(&path).unwrap().boot_snapshot(&ctx).unwrap();
        assert_eq!(boot.fallback, None, "boot agrees with fsck");
        assert_eq!(boot.snapshot.epoch(), 2);
        assert_eq!(boot.snapshot.pattern_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_sidecar_is_informational_and_rebuilds() {
        let dir = tmp_dir("legacy");
        let path = seeded(&dir);
        // A version-1 sidecar: header, epoch, pattern list, no checksum.
        let mut v1 = Vec::new();
        pdm_primitives::codec::write_header(&mut v1, crate::snapshot::SNAP_MAGIC, 1);
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&2u32.to_le_bytes());
        for p in ["he", "she"] {
            v1.extend_from_slice(&(p.len() as u32).to_le_bytes());
            for b in p.bytes() {
                v1.extend_from_slice(&u32::from(b).to_le_bytes());
            }
        }
        std::fs::write(snap_path(&path), &v1).unwrap();
        let report = fsck_store(&path, true).unwrap();
        assert_eq!(report.unrepaired(), 0, "{:?}", report.findings);
        assert!(report.findings.iter().all(|f| f.severity == Severity::Info));
        assert_eq!(report.boot_path, "rebuild (legacy sidecar format v1)");
        assert!(
            snap_path(&path).exists(),
            "a legacy sidecar is not quarantined"
        );
        let boot = DictStore::open(&path)
            .unwrap()
            .boot_snapshot(&Ctx::seq())
            .unwrap();
        assert_eq!(boot.fallback, Some(BootFallback::LegacyVersion(1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_swept() {
        let dir = tmp_dir("stray");
        let path = seeded(&dir);
        let tmp = vfs::tmp_path(&snap_path(&path));
        std::fs::write(&tmp, b"half-written").unwrap();
        let report = fsck_store(&path, false).unwrap();
        assert_eq!(report.unrepaired(), 1);
        fsck_store(&path, true).unwrap();
        assert!(!tmp.exists());
        assert!(fsck_store(&path, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
