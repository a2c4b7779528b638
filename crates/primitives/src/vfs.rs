//! Injectable disk I/O plane: every byte the workspace persists goes
//! through here.
//!
//! The on-disk formats (`PDML` logs, `PDMS`/`PDMX` sidecars) are
//! only as durable as the syscalls beneath them, and disks fail in ways
//! unit tests never exercise: a write torn mid-buffer by a crash, an
//! fsync that never ran, a rename that completed but whose directory
//! entry was lost, a read cut short. This module routes all of that
//! through one thin abstraction — [`VfsFile`] plus the free functions
//! [`read`], [`rename`], [`sync_parent_dir`], [`remove_file`] and
//! [`atomic_write`] — so a deterministic fault plan can be injected
//! underneath the real storage code.
//!
//! Fault injection mirrors `pdm_stream::faults`: compiled to inline
//! no-op hooks unless the `fault-injection` cargo feature is on, and
//! counter-scheduled when it is ([`faults::DiskFaultPlan`]). The central
//! fault is the **crash-stop**: every *mutating* operation (create,
//! write, sync, set-len, rename, directory sync, remove) is counted
//! globally, and a plan may declare "the process dies at op N" — op N
//! and everything after it fail with an injected error, optionally
//! applying a prefix of the dying write first (a torn write). Replaying
//! a workload once per op index enumerates every crash point a real
//! power cut could hit, which is exactly what `tests/crash_chaos.rs`
//! does.
//!
//! ## The atomic-write protocol
//!
//! [`atomic_write`] is the one way any sidecar is ever (re)written:
//!
//! 1. write the full payload to `<path>.tmp` in the same directory;
//! 2. `fsync` the temp file (contents durable under a scratch name);
//! 3. `rename` it over `path` (atomic replace: readers see the old
//!    bytes or the new bytes, never a mixture);
//! 4. `fsync` the parent directory (the rename itself durable).
//!
//! A crash anywhere in that sequence leaves either the previous file
//! intact or the new file complete — plus, at worst, a stray `.tmp`
//! that `pdm fsck` knows to sweep.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Suffix of the scratch file [`atomic_write`] stages into; crash
/// recovery (`pdm fsck`) treats `*.tmp` siblings as sweepable debris.
pub const TMP_SUFFIX: &str = ".tmp";

/// An open file whose mutating operations are routed through the fault
/// plane. Wraps `std::fs::File`; with `fault-injection` off every method
/// compiles down to the direct syscall.
#[derive(Debug)]
pub struct VfsFile {
    file: File,
}

impl VfsFile {
    /// Create (truncating) a read-write file.
    pub fn create(path: &Path) -> io::Result<Self> {
        faults::hook_mutating(faults::OpKind::Create)?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .read(true)
            .open(path)?;
        Ok(VfsFile { file })
    }

    /// Open an existing file read-write (no create, no truncate).
    pub fn open_rw(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(VfsFile { file })
    }

    /// Write the whole buffer, honoring injected write faults: a torn
    /// write persists a prefix of `buf` and then fails, exactly like a
    /// crash mid-`write(2)`.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match faults::hook_write(buf.len()) {
            faults::WriteFault::None => self.file.write_all(buf),
            faults::WriteFault::Torn { keep, error } => {
                self.file.write_all(&buf[..keep])?;
                let _ = self.file.sync_data(); // the torn prefix really lands
                Err(error)
            }
            faults::WriteFault::Fail(e) => Err(e),
        }
    }

    /// Flush file contents to stable storage.
    pub fn sync_data(&mut self) -> io::Result<()> {
        faults::hook_mutating(faults::OpKind::Sync)?;
        self.file.sync_data()
    }

    /// Truncate (or extend) to `len` bytes.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        faults::hook_mutating(faults::OpKind::SetLen)?;
        self.file.set_len(len)
    }

    pub fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }

    /// Read everything from the current position (not a mutating op; the
    /// short-read fault can cut the result off early).
    pub fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let n = self.file.read_to_end(out)?;
        if let Some(cap) = faults::hook_read(n) {
            out.truncate(out.len() - (n - cap));
            return Ok(cap);
        }
        Ok(n)
    }
}

/// Read a whole file (the short-read fault can truncate the result —
/// CRC-checked formats must reject it, not serve a prefix).
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    if let Some(cap) = faults::hook_read(bytes.len()) {
        let mut cut = bytes;
        cut.truncate(cap);
        return Ok(cut);
    }
    Ok(bytes)
}

/// Atomically replace `to` with `from` (POSIX rename semantics). The
/// rename is only durable once the parent directory is synced — call
/// [`sync_parent_dir`] after, or use [`atomic_write`].
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    faults::hook_mutating(faults::OpKind::Rename)?;
    std::fs::rename(from, to)
}

/// Remove a file (quarantine sweeps, stray-temp cleanup).
pub fn remove_file(path: &Path) -> io::Result<()> {
    faults::hook_mutating(faults::OpKind::Remove)?;
    std::fs::remove_file(path)
}

/// fsync the directory containing `path`, making a just-completed
/// create/rename/remove of `path` durable. Without this, a crash after
/// rename can resurrect the old directory entry.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    faults::hook_mutating(faults::OpKind::SyncDir)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Opening a directory read-only and fsyncing it is the POSIX idiom;
    // on platforms where directories cannot be opened this degrades to a
    // no-op rather than an error (there is nothing portable to do).
    match File::open(parent) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// The scratch path [`atomic_write`] stages into for `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(TMP_SUFFIX);
    PathBuf::from(os)
}

/// Durably replace the file at `path` with `bytes` via the atomic-write
/// protocol (module docs): temp file → fsync → rename → fsync parent
/// dir. A crash at any point leaves the previous `path` contents intact
/// (or, for a first write, no file) — never a torn mixture.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = VfsFile::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Deterministic disk-fault plans (see module docs). All hooks are
/// inline no-ops unless the `fault-injection` feature is enabled.
pub mod faults {
    use std::io;

    /// The mutating operations counted by the crash-stop schedule, in
    /// the order the storage code issues them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OpKind {
        Create,
        Write,
        Sync,
        SetLen,
        Rename,
        SyncDir,
        Remove,
    }

    /// What an injected plan does to one write.
    #[derive(Debug)]
    pub enum WriteFault {
        /// No fault: perform the write normally.
        None,
        /// Persist only the first `keep` bytes, then fail: a torn write.
        Torn { keep: usize, error: io::Error },
        /// Fail without writing anything.
        Fail(io::Error),
    }

    /// A deterministic disk-fault plan. `0` disables any knob.
    #[derive(Debug, Clone, Default)]
    pub struct DiskFaultPlan {
        /// Crash-stop at the Nth mutating op (1-based): that op and every
        /// later mutating op fail with an injected error, as if the
        /// process died there and the test reopened the remains.
        pub crash_at_op: u64,
        /// If the crashing op is a write, persist this many bytes of it
        /// first (capped to the buffer) — the torn-write shape.
        pub crash_torn_bytes: u64,
        /// Fail (without crashing) every Nth write, at most `_max` times
        /// (`0` = unlimited).
        pub fail_write_every: u64,
        pub fail_write_max: u64,
        /// Fail every Nth fsync (file or directory).
        pub fail_sync_every: u64,
        pub fail_sync_max: u64,
        /// Fail every Nth rename.
        pub fail_rename_every: u64,
        pub fail_rename_max: u64,
        /// Truncate every Nth whole-file read to `short_read_bytes`.
        pub short_read_every: u64,
        pub short_read_bytes: u64,
    }

    /// Observed activity since [`install`] — `ops` is the mutating-op
    /// total a crash-point enumerator sweeps `crash_at_op` over.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DiskFaultCounts {
        /// Mutating ops counted (including any that were failed).
        pub ops: u64,
        /// File and directory fsyncs among them.
        pub syncs: u64,
        /// Injected failures of any kind that actually fired.
        pub injected: u64,
        /// Did the crash-stop trigger?
        pub crashed: bool,
    }

    #[cfg(feature = "fault-injection")]
    mod imp {
        use super::{DiskFaultCounts, DiskFaultPlan, OpKind, WriteFault};
        use std::io;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::{Arc, Mutex};

        struct Inner {
            plan: DiskFaultPlan,
            ops: AtomicU64,
            reads: AtomicU64,
            writes: AtomicU64,
            syncs: AtomicU64,
            renames: AtomicU64,
            injected: AtomicU64,
            crashed: AtomicBool,
        }

        static ENABLED: AtomicBool = AtomicBool::new(false);
        static STATE: Mutex<Option<Arc<Inner>>> = Mutex::new(None);

        fn state() -> Option<Arc<Inner>> {
            if !ENABLED.load(Ordering::Relaxed) {
                return None;
            }
            STATE.lock().unwrap().clone()
        }

        fn injected_err(what: &str) -> io::Error {
            io::Error::other(format!("injected disk fault: {what}"))
        }

        impl Inner {
            /// Count one mutating op; `Err` if the crash-stop covers it.
            /// Returns the op's 1-based index on success.
            fn count_op(&self) -> Result<u64, io::Error> {
                let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
                let at = self.plan.crash_at_op;
                if at > 0 && n >= at {
                    self.crashed.store(true, Ordering::SeqCst);
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    return Err(injected_err("crash-stop"));
                }
                Ok(n)
            }

            /// `every/max` schedule on a dedicated counter, which counts
            /// every op of its kind whether or not a schedule is set.
            fn scheduled(&self, counter: &AtomicU64, every: u64, max: u64) -> bool {
                let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
                if every == 0 || !n.is_multiple_of(every) {
                    return false;
                }
                if max > 0 && n / every > max {
                    return false;
                }
                self.injected.fetch_add(1, Ordering::SeqCst);
                true
            }
        }

        /// Install a fault plan (replacing any previous one; counters
        /// reset to zero).
        pub fn install(plan: DiskFaultPlan) {
            let inner = Inner {
                plan,
                ops: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                renames: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
            };
            *STATE.lock().unwrap() = Some(Arc::new(inner));
            ENABLED.store(true, Ordering::SeqCst);
        }

        /// Remove the active plan; all hooks become no-ops again.
        pub fn clear() {
            ENABLED.store(false, Ordering::SeqCst);
            *STATE.lock().unwrap() = None;
        }

        /// Activity since [`install`] (zeros when no plan is active).
        pub fn counts() -> DiskFaultCounts {
            state().map_or(DiskFaultCounts::default(), |s| DiskFaultCounts {
                ops: s.ops.load(Ordering::SeqCst),
                syncs: s.syncs.load(Ordering::SeqCst),
                injected: s.injected.load(Ordering::SeqCst),
                crashed: s.crashed.load(Ordering::SeqCst),
            })
        }

        pub fn hook_mutating(kind: OpKind) -> io::Result<()> {
            let Some(s) = state() else { return Ok(()) };
            s.count_op().map_err(|e| match kind {
                OpKind::Rename => injected_err("crash-stop before rename"),
                _ => e,
            })?;
            match kind {
                OpKind::Sync | OpKind::SyncDir
                    if s.scheduled(&s.syncs, s.plan.fail_sync_every, s.plan.fail_sync_max) =>
                {
                    Err(injected_err("fsync failed"))
                }
                OpKind::Rename
                    if s.scheduled(
                        &s.renames,
                        s.plan.fail_rename_every,
                        s.plan.fail_rename_max,
                    ) =>
                {
                    Err(injected_err("rename failed"))
                }
                _ => Ok(()),
            }
        }

        pub fn hook_write(len: usize) -> WriteFault {
            let Some(s) = state() else {
                return WriteFault::None;
            };
            if let Err(error) = s.count_op() {
                // The dying write may land a prefix first (torn write).
                let keep = (s.plan.crash_torn_bytes as usize).min(len);
                return if keep > 0 {
                    WriteFault::Torn { keep, error }
                } else {
                    WriteFault::Fail(error)
                };
            }
            if s.scheduled(&s.writes, s.plan.fail_write_every, s.plan.fail_write_max) {
                return WriteFault::Fail(injected_err("write failed"));
            }
            WriteFault::None
        }

        /// `Some(cap)` = truncate this read to `cap` bytes.
        pub fn hook_read(len: usize) -> Option<usize> {
            let s = state()?;
            if s.plan.short_read_every == 0 {
                return None;
            }
            let n = s.reads.fetch_add(1, Ordering::SeqCst) + 1;
            if !n.is_multiple_of(s.plan.short_read_every) {
                return None;
            }
            let cap = (s.plan.short_read_bytes as usize).min(len);
            if cap >= len {
                return None;
            }
            s.injected.fetch_add(1, Ordering::SeqCst);
            Some(cap)
        }
    }

    #[cfg(not(feature = "fault-injection"))]
    mod imp {
        use super::{DiskFaultCounts, DiskFaultPlan, OpKind, WriteFault};
        use std::io;

        #[inline(always)]
        pub fn install(_plan: DiskFaultPlan) {}

        #[inline(always)]
        pub fn clear() {}

        #[inline(always)]
        pub fn counts() -> DiskFaultCounts {
            DiskFaultCounts::default()
        }

        #[inline(always)]
        pub fn hook_mutating(_kind: OpKind) -> io::Result<()> {
            Ok(())
        }

        #[inline(always)]
        pub fn hook_write(_len: usize) -> WriteFault {
            WriteFault::None
        }

        #[inline(always)]
        pub fn hook_read(_len: usize) -> Option<usize> {
            None
        }
    }

    pub use imp::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdm-vfs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_round_trip_and_replace() {
        let dir = tmp_dir("atomic");
        let path = dir.join("a.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(read(&path).unwrap(), b"first");
        atomic_write(&path, b"second contents").unwrap();
        assert_eq!(read(&path).unwrap(), b"second contents");
        assert!(!tmp_path(&path).exists(), "no stray temp after success");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vfs_file_append_and_truncate() {
        let dir = tmp_dir("file");
        let path = dir.join("f.bin");
        {
            let mut f = VfsFile::create(&path).unwrap();
            f.write_all(b"hello world").unwrap();
            f.sync_data().unwrap();
            f.set_len(5).unwrap();
        }
        assert_eq!(read(&path).unwrap(), b"hello");
        let mut f = VfsFile::open_rw(&path).unwrap();
        let mut buf = Vec::new();
        f.seek(SeekFrom::Start(0)).unwrap();
        assert_eq!(f.read_to_end(&mut buf).unwrap(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Fault-plan scheduling is covered by `tests/vfs_faults.rs` (it
    // mutates global state, so it runs in its own test binary).
}
