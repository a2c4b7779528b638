//! The versioned dictionary store: staged updates, committed epochs, and
//! the one commit path.
//!
//! A [`DictStore`] owns three things:
//!
//! 1. the **log** (`log.rs`) — every staged add/remove is appended and
//!    synced before it is acknowledged (a batch of them with one sync,
//!    [`DictStore::stage_batch`]), every commit seals an epoch, so a killed
//!    server replays back to exactly its committed dictionary plus the
//!    staged tail. A failed append or sync poisons the store until it is
//!    reopened ([`StoreError::Poisoned`]), so its memory never runs ahead
//!    of what is durable;
//! 2. the **canonical state** — live patterns in first-commit order (the
//!    canonical id space every [`Snapshot`] shares), plus a master
//!    [`DynamicMatcher`] mirroring the committed set through the paper's
//!    §6 insert/delete path;
//! 3. the **commit** — every commit, whatever the size of its batch,
//!    applies the staged ops to the master dynamic matcher (Theorems 7–10:
//!    `O(λ)` table work per pattern) and publishes a freeze of it in the
//!    static read form (Theorems 8 and 10: matching "as static"). The
//!    freeze patches the frozen copy it published two commits ago (work in
//!    the changed entries, no naming rounds; [`DynamicMatcher::freeze`]).
//!
//! **Cold start.** [`DictStore::open`] replays the log *structurally* —
//! canonical slots, liveness, staged tail — without feeding the master
//! dynamic matcher (that naming work is deferred to the first commit via
//! lazy hydration). [`DictStore::boot_snapshot`] then serves the first
//! epoch from the `<log>.snap` sidecar when it is a valid, current v2
//! snapshot ([`SnapshotPath::ColdLoaded`], zero naming rounds), and falls
//! back to a parallel static build otherwise
//! ([`SnapshotPath::FullRebuild`]), reporting why ([`BootFallback`]).
//! [`DictStore::compact`] emits that v2 sidecar, also from a static build.

use crate::log::{LogError, LogFile, Record, RecoveredTornTail};
use crate::snapshot::{Snapshot, SnapshotPath, SNAP_VERSION};
use pdm_core::dynamic::{DynError, DynamicMatcher, FreezeRoute};
use pdm_core::{BuildError, PatId, Sym};
use pdm_pram::Ctx;
use pdm_primitives::{vfs, FxHashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Empty patterns are not admissible.
    EmptyPattern,
    /// Staged add of a pattern already live (committed or staged).
    AlreadyPresent,
    /// Staged remove of a pattern not live (committed or staged).
    NotFound,
    /// Commit with nothing staged.
    NothingStaged,
    /// The log replayed to an inconsistent state (valid CRCs, bad ops).
    Replay(String),
    Log(LogError),
    Build(BuildError),
    /// A log append or sync failed (the message says how), so the log may
    /// hold less than this store applied. The failing call and every later
    /// stage, commit and compaction return this until the store is
    /// reopened, which replays what is durable.
    Poisoned(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::EmptyPattern => write!(f, "empty pattern"),
            StoreError::AlreadyPresent => write!(f, "pattern already present"),
            StoreError::NotFound => write!(f, "pattern not found"),
            StoreError::NothingStaged => write!(f, "nothing staged to commit"),
            StoreError::Replay(m) => write!(f, "log replay: {m}"),
            StoreError::Log(e) => write!(f, "{e}"),
            StoreError::Build(e) => write!(f, "rebuild: {e}"),
            StoreError::Poisoned(cause) => {
                write!(f, "store refuses updates until reopened: {cause}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LogError> for StoreError {
    fn from(e: LogError) -> Self {
        StoreError::Log(e)
    }
}

impl From<BuildError> for StoreError {
    fn from(e: BuildError) -> Self {
        StoreError::Build(e)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Add(Vec<Sym>),
    Remove(Vec<Sym>),
}

impl Op {
    fn record(&self) -> Record {
        match self {
            Op::Add(p) => Record::Add(p.clone()),
            Op::Remove(p) => Record::Remove(p.clone()),
        }
    }
}

/// One op of a staged batch ([`DictStore::stage_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOp<'a> {
    Add(&'a [Sym]),
    Remove(&'a [Sym]),
}

/// What a commit did.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// The newly published epoch.
    pub epoch: u64,
    /// Snapshot for that epoch (hand to [`crate::EpochHandle::publish`]).
    pub snapshot: Arc<Snapshot>,
    /// Always [`SnapshotPath::Incremental`]: every commit freezes the
    /// master dynamic matcher.
    pub path: SnapshotPath,
    /// How the commit produced its frozen tables: patched in place,
    /// patched on a copy, or re-frozen. `None` for an empty epoch, which
    /// freezes nothing.
    pub tables: Option<FreezeRoute>,
    /// Number of staged ops applied.
    pub applied: usize,
}

/// What a compaction did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// Live patterns written to the rewritten log.
    pub live: usize,
    /// Staged ops preserved at the tail of the rewritten log.
    pub staged: usize,
    /// Snapshot file emitted next to the log (`<log>.snap`).
    pub snapshot_file: Option<PathBuf>,
}

/// Why [`DictStore::boot_snapshot`] rebuilt instead of cold-loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootFallback {
    /// No `.snap` sidecar next to the log (or an in-memory store).
    NoSidecar,
    /// The sidecar has another format version (v1 held only the epoch and
    /// pattern list), which is not read — boot rebuilds from the log.
    LegacyVersion(u32),
    /// The sidecar failed to read or validate (message has the detail).
    Unreadable(String),
    /// The sidecar seals a different epoch than the replayed log.
    StaleEpoch { sidecar: u64, store: u64 },
    /// Same epoch but a different canonical pattern list.
    StalePatterns,
}

impl std::fmt::Display for BootFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSidecar => write!(f, "no snapshot sidecar"),
            Self::LegacyVersion(v) => write!(f, "snapshot is legacy format v{v}"),
            Self::Unreadable(m) => write!(f, "{m}"),
            Self::StaleEpoch { sidecar, store } => {
                write!(f, "snapshot epoch {sidecar} behind log epoch {store}")
            }
            Self::StalePatterns => write!(f, "snapshot patterns disagree with log"),
        }
    }
}

/// The first served snapshot plus how it was obtained.
#[derive(Debug, Clone)]
pub struct BootOutcome {
    pub snapshot: Arc<Snapshot>,
    /// `None` = cold-loaded from the v2 sidecar (no naming rounds);
    /// `Some(reason)` = rebuilt, and why the sidecar was not used.
    pub fallback: Option<BootFallback>,
}

impl BootOutcome {
    /// Did boot skip the rebuild entirely?
    pub fn cold_loaded(&self) -> bool {
        self.fallback.is_none()
    }
}

/// Versioned dictionary store (see module docs).
pub struct DictStore {
    log: Option<LogFile>,
    path: Option<PathBuf>,
    /// Canonical slots in first-commit order; `None` = removed.
    slots: Vec<Option<Vec<Sym>>>,
    /// Dynamic-matcher slot id per canonical slot (parallel to `slots`).
    native: Vec<Option<PatId>>,
    /// Live pattern → canonical slot.
    index: FxHashMap<Vec<Sym>, usize>,
    staged: Vec<Op>,
    /// Liveness overrides from staged ops (pattern → live-after-commit).
    staged_view: FxHashMap<Vec<Sym>, bool>,
    /// Master dynamic matcher mirroring the committed set — only once
    /// hydrated; a freshly opened store defers this naming work.
    dynm: DynamicMatcher,
    /// Has `dynm` been fed the committed patterns? `open` replays the log
    /// structurally and leaves this false; the first commit hydrates.
    hydrated: bool,
    /// Total committed symbols (maintained structurally, so it is correct
    /// whether or not `dynm` is hydrated).
    committed_syms: usize,
    epoch: u64,
    /// Sequential context for the per-op §6 updates (each is `O(λ)`).
    seq: Ctx,
    /// Bytes dropped from a torn/corrupt log tail at open.
    recovered_truncated: u64,
    /// Typed report of that drop (what was kept, what was torn, why).
    recovery: Option<RecoveredTornTail>,
    /// Why a log append or sync failed, once one has: the store refuses
    /// updates from then on ([`StoreError::Poisoned`]).
    poisoned: Option<String>,
}

impl DictStore {
    /// An in-memory store (no durability; tests and benches).
    pub fn in_memory() -> Self {
        DictStore {
            log: None,
            path: None,
            slots: Vec::new(),
            native: Vec::new(),
            index: FxHashMap::default(),
            staged: Vec::new(),
            staged_view: FxHashMap::default(),
            dynm: DynamicMatcher::new(),
            hydrated: true,
            committed_syms: 0,
            epoch: 0,
            seq: Ctx::seq(),
            recovered_truncated: 0,
            recovery: None,
            poisoned: None,
        }
    }

    /// Open (or create) a store backed by the log at `path`, replaying the
    /// committed dictionary and re-staging the uncommitted tail.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let (log, replay) = LogFile::open(path)?;
        let mut store = Self::in_memory();
        store.log = Some(log);
        store.path = Some(path.to_path_buf());
        store.recovered_truncated = replay.truncated;
        store.recovery = replay.recovery;
        // Structural replay: rebuild slots/liveness without paying the §6
        // naming work per pattern. The master dynamic matcher is hydrated
        // lazily — on the first commit — so a boot that cold-loads its
        // snapshot from the sidecar does zero naming rounds.
        store.hydrated = false;
        // Split at the last commit: before = committed, after = staged.
        let last_commit = replay
            .records
            .iter()
            .rposition(|r| matches!(r, Record::Commit(_)));
        for (i, rec) in replay.records.into_iter().enumerate() {
            let committed = last_commit.is_some_and(|c| i <= c);
            match rec {
                Record::Commit(e) => store.epoch = e,
                Record::Add(p) if committed => store
                    .apply_add(p)
                    .map_err(|e| StoreError::Replay(format!("record {i}: {e}")))?,
                Record::Remove(p) if committed => {
                    store
                        .apply_remove(&p)
                        .map_err(|e| StoreError::Replay(format!("record {i}: {e}")))?;
                }
                Record::Add(p) => store
                    .restage(Op::Add(p))
                    .map_err(|e| StoreError::Replay(format!("record {i}: {e}")))?,
                Record::Remove(p) => store
                    .restage(Op::Remove(p))
                    .map_err(|e| StoreError::Replay(format!("record {i}: {e}")))?,
            }
        }
        Ok(store)
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live committed patterns.
    pub fn pattern_count(&self) -> usize {
        self.index.len()
    }

    /// Total committed symbols.
    pub fn symbol_count(&self) -> usize {
        self.committed_syms
    }

    /// Staged (uncommitted) ops.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Bytes dropped from a torn or corrupt log tail when this store was
    /// opened (0 = the log was clean).
    pub fn recovered_truncated(&self) -> u64 {
        self.recovered_truncated
    }

    /// Typed recovery report when open had to drop a torn or corrupt log
    /// tail (`None` = the log replayed cleanly).
    pub fn recovery(&self) -> Option<&RecoveredTornTail> {
        self.recovery.as_ref()
    }

    /// Committed patterns in canonical order.
    pub fn live_patterns(&self) -> Vec<Vec<Sym>> {
        self.slots.iter().flatten().cloned().collect()
    }

    /// Is `pattern` live after every staged op commits?
    pub fn would_be_live(&self, pattern: &[Sym]) -> bool {
        match self.staged_view.get(pattern) {
            Some(&live) => live,
            None => self.index.contains_key(pattern),
        }
    }

    /// Stage an add: validated against the post-commit view, appended to
    /// the log and synced, applied at the next [`DictStore::commit`]. A
    /// batch of one ([`Self::stage_batch`]).
    pub fn stage_add(&mut self, pattern: &[Sym]) -> Result<(), StoreError> {
        self.stage_one(StageOp::Add(pattern))
    }

    /// Stage a remove (same contract as [`DictStore::stage_add`]).
    pub fn stage_remove(&mut self, pattern: &[Sym]) -> Result<(), StoreError> {
        self.stage_one(StageOp::Remove(pattern))
    }

    fn stage_one(&mut self, op: StageOp<'_>) -> Result<(), StoreError> {
        self.stage_batch(&[op]).pop().expect("one result per op")
    }

    /// Stage a run of adds and removes with one log sync: each op is
    /// validated exactly as staging them one by one would (against the
    /// post-commit view, including the batch's earlier ops), the valid
    /// ones are appended to the log, the log is synced once, and only then
    /// are they staged. Returns one result per op, in order. If the append
    /// or the sync fails, the store is poisoned and no op of the batch is
    /// staged: the valid ones return [`StoreError::Poisoned`].
    pub fn stage_batch(&mut self, ops: &[StageOp<'_>]) -> Vec<Result<(), StoreError>> {
        if let Some(cause) = &self.poisoned {
            return ops
                .iter()
                .map(|_| Err(StoreError::Poisoned(cause.clone())))
                .collect();
        }
        let mut view: FxHashMap<&[Sym], bool> = FxHashMap::default();
        let mut valid = Vec::with_capacity(ops.len());
        let mut results: Vec<Result<(), StoreError>> = ops
            .iter()
            .map(|&op| {
                let (pattern, add) = match op {
                    StageOp::Add(p) => (p, true),
                    StageOp::Remove(p) => (p, false),
                };
                if pattern.is_empty() {
                    return Err(StoreError::EmptyPattern);
                }
                let live = match view.get(pattern) {
                    Some(&live) => live,
                    None => self.would_be_live(pattern),
                };
                match (add, live) {
                    (true, true) => return Err(StoreError::AlreadyPresent),
                    (false, false) => return Err(StoreError::NotFound),
                    _ => {}
                }
                view.insert(pattern, add);
                valid.push(if add {
                    Op::Add(pattern.to_vec())
                } else {
                    Op::Remove(pattern.to_vec())
                });
                Ok(())
            })
            .collect();
        if valid.is_empty() {
            return results;
        }
        let written = self.log_write(|log| {
            for op in &valid {
                log.append(&op.record())?;
            }
            log.sync()
        });
        if let Err(cause) = written {
            for r in results.iter_mut().filter(|r| r.is_ok()) {
                *r = Err(StoreError::Poisoned(cause.clone()));
            }
            return results;
        }
        for op in valid {
            self.restage(op).expect("validated above");
        }
        results
    }

    /// Commit every staged op as a new epoch: apply them to the master
    /// dynamic matcher (hydrating it first if the store was opened from a
    /// log) and publish its freeze ([`Snapshot::freeze_dynamic`]), whatever
    /// the size of the batch. `_ctx` is not used — the §6 updates run
    /// sequentially and the freeze runs no naming rounds — and stays only
    /// because `perfbench` calls this signature.
    pub fn commit(&mut self, _ctx: &Ctx) -> Result<CommitOutcome, StoreError> {
        self.check_poisoned()?;
        if self.staged.is_empty() {
            return Err(StoreError::NothingStaged);
        }
        // Commits mutate the master dynamic matcher, so a structurally
        // replayed store pays its deferred naming work now (once).
        self.ensure_hydrated()?;
        // Seal the epoch in the log before applying anything: a failed
        // append or sync leaves this store at the epoch it serves.
        let epoch = self.epoch + 1;
        self.log_write(|log| {
            log.append(&Record::Commit(epoch))?;
            log.sync()
        })
        .map_err(StoreError::Poisoned)?;
        let ops = std::mem::take(&mut self.staged);
        self.staged_view.clear();
        let applied = ops.len();
        for op in ops {
            // Staging validated against the post-commit view, so ops can
            // only fail here if the log was tampered with between runs —
            // and the log already seals them, so memory would disagree
            // with it: poison.
            let (what, res) = match op {
                Op::Add(p) => ("add", self.apply_add(p)),
                Op::Remove(p) => ("remove", self.apply_remove(&p)),
            };
            if let Err(e) = res {
                let e = StoreError::Replay(format!("staged {what}: {e}"));
                self.poisoned = Some(e.to_string());
                return Err(e);
            }
        }
        self.epoch = epoch;
        let native: Vec<PatId> = self
            .slots
            .iter()
            .zip(&self.native)
            .filter(|(s, _)| s.is_some())
            .map(|(_, n)| n.expect("hydrated live slot has a native id"))
            .collect();
        let patterns = self.live_patterns();
        let (snapshot, tables) = Snapshot::freeze_dynamic(epoch, &mut self.dynm, patterns, &native);
        Ok(CommitOutcome {
            epoch,
            snapshot: Arc::new(snapshot),
            path: SnapshotPath::Incremental,
            tables,
            applied,
        })
    }

    /// First snapshot at serve start, preferring the `<log>.snap` sidecar:
    /// a valid, current v2 sidecar is loaded in `O(file size)` with zero
    /// naming rounds ([`SnapshotPath::ColdLoaded`]); anything else —
    /// missing, legacy v1, corrupt, stale — falls back to a parallel static
    /// build of the committed dictionary on `ctx`
    /// ([`SnapshotPath::FullRebuild`]; cheaper than hydrating the dynamic
    /// matcher just to freeze it) and reports why in
    /// [`BootOutcome::fallback`].
    pub fn boot_snapshot(&self, ctx: &Ctx) -> Result<BootOutcome, StoreError> {
        match self.try_cold_boot() {
            Ok(snapshot) => Ok(BootOutcome {
                snapshot,
                fallback: None,
            }),
            Err(reason) => Ok(BootOutcome {
                snapshot: Arc::new(Snapshot::build_static(
                    ctx,
                    self.epoch,
                    self.live_patterns(),
                )?),
                fallback: Some(reason),
            }),
        }
    }

    fn try_cold_boot(&self) -> Result<Arc<Snapshot>, BootFallback> {
        let Some(path) = &self.path else {
            return Err(BootFallback::NoSidecar);
        };
        let bytes = match vfs::read(&snap_path(path)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BootFallback::NoSidecar);
            }
            Err(e) => return Err(BootFallback::Unreadable(e.to_string())),
        };
        boot_from_sidecar(&bytes, self.epoch, &self.live_patterns()).map(Arc::new)
    }

    /// Rewrite the log to its minimal form — one add per live pattern in
    /// canonical order, one commit, then the staged tail — and emit a
    /// loadable v2 snapshot file next to it (`<log>.snap`): the *built*
    /// matcher, serialized, so the next [`DictStore::boot_snapshot`] skips
    /// the rebuild entirely. Canonical slots are densified so the
    /// rewritten log replays to this exact state.
    pub fn compact(&mut self, ctx: &Ctx) -> Result<CompactReport, StoreError> {
        self.check_poisoned()?;
        // Densify tombstoned slots; canonical order (live order) unchanged.
        let mut slots = Vec::with_capacity(self.index.len());
        let mut native = Vec::with_capacity(self.index.len());
        for (s, n) in self.slots.iter().zip(&self.native) {
            if let Some(p) = s {
                self.index.insert(p.clone(), slots.len());
                slots.push(Some(p.clone()));
                native.push(*n);
            }
        }
        self.slots = slots;
        self.native = native;

        let report = CompactReport {
            live: self.index.len(),
            staged: self.staged.len(),
            snapshot_file: self.path.as_ref().map(|p| snap_path(p)),
        };
        let Some(path) = self.path.clone() else {
            return Ok(report); // in-memory: densify only
        };
        // A failed rewrite may leave no log open at all: poison, so no
        // later stage or commit goes unlogged.
        if let Err(e) = self.rewrite_log(&path) {
            self.poisoned = Some(e.to_string());
            return Err(StoreError::Poisoned(e.to_string()));
        }
        // Emit the loadable v2 snapshot beside the log (an empty
        // dictionary's has no matcher sections). A fresh build rather than
        // the current epoch, so the bytes are a function of the pattern set
        // alone. Written atomically so a crash mid-write leaves the
        // previous good sidecar (or none) rather than a torn one.
        let bytes = Snapshot::build_static(ctx, self.epoch, self.live_patterns())?
            .to_sidecar_bytes()
            .expect("a store snapshot knows its pattern texts");
        vfs::atomic_write(&snap_path(&path), &bytes).map_err(LogError::Io)?;
        Ok(report)
    }

    // ---- internals ---------------------------------------------------------

    /// Rewrite the log at `path` into a temp file, fsync, rename over the
    /// live log, and reopen it.
    fn rewrite_log(&mut self, path: &Path) -> Result<(), LogError> {
        let tmp = path.with_extension("log.tmp");
        {
            let mut log = LogFile::create(&tmp)?;
            for p in self.slots.iter().flatten() {
                log.append(&Record::Add(p.clone()))?;
            }
            log.append(&Record::Commit(self.epoch))?;
            for op in &self.staged {
                log.append(&op.record())?;
            }
            log.sync()?;
        }
        self.log = None; // close before replacing (Windows-friendly habit)
        vfs::rename(&tmp, path).map_err(LogError::Io)?;
        // The rename is only durable once the parent directory's entry is
        // on disk too — without this fsync a crash can resurrect the old
        // (pre-compaction) log or, worse, lose the name entirely.
        vfs::sync_parent_dir(path).map_err(LogError::Io)?;
        let (log, _) = LogFile::open(path)?;
        self.log = Some(log);
        Ok(())
    }

    fn check_poisoned(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(cause) => Err(StoreError::Poisoned(cause.clone())),
            None => Ok(()),
        }
    }

    /// Append and sync through `write` (nothing for an in-memory store).
    /// A failure poisons the store, and its message is returned as the
    /// cause: the log may now hold a prefix of what was written, which
    /// only a reopen reconciles.
    fn log_write(
        &mut self,
        write: impl FnOnce(&mut LogFile) -> Result<(), LogError>,
    ) -> Result<(), String> {
        if let Some(log) = &mut self.log {
            if let Err(e) = write(log) {
                let cause = e.to_string();
                self.poisoned = Some(cause.clone());
                return Err(cause);
            }
        }
        Ok(())
    }

    fn restage(&mut self, op: Op) -> Result<(), StoreError> {
        let (pattern, live) = match &op {
            Op::Add(p) => (p, true),
            Op::Remove(p) => (p, false),
        };
        // Replayed staged tails re-validate; direct staging pre-validated.
        if live && self.would_be_live(pattern) {
            return Err(StoreError::AlreadyPresent);
        }
        if !live && !self.would_be_live(pattern) {
            return Err(StoreError::NotFound);
        }
        self.staged_view.insert(pattern.clone(), live);
        self.staged.push(op);
        Ok(())
    }

    fn apply_add(&mut self, pattern: Vec<Sym>) -> Result<(), StoreError> {
        if self.index.contains_key(&pattern) {
            return Err(StoreError::AlreadyPresent);
        }
        if pattern.is_empty() {
            return Err(StoreError::EmptyPattern);
        }
        let nat = if self.hydrated {
            Some(self.dynm.insert(&self.seq, &pattern).map_err(dyn_err)?)
        } else {
            None
        };
        self.committed_syms += pattern.len();
        self.index.insert(pattern.clone(), self.slots.len());
        self.slots.push(Some(pattern));
        self.native.push(nat);
        Ok(())
    }

    fn apply_remove(&mut self, pattern: &[Sym]) -> Result<(), StoreError> {
        let slot = self.index.remove(pattern).ok_or(StoreError::NotFound)?;
        if self.hydrated {
            self.dynm.delete(&self.seq, pattern).map_err(dyn_err)?;
        }
        self.committed_syms -= pattern.len();
        self.slots[slot] = None;
        self.native[slot] = None;
        Ok(())
    }

    /// Feed the committed patterns into the master dynamic matcher if the
    /// store was opened with a structural replay. Idempotent; `O(Σλ)` the
    /// first time after `open`, free afterwards.
    fn ensure_hydrated(&mut self) -> Result<(), StoreError> {
        if self.hydrated {
            return Ok(());
        }
        for slot in 0..self.slots.len() {
            let Some(p) = self.slots[slot].clone() else {
                continue;
            };
            let nat = self.dynm.insert(&self.seq, &p).map_err(dyn_err)?;
            self.native[slot] = Some(nat);
        }
        self.hydrated = true;
        Ok(())
    }
}

fn dyn_err(e: DynError) -> StoreError {
    match e {
        DynError::EmptyPattern => StoreError::EmptyPattern,
        DynError::AlreadyPresent(_) => StoreError::AlreadyPresent,
        DynError::NotFound => StoreError::NotFound,
    }
}

/// The boot decision for a store at `epoch` with `live` committed patterns
/// (canonical order) whose sidecar holds `bytes`: the cold-loaded epoch, or
/// why boot must rebuild instead. [`DictStore::boot_snapshot`] and `pdm
/// fsck` both decide through here, so they cannot disagree.
pub fn boot_from_sidecar(
    bytes: &[u8],
    epoch: u64,
    live: &[Vec<Sym>],
) -> Result<Snapshot, BootFallback> {
    match Snapshot::peek_version(bytes) {
        Ok(SNAP_VERSION) => {}
        Ok(v) => return Err(BootFallback::LegacyVersion(v)),
        Err(e) => return Err(BootFallback::Unreadable(e.to_string())),
    }
    let snap = Snapshot::from_bytes(&Ctx::seq(), bytes)
        .map_err(|e| BootFallback::Unreadable(e.to_string()))?;
    if snap.epoch() != epoch {
        return Err(BootFallback::StaleEpoch {
            sidecar: snap.epoch(),
            store: epoch,
        });
    }
    if snap.patterns() != Some(live) {
        return Err(BootFallback::StalePatterns);
    }
    Ok(snap)
}

/// The snapshot file emitted by compaction, next to the log.
pub fn snap_path(log: &Path) -> PathBuf {
    let mut os = log.as_os_str().to_owned();
    os.push(".snap");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::dict::{symbolize, to_symbols};

    fn add_all(store: &mut DictStore, pats: &[&str]) {
        for p in symbolize(pats) {
            store.stage_add(&p).unwrap();
        }
    }

    #[test]
    fn stage_validation() {
        let mut s = DictStore::in_memory();
        assert!(matches!(s.stage_add(&[]), Err(StoreError::EmptyPattern)));
        s.stage_add(&to_symbols("ab")).unwrap();
        assert!(matches!(
            s.stage_add(&to_symbols("ab")),
            Err(StoreError::AlreadyPresent)
        ));
        assert!(matches!(
            s.stage_remove(&to_symbols("cd")),
            Err(StoreError::NotFound)
        ));
        // Staged remove of a staged add is fine; then the add is free again.
        s.stage_remove(&to_symbols("ab")).unwrap();
        s.stage_add(&to_symbols("ab")).unwrap();
        assert_eq!(s.staged_len(), 3);
    }

    #[test]
    fn commit_publishes_epochs() {
        let ctx = Ctx::seq();
        let mut s = DictStore::in_memory();
        assert!(matches!(s.commit(&ctx), Err(StoreError::NothingStaged)));
        add_all(&mut s, &["he", "she"]);
        let out = s.commit(&ctx).unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.applied, 2);
        assert_eq!(out.snapshot.pattern_count(), 2);
        s.stage_remove(&to_symbols("he")).unwrap();
        let out = s.commit(&ctx).unwrap();
        assert_eq!(out.epoch, 2);
        assert_eq!(out.snapshot.pattern_count(), 1);
        assert_eq!(s.pattern_count(), 1);
    }

    /// Every commit freezes the master dynamic matcher, whatever its batch:
    /// the first into an empty store and batches larger than the committed
    /// dictionary each publish an `Incremental` epoch with frozen tables,
    /// charge nothing to the context they are given (no static build runs
    /// on it), and match as Aho–Corasick and a fresh static build do, with
    /// the same canonical ids.
    #[test]
    fn every_commit_freezes_the_dynamic_matcher() {
        use pdm_baselines::AhoCorasick;
        let text = to_symbols("usherssheherhishersisheis");
        let mut s = DictStore::in_memory();
        let mut live: Vec<Vec<Sym>> = Vec::new();
        let batches: [(&[&str], &[&str]); 3] = [
            (&["he", "she", "his"], &[]),
            (&["hers", "sh"], &["his"]),
            (&["his", "her", "ushers", "is", "sheis"], &["he"]),
        ];
        for (adds, removes) in batches {
            let before = s.symbol_count();
            for p in symbolize(adds) {
                s.stage_add(&p).unwrap();
                live.push(p);
            }
            for p in symbolize(removes) {
                s.stage_remove(&p).unwrap();
                live.retain(|q| *q != p);
            }
            let staged: usize = adds.iter().chain(removes).map(|p| p.len()).sum();
            assert!(staged > before, "each batch outweighs the dictionary");
            let ctx = Ctx::seq();
            let out = s.commit(&ctx).unwrap();
            let at = format!("epoch {}", out.epoch);
            assert_eq!(out.path, SnapshotPath::Incremental, "{at}");
            assert!(out.tables.is_some(), "{at}");
            assert_eq!(ctx.cost.snapshot(), Default::default(), "{at}");
            assert!(ctx.cost.phases().is_empty(), "{at}");
            assert_eq!(out.snapshot.patterns(), Some(&live[..]), "{at}");
            let mut want: Vec<(usize, PatId)> = AhoCorasick::new(&live)
                .find_all(&text)
                .into_iter()
                .map(|o| (o.start, o.pat as PatId))
                .collect();
            want.sort_unstable();
            let built = Snapshot::build_static(&Ctx::seq(), out.epoch, live.clone()).unwrap();
            assert_eq!(out.snapshot.find_all(&ctx, &text), want, "{at}");
            assert_eq!(built.find_all(&ctx, &text), want, "{at}");
        }
    }

    #[test]
    fn canonical_order_is_first_commit_order() {
        let ctx = Ctx::seq();
        let mut s = DictStore::in_memory();
        add_all(&mut s, &["bb", "aa", "cc"]);
        s.commit(&ctx).unwrap();
        s.stage_remove(&to_symbols("aa")).unwrap();
        s.stage_add(&to_symbols("dd")).unwrap();
        let out = s.commit(&ctx).unwrap();
        // "aa" tombstoned, "dd" appended: canonical = [bb, cc, dd].
        assert_eq!(
            out.snapshot.patterns().unwrap(),
            &symbolize(&["bb", "cc", "dd"])[..]
        );
    }
}
