//! Frozen (read-only) pair table: the text-side fast path.
//!
//! A [`crate::ConcPairTable`] is write-optimized: every probe is an
//! `Acquire` load and every hit spins past a `PENDING` publish window. The
//! text side of matching never writes — after the dictionary build the
//! tables are immutable — so it can pay none of that. `FrozenPairTable` is
//! the same open-addressing layout (same `mix64(pack(a, b)) & mask` home
//! slot, same linear probe order, same `EMPTY` key sentinel) re-materialized
//! into plain arrays: a `u64` key array probed with non-atomic loads and a
//! parallel `u32` value array read exactly once on a hit.
//!
//! Keys and values are split into parallel arrays rather than packed
//! 12-byte slots so the probe loop touches only the key array — 8 bytes per
//! slot, 8 slots per cache line — and the value array is touched once per
//! successful lookup.
//!
//! Large tables live in DRAM, so the text side overlaps their misses
//! (DESIGN.md §11): [`FrozenPairTable::prefetch`] starts loading a probe's
//! home key and value lines ahead of the probe. Its intrinsic is the only
//! `unsafe` in the workspace crates, and compiles to nothing off x86-64.
//!
//! The slot arrays are reference-counted (`Arc<[u64]>`/`Arc<[u32]>`), so a
//! clone shares them and [`FrozenPairTable::patch`] writes copy-on-write:
//! a dynamic dictionary brings the copy it published two commits ago up to
//! date in place once no reader holds it, instead of rehashing every entry
//! (DESIGN.md §10).

use crate::conc_table::ConcPairTable;
use crate::hash::mix64;
use crate::table::pack;
use std::sync::Arc;

const EMPTY_KEY: u64 = u64::MAX;

/// Tables whose key array is smaller than this mostly stay in cache, where
/// a prefetch only adds work: the text side prefetches probes only into
/// tables at least this large (see [`FrozenPairTable::prefetch_pays`]).
pub const PREFETCH_MIN_BYTES: usize = 1 << 20;

/// Start loading the cache line holding `*p`. A hint only.
#[inline(always)]
fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and neither reads a value into the
    // program nor writes memory, whatever the address; callers pass
    // in-bounds slot addresses anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Why serialized slot arrays are not a valid [`FrozenPairTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawTableError {
    /// Key and value arrays differ in length.
    LengthMismatch,
    /// The slot count is not a power of two.
    SlotCount(usize),
    /// The declared entry count disagrees with the occupied slots.
    EntryCount { len: usize, occupied: usize },
    /// Every slot is occupied, so a lookup miss would probe forever.
    NoEmptySlot,
    /// The key in `slot` lies past an empty slot on its probe path, so
    /// lookups can never reach it.
    OffProbePath { slot: usize },
}

impl std::fmt::Display for RawTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch => write!(f, "key and value arrays differ in length"),
            Self::SlotCount(n) => write!(f, "slot count {n} is not a power of two"),
            Self::EntryCount { len, occupied } => {
                write!(
                    f,
                    "declares {len} entries but {occupied} slots are occupied"
                )
            }
            Self::NoEmptySlot => write!(f, "no empty slot, so a lookup miss never ends"),
            Self::OffProbePath { slot } => {
                write!(f, "key in slot {slot} is unreachable from its home slot")
            }
        }
    }
}

impl std::error::Error for RawTableError {}

/// Immutable open-addressing `(u32, u32) → u32` map built by freezing a
/// [`ConcPairTable`] (or an entry list) after all inserts are done.
///
/// Lookups are branch-light: one hashed home slot, then a linear probe that
/// stops at the first empty slot. No atomics, no pending-value spins. A
/// clone shares the slot arrays; only [`Self::patch`] writes them.
#[derive(Debug, Clone)]
pub struct FrozenPairTable {
    keys: Arc<[u64]>,
    vals: Arc<[u32]>,
    mask: usize,
    len: usize,
}

impl FrozenPairTable {
    /// Slot count of a table holding `len` entries: load factor ≤ 0.25.
    /// The text side mostly probes *absent* keys (every text-local pair
    /// misses), and unsuccessful linear-probe searches are the ones that
    /// degrade with load, so the frozen table trades 12 bytes/slot for
    /// short miss chains. Freezing and patching both keep this size.
    pub fn slots_for(len: usize) -> usize {
        (len.max(1) * 4).next_power_of_two()
    }

    /// Freeze `entries` (each `(a, b, value)`) into a read-only table of
    /// [`Self::slots_for`] slots, allocated once, straight into the shared
    /// arrays.
    pub fn from_entries(entries: &[(u32, u32, u32)]) -> Self {
        let slots_len = Self::slots_for(entries.len());
        let mask = slots_len - 1;
        let mut keys: Arc<[u64]> = std::iter::repeat_n(EMPTY_KEY, slots_len).collect();
        let mut vals: Arc<[u32]> = std::iter::repeat_n(0u32, slots_len).collect();
        let k = Arc::get_mut(&mut keys).expect("fresh array");
        let v = Arc::get_mut(&mut vals).expect("fresh array");
        for &(a, b, val) in entries {
            let key = pack(a, b);
            debug_assert_ne!(key, EMPTY_KEY, "reserved key");
            let mut idx = mix64(key) as usize & mask;
            loop {
                if k[idx] == EMPTY_KEY {
                    k[idx] = key;
                    v[idx] = val;
                    break;
                }
                debug_assert_ne!(k[idx], key, "duplicate key in frozen entries");
                idx = (idx + 1) & mask;
            }
        }
        Self {
            keys,
            vals,
            mask,
            len: entries.len(),
        }
    }

    /// Bring the table up to date with `changes`, each the *final* state
    /// of one key: `(a, b, Some(v))` maps `(a, b)` to `v` (insert or
    /// update), `(a, b, None)` removes `(a, b)` if present. A key listed
    /// twice must carry the same state both times. Removals run first, so
    /// the table never holds more than the larger of its entry counts
    /// before and after, and each one shifts the later keys of its probe
    /// run back over the gap (no tombstones): the result is exactly a table
    /// [`Self::from_raw_parts`] accepts.
    ///
    /// The slot arrays are written through [`Arc::make_mut`]: in place
    /// when this table holds the only reference, on a copy otherwise, so a
    /// clone sharing the arrays keeps its lookups. Returns whether the
    /// arrays were copied. The caller keeps the size: the slot count must
    /// still equal [`Self::slots_for`] of the new entry count (re-freeze
    /// from the entries when it would not).
    pub fn patch(&mut self, changes: &[(u32, u32, Option<u32>)]) -> bool {
        if changes.is_empty() {
            return false;
        }
        let copied = Arc::strong_count(&self.keys) > 1 || Arc::strong_count(&self.vals) > 1;
        let mask = self.mask;
        let keys = Arc::make_mut(&mut self.keys);
        let vals = Arc::make_mut(&mut self.vals);
        for &(a, b, _) in changes.iter().filter(|c| c.2.is_none()) {
            let slot = probe(keys, mask, pack(a, b));
            if keys[slot] != EMPTY_KEY {
                remove_at(keys, vals, mask, slot);
                self.len -= 1;
            }
        }
        for &(a, b, v) in changes {
            let Some(v) = v else { continue };
            let key = pack(a, b);
            debug_assert_ne!(key, EMPTY_KEY, "reserved key");
            let slot = probe(keys, mask, key);
            if keys[slot] == EMPTY_KEY {
                // A lookup miss stops only at an empty slot: keep one.
                assert!(self.len + 1 < keys.len(), "patch would fill every slot");
                keys[slot] = key;
                self.len += 1;
            }
            vals[slot] = v;
        }
        debug_assert_eq!(
            keys.len(),
            Self::slots_for(self.len),
            "patched table left its sizing rule"
        );
        copied
    }

    /// Freeze a live concurrent table. The table must be quiescent (no
    /// concurrent inserts) — which is exactly the post-build state. Slots
    /// are sized from the entry count, as in [`Self::from_entries`], not
    /// from the live table's provisioned capacity.
    pub fn freeze(table: &ConcPairTable) -> Self {
        Self::from_entries(&table.entries())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of slots (a power of two). With [`Self::keys`]/[`Self::vals`]
    /// and [`Self::from_raw_parts`] this makes the table serializable
    /// without rehashing: the slot arrays *are* the table.
    pub fn slots_len(&self) -> usize {
        self.keys.len()
    }

    /// Raw key slots (`u64::MAX` marks empties). Probe order is a pure
    /// function of key and slot count, so dumping these bytes and reloading
    /// them with [`Self::from_raw_parts`] reproduces lookups exactly.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Raw value slots, parallel to [`Self::keys`]; slots whose key is
    /// empty hold an arbitrary value (zero as written).
    pub fn vals(&self) -> &[u32] {
        &self.vals
    }

    /// Reassemble a table from serialized slot arrays, checking in
    /// `O(slots)` that they form a table [`Self::get`] can probe: equal
    /// array lengths, a power-of-two slot count, `len` equal to the
    /// occupied slots, at least one empty slot (a miss stops only at one),
    /// and every key reachable from its home slot `mix64(key) & mask`
    /// without crossing an empty slot. A loader turns the error into its
    /// corruption error rather than hanging or losing entries at match
    /// time.
    pub fn from_raw_parts(
        keys: Arc<[u64]>,
        vals: Arc<[u32]>,
        len: usize,
    ) -> Result<Self, RawTableError> {
        if keys.len() != vals.len() {
            return Err(RawTableError::LengthMismatch);
        }
        if !keys.len().is_power_of_two() {
            return Err(RawTableError::SlotCount(keys.len()));
        }
        let mask = keys.len() - 1;
        // Walk the slots circularly from just past an empty one, tracking
        // where the current occupied run began: a key is reachable iff its
        // home lies inside its run, at or before its own slot. An empty
        // slot restarts the run, and its own (meaningless) displacement is
        // compared against `usize::MAX`, so the loop needs no branch on
        // emptiness.
        let start = 1 + keys
            .iter()
            .position(|&k| k == EMPTY_KEY)
            .ok_or(RawTableError::NoEmptySlot)?;
        let (mut occupied, mut run_start) = (0usize, 0usize);
        for off in 0..keys.len() {
            let slot = (start + off) & mask;
            let k = keys[slot];
            if k == EMPTY_KEY {
                run_start = off + 1;
            }
            occupied += usize::from(k != EMPTY_KEY);
            let displacement = slot.wrapping_sub(mix64(k) as usize) & mask;
            if displacement > off.wrapping_sub(run_start) {
                return Err(RawTableError::OffProbePath { slot });
            }
        }
        if occupied != len {
            return Err(RawTableError::EntryCount { len, occupied });
        }
        Ok(Self {
            keys,
            vals,
            mask,
            len,
        })
    }

    /// Iterate the stored `(a, b, value)` entries in slot order. Used to
    /// rebuild derived structures (e.g. dense symbol maps) from a
    /// deserialized table.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|&(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| {
                let (a, b) = crate::table::unpack(k);
                (a, b, v)
            })
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether prefetching this table's probes can pay: its key array is
    /// at least [`PREFETCH_MIN_BYTES`], so probes mostly miss cache.
    pub fn prefetch_pays(&self) -> bool {
        self.keys.len() * std::mem::size_of::<u64>() >= PREFETCH_MIN_BYTES
    }

    /// Start loading the home slot of `(a, b)` — its key line and its
    /// value line — so a [`Self::get`] issued a few probes later finds them
    /// in cache. Most text-side probes go to DRAM on large tables and are
    /// independent across positions; prefetching both lines lets their
    /// misses overlap instead of queueing one behind another.
    #[inline]
    pub fn prefetch(&self, a: u32, b: u32) {
        let idx = mix64(pack(a, b)) as usize & self.mask;
        prefetch_line(self.keys.as_ptr().wrapping_add(idx));
        prefetch_line(self.vals.as_ptr().wrapping_add(idx));
    }

    /// Read-only lookup: `Some(value)` iff `(a, b)` was in the frozen set.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> Option<u32> {
        let key = pack(a, b);
        let mut idx = mix64(key) as usize & self.mask;
        loop {
            // Safety of the plain indexing: idx is masked into range.
            let k = self.keys[idx];
            if k == key {
                return Some(self.vals[idx]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

/// The slot holding `key`, or the empty slot ending its probe run.
fn probe(keys: &[u64], mask: usize, key: u64) -> usize {
    let mut idx = mix64(key) as usize & mask;
    while keys[idx] != key && keys[idx] != EMPTY_KEY {
        idx = (idx + 1) & mask;
    }
    idx
}

/// Backward-shift deletion: empty `slot`, then walk the rest of its probe
/// run and move back every key whose probe path (home slot through its
/// own slot, circularly) crosses the gap, so no key is ever left past an
/// empty slot on its path.
fn remove_at(keys: &mut [u64], vals: &mut [u32], mask: usize, slot: usize) {
    let (mut gap, mut j) = (slot, slot);
    loop {
        j = (j + 1) & mask;
        let k = keys[j];
        if k == EMPTY_KEY {
            break;
        }
        let home = mix64(k) as usize & mask;
        if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(gap) & mask) {
            keys[gap] = k;
            vals[gap] = vals[j];
            gap = j;
        }
    }
    keys[gap] = EMPTY_KEY;
    vals[gap] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn empty_table_misses_everything() {
        let f = FrozenPairTable::from_entries(&[]);
        assert!(f.is_empty());
        assert_eq!(f.get(0, 0), None);
        assert_eq!(f.get(u32::MAX - 1, 7), None);
    }

    #[test]
    fn freeze_preserves_every_entry() {
        let t = ConcPairTable::with_capacity(100);
        let ctr = AtomicU32::new(0);
        for i in 0..100u32 {
            t.get_or_insert(i, i.wrapping_mul(31), || {
                ctr.fetch_add(1, Ordering::Relaxed)
            });
        }
        let f = FrozenPairTable::freeze(&t);
        assert_eq!(f.len(), 100);
        for i in 0..100u32 {
            assert_eq!(f.get(i, i.wrapping_mul(31)), t.get(i, i.wrapping_mul(31)));
        }
        assert_eq!(f.get(5, 5), t.get(5, 5));
    }

    #[test]
    fn collision_chains_survive_freezing() {
        // Tiny table forces probe chains in both representations.
        let t = ConcPairTable::with_capacity(4);
        let ctr = AtomicU32::new(0);
        for i in 0..4u32 {
            t.get_or_insert(i, 0, || ctr.fetch_add(1, Ordering::Relaxed));
        }
        let f = FrozenPairTable::freeze(&t);
        for i in 0..4u32 {
            assert_eq!(f.get(i, 0), t.get(i, 0));
            assert!(f.get(i, 0).is_some());
        }
        assert_eq!(f.get(9, 9), None);
    }

    #[test]
    fn raw_parts_round_trip() {
        let entries: Vec<(u32, u32, u32)> = (0..57u32)
            .map(|i| (i, i.wrapping_mul(101), i + 7))
            .collect();
        let f = FrozenPairTable::from_entries(&entries);
        let back = FrozenPairTable::from_raw_parts(f.keys().into(), f.vals().into(), f.len())
            .expect("valid parts");
        assert_eq!(back.len(), f.len());
        assert_eq!(back.slots_len(), f.slots_len());
        for &(a, b, v) in &entries {
            assert_eq!(back.get(a, b), Some(v));
        }
        assert_eq!(back.get(999, 999), None);
        let mut got: Vec<_> = back.entries().collect();
        got.sort_unstable();
        assert_eq!(got, entries);
    }

    #[test]
    fn raw_parts_reject_inconsistent_input() {
        let f = FrozenPairTable::from_entries(&[(1, 2, 3), (4, 5, 6)]);
        let keys = || Arc::<[u64]>::from(f.keys());
        let vals = || Arc::<[u32]>::from(f.vals());
        // len disagreeing with occupied slots.
        assert_eq!(
            FrozenPairTable::from_raw_parts(keys(), vals(), 1).err(),
            Some(RawTableError::EntryCount {
                len: 1,
                occupied: 2
            })
        );
        // Mismatched array lengths.
        let short = Arc::<[u32]>::from(&f.vals()[..f.slots_len() - 1]);
        assert_eq!(
            FrozenPairTable::from_raw_parts(keys(), short, 2).err(),
            Some(RawTableError::LengthMismatch)
        );
        // Non-power-of-two slot count.
        let mut k = f.keys().to_vec();
        let mut v = f.vals().to_vec();
        k.push(EMPTY_KEY);
        v.push(0);
        assert_eq!(
            FrozenPairTable::from_raw_parts(k.into(), v.into(), 2).err(),
            Some(RawTableError::SlotCount(9))
        );
    }

    #[test]
    fn raw_parts_reject_a_table_without_an_empty_slot() {
        // Four slots, four keys: before the check, the first miss looped
        // forever in `get`.
        let keys: Arc<[u64]> = (0..4u32).map(|i| pack(i, 0)).collect();
        let vals: Arc<[u32]> = vec![0; 4].into();
        assert_eq!(
            FrozenPairTable::from_raw_parts(keys, vals, 4).err(),
            Some(RawTableError::NoEmptySlot)
        );
    }

    #[test]
    fn raw_parts_reject_a_key_moved_off_its_probe_path() {
        let entries: Vec<(u32, u32, u32)> = (0..40u32).map(|i| (i, 3 * i, i)).collect();
        let f = FrozenPairTable::from_entries(&entries);
        let mask = f.slots_len() - 1;
        // Move an isolated key (at its home, empty slots on both sides)
        // one slot back: the probe from its home meets an empty slot first.
        let empty = |i: usize| f.keys()[i & mask] == EMPTY_KEY;
        let slot = (0..f.slots_len())
            .find(|&i| {
                !empty(i)
                    && mix64(f.keys()[i]) as usize & mask == i
                    && empty(i.wrapping_sub(1))
                    && empty(i + 1)
            })
            .expect("a load-0.25 table has an isolated key at its home");
        let mut keys = f.keys().to_vec();
        let mut vals = f.vals().to_vec();
        let to = slot.wrapping_sub(1) & mask;
        keys.swap(slot, to);
        vals.swap(slot, to);
        assert_eq!(
            FrozenPairTable::from_raw_parts(keys.into(), vals.into(), f.len()).err(),
            Some(RawTableError::OffProbePath { slot: to })
        );
    }

    #[test]
    fn prefetch_changes_no_lookup() {
        let entries: Vec<(u32, u32, u32)> = (0..300u32).map(|i| (i, i ^ 5, i)).collect();
        let f = FrozenPairTable::from_entries(&entries);
        assert!(!f.prefetch_pays(), "2,048 slots stay in cache");
        for &(a, b, v) in &entries {
            f.prefetch(a, b);
            f.prefetch(b, a);
            assert_eq!(f.get(a, b), Some(v));
        }
        let empty = FrozenPairTable::from_entries(&[]);
        empty.prefetch(u32::MAX, 7);
        assert_eq!(empty.get(u32::MAX, 7), None);
    }

    /// `from_raw_parts` accepts the table's own arrays and its slot count
    /// follows the sizing rule.
    fn assert_well_formed(t: &FrozenPairTable) {
        FrozenPairTable::from_raw_parts(t.keys().into(), t.vals().into(), t.len())
            .expect("a patched table is a valid raw table");
        assert_eq!(t.slots_len(), FrozenPairTable::slots_for(t.len()));
    }

    /// Keys `(i, 0)` whose home slot in a table of `slots` slots is `home`.
    fn keys_homed_at(home: usize, slots: usize, n: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&i| mix64(pack(i, 0)) as usize & (slots - 1) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn patch_delete_shifts_back_a_run_that_wraps_to_slot_zero() {
        // Three entries: 16 slots. Two keys homed at the last slot and one
        // homed at slot 0 fill slots 15, 0 and 1 in insertion order.
        let slots = FrozenPairTable::slots_for(3);
        let last = keys_homed_at(slots - 1, slots, 2);
        let zero = keys_homed_at(0, slots, 1)[0];
        let entries = [(last[0], 0, 10), (last[1], 0, 11), (zero, 0, 12)];
        let f = FrozenPairTable::from_entries(&entries);
        assert_eq!(f.keys()[slots - 1], pack(last[0], 0));
        assert_eq!(f.keys()[0], pack(last[1], 0));
        assert_eq!(f.keys()[1], pack(zero, 0));
        // Deleting the run's head moves its second key back across the wrap
        // (slot 0 → 15) and the slot-0 key back home (1 → 0), and a
        // replacement entry keeps the entry count, hence the slot count.
        let mut t = f.clone();
        t.patch(&[(last[0], 0, None), (99, 99, Some(7))]);
        assert_well_formed(&t);
        assert_eq!(t.keys()[slots - 1], pack(last[1], 0));
        assert_eq!(t.keys()[0], pack(zero, 0));
        assert_eq!((t.get(last[0], 0), t.get(last[1], 0)), (None, Some(11)));
        assert_eq!((t.get(zero, 0), t.get(99, 99)), (Some(12), Some(7)));
        // Deleting the middle key leaves the head in place and pulls the
        // slot-0 key back from slot 1.
        let mut t = f.clone();
        t.patch(&[(last[1], 0, None), (98, 98, Some(8))]);
        assert_well_formed(&t);
        assert_eq!(t.keys()[slots - 1], pack(last[0], 0));
        assert_eq!(t.keys()[0], pack(zero, 0));
        assert_eq!(t.get(last[1], 0), None);
        assert_eq!((t.get(last[0], 0), t.get(zero, 0)), (Some(10), Some(12)));
    }

    #[test]
    fn patch_reinserts_a_deleted_key_with_a_new_value() {
        let entries: Vec<(u32, u32, u32)> = (0..20u32).map(|i| (i, i + 1, i)).collect();
        let mut t = FrozenPairTable::from_entries(&entries);
        t.patch(&[(5, 6, None)]);
        assert_well_formed(&t);
        assert_eq!((t.len(), t.get(5, 6)), (19, None));
        t.patch(&[(5, 6, Some(500))]);
        assert_well_formed(&t);
        assert_eq!((t.len(), t.get(5, 6)), (20, Some(500)));
        for &(a, b, v) in entries.iter().filter(|e| e.0 != 5) {
            assert_eq!(t.get(a, b), Some(v));
        }
    }

    #[test]
    fn patch_updates_a_value_in_place() {
        let entries: Vec<(u32, u32, u32)> = (0..20u32).map(|i| (i, 2 * i, i)).collect();
        let mut t = FrozenPairTable::from_entries(&entries);
        let keys_before = t.keys().to_vec();
        assert!(!t.patch(&[(7, 14, Some(70))]), "sole owner: no copy");
        assert_eq!(t.keys(), &keys_before[..], "an update moves no key");
        assert_eq!(
            (t.len(), t.get(7, 14), t.get(8, 16)),
            (20, Some(70), Some(8))
        );
        assert_well_formed(&t);
    }

    #[test]
    fn patching_a_clone_leaves_the_original_unchanged() {
        let entries: Vec<(u32, u32, u32)> = (0..50u32).map(|i| (i, i ^ 3, i)).collect();
        let original = FrozenPairTable::from_entries(&entries);
        let mut copy = original.clone();
        let changes = [(1, 1 ^ 3, None), (2, 2 ^ 3, Some(200)), (900, 1, Some(9))];
        assert!(copy.patch(&changes), "shared arrays are copied");
        assert!(!copy.patch(&[(3, 3 ^ 3, Some(300))]), "then owned");
        for &(a, b, v) in &entries {
            assert_eq!(original.get(a, b), Some(v));
        }
        assert_eq!(original.get(900, 1), None);
        assert_eq!((copy.get(1, 1 ^ 3), copy.get(2, 2 ^ 3)), (None, Some(200)));
        assert_eq!((copy.get(3, 3 ^ 3), copy.get(900, 1)), (Some(300), Some(9)));
        assert_well_formed(&original);
        assert_well_formed(&copy);
    }

    proptest! {
        /// Patching ≡ a `HashMap` model over random upsert/remove batches.
        /// Each batch patches in place when the new entry count keeps the
        /// slot count (re-freezing from the model otherwise, as the
        /// dynamic dictionary does); after every batch the table is a valid
        /// raw table of the right size whose hits and misses equal the
        /// model's, and a clone taken before the batch still answers as
        /// the model did then.
        #[test]
        fn patch_equals_a_hashmap_model(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..8, 0u32..10), 0..24), 1..30),
        ) {
            let mut model: std::collections::HashMap<(u32, u32), u32> = Default::default();
            let mut t = FrozenPairTable::from_entries(&[]);
            for (step, batch) in batches.iter().enumerate() {
                let mut last: std::collections::HashMap<(u32, u32), Option<u32>> =
                    Default::default();
                for &(a, b, op) in batch {
                    last.insert((a, b), (op >= 3).then_some(op * 1000 + step as u32));
                }
                let changes: Vec<(u32, u32, Option<u32>)> =
                    last.iter().map(|(&(a, b), &v)| (a, b, v)).collect();
                let (before, model_before) = (t.clone(), model.clone());
                for &(a, b, v) in &changes {
                    match v {
                        Some(v) => model.insert((a, b), v),
                        None => model.remove(&(a, b)),
                    };
                }
                if FrozenPairTable::slots_for(model.len()) == t.slots_len() {
                    t.patch(&changes);
                } else {
                    let entries: Vec<(u32, u32, u32)> =
                        model.iter().map(|(&(a, b), &v)| (a, b, v)).collect();
                    t = FrozenPairTable::from_entries(&entries);
                }
                prop_assert!(FrozenPairTable::from_raw_parts(
                    t.keys().into(), t.vals().into(), t.len()).is_ok());
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.slots_len(), FrozenPairTable::slots_for(model.len()));
                for a in 0..66u32 {
                    for b in 0..9u32 {
                        prop_assert_eq!(t.get(a, b), model.get(&(a, b)).copied());
                        prop_assert_eq!(before.get(a, b), model_before.get(&(a, b)).copied());
                    }
                }
            }
        }
    }

    proptest! {
        /// FrozenPairTable ≡ ConcPairTable on random insert sets, probed
        /// with both inserted keys (hits) and arbitrary keys (mostly
        /// misses).
        #[test]
        fn frozen_equals_conc(
            inserts in proptest::collection::vec((0u32..5000, 0u32..5000), 0..400),
            probes in proptest::collection::vec((0u32..6000, 0u32..6000), 0..200),
        ) {
            let t = ConcPairTable::with_capacity(inserts.len().max(1));
            let ctr = AtomicU32::new(1);
            for &(a, b) in &inserts {
                t.get_or_insert(a, b, || ctr.fetch_add(1, Ordering::Relaxed));
            }
            let f = FrozenPairTable::freeze(&t);
            prop_assert_eq!(f.len(), t.len());
            for &(a, b) in inserts.iter().chain(probes.iter()) {
                prop_assert_eq!(f.get(a, b), t.get(a, b));
            }
        }
    }
}
