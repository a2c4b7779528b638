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

use crate::conc_table::ConcPairTable;
use crate::hash::mix64;
use crate::table::pack;

const EMPTY_KEY: u64 = u64::MAX;

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
/// stops at the first empty slot. No atomics, no pending-value spins.
#[derive(Debug, Clone)]
pub struct FrozenPairTable {
    keys: Box<[u64]>,
    vals: Box<[u32]>,
    mask: usize,
    len: usize,
}

impl FrozenPairTable {
    /// Freeze `entries` (each `(a, b, value)`) into a read-only table.
    /// Slots are sized for load factor ≤ 0.25: the text side mostly probes
    /// *absent* keys (every text-local pair misses), and unsuccessful
    /// linear-probe searches are the ones that degrade with load, so the
    /// frozen table trades 12 bytes/slot for short miss chains.
    pub fn from_entries(entries: &[(u32, u32, u32)]) -> Self {
        let slots_len = (entries.len().max(1) * 4).next_power_of_two();
        let mask = slots_len - 1;
        let mut keys = vec![EMPTY_KEY; slots_len].into_boxed_slice();
        let mut vals = vec![0u32; slots_len].into_boxed_slice();
        for &(a, b, v) in entries {
            let key = pack(a, b);
            debug_assert_ne!(key, EMPTY_KEY, "reserved key");
            let mut idx = mix64(key) as usize & mask;
            loop {
                if keys[idx] == EMPTY_KEY {
                    keys[idx] = key;
                    vals[idx] = v;
                    break;
                }
                debug_assert_ne!(keys[idx], key, "duplicate key in frozen entries");
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
        keys: Box<[u64]>,
        vals: Box<[u32]>,
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
        let keys = f.keys().to_vec().into_boxed_slice();
        let vals = f.vals().to_vec().into_boxed_slice();
        let back = FrozenPairTable::from_raw_parts(keys, vals, f.len()).expect("valid parts");
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
        let keys = || f.keys().to_vec().into_boxed_slice();
        let vals = || f.vals().to_vec().into_boxed_slice();
        // len disagreeing with occupied slots.
        assert_eq!(
            FrozenPairTable::from_raw_parts(keys(), vals(), 1).err(),
            Some(RawTableError::EntryCount {
                len: 1,
                occupied: 2
            })
        );
        // Mismatched array lengths.
        let short: Box<[u32]> = f.vals()[..f.slots_len() - 1].to_vec().into_boxed_slice();
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
        let keys: Box<[u64]> = (0..4u32).map(|i| pack(i, 0)).collect();
        let vals: Box<[u32]> = vec![0; 4].into_boxed_slice();
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
