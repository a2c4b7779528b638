//! Concurrent name table: the CRCW "namestamping table" for parallel rounds.
//!
//! The paper's namestamping (§3.2, Fact 1) is a constant-time CRCW procedure:
//! every tuple writes into a table indexed by its element, an arbitrary
//! writer wins, and readers pick up the winner's stamp. We realize it as a
//! fixed-capacity open-addressing table with CAS claims:
//!
//! * a slot's key word is claimed by exactly one winner (a
//!   compare-and-swap from the empty key);
//! * the winner runs the (caller-supplied) name allocator and publishes the
//!   value; losers spin briefly on the pending value — the paper's "one of
//!   the tuples provides the stamp";
//! * lookups are lock-free loads.
//!
//! Capacity is fixed at construction because every use in the matching
//! algorithms knows its batch size in advance (the paper likewise sizes its
//! tables by the dictionary size, rebuilding when they fill — §6.1.1).

use crate::hash::mix64;
use crate::table::pack;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

const EMPTY_KEY: u64 = u64::MAX;
const PENDING: u32 = u32::MAX;

struct Slot {
    key: AtomicU64,
    val: AtomicU32,
}

/// Fixed-capacity concurrent `(u32, u32) → u32` map.
///
/// Keys must not be `(u32::MAX, u32::MAX)` and values must not be
/// `u32::MAX`; both sentinels are reserved (names and symbols in this
/// workspace never reach them).
pub struct ConcPairTable {
    slots: Box<[Slot]>,
    mask: usize,
    count: AtomicUsize,
    capacity: usize,
}

impl std::fmt::Debug for ConcPairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcPairTable")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ConcPairTable {
    /// Table able to hold `n` entries (sized to keep load factor ≤ ~0.5).
    pub fn with_capacity(n: usize) -> Self {
        let slots_len = (n.max(1) * 2).next_power_of_two();
        let slots: Box<[Slot]> = (0..slots_len)
            .map(|_| Slot {
                key: AtomicU64::new(EMPTY_KEY),
                val: AtomicU32::new(PENDING),
            })
            .collect();
        Self {
            slots,
            mask: slots_len - 1,
            count: AtomicUsize::new(0),
            capacity: n.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared capacity (entries, not slots).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Name of `(a, b)`, allocating via `alloc` if this is the first claim.
    ///
    /// Concurrent callers with the same key all receive the same name and
    /// `alloc` runs exactly once.
    pub fn get_or_insert(&self, a: u32, b: u32, alloc: impl FnOnce() -> u32) -> u32 {
        let key = pack(a, b);
        debug_assert_ne!(key, EMPTY_KEY, "reserved key");
        let mut idx = mix64(key) as usize & self.mask;
        let mut probes = 0usize;
        loop {
            let slot = &self.slots[idx];
            let cur = slot.key.load(Ordering::Acquire);
            if cur == key {
                return self.wait_value(slot);
            }
            if cur == EMPTY_KEY {
                match slot
                    .key
                    .compare_exchange(EMPTY_KEY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        let prev = self.count.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            prev < self.slots.len() - 1,
                            "ConcPairTable overfull: capacity {} exceeded",
                            self.capacity
                        );
                        let v = alloc();
                        debug_assert_ne!(v, PENDING, "reserved value");
                        slot.val.store(v, Ordering::Release);
                        return v;
                    }
                    Err(now) => {
                        if now == key {
                            return self.wait_value(slot);
                        }
                        // Someone else claimed this slot for another key;
                        // fall through to the next probe.
                    }
                }
            }
            idx = (idx + 1) & self.mask;
            probes += 1;
            assert!(
                probes <= self.slots.len(),
                "ConcPairTable probe loop exhausted (capacity {})",
                self.capacity
            );
        }
    }

    /// Lock-free lookup.
    pub fn get(&self, a: u32, b: u32) -> Option<u32> {
        let key = pack(a, b);
        let mut idx = mix64(key) as usize & self.mask;
        let mut probes = 0usize;
        loop {
            let slot = &self.slots[idx];
            let cur = slot.key.load(Ordering::Acquire);
            if cur == key {
                return Some(self.wait_value(slot));
            }
            if cur == EMPTY_KEY {
                return None;
            }
            idx = (idx + 1) & self.mask;
            probes += 1;
            if probes > self.slots.len() {
                return None;
            }
        }
    }

    #[inline]
    fn wait_value(&self, slot: &Slot) -> u32 {
        // The claimer publishes the value immediately after claiming; this
        // spin only covers that tiny window.
        loop {
            let v = slot.val.load(Ordering::Acquire);
            if v != PENDING {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Drain all `(key_a, key_b, value)` entries (for rebuilds/tests).
    pub fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.slots
            .iter()
            .filter_map(|s| {
                let k = s.key.load(Ordering::Acquire);
                (k != EMPTY_KEY).then(|| {
                    let v = self.wait_value(s);
                    let (a, b) = crate::table::unpack(k);
                    (a, b, v)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32 as Counter;

    #[test]
    fn same_key_same_name() {
        let t = ConcPairTable::with_capacity(16);
        let ctr = Counter::new(0);
        let n1 = t.get_or_insert(1, 2, || ctr.fetch_add(1, Ordering::Relaxed));
        let n2 = t.get_or_insert(1, 2, || ctr.fetch_add(1, Ordering::Relaxed));
        let n3 = t.get_or_insert(2, 1, || ctr.fetch_add(1, Ordering::Relaxed));
        assert_eq!(n1, n2);
        assert_ne!(n1, n3);
        assert_eq!(ctr.load(Ordering::Relaxed), 2);
        assert_eq!(t.get(1, 2), Some(n1));
        assert_eq!(t.get(3, 3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn concurrent_claims_allocate_once_per_key() {
        let t = ConcPairTable::with_capacity(1024);
        let ctr = Counter::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1024u32 {
                        let key = i % 512;
                        let n =
                            t.get_or_insert(key, key + 1, || ctr.fetch_add(1, Ordering::Relaxed));
                        assert_eq!(t.get(key, key + 1), Some(n));
                    }
                });
            }
        });
        assert_eq!(ctr.load(Ordering::Relaxed), 512);
        assert_eq!(t.len(), 512);
    }

    #[test]
    fn distinct_keys_distinct_names_with_shared_counter() {
        let t = ConcPairTable::with_capacity(10_000);
        let ctr = Counter::new(0);
        std::thread::scope(|s| {
            for th in 0..4u32 {
                let t = &t;
                let ctr = &ctr;
                s.spawn(move || {
                    for i in 0..2500u32 {
                        t.get_or_insert(th, i, || ctr.fetch_add(1, Ordering::Relaxed));
                    }
                });
            }
        });
        let mut names: Vec<u32> = t.entries().iter().map(|e| e.2).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10_000, "names must be distinct per key");
    }

    #[test]
    fn handles_collision_probing() {
        // Tiny table forces probe chains.
        let t = ConcPairTable::with_capacity(4);
        let ctr = Counter::new(0);
        for i in 0..4u32 {
            t.get_or_insert(i, 0, || ctr.fetch_add(1, Ordering::Relaxed));
        }
        for i in 0..4u32 {
            assert!(t.get(i, 0).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "overfull")]
    fn overfull_panics() {
        let t = ConcPairTable::with_capacity(2);
        let ctr = Counter::new(0);
        for i in 0..100u32 {
            t.get_or_insert(i, 7, || ctr.fetch_add(1, Ordering::Relaxed));
        }
    }
}
