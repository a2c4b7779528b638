//! Direct-addressed maps keyed by dictionary names.
//!
//! Names come from a monotone pool, so the dictionary name space is dense:
//! `1 ..= pool.allocated()`. That lets the per-prefix attributes the
//! algorithms need (owning pattern, longest pattern that is a prefix) live
//! in flat arrays — the faithful analogue of the paper's direct-addressed
//! tables, at `O(#names)` instead of `O(M²)` space.

use std::sync::atomic::{AtomicU64, Ordering};

const EMPTY: u64 = u64::MAX;

/// Pack `(hi, lo)` into the stored `u64`. `hi = u32::MAX` is reserved.
#[inline]
pub fn pack2(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Unpack a stored value.
#[inline]
pub fn unpack2(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Concurrent name-indexed map used during dictionary builds.
#[derive(Debug)]
pub struct AtomicNameMap {
    slots: Vec<AtomicU64>,
}

impl AtomicNameMap {
    /// Map covering names `0 .. n_names`.
    pub fn new(n_names: usize) -> Self {
        Self {
            slots: (0..n_names).map(|_| AtomicU64::new(EMPTY)).collect(),
        }
    }

    /// Arbitrary-winner write (all concurrent writers carry equal values in
    /// our uses: the value is a function of the name's string content).
    #[inline]
    pub fn set(&self, name: u32, v: u64) {
        debug_assert_ne!(v, EMPTY);
        self.slots[name as usize].store(v, Ordering::Relaxed);
    }

    /// Min-priority write (deterministic representative selection).
    #[inline]
    pub fn set_min(&self, name: u32, v: u64) {
        debug_assert_ne!(v, EMPTY);
        self.slots[name as usize].fetch_min(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, name: u32) -> Option<u64> {
        let v = self.slots[name as usize].load(Ordering::Relaxed);
        (v != EMPTY).then_some(v)
    }

    /// Freeze into the read-only form used at match time.
    pub fn freeze(self) -> NameMap {
        NameMap {
            slots: self.slots.into_iter().map(|a| a.into_inner()).collect(),
        }
    }
}

/// Read-only name-indexed map (post-build).
#[derive(Debug, Clone)]
pub struct NameMap {
    slots: Vec<u64>,
}

impl NameMap {
    #[inline]
    pub fn get(&self, name: u32) -> Option<u64> {
        let v = *self.slots.get(name as usize)?;
        (v != EMPTY).then_some(v)
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stored values, skipping empty slots.
    pub(crate) fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&v| v != EMPTY)
    }

    /// Raw slots (`u64::MAX` = empty) for serialization.
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Rebuild from raw slots.
    pub fn from_slots(slots: Vec<u64>) -> Self {
        NameMap { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        assert_eq!(unpack2(pack2(7, 9)), (7, 9));
        assert_eq!(unpack2(pack2(0, 0)), (0, 0));
    }

    #[test]
    fn set_get_freeze() {
        let m = AtomicNameMap::new(10);
        assert_eq!(m.get(3), None);
        m.set(3, pack2(1, 2));
        assert_eq!(m.get(3), Some(pack2(1, 2)));
        let f = m.freeze();
        assert_eq!(f.get(3), Some(pack2(1, 2)));
        assert_eq!(f.get(4), None);
        assert_eq!(f.get(99), None, "out of range reads are None");
    }

    #[test]
    fn set_min_keeps_minimum() {
        let m = AtomicNameMap::new(4);
        m.set_min(0, 50);
        m.set_min(0, 20);
        m.set_min(0, 90);
        assert_eq!(m.get(0), Some(20));
    }
}
