//! Dynamic namestamping variants (paper §6).
//!
//! * **Partly-dynamic namestamping** (§6.1): inserts only. Realized by
//!   [`DynTable`] with reference counting ignored (counts still maintained —
//!   they are free — but never decremented). The tables grow amortized;
//!   §6.1.1's worst-case (de-amortized) growth is not reproduced
//!   (DESIGN.md §2).
//! * **Dynamic stamp-counting** (§6.2.1): each element tracks how many live
//!   tuples carry it; deleting a pattern decrements, and the entry (and its
//!   name) disappears at zero. [`DynTable::release`].
//! * **Dynamic stamp-listing** (§6.2.1): each element tracks the *set* of
//!   stamps of its live tuples, for when the surviving stamp's identity
//!   matters (the retrieve-index problem). [`StampList`].
//!
//! The paper notes stamp-counting is exactly as hard as integer sorting and
//! implements lists over quadratic-space arrays; we substitute hash-backed
//! storage with counted entries and identical semantics (DESIGN.md §2).

use crate::arena::NamePool;
use pdm_primitives::{FxHashMap, PairMap};
use std::sync::Arc;

/// Growable pair→name table with reference counts, for the dynamic
/// dictionary. Single-writer (the dictionary owner); matching only reads.
/// Cloning copies the map but shares the pool, so a clone can keep
/// allocating names without colliding with the original.
///
/// While frozen copies of the table exist, the table also logs the packed
/// keys whose entry it creates or removes, over the last two spans between
/// marks ([`Self::mark_log`], [`Self::logged`]): all a patch of the copy
/// frozen at the mark before last needs to know. Reference count changes
/// leave an entry's name alone, so they are not logged.
#[derive(Debug, Clone)]
pub struct DynTable {
    map: PairMap,
    pool: Arc<NamePool>,
    log: Option<ChangeLog>,
}

/// Keys logged since the mark before last; `keys[mark..]` came after the
/// last mark.
#[derive(Debug, Clone, Default)]
struct ChangeLog {
    keys: Vec<u64>,
    mark: usize,
}

impl DynTable {
    pub fn new(pool: Arc<NamePool>) -> Self {
        Self {
            map: PairMap::new(),
            pool,
            log: None,
        }
    }

    /// Mark the log, starting it if the table was not logging: keys logged
    /// before the previous mark are dropped, so [`Self::logged`] returns
    /// the keys changed since that previous mark.
    pub fn mark_log(&mut self) {
        let log = self.log.get_or_insert_with(ChangeLog::default);
        log.keys.drain(..log.mark);
        log.mark = log.keys.len();
    }

    /// Keys created or removed since the mark before last (each at most a
    /// few times, in no useful order); empty when not logging.
    pub fn logged(&self) -> &[u64] {
        self.log.as_ref().map_or(&[], |l| &l.keys)
    }

    #[inline]
    fn log_if(&mut self, changed: bool, a: u32, b: u32) {
        if let (true, Some(log)) = (changed, &mut self.log) {
            log.keys.push(pdm_primitives::table::pack(a, b));
        }
    }

    /// Name of `(a, b)`, allocating if absent; increments the entry's
    /// reference count (one count per contributing pattern occurrence).
    #[inline]
    pub fn name_ref(&mut self, a: u32, b: u32) -> u32 {
        let len = self.map.len();
        let name = self.map.get_or_insert_ref(a, b, || self.pool.fresh());
        self.log_if(self.map.len() > len, a, b);
        name
    }

    /// Read-only lookup (used by `match` operations).
    #[inline]
    pub fn lookup(&self, a: u32, b: u32) -> Option<u32> {
        self.map.get(a, b)
    }

    /// Associate `(a, b)` with a caller-provided existing name (extension
    /// tables) and add one reference. All writers of a key carry the same
    /// value, as in [`crate::arena::NameTable::insert_assoc`].
    #[inline]
    pub fn assoc_ref(&mut self, a: u32, b: u32, v: u32) -> u32 {
        let len = self.map.len();
        let got = self.map.get_or_insert_ref(a, b, || v);
        debug_assert_eq!(got, v, "assoc_ref callers must agree on the value");
        self.log_if(self.map.len() > len, a, b);
        got
    }

    /// Drop one reference to `(a, b)`; the entry vanishes at zero.
    /// Returns `true` if the entry was removed.
    #[inline]
    pub fn release(&mut self, a: u32, b: u32) -> bool {
        let removed = self.map.release(a, b);
        self.log_if(removed, a, b);
        removed
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn refs(&self, a: u32, b: u32) -> u32 {
        self.map.refs(a, b)
    }

    /// All live `(a, b, name)` entries, unordered (freezing support,
    /// mirror of [`crate::arena::NameTable::entries`]).
    pub fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.map
            .iter_entries()
            .map(|(k, name)| {
                let (a, b) = pdm_primitives::table::unpack(k);
                (a, b, name)
            })
            .collect()
    }
}

/// Dynamic stamp-listing: element name → multiset of stamps.
///
/// `any` returns an arbitrary live stamp (the arbitrary-CRCW answer);
/// `remove` deletes one occurrence of a specific stamp.
#[derive(Debug, Default, Clone)]
pub struct StampList {
    map: FxHashMap<u32, Vec<u32>>,
}

impl StampList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one occurrence of `stamp` under `element`.
    pub fn insert(&mut self, element: u32, stamp: u32) {
        self.map.entry(element).or_default().push(stamp);
    }

    /// Remove one occurrence of `stamp` under `element`.
    /// Returns `true` if found and removed.
    pub fn remove(&mut self, element: u32, stamp: u32) -> bool {
        if let Some(v) = self.map.get_mut(&element) {
            if let Some(pos) = v.iter().position(|&s| s == stamp) {
                v.swap_remove(pos);
                if v.is_empty() {
                    self.map.remove(&element);
                }
                return true;
            }
        }
        false
    }

    /// An arbitrary live stamp for `element`.
    pub fn any(&self, element: u32) -> Option<u32> {
        self.map.get(&element).and_then(|v| v.first().copied())
    }

    /// All live stamps for `element` (order unspecified).
    pub fn all(&self, element: u32) -> &[u32] {
        self.map.get(&element).map_or(&[], |v| v.as_slice())
    }

    /// Number of live stamps for `element`.
    pub fn count(&self, element: u32) -> usize {
        self.map.get(&element).map_or(0, |v| v.len())
    }

    /// Number of distinct elements with live stamps.
    pub fn elements(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyn_table_insert_lookup_release() {
        let mut t = DynTable::new(NamePool::dictionary());
        let n = t.name_ref(1, 2);
        assert_eq!(t.name_ref(1, 2), n);
        assert_eq!(t.refs(1, 2), 2);
        assert_eq!(t.lookup(1, 2), Some(n));
        assert!(!t.release(1, 2));
        assert_eq!(t.lookup(1, 2), Some(n));
        assert!(t.release(1, 2));
        assert_eq!(t.lookup(1, 2), None);
        assert!(t.is_empty());
    }

    #[test]
    fn dyn_table_reinsert_gets_fresh_name() {
        let mut t = DynTable::new(NamePool::dictionary());
        let n1 = t.name_ref(1, 2);
        t.release(1, 2);
        let n2 = t.name_ref(1, 2);
        // Names need not be reused after full deletion; only consistency of
        // live entries matters.
        assert_ne!(n1, n2);
    }

    #[test]
    fn dyn_table_logs_created_and_removed_keys_over_two_marks() {
        use pdm_primitives::table::pack;
        let mut t = DynTable::new(NamePool::dictionary());
        t.name_ref(1, 2);
        assert!(t.logged().is_empty(), "no frozen copy, no log");
        t.mark_log();
        t.name_ref(1, 2); // refcount only
        t.name_ref(3, 4); // created
        t.assoc_ref(5, 6, 77); // created
        assert!(!t.release(1, 2)); // refcount only
        assert!(t.release(3, 4)); // removed
        assert_eq!(t.logged(), [pack(3, 4), pack(5, 6), pack(3, 4)]);
        t.mark_log();
        t.name_ref(7, 7);
        assert_eq!(t.logged().len(), 4, "both spans since the first mark");
        t.mark_log();
        assert_eq!(t.logged(), [pack(7, 7)], "the span before dropped");
    }

    #[test]
    fn stamp_list_lifecycle() {
        let mut s = StampList::new();
        s.insert(10, 100);
        s.insert(10, 200);
        s.insert(10, 100);
        s.insert(20, 300);
        assert_eq!(s.count(10), 3);
        assert_eq!(s.elements(), 2);
        assert!(s.any(10).is_some());
        assert!(s.remove(10, 100));
        assert_eq!(s.count(10), 2);
        assert!(s.remove(10, 100));
        assert!(!s.remove(10, 100), "only two occurrences existed");
        assert_eq!(s.all(10), &[200]);
        assert!(s.remove(10, 200));
        assert_eq!(s.any(10), None);
        assert_eq!(s.elements(), 1);
    }

    #[test]
    fn stamp_list_remove_absent_element() {
        let mut s = StampList::new();
        assert!(!s.remove(5, 5));
        assert_eq!(s.any(5), None);
        assert_eq!(s.all(5), &[] as &[u32]);
    }
}
