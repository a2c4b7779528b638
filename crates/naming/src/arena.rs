//! Name pools and namestamping tables.
//!
//! A *name* is a `u32` identifying string content. All dictionary-side
//! tables of one matcher share one [`NamePool`], so every allocated name is
//! globally unique across tables: if a name appears anywhere, it denotes
//! exactly one string. Text processing allocates from a second pool based at
//! [`TEXT_NAME_BASE`], realizing the paper's requirement that substrings
//! appearing only in the text get "special symbols" distinct from
//! dictionary names (§3.1) — a text-local name can never be mistaken for a
//! dictionary name.

use pdm_primitives::{ConcPairTable, FrozenPairTable};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Name of the empty string (the fold identity of prefix-naming).
pub const IDENTITY: u32 = 0;

/// First name of the text-local name space.
pub const TEXT_NAME_BASE: u32 = 0x8000_0000;

/// The collapsed text-local name: every substring that occurs in the text
/// but not in the dictionary gets *this one* name on the fast path.
///
/// Dictionary tables only ever contain pairs of dictionary names, so a pair
/// with any text-local half misses the table no matter *which* text-local
/// name it carries — distinct text-local names are indistinguishable to
/// every dictionary-side lookup. Collapsing them to a single sentinel
/// therefore preserves all match output while eliminating the shared-pool
/// `fetch_add` and the text-side table insertion per novel substring
/// (argument spelled out in DESIGN.md §11; verified against the
/// text-local-overlay scheme by the `sentinel_equiv` proptests).
///
/// The value sits inside the text-local space so [`NamePool::is_text_local`]
/// holds for it, and clear of the reserved `u32::MAX` / `u32::MAX - 1`
/// sentinels used by tables and matchers.
pub const TEXT_MISS: u32 = u32::MAX - 7;

/// Monotone allocator of fresh names.
#[derive(Debug)]
pub struct NamePool {
    next: AtomicU32,
    base: u32,
    limit: u32,
}

impl NamePool {
    /// Dictionary-side pool: names `1 .. TEXT_NAME_BASE`.
    pub fn dictionary() -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU32::new(1),
            base: 1,
            limit: TEXT_NAME_BASE,
        })
    }

    /// Dictionary-side pool resumed past already-allocated names (for
    /// deserialized tables, where the names come from the serialized form).
    pub fn dictionary_resumed(allocated: u32) -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU32::new(1 + allocated),
            base: 1,
            limit: TEXT_NAME_BASE,
        })
    }

    /// Text-local pool: names `TEXT_NAME_BASE .. u32::MAX`.
    pub fn text_local() -> Arc<Self> {
        Arc::new(Self {
            next: AtomicU32::new(TEXT_NAME_BASE),
            base: TEXT_NAME_BASE,
            limit: u32::MAX,
        })
    }

    /// Allocate a fresh name.
    #[inline]
    pub fn fresh(&self) -> u32 {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(n < self.limit, "name pool exhausted");
        n
    }

    /// Number of names allocated so far.
    pub fn allocated(&self) -> u32 {
        self.next.load(Ordering::Relaxed) - self.base
    }

    /// Whether `name` belongs to the text-local space.
    #[inline]
    pub fn is_text_local(name: u32) -> bool {
        name >= TEXT_NAME_BASE && name != u32::MAX
    }
}

/// A namestamping table: injective `(u32, u32) → name` with names drawn from
/// a shared pool. This is the paper's Fact 1 object — constant-time
/// concurrent stamping with an arbitrary winner allocating the stamp.
#[derive(Debug)]
pub struct NameTable {
    table: ConcPairTable,
    pool: Arc<NamePool>,
}

impl NameTable {
    pub fn with_capacity(cap: usize, pool: Arc<NamePool>) -> Self {
        Self {
            table: ConcPairTable::with_capacity(cap),
            pool,
        }
    }

    /// Name of `(a, b)`, allocated on first sight. Thread-safe.
    #[inline]
    pub fn name(&self, a: u32, b: u32) -> u32 {
        self.table.get_or_insert(a, b, || self.pool.fresh())
    }

    /// Read-only lookup.
    #[inline]
    pub fn lookup(&self, a: u32, b: u32) -> Option<u32> {
        self.table.get(a, b)
    }

    /// Associate `(a, b)` with a caller-provided value instead of a fresh
    /// name — for tables whose values are *existing* names, e.g. the
    /// extension tables of §4.1 mapping `(prefix-name, block-name)` to the
    /// longer prefix's name. Concurrent writers of the same key must carry
    /// equal values (they do: the value is a function of the key's content);
    /// the first writer wins and the winner's value is returned.
    #[inline]
    pub fn insert_assoc(&self, a: u32, b: u32, v: u32) -> u32 {
        let got = self.table.get_or_insert(a, b, || v);
        debug_assert_eq!(got, v, "insert_assoc callers must agree on the value");
        got
    }

    /// Name of a short tuple, by chaining pairs left to right:
    /// `δ(((t₀,t₁),t₂),…)`. Every arity uses this same fixed shape, so equal
    /// tuples get equal names. Single-element tuples name `(t₀, IDENTITY)`
    /// to stay injective against pair names.
    pub fn name_tuple(&self, t: &[u32]) -> u32 {
        match t.len() {
            0 => IDENTITY,
            1 => self.name(t[0], IDENTITY),
            _ => {
                let mut acc = self.name(t[0], t[1]);
                for &x in &t[2..] {
                    acc = self.name(acc, x);
                }
                acc
            }
        }
    }

    /// Read-only tuple lookup with the same shape as [`Self::name_tuple`].
    pub fn lookup_tuple(&self, t: &[u32]) -> Option<u32> {
        match t.len() {
            0 => Some(IDENTITY),
            1 => self.lookup(t[0], IDENTITY),
            _ => {
                let mut acc = self.lookup(t[0], t[1])?;
                for &x in &t[2..] {
                    acc = self.lookup(acc, x)?;
                }
                Some(acc)
            }
        }
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All `(a, b, name)` entries, unordered (freezing support).
    pub fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.table.entries()
    }

    /// Freeze the current contents into a read-only, atomics-free table for
    /// the text-side fast path. The live table keeps working (builds, §6
    /// dynamic updates); the frozen copy never sees later inserts.
    pub fn freeze(&self) -> FrozenNameTable {
        FrozenNameTable {
            table: FrozenPairTable::freeze(&self.table),
        }
    }
}

/// Read-only snapshot of a [`NameTable`]: plain-array open addressing, no
/// atomics, no allocation. Text-side lookups go through this; the live
/// [`NameTable`] remains the write side.
#[derive(Debug, Clone)]
pub struct FrozenNameTable {
    table: FrozenPairTable,
}

impl FrozenNameTable {
    /// Freeze an explicit `(a, b, name)` entry list.
    pub fn from_entries(entries: &[(u32, u32, u32)]) -> Self {
        Self {
            table: FrozenPairTable::from_entries(entries),
        }
    }

    /// Read-only lookup (mirror of [`NameTable::lookup`]).
    #[inline]
    pub fn lookup(&self, a: u32, b: u32) -> Option<u32> {
        self.table.get(a, b)
    }

    /// Start loading the slot a later [`Self::lookup`] of `(a, b)` probes
    /// first (see [`FrozenPairTable::prefetch`]).
    #[inline]
    pub fn prefetch(&self, a: u32, b: u32) {
        self.table.prefetch(a, b)
    }

    /// Read-only tuple lookup with the same left-chained shape as
    /// [`NameTable::name_tuple`].
    pub fn lookup_tuple(&self, t: &[u32]) -> Option<u32> {
        match t.len() {
            0 => Some(IDENTITY),
            1 => self.lookup(t[0], IDENTITY),
            _ => {
                let mut acc = self.lookup(t[0], t[1])?;
                for &x in &t[2..] {
                    acc = self.lookup(acc, x)?;
                }
                Some(acc)
            }
        }
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of slots (see [`FrozenPairTable::slots_for`]).
    pub fn slots_len(&self) -> usize {
        self.table.slots_len()
    }

    /// Apply final key states copy-on-write (see
    /// [`FrozenPairTable::patch`]); returns whether the slot arrays were
    /// copied because a clone still shared them.
    pub fn patch(&mut self, changes: &[(u32, u32, Option<u32>)]) -> bool {
        self.table.patch(changes)
    }

    /// The underlying frozen pair table — raw slot-array access for
    /// serializers that dump the table without rehashing.
    pub fn raw(&self) -> &FrozenPairTable {
        &self.table
    }

    /// Reassemble from a deserialized [`FrozenPairTable`] (see
    /// [`FrozenPairTable::from_raw_parts`]). Lookups are identical to the
    /// table that was serialized: probe order depends only on key and slot
    /// count, both preserved by the raw round trip.
    pub fn from_raw(table: FrozenPairTable) -> Self {
        Self { table }
    }

    /// All `(a, b, name)` entries in slot order (serialization support,
    /// mirror of [`NameTable::entries`]).
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.table.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_disjoint() {
        let d = NamePool::dictionary();
        let t = NamePool::text_local();
        let dn = d.fresh();
        let tn = t.fresh();
        assert!(dn < TEXT_NAME_BASE);
        assert!(NamePool::is_text_local(tn));
        assert!(!NamePool::is_text_local(dn));
        assert_eq!(d.allocated(), 1);
        assert_eq!(t.allocated(), 1);
    }

    #[test]
    fn identity_is_not_allocatable() {
        let d = NamePool::dictionary();
        assert_ne!(d.fresh(), IDENTITY);
    }

    #[test]
    fn table_names_consistent() {
        let pool = NamePool::dictionary();
        let t = NameTable::with_capacity(100, pool);
        let a = t.name(3, 4);
        assert_eq!(t.name(3, 4), a);
        assert_eq!(t.lookup(3, 4), Some(a));
        assert_eq!(t.lookup(4, 3), None);
        assert_ne!(t.name(4, 3), a);
    }

    #[test]
    fn tuple_naming_shapes() {
        let pool = NamePool::dictionary();
        let t = NameTable::with_capacity(100, pool);
        assert_eq!(t.name_tuple(&[]), IDENTITY);
        let one = t.name_tuple(&[7]);
        let pair = t.name_tuple(&[7, 0]);
        // (7) names (7, IDENTITY) == (7, 0) — identical content by design:
        // IDENTITY is the empty string, so (7)++"" == (7, "").
        assert_eq!(one, pair);
        let triple = t.name_tuple(&[1, 2, 3]);
        assert_eq!(t.name_tuple(&[1, 2, 3]), triple);
        assert_ne!(t.name_tuple(&[1, 3, 2]), triple);
        assert_eq!(t.lookup_tuple(&[1, 2, 3]), Some(triple));
        assert_eq!(t.lookup_tuple(&[9, 9, 9]), None);
    }

    #[test]
    fn text_miss_is_text_local_and_clear_of_sentinels() {
        assert!(NamePool::is_text_local(TEXT_MISS));
        assert_ne!(TEXT_MISS, u32::MAX); // ConcPairTable PENDING
        assert_ne!(TEXT_MISS, u32::MAX - 1); // matcher UNKNOWN sentinels
        assert_ne!(TEXT_MISS, IDENTITY);
    }

    #[test]
    fn frozen_table_mirrors_live_lookups() {
        let pool = NamePool::dictionary();
        let t = NameTable::with_capacity(64, pool);
        let ab = t.name(1, 2);
        let tri = t.name_tuple(&[4, 5, 6]);
        let f = t.freeze();
        assert_eq!(f.len(), t.len());
        assert_eq!(f.lookup(1, 2), Some(ab));
        assert_eq!(f.lookup(2, 1), None);
        assert_eq!(f.lookup_tuple(&[4, 5, 6]), Some(tri));
        assert_eq!(f.lookup_tuple(&[4, 6, 5]), None);
        assert_eq!(f.lookup_tuple(&[]), Some(IDENTITY));
        // Later inserts into the live table are invisible to the snapshot.
        t.name(9, 9);
        assert_eq!(f.lookup(9, 9), None);
    }

    #[test]
    fn frozen_raw_round_trip_preserves_lookups() {
        let pool = NamePool::dictionary();
        let t = NameTable::with_capacity(64, pool);
        for i in 0..40u32 {
            t.name(i, i * 3);
        }
        let f = t.freeze();
        let raw = f.raw();
        let rebuilt = FrozenNameTable::from_raw(
            FrozenPairTable::from_raw_parts(
                raw.keys().to_vec().into(),
                raw.vals().to_vec().into(),
                raw.len(),
            )
            .expect("valid raw parts"),
        );
        assert_eq!(rebuilt.len(), f.len());
        for i in 0..40u32 {
            assert_eq!(rebuilt.lookup(i, i * 3), f.lookup(i, i * 3));
        }
        assert_eq!(rebuilt.lookup(100, 100), None);
        assert_eq!(rebuilt.entries().count(), f.len());
    }

    #[test]
    fn shared_pool_names_globally_unique() {
        let pool = NamePool::dictionary();
        let t1 = NameTable::with_capacity(100, pool.clone());
        let t2 = NameTable::with_capacity(100, pool.clone());
        let mut all = Vec::new();
        for i in 0..50 {
            all.push(t1.name(i, 0));
            all.push(t2.name(i, 0));
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            100,
            "same key in different tables ⇒ different names"
        );
    }
}
