//! A set-associative buffer with true-LRU replacement — the storage
//! substrate of the SBTB and CBTB. The paper's configuration (256-entry
//! fully associative) is `AssocBuffer::fully_associative(256)`; the
//! ablation benches sweep sizes and associativities.

use std::hash::{BuildHasher, Hasher};

/// Sets wider than this keep a key→way [`WayIndex`] so lookups stay
/// O(1); narrower sets are scanned linearly (cheaper than any hash for a
/// handful of entries). The fully-associative paper configs (256–1024
/// ways) are the ones the index exists for.
const INDEXED_WAYS_MIN: usize = 8;

/// Multiply-xorshift hasher for small integer keys (branch addresses,
/// site ids) — `SipHash`'s keyed setup costs more than the whole probe
/// for these tiny keys. Shared by every per-event hash lookup in the
/// crate.
#[derive(Clone, Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        let x = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

#[derive(Clone, Debug, Default)]
pub(crate) struct BuildKeyHasher;

impl BuildHasher for BuildKeyHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

/// A set-associative, true-LRU key→value buffer keyed by `u32` (branch
/// instruction addresses).
#[derive(Clone, Debug)]
pub struct AssocBuffer<V> {
    sets: Vec<Vec<Entry<V>>>,
    ways: usize,
    set_mask: u32,
    stamp: u64,
    /// key → way position inside its set (the set itself is derived
    /// from the key). `None` for narrow sets, which scan instead.
    index: Option<WayIndex>,
}

#[derive(Clone, Debug)]
struct Entry<V> {
    key: u32,
    value: V,
    stamp: u64,
}

impl<V> AssocBuffer<V> {
    /// A buffer with `sets × ways` entries.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two, or either argument is 0.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be positive");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        AssocBuffer {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            set_mask: (sets - 1) as u32,
            stamp: 0,
            index: (ways > INDEXED_WAYS_MIN).then(|| WayIndex::new(sets * ways)),
        }
    }

    /// A fully-associative buffer with `entries` entries.
    ///
    /// # Panics
    /// Panics if `entries` is 0.
    #[must_use]
    pub fn fully_associative(entries: usize) -> Self {
        Self::new(1, entries)
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    fn set_index(&self, key: u32) -> usize {
        (key & self.set_mask) as usize
    }

    /// Way position of `key` inside its set, if resident.
    fn find_way(&self, set: usize, key: u32) -> Option<usize> {
        match &self.index {
            Some(idx) => idx.get(key).map(|w| w as usize),
            None => self.sets[set].iter().position(|e| e.key == key),
        }
    }

    /// Look up `key`, refreshing its LRU position on a hit.
    pub fn lookup(&mut self, key: u32) -> Option<&mut V> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(key);
        let way = self.find_way(set, key)?;
        let e = &mut self.sets[set][way];
        e.stamp = stamp;
        Some(&mut e.value)
    }

    /// Like [`Self::lookup`], but also returns the entry's way position
    /// so the caller can come back via [`Self::touch`] /
    /// [`Self::remove_at`] without paying a second search. The position
    /// stays valid until the next operation that moves entries
    /// (insert-with-eviction, remove, flush).
    pub fn lookup_pos(&mut self, key: u32) -> Option<(u32, &mut V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(key);
        let way = self.find_way(set, key)?;
        let e = &mut self.sets[set][way];
        e.stamp = stamp;
        Some((way as u32, &mut e.value))
    }

    /// Revisit the entry a prior [`Self::lookup_pos`] found, refreshing
    /// its LRU stamp exactly as `lookup` would — without searching.
    /// Returns `None` (and leaves LRU state untouched) if `way` no
    /// longer holds `key`.
    pub fn touch(&mut self, key: u32, way: u32) -> Option<&mut V> {
        let set = self.set_index(key);
        let e = self.sets[set].get_mut(way as usize)?;
        if e.key != key {
            return None;
        }
        self.stamp += 1;
        e.stamp = self.stamp;
        Some(&mut e.value)
    }

    /// Look up `key` without touching LRU state.
    #[must_use]
    pub fn peek(&self, key: u32) -> Option<&V> {
        let set = self.set_index(key);
        let way = self.find_way(set, key)?;
        Some(&self.sets[set][way].value)
    }

    /// Insert or overwrite `key`, evicting the least-recently-used entry
    /// of a full set. Returns the evicted `(key, value)`, if any.
    pub fn insert(&mut self, key: u32, value: V) -> Option<(u32, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set_idx = self.set_index(key);
        if let Some(way) = self.find_way(set_idx, key) {
            let e = &mut self.sets[set_idx][way];
            e.value = value;
            e.stamp = stamp;
            return None;
        }
        let set = &mut self.sets[set_idx];
        if set.len() < self.ways {
            if let Some(idx) = &mut self.index {
                idx.insert(key, set.len() as u32);
            }
            set.push(Entry { key, value, stamp });
            return None;
        }
        // Capacity miss: the LRU scan is O(ways), but runs only on the
        // (rare) eviction path — hits and fills never reach it.
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
            .expect("full set is nonempty");
        let old = std::mem::replace(&mut set[victim], Entry { key, value, stamp });
        if let Some(idx) = &mut self.index {
            idx.remove(old.key);
            idx.insert(key, victim as u32);
        }
        Some((old.key, old.value))
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: u32) -> Option<V> {
        let set_idx = self.set_index(key);
        let pos = self.find_way(set_idx, key)?;
        Some(self.remove_entry(set_idx, pos))
    }

    /// Remove the entry a prior [`Self::lookup_pos`] found, without
    /// searching. Returns `None` if `way` no longer holds `key`.
    pub fn remove_at(&mut self, key: u32, way: u32) -> Option<V> {
        let set_idx = self.set_index(key);
        let pos = way as usize;
        if self.sets[set_idx].get(pos)?.key != key {
            return None;
        }
        Some(self.remove_entry(set_idx, pos))
    }

    fn remove_entry(&mut self, set_idx: usize, pos: usize) -> V {
        let set = &mut self.sets[set_idx];
        let removed = set.swap_remove(pos);
        if let Some(idx) = &mut self.index {
            idx.remove(removed.key);
            if let Some(moved) = set.get(pos) {
                idx.insert(moved.key, pos as u32);
            }
        }
        removed.value
    }

    /// Discard all entries (context switch). Costs O(resident entries),
    /// whatever the capacity.
    pub fn flush(&mut self) {
        if let Some(idx) = &mut self.index {
            idx.clear(self.sets.iter().flatten().map(|e| e.key));
        }
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// The key→way index of wide sets: an open-addressed table with linear
/// probing and backward-shift deletion, so it never holds tombstones.
/// Its size is fixed at construction — a power of two at least
/// [`INDEX_SLOTS_PER_ENTRY`] times the buffer's capacity — so memory is
/// bounded for any `u32` key. Each slot packs `key << 32 | way`; a way
/// of `u32::MAX` (never a real position) marks an empty slot.
#[derive(Clone, Debug)]
struct WayIndex {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the home slot is the top bits of a
    /// Fibonacci (multiplicative) hash of the key.
    shift: u32,
}

const EMPTY_SLOT: u64 = u64::MAX;

/// Index slots per buffer entry. At a load factor of ≤ ¼ a probe for an
/// absent key (every SBTB miss) almost always ends at its home slot; at
/// ½ the longer probe runs made the 256-entry SBTB ~15% slower on the
/// large-footprint `dispatch`/`router` traces, which evict constantly.
const INDEX_SLOTS_PER_ENTRY: usize = 4;

impl WayIndex {
    fn new(capacity: usize) -> Self {
        let len = (INDEX_SLOTS_PER_ENTRY * capacity).next_power_of_two();
        WayIndex {
            slots: vec![EMPTY_SLOT; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Slot holding `key`, or the empty slot that ends its probe run.
    fn probe(&self, key: u32) -> (usize, bool) {
        let mask = self.mask();
        let mut i = self.home(key);
        for _ in 0..self.slots.len() {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return (i, false);
            }
            if (slot >> 32) as u32 == key {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
        unreachable!("way index has no empty slot at quarter load")
    }

    fn get(&self, key: u32) -> Option<u32> {
        match self.probe(key) {
            (i, true) => Some(self.slots[i] as u32),
            (_, false) => None,
        }
    }

    /// Map `key` to `way`, overwriting any previous way.
    fn insert(&mut self, key: u32, way: u32) {
        let (i, _) = self.probe(key);
        self.slots[i] = u64::from(key) << 32 | u64::from(way);
    }

    fn remove(&mut self, key: u32) {
        let (mut hole, found) = self.probe(key);
        if !found {
            return;
        }
        // Backward shift: pull each later entry of the run into the
        // hole unless its home lies cyclically after the hole (moving
        // it would put it before its home, out of its probe run).
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot == EMPTY_SLOT {
                break;
            }
            let home = self.home((slot >> 32) as u32);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
    }

    /// Empty the table given every resident key. Each key's slot lies
    /// in the run of occupied slots starting at its home, and every
    /// occupied slot belongs to a resident key, so clearing from each
    /// home to the next empty slot empties the table in O(keys).
    fn clear(&mut self, keys: impl Iterator<Item = u32>) {
        let mask = self.mask();
        for key in keys {
            let mut i = self.home(key);
            while self.slots[i] != EMPTY_SLOT {
                self.slots[i] = EMPTY_SLOT;
                i = (i + 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup_hits() {
        let mut b = AssocBuffer::fully_associative(4);
        assert!(b.insert(10, "a").is_none());
        assert_eq!(b.lookup(10), Some(&mut "a"));
        assert_eq!(b.lookup(11), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut b = AssocBuffer::fully_associative(2);
        b.insert(1, 1);
        b.insert(2, 2);
        b.lookup(1); // 2 is now LRU
        let evicted = b.insert(3, 3);
        assert_eq!(evicted, Some((2, 2)));
        assert!(b.peek(1).is_some());
        assert!(b.peek(3).is_some());
        assert!(b.peek(2).is_none());
    }

    #[test]
    fn insert_existing_key_overwrites_without_eviction() {
        let mut b = AssocBuffer::fully_associative(2);
        b.insert(1, 1);
        b.insert(2, 2);
        assert!(b.insert(1, 100).is_none());
        assert_eq!(b.peek(1), Some(&100));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut b = AssocBuffer::fully_associative(8);
        for k in 0..100 {
            b.insert(k, k);
            assert!(b.len() <= 8);
        }
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn set_associative_maps_keys_to_sets() {
        // 4 sets × 1 way: keys 0 and 4 collide (same set), 0 and 1 don't.
        let mut b = AssocBuffer::new(4, 1);
        b.insert(0, "zero");
        b.insert(1, "one");
        assert_eq!(b.len(), 2);
        let evicted = b.insert(4, "four");
        assert_eq!(evicted, Some((0, "zero")));
        assert_eq!(b.peek(1), Some(&"one"));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut b = AssocBuffer::fully_associative(2);
        b.insert(1, 1);
        b.insert(2, 2);
        let _ = b.peek(1); // does NOT protect 1
        let evicted = b.insert(3, 3);
        assert_eq!(evicted, Some((1, 1)));
    }

    #[test]
    fn remove_and_flush() {
        let mut b = AssocBuffer::fully_associative(4);
        b.insert(1, 1);
        b.insert(2, 2);
        assert_eq!(b.remove(1), Some(1));
        assert_eq!(b.remove(1), None);
        b.flush();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = AssocBuffer::<()>::new(3, 2);
    }

    #[test]
    fn lookup_pos_touch_and_remove_at_reuse_the_found_way() {
        let mut b = AssocBuffer::fully_associative(2);
        b.insert(1, 10);
        b.insert(2, 20);
        let (way, v) = b.lookup_pos(1).unwrap();
        assert_eq!(*v, 10);
        *b.touch(1, way).unwrap() = 11;
        assert_eq!(b.peek(1), Some(&11));
        // touch refreshed 1's stamp, so 2 is now the LRU victim.
        assert_eq!(b.insert(3, 30), Some((2, 20)));
        // Stale positions are rejected, not misattributed.
        assert_eq!(b.touch(2, way), None);
        let (way1, _) = b.lookup_pos(1).unwrap();
        assert_eq!(b.remove_at(1, way1), Some(11));
        assert_eq!(b.remove_at(1, way1), None);
        assert_eq!(b.peek(3), Some(&30));
    }

    // 16 ways crosses INDEXED_WAYS_MIN, so these exercise the hash-index
    // fast path; the LRU outcomes must match the scanned semantics above.

    #[test]
    fn indexed_wide_set_preserves_lru_order() {
        let mut b = AssocBuffer::fully_associative(16);
        for k in 0..16 {
            b.insert(k, k);
        }
        for k in 1..16 {
            b.lookup(k); // key 0 is now the unique LRU entry
        }
        assert_eq!(b.insert(100, 100), Some((0, 0)));
        assert_eq!(b.peek(100), Some(&100));
        assert_eq!(b.peek(0), None);
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn indexed_remove_keeps_index_consistent() {
        let mut b = AssocBuffer::fully_associative(16);
        for k in 0..10 {
            b.insert(k, k);
        }
        // Removing from the middle swap-moves the last entry into the
        // hole; the moved key must stay findable through the index.
        assert_eq!(b.remove(3), Some(3));
        assert_eq!(b.lookup(9), Some(&mut 9));
        assert_eq!(b.remove(9), Some(9));
        assert_eq!(b.remove(9), None);
        assert_eq!(b.len(), 8);
        b.flush();
        assert!(b.is_empty());
        assert!(b.insert(3, 3).is_none());
        assert_eq!(b.peek(3), Some(&3));
    }
}
