//! An O(1) least-recently-used map for the on-chip metadata caches.
//!
//! The controller's fully-associative caches (MAC lines, Merkle nodes,
//! CoW mappings) all need the same four operations on every simulated
//! access: look up and promote, insert at the most-recently-used end,
//! evict the least-recently-used entry, and drop an entry. [`LruMap`]
//! does each in O(1): entries live in a slab `Vec` threaded by a
//! doubly-linked recency list of `u32` slot indices, and a key→slot
//! index on [`FastHashMap`] finds them.
//!
//! The eviction order is exactly that of a cache which stamps every
//! access with a fresh, strictly increasing tick and evicts the
//! smallest stamp: promoting to the list head is "take the largest
//! tick", so the list tail is always the minimum. Capacity is the
//! caller's policy — the map never evicts on its own.

use crate::hash::FastHashMap;
use std::hash::Hash;

/// Null link.
const NIL: u32 = u32::MAX;
/// `prev` of a slot on the free list (never a valid link).
const FREE: u32 = u32::MAX - 1;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Towards the MRU end (`NIL` at the head, `FREE` when unused).
    prev: u32,
    /// Towards the LRU end (`NIL` at the tail); free-list link when
    /// unused.
    next: u32,
}

/// A map with O(1) recency tracking; see the module docs.
///
/// # Examples
///
/// ```
/// use lelantus_types::lru::LruMap;
///
/// let mut lru = LruMap::new();
/// lru.insert(1u64, 'a');
/// lru.insert(2u64, 'b');
/// assert_eq!(lru.get(&1), Some(&mut 'a')); // 2 is now LRU
/// assert_eq!(lru.pop_lru(), Some((2, 'b')));
/// assert_eq!(lru.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    index: FastHashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot.
    tail: u32,
    /// First unused slot (linked through `next`).
    free: u32,
}

impl<K: Copy + Eq + Hash, V: Copy> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash, V: Copy> LruMap<K, V> {
    /// An empty map; it allocates as entries arrive.
    pub fn new() -> Self {
        Self { index: FastHashMap::default(), nodes: Vec::new(), head: NIL, tail: NIL, free: NIL }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `key` is present (does not change recency).
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Looks `key` up and, if present, promotes it to most recently
    /// used.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        self.promote(slot);
        Some(&mut self.nodes[slot as usize].value)
    }

    /// Inserts or overwrites `key` and makes it most recently used.
    /// Returns the previous value if the key was present.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&slot) = self.index.get(&key) {
            self.promote(slot);
            return Some(std::mem::replace(&mut self.nodes[slot as usize].value, value));
        }
        let node = Node { key, value, prev: NIL, next: self.head };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&s| s < FREE)
                .expect("LruMap outgrew its u32 slot links");
            self.nodes.push(node);
            slot
        };
        self.link_front(slot);
        self.index.insert(key, slot);
        None
    }

    /// Removes and returns the least recently used entry.
    #[inline]
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let node = &self.nodes[slot as usize];
        let (key, value) = (node.key, node.value);
        self.index.remove(&key);
        self.release(slot);
        Some((key, value))
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        let value = self.nodes[slot as usize].value;
        self.release(slot);
        Some(value)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Iterates over every entry in slot order (neither key nor
    /// recency order), without changing recency.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.nodes.iter_mut().filter(|n| n.prev != FREE).map(|n| (&n.key, &mut n.value))
    }

    /// Keys from most to least recently used.
    #[cfg(test)]
    fn keys_mru(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.len());
        let mut slot = self.head;
        while slot != NIL {
            keys.push(self.nodes[slot as usize].key);
            slot = self.nodes[slot as usize].next;
        }
        keys
    }

    /// Moves `slot` to the head of the recency list.
    #[inline(always)]
    fn promote(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.nodes[slot as usize].next = self.head;
            self.link_front(slot);
        }
    }

    /// Makes `slot` (whose `next` is already the old head) the head.
    #[inline(always)]
    fn link_front(&mut self, slot: u32) {
        self.nodes[slot as usize].prev = NIL;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    #[inline(always)]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Unlinks `slot` and puts it on the free list.
    #[inline(always)]
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.prev = FREE;
        node.next = self.free;
        self.free = slot;
    }
}

/// The tick-stamped LRU that [`LruMap`] replaced, kept as a test
/// oracle: every access takes a fresh, strictly increasing tick and
/// eviction removes the smallest tick via a reverse `BTreeMap` index.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, HashMap};

    pub struct TickLru<V> {
        entries: HashMap<u64, (V, u64)>,
        lru: BTreeMap<u64, u64>,
        tick: u64,
    }

    impl<V: Copy> TickLru<V> {
        pub fn new() -> Self {
            Self { entries: HashMap::new(), lru: BTreeMap::new(), tick: 0 }
        }

        fn stamp(&mut self, key: u64) {
            self.tick += 1;
            let e = self.entries.get_mut(&key).expect("present");
            let old = std::mem::replace(&mut e.1, self.tick);
            self.lru.remove(&old);
            self.lru.insert(self.tick, key);
        }

        pub fn get(&mut self, key: u64) -> Option<V> {
            let v = self.entries.get(&key)?.0;
            self.stamp(key);
            Some(v)
        }

        pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
            let old = self.entries.insert(key, (value, 0)).map(|(v, t)| {
                self.lru.remove(&t);
                v
            });
            self.stamp(key);
            old
        }

        pub fn pop_lru(&mut self) -> Option<(u64, V)> {
            let (_, key) = self.lru.pop_first()?;
            Some((key, self.entries.remove(&key).expect("present").0))
        }

        pub fn remove(&mut self, key: u64) -> Option<V> {
            let (v, t) = self.entries.remove(&key)?;
            self.lru.remove(&t);
            Some(v)
        }

        pub fn clear(&mut self) {
            self.entries.clear();
            self.lru.clear();
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Keys from most to least recently used.
        pub fn keys_mru(&self) -> Vec<u64> {
            self.lru.values().rev().copied().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::TickLru;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn promote_insert_pop_order() {
        let mut m = LruMap::new();
        for k in 0..4u64 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.keys_mru(), [3, 2, 1, 0]);
        assert_eq!(m.get(&1), Some(&mut 10));
        assert_eq!(m.insert(0, 7), Some(0));
        assert_eq!(m.keys_mru(), [0, 1, 3, 2]);
        assert_eq!(m.pop_lru(), Some((2, 20)));
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.keys_mru(), [0, 3]);
        // Freed slots are reused before the slab grows.
        m.insert(8, 80);
        m.insert(9, 90);
        assert_eq!(m.nodes.len(), 4);
        let mut all: Vec<_> = m.iter_mut().map(|(k, v)| (*k, *v)).collect();
        all.sort_unstable();
        assert_eq!(all, [(0, 7), (3, 30), (8, 80), (9, 90)]);
        m.clear();
        assert!(m.is_empty() && m.pop_lru().is_none());
    }

    #[test]
    fn contains_key_does_not_promote() {
        let mut m = LruMap::new();
        m.insert(1u64, ());
        m.insert(2u64, ());
        assert!(m.contains_key(&1));
        assert_eq!(m.pop_lru(), Some((1, ())));
    }

    /// One operation of a cache soup.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u64),
        /// Insert, evicting the LRU entry first when a new key would
        /// exceed the capacity (the caches' fill path).
        Fill(u64, u32),
        Remove(u64),
        Pop,
        Clear,
    }

    fn op(kind: u8, key: u64, value: u32) -> Op {
        match kind {
            0..=39 => Op::Get(key),
            40..=79 => Op::Fill(key, value),
            80..=91 => Op::Remove(key),
            92..=98 => Op::Pop,
            _ => Op::Clear,
        }
    }

    /// Drives `LruMap` and the tick oracle through one soup and
    /// asserts the same hits, misses, victims and `len` at every step.
    fn run_soup(capacity: usize, ops: &[Op]) {
        let mut fast = LruMap::new();
        let mut oracle = TickLru::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Get(k) => assert_eq!(fast.get(&k).copied(), oracle.get(k), "get #{i}"),
                Op::Fill(k, v) => {
                    let (mut fv, mut ov) = (None, None);
                    if !fast.contains_key(&k) && fast.len() >= capacity {
                        fv = fast.pop_lru();
                        ov = oracle.pop_lru();
                    }
                    assert_eq!(fv, ov, "victim #{i}");
                    assert_eq!(fast.insert(k, v), oracle.insert(k, v), "fill #{i}");
                }
                Op::Remove(k) => assert_eq!(fast.remove(&k), oracle.remove(k), "remove #{i}"),
                Op::Pop => assert_eq!(fast.pop_lru(), oracle.pop_lru(), "pop #{i}"),
                Op::Clear => {
                    fast.clear();
                    oracle.clear();
                }
            }
            assert_eq!(fast.len(), oracle.len(), "len #{i}");
            assert!(fast.len() <= capacity);
        }
        assert_eq!(fast.keys_mru(), oracle.keys_mru());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Capacities 1 and 8 over a key space a little wider than the
        /// cache, so hits, misses, evictions and re-inserts after
        /// remove all happen often.
        #[test]
        fn prop_matches_tick_oracle_small(
            ops in prop::collection::vec((0u8..100, 0u64..12, any::<u32>()), 1..400),
            wide in any::<bool>(),
        ) {
            let capacity = if wide { 8 } else { 1 };
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|(kind, key, v)| op(kind, if wide { key } else { key % 3 }, v))
                .collect();
            run_soup(capacity, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The CoW cache's 4096 entries over 6144 keys. Fills outweigh
        /// removes and pops so the cache fills and keeps evicting; one
        /// clear at three quarters makes it refill from empty.
        #[test]
        fn prop_matches_tick_oracle_4096(
            ops in prop::collection::vec((0u8..100, 0u64..6144, any::<u32>()), 36000..40000),
        ) {
            let clear_at = ops.len() * 3 / 4;
            let ops: Vec<Op> = ops
                .into_iter()
                .enumerate()
                .map(|(i, (kind, key, v))| match kind {
                    _ if i == clear_at => Op::Clear,
                    0..=44 => Op::Get(key),
                    45..=89 | 99 => Op::Fill(key, v),
                    90..=96 => Op::Remove(key),
                    _ => Op::Pop,
                })
                .collect();
            run_soup(4096, &ops);
        }
    }
}
