//! Per-line data MACs.
//!
//! The paper's substrate (Rogers et al.'s Bonsai Merkle Tree design,
//! its reference [29]) protects *counters* with the Merkle tree and
//! *data* with per-line MACs bound to the counter value — replaying a
//! data line then requires forging a MAC, and replaying a counter is
//! caught by the tree. This module provides the on-chip cache for
//! those MACs; the 8-byte tags themselves live in NVM (eight per
//! 64-byte metadata line, placed by [`crate::MetadataLayout`]) and the
//! memory controller computes them with its keyed hash.

use lelantus_types::LruMap;

/// Number of 8-byte MACs per 64-byte metadata line.
pub const MACS_PER_LINE: usize = 8;

/// Statistics for the MAC cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (NVM MAC-line fetch).
    pub misses: u64,
    /// Dirty MAC lines written back.
    pub writebacks: u64,
}

impl MacCacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// One cached MAC line: eight tags covering eight consecutive data
/// lines. A tag of 0 means "never written" (fresh NVM; no MAC to
/// check).
pub type MacLine = [u64; MACS_PER_LINE];

/// A dirty MAC line evicted from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedMacLine {
    /// Index of the MAC line within the MAC area.
    pub index: u64,
    /// The tags to serialize back to NVM.
    pub macs: MacLine,
}

/// Fully-associative LRU cache of MAC lines.
///
/// # Examples
///
/// ```
/// use lelantus_metadata::mac::MacCache;
///
/// let mut cache = MacCache::new(128);
/// assert!(cache.get(7).is_none());
/// cache.fill(7, [1, 2, 3, 4, 5, 6, 7, 8], false);
/// assert_eq!(cache.get(7).unwrap()[2], 3);
/// ```
#[derive(Debug, Clone)]
pub struct MacCache {
    /// Line index -> (tags, dirty), in recency order.
    entries: LruMap<u64, (MacLine, bool)>,
    capacity: usize,
    stats: MacCacheStats,
}

impl MacCache {
    /// Creates a cache holding `capacity` MAC lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MAC cache needs capacity");
        Self { entries: LruMap::new(), capacity, stats: MacCacheStats::default() }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> MacCacheStats {
        self.stats
    }

    /// Looks up MAC line `index`, updating LRU and hit/miss counters.
    pub fn get(&mut self, index: u64) -> Option<MacLine> {
        match self.entries.get(&index) {
            Some(&mut (line, _)) => {
                self.stats.hits += 1;
                Some(line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a MAC line (fill after an NVM read, or a fresh update).
    /// Returns a dirty victim that must be written back.
    pub fn fill(&mut self, index: u64, macs: MacLine, dirty: bool) -> Option<EvictedMacLine> {
        if let Some(e) = self.entries.get(&index) {
            e.0 = macs;
            e.1 |= dirty;
            return None;
        }
        let victim = if self.entries.len() >= self.capacity {
            self.entries.pop_lru().and_then(|(k, (line, was_dirty))| {
                if was_dirty {
                    self.stats.writebacks += 1;
                    Some(EvictedMacLine { index: k, macs: line })
                } else {
                    None
                }
            })
        } else {
            None
        };
        self.entries.insert(index, (macs, dirty));
        victim
    }

    /// Updates one tag within a (resident) MAC line, marking it dirty.
    /// Returns false if the line is not resident.
    pub fn update_tag(&mut self, index: u64, slot: usize, tag: u64) -> bool {
        self.update_tags(index, &[(slot, tag)])
    }

    /// Applies a batch of `(slot, tag)` writes to one (resident) MAC
    /// line in order, marking it dirty. Exactly equivalent to that many
    /// sequential [`MacCache::update_tag`] calls — each would promote
    /// the same line to most recently used, so one promotion leaves the
    /// same recency order — which is what lets a write combiner replay
    /// its pending updates in one cache access. Returns false if the
    /// line is not resident.
    pub fn update_tags(&mut self, index: u64, updates: &[(usize, u64)]) -> bool {
        match self.entries.get(&index) {
            Some((line, dirty)) => {
                for &(slot, tag) in updates {
                    line[slot] = tag;
                }
                *dirty = true;
                true
            }
            None => false,
        }
    }

    /// Drains every dirty MAC line (flush / crash), in index order.
    pub fn drain_dirty(&mut self) -> Vec<EvictedMacLine> {
        let mut out = Vec::new();
        for (&index, entry) in self.entries.iter_mut() {
            if entry.1 {
                entry.1 = false;
                out.push(EvictedMacLine { index, macs: entry.0 });
            }
        }
        out.sort_by_key(|e| e.index);
        out
    }

    /// Drops all entries (power loss — MACs persist in NVM).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident MAC lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Serializes a MAC line to its 64-byte NVM representation.
pub fn encode_mac_line(macs: &MacLine) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (i, mac) in macs.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&mac.to_le_bytes());
    }
    out
}

/// Deserializes a MAC line from its 64-byte NVM representation.
pub fn decode_mac_line(bytes: &[u8; 64]) -> MacLine {
    let mut out = [0u64; MACS_PER_LINE];
    for (i, mac) in out.iter_mut().enumerate() {
        *mac = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tick-stamped `HashMap` + `BTreeMap` MAC cache this module
    /// used before [`LruMap`], kept as the oracle for its replacement.
    mod reference {
        use super::{EvictedMacLine, MacCacheStats, MacLine};
        use std::collections::{BTreeMap, HashMap};

        pub struct TickMacCache {
            entries: HashMap<u64, (MacLine, bool, u64)>,
            lru: BTreeMap<u64, u64>,
            capacity: usize,
            tick: u64,
            pub stats: MacCacheStats,
        }

        impl TickMacCache {
            pub fn new(capacity: usize) -> Self {
                Self {
                    entries: HashMap::new(),
                    lru: BTreeMap::new(),
                    capacity,
                    tick: 0,
                    stats: MacCacheStats::default(),
                }
            }

            fn stamp(&mut self, index: u64) {
                let e = self.entries.get_mut(&index).expect("resident");
                let old = std::mem::replace(&mut e.2, self.tick);
                self.lru.remove(&old);
                self.lru.insert(self.tick, index);
            }

            pub fn get(&mut self, index: u64) -> Option<MacLine> {
                self.tick += 1;
                let line = self.entries.get(&index).map(|e| e.0);
                match line {
                    Some(_) => {
                        self.stamp(index);
                        self.stats.hits += 1;
                    }
                    None => self.stats.misses += 1,
                }
                line
            }

            pub fn fill(
                &mut self,
                index: u64,
                macs: MacLine,
                dirty: bool,
            ) -> Option<EvictedMacLine> {
                self.tick += 1;
                if let Some(e) = self.entries.get_mut(&index) {
                    e.0 = macs;
                    e.1 |= dirty;
                    self.stamp(index);
                    return None;
                }
                let mut victim = None;
                if self.entries.len() >= self.capacity {
                    let (_, k) = self.lru.pop_first().expect("full cache has an LRU entry");
                    let (line, was_dirty, _) = self.entries.remove(&k).expect("present");
                    if was_dirty {
                        self.stats.writebacks += 1;
                        victim = Some(EvictedMacLine { index: k, macs: line });
                    }
                }
                self.entries.insert(index, (macs, dirty, self.tick));
                self.lru.insert(self.tick, index);
                victim
            }

            pub fn update_tags(&mut self, index: u64, updates: &[(usize, u64)]) -> bool {
                self.tick += updates.len() as u64;
                let Some(e) = self.entries.get_mut(&index) else { return false };
                for &(slot, tag) in updates {
                    e.0[slot] = tag;
                }
                e.1 = true;
                self.stamp(index);
                true
            }

            pub fn drain_dirty(&mut self) -> Vec<EvictedMacLine> {
                let mut out: Vec<EvictedMacLine> = self
                    .entries
                    .iter_mut()
                    .filter(|(_, e)| e.1)
                    .map(|(&index, e)| {
                        e.1 = false;
                        EvictedMacLine { index, macs: e.0 }
                    })
                    .collect();
                out.sort_by_key(|e| e.index);
                out
            }

            pub fn clear(&mut self) {
                self.entries.clear();
                self.lru.clear();
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }
        }
    }

    proptest! {
        /// `MacCache` on `LruMap` returns the same lines, victims,
        /// drains and statistics as the tick-stamped cache it replaced.
        #[test]
        fn prop_matches_tick_stamped_cache(
            ops in prop::collection::vec((0u8..100, 0u64..24, any::<u64>()), 1..600),
            cap_pick in 0usize..3,
        ) {
            let capacity = [1, 8, 16][cap_pick];
            let mut fast = MacCache::new(capacity);
            let mut oracle = reference::TickMacCache::new(capacity);
            for (i, &(kind, index, v)) in ops.iter().enumerate() {
                match kind {
                    0..=34 => prop_assert_eq!(fast.get(index), oracle.get(index), "get #{}", i),
                    35..=69 => {
                        let (macs, dirty) = ([v; MACS_PER_LINE], v % 2 == 0);
                        prop_assert_eq!(
                            fast.fill(index, macs, dirty),
                            oracle.fill(index, macs, dirty),
                            "fill #{}", i
                        );
                    }
                    70..=94 => {
                        // Callers never pass an empty batch: the old
                        // cache would stamp it with a reused tick.
                        let updates: Vec<(usize, u64)> = (0..=(v % 4) as usize)
                            .map(|n| ((v as usize + n) % 8, v ^ n as u64))
                            .collect();
                        prop_assert_eq!(
                            fast.update_tags(index, &updates),
                            oracle.update_tags(index, &updates),
                            "update #{}", i
                        );
                    }
                    95..=98 => prop_assert_eq!(fast.drain_dirty(), oracle.drain_dirty()),
                    _ => {
                        fast.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(fast.len(), oracle.len());
                prop_assert_eq!(fast.stats(), oracle.stats);
            }
            prop_assert_eq!(fast.drain_dirty(), oracle.drain_dirty());
        }
    }

    #[test]
    fn fill_get_update() {
        let mut c = MacCache::new(4);
        assert!(c.get(1).is_none());
        c.fill(1, [10; 8], false);
        assert_eq!(c.get(1), Some([10; 8]));
        assert!(c.update_tag(1, 3, 99));
        assert_eq!(c.get(1).unwrap()[3], 99);
        assert!(!c.update_tag(2, 0, 1), "missing line");
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn dirty_eviction() {
        let mut c = MacCache::new(2);
        c.fill(1, [1; 8], true);
        c.fill(2, [2; 8], false);
        c.get(2); // 1 becomes LRU
        let v = c.fill(3, [3; 8], false).expect("dirty victim");
        assert_eq!(v.index, 1);
        assert_eq!(v.macs, [1; 8]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = MacCache::new(1);
        c.fill(1, [1; 8], false);
        assert!(c.fill(2, [2; 8], false).is_none());
    }

    #[test]
    fn drain_and_clear() {
        let mut c = MacCache::new(4);
        c.fill(1, [1; 8], true);
        c.fill(2, [2; 8], true);
        c.fill(3, [3; 8], false);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].index, 1);
        assert!(c.drain_dirty().is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn batched_updates_match_sequential() {
        // Two caches, one driven tag-by-tag, one by the batch API: the
        // observable state (contents, LRU victims, stats) must match.
        let mut seq = MacCache::new(2);
        let mut bat = MacCache::new(2);
        for c in [&mut seq, &mut bat] {
            c.fill(1, [0; 8], false);
            c.fill(2, [0; 8], false);
        }
        let updates: Vec<(usize, u64)> = (0..8).map(|s| (s, 100 + s as u64)).collect();
        for &(slot, tag) in &updates {
            assert!(seq.update_tag(1, slot, tag));
        }
        assert!(bat.update_tags(1, &updates));
        assert_eq!(seq.get(1), bat.get(1));
        // Line 2 is now LRU in both; the next fill evicts it, not the
        // freshly-updated line 1.
        let vs = seq.fill(3, [3; 8], false);
        let vb = bat.fill(3, [3; 8], false);
        assert_eq!(vs, vb);
        assert!(seq.get(1).is_some() && bat.get(1).is_some());
        assert_eq!(seq.stats(), bat.stats());
        // A miss reports false and changes nothing.
        assert!(!bat.update_tags(99, &[(0, 1)]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let macs = [0x1122334455667788u64, 1, 2, 3, 4, 5, 6, u64::MAX];
        assert_eq!(decode_mac_line(&encode_mac_line(&macs)), macs);
    }
}
