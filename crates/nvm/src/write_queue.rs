//! A merging write queue with read forwarding.
//!
//! Real persistent-memory controllers buffer writes so that reads are
//! not stalled behind slow (150 ns) array writes, and coalesce multiple
//! writes to the same line. The paper relies on this effect: deferring
//! copies "enables the memory controller to merge more writes and
//! copies in the request queue" (§IV-C). The queue here is FIFO with
//! same-line merge; when full, the oldest entry is drained to the
//! array synchronously (write-induced stall).
//!
//! Every simulated line write merges or appends and every line read
//! checks for a forwardable entry, so both lookups are O(1): beside the
//! FIFO `VecDeque` the queue keeps an index from line number to the
//! entry's sequence number (its position counted from the first write
//! ever queued). A merge rewrites the entry in place and keeps its
//! sequence number, so FIFO order is exactly that of a linear scan.

use lelantus_types::{Cycles, FastHashMap, PhysAddr, LINE_BYTES};
use std::collections::VecDeque;

/// One pending line write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Line-aligned target address.
    pub addr: PhysAddr,
    /// Data to be written.
    pub data: [u8; 64],
    /// Time the write entered the queue.
    pub enqueued_at: Cycles,
}

/// Statistics maintained by the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteQueueStats {
    /// Writes accepted into the queue.
    pub enqueued: u64,
    /// Writes merged into an existing same-line entry.
    pub merged: u64,
    /// Reads serviced by forwarding queued data.
    pub forwarded_reads: u64,
    /// Entries evicted because the queue was full.
    pub capacity_drains: u64,
}

/// The merging write queue.
///
/// # Examples
///
/// ```
/// use lelantus_nvm::write_queue::WriteQueue;
/// use lelantus_types::{Cycles, PhysAddr};
///
/// let mut q = WriteQueue::new(4);
/// q.push(PhysAddr::new(0x40), [1; 64], Cycles::ZERO);
/// q.push(PhysAddr::new(0x40), [2; 64], Cycles::ZERO); // merges
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.forward(PhysAddr::new(0x40)), Some([2; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    entries: VecDeque<PendingWrite>,
    /// Sequence number of `entries[0]`; entry `i` has `head_seq + i`.
    head_seq: u64,
    /// Line number -> sequence number of its pending entry.
    index: FastHashMap<u64, u64>,
    capacity: usize,
    stats: WriteQueueStats,
}

impl WriteQueue {
    /// Creates a queue holding at most `capacity` line writes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue needs capacity");
        Self {
            entries: VecDeque::with_capacity(capacity),
            head_seq: 0,
            index: FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            stats: WriteQueueStats::default(),
        }
    }

    /// Number of distinct pending line writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the next push of a *new* line must drain an entry.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Queue statistics.
    pub fn stats(&self) -> WriteQueueStats {
        self.stats
    }

    /// Enqueues a write; merging into an existing entry for the same
    /// line if present. Returns the entry that must be drained first
    /// when the queue overflows.
    pub fn push(&mut self, addr: PhysAddr, data: [u8; 64], now: Cycles) -> Option<PendingWrite> {
        let addr = addr.line_align();
        self.stats.enqueued += 1;
        if let Some(&seq) = self.index.get(&line_of(addr)) {
            let existing = &mut self.entries[(seq - self.head_seq) as usize];
            existing.data = data;
            existing.enqueued_at = now;
            self.stats.merged += 1;
            return None;
        }
        let drained = if self.is_full() {
            self.stats.capacity_drains += 1;
            self.pop()
        } else {
            None
        };
        self.index.insert(line_of(addr), self.head_seq + self.entries.len() as u64);
        self.entries.push_back(PendingWrite { addr, data, enqueued_at: now });
        drained
    }

    /// Returns the queued data for `addr` if a write is pending
    /// (read forwarding).
    pub fn forward(&mut self, addr: PhysAddr) -> Option<[u8; 64]> {
        let seq = *self.index.get(&line_of(addr))?;
        self.stats.forwarded_reads += 1;
        Some(self.entries[(seq - self.head_seq) as usize].data)
    }

    /// Removes and returns the oldest pending write.
    pub fn pop(&mut self) -> Option<PendingWrite> {
        let oldest = self.entries.pop_front()?;
        self.index.remove(&line_of(oldest.addr));
        self.head_seq += 1;
        Some(oldest)
    }

    /// Drops any pending write to `addr` (superseded by a durable
    /// write). Returns true if an entry was discarded. Durable writes
    /// are rare, so this renumbers the survivors rather than keeping
    /// gaps in the sequence.
    pub fn discard(&mut self, addr: PhysAddr) -> bool {
        let Some(seq) = self.index.remove(&line_of(addr)) else {
            return false;
        };
        let pos = (seq - self.head_seq) as usize;
        self.entries.remove(pos);
        for (i, e) in self.entries.iter().enumerate().skip(pos) {
            self.index.insert(line_of(e.addr), self.head_seq + i as u64);
        }
        true
    }

    /// Drains all pending writes (e.g. at a persist barrier).
    pub fn drain_all(&mut self) -> Vec<PendingWrite> {
        self.index.clear();
        self.head_seq += self.entries.len() as u64;
        self.entries.drain(..).collect()
    }
}

/// Line number of `addr` (the index key).
#[inline(always)]
fn line_of(addr: PhysAddr) -> u64 {
    addr.as_u64() / LINE_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear-scan queue this module used before the line index,
    /// kept as the oracle for its replacement.
    struct ScanQueue {
        entries: VecDeque<PendingWrite>,
        capacity: usize,
        stats: WriteQueueStats,
    }

    impl ScanQueue {
        fn new(capacity: usize) -> Self {
            Self { entries: VecDeque::new(), capacity, stats: WriteQueueStats::default() }
        }

        fn push(&mut self, addr: PhysAddr, data: [u8; 64], now: Cycles) -> Option<PendingWrite> {
            let addr = addr.line_align();
            self.stats.enqueued += 1;
            if let Some(existing) = self.entries.iter_mut().find(|e| e.addr == addr) {
                existing.data = data;
                existing.enqueued_at = now;
                self.stats.merged += 1;
                return None;
            }
            let drained = if self.entries.len() >= self.capacity {
                self.stats.capacity_drains += 1;
                self.entries.pop_front()
            } else {
                None
            };
            self.entries.push_back(PendingWrite { addr, data, enqueued_at: now });
            drained
        }

        fn forward(&mut self, addr: PhysAddr) -> Option<[u8; 64]> {
            let addr = addr.line_align();
            let hit = self.entries.iter().find(|e| e.addr == addr).map(|e| e.data);
            if hit.is_some() {
                self.stats.forwarded_reads += 1;
            }
            hit
        }

        fn discard(&mut self, addr: PhysAddr) -> bool {
            let addr = addr.line_align();
            let before = self.entries.len();
            self.entries.retain(|e| e.addr != addr);
            self.entries.len() != before
        }
    }

    proptest! {
        /// Random push / forward / discard / pop / drain soups over a
        /// few lines, addressed at varying offsets so distinct
        /// addresses alias one line: the indexed queue drains,
        /// forwards and counts exactly like the linear scan.
        #[test]
        fn prop_matches_linear_scan_queue(
            ops in prop::collection::vec((0u8..100, 0u64..24, 0u64..64, any::<u8>()), 1..500),
            cap_pick in 0usize..3,
        ) {
            let capacity = [1, 4, 64][cap_pick];
            let lines = if capacity == 64 { 96 } else { 3 * capacity as u64 };
            let mut fast = WriteQueue::new(capacity);
            let mut oracle = ScanQueue::new(capacity);
            for (i, &(kind, line, offset, byte)) in ops.iter().enumerate() {
                let addr = PhysAddr::new((line * 7 % lines) * 64 + offset);
                let now = Cycles::new(i as u64);
                match kind {
                    0..=49 => prop_assert_eq!(
                        fast.push(addr, [byte; 64], now),
                        oracle.push(addr, [byte; 64], now),
                        "push #{}", i
                    ),
                    50..=79 => prop_assert_eq!(fast.forward(addr), oracle.forward(addr), "forward #{}", i),
                    80..=89 => prop_assert_eq!(fast.discard(addr), oracle.discard(addr), "discard #{}", i),
                    90..=97 => prop_assert_eq!(fast.pop(), oracle.entries.pop_front(), "pop #{}", i),
                    _ => prop_assert_eq!(
                        fast.drain_all(),
                        oracle.entries.drain(..).collect::<Vec<_>>(),
                        "drain #{}", i
                    ),
                }
                prop_assert_eq!(fast.len(), oracle.entries.len());
                prop_assert_eq!(fast.stats(), oracle.stats);
            }
            prop_assert_eq!(fast.drain_all(), oracle.entries.drain(..).collect::<Vec<_>>());
        }
    }

    fn line(a: u64) -> PhysAddr {
        PhysAddr::new(a * 64)
    }

    #[test]
    fn merge_same_line() {
        let mut q = WriteQueue::new(8);
        q.push(line(1), [1; 64], Cycles::ZERO);
        q.push(line(1), [2; 64], Cycles::new(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().merged, 1);
        assert_eq!(q.pop().unwrap().data, [2; 64]);
    }

    #[test]
    fn overflow_drains_oldest() {
        let mut q = WriteQueue::new(2);
        assert!(q.push(line(1), [1; 64], Cycles::ZERO).is_none());
        assert!(q.push(line(2), [2; 64], Cycles::ZERO).is_none());
        let drained = q.push(line(3), [3; 64], Cycles::ZERO).expect("must drain");
        assert_eq!(drained.addr, line(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().capacity_drains, 1);
    }

    #[test]
    fn forwarding() {
        let mut q = WriteQueue::new(4);
        q.push(line(7), [9; 64], Cycles::ZERO);
        assert_eq!(q.forward(line(7)), Some([9; 64]));
        assert_eq!(q.forward(line(8)), None);
        assert_eq!(q.stats().forwarded_reads, 1);
    }

    #[test]
    fn forward_uses_line_alignment() {
        let mut q = WriteQueue::new(4);
        q.push(PhysAddr::new(0x1008), [3; 64], Cycles::ZERO);
        assert_eq!(q.forward(PhysAddr::new(0x1030)), Some([3; 64]));
    }

    #[test]
    fn drain_all_empties() {
        let mut q = WriteQueue::new(4);
        q.push(line(1), [1; 64], Cycles::ZERO);
        q.push(line(2), [2; 64], Cycles::ZERO);
        assert_eq!(q.drain_all().len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = WriteQueue::new(0);
    }
}
