//! Per-region access footprints (paper Fig 10c/d).
//!
//! The paper visualizes which cachelines of a CoW page are physically
//! touched: the baseline's `page_copy` initializes the whole page
//! before any other access, while Lelantus touches only the scattered
//! lines the application actually uses. This tracker records, per 4 KB
//! region, a 64-bit bitmap of lines physically read and written.

use lelantus_types::FastHashMap;
use lelantus_types::{PhysAddr, LINE_BYTES, REGION_BYTES};

/// Which direction an access was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDir {
    /// A physical line read.
    Read,
    /// A physical line write.
    Write,
}

/// Footprint bitmaps for one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionFootprint {
    /// Bit *i* set ⇔ line *i* was physically read.
    pub reads: u64,
    /// Bit *i* set ⇔ line *i* was physically written.
    pub writes: u64,
}

impl RegionFootprint {
    /// Number of distinct lines read.
    pub fn lines_read(&self) -> u32 {
        self.reads.count_ones()
    }

    /// Number of distinct lines written.
    pub fn lines_written(&self) -> u32 {
        self.writes.count_ones()
    }

    /// Number of distinct lines touched either way.
    pub fn lines_touched(&self) -> u32 {
        (self.reads | self.writes).count_ones()
    }
}

/// Tracks footprints for every region that sees traffic.
///
/// # Examples
///
/// ```
/// use lelantus_core::footprint::{AccessDir, FootprintTracker};
/// use lelantus_types::PhysAddr;
///
/// let mut fp = FootprintTracker::default();
/// fp.record(PhysAddr::new(0x1040), AccessDir::Write); // region 1, line 1
/// assert_eq!(fp.region(1).unwrap().lines_written(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FootprintTracker {
    regions: FastHashMap<u64, RegionFootprint>,
}

impl FootprintTracker {
    /// Records a physical access at `addr`.
    pub fn record(&mut self, addr: PhysAddr, dir: AccessDir) {
        let region = addr.as_u64() / REGION_BYTES;
        let line = (addr.as_u64() % REGION_BYTES) / LINE_BYTES as u64;
        let fp = self.regions.entry(region).or_default();
        match dir {
            AccessDir::Read => fp.reads |= 1 << line,
            AccessDir::Write => fp.writes |= 1 << line,
        }
    }

    /// Footprint of `region`, if any traffic was seen.
    pub fn region(&self, region: u64) -> Option<RegionFootprint> {
        self.regions.get(&region).copied()
    }

    /// Iterates over all `(region, footprint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, RegionFootprint)> + '_ {
        self.regions.iter().map(|(r, f)| (*r, *f))
    }

    /// Mean fraction of lines written per touched region, in [0, 1].
    pub fn mean_write_density(&self) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        let total: u32 = self.regions.values().map(RegionFootprint::lines_written).sum();
        total as f64 / (self.regions.len() as f64 * 64.0)
    }

    /// Clears all recorded footprints.
    pub fn reset(&mut self) {
        self.regions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_distinct_lines() {
        let mut fp = FootprintTracker::default();
        fp.record(PhysAddr::new(0x0), AccessDir::Read);
        fp.record(PhysAddr::new(0x40), AccessDir::Read);
        fp.record(PhysAddr::new(0x40), AccessDir::Write);
        let r = fp.region(0).unwrap();
        assert_eq!(r.lines_read(), 2);
        assert_eq!(r.lines_written(), 1);
        assert_eq!(r.lines_touched(), 2);
    }

    #[test]
    fn density_and_reset() {
        let mut fp = FootprintTracker::default();
        for line in 0..32u64 {
            fp.record(PhysAddr::new(line * 64), AccessDir::Write);
        }
        assert!((fp.mean_write_density() - 0.5).abs() < 1e-12);
        fp.reset();
        assert_eq!(fp.iter().count(), 0);
    }

    #[test]
    fn regions_are_separate() {
        let mut fp = FootprintTracker::default();
        fp.record(PhysAddr::new(0x0), AccessDir::Write);
        fp.record(PhysAddr::new(4096), AccessDir::Write);
        assert_eq!(fp.region(0).unwrap().lines_written(), 1);
        assert_eq!(fp.region(1).unwrap().lines_written(), 1);
        assert_eq!(fp.iter().count(), 2);
    }
}
