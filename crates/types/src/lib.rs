//! Shared foundational types for the Lelantus reproduction.
//!
//! Every other crate in the workspace speaks in terms of these
//! newtypes: [`PhysAddr`]/[`VirtAddr`] byte addresses, [`PageSize`]s
//! (4 KB regular and 2 MB huge pages, paper Table III), and [`Cycles`]
//! of the 1 GHz simulated clock (so 1 cycle = 1 ns).
//!
//! # Examples
//!
//! ```
//! use lelantus_types::{PhysAddr, PageSize, LINE_BYTES};
//!
//! let addr = PhysAddr::new(0x1234);
//! assert_eq!(addr.line_align().as_u64(), 0x1200 | 0x00); // 64B-aligned
//! assert_eq!(PageSize::Regular4K.lines(), 64);
//! assert_eq!(PageSize::Huge2M.bytes() / LINE_BYTES as u64, 32768);
//! ```

pub mod addr;
pub mod cycles;
pub mod hash;
pub mod lru;
pub mod page;

pub use addr::{PhysAddr, VirtAddr};
pub use cycles::Cycles;
pub use hash::{FastHashMap, FastHashSet};
pub use lru::LruMap;
pub use page::PageSize;

/// Cacheline size in bytes (paper Table III: 64 B blocks everywhere).
pub const LINE_BYTES: usize = 64;

/// Bytes covered by one split-counter block: a 4 KB region (paper §II-B).
pub const REGION_BYTES: u64 = 4096;

/// Cachelines per 4 KB counter region.
pub const LINES_PER_REGION: usize = (REGION_BYTES as usize) / LINE_BYTES;
