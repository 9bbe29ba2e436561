//! Per-event host costs of each layer's hot public call, timed in a
//! loop. Multiplied by a run's exact event counts they give per-layer
//! estimates, labelled as such wherever they are printed.

use lelantus_cache::{CacheHierarchy, HierarchyConfig, LineBackend};
use lelantus_crypto::{CtrEngine, IvSpec, MerkleTree, SipHash24};
use lelantus_metadata::{CounterBlock, CounterEncoding, MetadataLayout};
use lelantus_nvm::{NvmConfig, NvmDevice};
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES};
use std::hint::black_box;
use std::time::Instant;

/// Events per timed batch; the cost is the median of [`BATCHES`].
const EVENTS: u64 = 20_000;
const BATCHES: usize = 5;

#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub cache_access_ns: f64,
    pub codec_ns: f64,
    pub aes_line_ns: f64,
    pub mac_ns: f64,
    pub merkle_update_ns: f64,
    pub nvm_write_ns: f64,
}

/// Median ns per call of `f(i)` over [`BATCHES`] batches.
fn per_event(mut f: impl FnMut(u64)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..EVENTS {
            f(i);
            i += 1;
        }
        batches.push(t.elapsed().as_nanos() as f64 / EVENTS as f64);
    }
    crate::stats::median(&batches).expect("BATCHES > 0")
}

/// A scattered line address in a 64 MB span (multiplicative hash).
fn scatter(i: u64) -> u64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) % (1 << 20) * LINE_BYTES as u64
}

/// A backing store that answers at once, so only the hierarchy's own
/// host work is timed.
struct Flat;

impl LineBackend for Flat {
    fn read_line(&mut self, _: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        ([0; LINE_BYTES], now)
    }
    fn write_line(&mut self, _: PhysAddr, _: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        now
    }
}

pub fn measure() -> Costs {
    let mut caches = CacheHierarchy::new(HierarchyConfig::default());
    let cache_access_ns = per_event(|i| {
        // Mostly-local traffic with a scattered miss stream, three
        // loads per store.
        let addr = PhysAddr::new(if i % 8 == 0 { scatter(i) } else { (i % 4096) * 64 });
        if i % 4 == 3 {
            black_box(caches.store(addr, &[i as u8; 8], Cycles::ZERO, &mut Flat));
        } else {
            black_box(caches.load_line(addr, Cycles::ZERO, &mut Flat));
        }
    });

    let block = CounterBlock::fresh_cow(42);
    let codec_ns = per_event(|_| {
        let bytes = black_box(&block).encode(CounterEncoding::Resized);
        black_box(CounterBlock::decode(black_box(&bytes), CounterEncoding::Resized));
    });

    let engine = CtrEngine::new([0x5A; 16]);
    let aes_line_ns = per_event(|i| {
        let iv = IvSpec { line_addr: i * 64, major: i >> 6, minor: (i & 0x7F) as u8 };
        black_box(engine.one_time_pad(black_box(iv)));
    });

    // The controller's MAC input: ciphertext line, address, major, minor.
    let mac = SipHash24::new(1, 2);
    let mut buf = [0u8; LINE_BYTES + 17];
    let mac_ns = per_event(|i| {
        buf[LINE_BYTES..LINE_BYTES + 8].copy_from_slice(&i.to_le_bytes());
        black_box(mac.hash(black_box(&buf)));
    });

    let regions = MetadataLayout::for_data_bytes(lelantus_os::KernelConfig::default().phys_bytes)
        .regions() as usize;
    let mut tree = MerkleTree::new(regions, (3, 4), 512).with_deferred_maintenance();
    let leaf = [7u8; 64];
    let merkle_update_ns = per_event(|i| {
        black_box(tree.update_leaf((scatter(i) / 64) as usize % regions, &leaf));
        if i % 64 == 63 {
            black_box(tree.flush());
        }
    });

    let mut dev = NvmDevice::new(NvmConfig::default());
    let mut now = Cycles::ZERO;
    let nvm_write_ns = per_event(|i| {
        now = dev.write_line(PhysAddr::new(scatter(i)), [i as u8; LINE_BYTES], now);
    });

    Costs { cache_access_ns, codec_ns, aes_line_ns, mac_ns, merkle_update_ns, nvm_write_ns }
}
