//! Metadata fast-path equivalence: the word-level counter-block
//! codec, the deferred (write-combined) Merkle maintenance, and the
//! MAC-line write combiner must be *observationally invisible*.
//!
//! The reference shapes — the bit-by-bit codec
//! (`counter_block::reference`), eager per-write tree maintenance and
//! uncombined MAC updates — are no longer selectable in the
//! controller. This suite drives real workloads (forkbench and
//! rediswl, the paper's two most copy-intensive signatures) under
//! every CoW scheme and requires bit-identical `SimMetrics`, probe
//! event streams and Merkle roots to the golden cells recorded while
//! the reference shapes ran, then re-checks the final NVM image with
//! the reference codec and an eagerly maintained tree. A regression
//! here means a host-side "optimization" leaked into simulated
//! behaviour.

mod golden;

use lelantus::crypto::merkle::MerkleTree;
use lelantus::metadata::counter_block::{reference, CounterBlock};
use lelantus::metadata::layout::MetadataLayout;
use lelantus::os::CowStrategy;
use lelantus::sim::{RingProbe, SimConfig, System};
use lelantus::types::PageSize;
use lelantus::workloads::{forkbench::Forkbench, rediswl::Redis, Workload};

/// Key of the controller's Bonsai Merkle tree over counter blocks.
const MERKLE_KEY: (u64, u64) = (0x6c65_6c61_6e74_7573, 0x6973_6361_3230_3230);

/// Every stored counter block must be exactly what the reference codec
/// encodes, and an eagerly maintained tree over the stored blocks must
/// reach the controller's root.
fn assert_nvm_matches_reference(sys: &mut System<RingProbe>, what: &str) {
    let config = sys.controller().config().clone();
    let layout = MetadataLayout::for_data_bytes(config.data_bytes);
    let encoding = config.scheme.encoding();
    let mut eager = MerkleTree::new(layout.regions() as usize, MERKLE_KEY, 64);
    let mut checked = 0;
    for region in 0..layout.regions() {
        let bytes = sys.controller().peek_raw_line(layout.counter_addr_of_region(region));
        if bytes == [0; 64] {
            continue;
        }
        let block = reference::decode(&bytes, encoding);
        assert_eq!(CounterBlock::decode(&bytes, encoding), block, "decode of {region}: {what}");
        assert_eq!(
            reference::encode(&block, encoding),
            bytes,
            "reference encode of {region}: {what}"
        );
        assert_eq!(block.encode(encoding), bytes, "encode of {region}: {what}");
        eager.update_leaf(region as usize, &bytes);
        checked += 1;
    }
    assert!(checked > 0, "no counter block stored: {what}");
    assert_eq!(eager.root(), sys.merkle_root(), "Merkle roots diverged: {what}");
}

fn assert_equivalent(workload: &dyn Workload<RingProbe>, strategy: CowStrategy) {
    let (line, mut sys) =
        golden::run_workload_cell("metadata", workload, strategy, PageSize::Regular4K, None);
    golden::assert_committed(&line);
    assert_nvm_matches_reference(&mut sys, &format!("{} under {strategy}", workload.name()));
}

#[test]
fn forkbench_is_bit_identical_under_reference_metadata() {
    for strategy in CowStrategy::all() {
        assert_equivalent(&Forkbench::small(), strategy);
    }
}

#[test]
fn rediswl_is_bit_identical_under_reference_metadata() {
    for strategy in CowStrategy::all() {
        assert_equivalent(&Redis::small(), strategy);
    }
}

/// The epoch sampler is itself a flush point; make sure the combiner
/// interacts cleanly with epoch boundaries and crash/recovery.
#[test]
fn epoch_sampling_and_recovery_survive_deferred_maintenance() {
    for strategy in CowStrategy::all() {
        let config = SimConfig::new(strategy, PageSize::Regular4K).with_epoch_interval(200_000);
        let mut sys = System::with_probe(config, RingProbe::new(1 << 16));
        Forkbench::small().run(&mut sys).expect("workload runs");
        let report = sys.crash_and_recover().expect("recovery verifies the rebuilt tree");
        assert!(report.regions_verified > 0, "{strategy}");
        sys.finish();
    }
}
