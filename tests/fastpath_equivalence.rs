//! Fast-path equivalence: every hot-path optimization must be
//! *observationally invisible*.
//!
//! The hot-path overhaul swapped three implementations under the
//! simulator — hardware/T-table AES under `CtrEngine` (with the
//! original byte-oriented cipher kept as `reference`), the batched
//! `page_pads`/`copy_page` sweep in the controller's copy paths, and
//! the frame-indexed `LineStore` replacing the NVM device's per-line
//! `HashMap`. This suite pins each swap to the behaviour it replaced:
//! same ciphertexts, same statistics, same cycle accounting, bit for
//! bit. A regression here means the "optimization" changed semantics.

mod golden;

use lelantus::crypto::aes::{reference, Aes128};
use lelantus::crypto::ctr::{xor_line, CtrEngine, IvSpec, LINE_BYTES};
use lelantus::metadata::counter_block;
use lelantus::metadata::layout::MetadataLayout;
use lelantus::nvm::LineStore;
use lelantus::os::CowStrategy;
use lelantus::types::{PhysAddr, REGION_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// AES implementations agree
// ---------------------------------------------------------------------

fn hex16(s: &str) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
    }
    out
}

#[test]
fn aes_implementations_agree_on_fips197_vectors() {
    for (key, pt, ct) in [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ] {
        let (key, pt, ct) = (hex16(key), hex16(pt), hex16(ct));
        assert_eq!(Aes128::new(key).encrypt_block(pt), ct);
        assert_eq!(reference::Aes128::new(key).encrypt_block(pt), ct);
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = lelantus::crypto::aes::ni::Aes128Ni::try_new(key) {
            assert_eq!(hw.encrypt_block(pt), ct);
        }
    }
}

proptest! {
    #[test]
    fn prop_aes_implementations_agree(key in prop::array::uniform16(any::<u8>()),
                                      block in prop::array::uniform16(any::<u8>())) {
        let fast = Aes128::new(key);
        let slow = reference::Aes128::new(key);
        let ct = fast.encrypt_block(block);
        prop_assert_eq!(ct, slow.encrypt_block(block));
        prop_assert_eq!(fast.decrypt_block(ct), block);
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = lelantus::crypto::aes::ni::Aes128Ni::try_new(key) {
            prop_assert_eq!(hw.encrypt_block(block), ct);
        }
    }

    #[test]
    fn prop_interleaved_blocks_match_single_calls(key in prop::array::uniform16(any::<u8>()),
                                                  flat in prop::array::uniform32(any::<u8>()),
                                                  salt in any::<u8>()) {
        let aes = Aes128::new(key);
        let mut blocks = [[0u8; 16]; 4];
        for (i, b) in blocks.iter_mut().enumerate() {
            b.copy_from_slice(&flat[(i % 2) * 16..(i % 2) * 16 + 16]);
            b[0] ^= salt.wrapping_add(i as u8);
        }
        let batched = aes.encrypt_blocks4(blocks);
        for (i, block) in blocks.iter().enumerate() {
            prop_assert_eq!(batched[i], aes.encrypt_block(*block));
        }
    }

    // The batched page sweep produces exactly the per-line pads.
    #[test]
    fn prop_page_pads_match_per_line_pads(key in prop::array::uniform16(any::<u8>()),
                                          base in 0u64..1_000_000,
                                          major in any::<u64>(), minor in any::<u8>(),
                                          count in 1usize..=64) {
        let engine = CtrEngine::new(key);
        let base = base * LINE_BYTES as u64;
        let pads = engine.page_pads(base, major, minor, count);
        prop_assert_eq!(pads.len(), count);
        for (i, pad) in pads.iter().enumerate() {
            let iv = IvSpec { line_addr: base + (i * LINE_BYTES) as u64, major, minor };
            prop_assert_eq!(*pad, engine.one_time_pad(iv));
        }
    }
}

// ---------------------------------------------------------------------
// LineStore is observationally a HashMap
// ---------------------------------------------------------------------

#[test]
fn line_store_matches_hashmap_semantics() {
    let mut store = LineStore::new();
    let mut map: HashMap<u64, [u8; LINE_BYTES]> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x005e_ed0f_fa57_0001);
    for step in 0..30_000u32 {
        // Mix dense in-frame addresses with sparse far-apart frames.
        let frame = rng.gen_range(0u64..48) * 4096 + rng.gen_range(0u64..3) * (1 << 24);
        let addr = frame + rng.gen_range(0u64..64) * LINE_BYTES as u64;
        match step % 4 {
            0 | 1 => {
                let data = [(step % 251) as u8; LINE_BYTES];
                assert_eq!(store.insert(addr, data), map.insert(addr, data));
            }
            2 => assert_eq!(store.get(addr), map.get(&addr).copied()),
            _ => assert_eq!(store.remove(addr), map.remove(&addr)),
        }
        assert_eq!(store.len(), map.len());
        assert_eq!(store.is_empty(), map.is_empty());
    }
}

// ---------------------------------------------------------------------
// Whole-system equivalence: fast AES vs reference AES
// ---------------------------------------------------------------------

/// The reference cipher's one-time pad for `iv`: the byte-oriented
/// AES over the engine's IV blocks.
fn reference_pad(aes: &reference::Aes128, iv: IvSpec) -> [u8; LINE_BYTES] {
    let mut pad = [0u8; LINE_BYTES];
    for (i, block) in CtrEngine::iv_blocks(iv).into_iter().enumerate() {
        pad[16 * i..16 * i + 16].copy_from_slice(&aes.encrypt_block(block));
    }
    pad
}

#[test]
fn simulator_is_bit_identical_under_reference_aes() {
    for strategy in CowStrategy::all() {
        let mut s = golden::fastpath_scenario(strategy);
        // The scenario's metrics, events, root and raw-NVM fingerprint
        // are the golden cell recorded under the reference AES backend.
        golden::assert_committed(&golden::render_fastpath(strategy, &mut s));

        // Every line stored under its own region's counters must be the
        // reference cipher's encryption of what the process reads back.
        let config = s.sys.controller().config().clone();
        let layout = MetadataLayout::for_data_bytes(config.data_bytes);
        let encoding = config.scheme.encoding();
        let aes = reference::Aes128::new(config.key);
        let mut checked = 0;
        for pid in s.pids {
            for page in 0..golden::SCENARIO_BYTES / 4096 {
                let va = s.va + page * 4096;
                let frame = s.sys.kernel().translate(pid, va).expect("page is mapped");
                let region = frame.as_u64() / REGION_BYTES;
                let counters =
                    s.sys.controller().peek_raw_line(layout.counter_addr_of_region(region));
                let block = counter_block::reference::decode(&counters, encoding);
                let plain = s.sys.read_bytes(pid, va, 4096).unwrap();
                for line in 0..4096 / LINE_BYTES {
                    // Minor 0 marks a line held elsewhere: zero-initialized
                    // (Silent Shredder) or not yet copied (Lelantus).
                    if block.minors[line] == 0 {
                        continue;
                    }
                    let addr = frame.as_u64() + (line * LINE_BYTES) as u64;
                    let iv =
                        IvSpec { line_addr: addr, major: block.major, minor: block.minors[line] };
                    let plain: [u8; LINE_BYTES] =
                        plain[line * LINE_BYTES..][..LINE_BYTES].try_into().unwrap();
                    assert_eq!(
                        s.sys.controller().peek_raw_line(PhysAddr::new(addr)),
                        xor_line(&plain, &reference_pad(&aes, iv)),
                        "stored ciphertext at {addr:#x} is not the reference encryption under {strategy}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 64, "only {checked} lines checked under {strategy}");
    }
}
