//! Micro-benchmarks for the metadata fast path: the word-level
//! counter-block codec against the bit-by-bit reference, the MAC-line
//! (de)serializers, Merkle maintenance in both eager and deferred
//! shapes, and the per-access cost of the on-chip metadata caches and
//! the NVM write queue at the controller's default sizes.
//!
//! This target is also the performance gate for the codec fast path:
//! it *asserts* that the word-level encoder and decoder run at least
//! 4x faster than the reference they replaced (the PR-2 baseline
//! measured 784.74 / 644.32 ns per encode/decode on this harness).

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_crypto::MerkleTree;
use lelantus_metadata::counter_block::reference;
use lelantus_metadata::mac::{decode_mac_line, encode_mac_line, MacCache};
use lelantus_metadata::{CounterBlock, CounterEncoding, CowCache};
use lelantus_nvm::write_queue::WriteQueue;
use lelantus_types::{Cycles, PhysAddr};
use std::hint::black_box;

fn main() {
    timed_emit("micro_metadata", || {
        let mut records = Vec::new();
        let mut ms = Vec::new();

        // --- counter-block codec: word-level vs reference --------------
        let cow = CounterBlock::fresh_cow(42);
        let regular = CounterBlock::fresh_regular(1);
        let word_enc =
            bench("codec_encode_resized_word", || black_box(&cow).encode(CounterEncoding::Resized));
        let ref_enc = bench("codec_encode_resized_reference", || {
            reference::encode(black_box(&cow), CounterEncoding::Resized)
        });
        let bytes = cow.encode(CounterEncoding::Resized);
        let word_dec = bench("codec_decode_resized_word", || {
            CounterBlock::decode(black_box(&bytes), CounterEncoding::Resized)
        });
        let ref_dec = bench("codec_decode_resized_reference", || {
            reference::decode(black_box(&bytes), CounterEncoding::Resized)
        });
        let word_enc_classic = bench("codec_encode_classic_word", || {
            black_box(&regular).encode(CounterEncoding::Classic)
        });
        let ref_enc_classic = bench("codec_encode_classic_reference", || {
            reference::encode(black_box(&regular), CounterEncoding::Classic)
        });
        ms.extend([
            word_enc.clone(),
            ref_enc.clone(),
            word_dec.clone(),
            ref_dec.clone(),
            word_enc_classic.clone(),
            ref_enc_classic.clone(),
        ]);

        // --- MAC-line (de)serializers ----------------------------------
        let macs = [0x1122334455667788u64; 8];
        let enc_mac = bench("encode_mac_line", || encode_mac_line(black_box(&macs)));
        let line = encode_mac_line(&macs);
        let dec_mac = bench("decode_mac_line", || decode_mac_line(black_box(&line)));
        ms.extend([enc_mac, dec_mac]);

        // --- Merkle maintenance: eager vs deferred sweeps --------------
        // A 64-leaf region sweep is the page-copy shape: eager
        // maintenance rehashes every ancestor per leaf, the deferred
        // tree rehashes each dirty ancestor once at the flush point.
        let leaf_data = [0x33u8; 64];
        let mut eager = MerkleTree::new(65536, (1, 2), 512);
        let mut base = 0usize;
        let eager_sweep = bench("merkle_sweep64_eager", || {
            base = (base + 64) % 65536;
            for l in base..base + 64 {
                eager.update_leaf(l, &leaf_data);
            }
        });
        let mut deferred = MerkleTree::new(65536, (1, 2), 512).with_deferred_maintenance();
        let mut base = 0usize;
        let deferred_sweep = bench("merkle_sweep64_deferred_flush", || {
            base = (base + 64) % 65536;
            for l in base..base + 64 {
                deferred.update_leaf(l, &leaf_data);
            }
            deferred.flush()
        });
        // Cold vs cached verify (the cold tree misses its node cache on
        // every level, the warm one hits the whole path).
        let mut cold = MerkleTree::new(65536, (1, 2), 1);
        cold.update_leaf(1234, &leaf_data);
        let verify_cold = bench("merkle_verify_leaf_cold", || {
            cold.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });
        let mut warm = MerkleTree::new(65536, (1, 2), 512);
        warm.update_leaf(1234, &leaf_data);
        let verify_cached = bench("merkle_verify_leaf_cached", || {
            warm.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });
        ms.extend([eager_sweep.clone(), deferred_sweep.clone(), verify_cold, verify_cached]);

        // --- on-chip metadata caches and the write queue ---------------
        // One op each, at the controller's default sizes (1024 MAC
        // lines, 4096 CoW mappings, 512 Merkle nodes, 64 queued
        // writes). Keys come from a fixed LCG so hits, misses and
        // evictions mix the same way on every run.
        let mut lcg = 1u64;
        let mut next_key = move |range: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % range
        };
        let mut mac_cache = MacCache::new(1024);
        let mac_fill_get = bench("mac_cache_fill_get_1024", || {
            // 1536 lines through 1024 slots: about two thirds hit, the
            // rest fill and evict (half of the victims dirty).
            let index = next_key(1536);
            match mac_cache.get(index) {
                Some(line) => line[0],
                None => mac_cache.fill(index, macs, index % 2 == 0).map_or(0, |v| v.index),
            }
        });
        let mut cow_cache = CowCache::paper_default();
        for region in 0..4096 {
            cow_cache.fill(region, Some(region));
        }
        let mut region = 4096u64;
        let cow_fill_full = bench("cow_cache_fill_full_4096", || {
            // Every fill is a new region into a full cache: the
            // eviction path.
            region += 1;
            cow_cache.fill(black_box(region), Some(region));
        });
        let mut tree = MerkleTree::new(65536, (1, 2), 512).with_deferred_maintenance();
        let mut updates = 0u64;
        let merkle_update = bench("merkle_update_leaf_flush64", || {
            // Scattered leaves, flushed every 64 updates as the
            // controller flushes at its command boundaries.
            let walk = tree.update_leaf(next_key(65536) as usize, &leaf_data);
            updates += 1;
            if updates % 64 == 0 {
                tree.flush();
            }
            walk
        });
        let mut queue = WriteQueue::new(64);
        let mut line = 0u64;
        for _ in 0..64 {
            line += 1;
            queue.push(PhysAddr::new(line * 64), [0; 64], Cycles::ZERO);
        }
        let wq_push_full = bench("write_queue_push_full_64", || {
            // A new line into a full queue drains the oldest entry.
            line += 1;
            queue.push(PhysAddr::new(black_box(line) * 64), [1; 64], Cycles::ZERO)
        });
        ms.extend([mac_fill_get, cow_fill_full, merkle_update, wq_push_full]);

        // --- the fast-path claims --------------------------------------
        let enc_speedup = word_enc.speedup_over(&ref_enc);
        let dec_speedup = word_dec.speedup_over(&ref_dec);
        let enc_classic_speedup = word_enc_classic.speedup_over(&ref_enc_classic);
        let sweep_speedup = deferred_sweep.speedup_over(&eager_sweep);
        println!("\nmetadata fast-path speedup over the reference:");
        println!("  resized encode (word-level)  {enc_speedup:.2}x");
        println!("  resized decode (word-level)  {dec_speedup:.2}x");
        println!("  classic encode (word-level)  {enc_classic_speedup:.2}x");
        println!("  64-leaf sweep (deferred)     {sweep_speedup:.2}x");
        assert!(
            enc_speedup >= 4.0 && dec_speedup >= 4.0,
            "word-level codec must be >=4x the bit-by-bit reference \
             (got {enc_speedup:.2}x encode / {dec_speedup:.2}x decode)"
        );

        for m in &ms {
            records.push(Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s));
        }
        records.push(Record::new("speedup/codec_encode_resized", enc_speedup, "x"));
        records.push(Record::new("speedup/codec_decode_resized", dec_speedup, "x"));
        records.push(Record::new("speedup/codec_encode_classic", enc_classic_speedup, "x"));
        records.push(Record::new("speedup/merkle_sweep64_deferred", sweep_speedup, "x"));
        records
    });
}
