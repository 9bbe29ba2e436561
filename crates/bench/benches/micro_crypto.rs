//! Micro-benchmarks for the cryptographic substrate: T-table vs
//! reference AES, 64-byte line CTR encryption, the batched page-pad
//! sweep, SipHash tags, and Merkle-tree walks.
//!
//! This target is also the performance gate for the AES fast path: it
//! *asserts* that the engine encrypts/decrypts lines at least 5× faster
//! than the byte-oriented reference cipher applied to the same IV
//! blocks, after checking that both produce the same line.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_crypto::aes::reference;
use lelantus_crypto::ctr::{CtrEngine, IvSpec};
use lelantus_crypto::{Aes128, MerkleTree, SipHash24};
use std::hint::black_box;

fn main() {
    timed_emit("micro_crypto", || {
        let mut records = Vec::new();

        // --- AES block ciphers -----------------------------------------
        let fast_aes = Aes128::new([7; 16]);
        let ref_aes = reference::Aes128::new([7; 16]);
        let fast_block =
            bench("aes128_encrypt_block", || fast_aes.encrypt_block(black_box([0x42; 16])));
        let ref_block = bench("aes128_reference_encrypt_block", || {
            ref_aes.encrypt_block(black_box([0x42; 16]))
        });

        // --- 64-byte line CTR ------------------------------------------
        // `CtrEngine::new` resolves to hardware AES where the CPU has
        // it and the T-table cipher otherwise; the forced-table engine
        // is measured separately to attribute the software-path win.
        let engine = CtrEngine::new([9; 16]);
        let table_engine = CtrEngine::new_table([9; 16]);
        // The reference line: the byte-oriented cipher over the
        // engine's own IV blocks, XORed in (CTR decrypt is the same
        // function as encrypt).
        let ref_cipher = reference::Aes128::new([9; 16]);
        let ref_line = |data: &[u8; 64], iv: IvSpec| {
            let mut out = *data;
            for (blk, block) in CtrEngine::iv_blocks(iv).into_iter().enumerate() {
                let pad = ref_cipher.encrypt_block(block);
                for (o, p) in out[blk * 16..(blk + 1) * 16].iter_mut().zip(pad) {
                    *o ^= p;
                }
            }
            out
        };
        let iv = IvSpec { line_addr: 0x1000, major: 5, minor: 3 };
        let line = [0xAB; 64];
        assert_eq!(
            ref_line(&line, iv),
            engine.encrypt_line(&line, iv),
            "the reference line must equal the engine's before timing"
        );
        let fast_enc =
            bench("ctr_encrypt_line_64B", || engine.encrypt_line(black_box(&line), black_box(iv)));
        let table_enc = bench("ctr_encrypt_line_64B_ttable", || {
            table_engine.encrypt_line(black_box(&line), black_box(iv))
        });
        let ref_enc =
            bench("ctr_encrypt_line_64B_reference", || ref_line(black_box(&line), black_box(iv)));
        let fast_dec =
            bench("ctr_decrypt_line_64B", || engine.decrypt_line(black_box(&line), black_box(iv)));
        let ref_dec =
            bench("ctr_decrypt_line_64B_reference", || ref_line(black_box(&line), black_box(iv)));

        // --- batched page pads vs per-line dispatch --------------------
        let batched = bench("page_pads_64_lines", || engine.page_pads(0x4000, 11, 1, 64));
        let per_line = bench("one_time_pad_x64_lines", || {
            (0..64u64)
                .map(|i| {
                    engine.one_time_pad(IvSpec { line_addr: 0x4000 + i * 64, major: 11, minor: 1 })
                })
                .collect::<Vec<_>>()
        });

        // --- integrity substrate ---------------------------------------
        let mac = SipHash24::new(1, 2);
        let data = [0x5A; 64];
        let sip = bench("siphash24_64B", || mac.hash(black_box(&data)));
        let mut tree = MerkleTree::new(65536, (1, 2), 512);
        let leaf_data = [0x33u8; 64];
        let mut leaf = 0usize;
        let merkle_update = bench("merkle_update_leaf", || {
            leaf = (leaf + 97) % 65536;
            tree.update_leaf(black_box(leaf), black_box(&leaf_data))
        });
        let mut tree = MerkleTree::new(65536, (1, 2), 512);
        tree.update_leaf(1234, &leaf_data);
        let merkle_verify = bench("merkle_verify_leaf_cached", || {
            tree.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });

        // --- the fast-path claims --------------------------------------
        let block_speedup = fast_block.speedup_over(&ref_block);
        let enc_speedup = fast_enc.speedup_over(&ref_enc);
        let dec_speedup = fast_dec.speedup_over(&ref_dec);
        let table_speedup = table_enc.speedup_over(&ref_enc);
        let batch_speedup = batched.speedup_over(&per_line);
        println!("\nfast-path speedup over the byte-oriented reference:");
        println!("  T-table block encrypt       {block_speedup:.2}x");
        println!("  line encrypt (default path) {enc_speedup:.2}x");
        println!("  line decrypt (default path) {dec_speedup:.2}x");
        println!("  line encrypt (T-table path) {table_speedup:.2}x");
        println!("  page_pads vs 64 one_time_pad calls: {batch_speedup:.2}x");
        assert!(
            enc_speedup >= 5.0 && dec_speedup >= 5.0,
            "line encrypt/decrypt must be >=5x the reference \
             (got {enc_speedup:.2}x / {dec_speedup:.2}x)"
        );

        for m in [
            &fast_block,
            &ref_block,
            &fast_enc,
            &table_enc,
            &ref_enc,
            &fast_dec,
            &ref_dec,
            &batched,
            &per_line,
            &sip,
            &merkle_update,
            &merkle_verify,
        ] {
            records.push(Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s));
        }
        records.push(Record::new("speedup/aes_block", block_speedup, "x"));
        records.push(Record::new("speedup/line_encrypt", enc_speedup, "x"));
        records.push(Record::new("speedup/line_decrypt", dec_speedup, "x"));
        records.push(Record::new("speedup/line_encrypt_ttable", table_speedup, "x"));
        records.push(Record::new("speedup/page_pads_batch", batch_speedup, "x"));
        records
    });
}
