//! Property tests for snapshot serialization: a cold-loaded v2 sidecar is
//! observationally identical to a fresh build at every pool width, the v2
//! bytes are a serialization fixed point, and corrupt or truncated files
//! are rejected (PDMS) or safely truncated away (PDML) by the shared
//! codec — never mis-parsed.

use pdm_dict::log::{encode_record, replay_bytes, Record, LOG_MAGIC, LOG_VERSION};
use pdm_dict::Snapshot;
use pdm_pram::Ctx;
use pdm_primitives::codec;
use proptest::prelude::*;

/// Random deduped pattern sets over a tiny alphabet — small alphabets
/// maximize overlap, prefix chains, and hash-table collisions, which is
/// exactly what serialization has to preserve.
fn dedup(mut raw: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    raw.sort();
    raw.dedup();
    raw
}

fn raw_patterns(
) -> proptest::collection::VecStrategy<proptest::collection::VecStrategy<std::ops::Range<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, 1..8), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v2 sidecar: serialize → load → identical matches at widths 1/2/4,
    /// the same epoch and patterns, and re-serialization is byte-identical.
    #[test]
    fn sidecar_cold_load_equals_fresh_build_at_all_widths(
        raw in raw_patterns(),
        text in proptest::collection::vec(0u32..4, 0..120),
    ) {
        let pats = dedup(raw);
        let seq = Ctx::seq();
        let built = Snapshot::build_static(&seq, 7, pats.clone()).unwrap();
        let bytes = built.to_sidecar_bytes().expect("static snapshot serializes");
        for width in [1usize, 2, 4] {
            let ctx = Ctx::with_threads(width);
            let loaded = Snapshot::from_bytes(&ctx, &bytes).unwrap();
            prop_assert!(
                loaded.matcher().is_some_and(|m| m.cold_loaded()),
                "width {}: load must not run naming rounds", width
            );
            prop_assert_eq!(loaded.epoch(), 7);
            prop_assert_eq!(loaded.patterns(), Some(&pats[..]));
            let fresh = Snapshot::build_static(&ctx, 7, pats.clone()).unwrap();
            prop_assert_eq!(
                loaded.find_all(&ctx, &text),
                fresh.find_all(&ctx, &text),
                "width {}", width
            );
            // Fixed point: re-serializing the loaded snapshot reproduces
            // the file byte for byte.
            let reser = loaded.to_sidecar_bytes();
            prop_assert_eq!(reser.as_deref(), Some(&bytes[..]));
        }
    }

    /// Any single-bit flip anywhere in a v2 sidecar is rejected (the
    /// whole-file CRC plus header framing leave no unchecked byte), and
    /// any strict prefix is rejected as truncated.
    #[test]
    fn corrupt_or_truncated_sidecar_is_rejected(
        raw in raw_patterns(),
        at_seed in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let pats = dedup(raw);
        let ctx = Ctx::seq();
        let bytes = Snapshot::build_static(&ctx, 1, pats)
            .unwrap()
            .to_sidecar_bytes()
            .unwrap();
        let at = at_seed % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        prop_assert!(
            Snapshot::from_bytes(&ctx, &flipped).is_err(),
            "bit {} at byte {}/{} must not load", bit, at, bytes.len()
        );
        prop_assert!(
            Snapshot::from_bytes(&ctx, &bytes[..at]).is_err(),
            "prefix of {} bytes must not load", at
        );
    }

    /// PDML log: a bit flip in the record region stops replay at a strict
    /// prefix of the good records (never skips past or mis-parses); a flip
    /// in the file header rejects the whole log.
    #[test]
    fn corrupt_log_replays_a_strict_prefix(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..4, 1..6), 2..10),
        at_seed in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let mut bytes = Vec::new();
        codec::write_header(&mut bytes, LOG_MAGIC, LOG_VERSION);
        let mut records = Vec::new();
        for (i, p) in raw.iter().enumerate() {
            let rec = Record::Add(p.clone());
            bytes.extend_from_slice(&encode_record(&rec));
            records.push(rec);
            if i % 3 == 2 {
                let rec = Record::Commit((i / 3 + 1) as u64);
                bytes.extend_from_slice(&encode_record(&rec));
                records.push(rec);
            }
        }
        // Clean bytes replay every record.
        let clean = replay_bytes(&bytes).unwrap();
        prop_assert_eq!(&clean.records, &records);
        prop_assert_eq!(clean.truncated, 0);

        let at = at_seed % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        if at < codec::HEADER_LEN {
            prop_assert!(
                replay_bytes(&flipped).is_err(),
                "header flip at {} must reject the log", at
            );
        } else {
            let replay = replay_bytes(&flipped).unwrap();
            prop_assert!(
                replay.records.len() < records.len(),
                "flip at {} must drop at least the damaged record", at
            );
            prop_assert_eq!(
                &replay.records[..],
                &records[..replay.records.len()],
                "replay must be a strict prefix, never a resync past damage"
            );
            prop_assert!(replay.truncated > 0);
            prop_assert_eq!(replay.good_len + replay.truncated, flipped.len() as u64);
        }

        // Truncation mid-record: replay stops at the last whole record.
        let cut = codec::HEADER_LEN.max(at);
        let replay = replay_bytes(&bytes[..cut]).unwrap();
        prop_assert_eq!(&replay.records[..], &records[..replay.records.len()]);
        prop_assert_eq!(replay.good_len + replay.truncated, cut as u64);
    }
}
