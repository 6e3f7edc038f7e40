//! Seeded property tests for the WAL record format and crash recovery,
//! mirroring `proto_properties.rs`'s truncation discipline: every
//! strict prefix of a record is *torn* (fails with `UnexpectedEof`,
//! the one shape replay tolerates), a WAL cut at any byte recovers
//! exactly the store at the last whole-record boundary, and corruption
//! that is not a tail tear is a hard replay error, never skipped.

use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::SiteId;
use optrep_kv::KvStore;
use optrep_server::persist::{
    decode_record, encode_record, DurabilityConfig, FsyncPolicy, Persist, WAL_FILE,
};
use std::ops::Range;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "optrep-persistprop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn bytes(rng: &mut SplitMix64, len: Range<usize>) -> Vec<u8> {
    (0..rng.range(len)).map(|_| rng.next_u64() as u8).collect()
}

/// Logical mutation batches: the keys and values a single WAL record
/// will carry (a 1-entry batch is a `put`; larger ones model a contact
/// commit). One to three letters of `abc` a key, so keys repeat.
fn batches(rng: &mut SplitMix64) -> Vec<Vec<(String, Vec<u8>)>> {
    let entry = |rng: &mut SplitMix64| {
        let key = (0..rng.range(1..4))
            .map(|_| (b'a' + rng.below(3) as u8) as char)
            .collect();
        (key, bytes(rng, 1..24))
    };
    (0..rng.range(1..5))
        .map(|_| (0..rng.range(1..4)).map(|_| entry(rng)).collect())
        .collect()
}

/// Applies one batch to `store` and logs it as one record, exactly as
/// the daemon's `wal_append` does.
fn commit_batch(store: &mut KvStore, persist: &mut Persist, batch: &[(String, Vec<u8>)]) {
    let mut keys = Vec::new();
    for (key, value) in batch {
        store.put(key.clone(), value.clone());
        keys.push(key.clone());
    }
    keys.sort();
    keys.dedup();
    let changed: Vec<(String, Bytes)> = keys
        .iter()
        .map(|key| (key.clone(), store.encode_entry(key).expect("tracked")))
        .collect();
    persist.append(&changed).expect("append");
}

// File-heavy properties: the case counts stay modest.

/// Round-trip: whatever was committed through the WAL is exactly
/// what reopening the dir recovers (the store `PartialEq` compares
/// site + entries, so "exactly" includes every vector and value).
#[test]
fn recovery_rebuilds_exactly_the_committed_store() {
    cases(16, |_, rng| {
        let batches = batches(rng);
        let dir = scratch_dir("roundtrip");
        let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let site = SiteId::new(0);
        let (mut persist, mut store, _) = Persist::open(&config, site).expect("open");
        for batch in &batches {
            commit_batch(&mut store, &mut persist, batch);
        }
        drop(persist);
        let (_, recovered, report) = Persist::open(&config, site).expect("reopen");
        assert!(!report.torn_tail);
        assert_eq!(report.wal_records_applied, batches.len() as u64);
        assert_eq!(&recovered, &store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Every strict prefix of an encoded record fails with
/// `UnexpectedEof` — the torn-tail shape — and never any other
/// error. This is what makes "tolerate exactly one trailing tear"
/// sound: a crash cannot manufacture a prefix that decodes as a
/// different record or as non-tear corruption.
#[test]
fn every_record_prefix_is_torn_not_corrupt() {
    cases(16, |_, rng| {
        let seq = (rng.next_u64() >> rng.below(64)) % u64::from(u32::MAX);
        let payload = bytes(rng, 0..64);
        let full = encode_record(seq, &payload);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert_eq!(
                decode_record(&mut buf).unwrap_err(),
                WireError::UnexpectedEof,
                "cut {} of {}",
                cut,
                full.len()
            );
        }
        let mut buf = full.clone();
        let (got_seq, got_payload) = decode_record(&mut buf).expect("full record decodes");
        assert_eq!(got_seq, seq);
        assert_eq!(&got_payload[..], &payload[..]);
    });
}

/// Cut the WAL file at *any* byte: recovery still succeeds (past
/// the header) and lands exactly on the store at the last whole
/// record before the cut — the crash-anywhere guarantee.
#[test]
fn any_wal_cut_recovers_the_last_whole_record_state() {
    cases(16, |_, rng| {
        let batches = batches(rng);
        let dir = scratch_dir("cut");
        let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let site = SiteId::new(2);
        let (mut persist, mut store, _) = Persist::open(&config, site).expect("open");
        // (file length so far, digest at that record boundary)
        let mut boundaries = vec![(persist.wal_len(), store.replica_digest())];
        for batch in &batches {
            commit_batch(&mut store, &mut persist, batch);
            boundaries.push((persist.wal_len(), store.replica_digest()));
        }
        drop(persist);
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).expect("read wal");
        let header_len = boundaries[0].0;

        for cut in 0..=full.len() as u64 {
            std::fs::write(&wal_path, &full[..cut as usize]).expect("truncate");
            let result = Persist::open(&config, site);
            if cut < header_len {
                // A header can never be torn (it is written atomically);
                // a short header is corruption and must refuse to open.
                assert!(result.is_err(), "cut {} inside header opened", cut);
                continue;
            }
            let (_, recovered, _) = result.expect("open after cut");
            let expected = boundaries
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut)
                .expect("header boundary exists")
                .1;
            assert_eq!(
                recovered.replica_digest(),
                expected,
                "cut {} recovered a state off every record boundary",
                cut
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Flip a byte inside the payload of a record that is NOT the tail:
/// the checksum catches it and recovery refuses — corruption before
/// the tail must never be silently skipped as if it were a tear.
/// (Values are sized so the flipped byte is well clear of the
/// varint framing; a corrupted *length* varint is the documented
/// undetectable case, indistinguishable from a tear.)
#[test]
fn mid_log_payload_corruption_refuses_recovery() {
    cases(16, |_, rng| {
        let value = bytes(rng, 48..96);
        let flip = rng.range(1..256) as u8;
        let dir = scratch_dir("flip");
        let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
        let site = SiteId::new(1);
        let (mut persist, mut store, _) = Persist::open(&config, site).expect("open");
        let start = persist.wal_len();
        commit_batch(&mut store, &mut persist, &[("victim".into(), value)]);
        let end = persist.wal_len();
        commit_batch(&mut store, &mut persist, &[("tail".into(), vec![1, 2, 3])]);
        drop(persist);

        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).expect("read wal");
        // Mid-record: past any leading varints, clear of the trailing
        // checksum (values are ≥48 bytes, framing varints ≤15 total).
        let target = ((start + end) / 2) as usize;
        bytes[target] ^= flip;
        std::fs::write(&wal_path, &bytes).expect("write corrupted wal");
        assert!(
            Persist::open(&config, site).is_err(),
            "corrupted non-tail record recovered silently"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}
