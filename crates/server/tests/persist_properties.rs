//! Seeded property tests for crash recovery: a WAL cut at any byte
//! recovers exactly the store at the last whole-record boundary, and
//! corruption that is not a tail tear is a hard replay error, never
//! skipped. That every strict prefix of a record is *torn* (fails with
//! `UnexpectedEof`, the one shape replay tolerates) is the hostile-bytes
//! harness's (`tests/hostile.rs`).

use bytes::Bytes;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::SiteId;
use optrep_kv::KvStore;
use optrep_server::persist::{DurabilityConfig, FsyncPolicy, Persist, WAL_FILE};
use std::collections::BTreeMap;
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

/// One write of a batch: a put of a value, or a delete.
type Write = (String, Option<Vec<u8>>);

/// Logical mutation batches: the writes a single WAL record will carry
/// (a 1-write batch is a `put`; larger ones model a contact commit). One
/// to three letters of `abc` a key, so keys repeat — across batches and
/// inside one, where the last write wins. Now and then a write puts the
/// value its key already holds, or deletes a key deleted or never
/// written.
fn batches(rng: &mut SplitMix64) -> Vec<Vec<Write>> {
    let key = |rng: &mut SplitMix64| -> String {
        (0..rng.range(1..4))
            .map(|_| (b'a' + rng.below(3) as u8) as char)
            .collect()
    };
    // What each key holds once the batches drawn so far are committed.
    let mut held: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
    let mut batches = Vec::new();
    for _ in 0..rng.range(1..5) {
        let mut batch: Vec<Write> = Vec::new();
        for _ in 0..rng.range(1..4) {
            let write = match rng.below(8) {
                0 => {
                    // A rewrite of the value a key holds, if one does.
                    let live: Vec<_> = held.iter().filter(|(_, v)| v.is_some()).collect();
                    match live.get(rng.range(0..live.len().max(1))) {
                        Some((key, value)) => ((*key).clone(), (*value).clone()),
                        None => (key(rng), Some(bytes(rng, 1..24))),
                    }
                }
                1 => {
                    // A delete of a key deleted or never written.
                    let mut k = key(rng);
                    while held.get(&k).is_some_and(Option::is_some) {
                        k.push('d');
                    }
                    (k, None)
                }
                2 if !batch.is_empty() => {
                    // A key the batch wrote already, written again.
                    let again = batch[rng.range(0..batch.len())].0.clone();
                    (again, Some(bytes(rng, 1..24)))
                }
                _ => (key(rng), Some(bytes(rng, 1..24))),
            };
            held.insert(write.0.clone(), write.1.clone());
            batch.push(write);
        }
        batches.push(batch);
    }
    batches
}

/// Applies one batch to `store` and logs it as one record: each write's
/// post-state listed as it was written, a key written twice listed
/// twice — `Persist::append` sorts them and logs the state listed last.
fn commit_batch(store: &mut KvStore, persist: &mut Persist, batch: &[Write]) {
    let mut changed: Vec<(String, Bytes)> = Vec::new();
    for (key, value) in batch {
        match value {
            Some(value) => store.put(key.clone(), value.clone()),
            None => store.delete(key.clone()),
        }
        changed.push((key.clone(), store.encode_entry(key).expect("tracked")));
    }
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
        commit_batch(&mut store, &mut persist, &[("victim".into(), Some(value))]);
        let end = persist.wal_len();
        commit_batch(
            &mut store,
            &mut persist,
            &[("tail".into(), Some(vec![1, 2, 3]))],
        );
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
