//! Seeded property tests for the durable encodings: `encode_snapshot` /
//! `decode_snapshot` (the checkpoint image) and `encode_entry` /
//! `apply_encoded_entry` (the WAL payload unit). Stores are driven
//! through arbitrary put/delete/sync schedules first so the encodings
//! see real multi-site metadata — vector clocks with several
//! components, tombstones, reconciled entries — not just fresh writes.
//!
//! The truncation discipline matches the wire protocols': the full
//! encoding round-trips exactly, and *every* strict prefix fails with
//! `UnexpectedEof` — the one error shape crash recovery is allowed to
//! treat as a torn tail. No prefix may decode to a different store, and
//! none may fail in a way replay would misread as corruption.

use bytes::Buf;
use optrep_core::error::WireError;
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::SiteId;
use optrep_kv::KvStore;

#[derive(Debug, Clone)]
enum Op {
    Put { store: usize, key: u8, val: u8 },
    Delete { store: usize, key: u8 },
    Sync { dst: usize, src: usize },
}

fn ops(rng: &mut SplitMix64, stores: usize, len: usize) -> Vec<Op> {
    (0..rng.range(1..len))
        .map(|_| {
            let (store, key) = (rng.below(stores), rng.below(5) as u8);
            match rng.below(3) {
                0 => Op::Put {
                    store,
                    key,
                    val: rng.next_u64() as u8,
                },
                1 => Op::Delete { store, key },
                _ => Op::Sync {
                    dst: store,
                    src: (store + rng.range(1..stores)) % stores,
                },
            }
        })
        .collect()
}

fn run(stores: usize, schedule: &[Op]) -> Vec<KvStore> {
    let mut fleet: Vec<KvStore> = (0..stores)
        .map(|i| KvStore::new(SiteId::new(i as u32)))
        .collect();
    for op in schedule {
        match op {
            Op::Put { store, key, val } => {
                fleet[*store].put(format!("k{key}"), vec![*val]);
            }
            Op::Delete { store, key } => {
                fleet[*store].delete(format!("k{key}"));
            }
            Op::Sync { dst, src } => {
                let src = fleet[*src].clone();
                fleet[*dst].sync(&src).run().expect("sync");
            }
        }
    }
    fleet
}

/// The checkpoint image is lossless: decoding it rebuilds a store
/// equal (site + every entry, metadata included via `PartialEq`)
/// to the one encoded, with an identical replica digest and an
/// identical re-encoding.
#[test]
fn snapshot_roundtrips_exactly() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 40);
        for store in run(3, &schedule) {
            let image = store.encode_snapshot();
            let mut buf = image.clone();
            let decoded = KvStore::decode_snapshot(&mut buf).expect("snapshot decodes");
            assert!(!buf.has_remaining(), "decode must consume the whole image");
            assert_eq!(&decoded, &store);
            assert_eq!(decoded.replica_digest(), store.replica_digest());
            assert_eq!(decoded.encode_snapshot(), image);
        }
    });
}

/// Every strict prefix of a snapshot is torn, not corrupt: decoding
/// fails with exactly `UnexpectedEof`, never succeeds on partial
/// state, never panics. This is what lets recovery classify a short
/// snapshot read as a tear rather than silently accepting a store
/// missing its tail entries.
#[test]
fn every_snapshot_prefix_is_rejected_as_torn() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 25);
        for store in run(3, &schedule) {
            let image = store.encode_snapshot();
            for cut in 0..image.len() {
                let mut buf = image.slice(0..cut);
                assert_eq!(
                    KvStore::decode_snapshot(&mut buf).unwrap_err(),
                    WireError::UnexpectedEof,
                    "cut {} of {}",
                    cut,
                    image.len()
                );
            }
        }
    });
}

/// The WAL payload unit round-trips: applying an encoded entry to
/// any other store reproduces that key's exact post-state (the
/// effect-logging contract replay depends on), and every strict
/// prefix — plus any trailing byte — is rejected without touching
/// the target store.
#[test]
fn encoded_entries_roundtrip_and_reject_truncation() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 40);
        let junk = rng.next_u64() as u8;
        let fleet = run(3, &schedule);
        for store in &fleet {
            // The schedule's whole key universe: probes hit live keys
            // and tombstones alike (untracked keys encode as `None`).
            for key in (0u8..5).map(|k| format!("k{k}")) {
                let Some(entry) = store.encode_entry(&key) else {
                    continue;
                };

                let mut target = KvStore::new(SiteId::new(9));
                let mut buf = entry.clone();
                target
                    .apply_encoded_entry(key.clone(), &mut buf)
                    .expect("entry applies");
                assert_eq!(
                    target.encode_entry(&key).expect("applied key is tracked"),
                    entry.clone(),
                    "replayed post-state differs for {}",
                    key
                );

                for cut in 0..entry.len() {
                    let mut target = KvStore::new(SiteId::new(9));
                    let before = target.generation();
                    let mut buf = entry.slice(0..cut);
                    assert!(
                        target.apply_encoded_entry(key.clone(), &mut buf).is_err(),
                        "cut {} of {} applied",
                        cut,
                        entry.len()
                    );
                    assert_eq!(
                        target.generation(),
                        before,
                        "failed apply mutated the store"
                    );
                }

                let mut padded = bytes::BytesMut::new();
                padded.extend_from_slice(&entry);
                padded.extend_from_slice(&[junk]);
                let mut buf = padded.freeze();
                let mut target = KvStore::new(SiteId::new(9));
                assert_eq!(
                    target
                        .apply_encoded_entry(key.clone(), &mut buf)
                        .unwrap_err(),
                    WireError::InvalidPayload,
                    "trailing byte accepted for {}",
                    key
                );
            }
        }
    });
}

/// Snapshot encoding is deterministic and idempotent across a
/// crash/recover cycle: the same history encodes to the same bytes,
/// and re-encoding a recovered store is a fixed point — so repeated
/// checkpoint/replay cycles can never drift. Converged *replicas*,
/// by contrast, agree only on `replica_digest`: their snapshot
/// bytes legitimately differ (hosting site id, rotating-vector
/// segments), which is why cross-daemon comparisons use digests.
#[test]
fn snapshot_encoding_is_deterministic_and_stable() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 40);
        let once = run(3, &schedule);
        let twice = run(3, &schedule);
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(a.encode_snapshot(), b.encode_snapshot());
        }
        // Mutually converged replicas: equal digests, yet (in general)
        // different images — recovery must compare digests, not bytes.
        let mut fleet = once;
        for _ in 0..4 {
            let src = fleet[1].clone();
            fleet[0].sync(&src).run().expect("pull");
            let src = fleet[0].clone();
            fleet[1].sync(&src).run().expect("pull");
        }
        assert_eq!(fleet[0].replica_digest(), fleet[1].replica_digest());
        // Checkpoint → replay → checkpoint is a fixed point per store.
        for store in &fleet {
            let image = store.encode_snapshot();
            let mut buf = image.clone();
            let recovered = KvStore::decode_snapshot(&mut buf).expect("decode");
            assert_eq!(recovered.encode_snapshot(), image);
        }
    });
}
