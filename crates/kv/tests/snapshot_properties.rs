//! Seeded property tests for the durable encodings: `encode_snapshot` /
//! `decode_snapshot` (the checkpoint image) and `encode_entry` /
//! `apply_encoded_entry` (the WAL payload unit). Stores are driven
//! through arbitrary put/delete/sync schedules first so the encodings
//! see real multi-site metadata — vector clocks with several
//! components, tombstones, reconciled entries — not just fresh writes.
//!
//! That every strict prefix of a snapshot fails with `UnexpectedEof` —
//! the one error shape crash recovery is allowed to treat as a torn tail
//! — and that a cut or padded entry is refused are the hostile-bytes
//! harness's (`tests/hostile.rs`).

use bytes::Buf;
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

/// The WAL payload unit round-trips: applying an encoded entry to
/// any other store reproduces that key's exact post-state (the
/// effect-logging contract replay depends on).
#[test]
fn encoded_entries_roundtrip() {
    cases(32, |_, rng| {
        let schedule = ops(rng, 3, 40);
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
