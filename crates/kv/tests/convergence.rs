//! Seeded property tests: a fleet of stores under arbitrary put/delete/sync
//! schedules always converges once gossip quiesces, and never loses a
//! causally-latest write.

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

/// All-pairs pulls until no store changes: quiescent gossip.
fn settle(fleet: &mut [KvStore]) {
    for _ in 0..fleet.len() * 4 {
        let mut changed = false;
        for i in 0..fleet.len() {
            for j in 0..fleet.len() {
                if i == j {
                    continue;
                }
                let before = fleet[i].clone();
                let src = fleet[j].clone();
                fleet[i].sync(&src).run().expect("settle");
                if fleet[i] != before {
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
    panic!("settle did not quiesce");
}

#[test]
fn fleet_converges_after_settling() {
    cases(48, |_, rng| {
        let mut fleet = run(4, &ops(rng, 4, 60));
        settle(&mut fleet);
        for pair in fleet.windows(2) {
            assert!(
                pair[0].consistent_with(&pair[1]),
                "stores diverged after quiescent gossip"
            );
        }
    });
}

#[test]
fn unconflicted_latest_write_survives() {
    cases(48, |_, rng| {
        // After settling, write one fresh value on store 0 and settle
        // again: with no concurrent writes it must win everywhere.
        let mut fleet = run(3, &ops(rng, 3, 40));
        settle(&mut fleet);
        fleet[0].put("k0", b"final".to_vec());
        settle(&mut fleet);
        for store in &fleet {
            assert_eq!(store.get("k0"), Some(&b"final"[..]));
        }
    });
}

#[test]
fn snapshots_roundtrip_any_state() {
    cases(48, |_, rng| {
        for store in &run(3, &ops(rng, 3, 40)) {
            let mut buf = store.encode_snapshot();
            let decoded = KvStore::decode_snapshot(&mut buf).unwrap();
            assert_eq!(&decoded, store);
        }
    });
}
