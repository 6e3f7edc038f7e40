//! Seeded property tests: a fleet of stores under arbitrary put/delete/sync
//! schedules — values rewritten as they are held among them — always
//! converges once gossip quiesces, and never loses a causally-latest
//! write. Two named probes hold the shard digests to the same: a value
//! rewritten as it is held never leaves a puller behind, and never
//! leaves two replicas apart for good.

use optrep_core::rng::{cases, SplitMix64};
use optrep_core::SiteId;
use optrep_kv::{Connection, KvStore};
use optrep_replication::planner::shard_of;

#[derive(Debug, Clone)]
enum Op {
    Put {
        store: usize,
        key: u8,
        val: u8,
    },
    Delete {
        store: usize,
        key: u8,
    },
    /// The value the key holds written again, or its tombstone: only
    /// its vector moves.
    Rewrite {
        store: usize,
        key: u8,
    },
    Sync {
        dst: usize,
        src: usize,
    },
}

fn ops(rng: &mut SplitMix64, stores: usize, len: usize) -> Vec<Op> {
    (0..rng.range(1..len))
        .map(|_| {
            let (store, key) = (rng.below(stores), rng.below(5) as u8);
            match rng.below(4) {
                0 => Op::Put {
                    store,
                    key,
                    val: rng.next_u64() as u8,
                },
                1 => Op::Delete { store, key },
                2 => Op::Rewrite { store, key },
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
            Op::Rewrite { store, key } => rewrite(&mut fleet[*store], &format!("k{key}")),
            Op::Sync { dst, src } => {
                let src = fleet[*src].clone();
                fleet[*dst].sync(&src).run().expect("sync");
            }
        }
    }
    fleet
}

/// Writes `key` again with the value it holds, or deletes it again where
/// it holds none.
fn rewrite(store: &mut KvStore, key: &str) {
    match store.get(key).map(<[u8]>::to_vec) {
        Some(held) => store.put(key, held),
        None => store.delete(key),
    }
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

/// `n` keys named from `tag` that share one shard at `count` shards.
fn keys_of_one_shard(tag: u64, count: usize, n: usize) -> Vec<String> {
    let name = |i: u64| format!("p{tag}-{i}");
    let home = shard_of(name(0).as_bytes(), count as u64);
    (0..)
        .map(name)
        .filter(|key| shard_of(key.as_bytes(), count as u64) == home)
        .take(n)
        .collect()
}

/// A writer rewrites four keys of one shard once each with the value
/// each holds: each key's vector moves, and nothing else. The next pull
/// — a cold one, and one over the connection the last pull kept — must
/// leave the puller holding what the writer holds. With plain FNV-1a
/// entry hashes summed, the four moves cancelled in about one trial in
/// eight, the shard was skipped (or proposed and pushed nothing), and
/// the pull reported success with the puller behind.
#[test]
fn a_rewrite_of_held_values_never_leaves_a_pull_behind() {
    for shards in [1, 16, 512] {
        for trial in 0..100 {
            let mut rng = SplitMix64::new(trial);
            let keys = keys_of_one_shard(trial, shards, 4);
            let mut writer = KvStore::with_shards(SiteId::new(0), shards);
            for key in &keys {
                let value = vec![rng.next_u64() as u8; rng.range(1..9)];
                for _ in 0..rng.range(1..4) {
                    writer.put(key, value.clone());
                }
            }
            let mut cold = KvStore::with_shards(SiteId::new(1), shards);
            cold.sync(&writer).run().expect("join");
            let mut warm = cold.clone();
            let mut link = Connection::default();
            warm.sync(&writer)
                .over(&mut link)
                .run()
                .expect("first pull");
            for key in &keys {
                rewrite(&mut writer, key);
            }
            cold.sync(&writer).run().expect("cold pull");
            warm.sync(&writer).over(&mut link).run().expect("warm pull");
            for (how, puller) in [("cold", &cold), ("warm", &warm)] {
                assert!(
                    puller.consistent_with(&writer),
                    "{how} pull left behind: {shards} shards, trial {trial}"
                );
            }
        }
    }
}

/// Two writers each rewrite one key with the value it holds, and two
/// pullers end ahead on one key each: P holds `a{1:2} b{2:3}`, Q holds
/// `a{1:3} b{2:2}`, the two keys in one shard. Pulls both ways must
/// bring them level. With plain FNV-1a entry hashes summed, P's and Q's
/// digests were equal for about half such key pairs, and every pull
/// skipped the shard: the two stayed apart until one of the keys was
/// written again.
#[test]
fn rewrites_of_held_values_never_leave_two_replicas_apart() {
    for shards in [1, 16, 512] {
        let keys = keys_of_one_shard(shards as u64, shards, 24);
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                let (mut w1, mut w2) = (
                    KvStore::with_shards(SiteId::new(1), shards),
                    KvStore::with_shards(SiteId::new(2), shards),
                );
                let mut p = KvStore::with_shards(SiteId::new(3), shards);
                let mut q = KvStore::with_shards(SiteId::new(4), shards);
                w1.put(a, "va");
                w1.put(a, "va");
                w2.put(b, "vb");
                w2.put(b, "vb");
                p.sync(&w1).run().expect("a at 2");
                q.sync(&w2).run().expect("b at 2");
                rewrite(&mut w1, a);
                rewrite(&mut w2, b);
                q.sync(&w1).run().expect("a at 3");
                p.sync(&w2).run().expect("b at 3");
                assert!(!p.consistent_with(&q), "{a} {b}: P and Q apart to begin");
                let q_before = q.clone();
                p.sync(&q_before).run().expect("P pulls Q");
                q.sync(&p).run().expect("Q pulls P");
                assert!(
                    p.consistent_with(&q),
                    "{a} {b} at {shards} shards: P and Q apart after pulls both ways"
                );
            }
        }
    }
}
