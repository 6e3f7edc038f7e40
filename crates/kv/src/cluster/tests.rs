use super::*;
use crate::record::Record;
use crate::tests::s;
use optrep_core::error::WireError;
use optrep_core::Error;

/// Sixteen stores at sixteen shards, `keys` keys spread over the first
/// four.
fn seeded(keys: u32) -> KvCluster {
    let mut cluster = KvCluster::new(16, 16);
    for i in 0..keys {
        cluster.store_mut(s(i % 4)).put(format!("seed{i}"), "v");
    }
    cluster
}

/// Rounds until every store holds the same state.
fn converge(cluster: &mut KvCluster, rng: &mut SplitMix64, max_rounds: usize) -> Vec<RoundReport> {
    let mut reports = Vec::new();
    while !cluster.converged() {
        assert!(reports.len() < max_rounds, "cluster failed to converge");
        reports.push(cluster.round(rng).unwrap());
    }
    reports
}

#[test]
fn a_faulty_round_is_a_function_of_its_seed() {
    let run = || {
        let mut cluster = seeded(6).with_fault(FaultPlan::dropping(0xFA11, 100));
        let mut rng = SplitMix64::new(0xC0FFEE);
        let reports = converge(&mut cluster, &mut rng, 200);
        let digests: Vec<u64> = cluster
            .stores()
            .iter()
            .map(KvStore::replica_digest)
            .collect();
        let ledgers = (cluster.digest_bytes(), cluster.keys_reconciled());
        (reports, digests, ledgers)
    };
    let first = run();
    assert_eq!(run(), first, "same seed, same rounds, digests and counters");
    let aborted: u64 = first.0.iter().map(|r| r.aborted).sum();
    assert!(aborted > 0, "10% drop should abort something");
    let dropped: u64 = first.0.iter().map(|r| r.fault.frames_dropped).sum();
    assert!(dropped > 0, "fault stats flow into the round reports");
}

/// A pull that completes over a link that injected nothing, and then
/// fails to stage, ends the round with its error — under a fault plan
/// too — instead of being retried as an abort: store 0 holds a
/// tombstone under a tag no encoder writes, and store 1 bulk-loads it.
#[test]
fn a_pull_that_fails_to_stage_on_a_clean_link_ends_the_round() {
    for plan in [None, Some(FaultPlan::clean())] {
        let mut cluster = KvCluster::new(2, 1);
        if let Some(plan) = plan {
            cluster = cluster.with_fault(plan);
        }
        let store = cluster.store_mut(s(0));
        store.delete("x");
        let mut image = store.record(b"x").unwrap().bytes().to_vec();
        *image.last_mut().unwrap() = 2;
        store.insert_record(Record::split_first(&image).0);
        let before = cluster.stores()[1].clone();
        let err = cluster.round(&mut SplitMix64::new(1)).unwrap_err();
        assert_eq!(err, Error::Wire(WireError::InvalidPayload), "{plan:?}");
        assert_eq!(cluster.stores()[1], before, "{plan:?}");
    }
}

/// A converged pair's pull over the connection its earlier pulls kept
/// opens with an empty delta: a round of them ships no shard digest.
#[test]
fn a_pair_pulls_again_over_the_connection_it_kept() {
    let mut cluster = seeded(24);
    let mut rng = SplitMix64::new(9);
    converge(&mut cluster, &mut rng, 100);
    // Enough rounds that every directed pair drawn again has pulled.
    for _ in 0..40 {
        cluster.round(&mut rng).unwrap();
    }
    let full = {
        let mut fresh = cluster.stores()[1].clone();
        fresh.sync(&cluster.stores()[0]).run().unwrap().digest_bytes as u64
    };
    let before = cluster.digest_bytes();
    let report = cluster.round(&mut rng).unwrap();
    assert_eq!(report.contacts, 16);
    let shipped = cluster.digest_bytes() - before;
    assert!(
        shipped < 16 * full / 4,
        "{shipped} planner bytes over 16 kept connections, {full} a fresh one"
    );
}

/// Every store pulls from itself nowhere and from everyone eventually,
/// under 10% frame loss, and ends where the others end.
#[test]
fn faulty_gossip_converges_under_frame_loss() {
    let mut cluster = seeded(4).with_fault(FaultPlan::dropping(99, 100));
    let mut rng = SplitMix64::new(17);
    let reports = converge(&mut cluster, &mut rng, 200);
    let aborted: u64 = reports.iter().map(|r| r.aborted).sum();
    let contacts: u64 = reports.iter().map(|r| r.contacts).sum();
    assert!(contacts > 0);
    assert!(
        aborted > 0,
        "10% drop over {contacts} contacts aborted none"
    );
}

/// The gossip tests' schedule (`optrep_replication::gossip`'s
/// `diverged_cluster`) between stores: key `obj` written at site 0, then
/// five rounds, after each of which the first four stores that hold the
/// key write it again. One value a key instead of a set of tokens: the
/// join keeps the larger.
fn storm_cluster(n: u32, rng: &mut SplitMix64) -> KvCluster {
    let mut cluster = KvCluster::new(n, 16);
    cluster.store_mut(s(0)).put("obj", "init");
    for round in 0..5u32 {
        cluster.round(rng).unwrap();
        for i in 0..n.min(4) {
            let store = cluster.store_mut(s(i));
            if store.meta("obj").is_some() {
                store.put("obj", format!("{}:{round}", s(i)));
            }
        }
    }
    cluster
}

/// Rounds (at most `max`) until the cluster converges, `None` if it did
/// not.
fn rounds_to_converge(cluster: &mut KvCluster, rng: &mut SplitMix64, max: u64) -> Option<u64> {
    (1..=max).find(|_| {
        cluster.round(rng).unwrap();
        cluster.converged()
    })
}

/// Seed 42 at ten stores storms past round 200 here too, as its `Site`
/// run does (`a_reconciliation_storm_outlasts_200_rounds_and_settle_ends_it`
/// in `optrep_replication::gossip`): every store holds the same value
/// within ten rounds, and random pulls then reconcile it over and over —
/// the planned pull skips a shard only where the digests match, and a
/// storm is replicas with equal values under vectors that differ. A star
/// sweep ends it, and it stays ended.
#[test]
fn the_storm_schedule_between_stores() {
    let mut rng = SplitMix64::new(42);
    let mut cluster = storm_cluster(10, &mut rng);
    assert_eq!(rounds_to_converge(&mut cluster, &mut rng, 10), None);
    let value = |cluster: &KvCluster, i: usize| cluster.stores()[i].get("obj").map(<[u8]>::to_vec);
    assert!((1..10).all(|i| value(&cluster, i) == value(&cluster, 0)));

    let before = cluster.keys_reconciled();
    let rounds = rounds_to_converge(&mut cluster, &mut rng, 190);
    assert_eq!(rounds, None, "the storm outlasts 200 rounds");
    let stormed = cluster.keys_reconciled() - before;
    assert!(
        stormed > 3 * 190,
        "{stormed} reconciliations of equal values"
    );

    // Store 0 pulls from every other, then every other from store 0.
    for phase in 0..2 {
        for i in 1..10 {
            let (hub, spoke) = cluster.stores.split_at_mut(i);
            match phase {
                0 => hub[0].sync(&spoke[0]).run().unwrap(),
                _ => spoke[0].sync(&hub[0]).run().unwrap(),
            };
        }
    }
    assert!(cluster.converged());
    let settled = cluster.keys_reconciled();
    assert_eq!(rounds_to_converge(&mut cluster, &mut rng, 10), Some(1));
    assert_eq!(cluster.keys_reconciled(), settled, "nothing re-opens it");
}

/// EXPERIMENTS.md finding 2's sweep between stores: the storm schedule
/// at 6, 8 and 10 stores over the seeds 0..256, each given 200 rounds.
/// Prints, per size, how many converged and the slowest that did.
/// `cargo test -p optrep-kv --lib storm_sweep -- --ignored --nocapture`.
#[test]
#[ignore = "a sweep, minutes in debug; its numbers are in EXPERIMENTS.md"]
fn storm_sweep() {
    for n in [6, 8, 10] {
        let mut slowest = 0;
        let mut stormed = Vec::new();
        for seed in 0..256 {
            let mut rng = SplitMix64::new(seed);
            let mut cluster = storm_cluster(n, &mut rng);
            match rounds_to_converge(&mut cluster, &mut rng, 200) {
                Some(rounds) => slowest = slowest.max(rounds),
                None => stormed.push(seed),
            }
        }
        eprintln!(
            "n = {n}: {} of 256 converged within 200 rounds, the slowest after {slowest}; \
             still storming: {stormed:?}",
            256 - stormed.len()
        );
    }
}
