//! `NodeCore` driven from one thread: in-process links, directories in
//! memory, one seed.

use super::*;
use crate::persist::{DurabilityConfig, FsyncPolicy, MemDir};
use optrep_core::obs::{self, CheckSink, Sink};
use optrep_core::rng::SplitMix64;
use optrep_replication::{InProcessLink, Serving};
use std::collections::HashMap;

/// A core booted from `dir` with every append fsynced, so that what it
/// acknowledged survives a crash.
fn boot(dir: &MemDir, site: usize) -> (NodeCore, ReplayReport) {
    let config = DurabilityConfig::new("in memory").with_fsync(FsyncPolicy::Always);
    let site = SiteId::new(site as u32);
    let (persist, store, report) = Persist::open_in(Box::new(dir.clone()), &config, site)
        .expect("a directory in memory opens");
    let registry = Arc::new(MetricsRegistry::new());
    (
        NodeCore::new(store, Some((persist, report)), registry),
        report,
    )
}

/// What a connection keeps between pulls: the serving end's memory of
/// it and the puller's. A pooled socket keeps the same two.
type Connection = (Serving, VectorMemory);

/// One pull of `puller` from `source` over an in-process link on
/// `connection`. Returns the report and how many attempts it took.
fn pull(
    puller: &NodeCore,
    source: &mut dyn FnMut(ContactAsk<'_>) -> ContactAnswer,
    connection: &mut Connection,
) -> (Result<KvSyncReport>, usize) {
    let (serving, remembered) = connection;
    let mut link = InProcessLink::serving(serving, source);
    let mut attempts = 0;
    let pulled = puller.pull_from(|contact| {
        attempts += 1;
        contact(&mut link, remembered)
    });
    (pulled, attempts)
}

/// Three durable cores on one thread, from one seed: seeded writes and
/// pulls between them, a checkpoint of one, then a crash and a reboot of
/// that one from its directory, then pulls until every pair has pulled
/// twice. Every acknowledged write survives the reboot byte for byte,
/// the three end equal, and every committed pull is one contact the
/// `CheckSink` checked.
#[test]
fn three_cores_on_one_thread_converge_across_a_checkpoint_and_a_reboot() {
    const STEPS: usize = 300;
    let check = Arc::new(CheckSink::new());
    let mut rng = SplitMix64::new(0x0003_C0DE_5EED);
    let mut dirs: Vec<MemDir> = (0..3).map(|_| MemDir::default()).collect();
    let mut cores: Vec<NodeCore> = (dirs.iter().enumerate())
        .map(|(site, dir)| boot(dir, site).0)
        .collect();
    let mut connections: HashMap<(usize, usize), Connection> = HashMap::new();
    let mut committed = 0u64;
    obs::with(Arc::clone(&check) as Arc<dyn Sink>, || {
        let mut pull_pair = |cores: &[NodeCore], connections: &mut HashMap<_, _>, pair| {
            let (dst, src): (usize, usize) = pair;
            let connection = connections.entry(pair).or_default();
            let (pulled, attempts) = pull(
                &cores[dst],
                &mut |ask| cores[src].open_contact(ask, &mut 0),
                connection,
            );
            pulled.expect("an in-process pull with nothing racing it commits");
            assert_eq!(attempts, 1, "nothing raced the pull");
            committed += 1;
        };
        for step in 0..STEPS {
            if rng.chance(0.6) {
                let core = &cores[rng.below(3)];
                let key = format!("k{}", rng.below(40));
                let value = (!rng.chance(0.1)).then(|| rng.next_u64().to_le_bytes().to_vec());
                core.write(key, value.map(bytes::Bytes::from))
                    .expect("the write is logged");
            } else {
                let dst = rng.below(3);
                let src = (dst + 1 + rng.below(2)) % 3;
                pull_pair(&cores, &mut connections, (dst, src));
            }
            if step == STEPS / 3 {
                assert!(cores[0].checkpoint_now(), "the log holds writes");
            }
            if step == 2 * STEPS / 3 {
                let before = cores[0].store().encode_snapshot();
                dirs[0] = dirs[0].crash();
                let (rebooted, report) = boot(&dirs[0], 0);
                assert!(report.snapshot_seq > 0 && report.wal_records_applied > 0);
                assert_eq!(rebooted.store().encode_snapshot(), before);
                cores[0] = rebooted;
                // The reboot dropped core 0's connections with it.
                connections.retain(|&(dst, src), _| dst != 0 && src != 0);
            }
        }
        for _ in 0..2 {
            for dst in 0..3 {
                for src in (0..3).filter(|&src| src != dst) {
                    pull_pair(&cores, &mut connections, (dst, src));
                }
            }
        }
    });
    let digests: Vec<u64> = cores.iter().map(|c| c.store().replica_digest()).collect();
    assert!(digests.iter().all(|&d| d == digests[0]), "{digests:?}");
    check.finish().expect("every contact ends");
    assert_eq!(check.checked_contacts(), committed);
}

/// A write to the pulling core from inside a pull, at the two asks a
/// socket races only by luck, to a key the pull brings a newer version
/// of: at the `Plan` ask, after the digest vector the plan answers and
/// before the pull has snapshotted its endpoint, the source pushes the
/// key on that vector's proof, the puller cancels the push of a key it
/// wrote since, and the pull commits at once without it; at the
/// `Endpoint` ask, after the snapshot, the generation check refuses a
/// commit that would fast-forward the key over the write, and the pull
/// retries on the same link, where the write meets the source's version
/// as a conflict, which the join resolves to the write's larger bytes.
/// Either way the write survives. At one shard, where the puller's own
/// key keeps bulk7's shard from being proposed, bulk7 is walked: a write
/// at the `Plan` ask is in the endpoint the pull takes after it, and
/// meets the source's version as a conflict in the first attempt.
#[test]
fn a_write_racing_a_pull_survives_at_either_ask() {
    for at_plan in [true, false] {
        let (source, _) = boot(&MemDir::default(), 1);
        for i in 0..50 {
            let value = Some(vec![0u8; 256].into());
            source.write(format!("bulk{i}"), value).unwrap();
        }
        let (puller, _) = boot(&MemDir::default(), 0);
        let mut connection = Connection::default();
        let (first, _) = pull(
            &puller,
            &mut |ask| source.open_contact(ask, &mut 0),
            &mut connection,
        );
        first.expect("the first pull commits");
        source
            .write("bulk7".into(), Some(vec![1u8; 256].into()))
            .unwrap();
        // A key of the puller's own in a shard apart from bulk7's: the
        // plan walks that shard, so the contact has an endpoint ask
        // beside the push of bulk7. At one shard there is no other: the
        // key shares bulk7's shard, which the puller's write keeps from
        // being proposed, so that shard is walked and bulk7 is served
        // at the endpoint ask.
        let count = puller.store().shard_count() as u64;
        let shard_of = |key: &str| optrep_replication::planner::shard_of(key.as_bytes(), count);
        let own = (0..)
            .map(|i| format!("own{i}"))
            .find(|key| count == 1 || shard_of(key) != shard_of("bulk7"))
            .expect("a key in another shard");
        puller.write(own, Some(vec![2u8; 8].into())).unwrap();
        let mut racing = Some(bytes::Bytes::from_static(b"local"));
        let (pulled, attempts) = pull(
            &puller,
            &mut |ask| {
                if matches!(ask, ContactAsk::Plan { .. }) == at_plan {
                    if let Some(value) = racing.take() {
                        puller.write("bulk7".into(), Some(value)).unwrap();
                    }
                }
                source.open_contact(ask, &mut 0)
            },
            &mut connection,
        );
        let at = if at_plan { "plan" } else { "endpoint" };
        let report =
            pulled.unwrap_or_else(|e| panic!("the pull commits (write at the {at} ask): {e}"));
        assert!(racing.is_none(), "the write ran at the {at} ask");
        let store = puller.store();
        assert_eq!(store.get("bulk7"), Some(&b"local"[..]), "at the {at} ask");
        for i in (0..50).filter(|&i| i != 7) {
            assert_eq!(store.get(&format!("bulk{i}")), Some(&[0u8; 256][..]));
        }
        if count > 1 {
            assert_eq!(attempts, if at_plan { 1 } else { 2 }, "at the {at} ask");
        } else {
            // Walked, bulk7 is never pushed: the write at the plan ask
            // is in the endpoint the pull then takes and meets the
            // source's version there, the pull committing at once; the
            // write at the endpoint ask is refused and retried as above.
            let walked = (attempts, report.shards_proposed, report.keys_reconciled);
            assert_eq!(
                walked,
                (if at_plan { 1 } else { 2 }, 0, 1),
                "at the {at} ask"
            );
        }
    }
}

/// A proposal is checked against the digest vector a pull opens with,
/// and the pulling core takes its endpoint later, under another lock. A
/// key of its own written in between, beside a proposed shard's pushed
/// keys, is in neither endpoint: the pull commits at once, but
/// the shard holds more than it was served, so it must not be settled
/// as served — the next pull over the connection lists it again, and
/// the two ends' memories stay in step (a shard settled at what it
/// holds would fail the next delta's check).
#[test]
fn a_key_written_beside_a_proposal_before_the_endpoint_is_not_settled() {
    let (source, _) = boot(&MemDir::default(), 1);
    for i in 0..50 {
        let value = Some(vec![0u8; 256].into());
        source.write(format!("bulk{i}"), value).unwrap();
    }
    let (puller, _) = boot(&MemDir::default(), 0);
    let mut connection = Connection::default();
    let (first, _) = pull(
        &puller,
        &mut |ask| source.open_contact(ask, &mut 0),
        &mut connection,
    );
    first.expect("the first pull commits");
    source
        .write("bulk7".into(), Some(vec![1u8; 256].into()))
        .unwrap();
    let count = puller.store().shard_count() as u64;
    let shard = optrep_replication::planner::shard_of(b"bulk7", count);
    let beside = (0..)
        .map(|i| format!("mine{i}"))
        .find(|key| optrep_replication::planner::shard_of(key.as_bytes(), count) == shard)
        .expect("a key of the proposed shard");
    let mut racing = Some(beside.clone());
    let (pulled, attempts) = pull(
        &puller,
        &mut |ask| {
            if matches!(ask, ContactAsk::Plan { .. }) {
                if let Some(key) = racing.take() {
                    puller.write(key, Some(b"local"[..].into())).unwrap();
                }
            }
            source.open_contact(ask, &mut 0)
        },
        &mut connection,
    );
    let pulled = pulled.expect("the pull commits");
    assert_eq!((pulled.shards_proposed, attempts), (1, 1));
    assert_eq!(puller.store().get("bulk7"), Some(&[1u8; 256][..]));
    for _ in 0..2 {
        let (next, _) = pull(
            &puller,
            &mut |ask| source.open_contact(ask, &mut 0),
            &mut connection,
        );
        next.expect("the connection stays in step");
    }
    assert_eq!(puller.store().get(&beside), Some(&b"local"[..]));
}
