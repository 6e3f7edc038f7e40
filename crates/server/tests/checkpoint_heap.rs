//! The heap a checkpoint and a boot hold, counted exactly.
//!
//! A checkpoint streams a store's records into the snapshot file and a
//! boot reads the file back a chunk at a time, so neither holds a whole
//! store image. This binary installs `optrep_core::hostile`'s counting
//! allocator and reads it per thread (so the harness's threads and a
//! node's own do not blur it) and bounds, on a store of 20 000 keys of 256
//! bytes — `dense_pull`'s shape: what a checkpoint holds (a chunk and a
//! merge cursor a shard), what a boot holds beside the store it rebuilds
//! (256 KiB, at every shard count), the read buffer for a record longer
//! than a chunk (that record and a chunk), what logging a commit of every
//! key holds (a chunk: no record, no copy of an entry), what a join that
//! commits them holds beside the store it builds (a run's bookkeeping a
//! shard) and keeps beside what a boot of the same image keeps (its
//! journal), and what stopping a node whose log the snapshot already
//! covers asks for (next to
//! nothing: no image is built to be thrown away). It prints what it
//! measured (`--nocapture`). It is its own test binary so the allocator
//! touches nothing else.

use bytes::Bytes;
use optrep_core::hostile::{on_thread, Counting};
use optrep_core::SiteId;
use optrep_kv::{EntryImage, JoinResolver, KvStore};
use optrep_replication::mux::run_contact;
use optrep_replication::planner::{PlanConfig, JOURNAL_CAP};
use optrep_server::persist::SNAPSHOT_FILE;
use optrep_server::{DurabilityConfig, FsyncPolicy, Node, NodeConfig, Persist};
use std::path::PathBuf;

#[global_allocator]
static COUNTING: Counting = Counting;

const KEYS: usize = 20_000;
const VALUE: usize = 256;
/// The reader's and the writer's chunk, with room for the small things
/// a checkpoint or a boot allocates besides.
const SLACK: usize = 256 * 1024;
/// `persist`'s read and write chunk.
const CHUNK: usize = 64 * 1024;
/// A store's change journal, once written to: [`JOURNAL_CAP`] entries
/// of 16 B.
const JOURNAL: usize = JOURNAL_CAP * 16;
/// One cursor of a store's merge, with room: a shard's page list
/// iterator and the rest of a page, and its head in the heap (the next
/// record, its key and prefix, which cursor). Also a shard's run, with
/// room, as a boot, a log record or a join stages it: its open page's
/// bookkeeping and its list of pages.
const CURSOR: usize = 128;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "optrep-checkpoint-heap-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn written(site: SiteId, keys: usize) -> KvStore {
    let mut store = KvStore::new(site);
    for i in 0..keys {
        store.put(format!("k{i:07}"), vec![b'v'; VALUE]);
    }
    store
}

fn config(dir: &PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never)
}

/// A checkpoint holds a chunk and a cursor a shard — the merge it walks
/// the store in key order with — where writing the store's image and
/// then the file's copy of it held both whole, and sorting a list of the
/// records held 8 B a key. A boot, from the snapshot and a log of
/// single-key records behind it, holds a chunk beside the store it
/// rebuilds, where it held the file. Each record is written into its
/// shard's open page as it is decoded, and the open page grows by that
/// record's exact length, so it is a page of the store as it stands; a
/// full one is closed behind it, and each shard's set is built once from
/// its pages, with full nodes. Nothing is staged a key: before, a boot
/// staged a 16-byte record handle a key, beside the set built from them,
/// and at one shard that run was the whole store's, so there only the
/// boot's whole peak was bounded (by the store put key by key and the
/// slack). Now the one bound holds at every shard count.
#[test]
fn a_checkpoint_and_a_boot_hold_a_chunk_not_the_store_image() {
    let site = SiteId::new(1);
    let dir = tmpdir("bounds");
    let (mut store, by_key) = on_thread(|| written(site, KEYS));
    let by_key = by_key.kept as usize;
    let shards = store.shard_count();
    let image = store.encode_snapshot().len();
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    let (done, streamed) = on_thread(|| persist.checkpoint_store(&store));
    done.unwrap();
    let (done, whole) = on_thread(|| persist.checkpoint(&store.encode_snapshot()));
    done.unwrap();
    for i in (0..KEYS).step_by(20) {
        let key = format!("k{i:07}");
        store.put(key.clone(), vec![b'w'; VALUE]);
        let entry = store.encode_entry(&key).unwrap();
        persist.append(&[(key, entry)]).unwrap();
    }
    drop(persist);
    let (opened, boot) = on_thread(|| Persist::open(&config(&dir), site));
    let (persist, booted, report) = opened.unwrap();
    assert_eq!(booted, store);
    assert_eq!(report.wal_records_applied, (KEYS / 20) as u64);
    let kept = boot.kept as usize;

    eprintln!("{KEYS} keys x {VALUE} B, image {image} B");
    eprintln!("what                           peak B     bound B");
    let checkpoint_bound = CHUNK + shards * CURSOR + 4096;
    let boot_bound = kept + SLACK;
    eprintln!(
        "checkpoint, streamed      {:>11}  {checkpoint_bound:>10}",
        streamed.peak
    );
    eprintln!("checkpoint of an image    {:>11}           -", whole.peak);
    eprintln!("  (encode_snapshot, then Persist::checkpoint: the image is held whole)");
    eprintln!("boot: snapshot + {} log records", KEYS / 20);
    eprintln!("  store and handle kept   {kept:>11}");
    eprintln!("  store put key by key    {by_key:>11}");
    eprintln!(
        "  peak                    {:>11}  {boot_bound:>10}",
        boot.peak
    );
    assert!(
        streamed.peak <= checkpoint_bound,
        "a checkpoint held {} B",
        streamed.peak
    );
    assert!(
        boot.peak <= boot_bound,
        "a boot held {} B beside a store of {kept} B",
        boot.peak
    );
    drop(persist);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A commit of every key of a store — a cold join's — is logged the
/// daemon's way, from an iterator over its keys that reads each entry
/// where it lies in the store: the append holds one chunk-sized buffer.
/// Building the record first held the record (5.5 MB here) and a list of
/// the borrowed pairs (32 B a key); copying each key and entry out
/// before that held a second copy of the store as well.
#[test]
fn a_commit_of_every_key_is_logged_without_a_copy_of_each_entry() {
    let site = SiteId::new(4);
    let dir = tmpdir("commit");
    let store = written(site, KEYS);
    let keys: Vec<String> = (0..KEYS).map(|i| format!("k{i:07}")).collect();
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    let (record, streamed) =
        on_thread(|| persist.append_entries(store.entries_of(&keys)).unwrap() as usize);
    let ((), copied) = on_thread(|| {
        let changed: Vec<(String, Bytes)> = (keys.iter())
            .map(|key| (key.clone(), store.encode_entry(key).unwrap()))
            .collect();
        persist.append(&changed).unwrap();
    });
    drop(persist);
    let (_, booted, report) = Persist::open(&config(&dir), site).unwrap();
    assert_eq!((booted, report.wal_records_applied), (store, 2));

    let bound = CHUNK + 4096;
    eprintln!("a commit of {KEYS} keys, record {record} B   peak B     bound B");
    eprintln!(
        "  streamed from the store       {:>11}  {bound:>10}",
        streamed.peak
    );
    eprintln!(
        "  entries copied out first      {:>11}           -",
        copied.peak
    );
    assert!(record > 4 * CHUNK, "a record of {record} B");
    assert!(streamed.peak <= bound, "{} B", streamed.peak);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A join — an all-snapshot plan of every key of a store, applied to an
/// empty one — holds the store it keeps and a run's bookkeeping a shard:
/// each record is written into its shard's open page, grown to its exact
/// length, as its image is decoded, and the pages become the shard's. No
/// staged copy of a record, and no run of record handles (16 B a key,
/// which it held before). It keeps what booting the same image keeps,
/// its change journal and what the commit names, a few words a shard:
/// the commit names the shards the image filled, where it listed the
/// keys it changed (a `String` a key, which it kept before).
#[test]
fn a_join_holds_the_store_it_builds_and_its_runs() {
    let src = written(SiteId::new(5), KEYS);
    let dir = tmpdir("join");
    let (mut persist, _, _) = Persist::open(&config(&dir), src.site()).unwrap();
    persist.checkpoint_store(&src).unwrap();
    drop(persist);
    let (opened, boot) = on_thread(|| Persist::open(&config(&dir), src.site()));
    drop(opened.unwrap());
    let mut dst = KvStore::new(SiteId::new(6));
    let shards = dst.shard_count();
    let digests = dst.shard_digest_vector();
    let (plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
    assert_eq!(plan.bulk.len(), shards, "every shard a snapshot");
    let mut client = dst.client_endpoint_for(&plan.incremental, shards);
    let contact = run_contact(&mut client, &mut server).unwrap();
    let (applied, join) = on_thread(|| dst.apply_planned(&JoinResolver, client, &contact, &plan));
    let committed = applied.unwrap();
    assert_eq!(committed.report.keys_created, KEYS);
    let logged = EntryImage::new(committed.entries(&dst)).expect("ascending");
    assert_eq!(logged.count(), KEYS as u64);
    assert_eq!(dst.replica_digest(), src.replica_digest());

    let (kept, booted) = (join.kept as usize, boot.kept as usize);
    // A shard's run slack covers what the commit names of it (a filled
    // shard, a landed digest); a kibibyte, its report.
    let kept_bound = booted + JOURNAL + shards * CURSOR + 1024;
    let bound = kept + shards * CURSOR + 16 * 1024;
    eprintln!("a join of {KEYS} keys into {shards} shards     B          bound B");
    eprintln!("  a boot of the image keeps     {booted:>11}");
    eprintln!("  store and commit kept         {kept:>11}  {kept_bound:>10}");
    eprintln!(
        "  peak                          {:>11}  {bound:>10}",
        join.peak
    );
    assert!(kept <= kept_bound, "a join kept {kept} B");
    assert!(join.peak <= bound, "a join held {} B", join.peak);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A replay of a log whose one record carries every key of a store — a
/// cold join's commit, logged — holds, beside the store it builds, the
/// record's read buffer and a run's bookkeeping a shard: each entry is
/// written into its shard's run as it is read off the buffer, and each
/// shard takes its run whole. Replaying it key by key held a decoded
/// vector, a record and a key of its own a key.
#[test]
fn a_replay_holds_the_store_it_builds_the_record_and_its_runs() {
    let site = SiteId::new(7);
    let dir = tmpdir("replay");
    let store = written(site, KEYS);
    let shards = store.shard_count();
    let keys: Vec<String> = (0..KEYS).map(|i| format!("k{i:07}")).collect();
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    let record = persist.append_entries(store.entries_of(&keys)).unwrap() as usize;
    drop(persist);
    let (opened, replay) = on_thread(|| Persist::open(&config(&dir), site));
    let (persist, replayed, report) = opened.unwrap();
    assert_eq!((replayed == store, report.wal_records_applied), (true, 1));
    assert_eq!(replayed.replica_digest(), replayed.replica_digest_full());

    let kept = replay.kept as usize;
    let bound = kept + record + CHUNK + shards * CURSOR + 16 * 1024;
    eprintln!("a replay of one record of {KEYS} keys ({record} B) into {shards} shards");
    eprintln!("                                 peak B     bound B");
    eprintln!("  store and handle kept   {kept:>11}");
    eprintln!("  peak                    {:>11}  {bound:>10}", replay.peak);
    assert!(record > 4 * CHUNK, "a record of {record} B");
    assert!(replay.peak <= bound, "a replay held {} B", replay.peak);
    drop(persist);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The read buffer grows to a record longer than a chunk and to no more:
/// a snapshot holding one value of 1 MiB, and a log whose one record is
/// a contact of 600 keys behind a snapshot without it, are each read
/// back with no block larger than the long record and a chunk.
#[test]
fn a_record_longer_than_a_chunk_grows_the_read_buffer_to_that_record_only() {
    let site = SiteId::new(2);
    let boot = |dir: &PathBuf, store: &KvStore| {
        let (opened, cost) = on_thread(|| Persist::open(&config(dir), site));
        let (_, booted, _) = opened.unwrap();
        assert_eq!(booted, *store);
        cost.largest
    };

    let dir = tmpdir("long-snapshot");
    let mut store = written(site, 2000);
    let record = 1 << 20;
    store.put("long", vec![b'l'; record]);
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    persist.checkpoint_store(&store).unwrap();
    drop(persist);
    let snapshot = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
    let from_snapshot = boot(&dir, &store);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = tmpdir("long-log");
    let mut store = written(site, 2000);
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    persist.checkpoint_store(&store).unwrap();
    let keys: Vec<String> = (0..600).map(|i| format!("c{i:04}")).collect();
    for key in &keys {
        store.put(key.clone(), vec![b'c'; VALUE]);
    }
    let changed: Vec<_> = (keys.iter())
        .map(|key| (key.clone(), store.encode_entry(key).unwrap()))
        .collect();
    let contact = persist.append(&changed).unwrap() as usize;
    drop(persist);
    let from_log = boot(&dir, &store);
    std::fs::remove_dir_all(&dir).unwrap();

    eprintln!("boot from                                    largest block B  bound B");
    eprintln!(
        "a {snapshot} B snapshot with a {record} B record  {from_snapshot:>13}  {:>7}",
        record + CHUNK + 64
    );
    eprintln!(
        "a log record of {contact} B                     {from_log:>13}  {:>7}",
        contact + CHUNK + 64
    );
    assert!(contact > 2 * CHUNK);
    assert!(from_snapshot <= record + CHUNK + 64);
    assert!(from_log <= contact + CHUNK + 64);
}

/// Stopping a node checkpoints only a log the snapshot does not cover:
/// with nothing to cover, the stop asks for under 4 KiB and leaves the
/// snapshot file as it was (the node used to build the whole image and
/// throw it away); after a write, the stop checkpoints it.
#[test]
fn stopping_a_node_whose_log_the_snapshot_covers_builds_no_image() {
    let site = SiteId::new(3);
    let dir = tmpdir("stop");
    let store = written(site, KEYS);
    let (mut persist, _, _) = Persist::open(&config(&dir), site).unwrap();
    persist.checkpoint_store(&store).unwrap();
    drop(persist);
    let snapshot = dir.join(SNAPSHOT_FILE);
    let before = std::fs::read(&snapshot).unwrap();
    let start = || {
        let listen = "127.0.0.1:0".parse().unwrap();
        Node::start(NodeConfig::new(site, listen).with_durability(config(&dir))).unwrap()
    };

    let node = start();
    let ((), stop) = on_thread(|| node.stop());
    eprintln!("stop, nothing to cover: {} B asked for", stop.allocated);
    assert!(stop.allocated < 4096, "{} B", stop.allocated);
    assert_eq!(std::fs::read(&snapshot).unwrap(), before);

    let node = start();
    node.put("k0000000", "changed").unwrap();
    node.stop();
    assert_ne!(std::fs::read(&snapshot).unwrap(), before);
    let (_, booted, report) = Persist::open(&config(&dir), site).unwrap();
    assert_eq!(booted.get("k0000000"), Some(&b"changed"[..]));
    assert_eq!(report.wal_records_applied, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
