//! The heap a daemon's join holds, counted across the whole process.
//!
//! A fresh durable node joins a durable source of 16 000 keys of 32 B
//! over loopback with `sync_with`. The source plans the join and writes
//! its plan frame, both nodes' event loops and the pooled link carry it,
//! and the sink commits it and logs it: every thread of both nodes takes
//! part, so this binary counts the heap of the whole process, with
//! `optrep_core::hostile`'s process-wide reading. It bounds what the join keeps by what booting the same
//! image keeps, the sink's change journal and a little more — no buffer
//! that carried the image outlives it, and no key is listed to be logged
//! — and what the join peaks at by what it keeps and the plan's image
//! held once, with a quarter to spare. It prints what it measured
//! (`--nocapture`), and it reads the environment's shard count. It is
//! its own test binary so the allocator touches nothing else.

use optrep_core::hostile::{in_process, Counting};
use optrep_core::SiteId;
use optrep_kv::KvStore;
use optrep_replication::planner::JOURNAL_CAP;
use optrep_server::{DurabilityConfig, FsyncPolicy, Node, NodeConfig, Persist};
use std::path::PathBuf;

#[global_allocator]
static COUNTING: Counting = Counting;

const KEYS: usize = 16_000;
const VALUE: usize = 32;
/// A change journal, once written to: [`JOURNAL_CAP`] entries of 16 B.
const JOURNAL: usize = JOURNAL_CAP * 16;
/// What a join keeps besides the store and its journal: the pooled link
/// and each end's memory of the vector that crossed it (16 B a shard),
/// the source's connection, the counters a first pull starts.
const KEPT_SLACK: usize = 32 * 1024;
/// What a join holds at its peak besides what it keeps and its image:
/// a read chunk, a plan's lists and digests, an endpoint, a run's
/// bookkeeping a shard.
const PEAK_SLACK: usize = 256 * 1024;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optrep-join-heap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never)
}

fn start(site: SiteId, dir: &PathBuf) -> Node {
    let listen = "127.0.0.1:0".parse().unwrap();
    Node::start(NodeConfig::new(site, listen).with_durability(config(dir))).unwrap()
}

/// A daemon's join holds the plan's image about once from the source's
/// encode to the sink's commit — the frame is written once, each
/// decoder reserves the rest of a frame and one read, and each end lets
/// go of a buffer once it is drained — and keeps what booting the same
/// image keeps and a journal: the commit logs the shards it filled, not
/// a list of their keys.
#[test]
fn a_join_holds_its_image_once_and_keeps_what_a_boot_keeps() {
    let (source_site, sink_site) = (SiteId::new(1), SiteId::new(2));
    let (source_dir, sink_dir) = (tmpdir("source"), tmpdir("sink"));
    let mut store = KvStore::new(source_site);
    for i in 0..KEYS {
        store.put(format!("k{i:07}"), vec![b'v'; VALUE]);
    }
    let shards = store.shard_count();
    let all: Vec<u64> = (0..shards as u64).collect();
    let image = store.encode_shard_snapshot(&all, shards).len();
    let (mut persist, _, _) = Persist::open(&config(&source_dir), source_site).unwrap();
    persist.checkpoint_store(&store).unwrap();
    drop((persist, store));
    let (opened, boot) = in_process(|| Persist::open(&config(&source_dir), source_site));
    drop(opened.unwrap());

    let source = start(source_site, &source_dir);
    let sink = start(sink_site, &sink_dir);
    let (synced, join) = in_process(|| sink.sync_with(source.addr()));
    let report = synced.unwrap();
    assert_eq!(
        (report.keys_created, report.shards_snapshot),
        (KEYS, shards)
    );
    assert_eq!(sink.digest(), source.digest());

    let kept = usize::try_from(join.kept).unwrap_or(0);
    let boot_kept = usize::try_from(boot.kept).unwrap_or(0);
    let kept_bound = boot_kept + JOURNAL + KEPT_SLACK;
    let peak_bound = kept + image + image / 4 + PEAK_SLACK;
    eprintln!("a join of {KEYS} keys x {VALUE} B at {shards} shards, image {image} B");
    eprintln!("what                                 B        bound B");
    eprintln!("  a boot of the image keeps  {boot_kept:>11}");
    eprintln!("  the join keeps             {kept:>11}  {kept_bound:>11}");
    eprintln!(
        "  the join's peak            {:>11}  {peak_bound:>11}",
        join.peak
    );
    assert!(
        join.kept <= kept_bound as isize,
        "a join kept {} B where a boot keeps {boot_kept} B",
        join.kept
    );
    assert!(
        join.peak <= peak_bound,
        "a join peaked at {} B beside {kept} B kept and a {image} B image",
        join.peak
    );

    // The sink restarts from its data dir into the store it joined.
    let digest = source.digest();
    sink.stop();
    source.stop();
    let sink = start(sink_site, &sink_dir);
    assert_eq!(sink.digest(), digest);
    sink.stop();
    std::fs::remove_dir_all(&source_dir).unwrap();
    std::fs::remove_dir_all(&sink_dir).unwrap();
}
