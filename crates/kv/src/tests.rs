use super::*;
use crate::record::View;
use optrep_core::Causality;

pub(crate) fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

/// The walks over `(key, state)` pairs the tests below read stores
/// through.
impl KvStore {
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (&str, View<'_>)> {
        self.records().map(Record::entry)
    }

    pub(crate) fn entries_sorted(&self) -> Vec<(&str, View<'_>)> {
        let sorted = self.records_sorted();
        sorted.into_iter().map(Record::entry).collect()
    }
}

#[test]
fn put_get_delete() {
    let mut kv = KvStore::new(s(0));
    assert!(kv.is_empty());
    kv.put("a", "1");
    kv.put("b", "2");
    assert_eq!(kv.get("a"), Some(&b"1"[..]));
    assert_eq!(kv.len(), 2);
    kv.delete("a");
    assert_eq!(kv.get("a"), None);
    assert_eq!(kv.len(), 1);
    assert_eq!(kv.tracked_entries(), 2, "tombstone is tracked");
    assert_eq!(kv.keys().collect::<Vec<_>>(), vec!["b"]);
}

#[test]
fn sync_replicates_and_fast_forwards() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    a.put("y", "2");
    let report = b.sync(&a).run().unwrap();
    assert_eq!(report.keys_created, 2);
    assert_eq!(b.get("x"), Some(&b"1"[..]));
    a.put("x", "10");
    let report = b.sync(&a).run().unwrap();
    assert_eq!(report.keys_fast_forwarded, 1);
    assert_eq!(report.keys_unchanged, 1);
    assert_eq!(b.get("x"), Some(&b"10"[..]));
    assert!(b.consistent_with(&a));
}

#[test]
fn deletions_propagate() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    b.sync(&a).run().unwrap();
    a.delete("x");
    b.sync(&a).run().unwrap();
    assert_eq!(b.get("x"), None);
    assert_eq!(b.tracked_entries(), 1);
}

#[test]
fn concurrent_writes_converge_with_join() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("k", "base");
    b.sync(&a).run().unwrap();
    a.put("k", "from-a");
    b.put("k", "from-b");
    assert_eq!(
        a.meta("k").unwrap().compare(&b.meta("k").unwrap()),
        Causality::Concurrent,
        "conflict detected"
    );
    let report = b.sync(&a).run().unwrap();
    assert_eq!(report.keys_reconciled, 1);
    // b's resolution dominates; a fast-forwards to it.
    let report = a.sync(&b).run().unwrap();
    assert_eq!(report.keys_fast_forwarded, 1);
    assert_eq!(a.get("k"), b.get("k"));
    assert_eq!(a.get("k"), Some(&b"from-b"[..]), "join picks the max");
    assert!(a.consistent_with(&b));
}

#[test]
fn delete_vs_write_conflict_value_wins() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("k", "base");
    b.sync(&a).run().unwrap();
    a.delete("k");
    b.put("k", "rescued");
    b.sync(&a).run().unwrap();
    a.sync(&b).run().unwrap();
    assert_eq!(a.get("k"), Some(&b"rescued"[..]));
    assert!(a.consistent_with(&b));
}

#[test]
fn three_stores_converge_under_any_gossip() {
    let mut stores = [KvStore::new(s(0)), KvStore::new(s(1)), KvStore::new(s(2))];
    stores[0].put("k", "seed");
    // Propagate the seed.
    let src = stores[0].clone();
    for t in &mut stores[1..] {
        t.sync(&src).run().unwrap();
    }
    // Everyone writes concurrently.
    for (i, store) in stores.iter_mut().enumerate() {
        store.put("k", format!("w{i}").into_bytes());
    }
    // A few rounds of all-pairs gossip settle it.
    for _ in 0..3 {
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    let src = stores[j].clone();
                    stores[i].sync(&src).run().unwrap();
                }
            }
        }
    }
    assert!(stores[0].consistent_with(&stores[1]));
    assert!(stores[1].consistent_with(&stores[2]));
    assert_eq!(stores[0].get("k"), Some(&b"w2"[..]), "deterministic max");
}

#[test]
fn meta_bytes_stay_small_on_repeat_syncs() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    for i in 0..50 {
        a.put(format!("key{i}"), "v");
    }
    let first = b.sync(&a).run().unwrap();
    assert_eq!(first.keys_created, 50);
    // Nothing changed: the second pull costs only O(1) comparisons —
    // about ten bytes per key, independent of vector size.
    let second = b.sync(&a).run().unwrap();
    assert_eq!(second.keys_unchanged, 50);
    assert_eq!(second.value_bytes, 0);
    assert!(
        second.meta_bytes <= 50 * 12,
        "repeat sync cost {} exceeds O(1) per key (initial was {})",
        second.meta_bytes,
        first.meta_bytes
    );
    // One changed key costs one delta, not 50 vectors.
    a.put("key7", "v2");
    let third = b.sync(&a).run().unwrap();
    assert_eq!(third.keys_fast_forwarded, 1);
}

#[test]
fn failed_contact_leaves_store_byte_identical() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    b.sync(&a).run().unwrap();
    a.put("x", "2");
    a.put("y", "fresh");
    b.put("z", "local");
    let snapshot = b.encode_snapshot();
    let stats = b.stats();

    // The contact dies partway through: the hello crosses, then the
    // link cuts inside the server's answer. Nothing may be applied.
    let mut cut = FaultyLink::new(optrep_replication::FaultPlan::disconnect_at(40));
    let err = b.sync(&a).via(&mut cut).run().unwrap_err();
    assert!(matches!(
        err,
        optrep_core::Error::ConnectionLost { after_bytes: 40 }
    ));
    assert!(cut.stats().frames_delivered >= 1, "the hello crossed");
    assert_eq!(b.encode_snapshot(), snapshot, "store must be untouched");
    assert_eq!(b.stats(), stats, "no costs recorded for an aborted sync");

    // A clean follow-up sync converges as if the abort never happened.
    b.sync(&a).run().unwrap();
    a.sync(&b).run().unwrap();
    assert!(a.consistent_with(&b));
    assert_eq!(b.get("x"), Some(&b"2"[..]));
    assert_eq!(b.get("y"), Some(&b"fresh"[..]));
}

#[test]
fn replica_digest_is_site_independent() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("x", "1");
    a.put("y", "2");
    a.delete("y");
    assert_ne!(a.replica_digest(), b.replica_digest());
    b.sync(&a).run().unwrap();
    assert!(b.consistent_with(&a));
    assert_eq!(
        a.replica_digest(),
        b.replica_digest(),
        "converged replicas on different sites must digest equal"
    );
    // Snapshot bytes, by contrast, embed the site id.
    assert_ne!(a.encode_snapshot(), b.encode_snapshot());
    b.put("x", "3");
    assert_ne!(a.replica_digest(), b.replica_digest());
}

#[test]
fn generation_tracks_every_state_change() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    assert_eq!(b.generation(), 0);
    b.put("k", "v");
    assert_eq!(b.generation(), 1);
    b.delete("k");
    assert_eq!(b.generation(), 2);
    a.put("other", "v");
    let before = b.generation();
    b.sync(&a).run().unwrap();
    assert!(b.generation() > before, "an applied pull moves the store");
    // A no-op pull (nothing to apply) leaves the generation alone.
    let before = b.generation();
    b.sync(&a).run().unwrap();
    assert_eq!(b.generation(), before);
}

#[test]
fn ours_resolver_is_sticky() {
    let mut a = KvStore::new(s(0));
    let mut b = KvStore::new(s(1));
    a.put("k", "base");
    b.sync(&a).run().unwrap();
    a.put("k", "a-side");
    b.put("k", "b-side");
    b.sync(&a).with_resolver(&OursResolver).run().unwrap();
    assert_eq!(b.get("k"), Some(&b"b-side"[..]));
    // b's resolution now dominates; a adopts it.
    a.sync(&b).with_resolver(&OursResolver).run().unwrap();
    assert_eq!(a.get("k"), Some(&b"b-side"[..]));
}

#[test]
fn stores_equal_and_digest_equal_across_shard_counts() {
    let mut stores: Vec<KvStore> = [1usize, 2, 16, 64]
        .iter()
        .map(|&n| KvStore::with_shards(s(0), n))
        .collect();
    for store in &mut stores {
        for i in 0..50 {
            store.put(format!("key-{i}"), format!("v{i}"));
        }
        store.delete("key-7");
        store.put("key-3", "rewritten");
    }
    let reference = stores.pop().unwrap();
    for store in &stores {
        assert_eq!(*store, reference);
        assert_eq!(store.replica_digest(), reference.replica_digest());
        assert_eq!(store.replica_digest(), store.replica_digest_full());
        assert_eq!(store.encode_snapshot(), reference.encode_snapshot());
    }
}
