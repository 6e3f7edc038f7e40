//! Every decoder of `optrep-kv`, registered once in the hostile-bytes
//! harness (`optrep_core::hostile`), through the doors a peer, a log and
//! a checkpoint reach it by: a whole-store snapshot decoded from memory
//! and read a chunk at a time, a log record's image replayed, the image
//! of a peer's plan joined, a logged entry's state applied, and the push
//! behind a plan read into a pulling endpoint. Each reaches
//! `ImageEntries`, the one reader of an image's entries, or
//! `View::of_state`, the one reader of a state. The doors that write
//! into a live store decode into one that holds a key already, and a
//! refusal must leave it as it was: its entries, its generation and its
//! digests.
//!
//! An image's body is a count, then each entry behind a key head
//! (`shared << 3 | min(rest, 7)`, the rest's length less 7 where it is 7
//! or more, the rest) and a state head (`value_code << 1 | repeats`, the
//! vector's field unless it repeats the one before, the value).

use bytes::Bytes;
use optrep_core::error::WireError;
use optrep_core::hostile::{on_thread, Counting, Decoder};
use optrep_core::SiteId;
use optrep_kv::{ChunkReader, JoinResolver, KvStore, ReadError};
use optrep_replication::mux::{run_contact, BatchPullClient, BatchPullServer};
use optrep_replication::planner::{ShardPlan, JOURNAL_CAP};
use std::sync::OnceLock;

#[path = "support/images.rs"]
mod images;
use images::{READ, REFUSED};

#[global_allocator]
static COUNTING: Counting = Counting;

/// A store whose image writes a head at every edge of a varint: the
/// empty key, a 127- and a 128-byte key, shared prefixes of 15 and 16
/// bytes, rests of 6, 7 and 8 bytes, values of 0, 62, 63, 127 and 128
/// bytes, a tombstone, a split character, a vector of three sites, and
/// vectors written out and repeated.
fn edge_store() -> KvStore {
    let mut store = KvStore::with_shards(SiteId::new(0), 1);
    let fifteen = "s".repeat(15);
    let keys = [
        String::new(),
        format!("21-{}", "x".repeat(124)),
        format!("22-{}", "y".repeat(125)),
        format!("{fifteen}a"),
        format!("{fifteen}b"),
        format!("{fifteen}bc"),
        "u".into(),
        "u123456".into(),
        "v1234567".into(),
        "w12345678".into(),
        "к".into(),
        "л".into(),
    ];
    let lens = [0, 62, 63, 127, 128];
    for (at, key) in keys.iter().enumerate() {
        store.put(key.clone(), vec![at as u8; lens[at % lens.len()]]);
        if at % 3 == 0 {
            store.put(key.clone(), vec![at as u8; lens[(at + 1) % lens.len()]]);
        }
    }
    store.delete("u");
    let mut peer = KvStore::with_shards(SiteId::new(300), 1);
    peer.put("к", "peer");
    let mut other = KvStore::with_shards(SiteId::new(7), 1);
    other.put("к", "other");
    peer.sync(&other).run().expect("an in-process pull");
    store.sync(&peer).run().expect("an in-process pull");
    store
}

/// The store the doors into a live store decode into, built once: four
/// shards on site 3, holding a key no labelled image holds.
fn seed() -> &'static KvStore {
    static SEED: OnceLock<KvStore> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut store = KvStore::with_shards(SiteId::new(3), 4);
        store.put("~seed", "1");
        store
    })
}

/// What `decode` makes of a copy of the [`seed`]; where it refuses, the
/// copy must be the seed still: its entries, its generation and its
/// digests.
fn into_seeded<E>(decode: impl FnOnce(&mut KvStore) -> Result<(), E>) -> Result<KvStore, E> {
    let mut store = seed().clone();
    let decoded = decode(&mut store);
    if decoded.is_err() {
        let digests = |s: &KvStore| (s.generation(), s.replica_digest(), s.replica_digest_full());
        assert!(
            store == *seed() && digests(&store) == digests(seed()),
            "a refused input touched the store"
        );
    }
    decoded.map(|()| store)
}

/// The image a [`seeded`] store took as `image`, re-encoded: `image`
/// replayed into an empty store, which must hold what the seeded one
/// holds beside its seed.
fn beside_the_seed((store, image): &(KvStore, Bytes)) -> Vec<u8> {
    let mut alone = KvStore::with_shards(SiteId::new(3), 4);
    alone
        .apply_image(image)
        .expect("an image a seeded store took");
    let mut with_seed = alone.clone();
    with_seed.put("~seed", "1");
    assert!(*store == with_seed, "the image went in beside the seed");
    body(&alone).to_vec()
}

/// `body` behind a snapshot's site.
fn snapshot(body: &[u8]) -> Vec<u8> {
    [&[3][..], body].concat()
}

/// The image of every entry of `store`.
fn body(store: &KvStore) -> Bytes {
    store.encode_shard_snapshot(&[0], 1)
}

/// What `setup` — the store a door decodes into and what it runs beside
/// it — asks of the heap once the [`seed`] is built, a change journal
/// once written to, and room for what a decoder holds beside the store it
/// fills.
fn fixed<T>(setup: impl FnOnce() -> T) -> usize {
    seed();
    let (_, cost) = on_thread(setup);
    cost.allocated + JOURNAL_CAP * 16 + 4096
}

/// The pulling end of a contact over no key, run: what a plan that
/// bulk-loads its one shard runs beside its image.
fn contact() -> (BatchPullClient, optrep_replication::mux::ContactReport) {
    let mut client = BatchPullClient::new(std::iter::empty());
    let mut server = BatchPullServer::new(std::iter::empty());
    let report = run_contact(&mut client, &mut server).expect("a contact over no key");
    (client, report)
}

/// A decoder's registration with the bodies every image decoder is held
/// to, each as `wrap` lays it out for that decoder.
fn images<'a, T, E: std::fmt::Debug>(
    decoder: Decoder<'a, T, E>,
    wrap: impl Fn(&[u8]) -> Vec<u8>,
) -> Decoder<'a, T, E> {
    let decoder = decoder.accepts("a store of edges", wrap(&body(&edge_store())));
    let decoder = READ
        .iter()
        .fold(decoder, |d, (label, body)| d.accepts(label, wrap(body)));
    REFUSED
        .iter()
        .fold(decoder, |d, (label, body)| d.rejects(label, wrap(body)))
}

#[test]
fn snapshots() {
    let eof = |e: &WireError| *e == WireError::UnexpectedEof;
    let decoder = Decoder::new("KvStore::decode_snapshot", |mut buf: Bytes| {
        KvStore::decode_snapshot(&mut buf).map(|store| (store, buf))
    })
    .canonical(|(store, rest)| [&store.encode_snapshot()[..], rest].concat())
    .cap(96, fixed(|| KvStore::new(SiteId::new(0))))
    .torn(eof)
    .accepts("an empty store", [3, 0])
    .rejects("a site above u32::MAX", [0x81, 0x80, 0x80, 0x80, 0x10, 0]);
    images(decoder, snapshot).check();
}

#[test]
fn chunked_snapshots() {
    let decoder = Decoder::new("KvStore::read_snapshot", |buf: Bytes| {
        let mut reader = ChunkReader::new(&buf[..], buf.len() as u64, 7);
        let store = KvStore::read_snapshot(&mut reader, |_| {})?;
        let rest = buf.slice(reader.consumed() as usize..);
        Ok::<_, ReadError>((store, rest))
    })
    .canonical(|(store, rest)| [&store.encode_snapshot()[..], rest].concat())
    .cap(96, fixed(|| KvStore::new(SiteId::new(0))))
    .torn(|e| matches!(e, ReadError::Wire(WireError::UnexpectedEof)))
    .accepts("an empty store", [3, 0])
    .rejects("a site above u32::MAX", [0x81, 0x80, 0x80, 0x80, 0x10, 0]);
    images(decoder, snapshot).check();
}

#[test]
fn log_records() {
    let decoder = Decoder::new("KvStore::apply_image", |buf: Bytes| {
        into_seeded(|store| store.apply_image(&buf)).map(|store| (store, buf))
    })
    .canonical(beside_the_seed)
    .cap(96, fixed(|| seed().clone()))
    .torn(|e| *e == WireError::UnexpectedEof)
    .accepts("no entry", [0])
    .rejects("a byte past the last entry", [0, 0]);
    images(decoder, <[u8]>::to_vec).check();
}

/// The image behind a peer's plan that bulk-loads the one shard of its
/// count, joined beside a contact over no key.
#[test]
fn plan_images() {
    let decoder = Decoder::new(
        "KvStore::apply_planned_tracked, its plan's image",
        |buf: Bytes| {
            let plan = ShardPlan {
                count: 1,
                bulk: vec![0],
                image: Some(buf.clone()),
                ..ShardPlan::default()
            };
            let (client, contact) = contact();
            let joined = into_seeded(|store| {
                store
                    .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
                    .map(drop)
            });
            joined.map(|store| (store, buf))
        },
    )
    .canonical(beside_the_seed)
    .cap(96, fixed(|| (seed().clone(), contact())))
    .torn(|e| *e == optrep_core::Error::Wire(WireError::UnexpectedEof))
    .accepts("no entry", [0])
    .rejects("a byte past the last entry", [0, 0]);
    images(decoder, <[u8]>::to_vec).check();
}

#[test]
fn pushes() {
    let store = KvStore::with_shards(SiteId::new(1), 4);
    let plan = ShardPlan {
        count: 4,
        ..ShardPlan::default()
    };
    let decoder = Decoder::new(
        "KvStore::client_endpoint_refined, its push",
        |push: Bytes| {
            if push.is_empty() {
                return Err(optrep_core::Error::Wire(WireError::UnexpectedEof));
            }
            store.client_endpoint_refined(&plan, &push, store.generation())
        },
    )
    .not_canonical(
        "a push is read into a pulling endpoint, which holds no image to re-encode; \
         its entries are read by the reader whose canonical form apply_image's registration checks",
    )
    .cap(160, 4096)
    .rejects("no entry", [0])
    .rejects(
        "a byte past the last entry",
        b"\x01\x01a\x04\x03\x01\x00\x04v\x00",
    );
    images(decoder, <[u8]>::to_vec).check();
}

#[test]
fn logged_states() {
    let edges = edge_store();
    let states: Vec<(String, Bytes)> = ["", "u", "к", "v1234567"]
        .into_iter()
        .map(|key| {
            (
                format!("{key:?}"),
                edges.encode_entry(key).expect("tracked"),
            )
        })
        .collect();
    let decoder = Decoder::new("KvStore::apply_encoded_entry", |mut state: Bytes| {
        into_seeded(|store| store.apply_encoded_entry("k", &mut state))
    })
    .canonical(|store| store.encode_entry("k").expect("applied").to_vec())
    .cap(64, fixed(|| seed().clone()))
    .rejects(
        "a vector naming a site twice",
        b"\x05\x02\x05\x04\x05\x04\x01\x01v",
    )
    .rejects(
        "a byte left in the vector field",
        b"\x04\x01\x00\x04\x7f\x01\x01v",
    )
    .rejects("an empty vector field", b"\x00\x01\x01v")
    .rejects(
        "a value's length overlong",
        b"\x03\x01\x00\x04\x01\x81\x00v",
    )
    .rejects("a tag of 2", b"\x03\x01\x00\x04\x02\x01v");
    states
        .iter()
        .fold(decoder, |d, (label, state)| d.accepts(label, state))
        .check();
}
