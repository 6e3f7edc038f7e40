use super::*;
use crate::record::View;
use crate::tests::s;
use crate::JoinResolver;
use optrep_core::rng::SplitMix64;
use optrep_core::RotatingVector;
use optrep_replication::mux::run_contact;
use optrep_replication::planner::{PlanConfig, ShardPlan};

#[test]
fn snapshot_roundtrip() {
    let mut a = KvStore::new(s(0));
    a.put("x", "1");
    a.delete("x");
    a.put("y", "2");
    let mut buf = a.encode_snapshot();
    let decoded = KvStore::decode_snapshot(&mut buf).unwrap();
    assert!(buf.is_empty());
    assert_eq!(decoded, a);
    assert_eq!(decoded.get("y"), Some(&b"2"[..]));
    assert_eq!(decoded.get("x"), None);
}

#[test]
fn truncated_snapshot_rejected() {
    let mut a = KvStore::new(s(3));
    a.put("key", "value");
    let bytes = a.encode_snapshot();
    for cut in 0..bytes.len() {
        let mut buf = bytes.slice(0..cut);
        assert!(KvStore::decode_snapshot(&mut buf).is_err(), "cut {cut}");
    }
}

/// What no encoder writes, a snapshot decoder refuses as the log and
/// shard-image decoders do — `InvalidPayload`, and no store.
#[test]
fn hostile_snapshots_are_invalid_payload() {
    let mut a = KvStore::new(s(3));
    a.put("key", "value");
    let honest = a.encode_snapshot().to_vec();
    // site, count, "key", the vector, then tag, length, "value".
    assert_eq!(honest[2..6], *b"\x03key");
    let tag = honest.len() - 1 - b"value".len() - 1;
    assert_eq!(honest[tag], 1);
    for (at, byte, what) in [
        (tag, 2, "value tag 2"),
        (tag, 255, "value tag 255"),
        (4, 0xff, "a key that is not UTF-8"),
    ] {
        let mut image = honest.clone();
        image[at] = byte;
        let decoded = KvStore::decode_snapshot(&mut Bytes::from(image));
        assert_eq!(decoded.err(), Some(WireError::InvalidPayload), "{what}");
    }
}

/// `2³² + 1` is not site 1: the snapshot's own site id is refused
/// above `u32::MAX`, as every vector element's is.
#[test]
fn a_snapshot_site_above_u32_is_refused_not_truncated() {
    let mut image = BytesMut::new();
    wire::put_varint(&mut image, (1 << 32) + 1);
    wire::put_varint(&mut image, 0);
    let decoded = KvStore::decode_snapshot(&mut image.freeze());
    assert_eq!(decoded.err(), Some(WireError::InvalidPayload));
}

/// Which varint of an image a test writes one group longer than any
/// encoder would (`[0x83, 0x00]` for 3): `wire::get_varint` reads it
/// as the same number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Overlong {
    Nothing,
    KeyLen,
    VectorLen,
    ElementCount,
    Site,
    Packed,
    ValueLen,
}

fn put_varint_as(buf: &mut BytesMut, value: u64, overlong: bool) {
    if !overlong {
        return wire::put_varint(buf, value);
    }
    let mut rest = value;
    loop {
        buf.put_u8((rest & 0x7f) as u8 | 0x80);
        rest >>= 7;
        if rest == 0 {
            break;
        }
    }
    buf.put_u8(0);
}

/// One entry's state as a log record carries it, written from the
/// decoded state with `pad`'s varints overlong.
fn state_image(view: View<'_>, pad: Overlong) -> BytesMut {
    let mut meta = BytesMut::new();
    let elements: Vec<_> = view.srv().iter().collect();
    put_varint_as(
        &mut meta,
        elements.len() as u64,
        pad == Overlong::ElementCount,
    );
    for e in elements {
        put_varint_as(&mut meta, u64::from(e.site.index()), pad == Overlong::Site);
        let packed = e.value << 2 | u64::from(e.conflict) << 1 | u64::from(e.segment);
        put_varint_as(&mut meta, packed, pad == Overlong::Packed);
    }
    let mut buf = BytesMut::new();
    put_varint_as(&mut buf, meta.len() as u64, pad == Overlong::VectorLen);
    buf.extend_from_slice(&meta);
    match view.value {
        Some(v) => {
            buf.put_u8(1);
            put_varint_as(&mut buf, v.len() as u64, pad == Overlong::ValueLen);
            buf.extend_from_slice(v);
        }
        None => buf.put_u8(0),
    }
    buf
}

/// A shard image of `entries`, or with `site` a whole store's.
fn image_as(site: Option<SiteId>, entries: &[(&str, View<'_>)], pad: Overlong) -> Bytes {
    let mut buf = BytesMut::new();
    if let Some(site) = site {
        wire::put_varint(&mut buf, u64::from(site.index()));
    }
    wire::put_varint(&mut buf, entries.len() as u64);
    for (key, view) in entries {
        put_varint_as(&mut buf, key.len() as u64, pad == Overlong::KeyLen);
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(&state_image(*view, pad));
    }
    buf.freeze()
}

/// A decoder stores the state it read, re-encoded — never the bytes
/// it read it from: an image no encoder writes, but every decoder
/// accepts, leaves the store it would have left written honestly.
#[test]
fn overlong_varints_decode_to_the_canonical_store() {
    // Multi-site vectors with bits set, tombstones, and a key and a
    // value on each side of a one-byte length.
    let mut stores = [
        KvStore::with_shards(s(0), 4),
        KvStore::with_shards(s(300), 4),
        KvStore::with_shards(s(2), 4),
    ];
    let mut rng = SplitMix64::new(0x000C_A202_1CA1);
    for step in 0..400 {
        let who = (rng.next_u64() % 3) as usize;
        let key = match rng.next_u64() % 12 {
            0 => "k".repeat(128),
            1 => String::new(),
            k => format!("k{k:02}"),
        };
        match rng.next_u64() % 8 {
            0..=3 => {
                let len = [0, 1, 127, 128, 300][(rng.next_u64() % 5) as usize];
                stores[who].put(key, vec![step as u8; len]);
            }
            4 => stores[who].delete(key),
            _ => {
                let src = stores[(who + 1) % 3].clone();
                stores[who].sync(&src).run().unwrap();
            }
        }
    }
    let honest = &stores[1];
    let honest_image = honest.encode_snapshot();
    let entries = honest.entries_sorted();
    assert!(entries.iter().any(|(_, e)| e.srv().len() == 3));
    assert!(entries.iter().any(|(_, e)| e.value.is_none()));
    assert_eq!(
        image_as(Some(honest.site()), &entries, Overlong::Nothing),
        honest_image
    );
    let joined = |image: Bytes| {
        let plan = ShardPlan {
            count: 1,
            snapshots: vec![(0, image)],
            ..ShardPlan::default()
        };
        let mut joiner = KvStore::with_shards(s(9), 1);
        let mut client = joiner.client_endpoint_for(&[], 1);
        let mut server = KvStore::with_shards(s(8), 1).server_endpoint();
        let contact = run_contact(&mut client, &mut server).unwrap();
        joiner
            .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
            .unwrap();
        joiner
    };
    let honest_joiner = joined(image_as(None, &entries, Overlong::Nothing));
    assert_eq!(honest_joiner.tracked_entries(), entries.len());
    for pad in [
        Overlong::KeyLen,
        Overlong::VectorLen,
        Overlong::ElementCount,
        Overlong::Site,
        Overlong::Packed,
        Overlong::ValueLen,
    ] {
        // A checkpoint.
        let image = image_as(Some(honest.site()), &entries, pad);
        assert!(image.len() > honest_image.len(), "{pad:?}");
        let decoded = KvStore::decode_snapshot(&mut image.clone()).unwrap();
        assert_eq!(decoded, *honest, "{pad:?}");
        assert_eq!(decoded.encode_snapshot(), honest_image, "{pad:?}");
        assert_eq!(decoded.replica_digest(), honest.replica_digest());
        // A peer's shard image.
        let joiner = joined(image_as(None, &entries, pad));
        assert_eq!(joiner, honest_joiner, "{pad:?}");
        assert_eq!(joiner.encode_snapshot(), honest_joiner.encode_snapshot());
        // A log, record by record.
        let mut replayed = KvStore::with_shards(honest.site(), 4);
        let mut padded = 0;
        for (key, view) in &entries {
            let mut record = state_image(*view, pad).freeze();
            let canonical = honest.encode_entry(key).unwrap();
            padded += usize::from(record.len() > canonical.len());
            replayed.apply_encoded_entry(*key, &mut record).unwrap();
            assert_eq!(replayed.encode_entry(key), Some(canonical), "{pad:?}");
        }
        // (A log record frames no key.)
        assert_eq!(padded > 0, pad != Overlong::KeyLen, "{pad:?}");
        assert_eq!(replayed, *honest, "{pad:?}");
        assert_eq!(replayed.encode_snapshot(), honest_image, "{pad:?}");
    }
}

#[test]
fn entry_encoding_roundtrips_and_tracks_generation() {
    let mut a = KvStore::new(s(0));
    a.put("x", "1");
    a.put("gone", "2");
    a.delete("gone");
    assert!(a.encode_entry("absent").is_none());

    // Replaying both entries' post-states into a fresh store on the
    // same site rebuilds identical replicated state.
    let mut b = KvStore::new(s(0));
    for key in ["x", "gone"] {
        let mut blob = a.encode_entry(key).unwrap();
        b.apply_encoded_entry(key, &mut blob).unwrap();
    }
    assert_eq!(b, a);
    assert_eq!(b.generation(), 2, "each applied entry moves the store");

    // Truncations and trailing junk are rejected without touching
    // the store.
    let blob = a.encode_entry("x").unwrap();
    for cut in 0..blob.len() {
        let snapshot = b.encode_snapshot();
        let mut buf = blob.slice(0..cut);
        assert!(b.apply_encoded_entry("x", &mut buf).is_err(), "cut {cut}");
        assert_eq!(b.encode_snapshot(), snapshot);
    }
    let mut padded = BytesMut::new();
    padded.extend_from_slice(&blob);
    padded.put_u8(0);
    let mut buf = padded.freeze();
    assert!(b.apply_encoded_entry("x", &mut buf).is_err());
}

/// An honest two-site vector image with its second site renamed to
/// its first: no encoder writes it, and a lenient decoder would read
/// it as a one-element vector.
fn repeated_site_meta() -> Bytes {
    let mut meta = Srv::new();
    meta.record_update(s(3));
    meta.record_update(s(5));
    let mut image = meta.encode_snapshot().to_vec();
    assert_eq!(image, [2, 5, 4, 3, 4], "count, then (site, value·4) pairs");
    image[3] = image[1];
    Bytes::from(image)
}

/// An entry holding `meta` and the value "v", in the layout
/// `encode_entry` writes.
fn entry_image(meta: &[u8]) -> BytesMut {
    let mut buf = BytesMut::new();
    wire::put_bytes(&mut buf, meta);
    buf.put_u8(1);
    wire::put_bytes(&mut buf, b"v");
    buf
}

#[test]
fn a_repeated_site_is_refused_by_every_decoder() {
    let meta = repeated_site_meta();
    let refused = Err(WireError::InvalidPayload);

    // WAL replay: one logged post-state.
    let mut store = KvStore::with_shards(s(1), 4);
    store.put("mine", "1");
    let before = store.clone();
    let mut entry = entry_image(&meta).freeze();
    assert_eq!(store.apply_encoded_entry("x", &mut entry), refused);

    // Checkpoint: a whole-store image holding that entry.
    let mut image = BytesMut::new();
    wire::put_varint(&mut image, 1); // site
    wire::put_varint(&mut image, 1); // entries
    wire::put_bytes(&mut image, b"x");
    image.extend_from_slice(&entry_image(&meta));
    assert_eq!(
        KvStore::decode_snapshot(&mut image.freeze()).map(|_| ()),
        refused
    );

    // A peer's plan: a shard snapshot blob holding that entry.
    let mut src = KvStore::with_shards(s(0), 4);
    src.put("x", "1");
    let digests = KvStore::with_shards(s(1), 4).shard_digest_vector();
    let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
    let mut client = KvStore::with_shards(s(1), 4).client_endpoint_for(&plan.incremental, 4);
    let contact = run_contact(&mut client, &mut server).unwrap();
    let mut blob = BytesMut::new();
    wire::put_varint(&mut blob, 1);
    wire::put_bytes(&mut blob, b"x");
    blob.extend_from_slice(&entry_image(&meta));
    plan.snapshots[0].1 = blob.freeze();
    assert_eq!(
        store.apply_planned_tracked(&JoinResolver, client, &contact, &plan),
        Err(optrep_core::Error::Wire(WireError::InvalidPayload))
    );

    assert_eq!(store, before);
    assert_eq!(store.generation(), before.generation());
    assert_eq!(store.replica_digest(), store.replica_digest_full());
}
