use super::*;
use crate::record::View;
use crate::tests::{listed, s};
use crate::JoinResolver;
use optrep_core::rng::SplitMix64;
use optrep_core::{RotatingVector, SiteId};
use optrep_replication::mux::run_contact;
use optrep_replication::planner::{PlanConfig, ShardPlan};

mod oracle;
mod refused;
use oracle::boot_by_the_oracle;

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

/// A boot builds each shard whole from its run, at whatever shard count
/// it boots at: an image written at 1, 16 or 512 shards and booted at
/// each of them is its source — the same entries, the digests folded
/// from the built shards equal to the digest recomputed entry by entry,
/// a live count equal to the walk's — and writes its source's image
/// back. Runs overflow what was reserved for them (400 keys over 512
/// shards reserve four records a shard) and a one-key store boots too.
#[test]
fn an_image_boots_to_its_source_at_every_shard_count() {
    for written in [1usize, 16, 512] {
        for keys in [1u64, 400] {
            let mut rng = SplitMix64::new(written as u64 * 0x5eed + keys);
            let mut source = KvStore::with_shards(s(0), written);
            let mut peer = KvStore::with_shards(s(1), written);
            for step in 0..keys * 2 {
                let key = format!("k{:03}", rng.next_u64() % keys);
                match rng.next_u64() % 6 {
                    0..=2 => source.put(key, vec![step as u8; (step % 40) as usize]),
                    3 => peer.put(key, "peer"),
                    4 => source.delete(key),
                    _ => {
                        source.sync(&peer).run().unwrap();
                    }
                }
            }
            source.sync(&peer).run().unwrap();
            let image = source.encode_snapshot();
            for shards in [1usize, 16, 512] {
                let at = format!("{keys} keys written at {written}, booted at {shards}");
                let mut reader = ChunkReader::new(&image[..], image.len() as u64, 64);
                let booted = KvStore::read_snapshot_at(&mut reader, |_| {}, shards).unwrap();
                assert_eq!(booted.shard_count(), shards, "{at}");
                assert_eq!(booted, source, "{at}");
                assert_eq!(
                    booted.replica_digest(),
                    booted.replica_digest_full(),
                    "{at}"
                );
                assert_eq!(booted.replica_digest(), source.replica_digest(), "{at}");
                let live = booted.iter_entries().filter(|(_, e)| e.value.is_some());
                assert_eq!(booted.len(), live.count(), "{at}");
                assert_eq!(
                    booted.tracked_entries(),
                    booted.iter_entries().count(),
                    "{at}"
                );
                assert_eq!(booted.encode_snapshot(), image, "{at}");
            }
        }
    }
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
    // site, count, the key head (shared 0, rest 3) and "key", the state
    // head (a value of 5 bytes, the vector written out), the vector,
    // then "value".
    assert_eq!(honest[2..7], *b"\x03key\x0c");
    for (at, byte, what) in [
        (6, 0x0d, "a repeat flag on the first entry"),
        (4, 0xff, "a key that is not UTF-8"),
    ] {
        let mut image = honest.clone();
        image[at] = byte;
        let decoded = KvStore::decode_snapshot(&mut Bytes::from(image));
        assert_eq!(decoded.err(), Some(WireError::InvalidPayload), "{what}");
    }
}

/// A store of three keys, `a`, `b` and `c`.
fn abc() -> KvStore {
    let mut store = KvStore::with_shards(s(3), 4);
    for key in ["a", "b", "c"] {
        store.put(key, key);
    }
    store
}

/// An image lists its keys strictly ascending, as `snapshot_image`
/// writes them. One whose header counts three records and lists `b`
/// twice used to decode to a two-entry store; it is refused.
#[test]
fn a_snapshot_repeating_a_key_is_refused() {
    let store = abc();
    let owned = store.entries_sorted();
    let entries = listed(&owned);
    let honest = image_as(Some(store.site()), &entries, Overlong::Nothing);
    assert_eq!(honest, store.encode_snapshot());
    let repeated = [entries[0], entries[1], entries[1]];
    let mut image = image_as(Some(store.site()), &repeated, Overlong::Nothing);
    let decoded = KvStore::decode_snapshot(&mut image);
    assert_eq!(decoded.err(), Some(WireError::InvalidPayload));
}

/// A descending image decoded to the store its ascending twin does; it
/// is refused, as is one whose keys are in order but for one pair.
#[test]
fn a_snapshot_out_of_key_order_is_refused() {
    let store = abc();
    let owned = store.entries_sorted();
    let entries = listed(&owned);
    let descending: Vec<_> = entries.iter().rev().copied().collect();
    let swapped = [entries[0], entries[2], entries[1]];
    for listed in [&descending[..], &swapped[..]] {
        let mut image = image_as(Some(store.site()), listed, Overlong::Nothing);
        let decoded = KvStore::decode_snapshot(&mut image);
        assert_eq!(decoded.err(), Some(WireError::InvalidPayload));
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

/// Which varint of an image, or of a state as a store holds it, a test
/// writes one group longer than any encoder would (`[0x83, 0x00]` for
/// 3): `wire::get_varint` reads it as the same number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Overlong {
    Nothing,
    KeyHead,
    Escape,
    StateHead,
    VectorLen,
    ElementCount,
    Site,
    Packed,
    ValueLen,
}

impl Overlong {
    /// An image's heads: every reader refuses one written overlong.
    const HEADS: [Overlong; 3] = [Overlong::KeyHead, Overlong::Escape, Overlong::StateHead];
    /// A vector's varints: every reader re-encodes them.
    const VECTOR: [Overlong; 4] = [
        Overlong::VectorLen,
        Overlong::ElementCount,
        Overlong::Site,
        Overlong::Packed,
    ];
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

/// A vector's snapshot, written from the decoded vector of `view` with
/// `pad`'s varints overlong.
fn vector_image(view: View<'_>, pad: Overlong) -> BytesMut {
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
    meta
}

/// One entry's state as a store holds it (`encode_entry`), written from
/// the decoded state with `pad`'s varints overlong.
fn state_image(view: View<'_>, pad: Overlong) -> BytesMut {
    let meta = vector_image(view, pad);
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

/// One image entry, written field by field with `pad`'s varints
/// overlong: the key head `shared << 3 | min(rest, 7)`, the rest's
/// length less 7 where it is 7 or more, the rest; the state head
/// `value_code << 1 | repeats`, the vector's field unless `vector` is
/// `None` (the vector before), the value.
fn put_entry(
    buf: &mut BytesMut,
    (shared, rest): After<'_>,
    vector: Option<&[u8]>,
    value: Option<&[u8]>,
    pad: Overlong,
) {
    let low = rest.len().min(7) as u64;
    put_varint_as(buf, shared << 3 | low, pad == Overlong::KeyHead);
    if low == 7 {
        put_varint_as(buf, rest.len() as u64 - 7, pad == Overlong::Escape);
    }
    buf.extend_from_slice(rest);
    let code = value.map_or(0, |v| v.len() as u64 + 1);
    let head = code << 1 | u64::from(vector.is_none());
    put_varint_as(buf, head, pad == Overlong::StateHead);
    if let Some(vector) = vector {
        put_varint_as(buf, vector.len() as u64, pad == Overlong::VectorLen);
        buf.extend_from_slice(vector);
    }
    buf.extend_from_slice(value.unwrap_or_default());
}

/// A shard image of `entries`, or with `site` a whole store's, each
/// entry written by [`put_entry`]: each key after the first as the
/// length of the prefix it shares with the key listed before it and the
/// rest of it; each vector that is the one listed before it left out.
fn image_as(site: Option<SiteId>, entries: &[(&str, View<'_>)], pad: Overlong) -> Bytes {
    let mut buf = BytesMut::new();
    if let Some(site) = site {
        wire::put_varint(&mut buf, u64::from(site.index()));
    }
    wire::put_varint(&mut buf, entries.len() as u64);
    let mut before: Option<(&[u8], &[u8])> = None;
    for (key, view) in entries {
        let key = key.as_bytes();
        let (mut shared, mut repeats) = (0, false);
        if let Some((last, last_vector)) = before {
            shared = key.iter().zip(last).take_while(|(a, b)| a == b).count();
            repeats = view.meta == last_vector;
        }
        let vector = vector_image(*view, pad);
        let rest = (shared as u64, &key[shared..]);
        put_entry(
            &mut buf,
            rest,
            (!repeats).then_some(&vector[..]),
            view.value,
            pad,
        );
        before = Some((key, view.meta));
    }
    buf.freeze()
}

/// An empty store at one shard after it joins a peer's plan that
/// bulk-loads `image` as its one shard.
fn joined(image: Bytes) -> KvStore {
    let plan = ShardPlan {
        count: 1,
        bulk: vec![0],
        image: Some(image),
        ..ShardPlan::default()
    };
    let mut joiner = KvStore::with_shards(s(9), 1);
    let mut client = joiner.client_endpoint_for(&[], 1);
    let mut server = KvStore::with_shards(s(8), 1).server_endpoint_for(&[0], 1);
    let contact = run_contact(&mut client, &mut server).unwrap();
    joiner
        .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
        .unwrap();
    joiner
}

/// A decoder stores the state it read, re-encoded — never the bytes
/// it read it from: an image whose vectors no encoder writes, but every
/// decoder accepts, leaves the store it would have left written honestly.
/// An image's heads have one encoding, and so has a state a store holds:
/// a head written overlong is refused by every decoder, and a state
/// written overlong by an image's writer — what `apply_encoded_entry`
/// and a log's append hand theirs — before anything is written.
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
    let owned = honest.entries_sorted();
    let entries = listed(&owned);
    assert!(entries.iter().any(|(_, e)| e.srv().len() == 3));
    assert!(entries.iter().any(|(_, e)| e.value.is_none()));
    assert!(entries.iter().any(|(key, _)| key.len() == 128));
    assert_eq!(
        image_as(Some(honest.site()), &entries, Overlong::Nothing),
        honest_image
    );
    let honest_body = image_as(None, &entries, Overlong::Nothing);
    let honest_joiner = joined(honest_body.clone());
    assert_eq!(honest_joiner.tracked_entries(), entries.len());
    for pad in Overlong::VECTOR {
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
        // A log record.
        let mut replayed = KvStore::with_shards(honest.site(), 4);
        replayed
            .apply_image(&image_as(None, &entries, pad))
            .unwrap();
        assert_eq!(replayed, *honest, "{pad:?}");
        assert_eq!(replayed.encode_snapshot(), honest_image, "{pad:?}");
    }
    for pad in Overlong::HEADS {
        let body = image_as(None, &entries, pad);
        assert!(body.len() > honest_body.len(), "{pad:?}");
        assert_refused_by_every_decoder(&body, WireError::InvalidPayload);
    }
    // A state as a store holds it, each varint in turn overlong: refused
    // by the writer, the store untouched; the honest state then taken.
    for pad in [Overlong::ValueLen].iter().chain(&Overlong::VECTOR) {
        let mut replayed = KvStore::with_shards(honest.site(), 4);
        let mut padded = 0;
        for (key, view) in &entries {
            let mut record = state_image(*view, *pad).freeze();
            let canonical = honest.encode_entry(key).unwrap();
            if record.len() > canonical.len() {
                padded += 1;
                let listed = std::iter::once((key.as_bytes(), &record[..]));
                assert!(EntryImage::new(listed).is_none(), "{pad:?}");
                let before = replayed.clone();
                let refused = replayed.apply_encoded_entry(*key, &mut record.clone());
                assert_eq!(refused, Err(WireError::InvalidPayload), "{pad:?}");
                assert_eq!(replayed, before, "{pad:?}");
                assert_eq!(replayed.generation(), before.generation(), "{pad:?}");
                record = canonical.clone();
            }
            replayed.apply_encoded_entry(*key, &mut record).unwrap();
            assert_eq!(replayed.encode_entry(key), Some(canonical), "{pad:?}");
        }
        assert!(padded > 0, "{pad:?}");
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

/// `body` — an image's count and entries — is refused with `refused` by
/// every image decoder: as a checkpoint's image behind a site, as the
/// image of a peer's plan, and as a log record's payload replayed, and no
/// store is touched.
fn assert_refused_by_every_decoder(body: &[u8], refused: WireError) {
    // Checkpoint: a whole-store image.
    let mut image = BytesMut::new();
    wire::put_varint(&mut image, 1); // site
    image.extend_from_slice(body);
    assert_eq!(
        KvStore::decode_snapshot(&mut image.freeze()).map(drop),
        Err(refused)
    );

    // A peer's plan at one shard, every key of which falls in it: the
    // plan's image.
    let mut src = KvStore::with_shards(s(0), 1);
    src.put("x", "1");
    let digests = KvStore::with_shards(s(1), 1).shard_digest_vector();
    let (mut plan, mut server) = src.plan_contact(&digests, &PlanConfig::default());
    let mut store = KvStore::with_shards(s(1), 4);
    store.put("mine", "1");
    let before = store.clone();
    let mut client = store.client_endpoint_for(&plan.incremental, 1);
    let contact = run_contact(&mut client, &mut server).unwrap();
    plan.image = Some(Bytes::copy_from_slice(body));
    assert_eq!(
        store.apply_planned_tracked(&JoinResolver, client, &contact, &plan),
        Err(optrep_core::Error::Wire(refused))
    );
    assert_eq!(store, before);
    assert_eq!(store.generation(), before.generation());
    assert_eq!(store.replica_digest(), store.replica_digest_full());

    // Replay: a log record's payload.
    assert_eq!(store.apply_image(body), Err(refused));
    assert_eq!(store, before);
    assert_eq!(store.generation(), before.generation());
    assert_eq!(store.replica_digest(), store.replica_digest_full());
}

/// `meta` as the vector of an entry of key `x` is refused by every
/// decoder — a logged post-state, a checkpoint holding it, a peer's shard
/// blob holding it — with `InvalidPayload`, and no store is touched.
fn assert_vector_refused_by_every_decoder(meta: &[u8]) {
    let refused = Err(WireError::InvalidPayload);

    // The oracle every decoder is held to.
    let mut entry = entry_image(meta).freeze();
    assert_eq!(decode_state(&mut entry).map(drop), refused);

    // WAL replay: one logged post-state.
    let mut store = KvStore::with_shards(s(1), 4);
    store.put("mine", "1");
    let before = store.clone();
    let mut entry = entry_image(meta).freeze();
    assert_eq!(store.apply_encoded_entry("x", &mut entry), refused);
    assert_eq!(store, before);
    assert_eq!(store.generation(), before.generation());
    assert_eq!(store.replica_digest(), store.replica_digest_full());

    let (value, after) = (Some(&b"v"[..]), &[]);
    let body = keyed_body(b"x", after, View { meta, value });
    assert_refused_by_every_decoder(&body, WireError::InvalidPayload);
}

#[test]
fn a_repeated_site_is_refused_by_every_decoder() {
    assert_vector_refused_by_every_decoder(&repeated_site_meta());
}

/// A vector field with a byte left over behind the vector: `put("k",
/// "v")` logs `[3, 1, 0, 4, 1, 1, 118]`, and the same entry with its
/// vector field `[4, 1, 0, 4, 0x7f]` was read as the canonical entry by
/// every decoder, the byte dropped. No encoder writes one.
#[test]
fn a_byte_left_in_the_vector_field_is_refused_by_every_decoder() {
    let mut store = KvStore::with_shards(s(0), 1);
    store.put("k", "v");
    let honest = store.encode_entry("k").unwrap();
    assert_eq!(honest, [3, 1, 0, 4, 1, 1, 118][..]);
    assert_eq!(entry_image(&[1, 0, 4])[..], honest[..4 + 3]);
    assert_vector_refused_by_every_decoder(&[1, 0, 4, 0x7f]);
}

/// A key after an image's first: the length of the prefix it claims to
/// share with the key before it, and the rest of it.
type After<'a> = (u64, &'a [u8]);

/// An image's count and entries: `first`, then each key `after` it, each
/// key holding `state` — the first writing its vector out, the rest
/// repeating it.
fn keyed_body(first: &[u8], after: &[After<'_>], state: View<'_>) -> Vec<u8> {
    let mut body = BytesMut::new();
    wire::put_varint(&mut body, 1 + after.len() as u64);
    let (meta, value) = (Some(state.meta), state.value);
    put_entry(&mut body, (0, first), meta, value, Overlong::Nothing);
    for &after in after {
        put_entry(&mut body, after, None, value, Overlong::Nothing);
    }
    body.to_vec()
}

/// An entry spends one head on its key and one on its state where its
/// shared prefix is below 16 bytes, its rest below 7 and its value below
/// 63. Keys written once at site 0 hold the vector `[1, 0, 4]`; a delete
/// is a second write (`[1, 0, 8]`).
#[test]
fn an_entry_spends_a_head_on_its_key_and_one_on_its_state() {
    let mut store = KvStore::with_shards(s(0), 1);
    for key in ["a", "a1234567", "b"] {
        store.put(key, "v");
    }
    store.delete("b");
    let image = store.encode_shard_snapshot(&[0], 1);
    #[rustfmt::skip]
    let written = [
        3,
        // "a": shared 0, rest 1; a 1-byte value, the vector written out.
        0x01, b'a', 2 << 1, 3, 1, 0, 4, b'v',
        // "a1234567": shared 1, rest 7 behind the escape, the vector
        // before repeated.
        1 << 3 | 7, 0, b'1', b'2', b'3', b'4', b'5', b'6', b'7', 2 << 1 | 1, b'v',
        // "b": shared 0, rest 1; a tombstone, its own vector (a delete
        // counts as a write).
        0x01, b'b', 0, 3, 1, 0, 8,
    ];
    assert_eq!(image[..], written);
}

/// The length of each vector field of image body `body` — its count,
/// then its entries — in order: 0 where the vector is the one before.
fn vector_fields(mut body: &[u8]) -> Vec<usize> {
    let n = wire::get_varint(&mut body).unwrap();
    let mut keys = Ascending::default();
    let fields = (0..n).map(|_| {
        keys.take(&mut body).unwrap();
        let head = canonical_varint(&mut body).unwrap();
        let vector = match head & 1 {
            1 => &[][..],
            _ => wire::get_slice(&mut body).unwrap(),
        };
        take_bytes(&mut body, (head >> 1).saturating_sub(1)).unwrap();
        vector.len()
    });
    let fields = fields.collect();
    assert!(body.is_empty());
    fields
}

/// A store whose image writes a head at every edge of a varint: the
/// golden universe's empty key and its 127- and 128-byte keys, shared
/// prefixes of 15 and 16 bytes, rests of 6, 7 and 8 bytes, values of 0,
/// 62, 63, 127, 128 and 300 bytes, a tombstone, a split character, and
/// vectors written out and repeated.
fn edge_store() -> KvStore {
    let mut store = KvStore::with_shards(s(0), 1);
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
        "v".into(),
        "v1234567".into(),
        "w".into(),
        "w12345678".into(),
        "к".into(),
        "л".into(),
    ];
    let lens = [0, 62, 63, 127, 128, 300];
    for (at, key) in keys.iter().enumerate() {
        store.put(key.clone(), vec![at as u8; lens[at % lens.len()]]);
        if at % 3 == 0 {
            store.put(key.clone(), vec![at as u8; lens[(at + 1) % lens.len()]]);
        }
    }
    store.delete("u");
    store
}

/// Every strict prefix of a shard image — heads at every varint edge
/// ([`edge_store`]) — is refused by every image decoder as cut short,
/// and no store is touched.
#[test]
fn every_cut_of_an_image_is_refused_by_every_decoder() {
    let store = edge_store();
    let image = store.encode_shard_snapshot(&[0], 1);
    let fields = vector_fields(&image);
    assert!(fields.contains(&0) && fields.iter().filter(|&&len| len > 0).count() > 1);
    for cut in 0..image.len() {
        assert_refused_by_every_decoder(&image[..cut], WireError::UnexpectedEof);
    }
}
/// An image read a chunk at a time decodes to the store one chunk does,
/// whatever the chunk — records straddle every boundary and one record
/// is longer than most chunks — and `seen` is handed the image, every
/// byte once, in order. Every strict prefix is refused.
#[test]
fn a_chunked_read_decodes_what_one_chunk_decodes() {
    let mut store = KvStore::with_shards(s(4), 4);
    let mut peer = KvStore::with_shards(s(9), 4);
    for i in 0..40u8 {
        store.put(format!("k{i:02}"), vec![i; usize::from(i) * 7]);
        peer.put(format!("k{:02}", i + 20), vec![i; 3]);
    }
    store.delete("k03");
    store.put("long", vec![1u8; 2000]);
    store.sync(&peer).run().unwrap();
    let image = store.encode_snapshot();
    for chunk in [1, 2, 7, 64, 1000, image.len()] {
        let mut reader = ChunkReader::new(&image[..], image.len() as u64, chunk);
        let mut seen = Vec::new();
        let decoded = KvStore::read_snapshot(&mut reader, |bytes| seen.extend_from_slice(bytes));
        assert_eq!(decoded.unwrap(), store, "chunk {chunk}");
        assert_eq!(seen, image, "chunk {chunk}");
        assert_eq!(
            (reader.consumed(), reader.remaining()),
            (image.len() as u64, 0)
        );
        for cut in (0..image.len()).step_by(chunk.min(13)) {
            let mut reader = ChunkReader::new(&image[..cut], cut as u64, chunk);
            let refused = KvStore::read_snapshot(&mut reader, |_| {});
            assert!(
                matches!(refused, Err(ReadError::Wire(WireError::UnexpectedEof))),
                "chunk {chunk}, cut {cut}"
            );
        }
    }
}

/// How far an entry reaches is where its decoder stops: exactly its
/// length once it is whole, and past the end of any strict prefix — over
/// heads at every varint edge ([`edge_store`]), a shared prefix of 200
/// bytes, a 20 000-byte value, and vectors written out or repeated.
#[test]
fn an_entry_reaches_where_its_decoder_stops() {
    let mut store = KvStore::with_shards(s(1), 1);
    store.put("", "");
    store.put("k".repeat(200), vec![7u8; 20_000]);
    store.put("k".repeat(201), "x");
    store.put("gone", "x");
    store.delete("gone");
    let image = store.encode_shard_snapshot(&[0], 1);
    assert_eq!(vector_fields(&image), [3, 3, 3, 0]);
    let edges = edge_store().encode_shard_snapshot(&[0], 1);
    let mut shared = Vec::new();
    for image in [image, edges] {
        let mut rest = &image[1..];
        let mut entries = ImageEntries::default();
        while !rest.is_empty() {
            let entry = rest;
            entries.take(&mut rest).unwrap();
            let len = entry.len() - rest.len();
            shared.push(wire::get_varint(&mut &entry[..]).unwrap() >> 3);
            assert_eq!(entry_reach(entry), len);
            for cut in 0..len {
                let reach = entry_reach(&entry[..cut]);
                assert!(reach > cut, "cut {cut} of {len}");
            }
        }
    }
    assert_eq!(shared[..4], [0, 0, 0, 200], "each key's shared prefix");
    assert!(shared.contains(&15) && shared.contains(&16));
}
