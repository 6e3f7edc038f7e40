use super::*;
use crate::record::View;
use crate::tests::s;
use optrep_core::rng::SplitMix64;

mod oracle;

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

    // A refused state leaves the store as it was.
    let snapshot = b.encode_snapshot();
    let mut empty_vector = Bytes::from_static(b"\x00\x01\x01v");
    assert!(b.apply_encoded_entry("x", &mut empty_vector).is_err());
    assert_eq!((b.encode_snapshot(), b.generation()), (snapshot, 2));
}

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
        let head = wire::get_varint(&mut body).unwrap();
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

/// An image read a chunk at a time decodes to the store one chunk does,
/// whatever the chunk — records straddle every boundary and one record
/// is longer than most chunks — and `seen` is handed the image, every
/// byte once, in order.
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
