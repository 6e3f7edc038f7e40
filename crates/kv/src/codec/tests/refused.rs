//! Every encoding of a key or a state but the one the image's writer
//! writes, refused by the oracle and by every image decoder.

use super::*;

/// `body` — an image's count and entries — is refused with `refused` by
/// the oracle and by every image decoder.
fn assert_refused_by_all(what: &str, body: &[u8], refused: WireError) {
    let mut image = BytesMut::new();
    wire::put_varint(&mut image, 0);
    image.extend_from_slice(body);
    assert_eq!(boot_by_the_oracle(&image).err(), Some(refused), "{what}");
    assert_refused_by_every_decoder(body, refused);
}

/// Each key has one encoding, the one the writer writes — the first key
/// whole, then each sharing the longest prefix it can, its rest starting
/// above the byte it replaces, each behind a key head as short as it goes
/// — and every image decoder refuses every other as the oracle does: with
/// `InvalidPayload`, and what does not rebuild to UTF-8. A shared prefix
/// may split a character: `к` and `л` share their first byte.
#[test]
fn a_key_encoded_any_way_but_the_writers_is_refused() {
    let mut store = KvStore::with_shards(s(0), 1);
    for key in ["", "a", "ab", "abd", "b", "к", "л"] {
        store.put(key, "v");
    }
    let after: [After<'_>; 6] = [
        (0, b"a"),
        (1, b"b"),
        (2, b"d"),
        (0, b"b"),
        (0, "к".as_bytes()),
        (1, &"л".as_bytes()[1..]),
    ];
    let image = store.encode_shard_snapshot(&[0], 1);
    let owned = store.entries_sorted();
    let entries = listed(&owned);
    let state = entries[0].1;
    assert!(entries.iter().all(|(_, view)| *view == state));
    let written = keyed_body(b"", &after, state);
    assert_eq!(image, written, "the writer's encoding");
    let mut checkpoint = BytesMut::new();
    wire::put_varint(&mut checkpoint, 0);
    checkpoint.extend_from_slice(&image);
    assert_eq!(checkpoint, store.encode_snapshot());
    assert!(joined(image).consistent_with(&store));
    assert_eq!(
        KvStore::decode_snapshot(&mut checkpoint.freeze()).as_ref(),
        Ok(&store)
    );

    let invalid = WireError::InvalidPayload;
    let refused: [(&str, &[u8], &[After<'_>]); 12] = [
        ("a shared length on the first key", b"a", &[]),
        ("a shared length past the key before", b"a", &[(2, b"b")]),
        ("a shared prefix left out", b"ab", &[(0, b"ac")]),
        ("a shared prefix cut short", b"abc", &[(1, b"bd")]),
        ("an empty rest: a repeat", b"a", &[(1, b"")]),
        ("an empty rest: a prefix", b"ab", &[(1, b"")]),
        ("a descending rest", b"b", &[(0, b"a")]),
        ("a descending rest after a prefix", b"ac", &[(1, b"b")]),
        ("an empty key after the first", b"a", &[(0, b"")]),
        ("a first key not UTF-8", b"\xff", &[]),
        ("a rest not UTF-8", b"a", &[(1, b"\xff")]),
        (
            "a split character rebuilt wrong",
            "к".as_bytes(),
            &[(1, b"\xff")],
        ),
    ];
    for (what, first, after) in refused {
        let mut body = keyed_body(first, after, state);
        if what == "a shared length on the first key" {
            body[1] |= 1 << 3;
        }
        assert_refused_by_all(what, &body, invalid);
    }

    // Its heads: each overlong, first and after the first, refused. The
    // escape counts from 7, so a rest under 7 has no escaped form: one
    // written as a writer that did not subtract would write it reads 7
    // bytes further, and runs past the image.
    let long = b"abcdefgh";
    let mut refused: Vec<(&str, Vec<u8>, WireError)> = Vec::new();
    for (what, pads) in [
        (
            "an overlong key head on the first key",
            [Overlong::KeyHead, Overlong::Nothing],
        ),
        (
            "an overlong key head after the first",
            [Overlong::Nothing, Overlong::KeyHead],
        ),
        (
            "an overlong escape on the first key",
            [Overlong::Escape, Overlong::Nothing],
        ),
        (
            "an overlong escape after the first",
            [Overlong::Nothing, Overlong::Escape],
        ),
    ] {
        let mut body = BytesMut::new();
        wire::put_varint(&mut body, 2);
        put_entry(&mut body, (0, long), Some(state.meta), state.value, pads[0]);
        put_entry(&mut body, (0, b"bcdefghi"), None, state.value, pads[1]);
        refused.push((what, body.to_vec(), invalid));
    }
    let mut body = BytesMut::new();
    wire::put_varint(&mut body, 2);
    put_entry(
        &mut body,
        (0, b"a"),
        Some(state.meta),
        state.value,
        Overlong::Nothing,
    );
    body.extend_from_slice(&[7, 1, b'b']);
    body.extend_from_slice(&[2 << 1 | 1, b'v']);
    refused.push((
        "a rest of 1 behind the escape",
        body.to_vec(),
        WireError::UnexpectedEof,
    ));
    for (what, body, error) in refused {
        assert_refused_by_all(what, &body, error);
    }

    // The split character rebuilt right, an empty first key, and a
    // first key that needs the escape: read.
    let read: [(&[u8], &[After<'_>]); 3] = [
        ("к".as_bytes(), &[(1, &"л".as_bytes()[1..])]),
        (b"", &[]),
        (long, &[(7, b"i")]),
    ];
    for (first, after) in read {
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, 1);
        image.extend_from_slice(&keyed_body(first, after, state));
        assert_eq!(
            KvStore::decode_snapshot(&mut image.freeze()).map(|s| s.len()),
            Ok(1 + after.len())
        );
    }
}

/// A state has one encoding in an image, the writer's — its head as
/// short as it goes, its vector written out on the first entry and
/// wherever it is not the vector before, and only there, its value as
/// long as its head says — and every image decoder refuses every other
/// as the oracle does: with `InvalidPayload` a repeat flag on the first
/// entry, an empty vector field, a vector written out that re-encodes to
/// the vector before, its varints overlong or not, an overlong state
/// head, and a tombstone with value bytes behind it (read as the key head
/// of the entry after it); a value shorter than its head says runs into the entry
/// after it, or past the image.
#[test]
fn a_vector_encoded_any_way_but_the_writers_is_refused() {
    let mut store = KvStore::with_shards(s(0), 1);
    for key in ["a", "b", "c", "d"] {
        store.put(key, "v");
    }
    store.put("c", "w");
    let owned = store.entries_sorted();
    let entries = listed(&owned);
    let views = entries.iter().map(|(_, view)| *view).collect::<Vec<_>>();
    let mut written = BytesMut::new();
    wire::put_varint(&mut written, 4);
    for (at, (key, view)) in entries.iter().enumerate() {
        // Only `b` repeats: `c` is written twice, and `d` follows `c`.
        let vector = (at != 1).then_some(view.meta);
        put_entry(
            &mut written,
            (0, key.as_bytes()),
            vector,
            view.value,
            Overlong::Nothing,
        );
    }
    let image = store.encode_shard_snapshot(&[0], 1);
    assert_eq!(image, written, "the writer's encoding");
    assert_eq!(vector_fields(&image), [3, 0, 3, 3]);
    assert!(joined(image).consistent_with(&store));

    let invalid = WireError::InvalidPayload;
    let (a, b) = (views[0], views[1]);
    let one = |pad: Overlong, vector: Option<&[u8]>, value: Option<&[u8]>| {
        let mut body = BytesMut::new();
        wire::put_varint(&mut body, 1);
        put_entry(&mut body, (0, b"b"), vector, value, pad);
        body.to_vec()
    };
    let two = |vector: Option<&[u8]>, pad: Overlong| {
        let mut body = BytesMut::new();
        wire::put_varint(&mut body, 2);
        put_entry(
            &mut body,
            (0, b"a"),
            Some(a.meta),
            a.value,
            Overlong::Nothing,
        );
        put_entry(&mut body, (0, b"b"), vector, b.value, pad);
        body.to_vec()
    };
    let mut refused = vec![
        (
            "a repeat flag on the first entry",
            one(Overlong::Nothing, None, b.value),
            invalid,
        ),
        (
            "an empty vector field",
            one(Overlong::Nothing, Some(&[]), b.value),
            invalid,
        ),
        (
            "an overlong state head",
            one(Overlong::StateHead, Some(b.meta), b.value),
            invalid,
        ),
        (
            "an overlong state head after the first",
            two(None, Overlong::StateHead),
            invalid,
        ),
    ];
    // A value's bytes behind a tombstone: `A` (0x41) is a key head of
    // shared 8 and a rest of 1, past `a`.
    let mut tombstone = BytesMut::new();
    wire::put_varint(&mut tombstone, 2);
    put_entry(
        &mut tombstone,
        (0, b"a"),
        Some(a.meta),
        None,
        Overlong::Nothing,
    );
    tombstone.extend_from_slice(b"A");
    put_entry(&mut tombstone, (0, b"b"), None, b.value, Overlong::Nothing);
    refused.push(("a tombstone with value bytes", tombstone.to_vec(), invalid));
    // A value of 1 byte under a head of 2: alone, it runs past the image;
    // before `b`, it takes `b`'s key head, and `b` (0x62, shared 12) is
    // read as the key head after it.
    let mut short = one(Overlong::Nothing, Some(b.meta), Some(b"vw"));
    short.pop();
    let what = "a value shorter than its head says";
    refused.push((what, short, WireError::UnexpectedEof));
    let mut short = BytesMut::new();
    wire::put_varint(&mut short, 2);
    put_entry(
        &mut short,
        (0, b"a"),
        Some(a.meta),
        Some(b"vw"),
        Overlong::Nothing,
    );
    short.truncate(short.len() - 1);
    put_entry(&mut short, (0, b"b"), None, b.value, Overlong::Nothing);
    let what = "a value shorter than its head says, before another";
    refused.push((what, short.to_vec(), invalid));
    for pad in Overlong::VECTOR.iter().chain([&Overlong::Nothing]) {
        let body = two(Some(&vector_image(b, *pad)), *pad);
        refused.push(("the vector before, written out", body, invalid));
    }
    for (what, body, error) in refused {
        assert_refused_by_all(what, &body, error);
    }

    // One logged entry is an image of one entry: `b`'s state with an
    // empty vector field is no state a store wrote, and is refused.
    let mut replayed = KvStore::with_shards(s(0), 4);
    replayed.put("mine", "1");
    let before = replayed.clone();
    let mut empty = store.encode_entry("b").unwrap().to_vec();
    empty.drain(1..1 + empty[0] as usize);
    empty[0] = 0;
    assert_eq!(
        replayed.apply_encoded_entry("b", &mut Bytes::from(empty)),
        Err(invalid)
    );
    assert_eq!(replayed, before);
    assert_eq!(replayed.generation(), before.generation());
    assert_eq!(replayed.replica_digest(), replayed.replica_digest_full());
}
