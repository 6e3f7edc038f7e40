//! The oracles the image and state readers are held to: an entry's
//! state decoded into a vector and a value, and a whole image booted
//! field by field, each with its own lines.

use super::*;

#[path = "../../../tests/support/images.rs"]
mod images;

/// The key universe `golden_bytes.rs` pins: mostly short, with the
/// shapes that move a length prefix — the empty key, 127 and 128 bytes,
/// multi-byte UTF-8.
fn golden_key(i: usize) -> String {
    match i {
        7 => String::new(),
        21 => format!("{i:02}-{}", "x".repeat(124)),
        22 => format!("{i:02}-{}", "y".repeat(125)),
        40..=43 => format!("ключ-{i:02}-鍵"),
        _ => format!("k{i:02}"),
    }
}

/// Three stores driven `steps` steps over the golden universe — puts of
/// every value length it pins, deletes, pulls both ways — so their
/// entries hold multi-site vectors with bits set, and tombstones.
fn golden_stores(steps: usize, rng: &mut SplitMix64) -> [KvStore; 3] {
    let mut stores = [
        KvStore::with_shards(s(0), 16),
        KvStore::with_shards(s(1), 16),
        KvStore::with_shards(s(300), 16),
    ];
    for _ in 0..steps {
        let who = rng.below(3);
        let key = golden_key(rng.below(64));
        match rng.below(10) {
            0..=4 => {
                let len = [0, 1, 5, 32, 32, 127, 128, 300][rng.below(8)];
                stores[who].put(key, vec![rng.next_u64() as u8; len]);
            }
            5 | 6 => stores[who].delete(key),
            _ => {
                let src = stores[(who + 1 + rng.below(2)) % 3].clone();
                stores[who].sync(&src).run().unwrap();
            }
        }
    }
    stores
}

/// The record a page opens with for `key` holding `state`: the key and
/// the vector written whole.
fn first_record(key: &str, state: View<'_>) -> Vec<u8> {
    let mut record = Vec::new();
    Coded::of(key.as_bytes(), state, None)
        .write_to(&mut record)
        .expect("a Vec takes every byte");
    record
}

/// What the oracle makes of `state` under `key` — the vector built, then
/// written back by its encoder into the record a page opens with — if
/// `state` is what a store writes for it, byte for byte; `None`
/// otherwise.
fn record_by_the_oracle(key: &str, state: &[u8]) -> Option<Vec<u8>> {
    let mut buf = Bytes::copy_from_slice(state);
    let (meta, value) = decode_state(&mut buf).ok()?;
    let mut snapshot = crate::record::Key::default();
    let view = View::written(&meta, value.as_deref(), &mut snapshot);
    let written = buf.is_empty() && encode_state(view) == *state;
    written.then(|| first_record(key, view))
}

/// What the record of `state` under `key` is once an image's writer has
/// written it as the one entry of an image and the image's reader has
/// read it back into a run's page; `None` when the writer refuses it.
fn record_by_the_writer(key: &str, state: &[u8]) -> Option<Vec<u8>> {
    let image = EntryImage::new(std::iter::once((key.as_bytes(), state)))?;
    let mut bytes = Vec::new();
    image.write_to(&mut bytes).unwrap();
    let mut rest = &bytes[1..];
    let mut entries = ImageEntries::default();
    let (key, state) = entries.take(&mut rest).unwrap();
    assert!(rest.is_empty(), "the entry is read whole");
    Some(first_record(key, state))
}

/// An image's writer takes exactly the states a store writes, and the
/// record its reader writes of each is the one the vector decoder and
/// the encoder write: over every entry of stores driven through the
/// golden universe, a state naming a site twice and one with a byte
/// left in its vector field, and every variant the hostile-bytes harness
/// derives from each of them.
#[test]
fn the_state_writer_writes_what_decoding_and_encoding_write() {
    let (mut written, mut refused) = (0, 0);
    optrep_core::rng::cases(2, |seed, rng| {
        let stores = golden_stores(300, rng);
        let mut states: Vec<(String, Vec<u8>)> = Vec::new();
        for store in &stores {
            for (key, _) in store.entries_sorted() {
                let honest = store.encode_entry(&key).unwrap();
                let record = record_by_the_writer(&key, &honest);
                let exact = first_record(&key, store.view(key.as_bytes()).unwrap());
                assert_eq!(record, Some(exact), "seed {seed}, {key:?}");
                states.push((key.to_owned(), honest.to_vec()));
            }
        }
        states.push(("x".into(), b"\x05\x02\x05\x04\x05\x04\x01\x01v".to_vec()));
        states.push(("x".into(), b"\x04\x01\x00\x04\x7f\x01\x01v".to_vec()));
        for (key, state) in states {
            let variants = optrep_core::hostile::variants(&state).map(|(_, state)| state);
            for state in std::iter::once(state.clone()).chain(variants) {
                let by_oracle = record_by_the_oracle(&key, &state);
                let by_writer = record_by_the_writer(&key, &state);
                assert_eq!(by_writer, by_oracle, "seed {seed}, {key:?}: {state:?}");
                match by_oracle {
                    Some(_) => written += 1,
                    None => refused += 1,
                }
            }
        }
    });
    assert!(written > 0 && refused > 0, "{written} {refused}");
}

/// The next `len` bytes of `buf`.
fn split(buf: &mut Bytes, len: u64) -> Result<Bytes, WireError> {
    match usize::try_from(len) {
        Ok(len) if len <= buf.len() => Ok(buf.split_to(len)),
        _ => Err(WireError::UnexpectedEof),
    }
}

/// A store's site and each of its entries in key order: the key, the
/// vector encoded and the value.
type Listed = (optrep_core::SiteId, Vec<(String, Bytes, Option<Bytes>)>);

/// `store` as [`Listed`].
fn listed(store: &KvStore) -> Listed {
    let entries = store.entries_sorted().into_iter().map(|(key, view)| {
        let value = view.value.map(Bytes::copy_from_slice);
        (key, Bytes::copy_from_slice(view.meta), value)
    });
    (store.site(), entries.collect())
}

/// The store the oracle boots from `image`, and what it left unread:
/// every key rebuilt from the prefix it shares with the key before and
/// its rest, their lengths read off its key head; every vector decoded
/// — or, where the state head says it repeats, the vector before — and
/// encoded back, and every value as long as the state head says.
fn boot_by_the_oracle(image: &[u8]) -> Result<(Listed, usize), WireError> {
    let mut buf = Bytes::copy_from_slice(image);
    let site = wire::get_site(&mut buf)?;
    let n = wire::get_varint(&mut buf)?;
    let mut entries: Vec<(String, Bytes, Option<Bytes>)> = Vec::new();
    for _ in 0..n {
        let head = wire::get_varint(&mut buf)?;
        let shared = usize::try_from(head / 8).unwrap_or(usize::MAX);
        let rest = match head % 8 {
            7 => 7u64.saturating_add(wire::get_varint(&mut buf)?),
            len => len,
        };
        let rest = split(&mut buf, rest)?;
        let last = entries.last();
        let before = last.map_or(&b""[..], |(key, _, _)| key.as_bytes());
        let prefix = before.get(..shared).ok_or(WireError::InvalidPayload)?;
        let key = [prefix, &rest].concat();
        let common = key.iter().zip(before).take_while(|(a, b)| a == b).count();
        if common != shared || last.is_some() && key.as_slice() <= before {
            return Err(WireError::InvalidPayload);
        }
        let key = String::from_utf8(key).map_err(|_| WireError::InvalidPayload)?;
        let head = wire::get_varint(&mut buf)?;
        let meta = match (head % 2, last) {
            (1, None) => return Err(WireError::InvalidPayload),
            (1, Some((_, meta, _))) => meta.clone(),
            (_, last) => {
                let mut field = wire::get_bytes(&mut buf)?;
                if field.is_empty() {
                    return Err(WireError::InvalidPayload);
                }
                let meta = Srv::decode_snapshot(&mut field)?.encode_snapshot();
                let again = last.is_some_and(|(_, before, _)| *before == meta);
                if field.has_remaining() || again {
                    return Err(WireError::InvalidPayload);
                }
                meta
            }
        };
        let value = match head / 2 {
            0 => None,
            code => Some(split(&mut buf, code - 1)?),
        };
        entries.push((key, meta, value));
    }
    Ok(((site, entries), buf.len()))
}

/// A boot reads `image`, and every variant the hostile-bytes harness
/// derives from it, as the oracle does: the same store — site, entries,
/// vectors and values — and the same bytes left over, or the same error.
fn assert_booted_alike(image: &[u8], what: &str) {
    let variants = optrep_core::hostile::variants(image).map(|(_, image)| image);
    for image in std::iter::once(image.to_vec()).chain(variants) {
        let mut buf = Bytes::from(image.clone());
        let booted = KvStore::decode_snapshot(&mut buf).map(|store| (listed(&store), buf.len()));
        assert_eq!(booted, boot_by_the_oracle(&image), "{what}: {image:?}");
    }
}

/// A boot is the oracle's on each golden store's snapshot, on each body
/// the image decoders are held to by name behind a site — the oracle
/// refusing each that no store writes — and on their variants.
#[test]
fn a_boot_reads_what_the_oracle_reads() {
    for (label, body, written) in (images::REFUSED.iter().map(|&(l, b)| (l, b, false)))
        .chain(images::READ.iter().map(|&(l, b)| (l, b, true)))
    {
        let image = [&[3][..], body].concat();
        assert_eq!(boot_by_the_oracle(&image).is_ok(), written, "{label}");
        assert_booted_alike(&image, label);
    }
    optrep_core::rng::cases(2, |seed, rng| {
        for store in golden_stores(40, rng) {
            assert_booted_alike(&store.encode_snapshot(), &format!("seed {seed}"));
        }
    });
}
