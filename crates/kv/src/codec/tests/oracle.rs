//! The oracles the image and state readers are held to: an entry's
//! state decoded into a vector and a value, and a whole image booted
//! field by field, each with its own lines.

use super::*;

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

/// `bytes` cut short at every length, each byte flipped, and a byte
/// inserted at each place.
fn mangled(bytes: &[u8], rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 + rng.below(255) as u8;
        out.push(flipped);
        let mut inserted = bytes.to_vec();
        inserted.insert(at, rng.next_u64() as u8);
        out.push(inserted);
    }
    out
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
/// golden universe, each state written with each varint overlong in
/// turn, a repeated site and a byte left in the vector field, and every
/// truncation, byte flip and one-byte insertion of each of them.
#[test]
fn the_state_writer_writes_what_decoding_and_encoding_write() {
    let pads = [
        Overlong::Nothing,
        Overlong::VectorLen,
        Overlong::ElementCount,
        Overlong::Site,
        Overlong::Packed,
        Overlong::ValueLen,
    ];
    let (mut written, mut refused) = (0, 0);
    optrep_core::rng::cases(2, |seed, rng| {
        let stores = golden_stores(300, rng);
        let mut states: Vec<(String, Vec<u8>)> = Vec::new();
        for store in &stores {
            for (key, view) in store.entries_sorted() {
                let honest = store.encode_entry(&key).unwrap();
                let record = record_by_the_writer(&key, &honest);
                let exact = first_record(&key, store.view(key.as_bytes()).unwrap());
                assert_eq!(record, Some(exact), "seed {seed}, {key:?}");
                for pad in pads {
                    states.push((key.to_owned(), state_image(view, pad).to_vec()));
                }
            }
        }
        states.push(("x".into(), entry_image(&repeated_site_meta()).to_vec()));
        states.push(("x".into(), entry_image(&[1, 0, 4, 0x7f]).to_vec()));
        for (key, state) in states {
            for state in std::iter::once(state.clone()).chain(mangled(&state, rng)) {
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

/// The varint at the front of `buf` if it is as short as it goes.
fn shortest(buf: &mut Bytes) -> Result<u64, WireError> {
    let before = buf.len();
    let value = wire::get_varint(buf)?;
    match before - buf.len() == wire::varint_len(value) {
        true => Ok(value),
        false => Err(WireError::InvalidPayload),
    }
}

/// The next `len` bytes of `buf`.
fn split(buf: &mut Bytes, len: u64) -> Result<Bytes, WireError> {
    match usize::try_from(len) {
        Ok(len) if len <= buf.len() => Ok(buf.split_to(len)),
        _ => Err(WireError::UnexpectedEof),
    }
}

/// The store the oracle boots from `image`, and what it left unread:
/// every key rebuilt from the prefix it shares with the key before and
/// its rest, their lengths read off its key head; every vector decoded
/// — or, where the state head says it repeats, the vector before — and
/// every value as long as the state head says, then stored.
pub(super) fn boot_by_the_oracle(image: &[u8]) -> Result<(KvStore, usize), WireError> {
    let mut buf = Bytes::copy_from_slice(image);
    let site = wire::get_site(&mut buf)?;
    let n = wire::get_varint(&mut buf)?;
    let mut store = KvStore::with_shards(site, 16);
    let mut before: Option<Vec<u8>> = None;
    let mut vector_before: Option<Srv> = None;
    for _ in 0..n {
        let head = shortest(&mut buf)?;
        let shared = usize::try_from(head / 8).unwrap_or(usize::MAX);
        let rest = match head % 8 {
            7 => 7u64.saturating_add(shortest(&mut buf)?),
            len => len,
        };
        let rest = split(&mut buf, rest)?;
        let last = before.as_deref().unwrap_or_default();
        let prefix = last.get(..shared).ok_or(WireError::InvalidPayload)?;
        let key = [prefix, &rest].concat();
        let common = key.iter().zip(last).take_while(|(a, b)| a == b).count();
        if common != shared || before.is_some() && key.as_slice() <= last {
            return Err(WireError::InvalidPayload);
        }
        let text = std::str::from_utf8(&key).map_err(|_| WireError::InvalidPayload)?;
        let head = shortest(&mut buf)?;
        let meta = match (head % 2, vector_before.take()) {
            (1, None) => return Err(WireError::InvalidPayload),
            (1, Some(meta)) => meta,
            (_, last) => {
                let mut field = wire::get_bytes(&mut buf)?;
                if field.is_empty() {
                    return Err(WireError::InvalidPayload);
                }
                let meta = Srv::decode_snapshot(&mut field)?;
                let again =
                    last.is_some_and(|last| last.encode_snapshot() == meta.encode_snapshot());
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
        store.insert(text, meta.clone(), value.as_deref());
        before = Some(key);
        vector_before = Some(meta);
    }
    Ok((store, buf.len()))
}

/// A boot is the oracle's, byte for byte, on each golden store's
/// snapshot and on every truncation, byte flip and one-byte insertion of
/// it: the same store or the same error.
#[test]
fn a_boot_reads_what_the_oracle_reads() {
    optrep_core::rng::cases(2, |seed, rng| {
        for store in golden_stores(40, rng) {
            let image = store.encode_snapshot();
            for image in std::iter::once(image.to_vec()).chain(mangled(&image, rng)) {
                let mut buf = Bytes::from(image.clone());
                let booted = KvStore::decode_snapshot(&mut buf).map(|store| (store, buf.len()));
                let by_oracle = boot_by_the_oracle(&image);
                let snapshot = |booted: Result<(KvStore, usize), WireError>| {
                    booted.map(|(store, rest)| (store.encode_snapshot(), rest))
                };
                assert_eq!(snapshot(booted), snapshot(by_oracle), "seed {seed}");
            }
        }
    });
}
