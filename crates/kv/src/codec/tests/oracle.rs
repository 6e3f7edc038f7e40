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

/// What the oracle makes of `state` under `key`, as the one entry of an
/// image — the vector built, then written back by `Record::write`; an
/// empty vector field refused, as the first entry of an image writes its
/// vector — and how much of it it read.
fn record_by_the_oracle(key: &str, state: &[u8]) -> (Result<Vec<u8>, WireError>, usize) {
    let mut field = state;
    if wire::get_slice(&mut field).is_ok_and(<[u8]>::is_empty) {
        return (Err(WireError::InvalidPayload), state.len() - field.len());
    }
    let mut buf = Bytes::copy_from_slice(state);
    let decoded = decode_state(&mut buf).map(|(meta, value)| {
        let mut record = Vec::new();
        Record::write(&mut record, key, &meta, value.as_deref());
        record
    });
    (decoded, state.len() - buf.len())
}

/// What `Record::write_state` makes of it as the image reader reads it
/// — the one entry of an image — and how much of it it read.
fn record_by_the_writer(key: &str, state: &[u8]) -> (Result<Vec<u8>, WireError>, usize) {
    let mut entry = Vec::new();
    wire::put_bytes(&mut entry, key.as_bytes());
    let keyed = entry.len();
    entry.extend_from_slice(state);
    let mut rest = &entry[..];
    let mut record = vec![0xee];
    let mut entries = ImageEntries::default();
    let taken = entries.take(&mut rest);
    let len = taken.as_ref().map(|(key, state)| state.record_len(key));
    let written = taken.and_then(|(key, state)| Record::write_state(&mut record, key, state));
    match written {
        Ok(()) => {
            assert_eq!(len.unwrap() + 1, record.len(), "record_len is exact");
            (Ok(record[1..].to_vec()), entry.len() - rest.len() - keyed)
        }
        Err(e) => {
            assert_eq!(
                record,
                [0xee],
                "a refused state leaves the buffer as it was"
            );
            (Err(e), entry.len() - rest.len() - keyed)
        }
    }
}

/// The one decoder of an entry's state writes the record the vector
/// decoder and the encoder write, and refuses what they refuse with the
/// same error: over every entry of stores driven through the golden
/// universe, each state written with each varint overlong in turn, a
/// repeated site and a byte left in the vector field, and every
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
                let honest = store.encode_entry(key).unwrap();
                let (record, read) = record_by_the_writer(key, &honest);
                assert_eq!(read, honest.len(), "seed {seed}, {key:?}");
                let (len, exact) = (record.unwrap().len(), store.record(key.as_bytes()));
                assert_eq!(len, exact.unwrap().bytes().len(), "exact for its own bytes");
                for pad in pads {
                    states.push((key.to_owned(), state_image(view, pad).to_vec()));
                }
            }
        }
        states.push(("x".into(), entry_image(&repeated_site_meta()).to_vec()));
        states.push(("x".into(), entry_image(&[1, 0, 4, 0x7f]).to_vec()));
        for (key, state) in states {
            for state in std::iter::once(state.clone()).chain(mangled(&state, rng)) {
                let (by_oracle, read) = record_by_the_oracle(&key, &state);
                let (by_writer, taken) = record_by_the_writer(&key, &state);
                assert_eq!(by_writer, by_oracle, "seed {seed}, {key:?}: {state:?}");
                if by_oracle.is_ok() {
                    assert_eq!(taken, read, "seed {seed}, {key:?}: {state:?}");
                    written += 1;
                } else {
                    refused += 1;
                }
            }
        }
    });
    assert!(written > 0 && refused > 0, "{written} {refused}");
}

/// The store the oracle boots from `image`, and what it left unread:
/// every key rebuilt from the prefix it shares with the key before and
/// its rest, every vector decoded — or, for an empty field, the vector
/// before — and every value decoded, then stored.
pub(super) fn boot_by_the_oracle(image: &[u8]) -> Result<(KvStore, usize), WireError> {
    let mut buf = Bytes::copy_from_slice(image);
    let site = wire::get_site(&mut buf)?;
    let n = wire::get_varint(&mut buf)?;
    let mut store = KvStore::with_shards(site, 16);
    let mut before: Option<Vec<u8>> = None;
    let mut vector_before: Option<Srv> = None;
    for _ in 0..n {
        let shared = match before {
            Some(_) => wire::get_varint(&mut buf)? as usize,
            None => 0,
        };
        let rest = wire::get_bytes(&mut buf)?;
        let last = before.as_deref().unwrap_or_default();
        let prefix = last.get(..shared).ok_or(WireError::InvalidPayload)?;
        let key = [prefix, &rest].concat();
        let common = key.iter().zip(last).take_while(|(a, b)| a == b).count();
        if common != shared || before.is_some() && key.as_slice() <= last {
            return Err(WireError::InvalidPayload);
        }
        let text = std::str::from_utf8(&key).map_err(|_| WireError::InvalidPayload)?;
        let mut field = wire::get_bytes(&mut buf)?;
        let meta = match (field.is_empty(), vector_before.take()) {
            (true, None) => return Err(WireError::InvalidPayload),
            (true, Some(meta)) => meta,
            (false, last) => {
                let meta = Srv::decode_snapshot(&mut field)?;
                let again =
                    last.is_some_and(|last| last.encode_snapshot() == meta.encode_snapshot());
                if field.has_remaining() || again {
                    return Err(WireError::InvalidPayload);
                }
                meta
            }
        };
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let value = match buf.get_u8() {
            0 => None,
            1 => Some(wire::get_bytes(&mut buf)?),
            _ => return Err(WireError::InvalidPayload),
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
