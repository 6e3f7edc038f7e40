//! The checksum a log record and a snapshot carry: the same however its
//! bytes are split, and moved by any change of one byte.

use super::*;

/// Feeds `rest` into `fold` in every split into `eat` calls — each piece
/// behind an empty call — and hands `done` each split's sum: a
/// depth-first walk over the cut points, each branch eating its next
/// piece into a copy of the fold so far.
fn every_split(rest: &[u8], fold: &ByteFold, done: &mut impl FnMut(u64)) {
    if rest.is_empty() {
        return done(fold.sum());
    }
    for cut in 1..=rest.len() {
        let mut next = fold.clone();
        next.eat(&[]);
        next.eat(&rest[..cut]);
        every_split(&rest[cut..], &next, done);
    }
}

/// Every split of every input up to 24 bytes — 2²⁴ splits, pieces of
/// every length either side of a word — sums as the whole input does.
#[test]
fn the_checksum_is_the_same_for_every_split_of_a_short_input() {
    let bytes: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
    let mut splits = 0u64;
    for len in 0..=bytes.len() {
        let whole = checksum(7, &bytes[..len]);
        every_split(&bytes[..len], &summing(7, len as u64), &mut |sum| {
            assert_eq!(sum, whole, "a split of {len} B");
            splits += 1;
        });
    }
    assert_eq!(splits, 1 << 24);
}

/// A mebibyte written through the summing writer in pieces of seeded
/// lengths — empty, shorter than a word, a few words, tens of KiB — sums
/// as it does whole.
#[test]
fn the_checksum_is_the_same_for_seeded_splits_of_a_mebibyte() {
    let mut rng = SplitMix64::new(0x0C4E_C5D5);
    let bytes: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    let whole = checksum(3, &bytes);
    optrep_core::rng::cases(16, |_, rng| {
        let mut summed = Summed {
            out: io::sink(),
            hash: summing(3, bytes.len() as u64),
            len: 0,
        };
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let most = [8, 64, 64 << 10][rng.below(3)];
            let cut = rest.len().min(rng.below(most));
            summed.write_all(&rest[..cut]).unwrap();
            rest = &rest[cut..];
        }
        assert_eq!((summed.len, summed.hash.sum()), (bytes.len(), whole));
    });
}

/// Every change of one byte of a small record's payload — each byte
/// xored with each of the 255 values — is refused as a corrupt log,
/// never dropped as a torn tail: the framing around the payload still
/// holds, and the checksum does not.
#[test]
fn every_changed_byte_of_a_record_payload_is_refused_as_corrupt() {
    let site = SiteId::new(3);
    let mut store = KvStore::with_shards(site, 4);
    store.put("k", "v");
    store.put("seven-b", "nine byte");
    store.delete("gone");
    let changed = ["k", "seven-b", "gone"].map(|key| entry(&store, key));
    let payload = encode_payload(&changed);
    let mut log = wal_header(site).to_vec();
    let start = log.len() + wire::varint_len(1) + wire::varint_len(payload.len() as u64);
    log.extend_from_slice(&encode_record(1, &payload));
    let replay = |log: &[u8]| {
        let mut report = ReplayReport::default();
        let mut booted = KvStore::with_shards(site, 4);
        let len = log.len() as u64;
        replay_wal(log, len, site, 0, &mut booted, &mut report).map(|_| booted)
    };
    assert_eq!(replay(&log).unwrap(), store);
    for at in start..start + payload.len() {
        for flip in 1..=255u8 {
            let mut flipped = log.clone();
            flipped[at] ^= flip;
            let err = replay(&flipped).expect_err("a changed payload byte replays");
            assert!(
                err.to_string().contains("not a torn tail"),
                "byte {at} ^ {flip:#x}: {err}"
            );
        }
    }
}

/// Every change of one byte of a small snapshot's image — each byte
/// xored with each of the 255 values — is refused by the boot's
/// snapshot reader.
#[test]
fn every_changed_byte_of_a_snapshot_image_is_refused_at_boot() {
    let site = SiteId::new(2);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("ab", "eight b!");
    store.put("b", vec![7u8; 9]);
    store.delete("c");
    let image = store.encode_snapshot();
    let file = encode_snapshot_file(5, &image);
    let start = SNAPSHOT_MAGIC.len() + 1 + 2;
    assert_eq!(file[start..start + image.len()], image[..]);
    let boot = |file: &[u8]| read_snapshot(file, file.len() as u64);
    assert_eq!(boot(&file).unwrap(), (store, 5));
    for at in start..start + image.len() {
        for flip in 1..=255u8 {
            let mut flipped = file.to_vec();
            flipped[at] ^= flip;
            assert!(boot(&flipped).is_err(), "byte {at} ^ {flip:#x} boots");
        }
    }
}
