use super::*;
use optrep_core::rng::SplitMix64;
use optrep_core::RotatingVector;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

mod checksum;
mod refused;

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "optrep-persist-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entry(store: &KvStore, key: &str) -> (String, Bytes) {
    (key.to_string(), store.encode_entry(key).unwrap())
}

#[test]
fn record_roundtrip_and_checksum() {
    let payload = b"some payload";
    let mut buf = encode_record(7, payload);
    let (seq, got) = decode_record(&mut buf).unwrap();
    assert_eq!(seq, 7);
    assert_eq!(&got[..], payload);
    assert!(!buf.has_remaining());

    let mut flipped = encode_record(7, payload).to_vec();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let mut buf = Bytes::from(flipped);
    assert_eq!(decode_record(&mut buf), Err(WireError::InvalidPayload));
}

/// Every `write` a record goes out in.
#[derive(Default)]
struct Writes(Vec<usize>);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An entry's state as a store holds it, split: its vector's snapshot
/// and its value (`None` a tombstone).
fn split_state(state: &[u8]) -> (&[u8], Option<&[u8]>) {
    let mut rest = state;
    let vector = wire::get_slice(&mut rest).unwrap();
    let value = match rest.split_first() {
        Some((0, [])) => None,
        Some((1, mut value)) => Some(wire::get_slice(&mut value).unwrap()),
        _ => panic!("no store writes {state:?}"),
    };
    (vector, value)
}

/// One entry of an image, as a test lists it: the length of the prefix
/// its key shares with the key before, the rest of its key, its vector —
/// `None` where it is the vector before — and its value (`None` a
/// tombstone).
type Listed<'a> = (u64, &'a [u8], Option<&'a [u8]>, Option<&'a [u8]>);

/// Appends `entry` as an image writes one, field by field: the key head
/// `shared << 3 | min(rest, 7)`, the rest's length less 7 where it is 7
/// or more, the rest; the state head `value_code << 1 | repeats`
/// (`value_code` 0 a tombstone, the value's length plus one a value),
/// the vector's field where it is written out, the value.
fn put_listed(buf: &mut BytesMut, (shared, rest, vector, value): Listed<'_>) {
    let low = rest.len().min(7) as u64;
    wire::put_varint(buf, shared << 3 | low);
    if low == 7 {
        wire::put_varint(buf, rest.len() as u64 - 7);
    }
    buf.put_slice(rest);
    let code = value.map_or(0, |v| v.len() as u64 + 1);
    wire::put_varint(buf, code << 1 | u64::from(vector.is_none()));
    if let Some(vector) = vector {
        wire::put_bytes(buf, vector);
    }
    buf.put_slice(value.unwrap_or_default());
}

/// A log record's payload, an image: `count`, then `entries` as listed,
/// whatever order or vectors they list.
fn payload_of(count: u64, entries: &[Listed<'_>]) -> Vec<u8> {
    let mut payload = BytesMut::new();
    wire::put_varint(&mut payload, count);
    for &entry in entries {
        put_listed(&mut payload, entry);
    }
    payload.to_vec()
}

/// The payload of a record logging `changed`, written here field by
/// field: the reference the streamed writer is held to. Its keys sorted,
/// each once with the state listed last; each key after the first as the
/// length of the prefix it shares with the key before and the rest; each
/// vector that is the one before left out.
fn encode_payload(changed: &[(String, Bytes)]) -> Bytes {
    let logged: BTreeMap<&str, &Bytes> = changed.iter().map(|(k, e)| (k.as_str(), e)).collect();
    let mut buf = BytesMut::new();
    wire::put_varint(&mut buf, logged.len() as u64);
    let mut before: Option<(&str, &[u8])> = None;
    for (key, entry) in logged {
        let (vector, value) = split_state(entry);
        let (mut shared, mut repeats) = (0, false);
        if let Some((last, last_vector)) = before {
            shared = key
                .bytes()
                .zip(last.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            repeats = vector == last_vector;
        }
        let rest = &key.as_bytes()[shared..];
        put_listed(
            &mut buf,
            (shared as u64, rest, (!repeats).then_some(vector), value),
        );
        before = Some((key, vector));
    }
    buf.freeze()
}

/// An entry's state as a store holds it: `vector`'s field, then a
/// tombstone's tag, or a value's tag and the value behind its length.
fn state_of(vector: &[u8], value: Option<&[u8]>) -> Bytes {
    let mut state = BytesMut::new();
    wire::put_bytes(&mut state, vector);
    match value {
        Some(value) => {
            state.put_u8(1);
            wire::put_bytes(&mut state, value);
        }
        None => state.put_u8(0),
    }
    state.freeze()
}

/// What `append` adds to the log is `encode_record(seq,
/// &encode_payload(..))` to the byte, streamed from the entries: seeded
/// commits whose counts, key and value lengths and sequence numbers
/// straddle the one-, two- and three-byte length prefixes and heads,
/// many of them records several chunks long, their keys listed out of
/// order and now and then twice, an eighth of their entries tombstones
/// and their vectors one of two, so about half repeat the one before. A
/// record no longer than a chunk goes out in one write, and a longer one
/// in writes of a chunk at most.
#[test]
fn an_appended_commit_is_the_record_of_its_payload() {
    use std::io::{Read, Seek, SeekFrom};
    let dir = tmpdir("appended");
    let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never);
    let (mut persist, _, _) = Persist::open(&config, SiteId::new(6)).unwrap();
    let mut wal = File::open(dir.join(WAL_FILE)).unwrap();
    let mut rng = SplitMix64::new(0x000C_0AA1_7ED5_EED5);
    const LENGTHS: [usize; 8] = [0, 1, 5, 127, 128, 300, 16_383, 16_384];
    let (mut long, mut twice) = (0, 0);
    for case in 0..200u64 {
        let keys = [1, 2, 127, 128, 300][(rng.next_u64() % 5) as usize];
        let mut changed: Vec<(String, Bytes)> = (0..keys)
            .map(|i| {
                let key_len = LENGTHS[(rng.next_u64() % 6) as usize];
                let value_len = match rng.next_u64() % 16 {
                    0 => LENGTHS[6 + (rng.next_u64() % 2) as usize],
                    pick => LENGTHS[(pick % 6) as usize],
                };
                let fill = rng.next_u64();
                let value: Vec<u8> = (0..value_len)
                    .map(|j| (fill >> (j % 8 * 8)) as u8)
                    .collect();
                let vector: &[u8] = match rng.next_u64() % 2 {
                    0 => &[1, 0, 4],
                    _ => &[2, 0, 4, 7, 8],
                };
                let value = (!rng.next_u64().is_multiple_of(8)).then_some(&value[..]);
                (format!("{i:0key_len$}"), state_of(vector, value))
            })
            .collect();
        if rng.next_u64().is_multiple_of(4) {
            let again = changed[(rng.next_u64() % keys as u64) as usize].0.clone();
            changed.push((again, state_of(&[1, 0, 4], None)));
            twice += 1;
        }
        let reference = encode_record(seq_of(&mut rng), &encode_payload(&changed));
        let seq = decode_record(&mut reference.clone()).unwrap().0;
        let at = format!("case {case}: {keys} keys, seq {seq}");
        // The sequence a log of that many records would have reached.
        persist.seq = seq - 1;
        let before = persist.wal_len();
        let appended = persist.append(&changed).unwrap();
        assert_eq!(
            (appended, persist.wal_len(), persist.seq()),
            (reference.len() as u64, before + reference.len() as u64, seq),
            "{at}"
        );
        let mut record = Vec::new();
        wal.seek(SeekFrom::Start(before)).unwrap();
        wal.read_to_end(&mut record).unwrap();
        assert_eq!(record, reference[..], "{at}");
        let (got, payload) = decode_record(&mut Bytes::from(record)).expect("decodes");
        assert_eq!((got, &payload), (seq, &encode_payload(&changed)), "{at}");

        let mut writes = Writes::default();
        let logged: BTreeMap<&str, &Bytes> = changed.iter().map(|(k, e)| (k.as_str(), e)).collect();
        let image = EntryImage::new(logged.iter().map(|(k, e)| (k.as_bytes(), &e[..]))).unwrap();
        assert_eq!(
            write_commit(&mut writes, seq, image).unwrap(),
            reference.len()
        );
        if reference.len() <= CHUNK {
            assert_eq!(writes.0, [reference.len()], "{at}");
        } else {
            long += 1;
            assert!(writes.0.iter().all(|&w| w <= CHUNK), "{at}: {:?}", writes.0);
        }
    }
    assert!(long > 10, "{long} records longer than a chunk");
    assert!(twice > 10, "{twice} records listing a key twice");
    drop(persist);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sequence number on each side of a one-, two-, five- and ten-byte
/// varint.
fn seq_of(rng: &mut SplitMix64) -> u64 {
    [1, 127, 128, 16_384, u64::from(u32::MAX), u64::MAX][(rng.next_u64() % 6) as usize]
}

#[test]
fn empty_dir_opens_empty_and_replays_appends() {
    let dir = tmpdir("basic");
    let config = DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always);
    let site = SiteId::new(3);
    let (mut persist, mut store, report) = Persist::open(&config, site).unwrap();
    assert_eq!(report.wal_records_applied, 0);
    assert!(store.is_empty());

    store.put("a", "1");
    persist.append(&[entry(&store, "a")]).unwrap();
    store.put("b", "2");
    store.delete("a");
    // One record carrying two post-states, like a contact commit.
    persist
        .append(&[entry(&store, "b"), entry(&store, "a")])
        .unwrap();
    assert_eq!(persist.seq(), 2);
    assert!(persist.fsyncs() >= 2, "fsync=always syncs every append");
    drop(persist);

    let (persist, recovered, report) = Persist::open(&config, site).unwrap();
    assert_eq!(report.wal_records_applied, 2);
    assert!(!report.torn_tail);
    assert_eq!(recovered.replica_digest(), store.replica_digest());
    assert_eq!(persist.seq(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_and_recovery_uses_both_layers() {
    let dir = tmpdir("ckpt");
    let config = DurabilityConfig::new(&dir);
    let site = SiteId::new(0);
    let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
    store.put("pre", "1");
    persist.append(&[entry(&store, "pre")]).unwrap();
    let wal_before = persist.wal_len();
    persist.checkpoint(&store.encode_snapshot()).unwrap();
    assert!(persist.wal_len() < wal_before, "checkpoint truncates");
    assert_eq!(persist.snapshot_seq(), 1);
    let later = Instant::now() + DEFAULT_CHECKPOINT_INTERVAL;
    assert_eq!(
        persist.due(later),
        Due::Nothing,
        "the snapshot covers the log"
    );

    store.put("post", "2");
    persist.append(&[entry(&store, "post")]).unwrap();
    assert_eq!(persist.due(later), Due::Checkpoint);
    drop(persist);

    let (persist, recovered, report) = Persist::open(&config, site).unwrap();
    assert_eq!(report.snapshot_seq, 1);
    assert_eq!(
        report.wal_records_applied, 1,
        "only the post-checkpoint record"
    );
    assert_eq!(recovered.replica_digest(), store.replica_digest());
    assert_eq!(persist.seq(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_is_dropped_and_truncated() {
    let dir = tmpdir("torn");
    let config = DurabilityConfig::new(&dir);
    let site = SiteId::new(1);
    let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
    store.put("whole", "survives");
    persist.append(&[entry(&store, "whole")]).unwrap();
    let survivor_digest = store.replica_digest();
    store.put("torn", "lost");
    persist.append(&[entry(&store, "torn")]).unwrap();
    let full = persist.wal_len();
    drop(persist);

    // Tear the final record: cut one byte off the file.
    let wal_path = dir.join(WAL_FILE);
    let file = OpenOptions::new().write(true).open(&wal_path).unwrap();
    file.set_len(full - 1).unwrap();
    drop(file);

    let (persist, recovered, report) = Persist::open(&config, site).unwrap();
    assert!(report.torn_tail);
    assert_eq!(report.wal_records_applied, 1);
    assert_eq!(recovered.replica_digest(), survivor_digest);
    // The tear was truncated away: the file now ends at the last
    // whole record, so appends extend a clean log.
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        persist.wal_len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_log_corruption_is_a_hard_error() {
    let dir = tmpdir("corrupt");
    let config = DurabilityConfig::new(&dir);
    let site = SiteId::new(1);
    let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
    store.put("first", "aaaaaaaaaaaaaaaa");
    persist.append(&[entry(&store, "first")]).unwrap();
    let first_end = persist.wal_len();
    store.put("second", "b");
    persist.append(&[entry(&store, "second")]).unwrap();
    drop(persist);

    // Flip a byte inside the first record's payload (safely past
    // the varint framing): the checksum must catch it, and because
    // a whole record follows, this is corruption, not a tear.
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let mid = (first_end as usize) - 4;
    bytes[mid] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = Persist::open(&config, site).unwrap_err();
    assert!(format!("{err}").contains("refusing to skip"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_site_data_dir_is_refused() {
    let dir = tmpdir("foreign");
    let config = DurabilityConfig::new(&dir);
    let (_persist, _store, _) = Persist::open(&config, SiteId::new(4)).unwrap();
    let err = Persist::open(&config, SiteId::new(5)).unwrap_err();
    assert!(format!("{err}").contains("site"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_policy_parses_every_form() {
    assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
    assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
    assert_eq!(
        FsyncPolicy::parse("interval"),
        Some(FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL))
    );
    assert_eq!(
        FsyncPolicy::parse("interval:250"),
        Some(FsyncPolicy::Interval(Duration::from_millis(250)))
    );
    assert_eq!(FsyncPolicy::parse("interval:x"), None);
    assert_eq!(FsyncPolicy::parse("sometimes"), None);
}

/// The snapshot file as it was written before it was streamed — the
/// whole image in one buffer, then the file in a second: the reference
/// the streamed writer is held to, byte for byte.
fn encode_snapshot_file(covered_seq: u64, store_image: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(store_image.len() + 24);
    buf.put_slice(&SNAPSHOT_MAGIC);
    buf.put_u8(SNAPSHOT_VERSION);
    wire::put_varint(&mut buf, covered_seq);
    wire::put_bytes(&mut buf, store_image);
    wire::put_varint(&mut buf, checksum(covered_seq, store_image));
    buf.freeze()
}

/// Checkpoints `store` streamed at sequence `covered` into a fresh dir:
/// the file must be the reference's, the whole-image path must write the
/// same file, and a boot from it must rebuild the store's image and
/// digest. Returns the dir and the file.
fn streamed_checkpoint(tag: &str, store: &KvStore, covered: u64) -> (PathBuf, Vec<u8>) {
    let dir = tmpdir(tag);
    let config = DurabilityConfig::new(&dir);
    let (mut persist, _, _) = Persist::open(&config, store.site()).unwrap();
    // The sequence a log of that many records would have reached.
    persist.seq = covered;
    persist.checkpoint_store(store).unwrap();
    let path = dir.join(SNAPSHOT_FILE);
    let written = std::fs::read(&path).unwrap();
    let image = store.encode_snapshot();
    assert_eq!(
        written,
        encode_snapshot_file(covered, &image),
        "seq {covered}"
    );
    persist.checkpoint(&image).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), written, "seq {covered}");
    drop(persist);
    let (persist, booted, report) = Persist::open(&config, store.site()).unwrap();
    assert_eq!(booted.encode_snapshot(), image, "seq {covered}");
    assert_eq!(booted.replica_digest(), store.replica_digest());
    assert_eq!(
        (persist.seq(), report.snapshot_seq, report.snapshot_bytes),
        (covered, covered, written.len() as u64)
    );
    (dir, written)
}

/// Keys whose length prefixes take one and two bytes, the empty key and
/// multi-byte UTF-8: the shapes `golden_bytes` pins.
fn shaped_key(i: usize) -> String {
    match i {
        7 => String::new(),
        21 => format!("{i:02}-{}", "x".repeat(124)),
        22 => format!("{i:02}-{}", "y".repeat(125)),
        40..=43 => format!("ключ-{i:02}-鍵"),
        _ => format!("k{i:02}"),
    }
}

/// What the streamed checkpoint writes is what `encode_snapshot_file`
/// wrote for `encode_snapshot`, to the byte: seeded three-site stores
/// (multi-site vectors, tombstones, puts over tombstones) over the
/// `golden_bytes` key shapes, values whose length prefixes take one, two
/// and three bytes — one longer than a read chunk — and covered
/// sequences on each side of a one-, two- and three-byte varint.
#[test]
fn a_streamed_checkpoint_writes_the_file_the_whole_image_did() {
    const LENGTHS: [usize; 8] = [0, 1, 5, 127, 128, 300, 16_383, 16_384];
    const COVERED: [u64; 7] = [0, 1, 127, 128, 16_383, 16_384, 1 << 21];
    let mut rng = SplitMix64::new(0x5EED_C4EC_4901_0028);
    let mut stores: Vec<KvStore> = (0..3)
        .map(|i| KvStore::with_shards(SiteId::new(i), 16))
        .collect();
    let mut checked = 0;
    for step in 0..600 {
        let who = rng.below(3);
        let key = shaped_key(rng.below(64));
        match rng.below(10) {
            0..=5 => {
                let len = match rng.below(40) {
                    0 => CHUNK + 1,
                    pick => LENGTHS[pick % LENGTHS.len()],
                };
                stores[who].put(key, vec![step as u8; len]);
            }
            6 | 7 => stores[who].delete(key),
            _ => {
                let src = stores[(who + 1) % 3].clone();
                stores[who].sync(&src).run().unwrap();
            }
        }
        if step % 100 == 99 {
            for store in &stores {
                let covered = COVERED[checked % COVERED.len()];
                let (dir, _) = streamed_checkpoint("stream", store, covered);
                std::fs::remove_dir_all(&dir).unwrap();
                checked += 1;
            }
        }
    }
    let shapes: Vec<(usize, bool)> = (stores.iter())
        .flat_map(|store| {
            (0..64)
                .map(shaped_key)
                .filter_map(|key| Some((store.meta(&key)?.len(), store.get(&key).is_some())))
        })
        .collect();
    assert!(
        shapes.iter().any(|&(sites, _)| sites >= 2),
        "multi-site vectors"
    );
    assert!(shapes.iter().any(|&(_, live)| !live), "tombstones");
    assert!(
        stores.iter().any(|s| s.encode_snapshot().len() > CHUNK),
        "an image longer than a chunk"
    );
    assert_eq!(checked, 18);
}

/// Writes `bytes` as the snapshot in `dir` and boots from it: the error
/// recovery refused with, or a panic naming `what` if it recovered.
fn boot_refuses(dir: &Path, site: SiteId, bytes: &[u8], what: &str) -> String {
    std::fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
    match Persist::open(&DurabilityConfig::new(dir), site) {
        Ok(_) => panic!("{what}: recovered"),
        Err(e) => e.to_string(),
    }
}

/// A snapshot is written atomically, so nothing short of it, longer
/// than it or different from it by one byte is a crash footprint: every
/// strict prefix of the file, a trailing byte, and each byte flipped
/// three ways refuse recovery — a cut or a trailing byte as a corrupt
/// file, before any of the image is decoded.
#[test]
fn every_prefix_extension_and_flipped_byte_of_a_snapshot_refuses_recovery() {
    let site = SiteId::new(2);
    let mut store = KvStore::with_shards(site, 4);
    let mut peer = KvStore::with_shards(SiteId::new(5), 4);
    peer.put("shared", vec![3u8; 130]);
    store.put("shared", "ours");
    store.put("gone", "1");
    store.delete("gone");
    store.sync(&peer).run().unwrap();
    assert!(
        store.meta("shared").unwrap().len() == 2,
        "a reconciled two-site vector"
    );
    let (dir, file) = streamed_checkpoint("defects", &store, 300);

    for cut in 0..file.len() {
        let err = boot_refuses(&dir, site, &file[..cut], &format!("cut {cut}"));
        assert!(err.contains("snapshot file corrupt"), "cut {cut}: {err}");
    }
    let mut longer = file.clone();
    longer.push(0);
    let err = boot_refuses(&dir, site, &longer, "a trailing byte");
    assert!(err.contains("snapshot file corrupt"), "{err}");
    for at in 0..file.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut flipped = file.clone();
            flipped[at] ^= flip;
            boot_refuses(&dir, site, &flipped, &format!("byte {at} ^ {flip:#x}"));
        }
    }
    std::fs::write(dir.join(SNAPSHOT_FILE), &file).unwrap();
    let (_, booted, _) = Persist::open(&DurabilityConfig::new(&dir), site).unwrap();
    assert_eq!(booted, store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot several chunks long, with records that straddle every
/// chunk boundary and one record longer than a chunk, is written and
/// booted a chunk at a time — and refused when it is cut, or has a byte
/// flipped, on either side of a chunk boundary or of the long record.
#[test]
fn a_snapshot_is_read_across_chunk_boundaries_and_a_record_longer_than_a_chunk() {
    let site = SiteId::new(1);
    let mut store = KvStore::with_shards(site, 16);
    for i in 0..900 {
        store.put(format!("k{i:04}"), vec![i as u8; 256]);
    }
    for i in (0..900).step_by(7) {
        store.delete(format!("k{i:04}"));
    }
    store.put("k0450x", vec![9u8; CHUNK + CHUNK / 2]);
    let (dir, file) = streamed_checkpoint("chunks", &store, 70_000);
    assert!(file.len() > 4 * CHUNK, "{} B", file.len());

    // "k0450x" follows "k0450": it shares five bytes, its rest is "x",
    // and it holds k0450's vector, left out: its state head is the
    // value's length plus one, doubled, and the repeat flag.
    let entry = store.encode_entry("k0450x").unwrap();
    let (vector, value) = split_state(&entry);
    let value = value.unwrap();
    assert_eq!(split_state(&store.encode_entry("k0450").unwrap()).0, vector);
    let mut coded = BytesMut::new();
    put_listed(&mut coded, (5, b"x", None, Some(value)));
    let head = coded.len() - value.len();
    let key_at = (file.windows(head).position(|w| w == &coded[..head])).unwrap();
    let long = (key_at, key_at + head + value.len());
    assert!(long.1 - long.0 > CHUNK);
    let marks = [CHUNK, 2 * CHUNK, 3 * CHUNK, 4 * CHUNK, long.0, long.1];
    for mark in marks {
        for at in mark - 3..=mark + 3 {
            let err = boot_refuses(&dir, site, &file[..at], &format!("cut {at}"));
            assert!(err.contains("snapshot file corrupt"), "cut {at}: {err}");
            let mut flipped = file.clone();
            flipped[at] ^= 0x01;
            boot_refuses(&dir, site, &flipped, &format!("byte {at} flipped"));
        }
    }
    let mut longer = file.clone();
    longer.push(0);
    boot_refuses(&dir, site, &longer, "a trailing byte");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One contact's commit is one WAL record several chunks long. Torn on
/// either side of any chunk boundary inside it, the log recovers exactly
/// the record before it and is truncated there; cut at its end or inside
/// the record after it, exactly the contact.
#[test]
fn a_wal_record_longer_than_a_chunk_torn_at_a_chunk_boundary_recovers_the_record_before() {
    let dir = tmpdir("long-record");
    let config = DurabilityConfig::new(&dir);
    let site = SiteId::new(3);
    let (mut persist, mut store, _) = Persist::open(&config, site).unwrap();
    store.put("first", "1");
    persist.append(&[entry(&store, "first")]).unwrap();
    let first = (persist.wal_len() as usize, store.replica_digest());
    let keys: Vec<String> = (0..900).map(|i| format!("c{i:04}")).collect();
    for key in &keys {
        store.put(key.clone(), vec![1u8; 256]);
    }
    let changed: Vec<_> = keys.iter().map(|key| entry(&store, key)).collect();
    persist.append(&changed).unwrap();
    let contact = (persist.wal_len() as usize, store.replica_digest());
    assert!(contact.0 - first.0 > 3 * CHUNK);
    store.put("last", "3");
    persist.append(&[entry(&store, "last")]).unwrap();
    drop(persist);
    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();

    let boundaries = [CHUNK, 2 * CHUNK, 3 * CHUNK];
    let cuts = (boundaries
        .iter()
        .flat_map(|&b| [b - 2, b - 1, b, b + 1, b + 2]))
    .chain([
        first.0 + 1,
        contact.0 - 1,
        contact.0,
        contact.0 + 1,
        full.len() - 1,
    ]);
    for cut in cuts {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (_, recovered, report) = Persist::open(&config, site).unwrap();
        let (end, digest) = if cut < contact.0 { first } else { contact };
        assert_eq!(recovered.replica_digest(), digest, "cut {cut}");
        assert_eq!(report.torn_tail, cut != end, "cut {cut}");
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len() as usize, end);
    }
    std::fs::write(&wal_path, &full).unwrap();
    let (_, recovered, report) = Persist::open(&config, site).unwrap();
    assert_eq!((recovered, report.wal_records_applied), (store, 3));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `Persist` over `dir`, every append fsynced.
fn open_in_memory(dir: &MemDir, site: SiteId) -> (Persist, KvStore, ReplayReport) {
    let config = DurabilityConfig::new("in memory").with_fsync(FsyncPolicy::Always);
    Persist::open_in(Box::new(dir.clone()), &config, site).unwrap()
}

/// A crash between the checkpoint's snapshot rename and its log
/// truncation leaves the new snapshot beside the whole log. Reboot
/// skips every record the snapshot covers, applies none, and gives the
/// committed store byte for byte.
#[test]
fn a_crash_between_the_snapshot_rename_and_the_log_truncate_skips_the_covered_log() {
    const RECORDS: u64 = 12;
    let dir = MemDir::default();
    let site = SiteId::new(2);
    let (mut persist, mut store, _) = open_in_memory(&dir, site);
    for i in 0..RECORDS {
        let key = format!("k{}", i % 5);
        store.put(key.clone(), format!("v{i}"));
        persist.append(&[entry(&store, &key)]).unwrap();
    }
    dir.stop_on("truncate wal");
    let stopped = persist.checkpoint_store(&store);
    assert!(stopped.is_err(), "the directory stops at the truncate");
    let calls = dir.calls();
    assert_eq!(
        calls[calls.len() - 2..],
        ["rename snapshot.tmp snapshot", "truncate wal"]
    );
    drop(persist);

    let (_, rebooted, report) = open_in_memory(&dir.crash(), site);
    assert_eq!(rebooted.encode_snapshot(), store.encode_snapshot());
    assert_eq!(
        (
            report.snapshot_seq,
            report.wal_records_skipped,
            report.wal_records_applied
        ),
        (RECORDS, RECORDS, 0)
    );
}

/// A crash at every call a checkpoint makes, and at every call of the
/// appends after it: each reboot gives the store as of the last
/// acknowledged append.
#[test]
fn a_crash_at_any_call_of_a_checkpoint_or_an_append_recovers_what_was_acknowledged() {
    let site = SiteId::new(4);
    let mut skipped = 0;
    for stop in 0.. {
        let dir = MemDir::default();
        let (mut persist, mut store, _) = open_in_memory(&dir, site);
        let write = |persist: &mut Persist, store: &mut KvStore, i: usize| {
            let key = format!("k{}", i % 3);
            let before = store.encode_snapshot();
            store.put(key.clone(), format!("v{i}"));
            match persist.append(&[entry(store, &key)]) {
                Ok(_) => None,
                Err(_) => Some(before),
            }
        };
        for i in 0..4 {
            assert!(write(&mut persist, &mut store, i).is_none());
        }
        persist.checkpoint_store(&store).unwrap();
        assert!(write(&mut persist, &mut store, 4).is_none());
        dir.stop_after(stop);
        let mut acknowledged = store.encode_snapshot();
        let mut done = persist.checkpoint_store(&store).is_ok();
        for i in 5..7 {
            match write(&mut persist, &mut store, i) {
                None => acknowledged = store.encode_snapshot(),
                Some(before) => {
                    assert_eq!(before, acknowledged, "stop at call {stop}");
                    done = false;
                    break;
                }
            }
        }
        drop(persist);
        let (_, rebooted, report) = open_in_memory(&dir.crash(), site);
        assert_eq!(
            rebooted.encode_snapshot(),
            acknowledged,
            "stop at call {stop}"
        );
        skipped += report.wal_records_skipped;
        if done {
            break;
        }
    }
    assert!(
        skipped > 0,
        "some stop fell between the rename and the truncate"
    );
}

/// `due`: nothing on a log the snapshot covers; an fsync once the
/// `interval` period has passed with bytes unsynced; a checkpoint once
/// the checkpoint interval has passed with records uncovered, or at once
/// when the log outgrows its bound.
#[test]
fn due_answers_from_the_cadence() {
    let hour = Duration::from_secs(3600);
    let config = DurabilityConfig::new("in memory")
        .with_fsync(FsyncPolicy::Interval(hour))
        .with_checkpoint_interval(2 * hour);
    let site = SiteId::new(5);
    let opened = Instant::now();
    let (mut persist, mut store, _) =
        Persist::open_in(Box::new(MemDir::default()), &config, site).unwrap();
    assert_eq!(persist.due(opened + 3 * hour), Due::Nothing);
    store.put("a", "1");
    persist.append(&[entry(&store, "a")]).unwrap();
    let now = Instant::now();
    assert_eq!(persist.due(now), Due::Nothing);
    assert_eq!(persist.due(now + hour), Due::Fsync);
    assert_eq!(persist.due(now + 2 * hour), Due::Checkpoint);
    assert!(persist.sync().unwrap());
    assert_eq!(persist.due(now + hour), Due::Nothing);

    // The log's bound brings the checkpoint forward.
    let config = config.with_checkpoint_wal_bytes(persist.wal_len());
    let (mut persist, _, _) = Persist::open_in(Box::new(MemDir::default()), &config, site).unwrap();
    persist.append(&[entry(&store, "a")]).unwrap();
    assert_eq!(persist.due(Instant::now()), Due::Checkpoint);
}

/// A cold join logs the store it received as it received it: joining a
/// source of 2 000 keys (one deleted, values of many lengths) into an
/// empty store at 1, 16 and 512 shards, the one WAL record's payload is
/// the plan's image byte for byte, and a boot from the log is the joined
/// store.
#[test]
fn a_cold_joins_log_record_is_its_plans_image() {
    use optrep_kv::JoinResolver;
    use optrep_replication::mux::run_contact;
    use optrep_replication::planner::PlanConfig;
    for shards in [1, 16, 512] {
        let mut source = KvStore::with_shards(SiteId::new(1), shards);
        for i in 0..2000u32 {
            source.put(format!("k{i:05}"), vec![(i % 251) as u8; (i % 40) as usize]);
        }
        source.delete("k00007");
        let site = SiteId::new(2);
        let mut joined = KvStore::with_shards(site, shards);
        let (plan, mut server) =
            source.plan_contact(&joined.shard_digest_vector(), &PlanConfig::default());
        assert_eq!(plan.bulk.len(), shards);
        let mut client = joined.client_endpoint_for(&plan.incremental, shards);
        let contact = run_contact(&mut client, &mut server).unwrap();
        let committed = joined
            .apply_planned(&JoinResolver, client, &contact, &plan)
            .unwrap();
        let dir = tmpdir("cold-join");
        let config = DurabilityConfig::new(&dir);
        let (mut persist, _, _) = Persist::open(&config, site).unwrap();
        let header = persist.wal_len();
        persist.append_entries(committed.entries(&joined)).unwrap();
        drop(persist);
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let (seq, payload) = decode_record(&mut Bytes::from(wal).slice(header as usize..)).unwrap();
        assert_eq!(seq, 1, "{shards} shards");
        assert!(payload == plan.image.clone().unwrap(), "{shards} shards");
        let (_, booted, report) = Persist::open(&config, site).unwrap();
        assert_eq!(
            (report.wal_records_applied, &booted),
            (1, &joined),
            "{shards} shards"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
