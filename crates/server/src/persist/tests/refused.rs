//! What a log record or a snapshot may hold: every encoding but the
//! writer's refuses recovery by name, under a checksum that holds, and an
//! append takes only the states a store writes.

use super::*;
use optrep_replication::planner::placement;

/// A log record or a checkpoint whose vector names a site twice refuses
/// recovery. No store writes one, and `append` refuses it
/// ([`a_state_no_store_wrote_is_refused_and_the_dir_still_boots`]), so
/// the forged record is written raw, under a checksum that holds.
#[test]
fn a_repeated_site_in_the_log_or_the_checkpoint_refuses_recovery() {
    // An honest two-site vector image, its second site renamed to its
    // first, under a checksum that holds: only the vector decoder can
    // tell, and it used to hand back a one-element vector.
    use optrep_core::{RotatingVector, Srv};
    let mut meta = Srv::new();
    meta.record_update(SiteId::new(3));
    meta.record_update(SiteId::new(5));
    let mut meta = meta.encode_snapshot().to_vec();
    assert_eq!(meta, [2, 5, 4, 3, 4], "count, then (site, value·4) pairs");
    meta[3] = meta[1];
    let forged = payload_of(1, &[(0, b"k", Some(&meta), Some(b"v"))]);

    let site = SiteId::new(5);
    let dir = tmpdir("repeat-wal");
    let err = boot_with_record(&dir, site, &forged, "a repeated site");
    assert!(err.contains("payload corrupt"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = tmpdir("repeat-ckpt");
    let config = DurabilityConfig::new(&dir);
    let (mut persist, _, _) = Persist::open(&config, site).unwrap();
    let mut image = BytesMut::new();
    wire::put_varint(&mut image, u64::from(site.index()));
    image.put_slice(&forged);
    persist.checkpoint(&image).unwrap();
    drop(persist);
    let err = Persist::open(&config, site).unwrap_err();
    assert!(format!("{err}").contains("image corrupt"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `append` and `append_entries` take only states a store writes — what
/// boot reads back — and refuse every other with `InvalidInput` before
/// writing a byte, whether it is listed alone or behind an honest one: a
/// tag other than 0 or 1, a value cut short, a byte behind the value, an
/// empty vector field, a vector field cut short or naming a site twice,
/// and a vector or a value length written overlong (it does not re-encode
/// to itself). The sequence, the log's length and its bytes are what
/// they were, and the dir boots to the store the honest appends made.
#[test]
fn a_state_no_store_wrote_is_refused_and_the_dir_still_boots() {
    let site = SiteId::new(4);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("b", "2");
    let dir = tmpdir("no-store-wrote");
    let config = DurabilityConfig::new(&dir);
    let (mut persist, _, _) = Persist::open(&config, site).unwrap();
    persist.append(&[entry(&store, "a")]).unwrap();
    let honest = store.encode_entry("b").unwrap();
    assert_eq!(honest[..], [3, 1, 4, 4, 1, 1, b'2'], "b's state");
    let hostile: [(&str, &[u8]); 9] = [
        ("a tag of 2", &[3, 1, 4, 4, 2]),
        ("a value cut short", &[3, 1, 4, 4, 1, 2, b'2']),
        ("a byte behind the value", &[3, 1, 4, 4, 1, 1, b'2', 0]),
        ("a byte behind a tombstone", &[3, 1, 4, 4, 0, 0]),
        ("an empty vector field", &[0, 1, 1, b'2']),
        ("a vector field cut short", &[4, 1, 4, 4]),
        ("a repeated site", &[5, 2, 3, 4, 3, 4, 0]),
        ("an overlong vector", &[4, 1, 4, 0x84, 0, 0]),
        ("an overlong value length", &[3, 1, 4, 4, 1, 0x81, 0, b'2']),
    ];
    let file = || std::fs::read(dir.join(WAL_FILE)).unwrap();
    let (seq, wal_len, bytes) = (persist.seq(), persist.wal_len(), file());
    for (what, state) in hostile {
        let state = Bytes::copy_from_slice(state);
        let alone = persist.append(&[("b".to_string(), state.clone())]);
        let listed = [(&b"a"[..], &entry(&store, "a").1[..]), (b"b", &state[..])];
        let behind = persist.append_entries(listed.into_iter());
        for refused in [alone, behind] {
            let kind = refused.map_err(|e| e.kind());
            assert_eq!(kind, Err(io::ErrorKind::InvalidInput), "{what}");
        }
        assert_eq!((persist.seq(), persist.wal_len()), (seq, wal_len), "{what}");
        assert_eq!(file(), bytes, "{what}");
    }
    persist.append(&[("b".to_string(), honest)]).unwrap();
    drop(persist);
    let (persist, booted, report) = Persist::open(&config, site).unwrap();
    assert_eq!((persist.seq(), report.wal_records_applied), (2, 2));
    assert_eq!(booted, store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot whose checksum holds and whose image lists a key twice —
/// no checkpoint writes one: a store's image lists its keys strictly
/// ascending — refuses recovery as a corrupt image; its honest twin
/// boots.
#[test]
fn a_checksummed_snapshot_listing_a_key_twice_refuses_recovery() {
    let site = SiteId::new(2);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("b", "2");
    // Each key after the first shares no prefix with the one before
    // it, or all of it, and holds the vector before it, left out.
    let image = |keys: &[&str]| {
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, u64::from(site.index()));
        wire::put_varint(&mut image, keys.len() as u64);
        let mut before = None;
        for key in keys {
            let state = store.encode_entry(key).unwrap();
            let (vector, value) = split_state(&state);
            let listed = match before {
                None => (0, key.as_bytes(), Some(vector), value),
                Some(before) => {
                    let shared = if *key == before { key.len() } else { 0 };
                    (shared as u64, &key.as_bytes()[shared..], None, value)
                }
            };
            put_listed(&mut image, listed);
            before = Some(*key);
        }
        image.freeze()
    };
    assert_eq!(image(&["a", "b"]), store.encode_snapshot());
    let dir = tmpdir("repeated-key");
    let file = encode_snapshot_file(1, &image(&["a", "b", "b"]));
    let err = boot_refuses(&dir, site, &file, "a key listed twice");
    assert!(err.contains("snapshot image corrupt"), "{err}");
    std::fs::write(
        dir.join(SNAPSHOT_FILE),
        encode_snapshot_file(1, &image(&["a", "b"])),
    )
    .unwrap();
    let (_, booted, _) = Persist::open(&DurabilityConfig::new(&dir), site).unwrap();
    assert_eq!(booted, store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint in a layout before this one — snapshot file version 1,
/// each key whole; version 2, each key front-coded and each vector
/// written out; version 3, a vector that repeats the one before as an
/// empty field, and each entry's lengths and tag a field of its own; or
/// version 4, this build's image summed a byte a step — is refused by its
/// version, naming both, whatever its image holds: the header is read
/// before any of the image. So is a log of version 1, whose records
/// listed each key whole and each state behind a length of its own, one
/// of version 2, whose records were version-3 images, and one of version
/// 3, whose records were this build's images summed a byte a step: a log
/// is at version 4, its records images of two heads an entry summed a
/// word a step. Each file carries the checksum its version wrote, which
/// holds, so none can be read as corrupt or torn.
#[test]
fn an_earlier_snapshot_or_log_version_is_refused_by_name_undecoded() {
    let site = SiteId::new(2);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("ab", "2");
    let (a, ab) = (
        store.encode_entry("a").unwrap(),
        store.encode_entry("ab").unwrap(),
    );
    // Both keys' vectors are the same: a version-3 image repeats the
    // first's with an empty field, this build's leaves it out.
    assert_eq!(split_state(&a).0, split_state(&ab).0);
    let image_as = |version: u8| {
        if version == 4 {
            return store.encode_snapshot();
        }
        let mut image = BytesMut::new();
        wire::put_varint(&mut image, u64::from(site.index()));
        wire::put_varint(&mut image, 2);
        wire::put_bytes(&mut image, b"a");
        image.put_slice(&a);
        match version {
            1 => wire::put_bytes(&mut image, b"ab"),
            _ => {
                wire::put_varint(&mut image, 1);
                wire::put_bytes(&mut image, b"b");
            }
        }
        match version {
            3 => {
                image.put_u8(0);
                image.put_slice(&ab[1 + usize::from(ab[0])..]);
            }
            _ => image.put_slice(&ab),
        }
        image.freeze()
    };
    let dir = tmpdir("earlier-versions");
    drop(Persist::open(&DurabilityConfig::new(&dir), site).unwrap());
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal[..WAL_MAGIC.len() + 1], *b"OPWL\x04");
    for version in [1, 2, 3, 4] {
        for image in [image_as(version), Bytes::from(vec![0xff; 9])] {
            let mut file = SNAPSHOT_MAGIC.to_vec();
            file.push(version);
            wire::put_varint(&mut file, 1);
            wire::put_bytes(&mut file, &image);
            wire::put_varint(&mut file, byte_wise(1, &image));
            let err = boot_refuses(&dir, site, &file, "an earlier snapshot");
            let named = format!("snapshot file format version {version} (this build speaks 5)");
            assert!(err.contains(&named), "{err}");
        }
    }
    // A version-1 log — each key whole and each state behind a length
    // of its own — a version-2 log — each record a version-3 image — and
    // a version-3 log — each record this build's image, summed a byte a
    // step — are refused by their version, their records undecoded.
    std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
    for version in [1, 2, 3] {
        let mut log = wal.clone();
        log[WAL_MAGIC.len()] = version;
        let payload = match version {
            3 => encode_payload(&[entry(&store, "a")]),
            _ => {
                let mut payload = BytesMut::new();
                wire::put_varint(&mut payload, 1);
                wire::put_bytes(&mut payload, b"a");
                match version {
                    1 => wire::put_bytes(&mut payload, &a),
                    _ => payload.put_slice(&a),
                }
                payload.freeze()
            }
        };
        wire::put_varint(&mut log, 1);
        wire::put_bytes(&mut log, &payload);
        wire::put_varint(&mut log, byte_wise(1, &payload));
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let err = Persist::open(&DurabilityConfig::new(&dir), site).unwrap_err();
        let named = format!("wal format version {version} (this build speaks 4)");
        assert!(err.to_string().contains(&named), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checksum every log and snapshot before log version 4 and
/// snapshot version 5 carried: FNV-1a a byte a step — the shard map's
/// hash — over the sequence number's 8 little-endian bytes, then the
/// bytes it covers.
fn byte_wise(seq: u64, bytes: &[u8]) -> u64 {
    placement(&[&seq.to_le_bytes()[..], bytes].concat())
}

/// Appends a record of sequence 1 holding `payload` under a checksum
/// that holds to a fresh log of `site` in `dir`, and boots: the error
/// recovery refused with, or a panic naming `what` if it recovered.
fn boot_with_record(dir: &Path, site: SiteId, payload: &[u8], what: &str) -> String {
    let _ = std::fs::remove_dir_all(dir);
    let config = DurabilityConfig::new(dir);
    drop(Persist::open(&config, site).unwrap());
    let mut wal = OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    wal.write_all(&encode_record(1, payload)).unwrap();
    drop(wal);
    match Persist::open(&config, site) {
        Ok(_) => panic!("{what}: recovered"),
        Err(err) => err.to_string(),
    }
}

/// A log record is an image: its first entry writes its vector, and an
/// entry after it whose state head says so holds the vector before. A
/// record whose first entry says so — alone, or ahead of an honest
/// entry — or writes an empty vector field refuses recovery as a corrupt
/// payload under a checksum that holds, not as a torn tail; its honest
/// twin boots.
#[test]
fn an_empty_vector_field_in_the_log_refuses_recovery() {
    let site = SiteId::new(5);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("b", "2");
    let (a, b) = (
        store.encode_entry("a").unwrap(),
        store.encode_entry("b").unwrap(),
    );
    let ((va, a), (vb, b)) = (split_state(&a), split_state(&b));
    assert_eq!(va, vb, "one vector");
    let dir = tmpdir("empty-vector-wal");
    for (what, payload) in [
        ("alone", payload_of(1, &[(0, b"a", None, a)])),
        (
            "ahead of an honest entry",
            payload_of(2, &[(0, b"a", None, a), (0, b"b", Some(vb), b)]),
        ),
        ("an empty field", payload_of(1, &[(0, b"a", Some(&[]), a)])),
        (
            "an empty field behind the first",
            payload_of(2, &[(0, b"a", Some(va), a), (0, b"b", Some(&[]), b)]),
        ),
    ] {
        let err = boot_with_record(&dir, site, &payload, what);
        assert!(
            err.contains("wal record 1 payload corrupt"),
            "{what}: {err}"
        );
    }
    // Behind the first, the vector before is left out.
    let honest = payload_of(2, &[(0, b"a", Some(va), a), (0, b"b", None, b)]);
    std::fs::remove_dir_all(&dir).unwrap();
    let config = DurabilityConfig::new(&dir);
    let (mut persist, _, _) = Persist::open(&config, site).unwrap();
    persist
        .append(&[entry(&store, "b"), entry(&store, "a")])
        .unwrap();
    drop(persist);
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(
        wal.ends_with(&encode_record(1, &honest)),
        "the writer's record"
    );
    let (_, booted, report) = Persist::open(&config, site).unwrap();
    assert_eq!((booted, report.torn_tail), (store, false));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log record's entries have one encoding, the writer's: keys strictly
/// ascending, each front-coded, a vector written out only where it is
/// not the vector before, each head as short as it goes, and nothing
/// past the last entry. A record that lists a key twice or a key below
/// the one before, writes out the vector before, writes a head overlong
/// or holds bytes past its count's entries refuses recovery as a corrupt
/// payload under a checksum that holds, not as a torn tail.
#[test]
fn a_checksummed_log_record_not_the_writers_refuses_recovery() {
    let site = SiteId::new(2);
    let mut store = KvStore::with_shards(site, 4);
    store.put("a", "1");
    store.put("b", "2");
    let (a, b) = (
        store.encode_entry("a").unwrap(),
        store.encode_entry("b").unwrap(),
    );
    let ((va, a), (vb, b)) = (split_state(&a), split_state(&b));
    let honest = payload_of(2, &[(0, b"a", Some(va), a), (0, b"b", None, b)]);
    let past = [&honest[..], &[0]].concat();
    // `b`'s entry closes the record: its key head `[1]`, its key, its
    // state head and its value. The key head as `[0x81, 0]`:
    let at = honest.len() - 4;
    assert_eq!(honest[at..at + 2], [1, b'b']);
    let overlong = [&honest[..at], &[0x81, 0], &honest[at + 1..]].concat();
    let dir = tmpdir("hostile-wal");
    for (what, payload) in [
        (
            "a key listed twice",
            payload_of(
                3,
                &[
                    (0, b"a", Some(va), a),
                    (0, b"b", None, b),
                    (1, b"", None, b),
                ],
            ),
        ),
        (
            "a key below the one before",
            payload_of(2, &[(0, b"b", Some(vb), b), (0, b"a", None, a)]),
        ),
        (
            "the vector before, written out",
            payload_of(2, &[(0, b"a", Some(va), a), (0, b"b", Some(vb), b)]),
        ),
        ("an overlong key head", overlong),
        ("a byte past the last entry", past),
    ] {
        let err = boot_with_record(&dir, site, &payload, what);
        assert!(
            err.contains("wal record 1 payload corrupt"),
            "{what}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    let config = DurabilityConfig::new(&dir);
    let (mut persist, _, _) = Persist::open(&config, site).unwrap();
    persist
        .append(&[entry(&store, "a"), entry(&store, "b")])
        .unwrap();
    drop(persist);
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(
        wal.ends_with(&encode_record(1, &honest)),
        "the writer's record"
    );
    let (_, booted, _) = Persist::open(&config, site).unwrap();
    assert_eq!(booted, store);
    std::fs::remove_dir_all(&dir).unwrap();
}
