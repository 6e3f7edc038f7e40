//! Every byte a store writes, pinned.
//!
//! A seeded schedule drives three stores through everything that changes
//! one — puts, deletes, tombstones written again, unplanned and planned
//! pulls, a joiner's bulk load, one store's log replayed over another —
//! and hashes what comes out: whole-store snapshots, every key's log
//! record, shard images, digests, live counts, and the byte counts of
//! every pull. The constants below are what the store wrote before a key
//! was kept as its encoded record; a change to how a store *holds* its
//! entries must leave all of them alone. A change that means to move one
//! (a new wire form) re-pins it here and says so.
//!
//! The schedule sets its shard counts itself, so `OPTREP_KV_SHARDS` does
//! not reach it.

use bytes::Bytes;
use optrep_core::rng::SplitMix64;
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};

const STEPS: usize = 3000;
const KEYS: usize = 64;
const STORES: usize = 3;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The key universe: mostly short, with the shapes that move a length
/// prefix — the empty key, 127 and 128 bytes, multi-byte UTF-8.
fn key(i: usize) -> String {
    match i {
        7 => String::new(),
        21 => format!("{i:02}-{}", "x".repeat(124)),
        22 => format!("{i:02}-{}", "y".repeat(125)),
        40..=43 => format!("ключ-{i:02}-鍵"),
        _ => format!("k{i:02}"),
    }
}

fn value(rng: &mut SplitMix64) -> Bytes {
    let len = [0, 1, 5, 32, 32, 127, 128, 300][(rng.next_u64() % 8) as usize];
    let fill = rng.next_u64();
    Bytes::from(
        (0..len)
            .map(|i| (fill >> (i % 8 * 8)) as u8 ^ i as u8)
            .collect::<Vec<u8>>(),
    )
}

/// What the run wrote, by kind: each line is folded into its kind's hash
/// and kept, so a mismatch can print where the transcripts part.
#[derive(Default)]
struct Transcript {
    lines: Vec<String>,
    hashes: [u64; 5],
}

const KINDS: [&str; 5] = ["snapshot", "entry", "image", "digest", "pull"];

impl Transcript {
    fn note(&mut self, kind: usize, line: String) {
        let line = format!("{} {line}", KINDS[kind]);
        self.hashes[kind] = fnv(&[&self.hashes[kind].to_le_bytes()[..], line.as_bytes()].concat());
        self.lines.push(line);
    }

    fn pull(&mut self, at: &str, report: &KvSyncReport) {
        self.note(4, format!("{at}: {report:?}"));
    }

    fn digests(&mut self, at: &str, stores: &[KvStore]) {
        for (i, store) in stores.iter().enumerate() {
            self.note(
                3,
                format!(
                    "{at} store {i}: digest {:016x} len {} tracked {}",
                    store.replica_digest(),
                    store.len(),
                    store.tracked_entries()
                ),
            );
        }
    }

    /// Everything a store can write about itself.
    fn dump(&mut self, at: &str, stores: &[KvStore]) {
        self.digests(at, stores);
        for (i, store) in stores.iter().enumerate() {
            let image = store.encode_snapshot();
            self.note(
                0,
                format!("{at} store {i}: {} B {:016x}", image.len(), fnv(&image)),
            );
            for k in 0..KEYS {
                let record = store.encode_entry(&key(k));
                let line = record.map_or("untracked".to_string(), |record| {
                    format!("{} B {:016x}", record.len(), fnv(&record))
                });
                self.note(1, format!("{at} store {i} key {k}: {line}"));
            }
            for shard in 0..16 {
                let image = store.encode_shard_snapshot(shard, 16);
                self.note(
                    2,
                    format!(
                        "{at} store {i} shard {shard}/16: {} B {:016x}",
                        image.len(),
                        fnv(&image)
                    ),
                );
            }
        }
    }
}

fn run(shards: usize) -> Transcript {
    let mut rng = SplitMix64::new(0x0060_1DE2_B17E_5000 + shards as u64);
    let mut stores: Vec<KvStore> = (0..STORES)
        .map(|i| KvStore::with_shards(SiteId::new(i as u32), shards))
        .collect();
    let mut out = Transcript::default();
    for step in 0..STEPS {
        let at = format!("step {step}");
        let who = (rng.next_u64() % STORES as u64) as usize;
        let other = (who + 1 + (rng.next_u64() % (STORES as u64 - 1)) as usize) % STORES;
        let k = (rng.next_u64() % KEYS as u64) as usize;
        match rng.next_u64() % 40 {
            0..=17 => stores[who].put(key(k), value(&mut rng)),
            18..=25 => stores[who].delete(key(k)),
            26..=28 => {
                // A tombstone written again: the first one at or after `k`.
                let store = &mut stores[who];
                let buried = (0..KEYS)
                    .map(|i| key((k + i) % KEYS))
                    .find(|key| store.encode_entry(key).is_some() && store.get(key).is_none());
                if let Some(key) = buried {
                    store.put(key, value(&mut rng));
                }
            }
            29..=31 => {
                let src = stores[other].clone();
                let report = stores[who].sync(&src).run().unwrap();
                out.pull(&format!("{at} unplanned {who}<-{other}"), &report);
            }
            32..=35 => {
                let src = stores[other].clone();
                let (report, contact) = stores[who].sync_planned(&src, &JoinResolver).unwrap();
                out.pull(&format!("{at} planned {who}<-{other}"), &report);
                out.note(
                    4,
                    format!(
                        "{at} contact: frames {} round trips {} payload {} B",
                        contact.frames, contact.round_trips, contact.payload_bytes
                    ),
                );
            }
            36 => {
                // A joiner bulk-loads whole shards from an empty start.
                let mut joiner = KvStore::with_shards(SiteId::new(STORES as u32), shards);
                let (report, _) = joiner.sync_planned(&stores[who], &JoinResolver).unwrap();
                out.pull(&format!("{at} joiner<-{who}"), &report);
                let image = joiner.encode_snapshot();
                out.note(
                    0,
                    format!("{at} joiner: {} B {:016x}", image.len(), fnv(&image)),
                );
                out.digests(&at, std::slice::from_ref(&joiner));
            }
            37 => {
                // One store's log, every post-state it holds, replayed
                // over another.
                let log: Vec<(String, Bytes)> = (0..KEYS)
                    .map(key)
                    .filter_map(|key| stores[other].encode_entry(&key).map(|rec| (key, rec)))
                    .collect();
                for (key, mut record) in log {
                    stores[who].apply_encoded_entry(key, &mut record).unwrap();
                }
                out.digests(&format!("{at} replayed {who}<-{other}"), &stores[who..=who]);
            }
            _ => out.digests(&at, &stores),
        }
        if step % 500 == 499 {
            out.dump(&at, &stores);
        }
    }
    for store in &stores {
        assert_eq!(store.replica_digest(), store.replica_digest_full());
    }
    out
}

/// `[snapshot, entry, image, digest, pull]` hashes per shard count,
/// recorded at bca34b2 (`Entry { meta: Srv, value: Option<Box<[u8]>> }`
/// in a `BTreeMap<Box<str>, Box<Entry>>`).
const GOLDEN: [(usize, [u64; 5]); 3] = [
    (
        1,
        [
            0x0ea1_d711_06fe_2867,
            0x651a_200d_bb25_4e43,
            0x3f7d_3ffd_87bd_a402,
            0x13c5_008a_c94f_7cbb,
            0x2eae_21ec_595e_0127,
        ],
    ),
    (
        16,
        [
            0xea00_a58d_0da1_c995,
            0xf09a_8e28_15eb_da0a,
            0xa444_ef6f_7a34_04e2,
            0x5227_22fd_33bf_e70c,
            0x81f9_c0ce_d5a0_1069,
        ],
    ),
    (
        512,
        [
            0xc049_f02c_a19c_5856,
            0x8409_f42c_d9d3_62e4,
            0x6d68_6b04_45af_bde8,
            0x8546_b578_3560_f7c7,
            0x187a_5034_c0a7_3fc8,
        ],
    ),
];

#[test]
fn every_byte_a_store_writes_is_what_it_was() {
    let runs: Vec<Transcript> = GOLDEN.iter().map(|&(shards, _)| run(shards)).collect();
    for ((shards, _), out) in GOLDEN.iter().zip(&runs) {
        eprintln!(
            "{shards:>3} shards: {} lines, hashes {:#018x?}",
            out.lines.len(),
            out.hashes
        );
    }
    for ((shards, golden), out) in GOLDEN.iter().zip(&runs) {
        if out.hashes != *golden {
            // Where this transcript parts from the pinned one is for a
            // diff against the same dump made at the pinned commit.
            out.lines.iter().for_each(|line| eprintln!("{line}"));
        }
        for (kind, (got, want)) in KINDS.iter().zip(out.hashes.iter().zip(golden)) {
            assert_eq!(got, want, "{kind} bytes at {shards} shards");
        }
    }
}
