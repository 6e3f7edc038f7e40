//! Every byte a store writes, pinned.
//!
//! A seeded schedule drives three stores through everything that changes
//! one — puts, deletes, tombstones written again, unplanned and planned
//! pulls, a joiner's bulk load, one store's log replayed over another —
//! and hashes what comes out: whole-store snapshots, every key's log
//! record, shard images, digests, live counts, and the byte counts of
//! every pull. The hash is the shard map's FNV-1a (`placement`), a byte
//! a step, as when the constants were first pinned. The constants below are what the store wrote before a key
//! was kept as its encoded record; a change to how a store *holds* its
//! entries must leave all of them alone. A change that means to move one
//! (a new wire form) re-pins it here and says so.
//!
//! The schedule sets its shard counts itself, so `OPTREP_KV_SHARDS` does
//! not reach it.

use bytes::Bytes;
use optrep_core::obs::{self, CounterSink, Sink, SyncEvent};
use optrep_core::rng::SplitMix64;
use optrep_core::SiteId;
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::planner::placement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod support;
use support::unplanned_pull;

const STEPS: usize = 3000;
const KEYS: usize = 64;
const STORES: usize = 3;

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
        self.hashes[kind] =
            placement(&[&self.hashes[kind].to_le_bytes()[..], line.as_bytes()].concat());
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
                format!(
                    "{at} store {i}: {} B {:016x}",
                    image.len(),
                    placement(&image)
                ),
            );
            for k in 0..KEYS {
                let record = store.encode_entry(&key(k));
                let line = record.map_or("untracked".to_string(), |record| {
                    format!("{} B {:016x}", record.len(), placement(&record))
                });
                self.note(1, format!("{at} store {i} key {k}: {line}"));
            }
            for shard in 0..16 {
                let image = store.encode_shard_snapshot(&[shard], 16);
                self.note(
                    2,
                    format!(
                        "{at} store {i} shard {shard}/16: {} B {:016x}",
                        image.len(),
                        placement(&image)
                    ),
                );
            }
        }
    }
}

/// A planned pull's object exchange as `KvStore::sync` runs it: its
/// frames (one `FrameTx` each), round trips and payload bytes (the
/// `ContactEnd` a `CounterSink` folds).
#[derive(Default)]
struct Exchange {
    frames: AtomicU64,
    counters: CounterSink,
}

impl Sink for Exchange {
    fn record(&self, event: &SyncEvent) {
        if matches!(event, SyncEvent::FrameTx { .. }) {
            self.frames.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.record(event);
    }
}

/// `dst`'s pull of `src`, and what its exchange cost.
fn planned_pull(dst: &mut KvStore, src: &KvStore) -> (KvSyncReport, String) {
    let exchange = Arc::new(Exchange::default());
    let report = obs::with(exchange.clone(), || dst.sync(src).run()).unwrap();
    let counted = exchange.counters.snapshot();
    let cost = format!(
        "frames {} round trips {} payload {} B",
        exchange.frames.load(Ordering::Relaxed),
        counted.round_trips,
        counted.payload_bytes
    );
    (report, cost)
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
                let report = unplanned_pull(&mut stores[who], &src);
                out.pull(&format!("{at} unplanned {who}<-{other}"), &report);
            }
            32..=35 => {
                let src = stores[other].clone();
                let (report, cost) = planned_pull(&mut stores[who], &src);
                out.pull(&format!("{at} planned {who}<-{other}"), &report);
                out.note(4, format!("{at} contact: {cost}"));
            }
            36 => {
                // A joiner bulk-loads whole shards from an empty start.
                let mut joiner = KvStore::with_shards(SiteId::new(STORES as u32), shards);
                let report = joiner.sync(&stores[who]).run().unwrap();
                out.pull(&format!("{at} joiner<-{who}"), &report);
                let image = joiner.encode_snapshot();
                out.note(
                    0,
                    format!("{at} joiner: {} B {:016x}", image.len(), placement(&image)),
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
/// in a `BTreeMap<Box<str>, Box<Entry>>`). The pull hashes were
/// re-pinned once, when a pull's report traded its count of refused
/// proposals (always 0 here) for its framing bytes: the transcripts
/// are line for line what they were, but for that last field of every
/// report (pull: `0x2eae_21ec_595e_0127`, `0x81f9_c0ce_d5a0_1069`,
/// `0x187a_5034_c0a7_3fc8` before), and once more when a planned pull
/// began to count its planning turn as a round trip: one more in every
/// planned pull's line, nothing else (`0xb388_429a_7606_5cf6`,
/// `0x6028_661f_c220_0af2`, `0x0eb8_06fe_1f45_72df` before); and once
/// more when a proposed shard's keys began to be pushed with the plan
/// and a plan that walks no shard to go without a hello: the bytes and
/// round trips of every pull that proposes or walks nothing move
/// (`0x76ab_0072_53af_4ef6`, `0x33ce_97b8_8d16_f505`,
/// `0x1409_bf43_0d22_0e30` before); and once more, at 512 shards alone,
/// when a plan began to write its shard lists as gaps: 349 of the 925
/// pull lines move, in `digest_bytes` only (`0xa26d_eb4f_3911_793b`
/// before; at 1 and 16 shards every index is a byte either way, and no
/// pull here proposes, so none pushes). The snapshot, image and pull
/// hashes were re-pinned once more when an image began to write each key
/// after the first as the length of the prefix it shares with the key
/// before it and the rest: every snapshot and every image of two keys or
/// more moves, and of the pull lines only those of the 163 pulls at 1
/// and 16 shards that bulk-load shards, in `digest_bytes` only — the
/// plan carries the images. An image of one key is what it was, so at
/// 512 shards, where each holds about one of the 64 keys, the pulls do
/// not move. Before: snapshot `0x0ea1_d711_06fe_2867`,
/// `0xea00_a58d_0da1_c995`, `0xc049_f02c_a19c_5856`; image
/// `0x3f7d_3ffd_87bd_a402`, `0xa444_ef6f_7a34_04e2`,
/// `0x6d68_6b04_45af_bde8` (at 1, 16 and 512 shards); pull
/// `0x5b24_f5f0_88c0_4d80`, `0x840e_17d1_2bca_d3af` (at 1 and 16). The
/// snapshot hashes were re-pinned once more, and the image and pull
/// hashes where they moved, when an image began to write a record's
/// vector as an empty field where it is the vector of the record before:
/// only images with two neighbours of one vector move — 31 of the
/// snapshot lines (18, 7 and 6 at 1, 16 and 512 shards: joiners early in
/// the schedule, when most keys hold one write, and some dumps), 2 image
/// lines at 16 shards, and, in `digest_bytes` only, the 26 pulls at 1
/// and 16 shards that bulk-load such an image. At 512 shards every image
/// a pull bulk-loads holds about one key, and no image or pull line
/// moves. Before: snapshot `0xb874_8360_9f5f_07a7`,
/// `0x23d9_deb5_907b_398f`, `0x749f_6e0e_7f72_d2c1`; image
/// `0xa91c_d860_7f8f_d149` (at 16); pull `0x27e5_ce34_610c_545a`,
/// `0x957e_9f0a_c712_fec3` (at 1 and 16). The digest and pull hashes
/// were re-pinned once more when each entry hash began to be finalized
/// before it is summed, an empty shard's summary to be written as its
/// zero count alone, and a plan's bulk-loaded shards to cross as one
/// image in key order: every digest value moves, and of the pull lines
/// those of 86, 84 and 387 pulls at 1, 16 and 512 shards, in
/// `digest_bytes` only — a vector or child list with an empty shard, or
/// a plan that bulk-loads two shards or more. Every snapshot, entry and
/// image line is what it was, and so is every line once digest values
/// and `digest_bytes` are masked, joiners booted from their snapshots
/// at 1 and 512 shards included. Before: digest `0x13c5_008a_c94f_7cbb`,
/// `0x5227_22fd_33bf_e70c`, `0x8546_b578_3560_f7c7`; pull
/// `0x40b8_ae39_c5b5_a820`, `0xd9f7_8478_dbef_880f`,
/// `0x536b_7699_96ac_a6f1`. The snapshot, image and pull hashes were
/// re-pinned once more when an image entry's five structure fields — the
/// shared length, the rest's length, the vector's field where it
/// repeats, the tag and the value's length — folded into a key head and
/// a state head: every snapshot and image line moves (104, 94 and 81
/// snapshot lines and 288 image lines at each of 1, 16 and 512 shards),
/// and of the pull lines those of the 86, 79 and 82 pulls that bulk-load
/// a shard, in `digest_bytes` only — the plan carries the image. Every
/// entry and digest line is what it was. Before: snapshot
/// `0x5d59_f5b8_ebc4_1994`, `0x280b_37ac_092e_0490`,
/// `0xcf12_e23e_082e_c5dd`; image `0xf0c6_5c3f_cebe_2e74`,
/// `0xefa5_659a_d5cc_8922`, `0x3599_3606_e5ab_7c5e`; pull
/// `0x27ad_8829_d1af_4009`, `0x68ed_ba91_f344_5bc7`,
/// `0x5b60_e8fc_7b3f_d879`. The digest hashes were re-pinned once more
/// when each entry hash began to fold a word a step in place of FNV-1a's
/// byte a step: every digest line moves (606 at 1 shard), and every line
/// is what it was once digest values are masked; the snapshot, entry,
/// image and pull hashes hold at every shard count. Before: digest
/// `0xdf6a_bfcc_12cd_354a`, `0xbb2c_f8e6_72e1_ce7c`,
/// `0xdb7a_4558_1dec_a915`.
const GOLDEN: [(usize, [u64; 5]); 3] = [
    (
        1,
        [
            0x969a_b8b3_ec90_8452,
            0x651a_200d_bb25_4e43,
            0x89fc_1f37_98a9_55c7,
            0xb93a_3a4e_e817_83db,
            0x801e_b389_4c5b_dd78,
        ],
    ),
    (
        16,
        [
            0x58ce_9aa1_309e_093b,
            0xf09a_8e28_15eb_da0a,
            0xef47_fe0f_72ed_079c,
            0xab74_6de8_9042_8880,
            0xd004_1606_923b_abc7,
        ],
    ),
    (
        512,
        [
            0x7b88_fbe7_20f1_8402,
            0x8409_f42c_d9d3_62e4,
            0xd757_89b5_83c8_0c46,
            0xaf97_8dda_0053_f08a,
            0x5a21_aa41_c983_1492,
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
