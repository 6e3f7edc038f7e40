//! The heap a rotating vector and a stored key own, counted exactly.
//!
//! `crates/perf` gates `peak_rss_mb`, but RSS is the benchmark's: tier-1
//! needs a number that does not depend on the host. This binary installs
//! a counting global allocator (per thread, so the harness's own threads
//! do not blur it) and pins what `core::order` promises — one 24-byte
//! slot per element and nothing else up to eight elements, the hash
//! index only from the ninth — what a `KvStore` pays per key (the entry
//! as a record, in pages of up to sixteen records, whatever
//! the value), that a stored value keeps nothing else alive, that a snapshot
//! is written into one buffer of its size, what a store's change
//! journal costs: one allocation of the cap, whatever the store holds —
//! and what a pull costs while it runs: heap for the keys it moves, not
//! for the keys its source holds.
//! It is its own test binary so the allocator touches nothing else.

use bytes::{Bytes, BytesMut};
use optrep_core::sync::WireMsg;
use optrep_core::wire::Frame;
use optrep_core::{RotatingVector, SiteId, Srv};
use optrep_kv::{JoinResolver, KvStore, KvSyncReport};
use optrep_replication::mux::TURN_STREAM;
use optrep_replication::{
    pull_planned, ContactAsk, ContactReport, CtrlMsg, InProcessLink, MuxMsg, Serving, VectorMemory,
    CONTROL_STREAM, JOURNAL_CAP,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

mod support;
use support::unplanned_pull;

thread_local! {
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// `LIVE_BYTES` when [`peak_of`] last began, and the most it has
    /// stood above that since.
    static PEAK_BASE: Cell<usize> = const { Cell::new(0) };
    static PEAK_ABOVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // locals are gone; those calls are simply not counted. Wrapping:
        // a block may be freed on a thread that did not allocate it, and
        // only differences taken on one thread are ever read.
        let _ = LIVE_BYTES.try_with(|live| {
            live.set(live.get().wrapping_add(bytes));
            let _ = PEAK_BASE.try_with(|base| {
                let above = live.get().wrapping_sub(base.get()) as isize;
                let _ = PEAK_ABOVE.try_with(|peak| peak.set(peak.get().max(above)));
            });
        });
        let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get().wrapping_add(1)));
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get().wrapping_add(1)));
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(bytes)));
    }

    fn shrank(bytes: usize) {
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get().wrapping_sub(bytes)));
        let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get().wrapping_sub(1)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are `const`-initialised
// thread-locals without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrank(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::shrank(layout.size());
        Self::grew(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's heap at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Heap {
    bytes: usize,
    blocks: usize,
    allocations: usize,
}

fn heap() -> Heap {
    Heap {
        bytes: LIVE_BYTES.with(Cell::get),
        blocks: LIVE_BLOCKS.with(Cell::get),
        allocations: ALLOCATIONS.with(Cell::get),
    }
}

/// The value `build` made, still alive, and what making it added to the
/// heap: live bytes, live blocks, allocations performed on the way.
fn measure<T>(build: impl FnOnce() -> T) -> (T, Heap) {
    let before = heap();
    let built = build();
    let after = heap();
    let grown = Heap {
        bytes: after.bytes.wrapping_sub(before.bytes),
        blocks: after.blocks.wrapping_sub(before.blocks),
        allocations: after.allocations.wrapping_sub(before.allocations),
    };
    (built, grown)
}

/// What `run` returned, and the most this thread's live heap stood
/// above where it began while `run` ran.
fn peak_of<T>(run: impl FnOnce() -> T) -> (T, usize) {
    PEAK_BASE.with(|base| base.set(LIVE_BYTES.with(Cell::get)));
    PEAK_ABOVE.with(|peak| peak.set(0));
    let ran = run();
    (ran, PEAK_ABOVE.with(Cell::get) as usize)
}

fn srv_of(sites: u32) -> Srv {
    let mut v = Srv::new();
    for i in 0..sites {
        v.record_update(SiteId::new(i));
    }
    v
}

const SLOT: usize = 24;

#[test]
fn a_small_vector_owns_its_slots_and_nothing_else() {
    assert!(std::mem::size_of::<Srv>() <= 40);
    let (_empty, grown) = measure(Srv::new);
    assert_eq!(grown.blocks, 0, "an empty vector owns no heap");

    // The slab doubles exactly from one slot: 1, 2, 4, 8.
    for (sites, slots) in [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8)] {
        let (v, grown) = measure(|| srv_of(sites));
        assert_eq!(
            (grown.bytes, grown.blocks),
            (slots * SLOT, 1),
            "{sites} sites: one slab of {slots} slots"
        );
        let (_copy, grown) = measure(|| v.clone());
        let exact = Heap {
            bytes: sites as usize * SLOT,
            blocks: 1,
            allocations: 1,
        };
        assert_eq!(grown, exact, "{sites} sites: a clone is one allocation");
    }

    // The ninth element brings the index: its box and its table.
    let (_nine, grown) = measure(|| srv_of(9));
    assert_eq!(grown.blocks, 3, "slab, index header, index table");
    assert!(grown.bytes > 16 * SLOT + 48, "{} B", grown.bytes);
}

#[test]
fn decoding_builds_the_slab_in_place() {
    for sites in [1u32, 3, 8] {
        let mut image = srv_of(sites).encode_snapshot();
        let (decoded, grown) = measure(|| Srv::decode_snapshot(&mut image).unwrap());
        assert_eq!(decoded, srv_of(sites));
        let exact = Heap {
            bytes: sites as usize * SLOT,
            blocks: 1,
            allocations: 1,
        };
        assert_eq!(
            grown, exact,
            "{sites} sites: one allocation, exact capacity"
        );
    }
    // A count the payload cannot hold is refused before any allocation.
    let mut hostile = Bytes::from_static(&[0xff, 0xff, 0xff, 0x7f, 1, 4]);
    let (result, grown) = measure(|| Srv::decode_snapshot(&mut hostile));
    assert!(result.is_err());
    assert_eq!(grown.allocations, 0);
}

const KEYS: usize = 10_000;

/// A store of `KEYS` one-site keys, 8 bytes each, written in key order:
/// values of `value_len` bytes, or tombstones for `None`.
fn written(mut store: KvStore, value_len: Option<usize>) -> KvStore {
    for i in 0..KEYS {
        let key = format!("k{i:07}");
        match value_len {
            Some(len) => store.put(key, Bytes::from(vec![b'v'; len])),
            None => store.delete(key),
        }
    }
    store
}

/// The most records a page of a shard holds (`kv::shard`'s cap).
const PAGE_RECORDS: usize = 16;

/// Live heap per key of a store of one-site keys: 8-byte keys, 32-byte
/// values — `sparse_pull`'s shape. Requested bytes, so below what RSS
/// shows (malloc's own headers and rounding are not in it), and the same
/// under the published `bytes` and the stand-in: a page is a boxed
/// slice, not a handle of either. The record — behind a key head the
/// rest of its key past the prefix it shares with the key before it in
/// its page, behind a state head the value, and the vector only where it
/// is not the vector before, once a page here — is ≈ 35 B at one shard
/// and ≈ 39 B at 512, whose pages hold keys farther apart; written whole
/// behind its length prefixes it was 47 B. It lies in a page of sixteen
/// (one block and one 24-byte list slot for sixteen keys), beside the
/// journal's 6.5 B, and a shard's part-filled last page and its list,
/// ≈ 3 B a key at 512 shards of twenty keys each. So at most 48 B, where
/// a whole record in a page read 55 and a block and a set slot a record
/// 87 (94 at 512 shards). What a key costs beyond its value does not
/// depend on the value but for the value's own length in the state head:
/// a 256-byte one pays a second byte of it, a tombstone none.
#[test]
fn a_one_site_key_is_its_record_in_a_page_of_sixteen_and_at_most_48_bytes() {
    eprintln!("shards  value  bytes/key  overhead/key  blocks/key");
    for shards in [1, 16, 256, 512] {
        let mut overheads = Vec::new();
        for value_len in [Some(32), Some(256), None] {
            let empty = KvStore::with_shards(SiteId::new(1), shards);
            let (store, grown) = measure(|| written(empty, value_len));
            assert_eq!(store.tracked_entries(), KEYS);
            assert_eq!(store.len(), value_len.map_or(0, |_| KEYS));
            let overhead = grown.bytes - KEYS * value_len.unwrap_or(0);
            let blocks = grown.blocks as f64 / KEYS as f64;
            eprintln!(
                "{shards:>6}  {:>5}  {:>9}  {:>12}  {blocks:>10.2}",
                value_len.map_or("none".into(), |len| len.to_string()),
                grown.bytes / KEYS,
                overhead / KEYS,
            );
            if value_len == Some(32) {
                assert!(
                    grown.bytes <= 48 * KEYS,
                    "{} live heap bytes per key at {shards} shards",
                    grown.bytes / KEYS
                );
                // A page a sixteen keys and a quarter over for the set's
                // nodes, and a part-filled page and a node a shard.
                let most = KEYS / PAGE_RECORDS * 5 / 4 + 2 * shards;
                assert!(
                    grown.blocks <= most,
                    "{blocks} live blocks per key at {shards} shards"
                );
            }
            overheads.push(overhead);
        }
        assert!(
            (overheads.iter()).all(|&overhead| overhead.abs_diff(overheads[0]) <= 2 * KEYS),
            "overhead depends on the value at {shards} shards: {overheads:?}"
        );
    }
}

/// A checkpoint is the records, each behind a key head and a state head,
/// each vector written only where it is not the vector before and the
/// value copied: the image is summed before it is written, so it is
/// written into one buffer of its size — not grown there through a
/// buffer twice as large — by a merge of the shards' sorted sets, which
/// holds a cursor a shard and no list of the records.
#[test]
fn a_snapshot_is_one_buffer_of_its_size_and_a_merge() {
    let store = written(KvStore::with_shards(SiteId::new(1), 16), Some(32));
    LARGEST.with(|largest| largest.set(0));
    let (image, grown) = measure(|| store.encode_snapshot());
    let largest = LARGEST.with(Cell::get);
    // A record: its key head, one byte (a shared prefix below 16 bytes
    // and the rest's length below 7, or 7 and the rest's length less 7
    // behind it — only the first key's rest, 8 B, needs that); the rest
    // of the key; its state head, one byte (a 32 B value: 33 << 1 and
    // whether the vector repeats); on the first record the vector's field,
    // its length and one site (count, site, value) 4 B, and on every
    // other nothing, the same vector again; and the 32 B value.
    let value = 1 + 32;
    let mut before: Option<String> = None;
    let records: usize = (0..KEYS)
        .map(|i| {
            let key = format!("k{i:07}");
            let (rest, vector) = match &before {
                Some(before) => {
                    let shared = key.bytes().zip(before.bytes()).take_while(|(a, b)| a == b);
                    (key.len() - shared.count(), 0)
                }
                None => (key.len(), 1 + 3),
            };
            before = Some(key);
            let escape = usize::from(rest >= 7);
            1 + escape + rest + vector + value
        })
        .sum();
    assert_eq!(image.len(), 1 + 2 + records, "site, count, records");
    // The buffer, what `freeze` may add to share it, and the heap of each
    // of the image's two merges: one sums its length, one writes it.
    assert!(grown.allocations <= 4, "{} allocations", grown.allocations);
    assert!(
        largest <= image.len(),
        "an allocation of {largest} B for an image of {} B",
        image.len()
    );
    // A shard's image likewise.
    LARGEST.with(|largest| largest.set(0));
    let shard = store.encode_shard_snapshot(&[3], 16);
    let largest = LARGEST.with(Cell::get);
    assert!(shard.len() > 47 * KEYS / 32, "{} B", shard.len());
    assert!(
        largest <= shard.len(),
        "an allocation of {largest} B for an image of {} B",
        shard.len()
    );
}

/// A stored value is the store's own copy. However a store came by its
/// entries — a checkpoint image, one large log record, a pull, a join —
/// it holds, once the image, the record and the link are gone, no more
/// than the same entries cost when `put` and 16 B a key (the journal a
/// decoded store has not allocated yet is 6.5 of them); a booted store
/// and a joined one fill their pages as the records arrive in key order,
/// as `put`s in key order do, and a booted one holds no more than a
/// joined one and 2 B a key (it has no journal; the join's commit
/// journals every key). And so it stays
/// when every key but one is then deleted. While a value was a `Bytes` cut
/// from the buffer it was decoded from, both rows failed by the size of
/// that buffer: a decoded store held the image or the record whole in
/// place of its values, and went on holding all of it for as long as one
/// value read from it was not overwritten (per key, put / snapshot / log
/// / pull: 302 / 276 / 293 / 346 B as built, 230 / 283 / 293 / 230 B
/// with one value left).
#[test]
fn a_value_does_not_pin_what_it_was_decoded_from() {
    let site = SiteId::new(1);
    // At the environment's shard count, as `decode_snapshot` builds.
    let by_put = || written(KvStore::new(site), Some(32));
    let source = by_put();
    let by_snapshot = || {
        let mut image = source.encode_snapshot();
        KvStore::decode_snapshot(&mut image).unwrap()
    };
    // Every post-state in one buffer, applied slice by slice: a
    // contact's log record.
    let by_log = || {
        let keys: Vec<String> = source.keys().collect();
        let mut record = Vec::new();
        let mut ends = Vec::new();
        for key in &keys {
            record.extend_from_slice(&source.encode_entry(key).unwrap());
            ends.push(record.len());
        }
        let record = Bytes::from(record);
        let mut store = KvStore::new(site);
        let mut start = 0;
        for (key, end) in keys.into_iter().zip(ends) {
            let mut entry = record.slice(start..end);
            store.apply_encoded_entry(key, &mut entry).unwrap();
            start = end;
        }
        store
    };
    // (A puller on the source's own site, so that its deletes below
    // count on the element the writes did, as every other store's do.)
    let by_pull = || {
        let mut store = KvStore::new(site);
        unplanned_pull(&mut store, &source);
        store
    };
    // A planned pull into an empty store: every shard a snapshot, each
    // moved in whole.
    let by_join = || {
        let mut store = KvStore::new(site);
        let report = store.sync(&source).run().unwrap();
        assert_eq!(report.shards_snapshot, store.shard_count());
        store
    };
    let builders: [(&str, &dyn Fn() -> KvStore); 5] = [
        ("put", &by_put),
        ("snapshot", &by_snapshot),
        ("log", &by_log),
        ("pull", &by_pull),
        ("join", &by_join),
    ];
    eprintln!("built by  kept  bytes/key");
    for keep_one in [false, true] {
        let mut baseline = None;
        let mut held = Vec::new();
        for (how, build) in builders {
            let (store, grown) = measure(|| {
                let mut store = build();
                if keep_one {
                    for i in 1..KEYS {
                        store.delete(format!("k{i:07}"));
                    }
                }
                store
            });
            let kept = store.len();
            eprintln!(
                "{how:>8}  {kept:>4}  {:>9.1}",
                grown.bytes as f64 / KEYS as f64
            );
            assert_eq!(kept, if keep_one { 1 } else { KEYS });
            let put = *baseline.get_or_insert(grown.bytes);
            assert!(
                grown.bytes <= put + 16 * KEYS,
                "built by {how}, {kept} values kept: {} B a key, by put {}",
                grown.bytes / KEYS,
                put / KEYS
            );
            held.push(grown.bytes);
        }
        let (booted, joined) = (held[1], held[4]);
        assert!(
            booted <= joined + 2 * KEYS,
            "{} values kept: booted {} B a key, joined {}",
            if keep_one { 1 } else { KEYS },
            booted / KEYS,
            joined / KEYS
        );
    }
}

/// The change journal is O(cap), not O(keys): 16 bytes an entry, the
/// whole cap in one allocation made by the first change, and nothing
/// after — not while it fills, not once it evicts.
#[test]
fn the_journal_is_one_allocation_of_the_cap() {
    const JOURNAL: usize = 16 * JOURNAL_CAP;
    let value = || Bytes::from(vec![b'v'; 32]);
    // At the environment's shard count, as the reloaded twin below is.
    let mut store = KvStore::new(SiteId::new(1));
    let ((), first) = measure(|| store.put("k00", value()));
    assert!(
        (JOURNAL..JOURNAL + 2048).contains(&first.bytes),
        "the first change allocates the journal beside its entry: {} B",
        first.bytes
    );
    // (Forty writes a key: a record holds its counter as a varint, and
    // this one stays two bytes from the 32nd write to the 4096th.)
    for i in 1..64 * 40 {
        store.put(format!("k{:02}", i % 64), value());
    }
    // Rewriting keys the store already holds swaps pages of one size:
    // whatever the heap gained would be the journal's.
    let ((), rewrites) = measure(|| {
        for i in 0..3 * JOURNAL_CAP {
            store.put(format!("k{:02}", i % 64), value());
        }
    });
    assert_eq!(
        (rewrites.bytes, rewrites.blocks),
        (0, 0),
        "filling, full, evicting"
    );
    assert_eq!(store.journal_floor_lag(), JOURNAL_CAP as u64);

    // Exactly the cap: a store reloaded from its snapshot holds the same
    // entries and an empty journal. Its shards are built whole, not key
    // by key as `store`'s were, so its twin with a journal is itself with
    // every key rewritten — which swaps pages of one size and moves no
    // node — and the two clones differ by the journal and by what the
    // rewrites changed in the pages. Seven keys are rewritten once more
    // than the rest, so each holds a vector one count ahead of its
    // neighbours': a page writes a vector only where it is not the one
    // before, so the pages around those keys change size. What the pages
    // moved is read off the same records without a journal, reloaded
    // from the journalled store's own snapshot.
    let reloaded = KvStore::decode_snapshot(&mut store.encode_snapshot()).unwrap();
    assert_eq!(reloaded.journal_floor_lag(), 0);
    let mut journalled = reloaded.clone();
    for i in 0..JOURNAL_CAP + 7 {
        journalled.put(format!("k{:02}", i % 64), value());
    }
    assert_eq!(journalled.journal_floor_lag(), JOURNAL_CAP as u64);
    let rewritten = KvStore::decode_snapshot(&mut journalled.encode_snapshot()).unwrap();
    assert_eq!(rewritten.journal_floor_lag(), 0);
    let (mut copy, with) = measure(|| journalled.clone());
    let (_without, without) = measure(|| reloaded.clone());
    let (_pages, pages) = measure(|| rewritten.clone());
    // Before the rewrites every record in a page but its first repeated
    // the vector before it. A key one count ahead writes its own, and the
    // key after it writes its own too: at most two vectors, each behind
    // its length byte, for each of the seven; none where every page holds
    // one key.
    let vector = 1 + journalled.meta("k00").unwrap().encode_snapshot().len();
    let moved = pages.bytes - without.bytes;
    eprintln!("pages moved by the rewrites: {moved} B, {vector} B a vector");
    assert!(moved <= 7 * 2 * vector, "{moved} B");
    assert_eq!(pages.blocks, without.blocks, "pages of one count");
    assert_eq!(with.bytes - pages.bytes, JOURNAL, "16 B an entry");
    assert_eq!(with.blocks - without.blocks, 1);
    // And a clone goes on at the cap, as its original does.
    let ((), grown) = measure(|| {
        for i in 0..JOURNAL_CAP + 7 {
            copy.put(format!("k{:02}", i % 64), value());
        }
    });
    assert_eq!((grown.bytes, grown.blocks), (0, 0));
}

/// A pull costs heap for what it moves. The source of a warm pull —
/// one over a connection it has planned before, so the plan proposes —
/// builds the push with the plan, over the keys it changed: 3 072
/// changed keys of 256 B out of 20 000 or out of 40 000 peak alike, at
/// ≈ 1.6 KiB a changed key — both ends on this thread, the frames
/// between them and the commit together. (Built at plan time over every key of every dirty shard,
/// the endpoint alone was ≈ 480 B for each key *of the store*: 3.7 KiB
/// a changed key here, 7.4 KiB over the larger source.) And between
/// handing out its plan and hearing the scope, the
/// connection's `Serving` holds shard indices and digests — kilobytes —
/// where it held that endpoint: a puller that takes the plan and goes
/// quiet pins nothing that grows with the store. (The push waits, as
/// bytes, only for the turn marker that follows the digest vector in
/// the same burst, and leaves with the plan.)
/// Sets its own shard count, like the store tests above.
#[test]
fn a_pull_costs_heap_for_the_keys_it_moves_not_the_keys_its_source_holds() {
    const CHANGED: usize = 3072;
    const SHARDS: usize = 512;
    let value = |fill: u8| Bytes::from(vec![fill; 256]);
    let frame = |stream: u64, payload: &[u8]| Frame {
        stream,
        payload: Bytes::copy_from_slice(payload),
    };
    let mut peaks = Vec::new();
    eprintln!("source keys  pull peak B  B/changed key  planned serving B");
    for keys in [20_000usize, 40_000] {
        let mut src = KvStore::with_shards(SiteId::new(1), SHARDS);
        for i in 0..keys {
            src.put(format!("k{i:07}"), value(b'v'));
        }
        let mut dst = KvStore::with_shards(SiteId::new(2), SHARDS);
        dst.sync(&src).run().unwrap();
        let src = RefCell::new(src);
        let move_on = |fill: u8| {
            for i in 0..CHANGED {
                let key = format!("k{:07}", i * keys / CHANGED);
                src.borrow_mut().put(key, value(fill));
            }
        };

        // The pull, end to end on this thread.
        let mut far = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
        let mut serving = Serving::default();
        let mut link = InProcessLink::serving(&mut serving, &mut far);
        let mut remembered = VectorMemory::default();
        let mut pull = |dst: &mut KvStore| -> (ContactReport, usize) {
            let digests = dst.shard_digest_vector();
            let (client, plan, contact) =
                pull_planned(&mut link, &mut remembered, &digests, |plan, pushed| {
                    dst.client_endpoint_refined(plan, pushed, dst.generation())
                })
                .unwrap();
            let (_, changed) = dst
                .apply_planned_tracked(&JoinResolver, client, &contact, &plan)
                .unwrap();
            (contact, changed.len())
        };
        let (cold, _) = pull(&mut dst);
        assert_eq!(cold.shards_skipped, SHARDS as u64, "converged");
        move_on(b'w');
        let ((warm, moved), peak) = peak_of(|| pull(&mut dst));
        assert_eq!(moved, CHANGED);
        assert!(
            warm.shards_proposed >= 500,
            "{} proposed",
            warm.shards_proposed
        );
        assert_eq!(warm.shards_refined, 0);
        assert_eq!(dst.replica_digest(), src.borrow().replica_digest());

        // The planning turn alone, on a connection as warm: a first
        // contact that opens nothing, the source moves on, a second
        // digest vector, the turn marker that releases the plan.
        move_on(b'x');
        let mut serving = Serving::default();
        let mut feed = |frames: &[Frame]| {
            let mut far = |ask: ContactAsk<'_>| src.borrow().open_contact(ask);
            let mut out = BytesMut::new();
            for frame in frames {
                serving.on_frame(frame.clone(), &mut far, &mut out).unwrap();
            }
            out.len()
        };
        let opening = frame(CONTROL_STREAM, &dst.shard_digest_vector().encode());
        let turn = frame(TURN_STREAM, &[]);
        let nothing = MuxMsg::Ctrl(CtrlMsg::BatchHello {
            discover: false,
            opens: Vec::new(),
        });
        let first = [
            opening.clone(),
            turn.clone(),
            frame(CONTROL_STREAM, &nothing.to_bytes()),
            frame(TURN_STREAM, &[1]),
        ];
        let (_, remembers) = measure(|| feed(&first));
        // The second vector is a puller's that took what was planned.
        let pulled = frame(CONTROL_STREAM, &src.borrow().shard_digest_vector().encode());
        move_on(b'y');
        let (plan_bytes, planned) = measure(|| feed(&[pulled, turn.clone()]));
        assert!(
            plan_bytes > CHANGED * 2,
            "a plan and a push of every changed key"
        );
        let owned = remembers.bytes.wrapping_add(planned.bytes);
        eprintln!(
            "{keys:>11}  {peak:>11}  {:>13}  {owned:>17}",
            peak / CHANGED
        );
        assert!(
            peak <= 2560 * CHANGED,
            "{} B of heap a changed key over {keys} keys",
            peak / CHANGED
        );
        assert!(
            owned < 64 * 1024,
            "a planned, unanswered contact holds {owned} B over {keys} keys"
        );
        peaks.push(peak);
    }
    assert!(
        peaks[1].abs_diff(peaks[0]) * 10 <= peaks[0],
        "the pull's peak follows the store: {peaks:?}"
    );
}
