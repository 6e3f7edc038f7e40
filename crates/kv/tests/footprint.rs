//! The heap a rotating vector and a stored key own, counted exactly.
//!
//! `crates/perf` gates `peak_rss_mb`, but RSS is the benchmark's: tier-1
//! needs a number that does not depend on the host. This binary installs
//! a counting global allocator (per thread, so the harness's own threads
//! do not blur it) and pins what `core::order` promises — one 24-byte
//! slot per element and nothing else up to eight elements, the hash
//! index only from the ninth — and what that leaves a `KvStore` paying
//! per key — and what a store's change journal costs: one allocation of
//! the cap, whatever the store holds. It is its own test binary so the
//! allocator touches nothing else.

use bytes::Bytes;
use optrep_core::{RotatingVector, SiteId, Srv};
use optrep_kv::KvStore;
use optrep_replication::JOURNAL_CAP;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // locals are gone; those calls are simply not counted. Wrapping:
        // a block may be freed on a thread that did not allocate it, and
        // only differences taken on one thread are ever read.
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get().wrapping_add(bytes)));
        let _ = LIVE_BLOCKS.try_with(|live| live.set(live.get().wrapping_add(1)));
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get().wrapping_add(1)));
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

/// Live heap per key of a store of one-site keys: 8-byte keys, 32-byte
/// values — `sparse_pull`'s shape. Requested bytes, so below what RSS
/// shows (malloc's own headers and rounding are not in it). Measured
/// against the stand-in `bytes` of crates/perf/standins, whose value is an
/// `Arc<Vec<u8>>` (40 B more per value than the published crate's, which
/// this sandbox cannot build): 299 B at 1 shard, 296 at 16, 297 at 256,
/// 326 at 512 — 496, 492, 493, 532 before the vector lost its always-on
/// hash index and four-slot minimum. Of the 299, 195 B are the key's
/// share of its `BTreeMap` node (sequential inserts leave nodes six-
/// elevenths full), 72 B the value, 8 B the key and 24 B the one slot.
#[test]
fn a_one_site_key_costs_under_400_bytes() {
    const KEYS: usize = 10_000;
    for shards in [1, 16, 256, 512] {
        let (store, grown) = measure(|| {
            let mut store = KvStore::with_shards(SiteId::new(1), shards);
            for i in 0..KEYS {
                store.put(format!("k{i:07}"), Bytes::from(vec![b'v'; 32]));
            }
            store
        });
        assert_eq!(store.len(), KEYS);
        let per_key = grown.bytes / KEYS;
        assert!(
            per_key <= 400,
            "{per_key} live heap bytes per key at {shards} shards"
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
    for i in 1..64 {
        store.put(format!("k{i:02}"), value());
    }
    // Rewriting keys the store already holds swaps values of one size:
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
    // entries and an empty journal, so the two clones differ by one.
    let reloaded = KvStore::decode_snapshot(&mut store.encode_snapshot()).unwrap();
    assert_eq!(reloaded.journal_floor_lag(), 0);
    let (mut copy, with) = measure(|| store.clone());
    let (_without, without) = measure(|| reloaded.clone());
    assert_eq!(with.bytes - without.bytes, JOURNAL, "16 B an entry");
    assert_eq!(with.blocks - without.blocks, 1);
    // And a clone goes on at the cap, as its original does. (The
    // original goes first: while it lives the values are shared, and a
    // rewrite frees nothing.)
    drop(store);
    let ((), grown) = measure(|| {
        for i in 0..JOURNAL_CAP + 7 {
            copy.put(format!("k{:02}", i % 64), value());
        }
    });
    assert_eq!((grown.bytes, grown.blocks), (0, 0));
}
