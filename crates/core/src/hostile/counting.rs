//! The workspace's one counting allocator.
//!
//! [`Counting`] forwards every call to [`System`] and counts what it
//! hands out twice: on the calling thread, in `const`-initialised
//! thread-locals (what a test reads when other threads — the test
//! harness's own, a node's — must not blur its count), and across the
//! process, in atomics (what a test reads when every thread of a daemon
//! takes part in what it measures). A test binary installs it with
//!
//! ```text
//! #[global_allocator]
//! static COUNTING: optrep_core::hostile::Counting = optrep_core::hostile::Counting;
//! ```
//!
//! and reads it through [`on_thread`] and [`in_process`]. The counters
//! are statistics: they publish no other data, so `Relaxed` will do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A global allocator that counts. Install it in a test binary; nothing
/// else installs an allocator.
#[derive(Debug)]
pub struct Counting;

/// One set of counts: live bytes and blocks, allocations, bytes asked
/// for, the largest block asked for, and the most the live bytes have
/// stood above `base` since a measurement began. Every sum wraps: a
/// block may be freed on a thread that did not allocate it, and only
/// differences taken on one thread are ever read.
trait Counts {
    fn get(&self, counter: Counter) -> usize;
    fn set(&self, counter: Counter, value: usize);
    fn add(&self, counter: Counter, value: usize) -> usize {
        let sum = self.get(counter).wrapping_add(value);
        self.set(counter, sum);
        sum
    }
    fn max(&self, counter: Counter, value: usize) {
        if value > self.get(counter) {
            self.set(counter, value);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Counter {
    Live,
    Blocks,
    Allocations,
    Allocated,
    Largest,
    /// `Live` when the innermost measurement began.
    Base,
    /// The most `Live` has stood above `Base` since.
    Above,
}

const COUNTERS: usize = 7;

thread_local! {
    static THREAD: [Cell<usize>; COUNTERS] = const { [const { Cell::new(0) }; COUNTERS] };
}

static PROCESS: [AtomicUsize; COUNTERS] = [const { AtomicUsize::new(0) }; COUNTERS];

impl Counts for [Cell<usize>; COUNTERS] {
    fn get(&self, counter: Counter) -> usize {
        self[counter as usize].get()
    }
    fn set(&self, counter: Counter, value: usize) {
        self[counter as usize].set(value);
    }
}

impl Counts for [AtomicUsize; COUNTERS] {
    fn get(&self, counter: Counter) -> usize {
        self[counter as usize].load(Relaxed)
    }
    fn set(&self, counter: Counter, value: usize) {
        self[counter as usize].store(value, Relaxed);
    }
    // Threads allocate at once: the sums and maxima are read-modify-writes.
    fn add(&self, counter: Counter, value: usize) -> usize {
        self[counter as usize]
            .fetch_add(value, Relaxed)
            .wrapping_add(value)
    }
    fn max(&self, counter: Counter, value: usize) {
        self[counter as usize].fetch_max(value, Relaxed);
    }
}

fn grew(counts: &dyn Counts, bytes: usize) {
    let live = counts.add(Counter::Live, bytes);
    counts.add(Counter::Blocks, 1);
    counts.add(Counter::Allocations, 1);
    counts.add(Counter::Allocated, bytes);
    counts.max(Counter::Largest, bytes);
    // Below the base (what was live before is freed) is no peak.
    let above = live.wrapping_sub(counts.get(Counter::Base)) as isize;
    counts.max(Counter::Above, above.max(0) as usize);
}

fn shrank(counts: &dyn Counts, bytes: usize) {
    counts.add(Counter::Live, bytes.wrapping_neg());
    counts.add(Counter::Blocks, usize::MAX);
}

/// Makes `change` in the process's counts and the calling thread's.
fn count(change: impl Fn(&dyn Counts)) {
    change(&PROCESS);
    // `try_with`: a thread being torn down may allocate after its locals
    // are gone; those calls are counted in the process alone.
    let _ = THREAD.try_with(|thread| change(thread));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics and
// `const`-initialised thread-locals without destructors, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|counts| grew(counts, layout.size()));
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|counts| shrank(counts, layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|counts| {
            shrank(counts, layout.size());
            grew(counts, new_size);
        });
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What running something cost the heap, on the calling thread
/// ([`on_thread`]) or across the process ([`in_process`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// The most the live heap stood above where it began.
    pub peak: usize,
    /// How many more bytes were live when it returned.
    pub kept: isize,
    /// How many more blocks were live when it returned.
    pub blocks: isize,
    /// Allocations made, a reallocation counted as one.
    pub allocations: usize,
    /// Bytes asked for, in all.
    pub allocated: usize,
    /// The largest block asked for.
    pub largest: usize,
}

/// The counts a measurement reports as what changed while it ran.
const SUMS: [Counter; 4] = [
    Counter::Live,
    Counter::Blocks,
    Counter::Allocations,
    Counter::Allocated,
];

fn measure<T>(counts: &dyn Counts, run: impl FnOnce() -> T) -> (T, Cost) {
    let start = SUMS.map(|counter| counts.get(counter));
    // A measurement inside another hands the outer one its peak back.
    let outer = [Counter::Base, Counter::Above, Counter::Largest].map(|c| counts.get(c));
    counts.set(Counter::Base, start[0]);
    counts.set(Counter::Above, 0);
    counts.set(Counter::Largest, 0);
    let ran = run();
    let [kept, blocks, allocations, allocated]: [usize; 4] =
        std::array::from_fn(|i| counts.get(SUMS[i]).wrapping_sub(start[i]));
    let cost = Cost {
        peak: counts.get(Counter::Above),
        kept: kept as isize,
        blocks: blocks as isize,
        allocations,
        allocated,
        largest: counts.get(Counter::Largest),
    };
    let above = (start[0].wrapping_sub(outer[0]) as isize).saturating_add(cost.peak as isize);
    counts.set(Counter::Base, outer[0]);
    counts.set(Counter::Above, outer[1].max(above.max(0) as usize));
    counts.set(Counter::Largest, outer[2].max(cost.largest));
    (ran, cost)
}

/// What `run` returned, and what it cost this thread's heap.
pub fn on_thread<T>(run: impl FnOnce() -> T) -> (T, Cost) {
    THREAD.with(|thread| measure(thread, run))
}

/// What `run` returned, and what it cost the heap of every thread of the
/// process while it ran. Two of these must not run at once.
pub fn in_process<T>(run: impl FnOnce() -> T) -> (T, Cost) {
    measure(&PROCESS, run)
}

/// Whether [`Counting`] is the global allocator.
pub(crate) fn installed() -> bool {
    let (boxed, cost) = on_thread(|| Box::new([0u8; 64]));
    drop(boxed);
    cost.allocated >= 64
}
