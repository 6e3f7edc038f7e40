//! Readiness primitives for the daemon's event-driven core.
//!
//! The server crate's event loop multiplexes hundreds of peer
//! connections onto one thread. The kernel interface it needs is tiny —
//! "which of these sockets are readable/writable now?" — so rather than
//! pull in `mio`, this module binds `poll(2)` directly (the symbol is in
//! libc, which every `std` binary already links). `poll` is O(n) per
//! call in the number of fds, which is irrelevant at the few hundred
//! connections a daemon holds and buys total portability across unixes.
//!
//! [`Waker`] lets other threads (an executor finishing a blocking verb,
//! a shutdown request) interrupt the poll: it is a nonblocking
//! socketpair whose read end sits in every poll set.
//!
//! Every wait polls before it blocks: [`PollSet::wait`] and
//! [`spin_readable`] poll with a zero timeout, yielding the CPU between
//! two polls, for at most [`SPIN_BUDGET`], and only then sleep. A
//! thread whose yields give its CPU away to another thread backs off
//! from spinning for a while. This module is the one place the runtime
//! spins.

#![cfg(unix)]

use optrep_core::obs::metrics::{Counter, Histogram, MetricsRegistry};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// What a caller wants to know about one fd.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// Wake when the fd can take more bytes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the common case for idle connections.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — used while a write buffer is nonempty.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// What the kernel reported about one fd.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or an accept, or EOF) is available.
    pub readable: bool,
    /// The fd can take writes.
    pub writable: bool,
    /// Error/hangup/invalid — the connection should be torn down after
    /// a final read drains whatever the kernel still buffers.
    pub error: bool,
}

/// How long a wait polls before it sleeps: zero-timeout `poll(2)`
/// rounds, a [`std::thread::yield_now`] between two, until an fd fires
/// or this much time has passed; only then does the wait block.
///
/// A blocked thread is woken on a halted CPU in about 7 µs, and a verb
/// round trip between two CPUs pays that twice, once a side. Most
/// replies come back within a few µs of service, so a short spin turns
/// those wakes into a zero-timeout poll that finds them. In a sweep of
/// 0, 5, 10, 20, 30, 50 and 100 µs on a 2-vCPU host (DESIGN.md §12) a
/// verb round trip between two CPUs halved from 10 µs on and moved no
/// further; 5 µs gained nothing. 20 µs is twice the least budget that
/// helps; past the plateau a wait that is going to sleep anyway only
/// burns more of its CPU. The yield keeps the spin from starving the
/// thread it waits for when both share a CPU; a yield that gives the
/// CPU away for longer than this budget backs the thread off from
/// spinning (see `Backoff`).
pub const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Runs one `poll(2)` over `fds` (`timeout_ms` −1 blocks); the count
/// of ready fds, 0 on a timeout or `EINTR`.
fn poll_once(fds: &mut [PollFd], timeout_ms: std::ffi::c_int) -> io::Result<usize> {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`s
    // (`#[repr(C)]`), and its length is passed with it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// The most waits in a row a thread blocks in without spinning after
/// its yields gave the CPU away (see [`Backoff`]).
const MAX_SKIPPED: u32 = 1024;

/// A thread's back-off from spinning.
///
/// A yield that gives the CPU away for longer than [`SPIN_BUDGET`]
/// means another thread is running on this CPU and does not give it
/// back soon. A spin then only costs the spinner its turn — the
/// scheduler moves a yielder behind a thread that keeps the CPU, for
/// up to a time slice of milliseconds — and a busy CPU has no halt to
/// wake from, which is all the spin saves. So the spin ends at once,
/// and the thread's next waits block without spinning: one after the
/// first such yield, twice as many after each further one in a row, up
/// to [`MAX_SKIPPED`]. A spin that ends without such a yield clears
/// the back-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Backoff {
    /// Waits left that block without spinning.
    skip: u32,
    /// How many waits the last back-off skipped (0: none since a spin
    /// ended cleanly).
    last: u32,
}

impl Backoff {
    /// Whether this wait may spin; one that may not uses up a skip.
    fn admits(&mut self) -> bool {
        if self.skip == 0 {
            return true;
        }
        self.skip -= 1;
        false
    }

    /// A yield gave the CPU away: skip twice the last back-off's waits.
    fn overran(&mut self) {
        self.last = (self.last * 2).clamp(1, MAX_SKIPPED);
        self.skip = self.last;
    }

    /// A spin ended without giving the CPU away.
    fn settled(&mut self) {
        *self = Backoff::default();
    }
}

thread_local! {
    static BACKOFF: Cell<Backoff> = const { Cell::new(Backoff { skip: 0, last: 0 }) };
}

/// Zero-timeout polls over `fds`, yielding between two, until one
/// fires or `budget` has passed since `started`, or a yield gives the
/// CPU away (see [`Backoff`]); the ready count of the last poll (0 if
/// none fired). A wait the thread's back-off skips polls nothing.
fn spin(fds: &mut [PollFd], started: Instant, budget: Duration) -> io::Result<usize> {
    let mut backoff = BACKOFF.get();
    if !backoff.admits() {
        BACKOFF.set(backoff);
        return Ok(0);
    }
    let mut n = poll_once(fds, 0);
    let mut gave_away = false;
    while !gave_away && matches!(n, Ok(0)) && started.elapsed() < budget {
        let yielded = Instant::now();
        std::thread::yield_now();
        gave_away = yielded.elapsed() > SPIN_BUDGET;
        n = poll_once(fds, 0);
    }
    if gave_away {
        backoff.overran();
    } else {
        backoff.settled();
    }
    BACKOFF.set(backoff);
    n
}

/// Spins up to [`SPIN_BUDGET`] for `fd` to turn readable (or hang up);
/// whether it did. A caller about to block in `read(2)` calls it first,
/// then reads as before, so the read's own deadline and EOF stay
/// exactly as they were.
///
/// # Errors
///
/// Any `poll(2)` failure except `EINTR`.
pub fn spin_readable(fd: RawFd) -> io::Result<bool> {
    let mut one = [PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    }];
    Ok(spin(&mut one, Instant::now(), SPIN_BUDGET)? > 0)
}

/// A poll set the caller owns and refills each round, so a wait
/// allocates nothing once the set has grown to its largest.
#[derive(Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Empties the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds `fd` with `interest`; its slot, for [`PollSet::readiness`].
    pub fn push(&mut self, fd: RawFd, interest: Interest) -> usize {
        self.fds.push(PollFd {
            fd,
            events: (if interest.readable { POLLIN } else { 0 })
                | (if interest.writable { POLLOUT } else { 0 }),
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// How many fds the set holds.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether the set holds no fd.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// What the last wait reported about the fd in `slot`.
    pub fn readiness(&self, slot: usize) -> Readiness {
        let revents = self.fds[slot].revents;
        Readiness {
            readable: revents & (POLLIN | POLLHUP) != 0,
            writable: revents & POLLOUT != 0,
            error: revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }

    /// Waits until an fd is ready or `timeout` passes (`None` waits
    /// for ever): spins up to [`SPIN_BUDGET`] (never past `timeout`),
    /// then blocks in `poll(2)` for what is left of `timeout`, rounded
    /// up to the millisecond so a deadline is never woken before. The
    /// number of ready fds, 0 on a timeout or `EINTR` (callers simply
    /// re-enter their loop).
    ///
    /// # Errors
    ///
    /// Any `poll(2)` failure except `EINTR`.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let started = Instant::now();
        let budget = timeout.map_or(SPIN_BUDGET, |t| t.min(SPIN_BUDGET));
        if !budget.is_zero() {
            let n = spin(&mut self.fds, started, budget)?;
            if n > 0 {
                return Ok(n);
            }
        }
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => {
                let left = t.saturating_sub(started.elapsed()).as_micros();
                left.div_ceil(1000).min(i32::MAX as u128) as std::ffi::c_int
            }
        };
        poll_once(&mut self.fds, timeout_ms)
    }

    /// [`PollSet::wait`], metered: one wake a wait, whether the spin or
    /// the blocking poll ended it; the whole wait, spin included, as
    /// its poll-wait sample; and its ready-fd count.
    ///
    /// # Errors
    ///
    /// Exactly [`PollSet::wait`]'s errors (error rounds are not
    /// recorded).
    pub fn wait_metered(
        &mut self,
        timeout: Option<Duration>,
        metrics: &ReactorMetrics,
    ) -> io::Result<usize> {
        let started = Instant::now();
        let n = self.wait(timeout)?;
        metrics.wakes.inc();
        metrics
            .wait_micros
            .record(started.elapsed().as_micros() as u64);
        metrics.events_per_wake.record(n as u64);
        Ok(n)
    }
}

/// Live metric instruments for one [`PollSet`] loop: wake counts, time
/// spent waiting (spinning, then blocked in `poll(2)`), and how many
/// fds each wake delivered.
///
/// The two histograms answer the first questions asked of a wedged
/// event loop — "is it sleeping or spinning?" (wait histogram) and "is
/// each wake doing real work?" (events-per-wake histogram) — without
/// attaching a tracer.
#[derive(Clone)]
pub struct ReactorMetrics {
    wakes: Arc<Counter>,
    wait_micros: Arc<Histogram>,
    events_per_wake: Arc<Histogram>,
}

impl ReactorMetrics {
    /// Registers the reactor families under `prefix` (e.g.
    /// `optrep_reactor`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> ReactorMetrics {
        ReactorMetrics {
            wakes: registry.counter(&format!("{prefix}_wakes_total")),
            wait_micros: registry.histogram(&format!("{prefix}_poll_wait_micros")),
            events_per_wake: registry.histogram(&format!("{prefix}_events_per_wake")),
        }
    }
}

/// Cross-thread wakeup for a [`PollSet`] loop.
///
/// The read end's fd goes into every poll set; [`Waker::wake`] makes it
/// readable from any thread, and the loop calls [`Waker::drain`] before
/// processing so coalesced wakes cost one syscall.
pub struct Waker {
    reader: UnixStream,
    writer: UnixStream,
}

impl Waker {
    /// A fresh waker pair (both ends nonblocking).
    ///
    /// # Errors
    ///
    /// Propagates socketpair/ioctl failures (fd exhaustion).
    pub fn new() -> io::Result<Waker> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(Waker { reader, writer })
    }

    /// The fd to include (readable interest) in the poll set.
    pub fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Makes the poll loop wake. Infallible by design: a full pipe
    /// already implies a pending wake, and any other failure means the
    /// loop is gone and has nothing left to wake for.
    pub fn wake(&self) {
        let _ = (&self.writer).write(&[1]);
    }

    /// Clears pending wake bytes. Call once per loop iteration when the
    /// waker fd polled readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.reader).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Capped exponential backoff for polling retry loops: `base << attempt`
/// clamped to `cap` (shift itself clamped to avoid overflow). Used by
/// the accept path on transient errors (EMFILE, ECONNABORTED) so a
/// persistent error condition polls at `cap` rather than busy-looping
/// at a fixed short interval.
pub fn capped_poll_backoff(attempt: u32, base: Duration, cap: Duration) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of the one fd `fd`, read interest.
    fn set_of(fd: RawFd, interest: Interest) -> PollSet {
        let mut set = PollSet::new();
        set.push(fd, interest);
        set
    }

    #[test]
    fn waker_wakes_and_drains() {
        let waker = Waker::new().expect("waker");
        let mut set = set_of(waker.fd(), Interest::READ);
        // Nothing pending: the wait times out at once.
        assert_eq!(set.wait(Some(Duration::ZERO)).expect("poll"), 0);

        waker.wake();
        waker.wake(); // coalesces
        assert_eq!(
            set.wait(Some(Duration::from_millis(1000))).expect("poll"),
            1
        );
        assert!(set.readiness(0).readable);

        waker.drain();
        assert_eq!(
            set.wait(Some(Duration::ZERO)).expect("poll"),
            0,
            "drain must clear pending wakes"
        );
    }

    #[test]
    fn wake_from_other_thread_interrupts_poll() {
        let waker = std::sync::Arc::new(Waker::new().expect("waker"));
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let start = std::time::Instant::now();
        let mut set = set_of(waker.fd(), Interest::READ);
        assert_eq!(set.wait(Some(Duration::from_secs(10))).expect("poll"), 1);
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().expect("join");
    }

    #[test]
    fn sockets_report_write_readiness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::net::TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let mut set = set_of(client.as_raw_fd(), Interest::READ_WRITE);
        assert_eq!(
            set.wait(Some(Duration::from_millis(1000))).expect("poll"),
            1
        );
        assert!(set.readiness(0).writable, "fresh socket must be writable");
        assert!(!set.readiness(0).readable, "nothing was sent yet");
    }

    #[test]
    fn a_refilled_set_reports_its_new_slots() {
        let idle = Waker::new().expect("waker");
        let fired = Waker::new().expect("waker");
        fired.wake();
        let mut set = set_of(fired.fd(), Interest::READ);
        assert_eq!(set.wait(Some(Duration::ZERO)).expect("poll"), 1);

        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.push(idle.fd(), Interest::READ), 0);
        assert_eq!(set.push(fired.fd(), Interest::READ), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.wait(Some(Duration::ZERO)).expect("poll"), 1);
        assert!(!set.readiness(0).readable);
        assert!(set.readiness(1).readable);
    }

    /// A wait counts one wake whether its spin or its blocking poll
    /// ended it, and its poll-wait sample holds the spin.
    #[test]
    fn metered_wait_counts_one_wake_a_wait_and_times_its_spin() {
        let registry = optrep_core::obs::MetricsRegistry::new();
        let metrics = ReactorMetrics::register(&registry, "test_reactor");
        let waker = Waker::new().expect("waker");
        let mut set = set_of(waker.fd(), Interest::READ);

        // Ended by the spin: the fd is ready before the wait begins.
        waker.wake();
        assert_eq!(set.wait_metered(None, &metrics).expect("poll"), 1);
        waker.drain();

        // Ended by the blocking poll: the wake lands long after the
        // spin gave up.
        let remote = Waker::new().expect("waker");
        let mut remote_set = set_of(remote.fd(), Interest::READ);
        let remote = std::sync::Arc::new(remote);
        let late = std::sync::Arc::clone(&remote);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(SPIN_BUDGET + Duration::from_millis(20));
            late.wake();
        });
        assert_eq!(
            remote_set
                .wait_metered(Some(Duration::from_secs(10)), &metrics)
                .expect("poll"),
            1
        );
        handle.join().expect("join");

        let waited = |registry: &MetricsRegistry| {
            registry
                .snapshot()
                .histogram("test_reactor_poll_wait_micros")
                .unwrap()
                .sum
        };
        let before = waited(&registry);
        assert!(before >= 20_000, "the late wake's wait is its sample");

        // Ended by its timeout, which is the spin budget: the blocking
        // poll has nothing left to wait, so the sample is the spin.
        assert_eq!(
            set.wait_metered(Some(SPIN_BUDGET), &metrics).expect("poll"),
            0
        );
        let spun = waited(&registry) - before;
        assert!(
            spun >= SPIN_BUDGET.as_micros() as u64,
            "the spin is in the sample: {spun} µs"
        );

        let snap = registry.snapshot();
        assert_eq!(snap.counter("test_reactor_wakes_total"), Some(3));
        let per_wake = snap.histogram("test_reactor_events_per_wake").unwrap();
        assert_eq!(per_wake.count, 3);
        assert_eq!(per_wake.sum, 2);
        assert_eq!(
            snap.histogram("test_reactor_poll_wait_micros")
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn spin_readable_sees_bytes_already_there_and_gives_up_on_none() {
        let waker = Waker::new().expect("waker");
        waker.wake();
        assert!(spin_readable(waker.fd()).expect("poll"));
        waker.drain();
        let started = Instant::now();
        assert!(!spin_readable(waker.fd()).expect("poll"));
        assert!(started.elapsed() >= SPIN_BUDGET);
    }

    #[test]
    fn a_spin_that_gives_its_cpu_away_backs_off_doubling_until_a_clean_one() {
        let mut backoff = Backoff::default();
        assert!(backoff.admits(), "a fresh thread spins");
        let skipped = |backoff: &mut Backoff| {
            let mut waits = 0;
            while !backoff.admits() {
                waits += 1;
            }
            waits
        };
        backoff.overran();
        assert_eq!(skipped(&mut backoff), 1);
        backoff.overran();
        assert_eq!(skipped(&mut backoff), 2);
        backoff.overran();
        assert_eq!(skipped(&mut backoff), 4);
        for _ in 0..20 {
            backoff.overran();
        }
        assert_eq!(skipped(&mut backoff), MAX_SKIPPED);
        backoff.settled();
        assert!(backoff.admits(), "a clean spin clears the back-off");
        backoff.overran();
        assert_eq!(skipped(&mut backoff), 1, "and starts it over");
    }

    #[test]
    fn backoff_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        assert_eq!(capped_poll_backoff(0, base, cap), base);
        assert_eq!(capped_poll_backoff(3, base, cap), Duration::from_millis(80));
        assert_eq!(capped_poll_backoff(30, base, cap), cap);
    }
}
