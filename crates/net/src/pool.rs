//! Persistent peer connections: a per-destination pool of long-lived
//! [`TcpLink`]s.
//!
//! E11 showed the TCP contact path paying most of its 3.4–8× wall-clock
//! premium in per-contact connection setup: dial, handshake, serve-thread
//! spawn, teardown. [`ConnPool`] amortizes all of that to once per peer:
//! the first contact dials and handshakes, every later contact checks the
//! same connection out of the pool, runs over it, and checks it back in.
//! The mux layer's FIN-*marker* exchange delimits contacts on the shared
//! socket (see `replication::mux::pull_contact`), so no socket
//! teardown is needed between contacts. The sync planner's digest/plan
//! turn (`replication::planner`) rides the same discipline — one extra
//! marker-delimited turn at the head of a contact — so planned pulls
//! pipeline over pooled connections with no extra dial either.
//!
//! Failure handling folds into the retry machinery callers already have:
//! a contact error discards the connection (never returning a poisoned
//! socket to the pool) and — when the failed connection was a *reused*
//! one, which may simply have gone stale while idle (peer restarted,
//! NAT timeout) — transparently redials once and reruns the contact.
//! Errors on a freshly dialed connection propagate to the caller's own
//! retry/quarantine schedule unchanged.
//!
//! A connection can carry **state of its own** — the `S` of
//! [`ConnPool<S>`], handed to [`ConnPool::with_conn`]'s closure with the
//! link. It is created with the dial, pooled beside the idle socket and
//! dropped with it, so whatever a protocol remembers about a connection
//! (the daemon: the last digest vector it sent down it) can never
//! outlive that connection or be mistaken for another's.

use crate::tcp::{ConnectOptions, TcpLink};
use optrep_core::error::Result;
use optrep_core::obs::metrics::{Counter, Histogram, MetricsRegistry};
use optrep_core::wire::{Handshake, Intent};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A pool's connection counters, summed over every peer: what
/// [`ConnPool::totals`] reads back from its `optrep_pool_*` registry
/// families.
///
/// `dials` counts sockets actually opened (and handshaken), `contacts`
/// counts closures successfully run over pooled connections, `discards`
/// counts connections dropped after an error. A healthy steady state
/// shows `contacts` growing while `dials` stays at 1 — the observable
/// signature that pipelining works, asserted by `smoke_cluster.sh`.
/// `reuses` counts checkouts satisfied by a pooled connection and
/// `stale_reruns` counts the redial-once recoveries after a reused
/// connection failed — the two numbers that separate "the pool works"
/// from "the pool thrashes".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sockets dialed (including reconnects after failures).
    pub dials: u64,
    /// Contacts (or verb exchanges) completed over pooled connections.
    pub contacts: u64,
    /// Connections discarded after an error.
    pub discards: u64,
    /// Checkouts satisfied by an already-pooled connection.
    pub reuses: u64,
    /// Redial-once recoveries after a reused connection went stale.
    pub stale_reruns: u64,
}

/// The pool's counters, registered in a [`MetricsRegistry`] as the
/// `optrep_pool_*` families and updated inline by the pool (no event
/// stream involved — pool activity happens below the obs layer). They
/// are the pool's only ledger.
struct PoolMetrics {
    dials: Arc<Counter>,
    dial_micros: Arc<Histogram>,
    contacts: Arc<Counter>,
    discards: Arc<Counter>,
    reuses: Arc<Counter>,
    stale_reruns: Arc<Counter>,
}

impl PoolMetrics {
    fn register(registry: &MetricsRegistry) -> PoolMetrics {
        PoolMetrics {
            dials: registry.counter("optrep_pool_dials_total"),
            dial_micros: registry.histogram("optrep_pool_dial_micros"),
            contacts: registry.counter("optrep_pool_contacts_total"),
            discards: registry.counter("optrep_pool_discards_total"),
            reuses: registry.counter("optrep_pool_reuses_total"),
            stale_reruns: registry.counter("optrep_pool_stale_reruns_total"),
        }
    }
}

/// A pool of one persistent, handshaken connection per peer address.
///
/// Checkout/checkin is scoped by [`ConnPool::with_conn`]; the pool lock
/// is never held while a contact runs, so contacts to different peers
/// proceed in parallel. If two threads contact the *same* peer
/// concurrently the second dials a temporary extra connection and the
/// surplus is dropped on checkin — correctness is unaffected and the
/// steady state returns to one connection.
///
/// `S` is the per-connection state (see the module docs): `S::default()`
/// at every dial, dropped with the socket.
pub struct ConnPool<S = ()> {
    site: u32,
    opts: ConnectOptions,
    /// The idle connection to each peer and the state that belongs to it.
    idle: Mutex<HashMap<SocketAddr, (TcpLink, S)>>,
    metrics: PoolMetrics,
}

impl<S: Default> ConnPool<S> {
    /// A pool dialing with `opts`, introducing itself as `site` with
    /// [`Intent::Peer`] (a persistent multi-contact channel), and
    /// counting into `registry`'s `optrep_pool_*` families (registration
    /// is by name, so two pools on one registry share them).
    pub fn new(site: u32, opts: ConnectOptions, registry: &MetricsRegistry) -> Self {
        ConnPool {
            site,
            opts,
            idle: Mutex::new(HashMap::new()),
            metrics: PoolMetrics::register(registry),
        }
    }

    /// Runs `f` over the pooled connection to `addr` and that
    /// connection's state, dialing (and handshaking) only if none is
    /// pooled yet.
    ///
    /// On success the connection returns to the pool, its state with
    /// it. On failure both are discarded; if the connection had been
    /// reused (possibly stale), one fresh dial — with fresh state —
    /// reruns `f`, which must therefore be restartable, true of contacts
    /// by design (a failed contact leaves replica state untouched).
    ///
    /// # Errors
    ///
    /// Whatever `f` returns after the reconnect budget is spent, or the
    /// dial error if no connection could be established.
    pub fn with_conn<T>(
        &self,
        addr: SocketAddr,
        mut f: impl FnMut(&mut TcpLink, &mut S) -> Result<T>,
    ) -> Result<T> {
        let (mut conn, reused) = self.checkout(addr)?;
        match f(&mut conn.0, &mut conn.1) {
            Ok(value) => {
                self.checkin(addr, conn);
                Ok(value)
            }
            Err(first) => {
                drop(conn); // poisoned: never re-pool
                self.metrics.discards.inc();
                if !reused {
                    return Err(first);
                }
                // The pooled connection may have gone stale while idle;
                // one fresh dial gets its own chance before the error
                // reaches the caller's retry schedule.
                self.metrics.stale_reruns.inc();
                let mut conn = self.dial(addr)?;
                match f(&mut conn.0, &mut conn.1) {
                    Ok(value) => {
                        self.checkin(addr, conn);
                        Ok(value)
                    }
                    Err(second) => {
                        self.metrics.discards.inc();
                        Err(second)
                    }
                }
            }
        }
    }

    /// Counters summed over every peer, read from the registry families.
    pub fn totals(&self) -> PoolStats {
        let m = &self.metrics;
        PoolStats {
            dials: m.dials.get(),
            contacts: m.contacts.get(),
            discards: m.discards.get(),
            reuses: m.reuses.get(),
            stale_reruns: m.stale_reruns.get(),
        }
    }

    /// Number of peers with a live pooled connection right now.
    pub fn live(&self) -> usize {
        self.lock().len()
    }

    /// Drops every pooled connection (counters survive).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn checkout(&self, addr: SocketAddr) -> Result<((TcpLink, S), bool)> {
        let pooled = self.lock().remove(&addr);
        if let Some(conn) = pooled {
            self.metrics.reuses.inc();
            return Ok((conn, true));
        }
        Ok((self.dial(addr)?, false))
    }

    fn dial(&self, addr: SocketAddr) -> Result<(TcpLink, S)> {
        let started = Instant::now();
        let mut link = TcpLink::connect(addr, &self.opts)?;
        let preamble = Handshake::new(self.site, Intent::Peer).encode();
        link.send_frame(0, &preamble)?;
        self.metrics.dials.inc();
        self.metrics
            .dial_micros
            .record(started.elapsed().as_micros() as u64);
        Ok((link, S::default()))
    }

    fn checkin(&self, addr: SocketAddr, conn: (TcpLink, S)) {
        // A concurrent contact may already have re-pooled a connection
        // for this peer; then the surplus socket drops here.
        self.lock().entry(addr).or_insert(conn);
        self.metrics.contacts.inc();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SocketAddr, (TcpLink, S)>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use optrep_core::error::{Error, WireError};
    use optrep_core::wire::{self, HANDSHAKE_VERSION};
    use std::net::TcpListener;
    use std::time::Duration;

    fn fast_opts() -> ConnectOptions {
        ConnectOptions::new()
            .attempts(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(2))
            .timeouts(
                Some(Duration::from_millis(300)),
                Some(Duration::from_millis(300)),
            )
    }

    /// Accepts connections and echoes every non-handshake frame; returns
    /// the number of distinct connections accepted via the channel.
    fn echo_server(listener: TcpListener) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut accepted = 0;
            listener.set_nonblocking(false).expect("blocking listener");
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return accepted;
                };
                accepted += 1;
                let mut link = TcpLink::from_stream(stream, &fast_opts()).expect("link");
                // First frame is the handshake; validate and drop it.
                let hs = link.recv_frame().expect("handshake frame");
                let mut payload = hs.payload;
                let hs = Handshake::decode(&mut payload).expect("handshake");
                assert_eq!(hs.intent, Intent::Peer);
                while let Ok(frame) = link.recv_frame() {
                    if frame.payload.first() == Some(&0xFF) {
                        // Poison byte: kill the connection.
                        drop(link);
                        break;
                    }
                    link.send_frame(frame.stream, &frame.payload).expect("echo");
                }
                if accepted >= 3 {
                    return accepted;
                }
            }
        })
    }

    fn roundtrip(link: &mut TcpLink, tag: u8) -> Result<()> {
        link.send_frame(7, &[tag])?;
        let frame = link.recv_frame()?;
        assert_eq!(&frame.payload[..], &[tag]);
        Ok(())
    }

    #[test]
    fn repeated_contacts_reuse_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = echo_server(listener);

        let registry = MetricsRegistry::new();
        let pool: ConnPool = ConnPool::new(3, fast_opts(), &registry);
        for tag in 0..5u8 {
            pool.with_conn(addr, |link, ()| roundtrip(link, tag))
                .expect("contact");
        }
        let stats = pool.totals();
        assert_eq!(stats.dials, 1, "every contact must reuse the first dial");
        assert_eq!(stats.contacts, 5);
        assert_eq!(stats.discards, 0);
        assert_eq!(stats.reuses, 4, "contacts 2-5 must hit the pooled link");
        assert_eq!(stats.stale_reruns, 0);
        assert_eq!(pool.live(), 1);
        // The totals are the registry's families, read back.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("optrep_pool_dials_total"), Some(1));
        assert_eq!(snap.counter("optrep_pool_contacts_total"), Some(5));
        assert_eq!(snap.counter("optrep_pool_reuses_total"), Some(4));
        assert_eq!(snap.counter("optrep_pool_discards_total"), Some(0));
        assert_eq!(snap.counter("optrep_pool_stale_reruns_total"), Some(0));
        let dial = snap.histogram("optrep_pool_dial_micros").unwrap();
        assert_eq!(dial.count, 1, "one dial, one latency sample");
        pool.clear();
        drop(pool);
        // Unblock the accept loop so the server thread exits.
        let _ = std::net::TcpStream::connect(addr);
        let _ = std::net::TcpStream::connect(addr);
        let _ = server.join();
    }

    #[test]
    fn stale_connection_redials_once() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = echo_server(listener);

        // The connection's state: how many contacts it has carried.
        let pool: ConnPool<u32> = ConnPool::new(3, fast_opts(), &MetricsRegistry::new());
        for carried in 0..2 {
            pool.with_conn(addr, |link, contacts| {
                assert_eq!(*contacts, carried, "the state is pooled with the link");
                *contacts += 1;
                roundtrip(link, 1)
            })
            .expect("warm-up");
        }
        // Poison the pooled connection server-side on the first attempt
        // only: the pool must discard the stale socket and its state,
        // redial, and let the rerun succeed on the fresh connection.
        let mut attempt = 0;
        pool.with_conn(addr, |link, contacts| {
            attempt += 1;
            if attempt == 1 {
                assert_eq!(*contacts, 2);
                link.send_frame(7, &[0xFF])?;
                return match link.recv_frame() {
                    Ok(_) => panic!("server must cut a poisoned connection"),
                    Err(_) => Err(Error::ConnectionLost { after_bytes: 0 }),
                };
            }
            assert_eq!(*contacts, 0, "a fresh dial starts with fresh state");
            *contacts += 1;
            roundtrip(link, 2)
        })
        .expect("redial must recover");
        let stats = pool.totals();
        assert_eq!(stats.dials, 2);
        assert_eq!(stats.discards, 1);
        assert_eq!(stats.stale_reruns, 1, "the redial-once path must count");
        assert!(stats.contacts >= 2);
        // Dropping the pooled connection drops its state with it.
        pool.with_conn(addr, |_, contacts| {
            assert_eq!(*contacts, 1);
            Ok(())
        })
        .expect("pooled");
        pool.clear();
        pool.with_conn(addr, |link, contacts| {
            assert_eq!(*contacts, 0);
            roundtrip(link, 3)
        })
        .expect("third dial");
        drop(pool);
        let _ = std::net::TcpStream::connect(addr);
        let _ = server.join();
    }

    #[test]
    fn dial_failure_propagates_without_retry_storm() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let pool: ConnPool = ConnPool::new(0, fast_opts(), &MetricsRegistry::new());
        let err = pool
            .with_conn(addr, |_, ()| Ok(()))
            .expect_err("nothing listens there");
        assert!(matches!(err, Error::ConnectionLost { .. }));
        assert_eq!(pool.totals().dials, 0);
    }

    #[test]
    fn handshake_version_negotiation_is_checked() {
        // The pool's preamble: the magic, then the current version, and
        // it decodes to the site and Peer intent on the receiving side.
        let preamble = Handshake::new(12, Intent::Peer).encode();
        let magic = wire::HANDSHAKE_MAGIC.len();
        assert_eq!(preamble[..magic], wire::HANDSHAKE_MAGIC);
        assert_eq!(preamble[magic], HANDSHAKE_VERSION);
        assert_eq!(HANDSHAKE_VERSION, 14);
        let decoded = Handshake::decode(&mut preamble.clone()).expect("decode");
        assert_eq!((decoded.site, decoded.intent), (12, Intent::Peer));
        // A version-10 end's preamble — a plan that flags its proposed
        // shards under their own tag — a version-11 end's — a plan's
        // image written five fields an entry — and a version-13 end's —
        // each entry hashed a byte a step — are refused, naming both
        // versions.
        for theirs in [10, 11, 13] {
            let mut older = preamble.to_vec();
            older[magic] = theirs;
            assert_eq!(
                Handshake::decode(&mut Bytes::from(older)),
                Err(WireError::UnsupportedVersion {
                    ours: HANDSHAKE_VERSION,
                    theirs,
                })
            );
        }
    }
}
