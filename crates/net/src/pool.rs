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

/// Per-peer connection counters, also summed by [`ConnPool::totals`].
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

/// Live metric instruments for one [`ConnPool`], registered in a
/// [`MetricsRegistry`] and updated inline by the pool (no event stream
/// involved — pool activity happens below the obs layer).
#[derive(Clone)]
pub struct PoolMetrics {
    dials: Arc<Counter>,
    dial_micros: Arc<Histogram>,
    contacts: Arc<Counter>,
    discards: Arc<Counter>,
    reuses: Arc<Counter>,
    stale_reruns: Arc<Counter>,
}

impl PoolMetrics {
    /// Registers the pool families under `prefix` (e.g. `optrep_pool`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> PoolMetrics {
        PoolMetrics {
            dials: registry.counter(&format!("{prefix}_dials_total")),
            dial_micros: registry.histogram(&format!("{prefix}_dial_micros")),
            contacts: registry.counter(&format!("{prefix}_contacts_total")),
            discards: registry.counter(&format!("{prefix}_discards_total")),
            reuses: registry.counter(&format!("{prefix}_reuses_total")),
            stale_reruns: registry.counter(&format!("{prefix}_stale_reruns_total")),
        }
    }
}

struct PeerEntry<S> {
    /// The idle connection and the state that belongs to it.
    idle: Option<(TcpLink, S)>,
    stats: PoolStats,
}

impl<S> Default for PeerEntry<S> {
    fn default() -> Self {
        PeerEntry {
            idle: None,
            stats: PoolStats::default(),
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
    intent: Intent,
    opts: ConnectOptions,
    peers: Mutex<HashMap<SocketAddr, PeerEntry<S>>>,
    metrics: Mutex<Option<PoolMetrics>>,
}

impl<S: Default> ConnPool<S> {
    /// A pool dialing with `opts` and introducing itself as `site` with
    /// [`Intent::Peer`] (a persistent multi-contact channel).
    pub fn new(site: u32, opts: ConnectOptions) -> Self {
        ConnPool::with_intent(site, Intent::Peer, opts)
    }

    /// A pool with an explicit handshake intent (the CLI reuses one
    /// verb connection with [`Intent::Verbs`]).
    pub fn with_intent(site: u32, intent: Intent, opts: ConnectOptions) -> Self {
        ConnPool {
            site,
            intent,
            opts,
            peers: Mutex::new(HashMap::new()),
            metrics: Mutex::new(None),
        }
    }

    /// Attaches live metric instruments; every later dial/checkout/
    /// discard updates them inline alongside the per-peer stats.
    pub fn set_metrics(&self, metrics: PoolMetrics) {
        *self.metrics.lock().unwrap_or_else(|e| e.into_inner()) = Some(metrics);
    }

    fn with_metrics(&self, f: impl FnOnce(&PoolMetrics)) {
        if let Some(m) = self
            .metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            f(m);
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
                self.checkin(addr, conn, 1, 0);
                Ok(value)
            }
            Err(first) => {
                drop(conn); // poisoned: never re-pool
                if !reused {
                    self.record(addr, |s| s.discards += 1);
                    self.with_metrics(|m| m.discards.inc());
                    return Err(first);
                }
                // The pooled connection may have gone stale while idle;
                // one fresh dial gets its own chance before the error
                // reaches the caller's retry schedule.
                self.record(addr, |s| {
                    s.discards += 1;
                    s.stale_reruns += 1;
                });
                self.with_metrics(|m| {
                    m.discards.inc();
                    m.stale_reruns.inc();
                });
                let mut conn = self.dial(addr)?;
                match f(&mut conn.0, &mut conn.1) {
                    Ok(value) => {
                        self.checkin(addr, conn, 1, 0);
                        Ok(value)
                    }
                    Err(second) => {
                        self.record(addr, |s| s.discards += 1);
                        self.with_metrics(|m| m.discards.inc());
                        Err(second)
                    }
                }
            }
        }
    }

    /// Counters for one peer (zeroes if never contacted).
    pub fn stats(&self, addr: SocketAddr) -> PoolStats {
        self.lock().get(&addr).map(|e| e.stats).unwrap_or_default()
    }

    /// Counters summed over every peer.
    pub fn totals(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for entry in self.lock().values() {
            total.dials += entry.stats.dials;
            total.contacts += entry.stats.contacts;
            total.discards += entry.stats.discards;
            total.reuses += entry.stats.reuses;
            total.stale_reruns += entry.stats.stale_reruns;
        }
        total
    }

    /// Number of peers with a live pooled connection right now.
    pub fn live(&self) -> usize {
        self.lock().values().filter(|e| e.idle.is_some()).count()
    }

    /// Drops every pooled connection (counters survive).
    pub fn clear(&self) {
        for entry in self.lock().values_mut() {
            entry.idle = None;
        }
    }

    fn checkout(&self, addr: SocketAddr) -> Result<((TcpLink, S), bool)> {
        let pooled = {
            let mut peers = self.lock();
            peers.get_mut(&addr).and_then(|entry| {
                let conn = entry.idle.take();
                if conn.is_some() {
                    entry.stats.reuses += 1;
                }
                conn
            })
        };
        if let Some(conn) = pooled {
            self.with_metrics(|m| m.reuses.inc());
            return Ok((conn, true));
        }
        Ok((self.dial(addr)?, false))
    }

    fn dial(&self, addr: SocketAddr) -> Result<(TcpLink, S)> {
        let started = Instant::now();
        let mut link = TcpLink::connect(addr, &self.opts)?;
        let preamble = Handshake::new(self.site, self.intent).encode();
        link.send_frame(0, &preamble)?;
        let elapsed = started.elapsed().as_micros() as u64;
        self.record(addr, |s| s.dials += 1);
        self.with_metrics(|m| {
            m.dials.inc();
            m.dial_micros.record(elapsed);
        });
        Ok((link, S::default()))
    }

    fn checkin(&self, addr: SocketAddr, conn: (TcpLink, S), contacts: u64, discards: u64) {
        {
            let mut peers = self.lock();
            let entry = peers.entry(addr).or_default();
            entry.stats.contacts += contacts;
            entry.stats.discards += discards;
            if entry.idle.is_none() {
                entry.idle = Some(conn);
            }
            // else: a concurrent contact already re-pooled a connection
            // for this peer; the surplus socket drops here.
        }
        self.with_metrics(|m| {
            m.contacts.add(contacts);
            m.discards.add(discards);
        });
    }

    fn record(&self, addr: SocketAddr, f: impl FnOnce(&mut PoolStats)) {
        let mut peers = self.lock();
        f(&mut peers.entry(addr).or_default().stats);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SocketAddr, PeerEntry<S>>> {
        self.peers.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrep_core::error::Error;
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

        let pool: ConnPool = ConnPool::new(3, fast_opts());
        for tag in 0..5u8 {
            pool.with_conn(addr, |link, ()| roundtrip(link, tag))
                .expect("contact");
        }
        let stats = pool.stats(addr);
        assert_eq!(stats.dials, 1, "every contact must reuse the first dial");
        assert_eq!(stats.contacts, 5);
        assert_eq!(stats.discards, 0);
        assert_eq!(stats.reuses, 4, "contacts 2-5 must hit the pooled link");
        assert_eq!(stats.stale_reruns, 0);
        assert_eq!(pool.live(), 1);
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
        let pool: ConnPool<u32> = ConnPool::new(3, fast_opts());
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
        let stats = pool.stats(addr);
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
    fn attached_metrics_mirror_the_stats_counters() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = echo_server(listener);

        let registry = optrep_core::obs::MetricsRegistry::new();
        let pool: ConnPool = ConnPool::new(3, fast_opts());
        pool.set_metrics(PoolMetrics::register(&registry, "optrep_pool"));
        for tag in 0..3u8 {
            pool.with_conn(addr, |link, ()| roundtrip(link, tag))
                .expect("contact");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("optrep_pool_dials_total"), Some(1));
        assert_eq!(snap.counter("optrep_pool_contacts_total"), Some(3));
        assert_eq!(snap.counter("optrep_pool_reuses_total"), Some(2));
        assert_eq!(snap.counter("optrep_pool_discards_total"), Some(0));
        let dial = snap.histogram("optrep_pool_dial_micros").unwrap();
        assert_eq!(dial.count, 1, "one dial, one latency sample");
        pool.clear();
        drop(pool);
        let _ = std::net::TcpStream::connect(addr);
        let _ = std::net::TcpStream::connect(addr);
        let _ = server.join();
    }

    #[test]
    fn dial_failure_propagates_without_retry_storm() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let pool: ConnPool = ConnPool::new(0, fast_opts());
        let err = pool
            .with_conn(addr, |_, ()| Ok(()))
            .expect_err("nothing listens there");
        assert!(matches!(err, Error::ConnectionLost { .. }));
        assert_eq!(pool.stats(addr).dials, 0);
    }

    #[test]
    fn handshake_version_negotiation_is_checked() {
        // A wire-level sanity pin: the pool's preamble decodes to the
        // current version and Peer intent on the receiving side.
        let hs = Handshake::new(12, Intent::Peer);
        let mut buf = hs.encode();
        let decoded = Handshake::decode(&mut buf).expect("decode");
        assert_eq!(decoded.site, 12);
        assert_eq!(decoded.intent, Intent::Peer);
        let _ = HANDSHAKE_VERSION;
        let _ = wire::HANDSHAKE_MAGIC;
    }
}
