//! Transports for `optrep` synchronization protocols.
//!
//! The protocol endpoints in `optrep-core` are sans-io state machines;
//! this crate supplies the machinery that moves their messages:
//!
//! * [`sim`] — a deterministic discrete-event network simulator with
//!   per-link latency and bandwidth, virtual time in nanoseconds, and
//!   byte-accurate accounting. This is the substrate for the paper's
//!   pipelining experiments (completion-time `(k−1)·rtt` savings, β
//!   excess bytes).
//! * [`mem`] — a threaded in-memory transport built on crossbeam
//!   channels: the same endpoints run under real concurrency, which
//!   exercises the asynchronous-NAK paths with genuine interleaving.
//! * [`link`] — the shared byte counters used by both transports.
//! * [`fault`] — deterministic seeded fault injection ([`FaultyLink`]):
//!   frame drops, mid-write truncation, byte-exact disconnects and
//!   silent stalls, for chaos experiments and recovery tests.
//! * [`tcp`] — real sockets: [`TcpLink`] moves the same wire frames
//!   over a `std::net::TcpStream` with deadlines, bounded connect
//!   retry and graceful FIN, for daemon deployments (`optrepd`).
//! * [`pool`] — persistent peer connections: [`ConnPool`] keeps one
//!   long-lived handshaken [`TcpLink`] per peer so successive contacts
//!   pipeline over the same socket, with stale-connection redial folded
//!   into the callers' retry machinery.
//! * [`reactor`] (unix) — readiness primitives (`poll(2)` binding and a
//!   cross-thread [`reactor::Waker`]) for the daemon's event-driven
//!   connection core.

pub mod fault;
pub mod link;
pub mod mem;
pub mod pool;
#[cfg(unix)]
pub mod reactor;
pub mod sim;
pub mod tcp;

pub use fault::{FaultPlan, FaultStats, FaultyLink, TransmitOutcome};
pub use link::LinkStats;
pub use optrep_core::rng::mix_seed;
pub use pool::{ConnPool, PoolMetrics, PoolStats};
pub use sim::{SimConfig, SimLink, SimReport};
pub use tcp::{ConnectOptions, FrameLink, TcpLink};
