//! Real-socket transport: framed TCP links for daemon deployments.
//!
//! [`TcpLink`] carries the same `core::wire` frames as the in-memory
//! transports, but over a `std::net::TcpStream`: length-prefixed frames
//! are written with one `write_all` per frame and reassembled on the far
//! side through the same [`FrameDecoder`] the fault-injected paths use,
//! so partial reads, coalesced writes and mid-frame cuts all land on
//! code paths the chaos suite already exercises.
//!
//! Failure vocabulary matches the rest of the repo: a read/write timeout
//! surfaces as [`Error::Incomplete`] (the contact stalled), while EOF,
//! reset, or any other socket error surfaces as [`Error::ConnectionLost`]
//! with the byte count received so far — exactly the sequence-gap
//! semantics the transactional apply paths were built against, so a
//! dropped connection aborts a contact cleanly instead of hanging or
//! corrupting staged state.

use crate::link::LinkStats;
use optrep_core::error::{Error, Result};
use optrep_core::wire::{self, FrameDecoder};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Protocol label used in [`Error::Incomplete`] for socket stalls.
const PROTOCOL: &str = "tcp link";

/// Connection policy for [`TcpLink::connect`]: bounded retry with capped
/// exponential backoff plus per-socket read/write deadlines.
///
/// The defaults mirror the retry shape of `replication::engine`'s gossip
/// rounds (3 attempts, capped exponential backoff) scaled to wall-clock
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Total connect attempts before giving up (≥ 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-read deadline once connected (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Per-write deadline once connected (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            attempts: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

impl ConnectOptions {
    /// Defaults: 3 attempts, 25 ms → 400 ms backoff, 5 s deadlines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the connect attempt budget (clamped to ≥ 1).
    #[must_use]
    pub fn attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets the backoff schedule (`base` doubling up to `cap`).
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets both socket deadlines (`None` blocks forever).
    #[must_use]
    pub fn timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Backoff before retry `attempt` (0-based), capped.
    fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// A framed, byte-counted TCP connection.
///
/// This is the socket-facing sibling of the in-memory drive paths: it
/// moves whole [`wire::Frame`]s, counts every byte in both directions,
/// and reports failures in the shared [`Error`] vocabulary so callers
/// (the mux contact drivers, the daemon) keep their transactional
/// abort discipline unchanged.
#[derive(Debug)]
pub struct TcpLink {
    stream: TcpStream,
    decoder: FrameDecoder,
    stats: LinkStats,
}

impl TcpLink {
    /// Dials `addr` with `opts`'s retry schedule and deadlines.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConnectionLost`] once every attempt has failed
    /// (connection refused, unreachable, …), with zero bytes on record.
    pub fn connect(addr: SocketAddr, opts: &ConnectOptions) -> Result<TcpLink> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..opts.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(opts.backoff_for(attempt - 1));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => return TcpLink::from_stream(stream, opts),
                Err(e) => last = Some(e),
            }
        }
        let _ = last;
        Err(Error::ConnectionLost { after_bytes: 0 })
    }

    /// Wraps an accepted or connected stream, applying `opts`'s
    /// deadlines and disabling Nagle (the protocols are latency-bound
    /// request/response exchanges, not bulk transfers).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConnectionLost`] if the socket options cannot
    /// be applied (the peer vanished between accept and setup).
    pub fn from_stream(stream: TcpStream, opts: &ConnectOptions) -> Result<TcpLink> {
        let setup = stream
            .set_read_timeout(opts.read_timeout)
            .and_then(|()| stream.set_write_timeout(opts.write_timeout))
            .and_then(|()| stream.set_nodelay(true));
        if setup.is_err() {
            return Err(Error::ConnectionLost { after_bytes: 0 });
        }
        Ok(TcpLink {
            stream,
            decoder: FrameDecoder::new(),
            stats: LinkStats::new(),
        })
    }

    /// Bytes written to the socket so far.
    pub fn bytes_tx(&self) -> u64 {
        self.stats.bytes_ab as u64
    }

    /// Bytes read from the socket so far.
    pub fn bytes_rx(&self) -> u64 {
        self.stats.bytes_ba as u64
    }

    /// The peer's address, if the socket still knows it.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// Maps a socket error at this link's current receive count:
    /// timeouts are stalls ([`Error::Incomplete`]), everything else is
    /// a dead connection.
    fn map_io(&self, e: &std::io::Error) -> Error {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => Error::Incomplete { protocol: PROTOCOL },
            _ => Error::ConnectionLost {
                after_bytes: self.bytes_rx(),
            },
        }
    }

    /// Writes pre-encoded frame bytes (one or more whole frames).
    ///
    /// # Errors
    ///
    /// [`Error::Incomplete`] on a write timeout, [`Error::ConnectionLost`]
    /// on any other socket error.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream.write_all(bytes).map_err(|e| self.map_io(&e))?;
        self.stats.record_ab(bytes.len());
        Ok(())
    }

    /// Encodes and writes one frame.
    ///
    /// # Errors
    ///
    /// As [`Self::send_bytes`].
    pub fn send_frame(&mut self, stream: u64, payload: &[u8]) -> Result<()> {
        let mut buf =
            bytes::BytesMut::with_capacity(wire::Frame::encoded_len(stream, payload.len()));
        wire::put_frame(&mut buf, stream, payload);
        self.send_bytes(&buf)
    }

    /// Blocks until one whole frame has been reassembled. Before each
    /// blocking read it polls the socket for up to
    /// [`SPIN_BUDGET`](crate::reactor::SPIN_BUDGET) (on unix), so a
    /// reply that comes back within it costs no sleep and wake.
    ///
    /// # Errors
    ///
    /// [`Error::Incomplete`] on a read timeout, [`Error::ConnectionLost`]
    /// on EOF or reset (including EOF that strands a partial frame in
    /// the decoder), and [`Error::Wire`] on a malformed header.
    pub fn recv_frame(&mut self) -> Result<wire::Frame> {
        let mut buf = [0u8; wire::READ_CHUNK];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            // Poll briefly before the read sleeps: a reply that lands
            // within the spin is read without a wake. The read itself
            // stays blocking, so its deadline and EOF are as before,
            // and a spin that fails only means the read sleeps.
            #[cfg(unix)]
            let _ = crate::reactor::spin_readable(self.stream.as_raw_fd());
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(Error::ConnectionLost {
                        after_bytes: self.bytes_rx(),
                    })
                }
                Ok(n) => {
                    self.stats.record_ba(n);
                    self.decoder.push(&buf[..n]);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.map_io(&e)),
            }
        }
    }

    /// Sends a graceful FIN: the peer's next read sees EOF and takes the
    /// sequence-gap/connection-lost path instead of waiting out its read
    /// deadline. Best-effort — a link being torn down has nothing left
    /// to report.
    pub fn fin(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// The frame-transport interface the mux contact drivers are generic
/// over: anything that can move whole frames and signal a graceful end
/// of transmission can carry a batched contact.
///
/// [`TcpLink`] is the socket implementation; tests pair the drivers
/// over in-memory implementations to prove byte-identity against the
/// lockstep runner without opening sockets.
pub trait FrameLink {
    /// Writes pre-encoded frame bytes (one or more whole frames).
    ///
    /// # Errors
    ///
    /// Transport-defined; see [`TcpLink::send_bytes`] for the socket
    /// vocabulary.
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()>;

    /// Blocks until one whole frame is available.
    ///
    /// # Errors
    ///
    /// Transport-defined; see [`TcpLink::recv_frame`].
    fn recv_frame(&mut self) -> Result<wire::Frame>;

    /// Signals end of transmission (best-effort, infallible).
    fn fin(&mut self);
}

impl FrameLink for TcpLink {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        TcpLink::send_bytes(self, bytes)
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        TcpLink::recv_frame(self)
    }

    fn fin(&mut self) {
        TcpLink::fin(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn fast_opts() -> ConnectOptions {
        ConnectOptions::new()
            .attempts(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(2))
            .timeouts(
                Some(Duration::from_millis(200)),
                Some(Duration::from_millis(200)),
            )
    }

    #[test]
    fn frames_roundtrip_over_loopback() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || -> Result<()> {
            let (stream, _) = listener.accept().expect("accept");
            let mut link = TcpLink::from_stream(stream, &fast_opts())?;
            loop {
                match link.recv_frame() {
                    Ok(frame) => link.send_frame(frame.stream, &frame.payload)?,
                    Err(Error::ConnectionLost { .. }) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        for stream in [1u64, 7, 300] {
            let payload = vec![stream as u8; stream as usize % 50];
            link.send_frame(stream, &payload)?;
            let echoed = link.recv_frame()?;
            assert_eq!(echoed.stream, stream);
            assert_eq!(&echoed.payload[..], &payload[..]);
        }
        assert!(link.bytes_tx() > 0 && link.bytes_rx() > 0);
        assert_eq!(link.bytes_tx(), link.bytes_rx());
        drop(link);
        server.join().expect("server thread")?;
        Ok(())
    }

    #[test]
    fn connect_refused_is_connection_lost() {
        // Bind-then-drop yields a port nothing listens on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let err = TcpLink::connect(addr, &fast_opts()).expect_err("must fail");
        assert!(matches!(err, Error::ConnectionLost { after_bytes: 0 }));
    }

    #[test]
    fn read_timeout_is_incomplete() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        let (_held, _) = listener.accept().expect("accept");
        let err = link.recv_frame().expect_err("must time out");
        assert!(matches!(err, Error::Incomplete { .. }));
        Ok(())
    }

    #[test]
    fn peer_fin_mid_frame_is_connection_lost() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        let (stream, _) = listener.accept().expect("accept");
        let mut half = TcpLink::from_stream(stream, &fast_opts())?;
        // A frame header promising 100 payload bytes, then FIN: the
        // reader must report a dead connection, not hang or succeed.
        half.send_bytes(&[5u8, 100u8, 1, 2, 3])?;
        half.fin();
        let err = link.recv_frame().expect_err("must detect the cut");
        assert!(matches!(err, Error::ConnectionLost { after_bytes: 5 }));
        Ok(())
    }

    /// The spin before a read leaves the read's deadline as it was: the
    /// stall is still [`Error::Incomplete`], at about the deadline.
    #[cfg(unix)]
    #[test]
    fn a_read_deadline_after_the_spin_is_still_incomplete_at_its_deadline() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let deadline = Duration::from_millis(200);
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        let (_held, _) = listener.accept().expect("accept");
        let started = std::time::Instant::now();
        let err = link.recv_frame().expect_err("must time out");
        let took = started.elapsed();
        assert!(matches!(err, Error::Incomplete { .. }), "{err:?}");
        assert!(
            took >= deadline - Duration::from_millis(20) && took < deadline * 5,
            "timed out after {took:?}, deadline {deadline:?}"
        );
        Ok(())
    }

    /// A peer that closes without a byte ends the read in
    /// [`Error::ConnectionLost`], spin or no spin.
    #[cfg(unix)]
    #[test]
    fn eof_after_the_spin_is_connection_lost() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        let (stream, _) = listener.accept().expect("accept");
        let closer = std::thread::spawn(move || {
            std::thread::sleep(crate::reactor::SPIN_BUDGET + Duration::from_millis(5));
            drop(stream);
        });
        let err = link.recv_frame().expect_err("must see the close");
        assert!(
            matches!(err, Error::ConnectionLost { after_bytes: 0 }),
            "{err:?}"
        );
        closer.join().expect("closer");
        Ok(())
    }

    /// A frame whose bytes land after the spin has given up — its head
    /// at once, its tail 5 ms past the budget — is read by the blocking
    /// read and reassembled whole.
    #[cfg(unix)]
    #[test]
    fn a_frame_arriving_after_the_spin_ran_out_is_reassembled() -> Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut link = TcpLink::connect(addr, &fast_opts())?;
        let (stream, _) = listener.accept().expect("accept");
        let payload: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        let mut bytes = bytes::BytesMut::new();
        wire::put_frame(&mut bytes, 9, &payload);
        let late = crate::reactor::SPIN_BUDGET + Duration::from_millis(5);
        let sender = std::thread::spawn(move || -> Result<()> {
            let mut half = TcpLink::from_stream(stream, &fast_opts())?;
            half.send_bytes(&bytes[..3])?;
            std::thread::sleep(late);
            half.send_bytes(&bytes[3..])
        });
        let frame = link.recv_frame()?;
        assert_eq!(frame.stream, 9);
        assert_eq!(&frame.payload[..], &payload[..]);
        sender.join().expect("sender")?;
        Ok(())
    }
}
