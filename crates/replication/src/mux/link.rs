//! The in-process transport, and fault injection as a decorator over
//! any link.

use super::msg::{marker_fin, put_marker, STALLED, TURN_STREAM};
use super::{serve_frame, BatchPullServer, ContactSource, Serving};
use bytes::{Buf, Bytes, BytesMut};
use optrep_core::error::{Error, Result};
use optrep_core::wire;
use optrep_net::{FaultyLink, FrameLink, TransmitOutcome};

/// The in-process transport: a [`FrameLink`] whose far end is a serving
/// step — [`serve_frame`] on a [`BatchPullServer`], or a [`Serving`]
/// with its source — run on the caller's own thread. Every frame still
/// crosses the real codec — what the puller writes is parsed back into
/// frames, what the server writes likewise — so an in-memory contact
/// exercises the same bytes a socket carries.
///
/// It behaves like a socket whose peer cuts the connection on an error:
/// what the server wrote before failing is still readable, and the
/// failure surfaces on the read that finds the buffer dry (or on the
/// write itself when nothing is buffered). A read with nothing buffered
/// and no failure pending would block forever, so it reports a stall.
#[derive(Debug)]
pub struct InProcessLink<'a> {
    far: FarEnd<'a>,
    /// Bytes the server has written and the puller has not yet read,
    /// oldest in `inbox`.
    inbox: Bytes,
    out: BytesMut,
    cut: Option<Error>,
}

/// What steps on the far side of an [`InProcessLink`].
enum FarEnd<'a> {
    Endpoint(&'a mut BatchPullServer),
    Source(Serving, &'a mut ContactSource<'a>),
}

impl std::fmt::Debug for FarEnd<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarEnd::Endpoint(server) => server.fmt(f),
            FarEnd::Source(serving, _) => serving.fmt(f),
        }
    }
}

impl<'a> InProcessLink<'a> {
    fn to(far: FarEnd<'a>) -> Self {
        InProcessLink {
            far,
            inbox: Bytes::new(),
            out: BytesMut::new(),
            cut: None,
        }
    }

    /// A link to `server`, serving one unplanned contact.
    pub fn new(server: &'a mut BatchPullServer) -> Self {
        Self::to(FarEnd::Endpoint(server))
    }

    /// A link to a [`Serving`] fed from `source`: serves planned and
    /// unplanned contacts, any number of them.
    pub fn serving(source: &'a mut ContactSource<'a>) -> Self {
        Self::to(FarEnd::Source(Serving::default(), source))
    }
}

impl FrameLink for InProcessLink<'_> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut burst = Bytes::copy_from_slice(bytes);
        while burst.has_remaining() {
            let frame = wire::get_frame(&mut burst)?;
            let step = match &mut self.far {
                FarEnd::Endpoint(server) => serve_frame(server, frame, &mut self.out),
                FarEnd::Source(serving, source) => serving.on_frame(frame, source, &mut self.out),
            };
            if let Err(e) = step {
                if self.inbox.is_empty() && self.out.is_empty() {
                    return Err(e);
                }
                self.cut = Some(e);
                break;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        if self.inbox.is_empty() {
            self.inbox = self.out.split().freeze();
        }
        if self.inbox.is_empty() {
            return Err(self.cut.take().unwrap_or(STALLED));
        }
        Ok(wire::get_frame(&mut self.inbox)?)
    }

    fn fin(&mut self) {}
}

/// Fault injection as a decorator: a [`FrameLink`] that offers every
/// frame crossing `inner`, in either direction, to a [`FaultyLink`],
/// which may deliver it, drop it, truncate it mid-write, or kill the
/// connection.
///
/// The mux rides a *reliable ordered* transport (§2.1); a dropped frame
/// is a sequence gap, and a real stack tears the connection down the
/// moment bytes arrive past the hole. Modelling that per direction is
/// what keeps loss from silently corrupting per-stream outcomes: SYNCS
/// ships fire-and-forget element frames, so a swallowed frame would
/// otherwise let both endpoints "complete" while disagreeing on what
/// was said. Turn markers are link overhead and bypass the fault plan,
/// so a plan's decision stream is consumed by protocol frames only.
///
/// A [`pull_contact`](super::pull_contact) over a faulted link fails with
/// [`Error::ConnectionLost`] on a hard cut or a detected gap and with
/// [`Error::Incomplete`] on a stall (silent death, or a dropped frame
/// starving both endpoints). The endpoints' *staged* state is abandoned
/// by the caller — transactional application is the caller's
/// discipline (see `gossip` and `KvStore::sync`) — so an aborted
/// contact leaves replica metadata untouched.
#[derive(Debug)]
pub struct Faulted<'a, L> {
    inner: L,
    faults: &'a mut FaultyLink,
    /// A frame towards the server / the puller was dropped: the next
    /// delivered one in that direction arrives past a hole.
    gap_out: bool,
    gap_in: bool,
    scratch: BytesMut,
}

impl<'a, L: FrameLink> Faulted<'a, L> {
    /// Puts `inner` under `faults`' weather.
    pub fn new(inner: L, faults: &'a mut FaultyLink) -> Self {
        Faulted {
            inner,
            faults,
            gap_out: false,
            gap_in: false,
            scratch: BytesMut::new(),
        }
    }

    /// Offers one encoded frame to the fault plan. `Ok(true)` means it
    /// arrived; `Ok(false)` that it vanished, leaving a gap in `gap`.
    fn transmit(faults: &mut FaultyLink, gap: &mut bool, frame: &[u8]) -> Result<bool> {
        match faults.transmit(frame) {
            // Bytes past a hole: the receiver detects the gap and kills
            // the connection rather than reassemble a stream with a
            // frame missing. A truncated prefix can never complete
            // either (links die for good); report the cut.
            TransmitOutcome::Delivered(_) if *gap => Err(Error::ConnectionLost {
                after_bytes: faults.stats().bytes_delivered,
            }),
            TransmitOutcome::Delivered(_) => Ok(true),
            TransmitOutcome::Dropped => {
                *gap = true;
                Ok(false)
            }
            TransmitOutcome::Died { stalled: true, .. } => Err(STALLED),
            TransmitOutcome::Died { .. } => Err(Error::ConnectionLost {
                after_bytes: faults.stats().bytes_delivered,
            }),
        }
    }
}

impl<L: FrameLink> FrameLink for Faulted<'_, L> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let mut rest = Bytes::copy_from_slice(bytes);
        while rest.has_remaining() {
            let at = bytes.len() - rest.remaining();
            let marker = wire::get_frame(&mut rest)?.stream == TURN_STREAM;
            let frame = &bytes[at..bytes.len() - rest.remaining()];
            if marker || Self::transmit(self.faults, &mut self.gap_out, frame)? {
                self.inner.send_bytes(frame)?;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<wire::Frame> {
        // A dropped answer voids the turn that carried it. Surfacing the
        // empty turn would have an idle puller report a stall; handing
        // the turn straight back lets the server's next frame arrive
        // past the hole, so the loss is detected as the gap it is.
        let mut voided = false;
        loop {
            let frame = self.inner.recv_frame()?;
            if frame.stream == TURN_STREAM {
                if voided && !marker_fin(&frame)? {
                    voided = false;
                    self.scratch.clear();
                    put_marker(&mut self.scratch, false);
                    self.inner.send_bytes(&self.scratch)?;
                    continue;
                }
                return Ok(frame);
            }
            self.scratch.clear();
            wire::put_frame(&mut self.scratch, frame.stream, &frame.payload);
            if Self::transmit(self.faults, &mut self.gap_in, &self.scratch)? {
                return Ok(frame);
            }
            voided = true;
        }
    }

    fn fin(&mut self) {
        self.inner.fin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::fixtures::dirty_pair;
    use crate::mux::{pull_contact, run_contact, BatchPullClient, ContactReport};
    use optrep_net::FaultPlan;

    /// One in-process contact under `link`'s weather.
    fn run_faulted(
        client: &mut BatchPullClient,
        server: &mut BatchPullServer,
        link: &mut FaultyLink,
    ) -> Result<ContactReport> {
        pull_contact(client, &mut Faulted::new(InProcessLink::new(server), link))
    }

    #[test]
    fn faulty_contact_with_clean_plan_matches_run_contact() {
        let (mut c1, mut s1) = dirty_pair(4);
        let (mut c2, mut s2) = dirty_pair(4);
        let reference = run_contact(&mut c1, &mut s1).unwrap();
        let mut link = FaultyLink::clean();
        let report = run_faulted(&mut c2, &mut s2, &mut link).unwrap();
        assert_eq!(report, reference, "a clean link must be transparent");
        let (r1, r2) = (c1.finish(), c2.finish());
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(
                a.outcome.as_ref().unwrap().payload,
                b.outcome.as_ref().unwrap().payload
            );
        }
        assert_eq!(link.stats().frames_delivered, reference.frames);
        assert_eq!(link.stats().bytes_delivered, reference.total_bytes);
    }

    #[test]
    fn disconnected_contact_aborts_with_connection_lost() {
        let (mut client, mut server) = dirty_pair(4);
        let mut link = FaultyLink::new(FaultPlan::disconnect_at(40));
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(
            matches!(err, Error::ConnectionLost { after_bytes: 40 }),
            "got {err:?}"
        );
        assert!(link.is_dead());
    }

    #[test]
    fn dropped_hello_starves_the_contact_into_incomplete() {
        let (mut client, mut server) = dirty_pair(2);
        // 100% drop: the BatchHello vanishes and nobody can ever answer.
        let mut link = FaultyLink::new(FaultPlan::dropping(11, 1000));
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(matches!(err, Error::Incomplete { .. }), "got {err:?}");
    }

    #[test]
    fn stalled_link_aborts_as_incomplete() {
        let (mut client, mut server) = dirty_pair(2);
        let plan = FaultPlan {
            stall_after_frames: Some(1),
            ..FaultPlan::clean()
        };
        let mut link = FaultyLink::new(plan);
        let err = run_faulted(&mut client, &mut server, &mut link).unwrap_err();
        assert!(matches!(err, Error::Incomplete { .. }), "got {err:?}");
    }
}
