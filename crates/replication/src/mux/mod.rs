//! Multiplexed multi-object anti-entropy sessions over one framed
//! connection.
//!
//! [`crate::protocol`] synchronizes *one* object per connection: every
//! object costs its own `Hello`/`ServerFirst` exchange, so pulling `n`
//! objects costs at least `n` round trips even when almost all of them are
//! already identical. This module multiplexes an arbitrary set of objects
//! over a single connection as interleaved streams (see
//! [`optrep_core::sync::Framed`] and [`optrep_core::wire::FrameDecoder`]):
//!
//! * Each object's session is one stream; stream `0` carries connection
//!   control.
//! * All first elements travel together in one [`CtrlMsg::BatchHello`]
//!   frame and are answered by one [`CtrlMsg::BatchServerFirst`] — the
//!   comparison half-round-trip is amortized over all `n` objects while
//!   each object still pays only Algorithm 1's O(1) element exchange.
//! * Per-stream `Done` verdicts coalesce into one [`CtrlMsg::BatchDone`].
//! * Objects the client did not name can be *offered* by the server
//!   (discovery), so a contact also creates replicas the puller has never
//!   seen.
//!
//! Inside each stream the protocol is exactly [`crate::protocol`]'s: the
//! server streams `SYNCS` elements speculatively (§3.1 pipelining) and a
//! late `Done` cancels it cheaply. The result is that a batched pull of
//! `n` objects with `d` dirty ones completes in `O(1 + d/n·k)` round
//! trips instead of `Ω(n)`, with per-object `Δ`/`Γ`/`γ` accounting
//! identical to the single-object path.
//!
//! One module per machine: `msg` the frame vocabulary and turn markers;
//! `client` and `server` the two batch endpoints ([`BatchPullClient`],
//! [`BatchPullServer`] with its one-frame step [`serve_frame`]);
//! `report` what a contact cost; `puller` the pulling half of a contact
//! ([`Puller`]) and the pumps that drive it over a link; `serving` the
//! serving half of a connection ([`Serving`]) and what it asks its
//! source; `link` the in-process transport and the fault decorator.

mod client;
mod link;
mod msg;
mod puller;
mod report;
mod server;
mod serving;

pub use client::{BatchPullClient, StreamResult};
pub use link::{Faulted, InProcessLink};
pub use msg::{
    CtrlMsg, MuxMsg, StreamAnswer, StreamOffer, StreamOpen, CONTROL_STREAM, TURN_STREAM,
};
pub use puller::{pull_contact, pull_planned, run_contact, Puller, Restricted};
pub use report::{classify, reason_label, ContactReport, FrameBytes};
pub use server::{serve_frame, BatchPullServer, ServeStep};
pub use serving::{serve_contact, serve_from, ContactAnswer, ContactAsk, ContactSource, Serving};

/// The endpoints the tests of more than one machine run between.
#[cfg(test)]
mod fixtures {
    use super::{BatchPullClient, BatchPullServer};
    use bytes::Bytes;
    use optrep_core::{RotatingVector, SiteId, Srv};

    pub(super) fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    pub(super) fn name(i: usize) -> Bytes {
        Bytes::from(format!("obj{i}").into_bytes())
    }

    pub(super) fn vec_with(updates: &[u32]) -> Srv {
        let mut v = Srv::new();
        for &i in updates {
            RotatingVector::record_update(&mut v, s(i));
        }
        v
    }

    /// A client/server pair where every object has diverged (the server
    /// holds one newer update), so all streams live past the comparison
    /// phase and ship a payload.
    pub(super) fn dirty_pair(n: usize) -> (BatchPullClient, BatchPullServer) {
        let client_vecs: Vec<Srv> = (0..n).map(|i| vec_with(&[i as u32])).collect();
        let server_vecs: Vec<Srv> = client_vecs
            .iter()
            .map(|v| {
                let mut v = v.clone();
                RotatingVector::record_update(&mut v, s(30));
                v
            })
            .collect();
        let client = BatchPullClient::new(
            client_vecs
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone())),
        );
        let server = BatchPullServer::new(
            server_vecs
                .iter()
                .enumerate()
                .map(|(i, v)| (name(i), v.clone(), Bytes::from_static(b"fresh"))),
        );
        (client, server)
    }
}
