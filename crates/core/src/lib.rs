//! Rotating version vectors and incremental causal-graph synchronization.
//!
//! This crate implements the concurrency-control algorithms of Wang & Amza,
//! *On Optimal Concurrency Control for Optimistic Replication* (ICDCS 2009):
//!
//! * [`VersionVector`] — classic version vectors (Parker et al.) with the
//!   traditional full-vector exchange as a baseline,
//! * [`Brv`] — *basic rotating vectors* (§3.1): a version vector paired with
//!   a total order of its elements, giving an O(1) [`Brv::compare`] and the
//!   incremental [`sync`] protocol `SYNCB` that transfers only changed
//!   elements,
//! * [`Crv`] — *conflict rotating vectors* (§3.2): BRV plus a conflict bit
//!   per element so that concurrent vectors can be reconciled (`SYNCC`),
//! * [`Srv`] — *skip rotating vectors* (§4): CRV plus a segment bit per
//!   element, letting `SYNCS` skip whole segments the receiver already
//!   knows and meet the paper's `Ω(|Δ|+γ)` lower bound,
//! * [`graph`] — causal graphs for operation-transfer systems and the
//!   incremental `SYNCG` exchange (§6) that ships only the graph difference.
//!
//! All synchronization protocols are implemented as transport-agnostic
//! ("sans-io") state machines in [`sync`] and [`graph::syncg`]; drive them
//! with the lockstep driver in [`sync::drive`], or with the simulated /
//! threaded transports in the `optrep-net` crate. Every message has a
//! compact varint [`wire`] encoding so that communication costs are measured
//! in real encoded bytes.
//!
//! # Quick example
//!
//! ```
//! use optrep_core::{Srv, SiteId, Causality, RotatingVector, sync};
//!
//! let (a, b) = (SiteId::new(0), SiteId::new(1));
//! let mut va = Srv::new();
//! let mut vb = Srv::new();
//! va.record_update(a); // A:1
//! vb.record_update(b); // B:1
//! assert_eq!(va.compare(&vb), Causality::Concurrent);
//!
//! // Reconcile: synchronize va with vb (va becomes the element-wise max) …
//! let report = sync::drive::sync_srv(&mut va, &vb).expect("protocol runs to completion");
//! assert_eq!(va.value(a), 1);
//! assert_eq!(va.value(b), 1);
//! // … and record the post-reconciliation update (Parker §C).
//! va.record_update(a);
//! assert_eq!(vb.compare(&va), Causality::Before);
//! assert!(report.bytes_forward > 0);
//! ```

pub mod causality;
pub mod compare;
pub mod error;
pub mod graph;
pub mod obs;
pub mod order;
pub mod rng;
pub mod rotating;
pub mod site;
pub mod sync;
pub mod vv;
pub mod wire;

pub use causality::Causality;
pub use error::{Error, Result};
pub use rotating::{Brv, Crv, RotatingVector, Srv};
pub use site::SiteId;
pub use vv::VersionVector;
