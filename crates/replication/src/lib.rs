//! Optimistic replication substrate.
//!
//! This crate implements the system model of §2.1 around the algorithms of
//! `optrep-core`: participating [`site::Site`]s host at most one replica
//! per object, update them independently, and synchronize pairwise through
//! opportunistic [`session`]s. Conflicts (concurrent updates) are detected
//! syntactically via the replica metadata and either *excluded* for manual
//! resolution (BRV systems) or *reconciled* automatically (CRV/SRV and the
//! full-vector baseline).
//!
//! Two transfer models are provided:
//!
//! * **State transfer** ([`site`], [`session`], [`gossip`]): the entire
//!   object payload overwrites the peer's replica on synchronization;
//!   metadata is one rotating vector per replica.
//! * **Operation transfer** ([`oplog`]): each replica logs operations in a
//!   causal graph and ships only missing operations via `SYNCG`.
//!
//! Everything is deterministic given a seeded RNG, and every sync reports
//! byte-accurate costs, which the `optrep-bench` harness aggregates into
//! the paper's tables and figures.

pub mod engine;
pub mod gossip;
pub mod meta;
pub mod mux;
pub mod object;
pub mod oplog;
pub mod payload;
pub mod planner;
pub mod protocol;
pub mod reconcile;
pub mod session;
pub mod site;

pub use engine::{Attempt, ContactEnv, ContactOptions, Gossip, Host, RoundReport};
pub use gossip::{Cluster, ClusterSnapshot};
pub use meta::ReplicaMeta;
pub use mux::{
    classify, pull_contact, pull_planned, reason_label, run_contact, serve_contact, serve_frame,
    serve_from, BatchPullClient, BatchPullServer, ContactAnswer, ContactAsk, ContactReport,
    ContactSource, CtrlMsg, Faulted, FrameBytes, InProcessLink, MuxMsg, Puller, Restricted,
    ServeStep, Serving, StreamResult, CONTROL_STREAM,
};
pub use object::ObjectId;
pub use oplog::OpReplica;
pub use planner::{
    decide, Candidates, ChildDigests, Cut, Decision, DigestDelta, DigestVector, Offer, PlanConfig,
    Proposal, ShardAction, ShardDigest, ShardPlan, ShardScope, VectorMemory, JOURNAL_CAP,
};
// Re-exported so callers of `Faulted` can name the fault types without
// depending on `optrep-net` directly.
pub use optrep_net::{mix_seed, FaultPlan, FaultStats, FaultyLink, TransmitOutcome};
pub use payload::{ReplicaPayload, TokenSet};
pub use protocol::{apply_pull, PullClient, PullOutcome, PullServer, SessionMsg};
pub use reconcile::{PickReceiver, PickSender, Reconciler, UnionReconciler};
pub use session::{sync_replica, Outcome, SessionReport};
pub use site::{Site, SiteStats, StateReplica};
