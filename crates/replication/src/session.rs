//! Pairwise replica synchronization sessions.
//!
//! [`sync_replica`] implements one opportunistic synchronization of §2.1:
//! the destination site compares metadata with the source (O(1) for
//! rotating vectors), then fast-forwards, reconciles, or records a
//! conflict, running the scheme's incremental sync protocol and shipping
//! the payload when needed. Every session returns a byte-accurate
//! [`SessionReport`].

use crate::meta::ReplicaMeta;
use crate::object::ObjectId;
use crate::payload::ReplicaPayload;
use crate::reconcile::Reconciler;
use crate::site::{ConflictRecord, Site, StateReplica};
use optrep_core::obs::{self, SessionTotals};
use optrep_core::sync::SyncReport;
use optrep_core::{obs_emit, Causality, Result};

/// What a synchronization session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The source site hosts no replica of the object: nothing to do.
    SourceMissing,
    /// The destination had no replica; the whole replica (payload and
    /// metadata) was copied over.
    ReplicaCreated,
    /// The replicas were already identical.
    AlreadyEqual,
    /// The destination causally preceded the source: metadata synced
    /// incrementally, payload overwritten (state transfer).
    FastForwarded,
    /// The destination was already ahead; nothing transferred beyond the
    /// comparison.
    AlreadyAhead,
    /// Concurrent replicas were reconciled automatically (metadata synced,
    /// payloads merged, post-reconciliation update recorded per Parker §C).
    Reconciled,
    /// Concurrent replicas in a manual-resolution system: the conflict was
    /// recorded and the replicas left untouched (BRV, §3.1).
    ConflictExcluded,
}

impl Outcome {
    /// Stable snake_case label, used for event outcomes.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::SourceMissing => "source_missing",
            Outcome::ReplicaCreated => "replica_created",
            Outcome::AlreadyEqual => "equal",
            Outcome::FastForwarded => "fast_forwarded",
            Outcome::AlreadyAhead => "already_ahead",
            Outcome::Reconciled => "reconciled",
            Outcome::ConflictExcluded => "conflict_excluded",
        }
    }
}

/// Byte-accurate account of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// What happened.
    pub outcome: Outcome,
    /// Bytes spent on the metadata comparison exchange.
    pub compare_bytes: usize,
    /// The metadata sync report, when a sync protocol ran.
    pub meta: Option<SyncReport>,
    /// Payload bytes shipped (whole object for state transfer).
    pub payload_bytes: usize,
}

impl SessionReport {
    fn comparison_only(outcome: Outcome, compare_bytes: usize) -> Self {
        SessionReport {
            outcome,
            compare_bytes,
            meta: None,
            payload_bytes: 0,
        }
    }

    /// Total bytes the session put on the wire.
    pub fn total_bytes(&self) -> usize {
        self.compare_bytes + self.meta.map(|m| m.total_bytes()).unwrap_or(0) + self.payload_bytes
    }

    /// The session's costs as one absorbed counter delta.
    pub fn totals(&self) -> SessionTotals {
        let mut t = self.meta.map(|m| m.totals()).unwrap_or(SessionTotals {
            sessions: 1,
            ..SessionTotals::default()
        });
        t.compare_bytes = self.compare_bytes as u64;
        t.payload_bytes = self.payload_bytes as u64;
        t
    }
}

/// Synchronizes `dst`'s replica of `object` with `src`'s (`SYNC*_src(dst)`:
/// only the destination is modified).
///
/// Concurrent replicas are reconciled with `reconciler` when the metadata
/// scheme supports it, and recorded as conflicts for manual resolution
/// otherwise.
///
/// # Errors
///
/// Propagates protocol errors from the metadata sync.
pub fn sync_replica<M, P, R>(
    dst: &mut Site<M, P>,
    src: &Site<M, P>,
    object: ObjectId,
    reconciler: &R,
) -> Result<SessionReport>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P> + ?Sized,
{
    let scope = obs::session_scope(M::NAME);
    let report = sync_replica_inner(dst, src, object, reconciler)?;
    scope.close(report.outcome.label(), report.totals());
    Ok(report)
}

fn sync_replica_inner<M, P, R>(
    dst: &mut Site<M, P>,
    src: &Site<M, P>,
    object: ObjectId,
    reconciler: &R,
) -> Result<SessionReport>
where
    M: ReplicaMeta,
    P: ReplicaPayload,
    R: Reconciler<P> + ?Sized,
{
    let Some(src_replica) = src.replica(object) else {
        return Ok(SessionReport::comparison_only(Outcome::SourceMissing, 0));
    };
    dst.stats_mut().syncs_received += 1;

    if dst.replica(object).is_none() {
        // Initial replication to a new site: the entire replica travels.
        let payload_bytes = src_replica.payload.encoded_len() + meta_full_size(&src_replica.meta);
        dst.insert_replica(
            object,
            StateReplica {
                meta: src_replica.meta.clone(),
                payload: src_replica.payload.clone(),
            },
        );
        return Ok(SessionReport {
            outcome: Outcome::ReplicaCreated,
            compare_bytes: 0,
            meta: None,
            payload_bytes,
        });
    }

    let dst_id = dst.id();
    let replica = dst.replica_mut(object).expect("checked above");
    let relation = replica.meta.compare(&src_replica.meta);
    // For the traditional baseline the whole-vector exchange *is* the
    // comparison; charging a separate comparison would double-count.
    let compare_bytes = if M::COMPARE_IS_SYNC {
        0
    } else {
        replica.meta.compare_cost_bytes(&src_replica.meta)
    };
    obs_emit!(obs::SyncEvent::Compare {
        session: obs::current_session(),
        relation,
        // For the baseline the relation *is* the O(n) comparison; attaching
        // it as its own oracle would be vacuous.
        oracle: if !M::COMPARE_IS_SYNC && obs::wants_oracle() {
            Some(replica.meta.values().compare(&src_replica.meta.values()))
        } else {
            None
        },
        cost_bytes: compare_bytes as u64,
    });

    match relation {
        Causality::Equal | Causality::After if M::COMPARE_IS_SYNC => {
            // The baseline still shipped the entire vector to find out
            // nothing was needed (merging it is a no-op).
            let meta_report = replica.meta.sync_from(&src_replica.meta)?;
            Ok(SessionReport {
                outcome: if relation == Causality::Equal {
                    Outcome::AlreadyEqual
                } else {
                    Outcome::AlreadyAhead
                },
                compare_bytes: 0,
                meta: Some(meta_report),
                payload_bytes: 0,
            })
        }
        Causality::Equal => Ok(SessionReport::comparison_only(
            Outcome::AlreadyEqual,
            compare_bytes,
        )),
        Causality::After => Ok(SessionReport::comparison_only(
            Outcome::AlreadyAhead,
            compare_bytes,
        )),
        Causality::Before => {
            let meta_report = replica.meta.sync_from(&src_replica.meta)?;
            replica.payload = src_replica.payload.clone();
            Ok(SessionReport {
                outcome: Outcome::FastForwarded,
                compare_bytes,
                meta: Some(meta_report),
                payload_bytes: src_replica.payload.encoded_len(),
            })
        }
        Causality::Concurrent => {
            if M::SUPPORTS_RECONCILIATION {
                obs_emit!(obs::SyncEvent::Reconcile {
                    session: obs::current_session(),
                    decision: "merged".into(),
                });
                let meta_report = replica.meta.sync_from(&src_replica.meta)?;
                replica.payload = reconciler.merge(&replica.payload, &src_replica.payload);
                // Parker §C: the site increments its own value after
                // synchronizing with a concurrent vector; this restores the
                // front-element invariant for the O(1) COMPARE.
                replica.meta.record_update(dst_id);
                let stats = dst.stats_mut();
                stats.reconciliations += 1;
                stats.updates += 1;
                Ok(SessionReport {
                    outcome: Outcome::Reconciled,
                    compare_bytes,
                    meta: Some(meta_report),
                    payload_bytes: src_replica.payload.encoded_len(),
                })
            } else {
                obs_emit!(obs::SyncEvent::Reconcile {
                    session: obs::current_session(),
                    decision: "excluded".into(),
                });
                dst.record_conflict(ConflictRecord {
                    object,
                    with: src.id(),
                });
                Ok(SessionReport::comparison_only(
                    Outcome::ConflictExcluded,
                    compare_bytes,
                ))
            }
        }
    }
}

/// Approximate wire size of a whole metadata structure, used only when a
/// brand-new replica is created (the entire vector must travel once).
fn meta_full_size<M: ReplicaMeta>(meta: &M) -> usize {
    meta.values()
        .iter()
        .map(|(s, v)| {
            optrep_core::wire::varint_len(u64::from(s.index())) + optrep_core::wire::varint_len(v)
        })
        .sum::<usize>()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::TokenSet;
    use crate::reconcile::UnionReconciler;
    use optrep_core::{Brv, SiteId, Srv};

    fn obj() -> ObjectId {
        ObjectId::new(1)
    }

    fn two_sites<M: ReplicaMeta>() -> (Site<M, TokenSet>, Site<M, TokenSet>) {
        let mut a: Site<M, TokenSet> = Site::new(SiteId::new(0));
        let b: Site<M, TokenSet> = Site::new(SiteId::new(1));
        a.create_object(obj(), TokenSet::singleton("init"));
        (a, b)
    }

    #[test]
    fn replica_created_on_new_site() {
        let (a, mut b) = two_sites::<Srv>();
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::ReplicaCreated);
        assert!(report.payload_bytes > 0);
        assert_eq!(
            b.replica(obj()).unwrap().payload,
            a.replica(obj()).unwrap().payload
        );
    }

    #[test]
    fn source_missing_is_a_noop() {
        let (mut a, b) = two_sites::<Srv>();
        let report = sync_replica(&mut a, &b, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::SourceMissing);
        assert_eq!(report.total_bytes(), 0);
    }

    #[test]
    fn fast_forward_ships_payload_and_delta() {
        let (mut a, mut b) = two_sites::<Srv>();
        sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        a.update(obj(), |p| {
            p.insert("A:1");
        });
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::FastForwarded);
        assert!(b.replica(obj()).unwrap().payload.contains("A:1"));
        let meta = report.meta.unwrap();
        assert_eq!(meta.receiver.delta, 1);
        // Repeat: now equal.
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::AlreadyEqual);
        // Reverse direction: a is not behind b.
        let report = sync_replica(&mut a, &b, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::AlreadyEqual);
    }

    #[test]
    fn concurrent_updates_reconcile_with_srv() {
        let (mut a, mut b) = two_sites::<Srv>();
        sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        a.update(obj(), |p| {
            p.insert("A:1");
        });
        b.update(obj(), |p| {
            p.insert("B:1");
        });
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::Reconciled);
        let rb = b.replica(obj()).unwrap();
        assert!(rb.payload.contains("A:1") && rb.payload.contains("B:1"));
        // Parker §C: b incremented its own value after reconciliation, so
        // b now strictly dominates a.
        let ra = a.replica(obj()).unwrap();
        assert_eq!(ra.meta.compare(&rb.meta), optrep_core::Causality::Before);
        assert_eq!(b.stats().reconciliations, 1);
        // The follow-up sync a ← b fast-forwards a.
        let report = sync_replica(&mut a, &b, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::FastForwarded);
        assert_eq!(
            a.replica(obj()).unwrap().payload,
            b.replica(obj()).unwrap().payload
        );
    }

    #[test]
    fn concurrent_updates_excluded_with_brv() {
        let (mut a, mut b) = two_sites::<Brv>();
        sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        a.update(obj(), |p| {
            p.insert("A:1");
        });
        b.update(obj(), |p| {
            p.insert("B:1");
        });
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::ConflictExcluded);
        assert_eq!(b.conflicts().len(), 1);
        assert!(
            !b.replica(obj()).unwrap().payload.contains("A:1"),
            "excluded replicas stay untouched"
        );
        // Manual resolution: adopt a's replica wholesale.
        let winner = a.replica(obj()).unwrap().clone();
        b.resolve_adopt(obj(), &winner);
        assert!(b.conflicts().is_empty());
        assert_eq!(
            b.replica(obj()).unwrap().meta.compare(&winner.meta),
            optrep_core::Causality::Equal
        );
    }

    #[test]
    fn already_ahead_costs_only_compare() {
        let (a, mut b) = two_sites::<Srv>();
        sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        b.update(obj(), |p| {
            p.insert("B:1");
        });
        let report = sync_replica(&mut b, &a, obj(), &UnionReconciler).unwrap();
        assert_eq!(report.outcome, Outcome::AlreadyAhead);
        assert!(report.meta.is_none());
        assert_eq!(report.payload_bytes, 0);
        assert!(report.compare_bytes > 0);
    }
}
