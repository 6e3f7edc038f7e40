//! Operation-transfer replicas (§6).
//!
//! An [`OpReplica`] keeps a log of operations and a causal graph of their
//! relations instead of overwriting whole states: synchronization ships
//! only the missing operations (with `SYNCG` piggybacking their payloads),
//! and concurrent histories are reconciled by recording an explicit merge
//! operation with two parents — exactly how distributed revision-control
//! systems (Mercurial, Pastwatch) behave.
//!
//! The replica state is materialized by folding operation payloads in a
//! deterministic linearization of the graph (topological order with
//! smallest [`NodeId`] first), so any two replicas with equal graphs
//! materialize identically.

use bytes::{Bytes, BytesMut};
use optrep_core::error::WireError;
use optrep_core::graph::full::sync_graph_full_with_payloads;
use optrep_core::graph::{CausalGraph, GraphReport, NodeId, SyncGReceiver, SyncGSender};
use optrep_core::sync::{SyncOptions, TickHarness};
use optrep_core::{wire, Causality, Error, Result, SiteId};
use std::collections::{BTreeSet, HashMap};

/// A replica in an operation-transfer system: an operation log plus the
/// causal graph relating the operations.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReplica {
    site: SiteId,
    next_seq: u32,
    graph: CausalGraph,
    ops: HashMap<NodeId, Bytes>,
}

impl OpReplica {
    /// Creates an empty replica hosted on `site`.
    pub fn new(site: SiteId) -> Self {
        OpReplica {
            site,
            next_seq: 0,
            graph: CausalGraph::new(),
            ops: HashMap::new(),
        }
    }

    /// Creates a replica on `site` holding a full copy of `other`'s log —
    /// initial replication of an existing object.
    pub fn replica_of(site: SiteId, other: &OpReplica) -> Self {
        OpReplica {
            site,
            next_seq: 0,
            graph: other.graph.clone(),
            ops: other.ops.clone(),
        }
    }

    /// The hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Records a local operation with the given payload: the new node
    /// becomes the replica's sink. The first operation creates the object.
    pub fn record(&mut self, payload: impl Into<Bytes>) -> NodeId {
        let id = NodeId::of(self.site, self.next_seq);
        self.next_seq += 1;
        if self.graph.is_empty() {
            self.graph.record_root(id);
        } else {
            self.graph.record_op(id);
        }
        self.ops.insert(id, payload.into());
        id
    }

    /// The latest operation executed on this replica (the graph's sink).
    pub fn head(&self) -> Option<NodeId> {
        self.graph.head()
    }

    /// The causal graph.
    pub fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    /// The payload of operation `id`, if known.
    pub fn op(&self, id: NodeId) -> Option<&Bytes> {
        self.ops.get(&id)
    }

    /// Number of operations known to this replica.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` iff no operations have been recorded or received.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Replica comparison via sink lookups (§6) — O(1).
    pub fn compare(&self, other: &OpReplica) -> Causality {
        self.graph.compare(&other.graph)
    }

    /// Synchronizes this replica's log with `other`'s using the
    /// incremental `SYNCG` (the graph becomes the union; missing operation
    /// payloads ride along). If `other`'s history strictly dominates, the
    /// head fast-forwards; if the histories are concurrent, the head stays
    /// and the caller decides whether to [`reconcile`](Self::reconcile).
    ///
    /// Returns the transfer report and the causal relation found.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; rejects logs of different objects
    /// (disjoint sources).
    pub fn sync_from(&mut self, other: &OpReplica) -> Result<(GraphReport, Causality)> {
        self.sync_from_opts(other, SyncOptions::default())
    }

    /// Like [`sync_from`](Self::sync_from) with explicit transfer options.
    ///
    /// # Errors
    ///
    /// See [`sync_from`](Self::sync_from).
    pub fn sync_from_opts(
        &mut self,
        other: &OpReplica,
        opts: SyncOptions,
    ) -> Result<(GraphReport, Causality)> {
        if let (Some(sa), Some(sb)) = (self.graph.source(), other.graph.source()) {
            if sa != sb {
                return Err(Error::DisjointGraphs);
            }
        }
        let relation = self.compare(other);
        let sender = SyncGSender::with_payloads(other.graph.clone(), other.ops.clone());
        let receiver = SyncGReceiver::new(self.graph.clone());
        let mut harness = TickHarness::new(sender, receiver, opts);
        harness.run()?;
        let (tx, rx, transfer) = harness.into_parts();
        let mut report = GraphReport {
            transfer,
            nodes_sent: tx.nodes_sent(),
            nodes_added: rx.nodes_added(),
            redundant_nodes: rx.redundant_nodes(),
            skiptos: rx.skiptos_sent(),
            received: Vec::new(),
        };
        let (graph, received) = rx.finish();
        self.graph = graph;
        for (id, payload) in &received {
            self.ops.insert(*id, payload.clone());
        }
        report.received = received;
        if relation == Causality::Before {
            let head = other.head().expect("non-empty dominating history");
            self.graph.set_head(head);
        }
        Ok((report, relation))
    }

    /// Synchronizes using the traditional full-graph transfer (baseline).
    ///
    /// # Errors
    ///
    /// Rejects logs of different objects (disjoint sources).
    pub fn sync_from_full(&mut self, other: &OpReplica) -> Result<(GraphReport, Causality)> {
        let relation = self.compare(other);
        let report = sync_graph_full_with_payloads(&mut self.graph, &other.graph, &other.ops)?;
        for (id, payload) in &report.received {
            self.ops.insert(*id, payload.clone());
        }
        if relation == Causality::Before {
            let head = other.head().expect("non-empty dominating history");
            self.graph.set_head(head);
        }
        Ok((report, relation))
    }

    /// Records a reconciliation operation merging this replica's head with
    /// the (already synchronized) concurrent head `other_head`. The merge
    /// node becomes the new sink.
    ///
    /// # Panics
    ///
    /// Panics if `other_head` has not been synchronized into this graph.
    pub fn reconcile(&mut self, other_head: NodeId, payload: impl Into<Bytes>) -> NodeId {
        let id = NodeId::of(self.site, self.next_seq);
        self.next_seq += 1;
        self.graph.record_merge(id, other_head);
        self.ops.insert(id, payload.into());
        id
    }

    /// A deterministic linearization of the operations reachable from the
    /// head: topological order, smallest id first among the ready set —
    /// so two replicas with equal graphs linearize identically.
    pub fn linearize(&self) -> Vec<NodeId> {
        let Some(head) = self.graph.head() else {
            return Vec::new();
        };
        // Restrict to the head's history.
        let mut member: BTreeSet<NodeId> = self.graph.ancestors(head).into_iter().collect();
        member.insert(head);
        let mut pending: HashMap<NodeId, usize> = HashMap::new();
        let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &id in &member {
            let parents = self.graph.parents(id).expect("member of graph");
            let count = parents.iter().filter(|p| member.contains(p)).count();
            pending.insert(id, count);
            for p in parents.iter() {
                children.entry(p).or_default().push(id);
            }
        }
        let mut ready: BTreeSet<NodeId> = member
            .iter()
            .copied()
            .filter(|id| pending[id] == 0)
            .collect();
        let mut order = Vec::with_capacity(member.len());
        while let Some(&id) = ready.iter().next() {
            ready.remove(&id);
            order.push(id);
            for &child in children.get(&id).into_iter().flatten() {
                let left = pending.get_mut(&child).expect("member of graph");
                *left -= 1;
                if *left == 0 {
                    ready.insert(child);
                }
            }
        }
        order
    }

    /// Serializes the whole replica (site, sequence counter, graph and
    /// operation payloads) into a compact snapshot for durable storage.
    pub fn encode_snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        wire::put_varint(&mut buf, u64::from(self.site.index()));
        wire::put_varint(&mut buf, u64::from(self.next_seq));
        let graph = self.graph.encode_snapshot();
        wire::put_bytes(&mut buf, &graph);
        wire::put_varint(&mut buf, self.ops.len() as u64);
        let mut ops: Vec<_> = self.ops.iter().collect();
        ops.sort_unstable_by_key(|(id, _)| **id);
        for (id, payload) in ops {
            wire::put_varint(&mut buf, id.raw());
            wire::put_bytes(&mut buf, payload);
        }
        buf.freeze()
    }

    /// Rebuilds a replica from [`encode_snapshot`](Self::encode_snapshot)
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    pub fn decode_snapshot(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        let site = wire::get_site(buf)?;
        let next_seq = wire::get_u32(buf)?;
        let mut graph_bytes = wire::get_bytes(buf)?;
        let graph = CausalGraph::decode_snapshot(&mut graph_bytes)?;
        let n = wire::get_varint(buf)? as usize;
        let mut ops = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = NodeId::from_raw(wire::get_varint(buf)?);
            let payload = wire::get_bytes(buf)?;
            ops.insert(id, payload);
        }
        Ok(OpReplica {
            site,
            next_seq,
            graph,
            ops,
        })
    }

    /// The operation payloads in [`linearize`](Self::linearize) order —
    /// the replica's materialized state.
    pub fn materialize(&self) -> Vec<Bytes> {
        self.linearize()
            .into_iter()
            .map(|id| self.ops.get(&id).cloned().unwrap_or_default())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn record_and_materialize() {
        let mut r = OpReplica::new(s(0));
        r.record("create");
        r.record("edit 1");
        r.record("edit 2");
        assert_eq!(r.len(), 3);
        let state = r.materialize();
        assert_eq!(state.len(), 3);
        assert_eq!(state[0], Bytes::from_static(b"create"));
        assert_eq!(state[2], Bytes::from_static(b"edit 2"));
    }

    #[test]
    fn fast_forward_sync() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        let mut b = OpReplica::replica_of(s(1), &a);
        b.record("b edit");
        let (report, relation) = a.sync_from(&b).unwrap();
        assert_eq!(relation, Causality::Before);
        assert_eq!(report.nodes_added, 1);
        assert_eq!(a.head(), b.head(), "head fast-forwarded");
        assert_eq!(a.materialize(), b.materialize());
    }

    #[test]
    fn concurrent_histories_reconcile() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        let mut b = OpReplica::replica_of(s(1), &a);
        a.record("a edit");
        b.record("b edit");
        let (_, relation) = a.sync_from(&b).unwrap();
        assert_eq!(relation, Causality::Concurrent);
        // a's head unchanged; the merge op reconciles.
        let merge = a.reconcile(b.head().unwrap(), "merge");
        assert_eq!(a.head(), Some(merge));
        assert!(
            a.graph().validate().is_empty(),
            "{:?}",
            a.graph().validate()
        );
        // b then fast-forwards to a's merged history.
        let (_, relation) = b.sync_from(&a).unwrap();
        assert_eq!(relation, Causality::Before);
        assert_eq!(b.head(), Some(merge));
        assert_eq!(a.materialize(), b.materialize());
    }

    #[test]
    fn incremental_sync_matches_full_sync() {
        let build = || {
            let mut a = OpReplica::new(s(0));
            a.record("create");
            for i in 0..20 {
                a.record(format!("a{i}"));
            }
            let mut b = OpReplica::replica_of(s(1), &a);
            b.record("b0");
            b.record("b1");
            (a, b)
        };
        let (mut a1, b) = build();
        let (inc, _) = a1.sync_from(&b).unwrap();
        let (mut a2, b) = build();
        let (full, _) = a2.sync_from_full(&b).unwrap();
        assert_eq!(a1.graph(), a2.graph());
        assert_eq!(a1.materialize(), a2.materialize());
        assert!(
            full.transfer.bytes_forward > 3 * inc.transfer.bytes_forward,
            "full {} vs incremental {}",
            full.transfer.bytes_forward,
            inc.transfer.bytes_forward
        );
    }

    #[test]
    fn linearization_is_replica_independent() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        let mut b = OpReplica::replica_of(s(1), &a);
        a.record("a1");
        b.record("b1");
        b.record("b2");
        a.sync_from(&b).unwrap();
        let m = a.reconcile(b.head().unwrap(), "merge");
        b.sync_from(&a).unwrap();
        assert_eq!(b.head(), Some(m));
        assert_eq!(a.linearize(), b.linearize());
    }

    #[test]
    fn disjoint_objects_rejected() {
        let mut a = OpReplica::new(s(0));
        a.record("objA");
        let mut b = OpReplica::new(s(1));
        b.record("objB");
        assert!(matches!(a.sync_from(&b), Err(Error::DisjointGraphs)));
        assert!(matches!(a.sync_from_full(&b), Err(Error::DisjointGraphs)));
    }

    #[test]
    fn snapshot_roundtrip_preserves_replica() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        let mut b = OpReplica::replica_of(s(1), &a);
        a.record("a1");
        b.record("b1");
        a.sync_from(&b).unwrap();
        a.reconcile(b.head().unwrap(), "merge");
        let mut buf = a.encode_snapshot();
        let decoded = OpReplica::decode_snapshot(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(decoded, a);
        assert_eq!(decoded.materialize(), a.materialize());
        // The restored replica keeps minting fresh, non-colliding ids.
        let mut decoded = decoded;
        let id = decoded.record("post-restore");
        assert!(!a.graph().contains(id));
    }

    #[test]
    fn a_site_or_sequence_above_u32_is_refused_not_truncated() {
        let mut a = OpReplica::new(s(1));
        a.record("create");
        let honest = a.encode_snapshot();
        assert_eq!(honest[..2], [1, 1], "site 1, next sequence 1");
        let mut above = BytesMut::new();
        wire::put_varint(&mut above, (1 << 32) + 1);
        // Truncated, both would decode as the honest image.
        for at in [0, 1] {
            let mut hostile = BytesMut::new();
            hostile.extend_from_slice(&honest[..at]);
            hostile.extend_from_slice(&above);
            hostile.extend_from_slice(&honest[at + 1..]);
            assert_eq!(
                OpReplica::decode_snapshot(&mut hostile.freeze()).err(),
                Some(WireError::InvalidPayload),
                "field {at}"
            );
        }
    }

    #[test]
    fn truncated_replica_snapshot_rejected() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        let bytes = a.encode_snapshot();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(OpReplica::decode_snapshot(&mut buf).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_replica_pulls_everything() {
        let mut a = OpReplica::new(s(0));
        a.record("create");
        a.record("x");
        let mut fresh = OpReplica::new(s(2));
        let (report, relation) = fresh.sync_from(&a).unwrap();
        assert_eq!(relation, Causality::Before);
        assert_eq!(report.nodes_added, 2);
        assert_eq!(fresh.head(), a.head());
        assert_eq!(fresh.materialize(), a.materialize());
    }
}
