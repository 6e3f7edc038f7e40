//! Causal graphs for operation-transfer systems (§6).
//!
//! One vector per replica is not sufficient for operation transfer:
//! systems like Bayou or distributed revision control need the causal
//! relations *between operations* for fine-grained conflict resolution,
//! operational transformation, or three-way merging. Each replica carries
//! a [`CausalGraph`]: a DAG whose nodes are operations; a node has one
//! parent if it was executed on top of its predecessor, and two parents if
//! it reconciles two conflicting histories.
//!
//! Replica comparison is O(1) amortized (hash lookups of the sinks, §6),
//! and [`syncg`] implements the paper's optimal incremental exchange that
//! transfers only the graph difference.

pub mod full;
pub mod syncg;

pub use syncg::{sync_graph, GraphMsg, GraphReport, SyncGReceiver, SyncGSender};

use crate::causality::Causality;
use crate::error::WireError;
use crate::site::SiteId;
use crate::wire;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of an operation (a causal-graph node).
///
/// Identifiers pack the originating site and a per-site sequence number,
/// which makes them globally unique without coordination.
///
/// ```
/// use optrep_core::graph::NodeId;
/// use optrep_core::SiteId;
/// let id = NodeId::of(SiteId::new(3), 7);
/// assert_eq!(id.site(), SiteId::new(3));
/// assert_eq!(id.seq(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Builds an identifier from an originating site and a per-site
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `seq ≥ 2³²` — per-site operation counts beyond four
    /// billion are outside this implementation's domain.
    pub fn of(site: SiteId, seq: u32) -> Self {
        NodeId(u64::from(site.index()) << 32 | u64::from(seq))
    }

    /// The raw packed value (used by the wire format).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an identifier from its raw packed value.
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }

    /// The originating site.
    pub const fn site(self) -> SiteId {
        SiteId::new((self.0 >> 32) as u32)
    }

    /// The per-site sequence number.
    pub const fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.site(), self.seq())
    }
}

/// The (up to two) parents of a causal-graph node. A node with no parents
/// is the source; one parent means a plain successor operation; two
/// parents mean a reconciliation of two histories. By the paper's
/// convention, a single parent is always the *left* one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Parents {
    /// The left parent (`LP(i)`).
    pub left: Option<NodeId>,
    /// The right parent (`RP(i)`), present only for reconciliation nodes.
    pub right: Option<NodeId>,
}

impl Parents {
    /// No parents (source node).
    pub const NONE: Parents = Parents {
        left: None,
        right: None,
    };

    /// Single-parent constructor.
    pub fn one(left: NodeId) -> Self {
        Parents {
            left: Some(left),
            right: None,
        }
    }

    /// Double-parent (reconciliation) constructor.
    pub fn two(left: NodeId, right: NodeId) -> Self {
        Parents {
            left: Some(left),
            right: Some(right),
        }
    }

    /// Iterates over the present parents.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        self.left.into_iter().chain(self.right)
    }

    /// Wire size of the parent block (presence byte + varints).
    pub fn encoded_len(&self) -> usize {
        1 + self
            .iter()
            .map(|p| wire::varint_len(p.raw()))
            .sum::<usize>()
    }
}

/// A replica's causal graph: operations and their causal arcs, plus the
/// replica's *sink* (the latest operation executed on it, called the
/// graph's `head` here to avoid confusion with the transient multi-sink
/// states during synchronization).
///
/// ```
/// use optrep_core::graph::{CausalGraph, NodeId};
/// use optrep_core::{SiteId, Causality};
/// let site = SiteId::new(0);
/// let mut g = CausalGraph::new();
/// let root = NodeId::of(site, 0);
/// g.record_root(root);
/// let op1 = NodeId::of(site, 1);
/// g.record_op(op1);
/// assert_eq!(g.head(), Some(op1));
/// assert_eq!(g.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalGraph {
    nodes: HashMap<NodeId, Parents>,
    source: Option<NodeId>,
    head: Option<NodeId>,
}

impl CausalGraph {
    /// Creates an empty graph (no operations yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the object-creating operation. All replicas of an object
    /// share this source node (§6: "causal graphs of the same object share
    /// at least the same source node").
    ///
    /// # Panics
    ///
    /// Panics if the graph already has nodes.
    pub fn record_root(&mut self, id: NodeId) {
        assert!(self.nodes.is_empty(), "root must be the first node");
        self.nodes.insert(id, Parents::NONE);
        self.source = Some(id);
        self.head = Some(id);
    }

    /// Records an operation executed on top of the replica's current head.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty (record a root first) or if `id` is
    /// already present (operation ids must be unique).
    pub fn record_op(&mut self, id: NodeId) {
        let head = self.head.expect("record_root first");
        let prev = self.nodes.insert(id, Parents::one(head));
        assert!(prev.is_none(), "operation id {id} already recorded");
        self.head = Some(id);
    }

    /// Records a reconciliation operation merging the replica's current
    /// head with `other`, which must already be in the graph (synchronize
    /// the graphs first, then reconcile).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty, `other` is absent, or `id` is already
    /// present.
    pub fn record_merge(&mut self, id: NodeId, other: NodeId) {
        let head = self.head.expect("record_root first");
        assert!(
            self.nodes.contains_key(&other),
            "merge parent {other} not in graph"
        );
        let prev = self.nodes.insert(id, Parents::two(head, other));
        assert!(prev.is_none(), "operation id {id} already recorded");
        self.head = Some(id);
    }

    /// Inserts a node received from a peer, without touching the head.
    /// Used by the synchronization receiver; parents need not be present
    /// yet (the reverse DFS delivers children before parents).
    pub fn insert_remote(&mut self, id: NodeId, parents: Parents) {
        self.nodes.entry(id).or_insert(parents);
        if self.source.is_none() && parents == Parents::NONE {
            self.source = Some(id);
        }
    }

    /// Moves the replica's head (after reconciliation decides the new
    /// latest operation).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn set_head(&mut self, id: NodeId) {
        assert!(self.nodes.contains_key(&id), "head {id} not in graph");
        self.head = Some(id);
    }

    /// The replica's latest operation (the sink of this replica's graph).
    pub fn head(&self) -> Option<NodeId> {
        self.head
    }

    /// The object-creating operation.
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// Number of operations in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of arcs (parent links).
    pub fn arc_count(&self) -> usize {
        self.nodes.values().map(|p| p.iter().count()).sum()
    }

    /// O(1) membership test (hash lookup).
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// The parents of `id`, if present.
    pub fn parents(&self, id: NodeId) -> Option<Parents> {
        self.nodes.get(&id).copied()
    }

    /// Iterates `(id, parents)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Parents)> + '_ {
        self.nodes.iter().map(|(&id, &p)| (id, p))
    }

    /// Replica comparison (§6): heads are looked up in each other's graph.
    /// `self ≺ other` iff `other` contains our head but not vice versa.
    pub fn compare(&self, other: &CausalGraph) -> Causality {
        match (self.head, other.head) {
            (None, None) => Causality::Equal,
            (None, Some(_)) => Causality::Before,
            (Some(_), None) => Causality::After,
            (Some(h_a), Some(h_b)) => {
                let a_known = other.contains(h_a);
                let b_known = self.contains(h_b);
                match (a_known, b_known) {
                    (true, true) => Causality::Equal,
                    (true, false) => Causality::Before,
                    (false, true) => Causality::After,
                    (false, false) => Causality::Concurrent,
                }
            }
        }
    }

    /// All ancestors of `id` (excluding `id`), by reverse traversal.
    pub fn ancestors(&self, id: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeId> = self
            .parents(id)
            .map(|p| p.iter().collect())
            .unwrap_or_default();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                if let Some(p) = self.parents(n) {
                    stack.extend(p.iter());
                }
            }
        }
        seen
    }

    /// `true` iff every node of `other` (and its arcs) is present here.
    pub fn contains_graph(&self, other: &CausalGraph) -> bool {
        other.iter().all(|(id, p)| self.parents(id) == Some(p))
    }

    /// Serializes the graph (nodes, arcs and head) into a compact snapshot
    /// for durable persistence.
    pub fn encode_snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        wire::put_varint(&mut buf, self.nodes.len() as u64);
        let mut nodes: Vec<_> = self.iter().collect();
        nodes.sort_unstable_by_key(|(id, _)| *id);
        for (id, parents) in nodes {
            wire::put_varint(&mut buf, id.raw());
            let presence =
                u8::from(parents.left.is_some()) | u8::from(parents.right.is_some()) << 1;
            buf.put_u8(presence);
            for p in parents.iter() {
                wire::put_varint(&mut buf, p.raw());
            }
        }
        match self.head {
            Some(head) => {
                buf.put_u8(1);
                wire::put_varint(&mut buf, head.raw());
            }
            None => buf.put_u8(0),
        }
        buf.freeze()
    }

    /// Rebuilds a graph from [`encode_snapshot`](Self::encode_snapshot)
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    pub fn decode_snapshot(buf: &mut Bytes) -> Result<CausalGraph, WireError> {
        let n = wire::get_varint(buf)? as usize;
        let mut graph = CausalGraph::new();
        for _ in 0..n {
            let id = NodeId::from_raw(wire::get_varint(buf)?);
            if !buf.has_remaining() {
                return Err(WireError::UnexpectedEof);
            }
            let presence = buf.get_u8();
            let left = (presence & 1 == 1)
                .then(|| wire::get_varint(buf).map(NodeId::from_raw))
                .transpose()?;
            let right = (presence & 2 == 2)
                .then(|| wire::get_varint(buf).map(NodeId::from_raw))
                .transpose()?;
            graph.insert_remote(id, Parents { left, right });
        }
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        if buf.get_u8() == 1 {
            let head = NodeId::from_raw(wire::get_varint(buf)?);
            if !graph.contains(head) {
                return Err(WireError::UnexpectedEof);
            }
            graph.head = Some(head);
        }
        Ok(graph)
    }

    /// Checks structural invariants: a unique source, every referenced
    /// parent present, and every node reachable from the head by reverse
    /// traversal... except nodes above merged-away branches, which remain
    /// reachable through merge nodes. Returns a list of violations (empty
    /// when healthy).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut sources = 0;
        for (id, parents) in self.iter() {
            if parents == Parents::NONE {
                sources += 1;
            }
            for p in parents.iter() {
                if !self.contains(p) {
                    problems.push(format!("node {id} references missing parent {p}"));
                }
            }
            if parents.left.is_none() && parents.right.is_some() {
                problems.push(format!("node {id} has a right parent but no left parent"));
            }
        }
        if !self.is_empty() && sources != 1 {
            problems.push(format!("expected exactly one source, found {sources}"));
        }
        if let Some(head) = self.head {
            if !self.contains(head) {
                problems.push(format!("head {head} not in graph"));
            } else {
                let reachable = self.ancestors(head).len() + 1;
                if reachable != self.len() {
                    problems.push(format!(
                        "{} of {} nodes reachable from head {head}",
                        reachable,
                        self.len()
                    ));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::of(SiteId::new(0), i)
    }

    fn chain(len: u32) -> CausalGraph {
        let mut g = CausalGraph::new();
        g.record_root(n(0));
        for i in 1..len {
            g.record_op(n(i));
        }
        g
    }

    #[test]
    fn node_id_packs_site_and_seq() {
        let id = NodeId::of(SiteId::new(7), 42);
        assert_eq!(id.site(), SiteId::new(7));
        assert_eq!(id.seq(), 42);
        assert_eq!(NodeId::from_raw(id.raw()), id);
        assert_eq!(id.to_string(), "H#42");
    }

    #[test]
    fn record_chain() {
        let g = chain(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.arc_count(), 3);
        assert_eq!(g.head(), Some(n(3)));
        assert_eq!(g.source(), Some(n(0)));
        assert_eq!(g.parents(n(2)), Some(Parents::one(n(1))));
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn record_merge_makes_double_parent() {
        let mut g = chain(2);
        // A divergent node 10 merged into the chain.
        g.insert_remote(n(10), Parents::one(n(0)));
        g.record_merge(n(2), n(10));
        assert_eq!(g.parents(n(2)), Some(Parents::two(n(1), n(10))));
        assert_eq!(g.head(), Some(n(2)));
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    #[should_panic(expected = "already recorded")]
    fn duplicate_op_rejected() {
        let mut g = chain(2);
        g.record_op(n(1));
    }

    #[test]
    #[should_panic(expected = "root must be the first node")]
    fn double_root_rejected() {
        let mut g = chain(1);
        g.record_root(n(9));
    }

    #[test]
    fn compare_all_outcomes() {
        let a = chain(3);
        let b = chain(5);
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
        assert_eq!(a.compare(&a.clone()), Causality::Equal);
        let mut c = chain(2);
        c.record_op(NodeId::of(SiteId::new(1), 0));
        assert_eq!(a.compare(&c), Causality::Concurrent);
        assert_eq!(CausalGraph::new().compare(&a), Causality::Before);
        assert_eq!(
            CausalGraph::new().compare(&CausalGraph::new()),
            Causality::Equal
        );
    }

    #[test]
    fn ancestors_follow_both_parents() {
        let mut g = chain(2); // 0 → 1
        g.insert_remote(n(10), Parents::one(n(0)));
        g.record_merge(n(2), n(10)); // parents 1 and 10
        let anc = g.ancestors(n(2));
        assert_eq!(
            anc,
            HashSet::from([n(0), n(1), n(10)]),
            "both branches covered"
        );
    }

    #[test]
    fn contains_graph_is_subgraph_test() {
        let small = chain(2);
        let big = chain(4);
        assert!(big.contains_graph(&small));
        assert!(!small.contains_graph(&big));
    }

    #[test]
    fn snapshot_roundtrip_preserves_graph() {
        let mut g = chain(5);
        g.insert_remote(NodeId::of(SiteId::new(1), 0), Parents::one(n(1)));
        g.record_merge(n(9), NodeId::of(SiteId::new(1), 0));
        let mut buf = g.encode_snapshot();
        let decoded = CausalGraph::decode_snapshot(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(decoded, g);
        assert_eq!(decoded.head(), g.head());
        assert_eq!(decoded.source(), g.source());
    }

    #[test]
    fn snapshot_of_empty_graph() {
        let mut buf = CausalGraph::new().encode_snapshot();
        let decoded = CausalGraph::decode_snapshot(&mut buf).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.head(), None);
    }

    #[test]
    fn truncated_graph_snapshot_rejected() {
        let bytes = chain(3).encode_snapshot();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(CausalGraph::decode_snapshot(&mut buf).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn validate_flags_missing_parent() {
        let mut g = CausalGraph::new();
        g.insert_remote(n(1), Parents::one(n(0))); // parent 0 never inserted
        g.set_head(n(1));
        let problems = g.validate();
        assert!(problems.iter().any(|p| p.contains("missing parent")));
    }

    #[test]
    fn validate_flags_unreachable_nodes() {
        let mut g = chain(2);
        g.insert_remote(NodeId::of(SiteId::new(5), 0), Parents::NONE);
        let problems = g.validate();
        assert!(!problems.is_empty());
    }
}
