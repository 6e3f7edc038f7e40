//! Algorithm 5 — `SYNCG_b(a)`: incremental causal-graph synchronization.
//!
//! The sender runs a depth-first search over its graph from the sink,
//! in the reverse direction of the arcs, streaming each node with its
//! parent links (and, optionally, the operation payload). When the
//! receiver sees a node it already has, it knows the node's entire
//! ancestry is present too, so it asks the sender to abandon the current
//! branch and *skip to* the next branch the receiver actually needs — the
//! top of a stack mirroring the sender's DFS stack that keeps only nodes
//! the receiver lacks.
//!
//! Communication is `O(|V_b \ V_a| + |A_b \ A_a|)` plus one overlapping
//! node per abandoned branch — optimal (§6.1).
//!
//! One case the paper leaves implicit: when the receiver's mirror stack is
//! *empty* at abandon time, every remaining branch start is already known
//! to the receiver, so the entire remainder of the sender's DFS is
//! redundant. The receiver then sends [`GraphMsg::SkipToEnd`], an O(1)
//! message that drains the sender's stack. (Without it, a receiver that is
//! a superset of the sender would sit silently while the sender streams
//! its whole graph.)

use crate::error::{Error, Result, WireError};
use crate::graph::{CausalGraph, NodeId, Parents};
use crate::obs;
use crate::sync::drive::lockstep;
use crate::sync::{Endpoint, ProtocolMsg, SyncReport, WireMsg};
use crate::wire;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{HashMap, HashSet, VecDeque};

/// A message of the `SYNCG` protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphMsg {
    /// One DFS-visited node: its id, parent links and (possibly empty)
    /// operation payload.
    Node {
        /// The operation id `i`.
        id: NodeId,
        /// `LP(i)` and `RP(i)`.
        parents: Parents,
        /// Operation payload piggybacked for the replication layer
        /// (empty when the caller registered none).
        payload: Bytes,
    },
    /// Receiver → sender: abandon the current branch and continue from
    /// `id`, which the receiver popped from its mirror stack.
    SkipTo {
        /// The node the receiver expects the next branch to start from.
        id: NodeId,
    },
    /// Receiver → sender: every remaining branch is already known; drain
    /// the stack and halt.
    SkipToEnd,
    /// Terminates the protocol (sent by either side).
    Halt,
}

const TAG_NODE: u8 = 0x11;
const TAG_SKIP_TO: u8 = 0x12;
const TAG_SKIP_TO_END: u8 = 0x13;
const TAG_G_HALT: u8 = 0x14;

impl WireMsg for GraphMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GraphMsg::Node {
                id,
                parents,
                payload,
            } => {
                buf.put_u8(TAG_NODE);
                wire::put_varint(buf, id.raw());
                let presence =
                    u8::from(parents.left.is_some()) | u8::from(parents.right.is_some()) << 1;
                buf.put_u8(presence);
                for p in parents.iter() {
                    wire::put_varint(buf, p.raw());
                }
                wire::put_bytes(buf, payload);
            }
            GraphMsg::SkipTo { id } => {
                buf.put_u8(TAG_SKIP_TO);
                wire::put_varint(buf, id.raw());
            }
            GraphMsg::SkipToEnd => buf.put_u8(TAG_SKIP_TO_END),
            GraphMsg::Halt => buf.put_u8(TAG_G_HALT),
        }
    }

    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        match buf.get_u8() {
            TAG_NODE => {
                let id = NodeId::from_raw(wire::get_varint(buf)?);
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let presence = buf.get_u8();
                if presence > 3 {
                    return Err(WireError::InvalidPayload);
                }
                let left = (presence & 1 == 1)
                    .then(|| wire::get_varint(buf).map(NodeId::from_raw))
                    .transpose()?;
                let right = (presence & 2 == 2)
                    .then(|| wire::get_varint(buf).map(NodeId::from_raw))
                    .transpose()?;
                let payload = wire::get_bytes(buf)?;
                Ok(GraphMsg::Node {
                    id,
                    parents: Parents { left, right },
                    payload,
                })
            }
            TAG_SKIP_TO => Ok(GraphMsg::SkipTo {
                id: NodeId::from_raw(wire::get_varint(buf)?),
            }),
            TAG_SKIP_TO_END => Ok(GraphMsg::SkipToEnd),
            TAG_G_HALT => Ok(GraphMsg::Halt),
            other => Err(WireError::UnknownTag(other)),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            GraphMsg::Node {
                id,
                parents,
                payload,
            } => {
                wire::varint_len(id.raw()) + parents.encoded_len() + wire::bytes_len(payload.len())
            }
            GraphMsg::SkipTo { id } => wire::varint_len(id.raw()),
            GraphMsg::SkipToEnd | GraphMsg::Halt => 0,
        }
    }
}

impl ProtocolMsg for GraphMsg {
    fn is_payload(&self) -> bool {
        matches!(self, GraphMsg::Node { .. })
    }

    fn is_nak(&self) -> bool {
        matches!(
            self,
            GraphMsg::SkipTo { .. } | GraphMsg::SkipToEnd | GraphMsg::Halt
        )
    }
}

/// Sender endpoint for `SYNCG_b(a)`: streams graph `b` by reverse DFS from
/// its head ("On b's hosting site").
#[derive(Debug, Clone)]
pub struct SyncGSender {
    graph: CausalGraph,
    payloads: HashMap<NodeId, Bytes>,
    visited: HashSet<NodeId>,
    stack: Vec<NodeId>,
    outbox: VecDeque<GraphMsg>,
    done: bool,
    nodes_sent: usize,
}

impl SyncGSender {
    /// Creates a sender for graph `b` with no operation payloads.
    pub fn new(graph: CausalGraph) -> Self {
        Self::with_payloads(graph, HashMap::new())
    }

    /// Creates a sender that piggybacks `payloads[id]` on each node
    /// message (ids without an entry ship an empty payload).
    pub fn with_payloads(graph: CausalGraph, payloads: HashMap<NodeId, Bytes>) -> Self {
        let stack = graph.head().into_iter().collect();
        SyncGSender {
            graph,
            payloads,
            visited: HashSet::new(),
            stack,
            outbox: VecDeque::new(),
            done: false,
            nodes_sent: 0,
        }
    }

    /// Reclaims the (unmodified) graph.
    pub fn into_graph(self) -> CausalGraph {
        self.graph
    }

    /// Number of node messages emitted.
    pub fn nodes_sent(&self) -> usize {
        self.nodes_sent
    }
}

impl Endpoint for SyncGSender {
    type Msg = GraphMsg;

    fn poll_send(&mut self) -> Option<GraphMsg> {
        loop {
            if let Some(m) = self.outbox.pop_front() {
                return Some(m);
            }
            if self.done {
                return None;
            }
            match self.stack.pop() {
                None => {
                    self.outbox.push_back(GraphMsg::Halt);
                    self.done = true;
                }
                Some(id) => {
                    if self.visited.insert(id) {
                        let parents = self
                            .graph
                            .parents(id)
                            .expect("stack holds only graph nodes");
                        let payload = self.payloads.get(&id).cloned().unwrap_or_default();
                        self.outbox.push_back(GraphMsg::Node {
                            id,
                            parents,
                            payload,
                        });
                        self.nodes_sent += 1;
                        // Push RP then LP so the left parent is processed
                        // next (Alg. 5 lines 8–9).
                        if let Some(rp) = parents.right {
                            self.stack.push(rp);
                        }
                        if let Some(lp) = parents.left {
                            self.stack.push(lp);
                        }
                    }
                    // Already-visited nodes are silently dropped.
                }
            }
        }
    }

    fn on_receive(&mut self, msg: GraphMsg) -> Result<()> {
        if self.done {
            return Ok(());
        }
        match msg {
            GraphMsg::SkipTo { id } => {
                // Rewind only if the node has not been sent yet (Alg. 5
                // lines 11–12); a visited target means the request is stale.
                if !self.visited.contains(&id) {
                    while let Some(&top) = self.stack.last() {
                        if top == id {
                            return Ok(());
                        }
                        self.stack.pop();
                    }
                    return Err(Error::SkipToUnknownNode);
                }
                Ok(())
            }
            GraphMsg::SkipToEnd => {
                self.stack.clear();
                Ok(())
            }
            GraphMsg::Halt => {
                self.done = true;
                self.outbox.clear();
                Ok(())
            }
            other => Err(Error::UnexpectedMessage {
                protocol: "SYNCG",
                message: format!("{other:?} at sender"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        self.done && self.outbox.is_empty()
    }
}

/// Receiver endpoint for `SYNCG_b(a)`: owns graph `a` and extends it to
/// the union of `a` and `b`.
#[derive(Debug, Clone)]
pub struct SyncGReceiver {
    graph: CausalGraph,
    /// The mirroring stack `s′`: pending right parents the receiver lacks.
    mirror: Vec<NodeId>,
    skipping: bool,
    outbox: VecDeque<GraphMsg>,
    done: bool,
    /// Newly added nodes, in arrival order, with their payloads.
    received: Vec<(NodeId, Bytes)>,
    nodes_seen: usize,
    redundant_nodes: usize,
    skiptos_sent: usize,
}

impl SyncGReceiver {
    /// Creates a receiver for graph `a`.
    pub fn new(graph: CausalGraph) -> Self {
        SyncGReceiver {
            graph,
            mirror: Vec::new(),
            skipping: false,
            outbox: VecDeque::new(),
            done: false,
            received: Vec::new(),
            nodes_seen: 0,
            redundant_nodes: 0,
            skiptos_sent: 0,
        }
    }

    /// Consumes the receiver, returning the union graph and the newly
    /// received `(id, payload)` pairs in arrival order (children before
    /// parents).
    pub fn finish(self) -> (CausalGraph, Vec<(NodeId, Bytes)>) {
        (self.graph, self.received)
    }

    /// Nodes received that were already present (`1` per abandoned
    /// branch in the ideal regime).
    pub fn redundant_nodes(&self) -> usize {
        self.redundant_nodes
    }

    /// Nodes added to the graph.
    pub fn nodes_added(&self) -> usize {
        self.received.len()
    }

    /// `SKIPTO`/`SKIPTOEND` messages sent.
    pub fn skiptos_sent(&self) -> usize {
        self.skiptos_sent
    }
}

impl Endpoint for SyncGReceiver {
    type Msg = GraphMsg;

    fn poll_send(&mut self) -> Option<GraphMsg> {
        self.outbox.pop_front()
    }

    fn on_receive(&mut self, msg: GraphMsg) -> Result<()> {
        if self.done {
            return Ok(());
        }
        match msg {
            GraphMsg::Node {
                id,
                parents,
                payload,
            } => {
                self.nodes_seen += 1;
                crate::obs_emit!(obs::SyncEvent::GraphNode {
                    session: obs::current_session(),
                    value: id.raw(),
                    applied: !self.graph.contains(id),
                });
                if self.graph.contains(id) {
                    self.redundant_nodes += 1;
                    if !self.skipping {
                        self.skipping = true;
                        self.skiptos_sent += 1;
                        match self.mirror.pop() {
                            Some(next) => self.outbox.push_back(GraphMsg::SkipTo { id: next }),
                            None => self.outbox.push_back(GraphMsg::SkipToEnd),
                        }
                    }
                } else {
                    self.skipping = false;
                    if self.mirror.last() == Some(&id) {
                        self.mirror.pop();
                    }
                    self.graph.insert_remote(id, parents);
                    self.received.push((id, payload));
                    if let Some(rp) = parents.right {
                        // Mirror keeps only nodes we do not have (§6.1).
                        if !self.graph.contains(rp) {
                            self.mirror.push(rp);
                        }
                    }
                }
                Ok(())
            }
            GraphMsg::Halt => {
                self.done = true;
                Ok(())
            }
            other => Err(Error::UnexpectedMessage {
                protocol: "SYNCG",
                message: format!("{other:?} at receiver"),
            }),
        }
    }

    fn is_done(&self) -> bool {
        self.done && self.outbox.is_empty()
    }
}

/// Byte-accurate account of one graph synchronization, plus the payloads
/// received for newly added operations.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    /// The underlying transfer report (bytes and messages).
    pub transfer: SyncReport,
    /// Node messages the sender emitted.
    pub nodes_sent: usize,
    /// Nodes that were new to the receiver (`|V_b \ V_a|`).
    pub nodes_added: usize,
    /// Nodes received redundantly (the per-branch overlap).
    pub redundant_nodes: usize,
    /// `SKIPTO`/`SKIPTOEND` messages sent by the receiver.
    pub skiptos: usize,
    /// Payloads of the newly added operations, in arrival order.
    pub received: Vec<(NodeId, Bytes)>,
}

/// Runs `SYNCG_b(a)` to completion in the ideal lockstep regime: `a`
/// becomes the union of the two graphs.
///
/// # Errors
///
/// Returns [`Error::DisjointGraphs`] if both graphs are non-empty but
/// share no source node, and propagates protocol errors.
pub fn sync_graph(a: &mut CausalGraph, b: &CausalGraph) -> Result<GraphReport> {
    if let (Some(sa), Some(sb)) = (a.source(), b.source()) {
        if sa != sb {
            return Err(Error::DisjointGraphs);
        }
    }
    let scope = obs::session_scope("SYNCG");
    let (tx, rx, transfer) = lockstep(SyncGSender::new(b.clone()), SyncGReceiver::new(a.clone()))?;
    scope.close("synced", transfer.totals());
    let mut report = GraphReport {
        transfer,
        nodes_sent: tx.nodes_sent(),
        nodes_added: rx.nodes_added(),
        redundant_nodes: rx.redundant_nodes(),
        skiptos: rx.skiptos_sent(),
        received: Vec::new(),
    };
    let (graph, received) = rx.finish();
    *a = graph;
    report.received = received;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteId;

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
    fn graph_msgs_roundtrip() {
        let msgs = [
            GraphMsg::Node {
                id: n(3),
                parents: Parents::NONE,
                payload: Bytes::new(),
            },
            GraphMsg::Node {
                id: n(3),
                parents: Parents::one(n(2)),
                payload: Bytes::from_static(b"op"),
            },
            GraphMsg::Node {
                id: n(3),
                parents: Parents::two(n(1), n(2)),
                payload: Bytes::from_static(b"merge payload"),
            },
            GraphMsg::SkipTo { id: n(7) },
            GraphMsg::SkipToEnd,
            GraphMsg::Halt,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            let mut buf = bytes;
            assert_eq!(GraphMsg::decode(&mut buf).unwrap(), msg);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn sync_extends_chain() {
        let mut a = chain(2);
        let b = chain(6);
        let report = sync_graph(&mut a, &b).unwrap();
        assert_eq!(a.len(), 6);
        assert!(a.contains_graph(&b));
        assert_eq!(report.nodes_added, 4);
        // Ideal regime: 4 missing + 1 overlap.
        assert_eq!(report.nodes_sent, 5);
        assert_eq!(report.redundant_nodes, 1);
    }

    #[test]
    fn sync_into_superset_transfers_one_node() {
        let mut a = chain(6);
        let b = chain(3);
        let report = sync_graph(&mut a, &b).unwrap();
        assert_eq!(a.len(), 6, "unchanged");
        assert_eq!(report.nodes_added, 0);
        assert_eq!(
            report.nodes_sent, 1,
            "only the sink crosses before SkipToEnd"
        );
        assert_eq!(report.skiptos, 1);
    }

    #[test]
    fn sync_merges_concurrent_branches() {
        // a: 0→1→2; b: 0→1→10→11 (diverged after 1).
        let mut a = chain(3);
        let mut b = chain(2);
        b.record_op(n(10));
        b.record_op(n(11));
        let report = sync_graph(&mut a, &b).unwrap();
        assert!(a.contains(n(2)) && a.contains(n(11)));
        assert_eq!(a.len(), 5);
        assert_eq!(report.nodes_added, 2);
        // The receiver's head is untouched by graph sync; reconciliation
        // is the replication layer's job.
        assert_eq!(a.head(), Some(n(2)));
    }

    #[test]
    fn sync_handles_double_parent_nodes() {
        // b has a merge node: 0→1, 0→10, {1,10}→2, 2→3.
        let mut b = chain(2);
        b.insert_remote(n(10), Parents::one(n(0)));
        b.record_merge(n(2), n(10));
        b.record_op(n(3));
        assert!(b.validate().is_empty());

        let mut a = chain(2); // has 0→1
        let report = sync_graph(&mut a, &b).unwrap();
        assert!(a.contains_graph(&b));
        assert_eq!(report.nodes_added, 3, "10, 2, 3");
        // a ≺ b: the replication layer fast-forwards the head, after which
        // every node is reachable again.
        a.set_head(n(3));
        assert!(a.validate().is_empty(), "{:?}", a.validate());
    }

    #[test]
    fn payloads_ride_along() {
        let mut a = chain(1);
        let b = chain(3);
        let payloads = HashMap::from([
            (n(1), Bytes::from_static(b"one")),
            (n(2), Bytes::from_static(b"two")),
        ]);
        let sender = SyncGSender::with_payloads(b.clone(), payloads);
        let mut receiver = SyncGReceiver::new(a.clone());
        let mut sender = sender;
        // Lockstep by hand.
        loop {
            let mut progress = false;
            while let Some(m) = receiver.poll_send() {
                sender.on_receive(m).unwrap();
                progress = true;
            }
            if let Some(m) = sender.poll_send() {
                receiver.on_receive(m).unwrap();
                progress = true;
            }
            if sender.is_done() && receiver.is_done() {
                break;
            }
            assert!(progress);
        }
        let (graph, received) = receiver.finish();
        a = graph;
        assert_eq!(a.len(), 3);
        let got: HashMap<NodeId, Bytes> = received.into_iter().collect();
        assert_eq!(got[&n(2)], Bytes::from_static(b"two"));
        assert_eq!(got[&n(1)], Bytes::from_static(b"one"));
    }

    #[test]
    fn disjoint_graphs_rejected() {
        let mut a = chain(2);
        let mut b = CausalGraph::new();
        b.record_root(NodeId::of(SiteId::new(9), 0));
        assert!(matches!(sync_graph(&mut a, &b), Err(Error::DisjointGraphs)));
    }

    #[test]
    fn empty_receiver_gets_whole_graph() {
        let mut a = CausalGraph::new();
        let b = chain(4);
        let report = sync_graph(&mut a, &b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(report.nodes_added, 4);
        assert_eq!(a.source(), b.source());
        // Head is still unset on a — the replication layer adopts b's.
        assert_eq!(a.head(), None);
    }

    #[test]
    fn empty_sender_sends_nothing() {
        let mut a = chain(3);
        let b = CausalGraph::new();
        let report = sync_graph(&mut a, &b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(report.nodes_sent, 0);
    }

    #[test]
    fn stale_skipto_at_sender_is_ignored() {
        let mut sender = SyncGSender::new(chain(3));
        // Visit everything.
        let mut msgs = Vec::new();
        while let Some(m) = sender.poll_send() {
            msgs.push(m);
        }
        // A late SkipTo for an already-visited node must be a no-op.
        sender.on_receive(GraphMsg::SkipTo { id: n(1) }).unwrap();
        assert!(sender.is_done());
    }

    #[test]
    fn skipto_unknown_node_is_error() {
        let mut sender = SyncGSender::new(chain(3));
        let _ = sender.poll_send().unwrap(); // visit node 2 only
        let err = sender
            .on_receive(GraphMsg::SkipTo {
                id: NodeId::of(SiteId::new(9), 9),
            })
            .unwrap_err();
        assert_eq!(err, Error::SkipToUnknownNode);
    }

    #[test]
    fn figure3_example_costs_missing_plus_overlap_per_branch() {
        // Figure 1/3 graphs. Node numbering follows the paper (1-based).
        // Arcs: 1→2, 1→4, 4→5, 5→6, 2→3, {6,2}→7, 7→8, {8,3}→9.
        let mut site_a = CausalGraph::new(); // nodes 1,2,4,5,6,7
        site_a.record_root(n(1));
        site_a.record_op(n(4));
        site_a.record_op(n(5));
        site_a.record_op(n(6));
        site_a.insert_remote(n(2), Parents::one(n(1)));
        site_a.record_merge(n(7), n(2));
        assert!(site_a.validate().is_empty(), "{:?}", site_a.validate());

        let mut site_c = CausalGraph::new(); // nodes 1,4,5,6
        site_c.record_root(n(1));
        site_c.record_op(n(4));
        site_c.record_op(n(5));
        site_c.record_op(n(6));

        // SYNCG_A(C): C's graph becomes the union.
        let report = sync_graph(&mut site_c, &site_a).unwrap();
        assert_eq!(site_c.len(), 6);
        assert!(site_c.contains_graph(&site_a));
        assert_eq!(report.nodes_added, 2, "nodes 7 and 2");
        // §6.1: "only the missing nodes plus an overlapping node ... for
        // each branch": branch (7,6,…) costs 7+6, branch (2,1) costs 2+1.
        assert_eq!(report.nodes_sent, 4);
        assert_eq!(report.redundant_nodes, 2);
    }
}
