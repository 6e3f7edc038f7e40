//! Seeded property tests for causal-graph synchronization: over randomly grown
//! legal histories, `SYNCG` must always produce the exact graph union,
//! agree with the full-graph baseline, and cost no more nodes than
//! missing + one overlap per abandoned branch.

use optrep_core::graph::{full::sync_graph_full, sync_graph, CausalGraph, NodeId};
use optrep_core::rng::{cases, SplitMix64};
use optrep_core::{Causality, SiteId};

/// One growth step for a pair of replicas of the same object.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Record an op on replica 0 or 1.
    Op(u8),
    /// Replica `dst` pulls the other and (if concurrent) records a merge.
    Pull(u8),
}

fn steps(rng: &mut SplitMix64) -> Vec<Step> {
    (0..rng.range(1..40))
        .map(|_| {
            let replica = rng.below(2) as u8;
            if rng.chance(0.5) {
                Step::Op(replica)
            } else {
                Step::Pull(replica)
            }
        })
        .collect()
}

struct Replica {
    graph: CausalGraph,
    site: SiteId,
    seq: u32,
}

impl Replica {
    fn next_id(&mut self) -> NodeId {
        let id = NodeId::of(self.site, self.seq);
        self.seq += 1;
        id
    }
}

fn grow(steps: &[Step]) -> (CausalGraph, CausalGraph) {
    let mut replicas = [
        Replica {
            graph: CausalGraph::new(),
            site: SiteId::new(0),
            seq: 0,
        },
        Replica {
            graph: CausalGraph::new(),
            site: SiteId::new(1),
            seq: 0,
        },
    ];
    // Shared root.
    let root = NodeId::of(SiteId::new(9), 0);
    replicas[0].graph.record_root(root);
    replicas[1].graph.record_root(root);

    for step in steps {
        match *step {
            Step::Op(r) => {
                let id = replicas[r as usize].next_id();
                replicas[r as usize].graph.record_op(id);
            }
            Step::Pull(dst) => {
                let src = 1 - dst as usize;
                let src_graph = replicas[src].graph.clone();
                let dst = &mut replicas[dst as usize];
                let relation = dst.graph.compare(&src_graph);
                sync_graph(&mut dst.graph, &src_graph).expect("pull");
                match relation {
                    Causality::Before => {
                        dst.graph.set_head(src_graph.head().expect("head"));
                    }
                    Causality::Concurrent => {
                        let id = dst.next_id();
                        dst.graph.record_merge(id, src_graph.head().expect("head"));
                    }
                    _ => {}
                }
            }
        }
    }
    let [a, b] = replicas;
    (a.graph, b.graph)
}

#[test]
fn syncg_computes_exact_union() {
    cases(128, |_, rng| {
        let (a, b) = grow(&steps(rng));
        let mut union_inc = a.clone();
        let report = sync_graph(&mut union_inc, &b).unwrap();
        // Union contains both and nothing else.
        assert!(union_inc.contains_graph(&a));
        assert!(union_inc.contains_graph(&b));
        assert_eq!(union_inc.len(), a.len() + report.nodes_added);
        // Agrees with the full-transfer baseline.
        let mut union_full = a.clone();
        sync_graph_full(&mut union_full, &b).unwrap();
        assert_eq!(union_inc, union_full);
    });
}

#[test]
fn syncg_cost_is_missing_plus_branch_overlaps() {
    cases(128, |_, rng| {
        let (a, b) = grow(&steps(rng));
        let mut target = a.clone();
        let report = sync_graph(&mut target, &b).unwrap();
        // Every abandoned branch costs at most one overlapping node, and
        // there are at most (#skiptos) abandoned branches.
        assert!(report.redundant_nodes <= report.skiptos + 1);
        assert_eq!(
            report.nodes_sent,
            report.nodes_added + report.redundant_nodes
        );
        // Never worse than the full transfer in nodes.
        assert!(report.nodes_sent <= b.len());
    });
}

#[test]
fn graph_compare_matches_containment() {
    cases(128, |_, rng| {
        let (a, b) = grow(&steps(rng));
        let relation = a.compare(&b);
        let (ha, hb) = (a.head().unwrap(), b.head().unwrap());
        let expected = match (b.contains(ha), a.contains(hb)) {
            (true, true) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (false, false) => Causality::Concurrent,
        };
        assert_eq!(relation, expected);
    });
}

#[test]
fn snapshot_roundtrip_over_grown_graphs() {
    cases(128, |_, rng| {
        let (a, _) = grow(&steps(rng));
        let mut buf = a.encode_snapshot();
        let decoded = CausalGraph::decode_snapshot(&mut buf).unwrap();
        assert_eq!(decoded, a);
    });
}
