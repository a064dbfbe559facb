//! Output checks.
//!
//! What is checked, and what is only counted, follows from two known
//! defects in capture (see NOTES.md): two ingests of one stream can pick
//! different temporal-overlap targets, and a restart re-indexes text with
//! final attributes. So graphs are compared exactly only where they must
//! be equal (a store against its own recovery), by counts against an
//! independent synchronous ingest, and query results only against earlier
//! results on the same instance at the same graph epoch.

use bp_graph::{Edge, EdgeKind, Node, ProvenanceGraph};
use bp_query::{LineageAnswer, ScoredHit};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Every node and edge of a graph, in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSig {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl GraphSig {
    pub fn of(graph: &ProvenanceGraph) -> Self {
        GraphSig {
            nodes: graph.nodes().map(|(_, n)| n.clone()).collect(),
            edges: graph.edges().map(|(_, e)| e.clone()).collect(),
        }
    }

    /// The first difference between two graphs, if any.
    pub fn diff(&self, other: &GraphSig) -> Option<String> {
        if self.nodes.len() != other.nodes.len() || self.edges.len() != other.edges.len() {
            return Some(format!(
                "{} nodes / {} edges against {} / {}",
                self.nodes.len(),
                self.edges.len(),
                other.nodes.len(),
                other.edges.len()
            ));
        }
        if let Some(i) = (0..self.nodes.len()).find(|&i| self.nodes[i] != other.nodes[i]) {
            return Some(format!("node {i} differs"));
        }
        if let Some(i) = (0..self.edges.len()).find(|&i| self.edges[i] != other.edges[i]) {
            return Some(format!("edge {i} differs"));
        }
        None
    }

    /// Edges of `self` with no `(src, dst, kind)` match in `other`,
    /// counted as a multiset difference.
    pub fn divergent_edges(&self, other: &GraphSig) -> usize {
        let mut theirs: HashMap<(u32, u32, EdgeKind), usize> = HashMap::new();
        for e in &other.edges {
            *theirs.entry(edge_triple(e)).or_default() += 1;
        }
        let mut missing = 0;
        for e in &self.edges {
            match theirs.get_mut(&edge_triple(e)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => missing += 1,
            }
        }
        missing
    }
}

fn edge_triple(e: &Edge) -> (u32, u32, EdgeKind) {
    (e.src().index(), e.dst().index(), e.kind())
}

/// Node count, edge count and edge count per kind: what two independent
/// ingests of one stream agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    nodes: usize,
    edges: usize,
    per_kind: BTreeMap<EdgeKind, usize>,
}

impl Counts {
    pub fn of(graph: &ProvenanceGraph) -> Self {
        let mut per_kind = BTreeMap::new();
        for (_, e) in graph.edges() {
            *per_kind.entry(e.kind()).or_insert(0) += 1;
        }
        Counts {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            per_kind,
        }
    }

    pub fn diff(&self, reference: &Counts) -> Option<String> {
        (self != reference).then(|| format!("counts {self:?} against reference {reference:?}"))
    }
}

/// Hash of a ranked hit list: keys in order plus exact score bits.
pub fn hits_fingerprint(hits: &[ScoredHit], truncated: bool) -> u64 {
    let mut h = DefaultHasher::new();
    truncated.hash(&mut h);
    for hit in hits {
        hit.key.hash(&mut h);
        hit.score.to_bits().hash(&mut h);
    }
    h.finish()
}

pub fn terms_fingerprint(terms: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    terms.hash(&mut h);
    h.finish()
}

pub fn lineage_fingerprint(answer: &LineageAnswer) -> u64 {
    let mut h = DefaultHasher::new();
    answer.ancestor.index().hash(&mut h);
    answer.url.hash(&mut h);
    answer.visit_count.hash(&mut h);
    for n in &answer.path.nodes {
        n.index().hash(&mut h);
    }
    h.finish()
}

pub fn text_fingerprint(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// First result per (store instance, graph epoch, query input); every
/// later result for the same triple must equal it.
#[derive(Debug, Default)]
pub struct ResultLog {
    first: HashMap<(u64, u64, u64), u64>,
    pub compared: usize,
    pub mismatches: usize,
}

impl ResultLog {
    pub fn record(&mut self, instance: u64, epoch: u64, input: u64, fingerprint: u64) {
        match self.first.get(&(instance, epoch, input)) {
            None => {
                self.first.insert((instance, epoch, input), fingerprint);
            }
            Some(&first) => {
                self.compared += 1;
                if first != fingerprint {
                    self.mismatches += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_graph::{NodeId, NodeKind, Timestamp};

    fn hit(key: &str, score: f64) -> ScoredHit {
        ScoredHit {
            node: NodeId::new(0),
            kind: NodeKind::PageVisit,
            key: key.to_owned(),
            title: None,
            score,
            text_score: score,
            context_score: 0.0,
        }
    }

    #[test]
    fn corrupted_hit_list_fails_the_result_check() {
        let hits = vec![hit("http://a/", 0.9), hit("http://b/", 0.4)];
        let mut log = ResultLog::default();
        log.record(0, 1, 7, hits_fingerprint(&hits, false));
        log.record(0, 1, 7, hits_fingerprint(&hits, false));
        assert_eq!((log.compared, log.mismatches), (1, 0));

        let mut swapped = hits.clone();
        swapped.swap(0, 1);
        log.record(0, 1, 7, hits_fingerprint(&swapped, false));
        let mut nudged = hits.clone();
        nudged[1].score = f64::from_bits(nudged[1].score.to_bits() + 1);
        log.record(0, 1, 7, hits_fingerprint(&nudged, false));
        log.record(0, 1, 7, hits_fingerprint(&hits[..1], false));
        log.record(0, 1, 7, hits_fingerprint(&hits, true));
        assert_eq!((log.compared, log.mismatches), (5, 4));

        // A new epoch or another store instance is a new state: its first
        // result is the reference, not a mismatch.
        log.record(0, 2, 7, hits_fingerprint(&swapped, false));
        log.record(1, 1, 7, hits_fingerprint(&swapped, false));
        assert_eq!(log.mismatches, 4);
    }

    fn small_graph(drop_edge: bool) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let t = Timestamp::from_secs(1);
        let a = g.add_node(Node::new(NodeKind::PageVisit, "http://a/", t));
        let b = g.add_node(Node::new(NodeKind::PageVisit, "http://b/", t));
        let c = g.add_node(Node::new(NodeKind::Download, "/tmp/c", t));
        g.add_edge(b, a, EdgeKind::Link, t).unwrap();
        if !drop_edge {
            g.add_edge(c, b, EdgeKind::DownloadFrom, t).unwrap();
        }
        g
    }

    #[test]
    fn dropped_edge_fails_the_graph_checks() {
        let full = GraphSig::of(&small_graph(false));
        let dropped = GraphSig::of(&small_graph(true));
        assert_eq!(full.diff(&GraphSig::of(&small_graph(false))), None);
        assert!(full.diff(&dropped).is_some());
        assert_eq!(full.divergent_edges(&dropped), 1);
        assert_eq!(dropped.divergent_edges(&full), 0);
        let counts = Counts::of(&small_graph(false));
        assert!(Counts::of(&small_graph(true)).diff(&counts).is_some());
        assert_eq!(Counts::of(&small_graph(false)).diff(&counts), None);
    }
}
