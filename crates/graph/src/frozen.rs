//! The read-optimized execution layer: CSR snapshots, the parallel
//! PageRank kernel, frozen neighborhood expansion, and the epoch-keyed
//! score cache.
//!
//! The live [`ProvenanceGraph`] is built for capture: append-only arenas
//! plus per-node `Vec<EdgeId>` adjacency, ideal for O(1) inserts but
//! pointer-chasing for whole-graph walks. Relevance queries (personalized
//! PageRank, neighborhood expansion) iterate every edge tens of times, so
//! they run here instead, over a [`FrozenGraph`] — a compressed-sparse-row
//! snapshot with dense `u32` indexing and one contiguous incidence row per
//! node.
//!
//! Snapshots are keyed on the graph's **topology epoch**
//! ([`ProvenanceGraph::topology_epoch`]): node and edge insertion and
//! redaction bump it, interval closes and attribute edits do not. A
//! [`FrozenHandle`] brings its snapshot up to date lazily on the first read
//! at a newer topology epoch — by appending what capture added since, or by
//! a full rebuild after a redaction. Converged scores are memoized in a
//! [`ScoreCache`] keyed by `(topology epoch, seed-set + config
//! fingerprint)`, so serve's steady-state query thread stops recomputing
//! identical walks — the cache can never serve stale results because a
//! topology change moves the epoch half of every key.

use crate::edge::{Edge, EdgeKind};
use crate::graph::ProvenanceGraph;
use crate::ids::{EdgeId, NodeId};
use crate::neighborhood::ExpansionConfig;
use crate::pagerank::{PageRankConfig, PageRankScores};
use crate::traverse::Budget;
use bp_obs::clock::ClockHandle;
use bp_obs::Counter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Nodes per work chunk. Fixed (never derived from the worker count) so
/// chunk boundaries — and therefore floating-point reduction order — are
/// identical at any `--jobs`, which is what keeps parallel scores
/// bit-identical to serial ones.
const CHUNK: usize = 1024;

/// Hard ceiling on kernel worker threads.
const MAX_JOBS: usize = 64;

/// Free slots reserved after each row a refresh appends. Most new nodes
/// gain one to three in-edges later (the tab's next visit, a revisit's
/// version edge, an overlap edge), which then land in place.
const ROW_SLACK: usize = 2;

/// Base walk weight of an edge kind: temporal-overlap edges participate
/// at reduced conductance (they are association, not navigation).
#[inline]
fn base_weight(kind_code: u8) -> f64 {
    if kind_code == EdgeKind::TemporalOverlap.code() {
        0.4
    } else {
        1.0
    }
}

/// Whether an edge kind code is automatic (dropped by the walk when
/// `include_automatic_edges` is off).
fn is_automatic(kind_code: u8) -> bool {
    EdgeKind::from_code(kind_code).is_some_and(EdgeKind::is_automatic)
}

/// The damping-free pull coefficient `w / conductance`.
fn coeff(w: f64, cond: f64) -> f64 {
    if cond > 0.0 {
        w / cond
    } else {
        0.0
    }
}

/// The edges `graph` holds beyond its first `first`, in insertion order
/// (O(appended), where skipping an `edges()` iterator is O(all)).
fn appended_edges(graph: &ProvenanceGraph, first: usize) -> impl Iterator<Item = &Edge> {
    (first..graph.edge_count()).filter_map(|i| graph.edge(EdgeId::new(i as u32)).ok())
}

/// An immutable CSR snapshot of a [`ProvenanceGraph`] at one topology
/// epoch.
///
/// Node `i`'s row holds one slot per incident edge: first its forward
/// slots (out-edges, toward ancestors), then its reverse slots (in-edges,
/// toward descendants), each part in the live graph's insertion order.
/// Relevance walks treat edges as undirected, so the PageRank kernel, the
/// expansion walk and the adjacency accessors all read these same rows.
///
/// A full build lays the rows out back to back in node order. A refresh
/// ([`FrozenHandle::snapshot`]) appends rows for new nodes at the end and
/// grows older rows in their reserved slack, moving a full row to the end
/// when it has none; rows are therefore addressed by `row_start`/`row_end`
/// and never by their neighbors' offsets.
#[derive(Clone)]
pub struct FrozenGraph {
    epoch: u64,
    /// Edges in the snapshot: each has one forward and one reverse slot.
    edges: usize,
    row_start: Vec<u32>,
    row_end: Vec<u32>,
    /// End of the slots reserved for row `i` (equal to `row_end[i]` after
    /// a full build); a refresh fills `row_end[i]..row_cap[i]` in place.
    row_cap: Vec<u32>,
    /// Forward slots at the head of each row.
    fwd_len: Vec<u32>,
    /// Neighbor per slot.
    targets: Vec<u32>,
    /// [`EdgeKind`] code per slot.
    kinds: Vec<u8>,
    /// Per slot, `w(kind) / conductance(target)` with every edge
    /// participating — the damping-free part of the PageRank pull
    /// coefficient. Computed once per snapshot so each kernel run skips
    /// an O(E) pass of divisions.
    pull_base: Vec<f64>,
    /// Same, under `include_automatic_edges = false`: automatic slots are
    /// zeroed and conductance excludes them.
    pull_base_noauto: Vec<f64>,
    /// `key_rep[i]` is the lowest node id whose key string equals node
    /// `i`'s — the canonical representative of its dedup group. Blend
    /// passes collapse multiple visit versions of one URL through this
    /// table instead of hashing key strings per candidate.
    key_rep: Vec<u32>,
}

/// What a refresh needs beyond the snapshot itself. It lives beside the
/// snapshot in the [`FrozenHandle`], so copying a snapshot that readers
/// still hold copies only what readers read.
struct RefreshState {
    /// Conductance per node with every edge participating.
    cond_all: Vec<f64>,
    /// Conductance per node over non-automatic edges only.
    cond_noauto: Vec<f64>,
    /// Lowest node id per key string: the `key_rep` of appended nodes.
    first_of_key: HashMap<String, u32>,
}

impl std::fmt::Debug for FrozenGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenGraph")
            .field("epoch", &self.epoch)
            .field("nodes", &self.node_count())
            .field("edges", &self.edges)
            .finish()
    }
}

impl FrozenGraph {
    /// Snapshots `graph` into CSR form. O(V + E).
    pub fn build(graph: &ProvenanceGraph) -> FrozenGraph {
        Self::build_with_state(graph).0
    }

    fn build_with_state(graph: &ProvenanceGraph) -> (FrozenGraph, RefreshState) {
        let n = graph.node_count();
        let slots = 2 * graph.edge_count();
        let mut f = FrozenGraph {
            epoch: graph.topology_epoch(),
            edges: 0,
            row_start: Vec::with_capacity(n),
            row_end: Vec::with_capacity(n),
            row_cap: Vec::with_capacity(n),
            fwd_len: Vec::with_capacity(n),
            targets: Vec::with_capacity(slots),
            kinds: Vec::with_capacity(slots),
            pull_base: Vec::with_capacity(slots),
            pull_base_noauto: Vec::with_capacity(slots),
            key_rep: Vec::with_capacity(n),
        };
        let mut state = RefreshState {
            cond_all: vec![0.0; n],
            cond_noauto: vec![0.0; n],
            first_of_key: HashMap::with_capacity(n),
        };
        for id in graph.node_ids() {
            f.push_row(graph, id, 0);
        }
        f.add_conductance(&mut state, 0);
        for i in 0..n {
            f.fill_coefficients(&state, i);
        }
        f.extend_key_reps(graph, &mut state);
        (f, state)
    }

    /// Appends node `id`'s row (forward then reverse slots, from the live
    /// adjacency) at the end of the slot arrays, with `slack` free slots
    /// reserved after it. Coefficients are filled in later.
    fn push_row(&mut self, graph: &ProvenanceGraph, id: NodeId, slack: usize) {
        let start = self.targets.len();
        for &eid in graph.out_edges(id) {
            // Adjacency lists only hold committed edge ids; a dangling id
            // would be a graph bug, and skipping it degrades to a
            // snapshot missing that edge.
            let Ok(e) = graph.edge(eid) else { continue };
            self.push_slot(e.dst().index(), e.kind().code());
        }
        let fwd = self.targets.len() - start;
        for &eid in graph.in_edges(id) {
            let Ok(e) = graph.edge(eid) else { continue };
            self.push_slot(e.src().index(), e.kind().code());
        }
        let end = self.targets.len();
        self.pad(slack);
        self.edges += fwd;
        self.row_start.push(start as u32);
        self.row_end.push(end as u32);
        self.row_cap.push(self.targets.len() as u32);
        self.fwd_len.push(fwd as u32);
    }

    fn push_slot(&mut self, target: u32, kind: u8) {
        self.targets.push(target);
        self.kinds.push(kind);
        self.pull_base.push(0.0);
        self.pull_base_noauto.push(0.0);
    }

    /// Appends `count` unused slots (reserved space no row range covers).
    fn pad(&mut self, count: usize) {
        let len = self.targets.len() + count;
        self.targets.resize(len, 0);
        self.kinds.resize(len, 0);
        self.pull_base.resize(len, 0.0);
        self.pull_base_noauto.resize(len, 0.0);
    }

    /// Adds every forward slot of nodes `from..` to the conductance of
    /// both endpoints, in node then slot order. This is the order a full
    /// build sums in, so when `from` is the old node count and every new
    /// edge starts at a new node, the refreshed sums equal a full
    /// build's bit for bit.
    fn add_conductance(&self, state: &mut RefreshState, from: usize) {
        for i in from..self.node_count() {
            for s in self.fwd_range(i) {
                let w = base_weight(self.kinds[s]);
                let t = self.targets[s] as usize;
                state.cond_all[i] += w;
                state.cond_all[t] += w;
                if !is_automatic(self.kinds[s]) {
                    state.cond_noauto[i] += w;
                    state.cond_noauto[t] += w;
                }
            }
        }
    }

    /// Recomputes both coefficient tables over row `i` from the current
    /// conductance sums.
    fn fill_coefficients(&mut self, state: &RefreshState, i: usize) {
        for s in self.row(i) {
            let t = self.targets[s] as usize;
            let k = self.kinds[s];
            let w = base_weight(k);
            self.pull_base[s] = coeff(w, state.cond_all[t]);
            self.pull_base_noauto[s] = if is_automatic(k) {
                0.0
            } else {
                coeff(w, state.cond_noauto[t])
            };
        }
    }

    /// Extends `key_rep` to every node of `graph`. One string hash per
    /// new node buys hash-free dedup on every blend afterwards.
    fn extend_key_reps(&mut self, graph: &ProvenanceGraph, state: &mut RefreshState) {
        for i in self.key_rep.len()..self.node_count() {
            let rep = match graph.node(NodeId::new(i as u32)) {
                Ok(node) => *state
                    .first_of_key
                    .entry(node.key().to_owned())
                    .or_insert(i as u32),
                Err(_) => i as u32,
            };
            self.key_rep.push(rep);
        }
    }

    /// `true` if `graph` differs from this snapshot only by appends that
    /// [`refresh`](Self::refresh) can apply: no redaction since the
    /// snapshot, and every new edge starting at a new node. Capture keeps
    /// edges pointing newer → older, so the source of an appended edge is
    /// in practice always the node the same event created.
    fn refreshable_to(&self, graph: &ProvenanceGraph) -> bool {
        let n0 = self.node_count();
        graph.rewrite_epoch() <= self.epoch
            && graph.node_count() >= n0
            && graph.edge_count() >= self.edges
            && appended_edges(graph, self.edges).all(|e| e.src().as_usize() >= n0)
    }

    /// Brings the snapshot to `graph`'s topology epoch by applying what
    /// was appended since; the caller has checked
    /// [`refreshable_to`](Self::refreshable_to). The result equals
    /// `FrozenGraph::build(graph)` in every row, coefficient and key
    /// representative.
    fn refresh(&mut self, graph: &ProvenanceGraph, state: &mut RefreshState) {
        let (n0, m0) = (self.node_count(), self.edges);
        let n = graph.node_count();
        // 1. Rows of the new nodes. Their out-edges are all new, and any
        //    in-edge comes from a newer new node, so the live adjacency
        //    gives the whole row.
        for i in n0..n {
            self.push_row(graph, NodeId::new(i as u32), ROW_SLACK);
        }
        // 2. Each new edge into an older node: a reverse slot at the end
        //    of the destination's row, in edge order — the live in-edge
        //    order.
        for e in appended_edges(graph, m0) {
            let dst = e.dst().as_usize();
            if dst < n0 {
                self.append_slot(dst, e.src().index(), e.kind().code());
            }
        }
        // 3. The new edges' weights, summed after the old ones.
        state.cond_all.resize(n, 0.0);
        state.cond_noauto.resize(n, 0.0);
        self.add_conductance(state, n0);
        // 4. Conductance moved for the new nodes and every row they
        //    point into; every slot targeting one of those lives in a row
        //    of its neighbors.
        let mut dirty: Vec<u32> = Vec::new();
        for i in n0..n {
            dirty.push(i as u32);
            for s in self.row(i) {
                let t = self.targets[s];
                dirty.push(t);
                dirty.extend(self.row(t as usize).map(|r| self.targets[r]));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &i in &dirty {
            self.fill_coefficients(state, i as usize);
        }
        // 5. Key representatives of the new nodes.
        self.extend_key_reps(graph, state);
        self.epoch = graph.topology_epoch();
    }

    /// Appends one slot at the end of row `r`: into its reserved slack if
    /// any is left, by growing the arrays if the row ends them, and
    /// otherwise by moving the row to the end with as much slack again as
    /// it has slots, so repeated appends to a row cost amortized O(1).
    fn append_slot(&mut self, r: usize, target: u32, kind: u8) {
        let (start, end) = (self.row_start[r] as usize, self.row_end[r] as usize);
        if end == self.row_cap[r] as usize {
            let len = end - start;
            let grow = len.max(ROW_SLACK);
            if end == self.targets.len() {
                self.pad(grow);
            } else {
                let new_start = self.targets.len();
                self.targets.extend_from_within(start..end);
                self.kinds.extend_from_within(start..end);
                self.pull_base.extend_from_within(start..end);
                self.pull_base_noauto.extend_from_within(start..end);
                self.pad(grow);
                self.row_start[r] = new_start as u32;
                self.row_end[r] = (new_start + len) as u32;
            }
            self.row_cap[r] = self.targets.len() as u32;
        }
        let s = self.row_end[r] as usize;
        self.targets[s] = target;
        self.kinds[s] = kind;
        self.row_end[r] += 1;
    }

    /// The topology epoch ([`ProvenanceGraph::topology_epoch`]) this
    /// snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.row_start.len()
    }

    /// Number of edges (each edge has one forward and one reverse slot).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Node `node`'s slots: forward, then reverse.
    fn row(&self, node: usize) -> std::ops::Range<usize> {
        self.row_start[node] as usize..self.row_end[node] as usize
    }

    fn fwd_range(&self, node: usize) -> std::ops::Range<usize> {
        let start = self.row_start[node] as usize;
        start..start + self.fwd_len[node] as usize
    }

    fn rev_range(&self, node: usize) -> std::ops::Range<usize> {
        self.row_start[node] as usize + self.fwd_len[node] as usize..self.row_end[node] as usize
    }

    /// `(neighbor, kind)` for each slot in `range`.
    fn slots(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        range.map(move |s| {
            (
                self.targets[s],
                // Kind codes were written from EdgeKind::code, so this
                // lookup cannot miss; Link is a harmless degrade.
                EdgeKind::from_code(self.kinds[s]).unwrap_or(EdgeKind::Link),
            )
        })
    }

    /// The key-dedup table: `key_reps()[i]` is the lowest node id sharing
    /// node `i`'s key string. Indexed by dense node id; blend passes use
    /// it to collapse versions of one URL without hashing key strings.
    pub fn key_reps(&self) -> &[u32] {
        &self.key_rep
    }

    /// Forward (out) adjacency of `node`: `(target, kind)` in insertion
    /// order — the same order the live graph's out-edge list yields.
    pub fn out_edges_of(&self, node: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        self.slots(self.fwd_range(node as usize))
    }

    /// Reverse (in) adjacency of `node`: `(source, kind)` in insertion
    /// order.
    pub fn in_edges_of(&self, node: u32) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        self.slots(self.rev_range(node as usize))
    }

    /// Number of edges of `kind`, counted over forward slots.
    pub fn kind_count(&self, kind: EdgeKind) -> usize {
        (0..self.node_count())
            .flat_map(|i| self.fwd_range(i))
            .filter(|&s| self.kinds[s] == kind.code())
            .count()
    }
}

// ---------------------------------------------------------------------------
// Personalized PageRank kernel
// ---------------------------------------------------------------------------

/// Converged scores from the frozen kernel, sparse and sorted by node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenScores {
    /// `(node, score)` for every node with positive mass, ascending id.
    pub entries: Vec<(u32, f64)>,
    /// Power iterations performed.
    pub iterations: usize,
    /// `true` if the budget deadline stopped iteration before convergence.
    pub truncated: bool,
}

impl FrozenScores {
    /// Converts into the map-based [`PageRankScores`] shape.
    pub fn into_scores(self) -> PageRankScores {
        PageRankScores {
            score: self
                .entries
                .into_iter()
                .map(|(i, s)| (NodeId::new(i), s))
                .collect(),
            iterations: self.iterations,
        }
    }

    /// Largest score (0.0 when empty) — one O(n) pass, no sort.
    pub fn max_score(&self) -> f64 {
        self.entries.iter().fold(0.0f64, |m, &(_, s)| m.max(s))
    }
}

/// Everything the per-iteration workers share. Score buffers hold `f64`
/// bit patterns in relaxed atomics: the crate forbids `unsafe`, and each
/// element is written by exactly one worker per phase with barriers
/// between phases, so relaxed ordering is sufficient.
struct KernelState<'a> {
    frozen: &'a FrozenGraph,
    restart: Vec<f64>,
    /// Damping-free pull coefficient per slot, borrowed from the
    /// snapshot: `w(kind) / cond(target)`.
    pull_base: &'a [f64],
    damping: f64,
    tolerance: f64,
    max_iterations: usize,
    chunks: usize,
    bufs: [Vec<AtomicU64>; 2],
    pushed: Vec<AtomicU64>,
    deltas: Vec<AtomicU64>,
    counter_a: AtomicUsize,
    counter_b: AtomicUsize,
    stop: AtomicBool,
    barrier: Barrier,
    deadline: Option<(bp_obs::clock::Stopwatch, Duration)>,
}

impl KernelState<'_> {
    /// One worker's share of the power iteration. Every worker runs the
    /// same loop; chunk claims are raced but each chunk's arithmetic is
    /// internally sequential and cross-chunk reductions always fold in
    /// chunk-index order, so every worker computes bit-identical `slack`
    /// and `delta` and takes the same branch every iteration.
    fn worker(&self) -> (usize, usize, bool) {
        let n = self.frozen.node_count();
        let mut parity = 0usize;
        let mut iterations = 0usize;
        loop {
            let cur = &self.bufs[parity];
            let nxt = &self.bufs[parity ^ 1];
            // Phase A: raw pulled mass per node, per-chunk partial sums.
            loop {
                let c = self.counter_a.fetch_add(1, Ordering::Relaxed);
                if c >= self.chunks {
                    break;
                }
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(n);
                let mut chunk_sum = 0.0f64;
                let targets = &self.frozen.targets[..];
                let weights = self.pull_base;
                let starts = &self.frozen.row_start[..];
                let ends = &self.frozen.row_end[..];
                for i in lo..hi {
                    // Rows average only a handful of slots, so the loop is
                    // overhead-bound: one zip over the row's slices keeps
                    // per-slot work to a single multiply-add with no bounds
                    // checks on the sequential arrays, and damping applies
                    // once per node rather than per slot. Accumulation
                    // order is the fixed slot order — bit-identical at any
                    // worker count.
                    let (start, end) = (starts[i] as usize, ends[i] as usize);
                    let mut acc = 0.0f64;
                    for (&t, &w) in targets[start..end].iter().zip(&weights[start..end]) {
                        acc += w * f64::from_bits(cur[t as usize].load(Ordering::Relaxed));
                    }
                    let acc = self.damping * acc;
                    nxt[i].store(acc.to_bits(), Ordering::Relaxed);
                    chunk_sum += acc;
                }
                self.pushed[c].store(chunk_sum.to_bits(), Ordering::Relaxed);
            }
            self.barrier.wait();
            // All workers fold the per-chunk partials in chunk order —
            // deterministic, and identical across workers.
            let pushed: f64 = self
                .pushed
                .iter()
                .map(|p| f64::from_bits(p.load(Ordering::Relaxed)))
                .sum();
            let slack = 1.0 - pushed;
            // Phase B: restart mass and per-chunk L1 deltas.
            loop {
                let c = self.counter_b.fetch_add(1, Ordering::Relaxed);
                if c >= self.chunks {
                    break;
                }
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(n);
                let mut chunk_delta = 0.0f64;
                for i in lo..hi {
                    let v =
                        f64::from_bits(nxt[i].load(Ordering::Relaxed)) + slack * self.restart[i];
                    nxt[i].store(v.to_bits(), Ordering::Relaxed);
                    chunk_delta += (v - f64::from_bits(cur[i].load(Ordering::Relaxed))).abs();
                }
                self.deltas[c].store(chunk_delta.to_bits(), Ordering::Relaxed);
            }
            let sync = self.barrier.wait();
            if sync.is_leader() {
                // Sole writer window: reset the claim counters for the
                // next iteration and check the deadline once per
                // iteration boundary (a per-worker check would read
                // different clock values and diverge).
                self.counter_a.store(0, Ordering::Relaxed);
                self.counter_b.store(0, Ordering::Relaxed);
                if let Some((sw, limit)) = &self.deadline {
                    if sw.elapsed() >= *limit {
                        self.stop.store(true, Ordering::SeqCst);
                    }
                }
            }
            self.barrier.wait();
            iterations += 1;
            parity ^= 1;
            let delta: f64 = self
                .deltas
                .iter()
                .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
                .sum();
            let expired = self.stop.load(Ordering::SeqCst);
            if delta < self.tolerance || iterations >= self.max_iterations || expired {
                return (iterations, parity, expired && delta >= self.tolerance);
            }
        }
    }
}

/// Runs personalized PageRank with restart over a [`FrozenGraph`], with
/// flat score buffers and `budget.jobs()` worker threads.
///
/// The math matches [`crate::pagerank::personalized_pagerank`]: undirected
/// walks, temporal-overlap edges at 0.4 conductance, automatic edges
/// droppable via `config.include_automatic_edges` (applied through the
/// snapshot's second coefficient table), restart mass `1 − damping` plus whatever
/// strands on degree-0 nodes, L1 convergence. `budget.deadline()` is
/// honored at iteration boundaries: an expired deadline returns the
/// partially-converged scores with `truncated` set rather than blocking
/// the interactive bound.
///
/// Scores are **bit-identical for any job count**: work is split into
/// fixed-size chunks whose internal accumulation order never changes, and
/// cross-chunk reductions fold in chunk-index order on every worker.
pub fn personalized_pagerank_frozen(
    frozen: &FrozenGraph,
    seeds: &[(NodeId, f64)],
    config: &PageRankConfig,
    budget: &Budget,
) -> FrozenScores {
    let n = frozen.node_count();
    let mut restart = vec![0.0f64; n];
    let mut total = 0.0;
    for &(node, w) in seeds {
        if node.as_usize() < n && w > 0.0 {
            restart[node.as_usize()] += w;
            total += w;
        }
    }
    if total <= 0.0 {
        return FrozenScores::default();
    }
    for r in &mut restart {
        *r /= total;
    }
    if config.max_iterations == 0 {
        // Zero iterations means the walk never leaves the seeds.
        return FrozenScores {
            entries: restart
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| (s > 0.0).then_some((i as u32, s)))
                .collect(),
            iterations: 0,
            truncated: false,
        };
    }

    // Per-slot pull coefficients were folded at snapshot time (see
    // [`FrozenGraph::build`]): pick the table matching the automatic-edge
    // setting, and apply damping once per node inside the kernel.
    let pull_base: &[f64] = if config.include_automatic_edges {
        &frozen.pull_base
    } else {
        &frozen.pull_base_noauto
    };

    let chunks = n.div_ceil(CHUNK).max(1);
    let jobs = budget.jobs().min(chunks).clamp(1, MAX_JOBS);
    let deadline = budget.deadline().map(|d| {
        let clock = budget.clock().cloned().unwrap_or_else(ClockHandle::real);
        (clock.start(), d)
    });
    let to_atomics =
        |v: &[f64]| -> Vec<AtomicU64> { v.iter().map(|x| AtomicU64::new(x.to_bits())).collect() };
    let state = KernelState {
        frozen,
        pull_base,
        damping: config.damping,
        tolerance: config.tolerance,
        max_iterations: config.max_iterations.max(1),
        chunks,
        bufs: [to_atomics(&restart), to_atomics(&vec![0.0; n])],
        pushed: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
        deltas: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
        counter_a: AtomicUsize::new(0),
        counter_b: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        barrier: Barrier::new(jobs),
        restart,
        deadline,
    };

    let (iterations, parity, truncated) = if jobs == 1 {
        state.worker()
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs - 1);
            for _ in 1..jobs {
                handles.push(scope.spawn(|| state.worker()));
            }
            let result = state.worker();
            for h in handles {
                let _ = h.join();
            }
            result
        })
    };

    let entries: Vec<(u32, f64)> = state.bufs[parity]
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            let s = f64::from_bits(a.load(Ordering::Relaxed));
            (s > 0.0).then_some((i as u32, s))
        })
        .collect();
    FrozenScores {
        entries,
        iterations,
        truncated,
    }
}

// ---------------------------------------------------------------------------
// Frozen neighborhood expansion
// ---------------------------------------------------------------------------

/// Result of [`expand_frozen`]: sparse accumulated relevance, sorted by
/// node id — the cacheable twin of
/// [`crate::neighborhood::Expansion`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenExpansion {
    /// `(node, weight)` for every reached node, ascending id.
    pub entries: Vec<(u32, f64)>,
    /// `true` if a budget limit stopped the expansion early.
    pub truncated: bool,
}

impl FrozenExpansion {
    /// Converts into the map-based [`crate::neighborhood::Expansion`]
    /// shape (for the optional HITS pass, which wants a membership map).
    pub fn to_expansion(&self) -> crate::neighborhood::Expansion {
        crate::neighborhood::Expansion {
            weight: self
                .entries
                .iter()
                .map(|&(i, w)| (NodeId::new(i), w))
                .collect(),
            truncated: self.truncated,
        }
    }
}

/// Layered weighted expansion over a [`FrozenGraph`] — the same spread
/// semantics as [`crate::neighborhood::expand`] (per-hop decay, per-kind
/// multipliers, no echo back to reached layers, heaviest-first `max_nodes`
/// truncation, wall-clock deadline), but over CSR rows and flat buffers
/// instead of hash maps, and with a deterministic accumulation order.
pub fn expand_frozen(
    frozen: &FrozenGraph,
    seeds: &[(NodeId, f64)],
    config: &ExpansionConfig,
    budget: &Budget,
) -> FrozenExpansion {
    let n = frozen.node_count();
    let clock = budget.deadline().map(|d| {
        let handle = budget.clock().cloned().unwrap_or_else(ClockHandle::real);
        (handle.start(), d)
    });
    let mut kind_weight = [1.0f64; 16];
    for kind in EdgeKind::ALL {
        kind_weight[kind.code() as usize] = config.weight_of(kind);
    }
    let mut weight = vec![0.0f64; n];
    let mut reached = vec![false; n];
    let mut reached_ids: Vec<u32> = Vec::new();
    let mut truncated = false;
    let mut frontier: Vec<(u32, f64)> = Vec::new();
    for &(node, w) in seeds {
        if node.as_usize() < n && w > 0.0 {
            let i = node.index();
            if !reached[i as usize] {
                reached[i as usize] = true;
                reached_ids.push(i);
            }
            weight[i as usize] += w;
            frontier.push((i, w));
        }
    }
    let max_hops = budget
        .max_depth()
        .map_or(config.max_hops, |d| d.min(config.max_hops));

    let mut next_weight = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    'hops: for _hop in 0..max_hops {
        if frontier.is_empty() {
            break;
        }
        for &(node, w) in &frontier {
            if let Some((ref t0, limit)) = clock {
                if t0.elapsed() >= limit {
                    truncated = true;
                    break 'hops;
                }
            }
            let spread_base = w * config.decay;
            for s in frozen.row(node as usize) {
                let nbr = frozen.targets[s];
                if reached[nbr as usize] {
                    continue; // layered: no echo back to reached nodes
                }
                let spread = spread_base * kind_weight[frozen.kinds[s] as usize];
                if spread < config.min_weight {
                    continue;
                }
                if next_weight[nbr as usize] == 0.0 {
                    touched.push(nbr);
                }
                next_weight[nbr as usize] += spread;
            }
        }
        if let Some(max) = budget.max_nodes() {
            if reached_ids.len() + touched.len() > max {
                truncated = true;
                // Keep the heaviest next-layer entries up to the cap.
                let mut entries: Vec<(u32, f64)> = touched
                    .iter()
                    .map(|&i| (i, next_weight[i as usize]))
                    .collect();
                entries.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                entries.truncate(max.saturating_sub(reached_ids.len()));
                for &(i, w) in &entries {
                    reached[i as usize] = true;
                    reached_ids.push(i);
                    weight[i as usize] += w;
                }
                for &i in &touched {
                    next_weight[i as usize] = 0.0;
                }
                touched.clear();
                break;
            }
        }
        frontier.clear();
        for &i in &touched {
            let w = next_weight[i as usize];
            next_weight[i as usize] = 0.0;
            reached[i as usize] = true;
            reached_ids.push(i);
            weight[i as usize] += w;
            frontier.push((i, w));
        }
        touched.clear();
    }
    reached_ids.sort_unstable();
    FrozenExpansion {
        entries: reached_ids
            .into_iter()
            .map(|i| (i, weight[i as usize]))
            .collect(),
        truncated,
    }
}

// ---------------------------------------------------------------------------
// Epoch-keyed score cache
// ---------------------------------------------------------------------------

/// Which query family a cache entry belongs to (same seeds hash the same
/// for PageRank and expansion; the domain keeps their entries apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheDomain {
    /// Personalized-PageRank scores.
    PageRank,
    /// Neighborhood-expansion weights.
    Expansion,
}

/// A cache key: topology epoch + query domain + seed/config fingerprint.
/// Topology mutations bump the epoch, so stale entries can never be
/// returned — they simply stop matching and are purged on the next
/// insert. Scores depend on nodes and edges only, so interval closes and
/// attribute edits leave every entry valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`ProvenanceGraph::topology_epoch`] at compute time (the
    /// snapshot's [`FrozenGraph::epoch`]).
    pub epoch: u64,
    /// Query family.
    pub domain: CacheDomain,
    /// [`fingerprint_ppr`] / [`fingerprint_expansion`] over seeds+config.
    pub fingerprint: u64,
}

/// A cached sparse score vector (PageRank scores or expansion weights).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CachedScores {
    /// `(node, score)` ascending by node id.
    pub entries: Vec<(u32, f64)>,
    /// Iterations the producing walk performed (0 for expansions).
    pub iterations: usize,
    /// Whether the producing walk truncated itself (deterministic
    /// `max_nodes` truncation only — deadline-truncated results are
    /// never cached).
    pub truncated: bool,
}

impl CachedScores {
    fn cost_bytes(&self) -> usize {
        // Entry storage plus map/Arc bookkeeping overhead.
        self.entries.len() * 16 + 96
    }
}

/// Counters and occupancy for one [`ScoreCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped (stale epoch or LRU byte pressure).
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Estimated bytes held.
    pub bytes: usize,
}

struct CacheSlot {
    value: Arc<CachedScores>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, CacheSlot>,
    bytes: usize,
    budget: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-budgeted, epoch-keyed LRU cache of converged walk scores,
/// shared by the `ppr`, `context`, and `personalize` query paths.
///
/// Thread-safe behind one mutex: lookups copy an [`Arc`] out, so the
/// lock is held only for the map probe, never while scores are consumed.
pub struct ScoreCache {
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ScoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreCache {
    /// Default byte budget: generous for thousands-of-nodes histories,
    /// bounded for the paper's 25k-node scale.
    pub const DEFAULT_BUDGET_BYTES: usize = 8 * 1024 * 1024;

    /// A cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET_BYTES)
    }

    /// A cache that evicts least-recently-used entries once the estimated
    /// held bytes exceed `budget_bytes`.
    pub fn with_budget(budget_bytes: usize) -> Self {
        ScoreCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                budget: budget_bytes.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedScores>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let value = slot.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, purging entries from older epochs and
    /// then least-recently-used entries until the byte budget holds.
    /// Returns how many entries were evicted.
    pub fn put(&self, key: CacheKey, value: Arc<CachedScores>) -> u64 {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = value.cost_bytes();
        if let Some(old) = inner.map.insert(
            key,
            CacheSlot {
                value,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        let mut evicted = 0u64;
        // Stale epochs can never match again; drop them first.
        let stale: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.epoch != key.epoch)
            .copied()
            .collect();
        for k in stale {
            if let Some(slot) = inner.map.remove(&k) {
                inner.bytes -= slot.bytes;
                evicted += 1;
            }
        }
        // Then LRU pressure; the entry just inserted has the newest tick,
        // so it survives unless it alone exceeds the budget.
        while inner.bytes > inner.budget && inner.map.len() > 1 {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(slot) = inner.map.remove(&oldest) {
                inner.bytes -= slot.bytes;
                evicted += 1;
            }
        }
        inner.evictions += evicted;
        evicted
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix_seeds(mut h: u64, seeds: &[(NodeId, f64)]) -> u64 {
    let mut canon: Vec<(u32, u64)> = seeds
        .iter()
        .map(|&(n, w)| (n.index(), w.to_bits()))
        .collect();
    canon.sort_unstable();
    h = mix(h, canon.len() as u64);
    for (n, w) in canon {
        h = mix(h, u64::from(n));
        h = mix(h, w);
    }
    h
}

fn mix_budget(mut h: u64, budget: &Budget) -> u64 {
    // Only the deterministic caps participate: the deadline shapes
    // *whether* a result is cacheable (truncated results are not), never
    // what a complete result contains, and jobs never changes scores.
    h = mix(h, budget.max_nodes().map_or(u64::MAX, |v| v as u64));
    h = mix(h, budget.max_depth().map_or(u64::MAX, |v| v as u64));
    h
}

/// Fingerprints a PageRank request: canonicalized seed set, the scoring
/// parameters of [`PageRankConfig`], and the deterministic budget caps.
pub fn fingerprint_ppr(seeds: &[(NodeId, f64)], config: &PageRankConfig, budget: &Budget) -> u64 {
    let mut h = mix(FNV_OFFSET, 0x7070_7252); // "ppr" domain tag
    h = mix_seeds(h, seeds);
    h = mix(h, config.damping.to_bits());
    h = mix(h, config.max_iterations as u64);
    h = mix(h, config.tolerance.to_bits());
    h = mix(h, u64::from(config.include_automatic_edges));
    mix_budget(h, budget)
}

/// Fingerprints an expansion request: canonicalized seed set, every
/// [`ExpansionConfig`] knob (kind weights in declaration order), and the
/// deterministic budget caps.
pub fn fingerprint_expansion(
    seeds: &[(NodeId, f64)],
    config: &ExpansionConfig,
    budget: &Budget,
) -> u64 {
    let mut h = mix(FNV_OFFSET, 0x6578_7061); // "expa" domain tag
    h = mix_seeds(h, seeds);
    h = mix(h, config.decay.to_bits());
    h = mix(h, config.max_hops as u64);
    h = mix(h, config.min_weight.to_bits());
    h = mix(h, config.kind_weights.len() as u64);
    for &(kind, w) in &config.kind_weights {
        h = mix(h, u64::from(kind.code()));
        h = mix(h, w.to_bits());
    }
    mix_budget(h, budget)
}

// ---------------------------------------------------------------------------
// Snapshot handle
// ---------------------------------------------------------------------------

/// Owns the current [`FrozenGraph`] snapshot and keeps it at the live
/// graph's topology epoch — the frozen half of the frozen/live split.
///
/// When the topology epoch has moved, [`snapshot`](Self::snapshot)
/// refreshes the snapshot from what capture appended since (new nodes'
/// rows, new edges' reverse slots, the coefficients whose conductance
/// moved), and falls back to a full [`FrozenGraph::build`] only after a
/// redaction or when a new edge starts at an older node. Readers share
/// snapshots via [`Arc`]: a refresh mutates the snapshot in place when no
/// reader still holds it, and otherwise works on a copy, so it never
/// disturbs a walk already in flight.
#[derive(Default)]
pub struct FrozenHandle {
    slot: Mutex<Option<Current>>,
    builds: AtomicU64,
    last_build_us: AtomicU64,
    full_builds: Arc<Counter>,
}

/// The handle's snapshot and the state its next refresh starts from.
struct Current {
    frozen: Arc<FrozenGraph>,
    state: RefreshState,
}

impl std::fmt::Debug for FrozenHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHandle")
            .field("builds", &self.builds())
            .field("full_builds", &self.full_builds.get())
            .field("last_build_us", &self.last_build_us())
            .finish()
    }
}

impl FrozenHandle {
    /// An empty handle (first snapshot builds on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty handle that counts its full builds on `counter`.
    pub fn with_full_build_counter(counter: Arc<Counter>) -> Self {
        FrozenHandle {
            full_builds: counter,
            ..Self::default()
        }
    }

    /// The current snapshot of `graph`: shared while the topology epoch
    /// matches, refreshed or rebuilt (and timed) when it does not.
    pub fn snapshot(&self, graph: &ProvenanceGraph) -> Arc<FrozenGraph> {
        // The slot is emptied while an update runs, so a panic inside one
        // leaves `None` behind (the next call rebuilds) and the guard is
        // safe to recover from a poisoned lock.
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(cur) = slot.as_ref() {
            if cur.frozen.epoch() == graph.topology_epoch() {
                return cur.frozen.clone();
            }
        }
        let sw = ClockHandle::real().start();
        let cur = match slot.take() {
            Some(mut cur) if cur.frozen.refreshable_to(graph) => {
                // In place when the handle holds the only reference;
                // otherwise readers keep the old snapshot and the refresh
                // runs on a copy.
                Arc::make_mut(&mut cur.frozen).refresh(graph, &mut cur.state);
                cur
            }
            _ => {
                let (frozen, state) = FrozenGraph::build_with_state(graph);
                self.full_builds.inc();
                Current {
                    frozen: Arc::new(frozen),
                    state,
                }
            }
        };
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.last_build_us
            .store(sw.elapsed().as_micros() as u64, Ordering::Relaxed);
        let frozen = cur.frozen.clone();
        *slot = Some(cur);
        frozen
    }

    /// How many times this handle replaced its snapshot: full builds plus
    /// refreshes.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Wall time of the most recent replacement (refresh or full build),
    /// in microseconds.
    pub fn last_build_us(&self) -> u64 {
        self.last_build_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::expand;
    use crate::node::{Node, NodeKind};
    use crate::pagerank::personalized_pagerank;
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A deterministic tangled history: a long chain with periodic
    /// cross-links, overlap edges, and automatic edges.
    fn tangled(n: usize) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i as i64))))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[1], w[0], EdgeKind::Link, t(1)).unwrap();
        }
        for i in (2..n).step_by(3) {
            g.add_edge(ids[i], ids[i / 2], EdgeKind::TemporalOverlap, t(2))
                .unwrap();
        }
        for i in (4..n).step_by(5) {
            g.add_edge(ids[i], ids[i - 3], EdgeKind::Redirect, t(3))
                .unwrap();
        }
        g
    }

    #[test]
    fn csr_matches_live_adjacency_and_kinds() {
        let g = tangled(40);
        let f = FrozenGraph::build(&g);
        assert_eq!(f.node_count(), g.node_count());
        assert_eq!(f.edge_count(), g.edge_count());
        assert_eq!(f.epoch(), g.epoch());
        for id in g.node_ids() {
            let live_out: Vec<(u32, EdgeKind)> = g
                .parents(id)
                .map(|(e, p)| (p.index(), g.edge(e).unwrap().kind()))
                .collect();
            let frozen_out: Vec<(u32, EdgeKind)> = f.out_edges_of(id.index()).collect();
            assert_eq!(live_out, frozen_out, "out row of {id:?}");
            let live_in: Vec<(u32, EdgeKind)> = g
                .children(id)
                .map(|(e, c)| (c.index(), g.edge(e).unwrap().kind()))
                .collect();
            let frozen_in: Vec<(u32, EdgeKind)> = f.in_edges_of(id.index()).collect();
            assert_eq!(live_in, frozen_in, "in row of {id:?}");
        }
    }

    #[test]
    fn determinism_across_one_two_and_eight_jobs() {
        let g = tangled(3000);
        let f = FrozenGraph::build(&g);
        let seeds = vec![
            (NodeId::new(0), 1.0),
            (NodeId::new(1500), 0.5),
            (NodeId::new(2999), 0.25),
        ];
        let config = PageRankConfig::default();
        let runs: Vec<FrozenScores> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| {
                personalized_pagerank_frozen(&f, &seeds, &config, &Budget::new().with_jobs(jobs))
            })
            .collect();
        assert!(!runs[0].entries.is_empty());
        for other in &runs[1..] {
            assert_eq!(runs[0].iterations, other.iterations);
            assert_eq!(runs[0].entries.len(), other.entries.len());
            for (a, b) in runs[0].entries.iter().zip(&other.entries) {
                assert_eq!(a.0, b.0);
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "node {} diverges across job counts",
                    a.0
                );
            }
        }
    }

    #[test]
    fn kernel_agrees_with_wrapper_entry_point() {
        let g = tangled(200);
        let f = FrozenGraph::build(&g);
        let seeds = vec![(NodeId::new(7), 1.0)];
        let config = PageRankConfig::default();
        let from_kernel =
            personalized_pagerank_frozen(&f, &seeds, &config, &Budget::new()).into_scores();
        let from_wrapper = personalized_pagerank(&g, &seeds, &config);
        assert_eq!(from_kernel, from_wrapper);
    }

    #[test]
    fn automatic_edge_filter_uses_the_bitsets() {
        let mut g = ProvenanceGraph::new();
        let seed = g.add_node(Node::new(NodeKind::PageVisit, "s", t(0)));
        let by_link = g.add_node(Node::new(NodeKind::PageVisit, "l", t(1)));
        let by_redirect = g.add_node(Node::new(NodeKind::PageVisit, "r", t(1)));
        g.add_edge(by_link, seed, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(by_redirect, seed, EdgeKind::Redirect, t(1))
            .unwrap();
        let f = FrozenGraph::build(&g);
        assert_eq!(f.kind_count(EdgeKind::Link), 1);
        assert_eq!(f.kind_count(EdgeKind::Redirect), 1);
        let config = PageRankConfig {
            include_automatic_edges: false,
            ..PageRankConfig::default()
        };
        let scores =
            personalized_pagerank_frozen(&f, &[(seed, 1.0)], &config, &Budget::new()).into_scores();
        assert!(scores.score_of(by_link) > 0.0);
        assert_eq!(
            scores.score_of(by_redirect),
            0.0,
            "redirect carries no mass"
        );
    }

    #[test]
    fn zero_deadline_truncates_at_an_iteration_boundary() {
        let g = tangled(500);
        let f = FrozenGraph::build(&g);
        let scores = personalized_pagerank_frozen(
            &f,
            &[(NodeId::new(0), 1.0)],
            &PageRankConfig::default(),
            &Budget::new().with_deadline(Duration::ZERO),
        );
        assert!(scores.truncated);
        assert!(scores.iterations >= 1, "at least one iteration completes");
        assert!(!scores.entries.is_empty(), "partial scores still returned");
    }

    #[test]
    fn expansion_matches_the_live_implementation() {
        let g = tangled(60);
        let f = FrozenGraph::build(&g);
        let seeds = vec![(NodeId::new(0), 1.0), (NodeId::new(30), 0.7)];
        let config = ExpansionConfig::default();
        let live = expand(&g, &seeds, &config, &Budget::new());
        let frozen = expand_frozen(&f, &seeds, &config, &Budget::new());
        assert_eq!(live.weight.len(), frozen.entries.len());
        for &(node, w) in &frozen.entries {
            let lw = live.weight_of(NodeId::new(node));
            assert!(
                (lw - w).abs() < 1e-12,
                "node {node}: live {lw} vs frozen {w}"
            );
        }
        assert_eq!(live.truncated, frozen.truncated);
        // max_nodes truncation keeps the same heaviest set.
        let budget = Budget::new().with_max_nodes(10);
        let live = expand(&g, &seeds, &config, &budget);
        let frozen = expand_frozen(&f, &seeds, &config, &budget);
        assert!(live.truncated && frozen.truncated);
        assert_eq!(live.weight.len(), frozen.entries.len());
        for &(node, w) in &frozen.entries {
            assert!((live.weight_of(NodeId::new(node)) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_is_epoch_keyed_and_byte_budgeted() {
        // Each value(4) entry costs 4 * 16 + 96 = 160 bytes; a 320-byte
        // budget holds exactly two.
        let cache = ScoreCache::with_budget(2 * 160);
        let value = |n: usize| {
            Arc::new(CachedScores {
                entries: (0..n as u32).map(|i| (i, 1.0)).collect(),
                iterations: 3,
                truncated: false,
            })
        };
        let key = |epoch, fp| CacheKey {
            epoch,
            domain: CacheDomain::PageRank,
            fingerprint: fp,
        };
        assert!(cache.get(&key(1, 1)).is_none());
        cache.put(key(1, 1), value(4));
        assert!(cache.get(&key(1, 1)).is_some(), "same epoch hits");
        assert!(cache.get(&key(2, 1)).is_none(), "newer epoch misses");
        // Inserting at epoch 2 purges every epoch-1 entry.
        cache.put(key(2, 1), value(4));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.evictions >= 1, "stale epoch evicted");
        // LRU byte pressure: the least recently used entry goes first.
        cache.put(key(2, 2), value(4));
        let _ = cache.get(&key(2, 1)); // refresh fp=1
        cache.put(key(2, 3), value(4)); // over budget: evicts fp=2
        assert!(cache.get(&key(2, 1)).is_some(), "refreshed entry kept");
        assert!(cache.get(&key(2, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(2, 3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 4);
        assert!(stats.bytes <= 2 * 160);
    }

    #[test]
    fn fingerprints_separate_seeds_configs_and_budgets() {
        let seeds_a = vec![(NodeId::new(1), 1.0), (NodeId::new(2), 0.5)];
        let seeds_b = vec![(NodeId::new(2), 0.5), (NodeId::new(1), 1.0)];
        let seeds_c = vec![(NodeId::new(1), 1.0)];
        let cfg = PageRankConfig::default();
        let budget = Budget::new();
        assert_eq!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_b, &cfg, &budget),
            "seed order is canonicalized"
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_c, &cfg, &budget)
        );
        let other_cfg = PageRankConfig {
            damping: 0.3,
            ..PageRankConfig::default()
        };
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_a, &other_cfg, &budget)
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_a, &cfg, &Budget::new().with_max_nodes(5))
        );
        assert_eq!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_ppr(&seeds_a, &cfg, &Budget::new().with_jobs(8)),
            "jobs never changes scores, so it is not part of the key"
        );
        assert_ne!(
            fingerprint_ppr(&seeds_a, &cfg, &budget),
            fingerprint_expansion(&seeds_a, &ExpansionConfig::default(), &budget),
            "domains are tagged apart"
        );
    }

    #[test]
    fn handle_rebuilds_only_when_the_epoch_moves() {
        let mut g = tangled(10);
        let handle = FrozenHandle::new();
        let a = handle.snapshot(&g);
        let b = handle.snapshot(&g);
        assert!(Arc::ptr_eq(&a, &b), "same epoch: shared snapshot");
        assert_eq!(handle.builds(), 1);
        g.add_node(Node::new(NodeKind::PageVisit, "new", t(99)));
        let c = handle.snapshot(&g);
        assert!(!Arc::ptr_eq(&a, &c), "mutation invalidates the snapshot");
        assert_eq!(handle.builds(), 2);
        assert_eq!(c.node_count(), 11);
    }

    /// Node `i`'s row as `(target, kind, coefficient bits, no-automatic
    /// coefficient bits)`: the layout-independent content of a snapshot.
    fn row_bits(f: &FrozenGraph, i: usize) -> Vec<(u32, u8, u64, u64)> {
        f.row(i)
            .map(|s| {
                (
                    f.targets[s],
                    f.kinds[s],
                    f.pull_base[s].to_bits(),
                    f.pull_base_noauto[s].to_bits(),
                )
            })
            .collect()
    }

    /// Asserts `a` and `b` agree in every accessor, every row, both
    /// coefficient tables (bit for bit) and the key representatives, and
    /// that PageRank at 1, 2 and 8 jobs and the expansion walk return
    /// bit-identical output on both.
    fn assert_same_snapshot(a: &FrozenGraph, b: &FrozenGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.epoch(), b.epoch());
        prop_assert_eq!(a.node_count(), b.node_count());
        prop_assert_eq!(a.edge_count(), b.edge_count());
        prop_assert_eq!(a.key_reps(), b.key_reps());
        for kind in EdgeKind::ALL {
            prop_assert_eq!(a.kind_count(kind), b.kind_count(kind));
        }
        for i in 0..a.node_count() {
            let node = i as u32;
            prop_assert_eq!(
                a.out_edges_of(node).collect::<Vec<_>>(),
                b.out_edges_of(node).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                a.in_edges_of(node).collect::<Vec<_>>(),
                b.in_edges_of(node).collect::<Vec<_>>()
            );
            prop_assert_eq!(row_bits(a, i), row_bits(b, i), "row {}", i);
        }
        let bits = |entries: &[(u32, f64)]| -> Vec<(u32, u64)> {
            entries.iter().map(|&(i, s)| (i, s.to_bits())).collect()
        };
        let seeds: Vec<(NodeId, f64)> = (0..a.node_count() as u32)
            .step_by(3)
            .map(|i| (NodeId::new(i), 1.0 / f64::from(i + 1)))
            .collect();
        for include_automatic_edges in [true, false] {
            let config = PageRankConfig {
                include_automatic_edges,
                ..PageRankConfig::default()
            };
            let reference = personalized_pagerank_frozen(b, &seeds, &config, &Budget::new());
            for jobs in [1, 2, 8] {
                let budget = Budget::new().with_jobs(jobs);
                let scores = personalized_pagerank_frozen(a, &seeds, &config, &budget);
                prop_assert_eq!(scores.iterations, reference.iterations);
                prop_assert_eq!(bits(&scores.entries), bits(&reference.entries));
            }
        }
        let config = ExpansionConfig::default();
        let ea = expand_frozen(a, &seeds, &config, &Budget::new());
        let eb = expand_frozen(b, &seeds, &config, &Budget::new());
        prop_assert_eq!(bits(&ea.entries), bits(&eb.entries));
        prop_assert_eq!(ea.truncated, eb.truncated);
        Ok(())
    }

    proptest! {
        /// The CSR snapshot round-trips every node, edge, and kind filter
        /// of the live graph: adjacency rows match in content and order,
        /// per-kind counts match live kind counts, and automatic slots
        /// carry a zero coefficient in the no-automatic table.
        #[test]
        fn csr_round_trips_random_graphs(
            links in prop::collection::vec((1u8..30, 0u8..30, 0u8..15), 0..120),
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..30 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            for &(src, dst, k) in &links {
                let src = u32::from(src.max(1)) % 30;
                let dst = u32::from(dst) % src.max(1);
                let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                let _ = g.add_edge(NodeId::new(src), NodeId::new(dst), kind, t(i64::from(src)));
            }
            let f = FrozenGraph::build(&g);
            prop_assert_eq!(f.node_count(), g.node_count());
            prop_assert_eq!(f.edge_count(), g.edge_count());
            for id in g.node_ids() {
                let live_out: Vec<(u32, EdgeKind)> = g
                    .parents(id)
                    .map(|(e, p)| (p.index(), g.edge(e).unwrap().kind()))
                    .collect();
                let frozen_out: Vec<(u32, EdgeKind)> = f.out_edges_of(id.index()).collect();
                prop_assert_eq!(live_out, frozen_out);
                let live_in: Vec<(u32, EdgeKind)> = g
                    .children(id)
                    .map(|(e, c)| (c.index(), g.edge(e).unwrap().kind()))
                    .collect();
                let frozen_in: Vec<(u32, EdgeKind)> = f.in_edges_of(id.index()).collect();
                prop_assert_eq!(live_in, frozen_in);
            }
            for kind in EdgeKind::ALL {
                let live = g.edges().filter(|(_, e)| e.kind() == kind).count();
                prop_assert_eq!(f.kind_count(kind), live);
            }
            // Without automatic edges, automatic slots carry no mass.
            for id in g.node_ids() {
                for (s, (_, kind)) in f.row(id.as_usize()).zip(f.slots(f.row(id.as_usize()))) {
                    if kind.is_automatic() {
                        prop_assert_eq!(f.pull_base_noauto[s].to_bits(), 0.0f64.to_bits());
                    }
                }
            }
        }

        /// Parallel and serial kernels agree bit-for-bit on random DAGs.
        #[test]
        fn parallel_kernel_is_bit_identical_on_random_graphs(
            links in prop::collection::vec((1u8..25, 0u8..25), 0..80),
            seed in 0u8..25,
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..26 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            for &(src, dst) in &links {
                let src = u32::from(src.max(1));
                let dst = u32::from(dst) % src;
                let _ = g.add_edge(NodeId::new(src % 26), NodeId::new(dst), EdgeKind::Link, t(1));
            }
            let f = FrozenGraph::build(&g);
            let seeds = vec![(NodeId::new(u32::from(seed) % 26), 1.0)];
            let config = PageRankConfig::default();
            let serial = personalized_pagerank_frozen(&f, &seeds, &config, &Budget::new());
            let parallel =
                personalized_pagerank_frozen(&f, &seeds, &config, &Budget::new().with_jobs(4));
            prop_assert_eq!(serial.iterations, parallel.iterations);
            prop_assert_eq!(serial.entries.len(), parallel.entries.len());
            for (a, b) in serial.entries.iter().zip(&parallel.entries) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }

        /// A handle refreshed after every step of a random capture-like
        /// script equals a full build of the live graph, whether it
        /// refreshes in place, refreshes a copy because an older snapshot
        /// is still held, or falls back to a full build. It falls back only
        /// after a redaction or an edge from a node that predates the
        /// snapshot, and attribute-only mutations keep the very same
        /// snapshot and every cached score.
        #[test]
        fn refreshed_snapshots_equal_full_builds(
            script in prop::collection::vec((0u8..20, 0u8..64, 0u8..64, 0u8..16), 1..48),
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..4 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("k{i}"), t(i)));
            }
            g.add_edge(NodeId::new(1), NodeId::new(0), EdgeKind::Link, t(1)).unwrap();
            let full_builds = Arc::new(Counter::default());
            let handle = FrozenHandle::with_full_build_counter(full_builds.clone());
            let cache = ScoreCache::new();
            let mut current = handle.snapshot(&g);
            let mut held: Vec<(Arc<FrozenGraph>, usize, u64)> = Vec::new();
            let mut must_rebuild = false;
            for (step, &(op, a, b, c)) in script.iter().enumerate() {
                let n = g.node_count() as u32;
                let snapshot_nodes = current.node_count() as u32;
                let kind = EdgeKind::from_code(c % 15).unwrap_or(EdgeKind::Link);
                let at = t(i64::from(n));
                match op {
                    // A new node, with up to three edges to older nodes.
                    0..=7 => {
                        let v = g.add_node(Node::new(
                            NodeKind::PageVisit,
                            format!("k{}", a % 8),
                            at,
                        ));
                        for j in 0..u32::from(b % 4) {
                            let dst = NodeId::new((u32::from(a) + 7 * j) % n);
                            g.add_edge(v, dst, kind, at).unwrap();
                        }
                    }
                    // A new version: the node plus its VersionOf edge.
                    8..=10 => {
                        g.add_version(NodeKind::PageVisit, &format!("v{}", a % 4), at);
                    }
                    // An edge from the newest node.
                    11..=13 => {
                        let src = n - 1;
                        if src > 0 {
                            must_rebuild |= src < snapshot_nodes;
                            let dst = NodeId::new(u32::from(a) % src);
                            g.add_edge(NodeId::new(src), dst, kind, at).unwrap();
                        }
                    }
                    // Attribute-only mutation: same snapshot, cache hits.
                    14..=16 if current.epoch() == g.topology_epoch() => {
                        let key = CacheKey {
                            epoch: current.epoch(),
                            domain: CacheDomain::PageRank,
                            fingerprint: u64::from(a),
                        };
                        cache.put(key, Arc::new(CachedScores::default()));
                        let node = g.node_mut(NodeId::new(u32::from(a) % n)).unwrap();
                        if b % 2 == 0 {
                            node.attrs_mut().set("title", format!("t{c}"));
                        } else {
                            node.close_at(t(1_000));
                        }
                        let after = handle.snapshot(&g);
                        prop_assert!(Arc::ptr_eq(&current, &after));
                        let key = CacheKey { epoch: after.epoch(), ..key };
                        prop_assert!(cache.get(&key).is_some());
                    }
                    14..=16 => {
                        g.node_mut(NodeId::new(u32::from(a) % n))
                            .unwrap()
                            .close_at(t(1_000));
                    }
                    // Redaction: rewrites a key in place.
                    17 => {
                        must_rebuild = true;
                        g.redact_node(NodeId::new(u32::from(a) % n), format!("[r{a}]"))
                            .unwrap();
                    }
                    // An edge from an older node.
                    _ => {
                        let src = 1 + u32::from(a) % (n - 1);
                        must_rebuild |= src < snapshot_nodes;
                        let dst = NodeId::new(u32::from(b) % src);
                        g.add_edge(NodeId::new(src), dst, kind, at).unwrap();
                    }
                }
                // Sometimes batch several steps into one refresh, so one
                // older row gains several reverse slots at once.
                if b % 4 == 1 && step + 1 < script.len() {
                    continue;
                }
                if b % 3 == 0 {
                    held.push((current.clone(), current.node_count(), current.epoch()));
                }
                if c % 5 == 0 {
                    held.clear();
                }
                let full_before = full_builds.get();
                let topology_moved = current.epoch() != g.topology_epoch();
                drop(current);
                current = handle.snapshot(&g);
                let rebuilt = full_builds.get() - full_before;
                prop_assert_eq!(rebuilt, u64::from(topology_moved && must_rebuild));
                must_rebuild = false;
                assert_same_snapshot(&current, &FrozenGraph::build(&g))?;
                for (old, nodes, epoch) in &held {
                    prop_assert_eq!(old.node_count(), *nodes);
                    prop_assert_eq!(old.epoch(), *epoch);
                }
            }
        }
    }
}
