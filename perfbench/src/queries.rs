//! The query mix: all seven use-case paths, round-robin, with inputs drawn
//! from the workload seed.
//!
//! Terms are drawn Zipf(s = 1) over the simulator's 160-term topic
//! vocabulary, ranked by how much of the history each term matches, so a
//! few hot terms repeat (and can hit the score cache) while the tail keeps
//! missing it. Downloads are drawn
//! uniformly from the ones the history captured.

use crate::check::{self, ResultLog};
use crate::stats::Samples;
use crate::trace::Tracer;
use bp_core::ProvenanceBrowser;
use bp_graph::pagerank::PageRankConfig;
use bp_graph::{NodeId, NodeKind};
use bp_query::{
    contextual_history_search, contextual_history_search_ppr, describe_origin,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, DescribeConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::web::{Zipf, TOPICS};
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// The paper's interactive bound. A query slower than this is counted,
/// but not as a failed operation: whether a query crosses it depends on
/// machine load, and a failed operation is one whose output is wrong.
pub const QUERY_BOUND: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    Context,
    Ppr,
    Personalize,
    Timectx,
    Lineage,
    Describe,
    Textual,
}

pub const PATHS: [QueryPath; 7] = [
    QueryPath::Context,
    QueryPath::Ppr,
    QueryPath::Personalize,
    QueryPath::Timectx,
    QueryPath::Lineage,
    QueryPath::Describe,
    QueryPath::Textual,
];

impl QueryPath {
    pub fn span(self) -> &'static str {
        match self {
            QueryPath::Context => "query.context",
            QueryPath::Ppr => "query.ppr",
            QueryPath::Personalize => "query.personalize",
            QueryPath::Timectx => "query.timectx",
            QueryPath::Lineage => "query.lineage",
            QueryPath::Describe => "query.describe",
            QueryPath::Textual => "query.textual",
        }
    }

    /// Paths that read the frozen snapshot, so the first of them after a
    /// write rebuilds it (context, ppr and personalize also share the
    /// score cache).
    pub fn reads_snapshot(self) -> bool {
        matches!(
            self,
            QueryPath::Context | QueryPath::Ppr | QueryPath::Personalize | QueryPath::Lineage
        )
    }

    /// Paths that start from a text-index search for their term.
    fn textual(self) -> bool {
        matches!(
            self,
            QueryPath::Context
                | QueryPath::Ppr
                | QueryPath::Personalize
                | QueryPath::Timectx
                | QueryPath::Textual
        )
    }

    fn index(self) -> usize {
        PATHS.iter().position(|&p| p == self).unwrap_or(0)
    }
}

/// One query: a path plus its inputs (`a` is a term or a download index,
/// `b` the companion term of a time-contextual query).
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub path: QueryPath,
    pub a: usize,
    pub b: usize,
}

impl Query {
    fn key(&self) -> u64 {
        ((self.path.index() as u64) << 40) | ((self.a as u64) << 20) | self.b as u64
    }
}

/// The downloads a history captured, with their paths.
fn downloads(browser: &ProvenanceBrowser) -> Vec<(NodeId, String)> {
    let graph = browser.graph();
    graph
        .nodes_of_kind(NodeKind::Download)
        .filter_map(|id| graph.node(id).ok().map(|n| (id, n.key().to_owned())))
        .collect()
}

/// The simulator's topic vocabulary, 160 terms.
fn vocabulary() -> Vec<&'static str> {
    TOPICS
        .iter()
        .flat_map(|t| t.vocabulary.iter().copied())
        .collect()
}

/// Per download, whether a causal ancestor is a page visit the user
/// visited at least `recognizable_visits` times: the benchmark's own walk
/// over the edge list, so a lineage query answering `None` for such a
/// download is a missing answer, while `None` for the others is correct.
/// Edges never gain new ancestors for an existing node and visit counts
/// only grow, so a `true` here stays true while writes continue.
fn recognizable_ancestors(
    browser: &ProvenanceBrowser,
    downloads: &[(NodeId, String)],
) -> Vec<bool> {
    let graph = browser.graph();
    let mut causes: Vec<Vec<u32>> = vec![Vec::new(); graph.node_count()];
    for (_, e) in graph.edges() {
        if e.kind().is_causal() {
            causes[e.src().index() as usize].push(e.dst().index());
        }
    }
    let threshold = LineageConfig::default().recognizable_visits;
    let recognizable = |n: u32| {
        graph.node(NodeId::new(n)).is_ok_and(|node| {
            node.kind() == NodeKind::PageVisit && browser.visit_count(node.key()) >= threshold
        })
    };
    downloads
        .iter()
        .map(|(id, _)| {
            let mut seen = vec![false; causes.len()];
            let mut stack = causes[id.index() as usize].clone();
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut seen[n as usize], true) {
                    continue;
                }
                if recognizable(n) {
                    return true;
                }
                stack.extend_from_slice(&causes[n as usize]);
            }
            false
        })
        .collect()
}

/// The seeded query stream.
#[derive(Debug)]
pub struct QueryMix {
    pub terms: Vec<&'static str>,
    zipf: Zipf,
    rng: ChaCha8Rng,
    next_path: usize,
    downloads: Vec<(NodeId, String)>,
    has_ancestor: Vec<bool>,
    /// Tells apart the stores results are compared on.
    instance: u64,
}

impl QueryMix {
    /// The query stream over `browser`'s history. Results are compared
    /// only among queries of one mix, so make one mix per store.
    pub fn new(seed: u64, browser: &ProvenanceBrowser) -> Self {
        let downloads = downloads(browser);
        let has_ancestor = recognizable_ancestors(browser, &downloads);
        // Terms that match more of the history are asked more often: rank
        // 1 of the Zipf draw is the term with the most matching documents.
        let index = browser.text_index();
        let mut terms = vocabulary();
        terms.sort_by_key(|t| std::cmp::Reverse(index.search(t).len()));
        QueryMix {
            zipf: Zipf::new(terms.len(), 1.0),
            terms,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x7175_6572_795f_6d69),
            next_path: 0,
            downloads,
            has_ancestor,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    pub fn next_query(&mut self) -> Query {
        let path = PATHS[self.next_path % PATHS.len()];
        self.next_path += 1;
        let (a, b) = match path {
            QueryPath::Lineage | QueryPath::Describe => {
                (self.rng.gen_range(0..self.downloads.len()), 0)
            }
            QueryPath::Timectx => (
                self.zipf.sample(&mut self.rng),
                self.zipf.sample(&mut self.rng),
            ),
            _ => (self.zipf.sample(&mut self.rng), 0),
        };
        Query { path, a, b }
    }
}

/// Query configurations: the library defaults, which carry no deadline,
/// so a result never depends on machine load.
#[derive(Debug, Default)]
pub struct Configs {
    contextual: ContextualConfig,
    personalize: PersonalizeConfig,
    timectx: TimeContextConfig,
    lineage: LineageConfig,
    describe: DescribeConfig,
    pagerank: PageRankConfig,
}

/// What the query side of a run measured and checked.
#[derive(Debug, Default)]
pub struct QueryStats {
    pub latency_us: [Samples; 7],
    pub queries: usize,
    pub snapshot_queries: usize,
    /// Failed queries: truncated results and missing lineage or describe
    /// answers.
    pub truncated: usize,
    pub missing: usize,
    /// Queries slower than [`QUERY_BOUND`].
    pub over_bound: usize,
    pub results: ResultLog,
    /// `frozen()` calls that rebuilt the snapshot: the set-up's, and in
    /// traced runs the ones made before each query that reads it.
    pub frozen_build_us: Samples,
}

impl QueryStats {
    pub fn failed(&self) -> usize {
        self.truncated + self.missing
    }

    pub fn latency(&self, path: QueryPath) -> &Samples {
        &self.latency_us[path.index()]
    }
}

/// Runs one query, timing it and checking its result.
pub fn run_query(
    browser: &ProvenanceBrowser,
    mix: &QueryMix,
    cfg: &Configs,
    q: Query,
    tr: &mut Tracer,
    stats: &mut QueryStats,
) {
    let term = mix.terms[q.a % mix.terms.len()];
    tr.next_op();
    let span = tr.enter(q.path.span());
    if tr.on() && q.path.reads_snapshot() {
        // The snapshot a query would rebuild is built here instead, under
        // its own span, so the query's self time excludes it.
        let builds = browser.frozen_stats().0;
        let t0 = Instant::now();
        tr.time("graph.frozen", || browser.frozen());
        if browser.frozen_stats().0 != builds {
            stats.frozen_build_us.push_us(t0.elapsed());
        }
    }
    if tr.on() && q.path.textual() {
        tr.time("text.search", || browser.text_index().search(term));
    }
    let t0 = Instant::now();
    let (fingerprint, truncated, missing) = match q.path {
        QueryPath::Context => {
            let r = contextual_history_search(browser, term, &cfg.contextual);
            (
                check::hits_fingerprint(&r.hits, r.truncated),
                r.truncated,
                false,
            )
        }
        QueryPath::Ppr => {
            let r = contextual_history_search_ppr(browser, term, &cfg.contextual, &cfg.pagerank);
            (
                check::hits_fingerprint(&r.hits, r.truncated),
                r.truncated,
                false,
            )
        }
        QueryPath::Textual => {
            let r = textual_history_search(browser, term, &cfg.contextual);
            (
                check::hits_fingerprint(&r.hits, r.truncated),
                r.truncated,
                false,
            )
        }
        QueryPath::Timectx => {
            let companion = mix.terms[q.b % mix.terms.len()];
            let r = time_contextual_search(browser, term, companion, &cfg.timectx);
            (
                check::hits_fingerprint(&r.hits, r.truncated),
                r.truncated,
                false,
            )
        }
        QueryPath::Personalize => {
            let r = personalize_query(browser, term, &cfg.personalize);
            (check::terms_fingerprint(&r.added_terms), false, false)
        }
        QueryPath::Lineage => {
            let (id, _) = &mix.downloads[q.a];
            match first_recognizable_ancestor(browser, *id, &cfg.lineage) {
                Some(answer) => (check::lineage_fingerprint(&answer), false, false),
                None => (0, false, mix.has_ancestor[q.a]),
            }
        }
        QueryPath::Describe => {
            let (_, key) = &mix.downloads[q.a];
            match describe_origin(browser, key, &cfg.describe) {
                Some(text) => (check::text_fingerprint(&text), false, false),
                None => (0, false, true),
            }
        }
    };
    let elapsed = t0.elapsed();
    tr.exit(span);
    stats.latency_us[q.path.index()].push_us(elapsed);
    stats.queries += 1;
    stats.snapshot_queries += usize::from(q.path.reads_snapshot());
    stats.truncated += usize::from(truncated);
    stats.missing += usize::from(missing);
    stats.over_bound += usize::from(elapsed > QUERY_BOUND);
    stats
        .results
        .record(mix.instance, browser.graph().epoch(), q.key(), fingerprint);
}

/// Fingerprints of the textual, context and ppr results for every
/// vocabulary term: the query set compared across a restart.
pub fn restart_set(browser: &ProvenanceBrowser, cfg: &Configs) -> Vec<u64> {
    let mut out = Vec::new();
    for term in vocabulary() {
        let r = textual_history_search(browser, term, &cfg.contextual);
        out.push(check::hits_fingerprint(&r.hits, r.truncated));
        let r = contextual_history_search(browser, term, &cfg.contextual);
        out.push(check::hits_fingerprint(&r.hits, r.truncated));
        let r = contextual_history_search_ppr(browser, term, &cfg.contextual, &cfg.pagerank);
        out.push(check::hits_fingerprint(&r.hits, r.truncated));
    }
    out
}
