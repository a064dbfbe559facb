//! End-to-end integration: simulator → capture → store → all four
//! use-case queries, on one multi-day history.

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::stats::stats;
use bp_graph::traverse::Budget;
use bp_graph::NodeKind;
use bp_query::{
    contextual_history_search, downloads_descending_from, find_download,
    first_recognizable_ancestor, personalize_query, time_contextual_search, ContextualConfig,
    LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::calibrate;
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-it-e2e-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn week_browser(tag: &str, seed: u64) -> (TempDir, ProvenanceBrowser) {
    let dir = TempDir::new(tag);
    let web = calibrate::paper_web(seed);
    let events = calibrate::days_history(&web, seed, 7);
    let mut browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    let n = browser.ingest_all(&events).unwrap();
    assert_eq!(n, events.len());
    (dir, browser)
}

#[test]
fn two_ingests_of_one_stream_capture_identical_edges() {
    let edges = |browser: &ProvenanceBrowser| -> Vec<_> {
        browser
            .graph()
            .edges()
            .map(|(_, e)| (e.src(), e.dst(), e.kind(), e.at()))
            .collect()
    };
    let (_a, first) = week_browser("determinism-a", 11);
    let (_b, second) = week_browser("determinism-b", 11);
    assert_eq!(first.graph().node_count(), second.graph().node_count());
    assert_eq!(edges(&first), edges(&second));
}

#[test]
fn full_pipeline_produces_a_healthy_graph() {
    let (_dir, browser) = week_browser("healthy", 11);
    let s = stats(browser.graph());
    assert!(
        s.nodes > 500,
        "a week of browsing is substantial: {}",
        s.nodes
    );
    assert!(s.edges > s.nodes / 2);
    assert!(browser.graph().verify_acyclic());
    // Every §3.3 object kind shows up.
    for kind in [
        NodeKind::PageVisit,
        NodeKind::Page,
        NodeKind::SearchTerm,
        NodeKind::Bookmark,
        NodeKind::Download,
        NodeKind::FormEntry,
        NodeKind::Tab,
    ] {
        assert!(
            browser.graph().nodes_of_kind(kind).count() > 0,
            "missing node kind {kind}"
        );
    }
    // No silent drops: every search term node has at least one descendant
    // (the results page it generated).
    for term in browser.graph().nodes_of_kind(NodeKind::SearchTerm) {
        assert!(browser.graph().in_degree(term) > 0, "orphan search term");
    }
}

#[test]
fn all_four_use_case_queries_run_within_the_paper_bound() {
    let (_dir, browser) = week_browser("queries", 12);

    // §2.1 — contextual history search.
    let contextual =
        contextual_history_search(&browser, "news report", &ContextualConfig::default());
    assert!(!contextual.hits.is_empty());
    assert!(
        contextual.elapsed.as_millis() < 200,
        "contextual took {:?}",
        contextual.elapsed
    );

    // §2.2 — personalization.
    let expanded = personalize_query(&browser, "report", &PersonalizeConfig::default());
    let _ = expanded.to_query_string();

    // §2.3 — time-contextual search. Subject and companion both exist in
    // a generic user's vocabulary.
    let timectx =
        time_contextual_search(&browser, "news", "software", &TimeContextConfig::default());
    assert!(timectx.elapsed.as_millis() < 200, "{:?}", timectx.elapsed);

    // §2.4 — lineage over a real simulated download, if the week had one.
    let download = browser.graph().nodes_of_kind(NodeKind::Download).next();
    if let Some(dl) = download {
        let answer = first_recognizable_ancestor(
            &browser,
            dl,
            &LineageConfig {
                recognizable_visits: 1,
                ..LineageConfig::default()
            },
        );
        assert!(answer.is_some(), "every download has at least its page");
        let answer = answer.unwrap();
        assert!(answer.elapsed.as_millis() < 200);
        assert!(answer.path.hops() >= 1);
    }
}

#[test]
fn lineage_and_descendants_are_mutually_consistent() {
    let (_dir, browser) = week_browser("consistency", 13);
    let downloads: Vec<_> = browser.graph().nodes_of_kind(NodeKind::Download).collect();
    for dl in downloads.iter().take(5) {
        let path = browser.graph().node(*dl).unwrap().key().to_owned();
        assert_eq!(find_download(&browser, &path), Some(*dl));
        // The download's direct source page must list it as a descendant.
        let (lineage, _) = bp_query::full_lineage(&browser, *dl, &Budget::new());
        let source_url = lineage
            .iter()
            .find(|(n, _)| browser.graph().node(*n).unwrap().kind() == NodeKind::PageVisit)
            .map(|(_, url)| url.clone());
        if let Some(url) = source_url {
            let descendants = downloads_descending_from(&browser, &url, &Budget::new());
            assert!(
                descendants.iter().any(|(n, _)| n == dl),
                "download must descend from its own source page"
            );
        }
    }
}

#[test]
fn text_index_covers_every_visit() {
    let (_dir, browser) = week_browser("coverage", 14);
    // Every visit's URL tokens must be findable — no silently unindexed
    // history (the §3.3 "at the very least" expectation).
    let mut checked = 0;
    for (id, node) in browser.graph().nodes() {
        if node.kind() != NodeKind::PageVisit || checked > 50 {
            continue;
        }
        let tokens = bp_text::significant_tokens(node.key());
        let Some(token) = tokens.first() else {
            continue;
        };
        let hits = browser.text_index().search(token);
        assert!(
            hits.iter().any(|(doc, _)| *doc == id.index()),
            "visit {id} not indexed under {token:?}"
        );
        checked += 1;
    }
    assert!(checked > 10);
}

#[test]
fn deadline_budget_bounds_worst_case_queries() {
    let (_dir, browser) = week_browser("bound", 15);
    let config = ContextualConfig {
        budget: Budget::new().with_deadline(std::time::Duration::from_millis(200)),
        ..ContextualConfig::default()
    };
    // Query matching very many documents (every URL contains "example").
    let r = contextual_history_search(&browser, "example news game wine", &config);
    // Generous envelope: deadline 200 ms plus scheduling slack.
    assert!(
        r.elapsed.as_millis() < 400,
        "bounded query ran {:?}",
        r.elapsed
    );
}
