//! Streams, set-up, and the restart step every workload ends with.

use crate::check::{Counts, GraphSig};
use crate::queries::{self, Configs};
use crate::stats::Samples;
use crate::trace::Tracer;
use bp_core::{BrowserEvent, CaptureConfig, CoreError, ProvenanceBrowser};
use bp_places::{PlacesDb, PlacesIngester};
use bp_sim::calibrate::{days_history, paper_web, PAPER_DAYS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// One simulation of `79 + extra` days, split at the day-79 timestamp.
/// Both halves come from one run of the simulator, so the suffix only
/// uses tabs and pages the prefix set up: every event is valid when the
/// suffix is fed to a store that holds the prefix.
#[derive(Debug)]
pub struct Stream {
    pub prefix: Vec<BrowserEvent>,
    pub suffix: Vec<BrowserEvent>,
}

pub fn simulate(seed: u64, extra_days: u32) -> Stream {
    let web = paper_web(seed);
    let mut prefix = days_history(&web, seed, PAPER_DAYS + extra_days);
    let day79 = i64::from(PAPER_DAYS) * 86_400;
    let split = prefix
        .iter()
        .position(|e| e.at.as_secs() >= day79)
        .unwrap_or(prefix.len());
    let suffix = prefix.split_off(split);
    Stream { prefix, suffix }
}

pub fn open(dir: &Path) -> Result<ProvenanceBrowser, String> {
    ProvenanceBrowser::open(dir, CaptureConfig::default()).map_err(|e| e.to_string())
}

/// Copies the files of a synced store directory into `to`, so the copy
/// can be reopened while the original is being written.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if !entry.file_type().map_err(io)?.is_file() {
            return Err(format!("{} is not a file", entry.path().display()));
        }
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// Synchronous ingest: one `ingest` call per event, then one `sync`.
/// Returns the number of rejected events.
pub fn ingest_each(
    b: &mut ProvenanceBrowser,
    events: &[BrowserEvent],
    tr: &mut Tracer,
) -> Result<usize, String> {
    let mut rejected = 0;
    for event in events {
        match tr.time("core.ingest", || b.ingest(event)) {
            Ok(_) => {}
            Err(CoreError::BadEvent(_)) => rejected += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    b.sync().map_err(|e| e.to_string())?;
    Ok(rejected)
}

/// The 79-day store every workload starts from, built [`SETUP_REPS`]
/// times from scratch; the last build is kept.
#[derive(Debug)]
pub struct Setup {
    pub stream: Stream,
    pub browser: ProvenanceBrowser,
    pub dir: PathBuf,
    pub setup_s: Samples,
    pub counts: Counts,
    pub rejected: usize,
    /// Traced runs only: edges that differ between two builds.
    pub divergent_edges: usize,
    pub frozen_build_us: Samples,
    pub problems: Vec<String>,
}

/// Simulates the stream, ingests the 79-day prefix synchronously into a
/// fresh profile and builds the frozen snapshot, so the store is ready
/// for queries.
pub fn setup(work: &Path, seed: u64, extra_days: u32, tr: &mut Tracer) -> Result<Setup, String> {
    let mut setup_s = Samples::new();
    let mut frozen_build_us = Samples::new();
    let mut rejected = 0;
    let mut problems = Vec::new();
    let mut first: Option<(Counts, Option<GraphSig>)> = None;
    let mut divergent_edges = 0;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let stream = tr.time("sim.generate", || simulate(seed, extra_days));
        let dir = work.join(format!("setup-{rep}"));
        let mut browser = open(&dir)?;
        rejected += ingest_each(&mut browser, &stream.prefix, tr)?;
        let f0 = Instant::now();
        tr.time("graph.frozen", || browser.frozen());
        frozen_build_us.push_us(f0.elapsed());
        setup_s.push(t0.elapsed().as_secs_f64());

        let counts = Counts::of(browser.graph());
        match &first {
            None => {
                let sig = tr.on().then(|| GraphSig::of(browser.graph()));
                first = Some((counts.clone(), sig));
            }
            Some((reference, sig)) => {
                if let Some(d) = counts.diff(reference) {
                    problems.push(format!("set-up builds disagree: {d}"));
                }
                if let (1, Some(sig)) = (rep, sig) {
                    divergent_edges = sig.divergent_edges(&GraphSig::of(browser.graph()));
                }
            }
        }
        if rep + 1 == SETUP_REPS {
            return Ok(Setup {
                stream,
                browser,
                dir,
                setup_s,
                counts,
                rejected,
                divergent_edges,
                frozen_build_us,
                problems,
            });
        }
        drop(browser);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Err("no set-up ran".to_owned())
}

/// Bytes the Places baseline needs for the same events.
pub fn places_bytes<'a>(events: impl IntoIterator<Item = &'a BrowserEvent>) -> Result<f64, String> {
    let mut db = PlacesDb::new();
    PlacesIngester::new()
        .ingest_all(&mut db, events)
        .map_err(|e| format!("places ingest: {e:?}"))?;
    Ok(db.encoded_size() as f64)
}

/// What closing a live store and starting it again measured.
#[derive(Debug, Default)]
pub struct Restart {
    pub recover_s: Samples,
    pub wal_bytes: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    /// Snapshot plus residual log bytes after compaction.
    pub store_bytes: f64,
    pub text_docs: f64,
    pub text_postings: f64,
    /// Traced runs only: restart-set results that changed.
    pub restart_mismatches: usize,
    pub problems: Vec<String>,
}

/// Closes `live`, reopens its WAL-only profile `reopens` times (browser
/// start after a crash), checks that the recovered graph is exactly the
/// live one, then snapshots it. Returns the last recovered instance.
pub fn restart(
    dir: &Path,
    live: ProvenanceBrowser,
    reopens: usize,
    restart_set: Option<&Configs>,
    tr: &mut Tracer,
) -> Result<(Restart, ProvenanceBrowser), String> {
    let mut out = Restart {
        wal_bytes: live.size_report().log_bytes as f64,
        ..Restart::default()
    };
    let sig = GraphSig::of(live.graph());
    let before = restart_set.map(|cfg| queries::restart_set(&live, cfg));
    drop(live);
    let mut recovered = None;
    for _ in 0..reopens.max(1) {
        drop(recovered.take());
        let t0 = Instant::now();
        let b = tr.time("storage.recover", || open(dir))?;
        out.recover_s.push(t0.elapsed().as_secs_f64());
        recovered = Some(b);
    }
    let mut b = recovered.ok_or("no reopen ran")?;
    if let Some(d) = sig.diff(&GraphSig::of(b.graph())) {
        out.problems
            .push(format!("recovered graph differs from live: {d}"));
    }
    if let (Some(before), Some(cfg)) = (before, restart_set) {
        let after = queries::restart_set(&b, cfg);
        out.restart_mismatches = before.iter().zip(&after).filter(|(x, y)| x != y).count();
    }
    out.text_docs = b.text_index().doc_count() as f64;
    out.text_postings = b.text_index().posting_count() as f64;
    let t0 = Instant::now();
    tr.time("storage.snapshot", || b.snapshot())
        .map_err(|e| e.to_string())?;
    out.snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let size = b.size_report();
    out.snapshot_bytes = size.snapshot_bytes as f64;
    out.store_bytes = (size.snapshot_bytes + size.log_bytes) as f64;
    Ok((out, b))
}
