//! The two workloads. Each one reports every end-to-end metric (see
//! NOTES.md for where each metric comes from on each workload) and, when
//! traced, every per-layer metric.

use crate::check::Counts;
use crate::queries::{self, Configs, QueryMix, QueryPath, QueryStats};
use crate::setup::{self, Restart};
use crate::stats::Samples;
use crate::trace::Tracer;
use bp_core::{BrowserEvent, CapturePipeline, ProvenanceBrowser, SharedBrowser};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Share of an `idle-79d` run spent on write passes; query slices get
/// the rest.
const WRITE_SHARE: f64 = 0.5;

/// Length of one query slice between write passes.
const SLICE: Duration = Duration::from_millis(250);

/// Events per durable chunk in the write phase: the serve feeder's size.
const CHUNK: usize = 64;

/// `mixed-79d` writer: one chunk of this many events every [`PACE`].
const MIXED_CHUNK: usize = 8;
const PACE: Duration = Duration::from_millis(50);

/// How often the `mixed-79d` query client stops to time a reopen of a
/// copy of the set-up store. Spreading the reopens over the whole run
/// keeps the VM's speed drift out of their median.
const RECOVER_EVERY: Duration = Duration::from_secs(3);

pub struct Run {
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layer: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Everything a workload measured, before it becomes metrics.
#[derive(Default)]
struct Measures {
    setup_s: Samples,
    events_per_s: Samples,
    ack_us: Samples,
    recover_s: Samples,
    store_ratio: Samples,
    snapshot_ms: Samples,
    snapshot_bytes: Samples,
    wal_bytes_per_event: Samples,
    places_bytes: f64,
    text_docs: f64,
    text_postings: f64,
    queries: QueryStats,
    query_wall_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    frozen_builds: u64,
    writer_late_us: Samples,
    divergent_edges: usize,
    restart_mismatches: usize,
    events_attempted: usize,
    rejected: usize,
    pipeline_failures: usize,
    problems: Vec<String>,
}

impl Measures {
    fn from_setup(s: &setup::Setup) -> Self {
        Measures {
            setup_s: s.setup_s.clone(),
            events_attempted: s.stream.prefix.len() * s.setup_s.len(),
            rejected: s.rejected,
            divergent_edges: s.divergent_edges,
            problems: s.problems.clone(),
            queries: QueryStats {
                frozen_build_us: s.frozen_build_us.clone(),
                ..QueryStats::default()
            },
            ..Measures::default()
        }
    }

    fn add_restart(&mut self, r: Restart, events: usize, places_bytes: f64) {
        self.recover_s.extend(&r.recover_s);
        self.store_ratio.push(r.store_bytes / places_bytes);
        self.snapshot_ms.push(r.snapshot_ms);
        self.snapshot_bytes.push(r.snapshot_bytes);
        self.wal_bytes_per_event.push(r.wal_bytes / events as f64);
        self.places_bytes = places_bytes;
        self.text_docs = r.text_docs;
        self.text_postings = r.text_postings;
        self.restart_mismatches = self.restart_mismatches.max(r.restart_mismatches);
        self.problems.extend(r.problems);
    }

    /// Runs the query mix on `browser` until `until`, counting the score
    /// cache and frozen-snapshot work it caused.
    fn query_until(
        &mut self,
        browser: &ProvenanceBrowser,
        mix: &mut QueryMix,
        cfg: &Configs,
        until: Instant,
        tr: &mut Tracer,
    ) {
        let cache0 = browser.score_cache().stats();
        let builds0 = browser.frozen_stats().0;
        let t0 = Instant::now();
        while Instant::now() < until {
            let q = mix.next_query();
            queries::run_query(browser, mix, cfg, q, tr, &mut self.queries);
        }
        self.query_wall_s += t0.elapsed().as_secs_f64();
        let cache = browser.score_cache().stats();
        self.cache_hits += cache.hits - cache0.hits;
        self.cache_misses += cache.misses - cache0.misses;
        self.cache_evictions += cache.evictions - cache0.evictions;
        self.frozen_builds += browser.frozen_stats().0 - builds0;
    }

    fn finish(mut self, tr: &Tracer) -> Run {
        let q = &self.queries;
        let lat = |p: QueryPath, quantile: f64| q.latency(p).quantile(quantile);
        let e2e = vec![
            ("setup_s", self.setup_s.median(), "s"),
            ("recover_s", self.recover_s.median(), "s"),
            (
                "store_bytes_per_places_byte",
                self.store_ratio.median(),
                "ratio",
            ),
            (
                "queries_per_s",
                q.queries as f64 / self.query_wall_s.max(1e-9),
                "1/s",
            ),
            ("context_p50_us", lat(QueryPath::Context, 0.5), "us"),
            ("ppr_p50_us", lat(QueryPath::Ppr, 0.5), "us"),
            ("personalize_p50_us", lat(QueryPath::Personalize, 0.5), "us"),
            ("timectx_p50_us", lat(QueryPath::Timectx, 0.5), "us"),
        ];
        let lookups = (self.cache_hits + self.cache_misses).max(1) as f64;
        let snapshot_queries = q.snapshot_queries.max(1) as f64;
        let read_wait = tr.durations_us("core.read_wait");
        let layer = vec![
            (
                "sim.generate_s",
                tr.durations_us("sim.generate").median() / 1e6,
                "s",
            ),
            (
                "core.ingest_us.p50",
                tr.durations_us("core.ingest").median(),
                "us",
            ),
            (
                "core.ingest_us.p99",
                tr.durations_us("core.ingest").quantile(0.99),
                "us",
            ),
            (
                "core.submit_us.p50",
                tr.durations_us("core.submit").median(),
                "us",
            ),
            (
                "core.flush_us.p50",
                tr.durations_us("core.flush").median(),
                "us",
            ),
            (
                "core.flush_us.p99",
                tr.durations_us("core.flush").quantile(0.99),
                "us",
            ),
            (
                "core.write_wait_us.p50",
                tr.durations_us("core.write_wait").median(),
                "us",
            ),
            (
                "core.write_wait_us.p99",
                tr.durations_us("core.write_wait").quantile(0.99),
                "us",
            ),
            ("core.read_wait_us.p50", read_wait.median(), "us"),
            ("core.read_wait_us.p99", read_wait.quantile(0.99), "us"),
            ("core.rejected_events", self.rejected as f64, "count"),
            ("core.divergent_edges", self.divergent_edges as f64, "count"),
            (
                "storage.sync_us.p50",
                tr.durations_us("storage.sync").median(),
                "us",
            ),
            (
                "storage.sync_us.p99",
                tr.durations_us("storage.sync").quantile(0.99),
                "us",
            ),
            (
                "storage.wal_bytes_per_event",
                self.wal_bytes_per_event.median(),
                "bytes",
            ),
            ("storage.snapshot_ms", self.snapshot_ms.median(), "ms"),
            (
                "storage.snapshot_bytes",
                self.snapshot_bytes.median(),
                "bytes",
            ),
            ("places.bytes", self.places_bytes, "bytes"),
            (
                "graph.frozen_build_us.p50",
                q.frozen_build_us.median(),
                "us",
            ),
            (
                "graph.frozen_builds_per_query",
                self.frozen_builds as f64 / snapshot_queries,
                "ratio",
            ),
            (
                "graph.cache_hit_ratio",
                self.cache_hits as f64 / lookups,
                "ratio",
            ),
            (
                "graph.cache_evictions_per_query",
                self.cache_evictions as f64 / snapshot_queries,
                "ratio",
            ),
            (
                "text.search_us.p50",
                tr.durations_us("text.search").median(),
                "us",
            ),
            ("text.docs", self.text_docs, "count"),
            ("text.postings", self.text_postings, "count"),
            (
                "text.restart_mismatches",
                self.restart_mismatches as f64,
                "count",
            ),
            (
                "query.context.self_us.p50",
                tr.self_us("query.context").median(),
                "us",
            ),
            (
                "query.ppr.self_us.p50",
                tr.self_us("query.ppr").median(),
                "us",
            ),
            (
                "query.personalize.self_us.p50",
                tr.self_us("query.personalize").median(),
                "us",
            ),
            ("query.textual.p50_us", lat(QueryPath::Textual, 0.5), "us"),
            ("query.describe.p50_us", lat(QueryPath::Describe, 0.5), "us"),
            ("query.lineage.p50_us", lat(QueryPath::Lineage, 0.5), "us"),
            ("query.context.p95_us", lat(QueryPath::Context, 0.95), "us"),
            ("query.ppr.p95_us", lat(QueryPath::Ppr, 0.95), "us"),
            (
                "query.personalize.p95_us",
                lat(QueryPath::Personalize, 0.95),
                "us",
            ),
            (
                "load.ingest_events_per_s",
                self.events_per_s.median(),
                "1/s",
            ),
            ("load.ack_us.p50", self.ack_us.median(), "us"),
            ("load.ack_us.p99", self.ack_us.quantile(0.99), "us"),
            (
                "load.writer_late_us.p99",
                self.writer_late_us.quantile(0.99),
                "us",
            ),
            (
                "query.over_bound_share",
                q.over_bound as f64 / q.queries.max(1) as f64,
                "ratio",
            ),
            ("trace.spans", tr.spans().len() as f64, "count"),
        ];
        if q.results.mismatches > 0 {
            self.problems.push(format!(
                "{} of {} repeated query results differ from the first result",
                q.results.mismatches, q.results.compared
            ));
        }
        if q.truncated > 0 {
            self.problems
                .push(format!("{} truncated results", q.truncated));
        }
        if self.rejected > 0 {
            self.problems
                .push(format!("{} events rejected", self.rejected));
        }
        eprintln!(
            "perfbench: {} queries: {} truncated, {} missing answers, {} over {:?}; {} rejected events",
            q.queries,
            q.truncated,
            q.missing,
            q.over_bound,
            queries::QUERY_BOUND,
            self.rejected
        );
        Run {
            e2e,
            layer,
            attempted: self.events_attempted + q.queries,
            failed: self.rejected + self.pipeline_failures + q.failed(),
            problems: self.problems,
        }
    }
}

/// One durable chunk through the pipeline: submit, wait until the
/// capture thread applied it, then `sync` under the write lock.
fn durable_chunk(
    pipeline: &CapturePipeline,
    shared: &SharedBrowser,
    chunk: Vec<BrowserEvent>,
    tr: &mut Tracer,
) -> Result<(), String> {
    tr.time("core.submit", || pipeline.submit_all(chunk));
    tr.time("core.flush", || pipeline.flush());
    let wait = tr.enter("core.write_wait");
    shared
        .with_mut(|b| {
            tr.exit(wait);
            tr.time("storage.sync", || b.sync())
        })
        .map_err(|e| e.to_string())
}

fn check_pipeline(pipeline: &CapturePipeline, m: &mut Measures) {
    m.rejected += pipeline.rejected_events() as usize;
    if let Some(f) = pipeline.failure() {
        m.pipeline_failures += 1;
        m.problems.push(format!("capture pipeline failed: {f}"));
    }
}

/// Write passes of one event stream.
struct Passes<'a> {
    work: &'a Path,
    events: &'a [BrowserEvent],
    /// Counts of the set-up's synchronous ingest of `events`.
    reference: &'a Counts,
    places_bytes: f64,
    cfg: Configs,
}

impl Passes<'_> {
    /// One write pass: the stream into a fresh profile through the capture
    /// pipeline, one submitter, each [`CHUNK`]-event chunk acked durably
    /// before the next is sent. The profile is then closed, recovered and
    /// snapshotted; the recovered store and its directory are returned.
    fn run(
        &self,
        pass: usize,
        restart_set: bool,
        m: &mut Measures,
        tr: &mut Tracer,
    ) -> Result<(ProvenanceBrowser, PathBuf), String> {
        let dir = self.work.join(format!("pass-{pass}"));
        let pipeline = CapturePipeline::start(setup::open(&dir)?);
        let shared = pipeline.shared();
        let chunks: Vec<Vec<BrowserEvent>> = self.events.chunks(CHUNK).map(<[_]>::to_vec).collect();
        let t0 = Instant::now();
        for chunk in chunks {
            tr.next_op();
            let c0 = Instant::now();
            durable_chunk(&pipeline, &shared, chunk, tr)?;
            m.ack_us.push_us(c0.elapsed());
        }
        let events = self.events.len();
        m.events_per_s
            .push(events as f64 / t0.elapsed().as_secs_f64());
        m.events_attempted += events;
        check_pipeline(&pipeline, m);
        drop(shared);
        let live = pipeline.shutdown();
        if let Some(d) = Counts::of(live.graph()).diff(self.reference) {
            m.problems
                .push(format!("pipeline ingest against synchronous ingest: {d}"));
        }
        let restart_set = restart_set.then_some(&self.cfg);
        let (r, recovered) = setup::restart(&dir, live, 1, restart_set, tr)?;
        m.add_restart(r, events, self.places_bytes);
        Ok((recovered, dir))
    }
}

/// Alternates write passes and query slices on `store` until `seconds`
/// have passed, keeping the time spent writing near [`WRITE_SHARE`] of the
/// total, so both sides sample the whole run rather than one stretch of
/// it.
fn alternate(
    passes: &Passes,
    seed: u64,
    store: &ProvenanceBrowser,
    seconds: f64,
    m: &mut Measures,
    tr: &mut Tracer,
) -> Result<(), String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut mix = QueryMix::new(seed, store);
    let (mut writing, mut querying) = (Duration::ZERO, Duration::ZERO);
    let mut pass = 0;
    while Instant::now() < end {
        let t0 = Instant::now();
        let share = writing.as_secs_f64() / (writing + querying).as_secs_f64().max(1e-9);
        if pass == 0 || share < WRITE_SHARE {
            let (b, dir) = passes.run(pass, false, m, tr)?;
            drop(b);
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            writing += t0.elapsed();
            pass += 1;
        } else {
            let until = (t0 + SLICE).min(end);
            m.query_until(store, &mut mix, &passes.cfg, until, tr);
            querying += t0.elapsed();
        }
    }
    if tr.on() {
        // Counting restart mismatches takes seconds of queries, so a
        // traced run does it in one more pass after the timed ones, with
        // nothing from that pass in its other metrics.
        let mut extra = Measures::default();
        let mut untraced = Tracer::new(false, Instant::now(), 2);
        passes.run(pass, true, &mut extra, &mut untraced)?;
        m.restart_mismatches = extra.restart_mismatches;
        m.problems.extend(extra.problems);
    }
    Ok(())
}

/// `idle-79d`: write passes into profiles of their own, alternating with
/// query slices on the idle set-up store, which no write touches.
pub fn idle(work: &Path, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Run, String> {
    let s = setup::setup(work, seed, 0, tr)?;
    let mut m = Measures::from_setup(&s);
    let passes = Passes {
        work,
        events: &s.stream.prefix,
        reference: &s.counts,
        places_bytes: setup::places_bytes(&s.stream.prefix)?,
        cfg: Configs::default(),
    };
    alternate(&passes, seed, &s.browser, seconds, &mut m, tr)?;
    Ok(m.finish(tr))
}

/// Days simulated past day 79 so the paced writer never runs dry.
fn mixed_extra_days(seconds: f64) -> u32 {
    let events = seconds / PACE.as_secs_f64() * MIXED_CHUNK as f64;
    // The paper profile averages roughly 270 events a day.
    (events / 250.0).ceil() as u32 + 2
}

/// `mixed-79d`: a paced open-loop writer streams the days after day 79
/// while one query client runs the mix closed-loop on the same store.
pub fn mixed(work: &Path, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Run, String> {
    let s = setup::setup(work, seed, mixed_extra_days(seconds), tr)?;
    let mut m = Measures::from_setup(&s);
    let cfg = Configs::default();
    let mut mix = QueryMix::new(seed, &s.browser);
    let (prefix, suffix, dir) = (s.stream.prefix, s.stream.suffix, s.dir);
    let recover_dir = work.join("recover");
    setup::copy_store(&dir, &recover_dir)?;
    let mut recover_s = Samples::new();
    let builds0 = s.browser.frozen_stats().0;
    let pipeline = CapturePipeline::start(s.browser);
    let shared = pipeline.shared();

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut wtr = tr.for_thread(1);
    let (ack_tx, ack_rx) = std::sync::mpsc::channel::<()>();
    let (pipeline_ref, shared_ref, suffix_ref) = (&pipeline, &shared, &suffix);
    let (acked, writer_tr) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut acks = Samples::new();
            let mut late = Samples::new();
            let mut acked = 0usize;
            let mut last_ack = start;
            for (i, chunk) in suffix_ref.chunks(MIXED_CHUNK).enumerate() {
                let due = start + PACE * i as u32;
                if due >= end {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push_us(Instant::now() - due);
                wtr.next_op();
                durable_chunk(pipeline_ref, shared_ref, chunk.to_vec(), &mut wtr)?;
                last_ack = Instant::now();
                acks.push_us(last_ack - due);
                acked += chunk.len();
                let _ = ack_tx.send(());
            }
            let rate = acked as f64 / (last_ack - start).as_secs_f64().max(1e-9);
            Ok::<_, String>((acks, late, acked, rate, wtr))
        });
        // Before each query that reads the snapshot the client waits for
        // an ack, so each of them runs on an epoch no earlier query saw.
        let t0 = Instant::now();
        let mut next_reopen = start + RECOVER_EVERY / 2;
        while let Some(left) = end.checked_duration_since(Instant::now()) {
            if Instant::now() >= next_reopen {
                next_reopen += RECOVER_EVERY;
                tr.next_op();
                let r0 = Instant::now();
                let b = tr.time("storage.recover", || setup::open(&recover_dir))?;
                recover_s.push(r0.elapsed().as_secs_f64());
                drop(b);
                continue;
            }
            let q = mix.next_query();
            if q.path.reads_snapshot() {
                if ack_rx.recv_timeout(left).is_err() {
                    break;
                }
                while ack_rx.try_recv().is_ok() {}
            }
            let guard = tr.time("core.read_wait", || shared.read());
            queries::run_query(&guard, &mix, &cfg, q, tr, &mut m.queries);
        }
        m.query_wall_s = t0.elapsed().as_secs_f64();
        let (acks, late, acked, rate, wtr) = writer.join().map_err(|_| "writer panicked")??;
        m.ack_us = acks;
        m.writer_late_us = late;
        m.events_per_s.push(rate);
        Ok::<_, String>((acked, wtr))
    })?;
    tr.absorb(writer_tr);
    m.events_attempted += acked;
    check_pipeline(&pipeline, &mut m);
    drop(shared);
    let live = pipeline.shutdown();
    let cache = live.score_cache().stats();
    m.cache_hits = cache.hits;
    m.cache_misses = cache.misses;
    m.cache_evictions = cache.evictions;
    m.frozen_builds = live.frozen_stats().0 - builds0;

    // Repeats on the final instance: each must equal its first result.
    let mut replay = QueryMix::new(seed, &live);
    let inputs: Vec<_> = (0..2 * queries::PATHS.len())
        .map(|_| replay.next_query())
        .collect();
    let mut untraced = Tracer::new(false, Instant::now(), 2);
    let mut verify = QueryStats::default();
    for q in inputs.iter().chain(&inputs) {
        queries::run_query(&live, &replay, &cfg, *q, &mut untraced, &mut verify);
    }
    m.queries.results.compared += verify.results.compared;
    m.queries.results.mismatches += verify.results.mismatches;

    // The reference: a synchronous ingest of every event the store took.
    let ingested: Vec<BrowserEvent> = prefix.iter().chain(&suffix[..acked]).cloned().collect();
    let mut reference = setup::open(&work.join("reference"))?;
    setup::ingest_each(&mut reference, &ingested, &mut untraced)?;
    if let Some(d) = Counts::of(live.graph()).diff(&Counts::of(reference.graph())) {
        m.problems
            .push(format!("pipeline ingest against synchronous ingest: {d}"));
    }
    drop(reference);
    let places = setup::places_bytes(&ingested)?;
    let restart_set = tr.on().then_some(&cfg);
    let (mut r, _) = setup::restart(&dir, live, 1, restart_set, tr)?;
    // A run too short for an in-run reopen keeps the restart's.
    if recover_s.len() > 0 {
        r.recover_s = recover_s;
    }
    m.add_restart(r, ingested.len(), places);
    Ok(m.finish(tr))
}
