//! The benchmark's own span recorder.
//!
//! Spans are recorded only in a traced run (`--trace 1`), from the
//! benchmark's side of each call into a layer: name, start, end, parent
//! span and a shared operation id. They stay in memory until the run
//! ends and are then written out as JSON lines. An untraced run's tracer
//! records nothing.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Spans of one benchmark operation (a chunk ack, a query) share it.
    pub op: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// `thread` keeps operation ids of different threads apart.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: thread << 48,
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn for_thread(&self, thread: u64) -> Tracer {
        Tracer::new(self.on, self.epoch, thread)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: spans entered from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.now_ns();
            self.open.retain(|&i| i != idx);
        }
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.dur_us());
        }
        out
    }

    /// Self time in µs of every span called `name`: its duration minus
    /// the time its direct children cover (children run one after
    /// another inside their parent, so their durations add up).
    pub fn self_us(&self, name: &str) -> Samples {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out = Samples::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                out.push(s.dur_us() - child_us[i]);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.enter("outer");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let total = t.durations_us("outer").median();
        let child = t.durations_us("child").median();
        let own = t.self_us("outer").median();
        assert!(child >= 2000.0);
        assert!((own - (total - child)).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.time("x", || ());
        assert!(t.spans().is_empty());
    }
}
