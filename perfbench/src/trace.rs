//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's origin), the
//! span that was open when it started, and a request id.  Spans are kept
//! in memory and written out once, when the run ends.  A disabled tracer
//! records nothing, so the same replay code runs traced and untraced.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index as usize].end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close in stack order");
        }
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let value = f();
        self.exit(open);
        value
    }

    /// Per span name: (durations, self times) in ns.  Self time is a
    /// span's duration minus the time its direct children cover (children
    /// of one span never overlap: the replay is single-threaded).
    pub fn summary(&self) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: Vec<(&'static str, Vec<f64>, Vec<f64>)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let index = match out.iter().position(|(n, _, _)| *n == span.name) {
                Some(i) => i,
                None => {
                    out.push((span.name, Vec::new(), Vec::new()));
                    out.len() - 1
                }
            };
            out[index].1.push(duration as f64);
            out[index].2.push(duration.saturating_sub(children) as f64);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
