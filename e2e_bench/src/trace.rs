//! In-memory spans for the traced run.
//!
//! The program itself carries no spans: the benchmark times the calls
//! it makes into each layer's public functions. A span has a name, a
//! start and end (ns since the tracer's epoch), the request it belongs
//! to and its parent span. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::Samples;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub parent: Option<u64>,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A started span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span log. Span ids are unique across tracers that
/// share an epoch and use distinct `lane`s.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self) -> Open {
        self.next += 1;
        Open {
            id: self.lane << 48 | self.next,
            start_ns: self.now_ns(),
        }
    }

    /// Close `open` as span `name` of request `req`; returns its µs.
    pub fn end(&mut self, open: Open, name: &'static str, req: u64, parent: Option<u64>) -> f64 {
        let span = Span {
            id: open.id,
            name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            req,
            parent,
        };
        self.spans.push(span);
        span.us()
    }

    /// Time `f` as a child span `name` of `parent` in request `req`.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.start();
        let r = f();
        self.end(open, name, req, Some(parent));
        r
    }
}

/// Spans merged from every tracer of a run, indexed for the per-layer
/// breakdown.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, t: Tracer) {
        self.spans.extend(t.spans);
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::us)
                .collect(),
        )
    }

    /// Per root span (no parent): its children, by name.
    pub fn requests(&self) -> Vec<(Span, Vec<Span>)> {
        let mut kids: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push(*s);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|r| (*r, kids.remove(&r.id).unwrap_or_default()))
            .collect()
    }

    /// `1 - Σ child time / Σ root time` over roots named `root`: the
    /// share of request time no layer span covers.
    pub fn unattributed_share(&self, root: &str) -> (f64, u64) {
        let (mut total, mut covered, mut n) = (0.0, 0.0, 0u64);
        for (r, kids) in self.requests() {
            if r.name != root {
                continue;
            }
            n += 1;
            total += r.us();
            covered += kids.iter().map(Span::us).sum::<f64>();
        }
        if total <= 0.0 {
            return (0.0, 0);
        }
        (1.0 - covered / total, n)
    }

    /// Write at most `cap` spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in self.spans.iter().take(cap) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"parent\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.req, parent
            );
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}
