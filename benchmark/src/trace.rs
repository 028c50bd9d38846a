//! In-memory spans recorded around the calls into each layer, written out when the run ends.
//!
//! A span is `{req, id, parent, layer, span, start_ns, end_ns, counts}`; spans of one request
//! share `req`. A layer's **self time** is its span's duration minus the part of that interval
//! its child spans cover — children may overlap (the per-shard legs of a scatter run on
//! parallel threads), so coverage is the union of their intervals, not the sum.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub req: u32,
    pub id: u32,
    pub parent: Option<u32>,
    /// The module the time is charged to (`merge`, `ipo`, `cache`, …).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    req: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            req: 0,
            spans: Vec::new(),
        }
    }

    pub fn begin_request(&mut self, req: u32) {
        self.req = req;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer's origin for an instant taken on another thread.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`]. Returns its id (the parent handle
    /// for spans nested inside it).
    pub fn open(&mut self, parent: Option<u32>, layer: &'static str, name: &'static str) -> u32 {
        let start = self.now_ns();
        self.record(parent, layer, name, start, start, Vec::new())
    }

    pub fn close(&mut self, id: u32, counts: Vec<(&'static str, u64)>) {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.counts = counts;
    }

    /// Records a finished span with explicit bounds (for work timed on another thread).
    pub fn record(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, u64)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    /// Times `f` as one span under `parent`.
    pub fn span<T>(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, layer, name);
        let out = f();
        self.close(id, Vec::new());
        out
    }
}

/// Self time per span, indexed like `spans` (ids are indices): duration minus the union of
/// the children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of a waterfall: a step of the re-walk, the layer charged, how many requests took
/// it, and the median milliseconds it blocked the request for.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub name: &'static str,
    pub layer: &'static str,
    pub requests: usize,
    pub median_ms: f64,
    /// Steps inside a parallel scatter: shown for detail, already counted in their parent.
    pub nested: bool,
}

/// The blocking path of the re-walked requests under root span `root`: every direct child of
/// the root by its full duration (a scatter's parallel legs are inside its wall time), the
/// root's own self time as glue, and the legs as nested detail. Per request the top-level
/// rows add up to the root's duration exactly; their medians add up to it nearly.
pub fn waterfall(spans: &[Span], root: &str) -> Vec<Step> {
    let selfs = self_times(spans);
    let is_root = |s: &Span| s.name == root && !s.counts.iter().any(|(k, _)| *k == "cache_hit");
    let mut steps: Vec<(Step, Vec<f64>)> = Vec::new();
    let mut add = |name, layer, nested, ns: u64| {
        let at = steps
            .iter()
            .position(|(step, _)| step.name == name && step.layer == layer)
            .unwrap_or_else(|| {
                let step = Step {
                    name,
                    layer,
                    requests: 0,
                    median_ms: 0.0,
                    nested,
                };
                steps.push((step, Vec::new()));
                steps.len() - 1
            });
        steps[at].1.push(ns as f64 / 1e6);
    };
    for (span, self_ns) in spans.iter().zip(&selfs) {
        match span.parent.map(|p| &spans[p as usize]) {
            None if is_root(span) => add("(glue)", span.layer, false, *self_ns),
            Some(parent) if is_root(parent) => {
                add(span.name, span.layer, false, span.duration_ns())
            }
            Some(parent) if parent.parent.is_some_and(|g| is_root(&spans[g as usize])) => {
                add(span.name, span.layer, true, span.duration_ns())
            }
            _ => {}
        }
    }
    steps
        .into_iter()
        .map(|(mut step, samples)| {
            step.requests = samples.len();
            step.median_ms = crate::measure::median(&samples);
            step
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let num = |n: u64| Json::Num(n as f64);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("req", num(s.req.into())),
            ("id", num(s.id.into())),
            ("parent", s.parent.map_or(Json::Null, |p| num(p.into()))),
            ("layer", Json::str(s.layer)),
            ("span", Json::str(s.name)),
            ("start_ns", num(s.start_ns)),
            ("end_ns", num(s.end_ns)),
            (
                "counts",
                Json::obj(s.counts.iter().map(|&(k, v)| (k, num(v)))),
            ),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 0,
            id,
            parent,
            layer: "t",
            name: "t",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_union() {
        // Root 0..100; sequential children 10..30 and 40..50; two parallel legs 60..90 and
        // 70..95 under one scatter span 55..98 (their union covers 60..95 = 35).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 50),
            span(3, Some(0), 55, 98),
            span(4, Some(3), 60, 90),
            span(5, Some(3), 70, 95),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 10 - 43);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 43 - 35);
        assert_eq!(selfs[4], 30);
        assert_eq!(selfs[5], 25);
        // Every nanosecond of the root is attributed exactly once along the blocking path:
        // root self + sequential children + scatter (self + union of its legs).
        assert_eq!(selfs[0] + selfs[1] + selfs[2] + selfs[3] + 35, 100);
    }

    #[test]
    fn waterfall_rows_add_up_to_the_root() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 55, 98),
            span(3, Some(2), 60, 90),
            span(4, Some(2), 70, 95),
        ];
        spans[0].name = "request";
        spans[1].name = "step";
        spans[2].name = "scatter";
        spans[3].name = "leg";
        spans[4].name = "leg";
        let steps = waterfall(&spans, "request");
        let top: f64 = steps
            .iter()
            .filter(|s| !s.nested)
            .map(|s| s.median_ms)
            .sum();
        assert!((top - 100e-6).abs() < 1e-12, "{steps:?}");
        let leg = steps.iter().find(|s| s.name == "leg").unwrap();
        assert!(leg.nested && leg.requests == 2 && (leg.median_ms - 27.5e-6).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 0, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }
}
