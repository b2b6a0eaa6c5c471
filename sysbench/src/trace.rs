//! In-memory span recording for traced runs.
//!
//! A span is one layer's share of one request: name, start, end, the span
//! that caused it and the request it belongs to. Spans are recorded by the
//! benchmark around its calls into each layer, kept in memory, and written
//! out as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Ids start at 1; parent 0 marks a request's root span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Nanoseconds since the origin: the clock every span, window and
    /// answer timestamp of a run is read from.
    pub fn now(&self) -> u64 {
        self.offset(Instant::now())
    }

    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id taken from [`Tracer::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered = std::collections::HashMap::<u64, u64>::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let child = covered.get(&s.id).copied().unwrap_or(0);
                s.duration_ns().saturating_sub(child) as f64
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
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
        let mut t = Tracer::new(Instant::now());
        let root = t.reserve();
        t.record("a", root, 1, 10, 30);
        t.record("b", root, 1, 30, 35);
        t.record_as(root, "request", 0, 1, 0, 100);
        assert_eq!(t.self_times("request"), vec![75.0]);
        assert_eq!(t.self_times("a"), vec![20.0]);
    }
}
