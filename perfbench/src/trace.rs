//! In-memory span recording and self-time accounting.
//!
//! A span is one timed call: a name (the layer it enters), start and end
//! on the tracer's monotonic clock, the span that caused it, and the id
//! of the operation it belongs to. Spans stay in memory while the run
//! measures and are written out once it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or client call) name, e.g. `engine.tick`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with a common time base.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a
    /// parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; lets
    /// children be recorded with this span as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, op)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        let now = self.now();
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a new span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, op);
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of its interval that its children cover (overlapping children
    /// count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Writes the spans as CSV (`index,name,start_ns,end_ns,parent,op`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,start_ns,end_ns,parent,op")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{index},{},{},{},{parent},{}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// See [`Tracer::self_times_ns`].
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the union 10..60 is covered once.
            span("b", 30, 60, Some(0)),
            span("c", 80, 90, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 25, 30, 10, 5]);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", None, 7);
        tracer.time("child", Some(root), 7, || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tracer.self_times_ns()[0] <= spans[0].duration_ns());
    }
}
