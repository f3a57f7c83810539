//! In-memory spans around the benchmark's own calls into the program,
//! written out as JSON lines when the run ends.
//!
//! A span is `{id, parent, name, batch, start_ns, end_ns}`: `parent` is the
//! span that was open on the same thread when this one started (`null` for a
//! root), `batch` ties together the spans of one batch of events, and times
//! are nanoseconds since the tracer was created. Nothing inside the program
//! is instrumented — that is a later change.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. A disabled tracer records nothing and never
/// reads the clock.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now.
    pub fn enter(&mut self, name: &'static str, batch: u64) {
        if self.enabled {
            let now = Instant::now();
            self.enter_at(name, batch, now);
        }
    }

    /// Open a span at a time the caller already read.
    pub fn enter_at(&mut self, name: &'static str, batch: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            batch,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span now.
    pub fn exit(&mut self) {
        if self.enabled {
            let now = Instant::now();
            self.exit_at(now);
        }
    }

    pub fn exit_at(&mut self, end: Instant) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = self.ns(end);
        }
    }

    /// Record a closed child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, batch: u64, start: Instant, end: Instant) {
        self.enter_at(name, batch, start);
        self.exit_at(end);
    }

    /// Take over another thread's spans (its roots stay roots).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"batch\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.batch, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// children cover (children of one parent are sequential on one thread, so
/// their durations add).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns.min(spans[p as usize].end_ns)
                - s.start_ns.max(spans[p as usize].start_ns).min(s.end_ns);
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => out.push((s.name, own, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            batch: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("batch", None, 0, 100),
            span("push", Some(0), 10, 40),
            span("poll", Some(0), 40, 55),
            span("inner", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), [55, 25, 15, 5]);
        assert_eq!(
            self_time_by_name(&spans),
            [
                ("batch", 55, 1),
                ("push", 25, 1),
                ("poll", 15, 1),
                ("inner", 5, 1)
            ]
        );
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = [span("a", None, 0, 50), span("b", Some(0), 40, 70)];
        assert_eq!(self_times(&spans), [40, 30]);
    }

    #[test]
    fn nesting_follows_the_open_stack_and_disabled_records_nothing() {
        let t0 = Instant::now();
        let mut t = Tracer::new(true, t0);
        t.enter("batch", 3);
        t.leaf("push", 3, t0, t0);
        t.exit();
        t.enter("finish", 4);
        t.exit();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None]);

        let mut other = Tracer::new(true, t0);
        other.enter("next_rows", 0);
        other.leaf("x", 0, t0, t0);
        other.exit();
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));

        let mut off = Tracer::new(false, t0);
        off.enter("batch", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
