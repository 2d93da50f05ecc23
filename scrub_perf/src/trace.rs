//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every phase of the driver loop runs through [`Tracer::timed`], which
//! always returns the phase's wall time (the end-to-end metrics are built
//! from those) and, only while tracing is enabled, also keeps a span. The
//! spans of one 100 ms chunk of simulated time share a `chunk` id; a span's
//! self time is its duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    pub chunk: u64,
    /// Work items the span covered (events, batches, rows, calls).
    pub count: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span that encloses later ones; pair with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, chunk: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            chunk,
            count: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>, count: u64) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans[id].count = count;
        }
    }

    /// Run `f`, returning its result and wall time in ns; `f` also returns
    /// the work count the span is labelled with.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        chunk: u64,
        f: impl FnOnce() -> (T, u64),
    ) -> (T, u64) {
        let t0 = Instant::now();
        let (out, count) = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if self.enabled {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent,
                chunk,
                count,
            });
        }
        (out, ns)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"chunk\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.chunk, s.count
            )?;
        }
        w.flush()
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span: duration minus the part its children cover. One
/// thread records the spans, so the children of a span never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.count += s.count;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            chunk: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("chunk", 0, 100, None),
            span("agent.log", 10, 40, Some(0)),
            span("central.ingest", 50, 90, Some(0)),
            // a grandchild shrinks its parent, not its grandparent
            span("central.decode", 55, 60, Some(2)),
            // a child running past its parent only counts the overlap
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 30, 35, 5, 25]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["chunk"].self_ns, 25);
        assert_eq!(totals["chunk"].total_ns, 100);
        assert_eq!(totals["central.ingest"].self_ns, 35);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("chunk", 0);
        let (v, ns) = tr.timed("agent.log", id, 0, || {
            (std::hint::black_box((0..1000u64).sum::<u64>()), 1000)
        });
        tr.close(id, 1);
        assert_eq!(v, 499_500);
        assert!(ns > 0);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        let id = tr.open("chunk", 1);
        tr.timed("agent.log", id, 1, || ((), 7));
        tr.close(id, 1);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].count, 7);
    }
}
