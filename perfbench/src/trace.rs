//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, and the instance or request id), kept in
//! memory, and written out when the run ends. Inside the planner facade
//! the spans are the program's own (`sekitei_obs`), imported under the
//! benchmark's span around the facade call. A layer's self time is its
//! span's duration minus its children's; a child that outlasts its
//! parent is an accounting error the run reports as a failure.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: usize,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: usize, item: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, parent, item, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a span measured elsewhere: a layer total the program reports
    /// (SLRG query time, candidate validation time, a server phase),
    /// placed at its parent's start.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let p = &self.spans[parent];
        let (item, start_ns) = (p.item, p.start_ns);
        let end_ns = start_ns + dur.as_nanos() as u64;
        self.spans.push(Span { name, parent, item, start_ns, end_ns });
    }

    /// Record a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        item: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, parent, item, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Record the spans the program traced itself (a drained `sekitei_obs`
    /// trace) under `parent`: its top-level spans become children of
    /// `parent`, its nested spans and aggregates keep their own parents.
    /// Errors when the program's trace lost records.
    pub fn import(&mut self, trace: &sekitei_obs::Trace, parent: usize) -> Result<(), String> {
        if trace.dropped > 0 {
            return Err(format!("the program's trace dropped {} records", trace.dropped));
        }
        // the program's clock counts from its own epoch
        let offset = self.ns(Instant::now()) as i64 - sekitei_obs::now_ns() as i64;
        let item = self.spans[parent].item;
        let records: Vec<_> = trace.records.iter().filter(|r| r.is_span()).collect();
        let index: HashMap<u64, usize> =
            records.iter().enumerate().map(|(i, r)| (r.id, self.spans.len() + i)).collect();
        for r in records {
            let start_ns = (r.t_ns as i64 + offset).max(0) as u64;
            self.spans.push(Span {
                name: r.name,
                parent: index.get(&r.parent).copied().unwrap_or(parent),
                item,
                start_ns,
                end_ns: start_ns + r.value,
            });
        }
        Ok(())
    }

    /// Self time per span name, summed over all spans, in nanoseconds.
    /// Errors when any span's children outlast it.
    pub fn self_times(&self) -> Result<BTreeMap<&'static str, u64>, String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            if children > dur {
                return Err(format!(
                    "span `{}` of item {} over-counts: children {} ns > span {} ns",
                    s.name, s.item, children, dur
                ));
            }
            *out.entry(s.name).or_insert(0) += dur - children;
        }
        Ok(out)
    }

    /// Total duration of the spans named `name`, nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"item\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.item, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
