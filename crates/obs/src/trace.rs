//! Structured tracing: spans, events, per-thread lock-free rings, collector.
//!
//! Recording is designed to be safe to leave compiled into hot paths:
//! every entry point first checks a process-wide enable counter (a single
//! relaxed atomic load) and returns immediately when tracing is off, so
//! the disabled cost is a branch. When enabled, each thread appends fixed
//! 7-word records to its own bounded ring without taking any lock; a
//! collector ([`take_trace`]) drains all rings into a [`Trace`].
//!
//! The ring is single-producer (the owning thread) / single-consumer (the
//! collector, serialized by a mutex). The producer publishes a record by
//! storing the data words and then bumping `head` with `Release`; the
//! consumer loads `head` with `Acquire`, which makes every data word of
//! records below `head` visible. When the ring is full new records are
//! dropped (never overwriting unread ones) and counted, so a stalled
//! collector degrades to a truncated-but-valid trace.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::Instant;

/// Records per thread ring; full rings drop (and count) new records.
const RING_CAP: usize = 8192;

const KIND_SPAN: u64 = 0;
const KIND_AGG: u64 = 1;
const KIND_EVENT: u64 = 2;

// ---------------------------------------------------------------------------
// Global state: enable counter, epoch, span ids, name interner, ring registry
// ---------------------------------------------------------------------------

/// Nesting counter so concurrent users (e.g. parallel tests) don't turn
/// each other's tracing off: tracing is on while the counter is > 0.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Span/aggregate id allocator; 0 is reserved for "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static INTERNER: LazyLock<Mutex<Interner>> =
    LazyLock::new(|| Mutex::new(Interner { by_name: HashMap::new(), names: Vec::new() }));

static RINGS: LazyLock<Mutex<Vec<Arc<Ring>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// Serializes collectors: one `take_trace` at a time.
static COLLECT: Mutex<()> = Mutex::new(());

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn intern(name: &'static str) -> u64 {
    let mut i = INTERNER.lock().unwrap();
    if let Some(&id) = i.by_name.get(name) {
        return id as u64;
    }
    let id = i.names.len() as u32;
    i.names.push(name);
    i.by_name.insert(name, id);
    id as u64
}

/// Turn tracing on. Nests: tracing stays on until every `enable` has been
/// matched by a [`disable`].
pub fn enable() {
    ENABLED.fetch_add(1, Ordering::SeqCst);
}

/// Match one prior [`enable`]. Saturates at zero.
pub fn disable() {
    let _ = ENABLED.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
}

/// Is tracing currently on? A single relaxed load — cheap enough to guard
/// hot-path instrumentation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) > 0
}

/// Nanoseconds since the process-wide trace epoch (first observability use).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Per-thread ring
// ---------------------------------------------------------------------------

/// One fixed 7-word record: kind, id, parent, name, t, v, count.
struct Slot([AtomicU64; 7]);

struct Ring {
    thread: usize,
    slots: Box<[Slot]>,
    /// Records ever pushed (producer-owned, published with Release).
    head: AtomicU64,
    /// Records consumed (collector-owned).
    drained: AtomicU64,
    /// Records rejected because the ring was full.
    dropped: AtomicU64,
}

impl Ring {
    fn new(thread: usize) -> Self {
        let slots = (0..RING_CAP)
            .map(|_| Slot(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            thread,
            slots,
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer-side append; only ever called from the owning thread.
    fn push(&self, words: [u64; 7]) {
        let head = self.head.load(Ordering::Relaxed);
        // A stale `drained` only makes this check conservative (drops early).
        if head - self.drained.load(Ordering::Relaxed) >= RING_CAP as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[(head % RING_CAP as u64) as usize];
        for (w, val) in slot.0.iter().zip(words) {
            w.store(val, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
    }
}

struct ThreadCtx {
    ring: Arc<Ring>,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's context, registering a fresh ring on first
/// use. Returns `None` if the thread-local is already torn down (records
/// emitted from TLS destructors are silently discarded).
fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    CTX.try_with(|cell| {
        let mut ctx = cell.borrow_mut();
        let ctx = ctx.get_or_insert_with(|| {
            let mut rings = RINGS.lock().unwrap();
            let ring = Arc::new(Ring::new(rings.len()));
            rings.push(Arc::clone(&ring));
            ThreadCtx { ring, stack: Vec::new() }
        });
        f(ctx)
    })
    .ok()
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII handle for an open span; emits the span record (with its measured
/// duration) when dropped.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: u64,
    start: u64,
}

/// Open a span named `name` under the current thread's innermost open
/// span. No-op (and near-free) while tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0, parent: 0, name: 0, start: 0 };
    }
    let name = intern(name);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = with_ctx(|ctx| {
        let parent = ctx.stack.last().copied().unwrap_or(0);
        ctx.stack.push(id);
        parent
    })
    .unwrap_or(0);
    SpanGuard { id, parent, name, start: now_ns() }
}

impl SpanGuard {
    /// This span's id, for out-of-band correlation. 0 for inert guards.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let dur = now_ns().saturating_sub(self.start);
        with_ctx(|ctx| {
            // rposition (not a plain pop): guards may be dropped out of
            // order under early returns; remove *this* span specifically.
            if let Some(pos) = ctx.stack.iter().rposition(|&s| s == self.id) {
                ctx.stack.remove(pos);
            }
            ctx.ring.push([KIND_SPAN, self.id, self.parent, self.name, self.start, dur, 1]);
        });
    }
}

/// Record a point event `name = value` under the innermost open span.
pub fn event(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let name = intern(name);
    with_ctx(|ctx| {
        let parent = ctx.stack.last().copied().unwrap_or(0);
        ctx.ring.push([KIND_EVENT, 0, parent, name, now_ns(), value, 1]);
    });
}

/// Record an *aggregate span*: a phase whose `dur_ns` total was measured
/// externally over `count` interleaved slices (e.g. SLRG query time inside
/// the RG search loop, or candidate concretization). It appears in the
/// trace as a child span of the innermost open span, so generic self-time
/// accounting subtracts it from its parent like any nested span.
pub fn aggregate(name: &'static str, start_ns: u64, dur_ns: u64, count: u64) {
    if !enabled() {
        return;
    }
    let name = intern(name);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    with_ctx(|ctx| {
        let parent = ctx.stack.last().copied().unwrap_or(0);
        ctx.ring.push([KIND_AGG, id, parent, name, start_ns, dur_ns, count]);
    });
}

// ---------------------------------------------------------------------------
// Collector and Trace
// ---------------------------------------------------------------------------

/// Record kind within a drained [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span measured in-process by its [`SpanGuard`].
    Span,
    /// An aggregate pseudo-span (externally measured interleaved phase).
    Aggregate,
    /// A point event carrying a value.
    Event,
}

/// One drained trace record.
#[derive(Clone, Debug)]
pub struct Record {
    pub kind: RecordKind,
    /// Span id (0 for events).
    pub id: u64,
    /// Enclosing span id; 0 = top level.
    pub parent: u64,
    pub name: &'static str,
    /// Ring index of the emitting thread.
    pub thread: usize,
    /// Start (spans) or occurrence (events) time, ns since trace epoch.
    pub t_ns: u64,
    /// Duration in ns (spans/aggregates) or the event value.
    pub value: u64,
    /// Slices folded into an aggregate; 1 for plain spans and events.
    pub count: u64,
}

impl Record {
    pub fn is_span(&self) -> bool {
        matches!(self.kind, RecordKind::Span | RecordKind::Aggregate)
    }
}

/// A drained, structured trace: every record pushed (and not yet drained
/// by an earlier collector) since the last [`take_trace`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub records: Vec<Record>,
    /// Records lost to full rings over the drained window.
    pub dropped: u64,
}

/// Drain every thread ring into a [`Trace`]. Draining consumes: a second
/// call returns only records pushed after the first. Collectors are
/// serialized process-wide.
pub fn take_trace() -> Trace {
    let _guard = COLLECT.lock().unwrap();
    let rings: Vec<Arc<Ring>> = RINGS.lock().unwrap().clone();
    let names: Vec<&'static str> = INTERNER.lock().unwrap().names.clone();
    let mut records = Vec::new();
    let mut dropped = 0;
    for ring in &rings {
        let head = ring.head.load(Ordering::Acquire);
        let drained = ring.drained.load(Ordering::Relaxed);
        for i in drained..head {
            let slot = &ring.slots[(i % RING_CAP as u64) as usize];
            let w: Vec<u64> = slot.0.iter().map(|w| w.load(Ordering::Relaxed)).collect();
            let kind = match w[0] {
                KIND_SPAN => RecordKind::Span,
                KIND_AGG => RecordKind::Aggregate,
                _ => RecordKind::Event,
            };
            records.push(Record {
                kind,
                id: w[1],
                parent: w[2],
                name: names.get(w[3] as usize).copied().unwrap_or("?"),
                thread: ring.thread,
                t_ns: w[4],
                value: w[5],
                count: w[6],
            });
        }
        ring.drained.store(head, Ordering::Relaxed);
        dropped += ring.dropped.swap(0, Ordering::Relaxed);
    }
    records.sort_by_key(|r| (r.t_ns, r.id));
    Trace { records, dropped }
}

impl Trace {
    /// Sum of durations of all spans/aggregates named `name`.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.records.iter().filter(|r| r.is_span() && r.name == name).map(|r| r.value).sum()
    }

    /// Sum over spans named `name` of duration minus direct-child span
    /// durations (the time spent in the span itself).
    pub fn span_self_ns(&self, name: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.is_span() && r.name == name)
            .map(|r| {
                let child: u64 = self
                    .records
                    .iter()
                    .filter(|c| c.is_span() && c.parent == r.id)
                    .map(|c| c.value)
                    .sum();
                r.value.saturating_sub(child)
            })
            .sum()
    }

    /// Sum of values of all events named `name`.
    pub fn event_sum(&self, name: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::Event && r.name == name)
            .map(|r| r.value)
            .sum()
    }

    /// Number of spans/aggregates named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.records.iter().filter(|r| r.is_span() && r.name == name).count()
    }

    /// JSON-lines export: one object per record plus a trailing `meta`
    /// line with the drop count. Spans and aggregates both render as
    /// `"type":"span"` (aggregates carry their slice `count`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            match r.kind {
                RecordKind::Span | RecordKind::Aggregate => out.push_str(&format!(
                    "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\
                     \"start_ns\":{},\"dur_ns\":{},\"count\":{}}}\n",
                    r.id, r.parent, r.name, r.thread, r.t_ns, r.value, r.count
                )),
                RecordKind::Event => out.push_str(&format!(
                    "{{\"type\":\"event\",\"parent\":{},\"name\":\"{}\",\"thread\":{},\
                     \"t_ns\":{},\"value\":{}}}\n",
                    r.parent, r.name, r.thread, r.t_ns, r.value
                )),
            }
        }
        if self.dropped > 0 {
            // Explicit footer record so consumers that stream records (and
            // never look at `meta`) still see the loss instead of a
            // silently truncated trace.
            out.push_str(&format!(
                "{{\"type\":\"dropped\",\"count\":{},\"ring_cap\":{}}}\n",
                self.dropped, RING_CAP
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"records\":{},\"dropped\":{}}}\n",
            self.records.len(),
            self.dropped
        ));
        out
    }

    /// If any records were lost to full rings over this trace's window,
    /// say so on stderr (once, with the ring capacity so the reader knows
    /// the ceiling they hit). Returns whether a warning was printed.
    pub fn warn_if_dropped(&self) -> bool {
        if self.dropped == 0 {
            return false;
        }
        eprintln!(
            "warning: trace ring overflow — {} record(s) dropped (per-thread ring \
             capacity {RING_CAP}); the exported trace is truncated",
            self.dropped
        );
        true
    }

    /// Human-readable indented tree. Spans whose parent is absent from the
    /// trace (e.g. still open when drained) render as roots.
    pub fn render_tree(&self) -> String {
        let ids: std::collections::HashSet<u64> =
            self.records.iter().filter(|r| r.is_span()).map(|r| r.id).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            if r.parent != 0 && ids.contains(&r.parent) {
                children.entry(r.parent).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        let mut out = String::new();
        for root in roots {
            self.render_node(root, 0, &children, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        idx: usize,
        depth: usize,
        children: &HashMap<u64, Vec<usize>>,
        out: &mut String,
    ) {
        let r = &self.records[idx];
        let pad = "  ".repeat(depth);
        match r.kind {
            RecordKind::Span => {
                out.push_str(&format!("{pad}{} {:.3} ms\n", r.name, r.value as f64 / 1e6));
            }
            RecordKind::Aggregate => {
                out.push_str(&format!(
                    "{pad}{} {:.3} ms (aggregate of {})\n",
                    r.name,
                    r.value as f64 / 1e6,
                    r.count
                ));
            }
            RecordKind::Event => {
                out.push_str(&format!("{pad}{} = {}\n", r.name, r.value));
                return;
            }
        }
        if let Some(kids) = children.get(&r.id) {
            for &k in kids {
                self.render_node(k, depth + 1, children, out);
            }
        }
    }

    /// Per-phase breakdown table under the spans named `root`: one row per
    /// descendant span name with its *self* time (duration minus nested
    /// span durations), so the phase column always sums to at most the
    /// root total. Rows appear in first-start order.
    pub fn phase_table(&self, root: &str) -> String {
        let root_ids: std::collections::HashSet<u64> =
            self.records.iter().filter(|r| r.is_span() && r.name == root).map(|r| r.id).collect();
        let total: u64 =
            self.records.iter().filter(|r| r.is_span() && r.name == root).map(|r| r.value).sum();
        // Transitive descendants of the root spans.
        let mut inside = root_ids.clone();
        loop {
            let before = inside.len();
            for r in self.records.iter().filter(|r| r.is_span()) {
                if inside.contains(&r.parent) {
                    inside.insert(r.id);
                }
            }
            if inside.len() == before {
                break;
            }
        }
        // Accumulate self time per descendant name, first-start order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut self_ns: HashMap<&'static str, u64> = HashMap::new();
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for r in self.records.iter().filter(|r| r.is_span()) {
            if !inside.contains(&r.id) || root_ids.contains(&r.id) {
                continue;
            }
            let child: u64 = self
                .records
                .iter()
                .filter(|c| c.is_span() && c.parent == r.id)
                .map(|c| c.value)
                .sum();
            if !self_ns.contains_key(r.name) {
                order.push(r.name);
            }
            *self_ns.entry(r.name).or_insert(0) += r.value.saturating_sub(child);
            *counts.entry(r.name).or_insert(0) += r.count;
        }
        let mut out = format!("{:<14}{:>12}{:>10}\n", "phase", "wall_ms", "count");
        let mut phase_sum = 0u64;
        for name in &order {
            let ns = self_ns[name];
            phase_sum += ns;
            out.push_str(&format!("{:<14}{:>12.3}{:>10}\n", name, ns as f64 / 1e6, counts[name]));
        }
        out.push_str(&format!("{:<14}{:>12.3}\n", "phase sum", phase_sum as f64 / 1e6));
        out.push_str(&format!("{:<14}{:>12.3}\n", format!("total ({root})"), total as f64 / 1e6));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    // Trace state is process-global; tests that drain it must not run
    // concurrently with each other. A failed test poisons the lock; the
    // rest take it anyway, so one failure reports once.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_drain() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        enable();
        let _ = take_trace(); // start from a clean window
        {
            let _outer = span("outer");
            event("tick", 7);
            {
                let _inner = span("inner");
            }
        }
        let trace = take_trace();
        disable();
        assert_eq!(trace.span_count("outer"), 1);
        assert_eq!(trace.span_count("inner"), 1);
        assert_eq!(trace.event_sum("tick"), 7);
        let outer = trace.records.iter().find(|r| r.name == "outer" && r.is_span()).unwrap();
        let inner = trace.records.iter().find(|r| r.name == "inner" && r.is_span()).unwrap();
        let tick = trace.records.iter().find(|r| r.name == "tick").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(tick.parent, outer.id);
        assert!(outer.value >= inner.value, "outer span covers inner");
        assert!(trace.span_self_ns("outer") <= outer.value);
    }

    #[test]
    fn aggregates_count_against_parent_self_time() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        enable();
        let _ = take_trace();
        {
            let _p = span("parent");
            let t = now_ns();
            aggregate("slice", t, 1_000, 42);
        }
        let trace = take_trace();
        disable();
        let slice = trace.records.iter().find(|r| r.name == "slice").unwrap();
        assert_eq!(slice.kind, RecordKind::Aggregate);
        assert_eq!(slice.count, 42);
        assert_eq!(slice.value, 1_000);
        let parent = trace.records.iter().find(|r| r.name == "parent").unwrap();
        assert_eq!(slice.parent, parent.id);
        assert!(trace.span_self_ns("parent") <= parent.value.saturating_sub(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = take_trace();
        {
            let _g = span("invisible");
            event("invisible_event", 1);
        }
        let trace = take_trace();
        assert_eq!(trace.span_count("invisible"), 0);
        assert_eq!(trace.event_sum("invisible_event"), 0);
    }

    #[test]
    fn json_lines_parse_shape() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        enable();
        let _ = take_trace();
        {
            let _g = span("jsonspan");
            event("jsonev", 3);
        }
        let trace = take_trace();
        disable();
        let text = trace.to_json_lines();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line {line:?}");
        }
        assert!(text.contains("\"name\":\"jsonspan\""));
        assert!(text.contains("\"type\":\"meta\""));
    }

    #[test]
    fn phase_table_sums_within_total() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        enable();
        let _ = take_trace();
        {
            let _root = span("root_pt");
            {
                let _a = span("pt_a");
                std::hint::black_box(0);
            }
            // the aggregate claims 500 ns inside the root, so let that
            // much time really pass before recording it
            let t = now_ns();
            while now_ns() < t + 500 {
                std::hint::spin_loop();
            }
            aggregate("pt_b", t, 500, 3);
        }
        let trace = take_trace();
        disable();
        let table = trace.phase_table("root_pt");
        assert!(table.contains("pt_a"));
        assert!(table.contains("pt_b"));
        let total = trace.span_total_ns("root_pt");
        let sum = trace.span_self_ns("pt_a") + trace.span_self_ns("pt_b");
        assert!(sum <= total, "phase sum {sum} must be <= total {total}");
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        enable();
        let _ = take_trace();
        for i in 0..(RING_CAP as u64 + 100) {
            event("flood", i);
        }
        let trace = take_trace();
        disable();
        assert!(trace.dropped >= 100, "expected >= 100 drops, got {}", trace.dropped);
        let flood = trace.records.iter().filter(|r| r.name == "flood").count();
        assert!(flood <= RING_CAP);
        // The loss is surfaced, not silent: an explicit `dropped` footer
        // record precedes the meta line, and the stderr warning fires.
        let text = trace.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[lines.len() - 2].starts_with("{\"type\":\"dropped\",\"count\":"),
            "missing dropped footer: {:?}",
            lines[lines.len() - 2]
        );
        assert!(lines[lines.len() - 1].starts_with("{\"type\":\"meta\""));
        assert!(trace.warn_if_dropped());
        // Next window starts clean: no drops, no footer, no warning.
        let trace = take_trace();
        assert_eq!(trace.dropped, 0);
        assert!(!trace.to_json_lines().contains("\"type\":\"dropped\""));
        assert!(!trace.warn_if_dropped());
    }
}
