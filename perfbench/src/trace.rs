//! Spans recorded from outside the crates: one around each call the
//! benchmark makes into a layer's public function.
//!
//! A span is `(id, parent, name, thread, start, end)`. Nesting on one
//! thread is tracked with a thread-local "current span"; work handed to the
//! worker pool names its parent explicitly with [`Tracer::span_under`].
//! Spans stay in memory and are written out once, when the run ends. With
//! the tracer off, [`Tracer::span`] is a plain call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pudiannao_accel::json::Value;

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// One finished span. Times are microseconds since the tracer was built;
/// `parent` 0 is the root.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// The in-memory span recorder.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The span the calling thread is inside (0 outside any span).
    #[must_use]
    pub fn current() -> u64 {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span named `name`, child of the calling thread's
    /// current span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_under(Tracer::current(), name, f)
    }

    /// Runs `f` inside a span named `name` whose parent is `parent` — for
    /// jobs that run on another thread than the span that caused them.
    pub fn span_under<T>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace(id));
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        CURRENT.with(|c| c.set(outer));
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("no thread panics while holding the span lock").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("no thread panics while holding the span lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Per span name: `(count, total_us, self_us)`, where self time is the
/// span's duration minus the part of it that its direct children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        let mut reach = s.start_us;
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_us));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end_us - s.start_us;
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// The spans as a Chrome trace (complete `X` events, one track per
/// thread; each event's `args` carry its id and parent), openable in
/// `chrome://tracing` or Perfetto. `other` lands in `otherData`.
#[must_use]
pub fn chrome_trace(spans: &[Span], other: Value) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::object()
                .with("name", s.name)
                .with("ph", "X")
                .with("pid", 1u64)
                .with("tid", s.thread)
                .with("ts", s.start_us)
                .with("dur", s.end_us - s.start_us)
                .with("args", Value::object().with("id", s.id).with("parent", s.parent))
        })
        .collect();
    Value::object().with("traceEvents", Value::array(events)).with("otherData", other)
}
