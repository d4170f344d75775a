//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own wrappers around calls into the
//! library's public functions (never inside the library). Each span has a
//! name, start and end (nanoseconds since the recorder started), the span
//! that was open when it began, and the solve it belongs to. Spans stay in
//! memory until the run ends; [`Tracer::write_json`] then writes them out.
//! With tracing off, [`Tracer::span`] returns an inert guard and reads no
//! clock.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub solve: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread (innermost last): the parent of the next
    /// span opened here.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.lock().expect("span list poisoned by a panic")[id].end_ns = end;
            OPEN.with(|open| open.borrow_mut().pop());
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str, solve: Option<usize>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, id: None };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, solve });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard { tracer: self, id: Some(id) }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panic").clone()
    }

    /// Writes every recorded span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"solve\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.solve),
                if id + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Per-name totals over a span list: summed duration and self time (the
/// duration minus the part covered by direct children; children of one
/// span never overlap, since every span here is opened on one thread).
pub struct SpanTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn totals(spans: &[Span], name: &str, solve: Option<usize>) -> SpanTotals {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut t = SpanTotals { count: 0, total_s: 0.0, self_s: 0.0 };
    for (id, s) in spans.iter().enumerate() {
        if s.name == name && (solve.is_none() || s.solve == solve) {
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - child_s[id];
        }
    }
    t
}
