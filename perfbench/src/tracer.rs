//! The traced run's own spans: recorded around calls into each crate's
//! public functions, kept in memory, written at exit as Chrome trace JSON.
//!
//! A span's name is `<layer>.<what>`; a layer's self time is the time its
//! spans cover minus the part their child spans cover.

use crate::stats::{median, offset_ns};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    req: u64,
    tid: u64,
    /// Work units the span covered (packets, keys, requests, …).
    units: f64,
}

thread_local! {
    /// Open span ids of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The in-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    values: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name` for request `req`, covering
    /// `units` units of work, and returns its result.
    pub fn span<T>(&self, name: &'static str, req: u64, units: f64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        let rec = SpanRec {
            id,
            parent,
            name,
            start_ns: offset_ns(self.origin, start),
            end_ns: offset_ns(self.origin, end),
            req,
            tid: TID.with(|t| *t),
            units,
        };
        self.spans.lock().expect("span list poisoned").push(rec);
        out
    }

    /// Records a span timed elsewhere, under the innermost open span of
    /// this thread.
    pub fn record(&self, name: &'static str, req: u64, units: f64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (offset_ns(self.origin, start), offset_ns(self.origin, end));
        self.record_ns(name, req, units, start_ns, end_ns);
    }

    /// [`Tracer::record`] with times as nanoseconds since [`Tracer::origin`]
    /// (a closed-loop request timed on a client thread).
    pub fn record_ns(&self, name: &'static str, req: u64, units: f64, start_ns: u64, end_ns: u64) {
        let rec = SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: STACK.with(|s| s.borrow().last().copied()),
            name,
            start_ns,
            end_ns,
            req,
            tid: TID.with(|t| *t),
            units,
        };
        self.spans.lock().expect("span list poisoned").push(rec);
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records one observation of a non-time quantity (a count, a ratio,
    /// a size).
    pub fn value(&self, name: &str, v: f64) {
        self.values
            .lock()
            .expect("value map poisoned")
            .entry(name.to_string())
            .or_default()
            .push(v);
    }

    /// The median over spans named `name` of nanoseconds per unit; `None`
    /// when no such span was recorded.
    pub fn ns_per_unit(&self, name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let per: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.units > 0.0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.units)
            .collect();
        (!per.is_empty()).then(|| median(&per))
    }

    /// Total nanoseconds and units over spans named `name`.
    pub fn totals(&self, name: &str) -> (f64, f64) {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(ns, units), s| {
                (ns + (s.end_ns - s.start_ns) as f64, units + s.units)
            })
    }

    /// The observations of `name`.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.values
            .lock()
            .expect("value map poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Self time per layer (the span-name prefix before the first `.`),
    /// in milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for s in spans.iter() {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer.to_string()).or_default() += own as f64 / 1e6;
        }
        by_layer
    }

    /// Writes every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events; parent and request ids in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"units\":{}}}}}{sep}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                parent,
                s.req,
                s.units,
            )?;
        }
        writeln!(out, "],\"displayTimeUnit\":\"ns\"}}")?;
        out.flush()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }
}
