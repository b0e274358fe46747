//! Lightweight spans and the Chrome trace-event export.
//!
//! [`Span::enter(ENGINE_BATCH)`](Span::enter) returns an RAII guard;
//! when it drops, one complete-event record (name, start, duration,
//! thread) lands in a bounded process-wide ring buffer. The ring holds
//! the most recent [`TRACE_CAPACITY`] spans — old entries are overwritten
//! and counted in [`trace_dropped`], so tracing can stay on forever
//! without growing memory.
//!
//! [`chrome_trace_json`] renders the buffer in the Chrome trace-event
//! format (a `{"traceEvents": [...]}` object of `ph: "X"` complete
//! events, timestamps in microseconds), which loads directly in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). The CLI
//! exposes it as `ddtr … --trace-json <file>`.
//!
//! Span names are cataloged [`Name`]s over `&'static str`: recording
//! costs one `Instant` read at enter and one ring slot at drop, with no
//! allocation.

use crate::names::Name;
use serde::Serialize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Most recent spans kept for export (~40 bytes each).
pub const TRACE_CAPACITY: usize = 16_384;

/// One completed span in the ring.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
}

/// The bounded span ring: a vector that grows to [`TRACE_CAPACITY`] and
/// then wraps, `next` marking the oldest (overwrite) position.
#[derive(Debug, Default)]
struct Ring {
    events: Vec<SpanEvent>,
    next: usize,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::default()))
}

/// The process epoch all span timestamps are relative to, pinned on the
/// first [`Span::enter`].
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense per-thread ids for the trace's `tid` field.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// An RAII span: created by [`Span::enter`], recorded on drop.
///
/// While recording is disabled (see [`crate::set_enabled`]) the guard is
/// inert — no clock read, no ring write.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span; the returned guard records it when dropped.
    #[must_use]
    pub fn enter(name: Name) -> Span {
        let name = name.as_str();
        if !crate::enabled() {
            return Span { name, start: None };
        }
        let _ = epoch(); // pin the trace epoch no later than the first span
        Span {
            name,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // `duration_since` saturates to zero for an earlier instant.
        let ts_ns = u64::try_from(start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        let event = SpanEvent {
            name: self.name,
            ts_ns,
            dur_ns,
            tid: thread_id(),
        };
        let mut r = ring().lock().unwrap_or_else(PoisonError::into_inner);
        if r.events.len() < TRACE_CAPACITY {
            r.events.push(event);
        } else {
            let slot = r.next;
            if let Some(s) = r.events.get_mut(slot) {
                *s = event;
            }
            r.dropped += 1;
        }
        r.next = (r.next + 1) % TRACE_CAPACITY;
    }
}

/// Number of spans currently held in the ring.
#[must_use]
pub fn trace_len() -> usize {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .events
        .len()
}

/// Number of spans overwritten because the ring was full.
#[must_use]
pub fn trace_dropped() -> u64 {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .dropped
}

/// One Chrome trace-event complete event (`ph: "X"`).
#[derive(Serialize)]
struct TraceEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// The trace-event document: Chrome's "JSON object format".
#[derive(Serialize)]
#[allow(non_snake_case)]
struct TraceDoc {
    traceEvents: Vec<TraceEvent>,
    displayTimeUnit: String,
}

/// Renders the recorded spans as Chrome trace-event JSON.
///
/// The result loads in `chrome://tracing` and Perfetto: an object with a
/// `traceEvents` array of complete events, timestamps and durations in
/// microseconds relative to the process's first span.
#[must_use]
pub fn chrome_trace_json() -> String {
    let mut ordered = {
        let r = ring().lock().unwrap_or_else(PoisonError::into_inner);
        r.events.clone()
    };
    // The ring holds spans in completion order; viewers want start order.
    ordered.sort_by_key(|e| e.ts_ns);
    let doc = TraceDoc {
        traceEvents: ordered
            .iter()
            .map(|e| TraceEvent {
                name: e.name.to_string(),
                cat: String::from("ddtr"),
                ph: String::from("X"),
                ts: e.ts_ns as f64 / 1000.0,
                dur: e.dur_ns as f64 / 1000.0,
                pid: 1,
                tid: e.tid,
            })
            .collect(),
        displayTimeUnit: String::from("ms"),
    };
    serde_json::to_string(&doc).unwrap_or_else(|_| String::from("{\"traceEvents\":[]}"))
}

/// Writes [`chrome_trace_json`] to `path` (the `--trace-json` backend).
///
/// # Errors
///
/// Propagates the filesystem error if the file cannot be written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let json = chrome_trace_json();
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{CORE_STEP1, CORE_STEP2, ENGINE_BATCH, ENGINE_EXECUTE};

    #[test]
    fn spans_record_and_export_structurally_valid_trace_json() {
        {
            let _outer = Span::enter(CORE_STEP1);
            let _inner = Span::enter(CORE_STEP2);
        }
        std::thread::spawn(|| {
            let _s = Span::enter(ENGINE_EXECUTE);
        })
        .join()
        .expect("worker");
        assert!(trace_len() >= 3);

        let json = chrome_trace_json();
        let doc = serde_json::parse(&json).expect("valid JSON");
        let map = doc.as_map().expect("top-level object");
        let events = map
            .get("traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents array");
        assert!(events.len() >= 3);
        let mut tids = std::collections::BTreeSet::new();
        for ev in events {
            let m = ev.as_map().expect("event object");
            assert_eq!(
                m.get("ph").and_then(|v| v.as_str()),
                Some("X"),
                "complete events only"
            );
            assert!(m.get("name").and_then(|v| v.as_str()).is_some());
            assert!(m.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(m.get("dur").and_then(|v| v.as_f64()).is_some());
            assert!(m.get("pid").and_then(|v| v.as_u64()).is_some());
            tids.insert(m.get("tid").and_then(|v| v.as_u64()));
        }
        // The spawned thread got its own tid lane.
        assert!(tids.len() >= 2);
        // Timestamps are chronological.
        let ts: Vec<f64> = events
            .iter()
            .filter_map(|e| e.as_map()?.get("ts")?.as_f64())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn write_chrome_trace_creates_a_loadable_file() {
        let _s = Span::enter(ENGINE_BATCH);
        drop(_s);
        let dir = std::env::temp_dir().join(format!("ddtr-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trace.json");
        write_chrome_trace(&path).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        let doc = serde_json::parse(&body).expect("valid JSON");
        assert!(doc.as_map().and_then(|m| m.get("traceEvents")).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
