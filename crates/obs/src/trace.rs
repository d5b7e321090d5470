//! Scoped span tracing with Chrome trace-event (catapult) export.
//!
//! [`span`] returns an RAII guard; dropping it records one
//! [`SpanEvent`] (monotonic start, duration, thread id, nesting depth)
//! into a per-thread buffer — no locks and no shared state on the
//! record path. Buffers retire into a global list when their thread
//! exits (or on [`flush_thread`]); [`drain`] collects everything for
//! export as Chrome trace-event JSON, which opens directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! [`timed`] is the same guard for a phase whose seconds the caller
//! also accounts ([`Timed::stop`] returns them), so a phase is
//! recorded once whether tracing is on or off.
//!
//! Tracing is compiled in but disabled by default: the guard
//! constructor is one relaxed atomic load and a branch when off (the
//! overhead is asserted < 2% of the serial-compress floor by
//! `tests/observability.rs`). Setting the [`TRACE_ENV`] environment variable
//! (`OBS_TRACE=trace.json`) enables recording at first use, and
//! [`export_env`] writes the accumulated trace to that path.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape;

/// Environment variable naming the Chrome-trace output path; setting
/// it also enables span recording.
pub const TRACE_ENV: &str = "OBS_TRACE";

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static label, e.g. `"real.compress_field"`.
    pub name: &'static str,
    /// Process-local thread id (sequential from 1, not the OS tid).
    pub tid: u64,
    /// Nesting depth at open on this thread (0 = top level).
    pub depth: u32,
    /// Start offset from the process trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Optional numeric payload (bytes, index, rank…).
    pub arg: Option<u64>,
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether spans are currently being recorded. First call resolves
/// the tri-state from [`TRACE_ENV`]; the hot path afterwards is one
/// relaxed load and a branch.
#[inline]
fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var_os(TRACE_ENV).is_some_and(|v| !v.is_empty());
    let want = if on { STATE_ON } else { STATE_OFF };
    // A concurrent set_enabled wins: only move out of UNINIT.
    let _ = STATE.compare_exchange(STATE_UNINIT, want, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Force recording on or off, overriding the [`TRACE_ENV`] default.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RETIRED: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

struct ThreadBuf {
    tid: u64,
    depth: u32,
    events: Vec<SpanEvent>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            events: Vec::new(),
        }
    }
}

impl Drop for ThreadBuf {
    // Thread exit retires the buffer so worker spans survive the
    // worker. The main thread's TLS destructor may never run; drain()
    // collects the calling thread's live buffer directly instead.
    fn drop(&mut self) {
        if !self.events.is_empty() {
            if let Ok(mut r) = RETIRED.lock() {
                r.append(&mut self.events);
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// RAII span guard; the span is recorded when this drops. Open and
/// close on the same thread (nesting depth is tracked per thread).
#[must_use = "a span measures the scope that holds it"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    arg: Option<u64>,
    start_ns: u64,
    armed: bool,
}

/// Open a span named `name` on this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_inner(name, None)
}

/// Open a span carrying a numeric payload (bytes, index, rank…).
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> Span {
    span_inner(name, Some(arg))
}

#[inline]
fn span_inner(name: &'static str, arg: Option<u64>) -> Span {
    if !enabled() {
        return Span {
            name,
            arg,
            start_ns: 0,
            armed: false,
        };
    }
    open_span(name, arg)
}

fn open_span(name: &'static str, arg: Option<u64>) -> Span {
    let _ = BUF.try_with(|b| b.borrow_mut().depth += 1);
    Span {
        name,
        arg,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        // try_with: recording during TLS teardown silently drops the
        // event rather than aborting the unwinding thread.
        let _ = BUF.try_with(|b| {
            let mut b = b.borrow_mut();
            b.depth = b.depth.saturating_sub(1);
            let (tid, depth) = (b.tid, b.depth);
            b.events.push(SpanEvent {
                name: self.name,
                tid,
                depth,
                start_ns: self.start_ns,
                dur_ns,
                arg: self.arg,
            });
        });
    }
}

/// A phase recorded once: the span, when tracing is on, and the
/// wall-clock seconds the caller accounts the phase with either way.
/// With tracing off it costs the two clock reads of an `Instant` pair
/// and the disabled span's one relaxed load.
#[must_use = "a timed phase measures up to its stop()"]
#[derive(Debug)]
pub struct Timed {
    start: Instant,
    span: Span,
}

/// Start timing the phase `name` on this thread.
#[inline]
pub fn timed(name: &'static str) -> Timed {
    timed_inner(name, None)
}

/// [`timed`] whose span carries a numeric payload.
#[inline]
pub fn timed_arg(name: &'static str, arg: u64) -> Timed {
    timed_inner(name, Some(arg))
}

#[inline]
fn timed_inner(name: &'static str, arg: Option<u64>) -> Timed {
    Timed {
        span: span_inner(name, arg),
        start: Instant::now(),
    }
}

impl Timed {
    /// End the phase: its seconds, and (tracing on) its span. A guard
    /// dropped without `stop` — an early `?` return — still closes
    /// the span.
    #[inline]
    pub fn stop(self) -> f64 {
        let Timed { start, span } = self;
        let secs = start.elapsed().as_secs_f64();
        drop(span);
        secs
    }
}

/// Retire the calling thread's buffered events into the global list
/// without waiting for thread exit. Worker threads should call this
/// before returning: `thread::scope` (and pool join protocols) can
/// observe closure completion before the TLS destructor that would
/// otherwise retire the buffer has run.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        if !b.events.is_empty() {
            if let Ok(mut r) = RETIRED.lock() {
                r.append(&mut b.events);
            }
        }
    });
}

/// Collect every retired event plus the calling thread's buffer,
/// sorted by (thread, start, longest-first) so parents precede their
/// children. Spans still open on other live threads are not included.
pub fn drain() -> Vec<SpanEvent> {
    flush_thread();
    let mut out = std::mem::take(&mut *RETIRED.lock().unwrap_or_else(|e| e.into_inner()));
    out.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

/// Write `events` as a Chrome trace-event JSON array of complete
/// (`"ph": "X"`) events, timestamps in microseconds.
pub fn write_chrome_trace(path: &Path, events: &[SpanEvent]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "[")?;
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let ts = e.start_ns as f64 / 1000.0;
        let dur = e.dur_ns as f64 / 1000.0;
        write!(
            w,
            "  {{\"name\": \"{}\", \"cat\": \"obs\", \"ph\": \"X\", \"ts\": {ts:.3}, \
             \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"depth\": {}",
            escape(e.name),
            e.tid,
            e.depth
        )?;
        if let Some(a) = e.arg {
            write!(w, ", \"arg\": {a}")?;
        }
        writeln!(w, "}}}}{comma}")?;
    }
    writeln!(w, "]")?;
    w.flush()
}

// Events already exported once: export_env drains incrementally but
// always rewrites the complete trace, so repeated calls (step loops,
// resumed runs) produce a growing, self-contained file.
static EXPORTED: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

/// Drain all events and write the accumulated trace to the path named
/// by [`TRACE_ENV`]. Returns `Ok(None)` when the variable is unset or
/// empty (nothing is written or drained).
pub fn export_env() -> io::Result<Option<PathBuf>> {
    let Some(path) = std::env::var_os(TRACE_ENV).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    let path = PathBuf::from(path);
    let mut acc = EXPORTED.lock().unwrap_or_else(|e| e.into_inner());
    acc.extend(drain());
    acc.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));
    write_chrome_trace(&path, &acc)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test body: the enable flag, the per-thread buffers, and the
    // retired list are process globals, so the scenarios run serially
    // inside a single #[test] to avoid cross-test interference.
    #[test]
    fn spans_record_nesting_and_disabled_mode_records_nothing() {
        set_enabled(false);
        {
            let _a = span("test.disabled");
        }
        assert!(timed("test.disabled").stop() >= 0.0);
        assert!(drain().is_empty(), "disabled mode must record nothing");

        set_enabled(true);
        // A timed phase is one recording: its seconds and its span.
        let secs = timed_arg("test.timed", 3).stop();
        let timed_events = drain();
        assert_eq!(timed_events.len(), 1);
        assert_eq!(timed_events[0].name, "test.timed");
        assert_eq!(timed_events[0].arg, Some(3));
        assert!((0.0..1.0).contains(&secs), "{secs}");
        // Dropped without stop() — an early return — the span closes.
        drop(timed("test.dropped"));
        assert_eq!(drain()[0].name, "test.dropped");
        {
            let _outer = span_arg("test.outer", 7);
            {
                let _inner = span("test.inner");
            }
        }
        let events = drain();
        set_enabled(false);
        assert_eq!(events.len(), 2);
        // Sorted parent-first within the thread.
        assert_eq!(events[0].name, "test.outer");
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[0].arg, Some(7));
        assert_eq!(events[1].name, "test.inner");
        assert_eq!(events[1].depth, 1);
        assert_eq!(events[0].tid, events[1].tid);
        // The child interval is contained in the parent's.
        let (p, c) = (&events[0], &events[1]);
        assert!(c.start_ns >= p.start_ns);
        assert!(c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns);
        assert!(drain().is_empty(), "drain consumes");

        // Chrome export is valid strict JSON with the required keys.
        let dir = std::env::temp_dir().join("obs_trace_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.json");
        write_chrome_trace(&path, &events).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::parse(&text).unwrap();
        let crate::json::Json::Arr(items) = &v else {
            panic!("trace is not an array");
        };
        assert_eq!(items.len(), 2);
        for it in items {
            assert_eq!(it.str_of("ph"), Some("X"));
            assert!(it.num("ts").is_some());
            assert!(it.num("dur").is_some());
            assert!(it.num("tid").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
