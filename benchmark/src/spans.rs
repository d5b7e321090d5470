//! The benchmark's own span recorder (traced layer pass only).
//!
//! Spans are recorded here, around calls *into* the library, never by
//! the library: each carries a name (`bench.<layer>.<call>`), start
//! and end on one monotonic clock, the id of the span that caused it
//! and the checkpoint step it belongs to. They stay in memory until
//! the run ends and are then written as Chrome trace-event JSON.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span nothing caused.
pub const ROOT: u64 = 0;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the causing span ([`ROOT`] = none).
    pub parent: u64,
    /// `bench.<layer>.<call>`.
    pub name: &'static str,
    /// Checkpoint step (or call index) the span belongs to.
    pub step: u64,
    /// Recorder-local thread id, from 1.
    pub tid: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The `<layer>` of `bench.<layer>.<call>` (whole name otherwise).
    pub fn layer(&self) -> &'static str {
        let rest = self.name.strip_prefix("bench.").unwrap_or(self.name);
        rest.split('.').next().unwrap_or(rest)
    }
}

/// In-memory span store shared by the benchmark's threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; its epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn tid(&self) -> u64 {
        TID.with(|t| {
            if t.get() == 0 {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on this thread; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, step: u64) -> Guard<'_> {
        Guard {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            step,
            start: Instant::now(),
        }
    }

    /// Record a span whose ends were stamped elsewhere (e.g. by the
    /// `step_data` callback of a running stream). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        step: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRec {
            id,
            parent,
            name,
            step,
            tid: self.tid(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        });
        id
    }

    fn push(&self, s: SpanRec) {
        self.spans
            .lock()
            .expect("a benchmark thread panicked while recording a span")
            .push(s);
    }

    /// Snapshot of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("a benchmark thread panicked while recording a span")
            .clone()
    }

    /// Durations (seconds) of every span named `name`, in recording
    /// order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .collect()
    }

    /// Write every span, plus the library's own `obs` events for
    /// inspection, as a Chrome trace-event JSON array (loads in
    /// Perfetto and `chrome://tracing`). Benchmark spans are process 1
    /// and carry `id`/`parent`/`step`/`end` in `args`; `obs` events are
    /// process 2. No metric reads the `obs` events.
    pub fn write_chrome_trace(&self, path: &Path, lib_events: &[obs::SpanEvent]) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let mut first = true;
        let mut sep = |w: &mut BufWriter<std::fs::File>| -> io::Result<()> {
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            Ok(())
        };
        for s in self.spans() {
            sep(&mut w)?;
            write!(
                w,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"step\": {}, \
                 \"end\": {:.3}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.step,
                s.end_ns as f64 / 1e3,
            )?;
        }
        for e in lib_events {
            sep(&mut w)?;
            write!(
                w,
                "  {{\"name\": \"{}\", \"cat\": \"obs\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 2, \"tid\": {}, \"args\": {{\"depth\": {}, \"arg\": {}}}}}",
                obs::json::escape(e.name),
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.tid,
                e.depth,
                e.arg.unwrap_or(0),
            )?;
        }
        writeln!(w, "\n]")?;
        w.flush()
    }
}

/// RAII guard of an open span.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    step: u64,
    start: Instant,
}

impl Guard<'_> {
    /// Id to pass as `parent` of the spans this one causes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.rec.push(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            step: self.step,
            tid: self.rec.tid(),
            start_ns: self.rec.ns(self.start),
            end_ns: self.rec.ns(end),
        });
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of
/// `intervals` (which may overlap, e.g. children on two threads).
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut at = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(at), e.min(end));
        if e > s {
            covered += e - s;
            at = e;
        }
    }
    covered
}

/// Self time of span `id`, seconds: its duration minus the part of
/// that interval its direct children cover.
pub fn self_secs(spans: &[SpanRec], id: u64) -> f64 {
    let Some(me) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered = covered_ns(me.start_ns, me.end_ns, &mut kids);
    (me.end_ns - me.start_ns - covered) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, tid: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "bench.test.span",
            step: 0,
            tid,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_interval() {
        let spans = vec![
            rec(1, ROOT, 1, 0, 1_000),
            // Two children on thread 2 and 3 overlapping in 300..500:
            // together they cover 100..700 = 600 ns, not 200+400+... .
            rec(2, 1, 2, 100, 500),
            rec(3, 1, 3, 300, 700),
            // A child sticking out past the parent is clipped to it.
            rec(4, 1, 2, 900, 1_200),
            // A grandchild and an unrelated span change nothing.
            rec(5, 2, 2, 150, 160),
            rec(6, ROOT, 1, 0, 1_000),
        ];
        let want = (1_000 - 600 - 100) as f64 * 1e-9;
        assert!((self_secs(&spans, 1) - want).abs() < 1e-15);
        // A leaf's self time is its duration.
        assert!((self_secs(&spans, 5) - 10e-9).abs() < 1e-15);
        assert_eq!(self_secs(&spans, 99), 0.0);
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let r = Recorder::new();
        let root = r.span("bench.test.root", ROOT, 7);
        let root_id = root.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drop(r.span("bench.test.child", root_id, 7)));
            }
        });
        drop(root);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        let kids: Vec<_> = spans.iter().filter(|s| s.parent == root_id).collect();
        assert_eq!(kids.len(), 2);
        assert_ne!(kids[0].tid, kids[1].tid);
        assert!(spans.iter().all(|s| s.step == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[0].layer(), "test");
        assert_eq!(r.durations("bench.test.child").len(), 2);
    }
}
