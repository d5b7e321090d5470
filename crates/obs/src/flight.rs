//! Per-step JSONL flight recorder.
//!
//! The timeline engine writes one `step-NNNN.obs.jsonl` beside each
//! step's `.pred` sidecar: a single JSON object per line recording
//! where that step's bytes and time went (reservation/waste/overflow,
//! collective wire bytes, planner wall-clock, queue depth, fault
//! retries, stage timings). A step's record is written once the step
//! has completed, so after a crash the newest readable record is the
//! newest *completed* step's — the step that died left none —
//! and `resume_timeline` and the `scrub` CLI surface it.
//!
//! Reading is deliberately forgiving: a torn or garbage line (the
//! recorder does not rename-atomically — it is the flight recorder,
//! not the black box data itself) is reported as a typed
//! [`FlightError`], never a panic, and surrounding records survive.
//! The reader goes by key, not by position: records written before
//! keys were sorted decode the same.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};

/// Extension of flight-recorder files (`step-0000.h5l` →
/// `step-0000.obs.jsonl`).
pub const FLIGHT_EXT: &str = "obs.jsonl";

/// Flight-recorder path for a step container path.
pub fn flight_path(container: &Path) -> PathBuf {
    container.with_extension(FLIGHT_EXT)
}

/// A number a flight record can hold: how it is written as a JSON
/// number and checked when read back.
trait FlightNum: Sized {
    fn to_f64(&self) -> f64;
    fn from_f64(x: f64) -> Result<Self, &'static str>;
}

impl FlightNum for f64 {
    fn to_f64(&self) -> f64 {
        *self
    }
    fn from_f64(x: f64) -> Result<Self, &'static str> {
        Ok(x)
    }
}

impl FlightNum for u64 {
    fn to_f64(&self) -> f64 {
        *self as f64
    }
    fn from_f64(x: f64) -> Result<Self, &'static str> {
        if x < 0.0 {
            return Err("negative");
        }
        Ok(x as u64)
    }
}

/// Field `k` of a record object: required, numeric, finite.
fn field<T: FlightNum>(v: &Json, k: &str) -> Result<T, String> {
    let x = v.num(k).ok_or_else(|| format!("missing field {k}"))?;
    if !x.is_finite() {
        return Err(format!("non-finite field {k}"));
    }
    T::from_f64(x).map_err(|why| format!("{why} field {k}"))
}

/// The record's field table: each name is declared here once, and
/// the struct, its JSON writer and its JSON reader are generated from
/// it.
macro_rules! step_flight {
    ($($(#[$doc:meta])* $name:ident: $ty:ty,)*) => {
        /// One step's flight record — a view of the step's own
        /// `StepMetrics`: the byte fields are its tallies, the second
        /// fields its `Breakdown`, the wire bytes and queue depth
        /// what its run returned, and the fault counts what that
        /// step's fault harness (if any) counted while it ran.
        /// Nothing in it is read from process-wide state, so records
        /// of streams sharing a process do not mix.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct StepFlight {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl StepFlight {
            /// Serialize as one JSON line (no trailing newline), keys
            /// sorted.
            pub fn to_json_line(&self) -> String {
                self.to_json().to_string()
            }

            /// The record as a JSON object: `"kind": "step"` plus one
            /// number per field.
            pub fn to_json(&self) -> Json {
                json::obj([
                    ("kind", Json::Str("step".into())),
                    $((stringify!($name), Json::Num(self.$name.to_f64())),)*
                ])
            }

            /// Decode from a parsed JSON object; every field is
            /// required, numeric, and finite.
            pub fn from_json(v: &Json) -> Result<StepFlight, String> {
                if v.str_of("kind") != Some("step") {
                    return Err("not a step record (kind != \"step\")".into());
                }
                Ok(StepFlight {
                    $($name: field(v, stringify!($name))?,)*
                })
            }
        }
    };
}

step_flight! {
    /// Step index within the timeline.
    step: u64,
    /// Bytes reserved for compressed output this step.
    reserved_bytes: u64,
    /// Reserved bytes left unused (extra-space waste).
    waste_bytes: u64,
    /// Model-predicted compressed bytes.
    predicted_bytes: u64,
    /// Actual compressed bytes produced.
    actual_bytes: u64,
    /// Bytes redirected to the overflow region.
    overflow_bytes: u64,
    /// Partitions that overflowed their reservation.
    overflow_parts: u64,
    /// Uncompressed input bytes.
    raw_bytes: u64,
    /// Bytes occupied in the step's container file.
    file_bytes: u64,
    /// Bytes the step's reservation collective moved, summed over
    /// ranks.
    collective_wire_bytes: u64,
    /// Prediction/sampling phase, seconds.
    predict_secs: f64,
    /// Reservation planner (all-gather) phase, seconds.
    planner_secs: f64,
    /// Compression phase, seconds.
    compress_secs: f64,
    /// Write phase (post-compression remainder for overlap), seconds.
    write_secs: f64,
    /// Overflow handling phase, seconds.
    overflow_secs: f64,
    /// Read-back verification phase, seconds (0 when disabled).
    verify_secs: f64,
    /// End-to-end step time (slowest rank), seconds.
    total_secs: f64,
    /// Peak depth of one rank's async write queue during the step,
    /// maximum over ranks (a rank queues at most one write per field).
    queue_depth_max: u64,
    /// Retries after injected transient faults this step.
    retries: u64,
    /// Injected transient-EIO count this step.
    transient_faults: u64,
    /// Bounded-retry escalations this step.
    escalations: u64,
    /// Mean relative ratio-model error after this step.
    mean_rel_err: f64,
    /// `std::thread::available_parallelism` of the recording host.
    host_parallelism: u64,
}

/// Why a flight-recorder line or file could not be read.
#[derive(Debug)]
pub enum FlightError {
    /// The file itself could not be opened or read.
    Io(io::Error),
    /// One line failed to parse or decode; other lines are unaffected.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Parser or schema failure description.
        reason: String,
    },
}

impl fmt::Display for FlightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightError::Io(e) => write!(f, "flight recorder I/O: {e}"),
            FlightError::BadLine { line, reason } => {
                write!(f, "flight recorder line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for FlightError {}

impl From<io::Error> for FlightError {
    fn from(e: io::Error) -> Self {
        FlightError::Io(e)
    }
}

/// Result of scanning one flight-recorder file: the records that
/// decoded, plus a typed error per line that did not.
#[derive(Debug, Default)]
pub struct FlightScan {
    /// Successfully decoded records, file order.
    pub records: Vec<StepFlight>,
    /// Per-line failures (truncated tail, garbage, wrong schema).
    pub errors: Vec<FlightError>,
}

/// Write (truncate) `path` with a single step record.
pub fn write_step(path: &Path, rec: &StepFlight) -> io::Result<()> {
    std::fs::write(path, format!("{}\n", rec.to_json_line()))
}

/// Read a flight-recorder file, skipping unreadable lines with typed
/// errors. Only a file-level I/O failure is an `Err`.
pub fn read_flight(path: &Path) -> Result<FlightScan, FlightError> {
    let text = std::fs::read_to_string(path)?;
    let mut scan = FlightScan::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match json::parse(line).and_then(|v| StepFlight::from_json(&v)) {
            Ok(rec) => scan.records.push(rec),
            Err(reason) => scan.errors.push(FlightError::BadLine {
                line: i + 1,
                reason,
            }),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> StepFlight {
        StepFlight {
            step,
            reserved_bytes: 4096,
            waste_bytes: 512,
            predicted_bytes: 3500,
            actual_bytes: 3584,
            overflow_bytes: 84,
            overflow_parts: 1,
            raw_bytes: 65536,
            file_bytes: 4180,
            collective_wire_bytes: 576,
            predict_secs: 0.001,
            planner_secs: 0.0005,
            compress_secs: 0.01,
            write_secs: 0.002,
            overflow_secs: 0.0001,
            verify_secs: 0.0,
            total_secs: 0.015,
            queue_depth_max: 3,
            retries: 2,
            transient_faults: 1,
            escalations: 0,
            mean_rel_err: 0.04,
            host_parallelism: 1,
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        let rec = sample(7);
        let line = rec.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        let v = json::parse(&line).unwrap();
        assert_eq!(v, rec.to_json());
        assert_eq!(StepFlight::from_json(&v).unwrap(), rec);
        let Json::Obj(members) = &v else {
            panic!("not an object: {v}")
        };
        assert_eq!(members.len(), 24, "23 fields + kind: {line}");
    }

    #[test]
    fn a_line_in_the_old_key_order_still_decodes() {
        // As written before keys were sorted: `kind` first, fields in
        // declaration order.
        let line = "{\"kind\": \"step\", \"step\": 7, \"reserved_bytes\": 4096, \
            \"waste_bytes\": 512, \"predicted_bytes\": 3500, \"actual_bytes\": 3584, \
            \"overflow_bytes\": 84, \"overflow_parts\": 1, \"raw_bytes\": 65536, \
            \"file_bytes\": 4180, \"collective_wire_bytes\": 576, \
            \"predict_secs\": 0.001, \"planner_secs\": 0.0005, \"compress_secs\": 0.01, \
            \"write_secs\": 0.002, \"overflow_secs\": 0.0001, \"verify_secs\": 0, \
            \"total_secs\": 0.015, \"queue_depth_max\": 3, \"retries\": 2, \
            \"transient_faults\": 1, \"escalations\": 0, \"mean_rel_err\": 0.04, \
            \"host_parallelism\": 1}";
        let v = json::parse(line).unwrap();
        assert_eq!(StepFlight::from_json(&v).unwrap(), sample(7));
        // A negative count and a missing field are schema errors.
        let bad = line.replace("\"retries\": 2", "\"retries\": -2");
        let err = StepFlight::from_json(&json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err, "negative field retries");
        let bad = line.replace("\"retries\": 2, ", "");
        let err = StepFlight::from_json(&json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err, "missing field retries");
    }

    #[test]
    fn flight_path_replaces_the_container_extension() {
        assert_eq!(
            flight_path(Path::new("/tmp/run/step-0042.h5l")),
            Path::new("/tmp/run/step-0042.obs.jsonl")
        );
    }

    #[test]
    fn garbage_and_truncated_lines_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join("obs_flight_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.obs.jsonl");
        let good = sample(3).to_json_line();
        let truncated = &good[..good.len() / 2];
        let body = format!("{good}\nnot json at all\n{truncated}\n{{\"kind\": \"other\"}}\n");
        std::fs::write(&path, body).unwrap();
        let scan = read_flight(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].step, 3);
        assert_eq!(scan.errors.len(), 3);
        for e in &scan.errors {
            assert!(matches!(e, FlightError::BadLine { .. }), "{e}");
        }
        // Missing file: a single typed Io error, not a panic.
        assert!(matches!(
            read_flight(&dir.join("absent.obs.jsonl")),
            Err(FlightError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
