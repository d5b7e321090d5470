//! Per-step JSONL flight recorder.
//!
//! The timeline engine writes one `step-NNNN.obs.jsonl` beside each
//! step's `.pred` sidecar: a single JSON object per line recording
//! where that step's bytes and time went (reservation/waste/overflow,
//! collective wire bytes, planner wall-clock, queue depth, fault
//! retries, stage timings). The file is written *during* the run, so
//! after a crash the newest readable record says what the dying run
//! was doing — `resume_timeline` and `scrub --json` surface it.
//!
//! Reading is deliberately forgiving: a torn or garbage line (the
//! recorder does not rename-atomically — it is the flight recorder,
//! not the black box data itself) is reported as a typed
//! [`FlightError`], never a panic, and surrounding records survive.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, finite, Json};

/// Extension of flight-recorder files (`step-0000.h5l` →
/// `step-0000.obs.jsonl`).
pub const FLIGHT_EXT: &str = "obs.jsonl";

/// Flight-recorder path for a step container path.
pub fn flight_path(container: &Path) -> PathBuf {
    container.with_extension(FLIGHT_EXT)
}

/// One step's flight record. Byte fields mirror the timeline's
/// `StepMetrics` exactly (the bench asserts they byte-match); second
/// fields mirror the engine's `Breakdown`; the fault/queue/wire
/// fields are per-step deltas of the global obs metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepFlight {
    /// Step index within the timeline.
    pub step: u64,
    /// Bytes reserved for compressed output this step.
    pub reserved_bytes: u64,
    /// Reserved bytes left unused (extra-space waste).
    pub waste_bytes: u64,
    /// Model-predicted compressed bytes.
    pub predicted_bytes: u64,
    /// Actual compressed bytes produced.
    pub actual_bytes: u64,
    /// Bytes redirected to the overflow region.
    pub overflow_bytes: u64,
    /// Partitions that overflowed their reservation.
    pub overflow_parts: u64,
    /// Uncompressed input bytes.
    pub raw_bytes: u64,
    /// Bytes occupied in the step's container file.
    pub file_bytes: u64,
    /// Reservation-collective wire bytes this step (obs counter delta).
    pub collective_wire_bytes: u64,
    /// Prediction/sampling phase, seconds.
    pub predict_secs: f64,
    /// Reservation planner (all-gather) phase, seconds.
    pub planner_secs: f64,
    /// Compression phase, seconds.
    pub compress_secs: f64,
    /// Write phase (post-compression remainder for overlap), seconds.
    pub write_secs: f64,
    /// Overflow handling phase, seconds.
    pub overflow_secs: f64,
    /// Read-back verification phase, seconds (0 when disabled).
    pub verify_secs: f64,
    /// End-to-end step time (slowest rank), seconds.
    pub total_secs: f64,
    /// High-water async write-queue depth during the step.
    pub queue_depth_max: u64,
    /// Fault-injection retry count this step (obs counter delta).
    pub retries: u64,
    /// Injected transient-EIO count this step (obs counter delta).
    pub transient_faults: u64,
    /// Bounded-retry escalations this step (obs counter delta).
    pub escalations: u64,
    /// Mean relative ratio-model error after this step.
    pub mean_rel_err: f64,
    /// `std::thread::available_parallelism` of the recording host.
    pub host_parallelism: u64,
}

impl StepFlight {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"kind\": \"step\", \"step\": {}, \"reserved_bytes\": {}, \
             \"waste_bytes\": {}, \"predicted_bytes\": {}, \"actual_bytes\": {}, \
             \"overflow_bytes\": {}, \"overflow_parts\": {}, \"raw_bytes\": {}, \
             \"file_bytes\": {}, \"collective_wire_bytes\": {}, \
             \"predict_secs\": {}, \"planner_secs\": {}, \"compress_secs\": {}, \
             \"write_secs\": {}, \"overflow_secs\": {}, \"verify_secs\": {}, \
             \"total_secs\": {}, \"queue_depth_max\": {}, \"retries\": {}, \
             \"transient_faults\": {}, \"escalations\": {}, \"mean_rel_err\": {}, \
             \"host_parallelism\": {}}}",
            self.step,
            self.reserved_bytes,
            self.waste_bytes,
            self.predicted_bytes,
            self.actual_bytes,
            self.overflow_bytes,
            self.overflow_parts,
            self.raw_bytes,
            self.file_bytes,
            self.collective_wire_bytes,
            finite(self.predict_secs),
            finite(self.planner_secs),
            finite(self.compress_secs),
            finite(self.write_secs),
            finite(self.overflow_secs),
            finite(self.verify_secs),
            finite(self.total_secs),
            self.queue_depth_max,
            self.retries,
            self.transient_faults,
            self.escalations,
            finite(self.mean_rel_err),
            self.host_parallelism,
        )
    }

    /// Decode from a parsed JSON object; every field is required,
    /// numeric, and finite.
    pub fn from_json(v: &Json) -> Result<StepFlight, String> {
        if v.str_of("kind") != Some("step") {
            return Err("not a step record (kind != \"step\")".into());
        }
        let num = |k: &str| -> Result<f64, String> {
            let x = v.num(k).ok_or_else(|| format!("missing field {k}"))?;
            if !x.is_finite() {
                return Err(format!("non-finite field {k}"));
            }
            Ok(x)
        };
        let uns = |k: &str| -> Result<u64, String> {
            let x = num(k)?;
            if x < 0.0 {
                return Err(format!("negative field {k}"));
            }
            Ok(x as u64)
        };
        Ok(StepFlight {
            step: uns("step")?,
            reserved_bytes: uns("reserved_bytes")?,
            waste_bytes: uns("waste_bytes")?,
            predicted_bytes: uns("predicted_bytes")?,
            actual_bytes: uns("actual_bytes")?,
            overflow_bytes: uns("overflow_bytes")?,
            overflow_parts: uns("overflow_parts")?,
            raw_bytes: uns("raw_bytes")?,
            file_bytes: uns("file_bytes")?,
            collective_wire_bytes: uns("collective_wire_bytes")?,
            predict_secs: num("predict_secs")?,
            planner_secs: num("planner_secs")?,
            compress_secs: num("compress_secs")?,
            write_secs: num("write_secs")?,
            overflow_secs: num("overflow_secs")?,
            verify_secs: num("verify_secs")?,
            total_secs: num("total_secs")?,
            queue_depth_max: uns("queue_depth_max")?,
            retries: uns("retries")?,
            transient_faults: uns("transient_faults")?,
            escalations: uns("escalations")?,
            mean_rel_err: num("mean_rel_err")?,
            host_parallelism: uns("host_parallelism")?,
        })
    }
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
        let v = json::parse(&rec.to_json_line()).unwrap();
        assert_eq!(StepFlight::from_json(&v).unwrap(), rec);
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
