//! Command-line container scrub.
//!
//! ```text
//! scrub <container> [--quarantine]
//! ```
//!
//! Walks the container and prints one machine-readable JSON document
//! on stdout (an [`obs::Json`] object, read back by
//! [`obs::json::parse`]): container classification, per-chunk
//! verdicts of the damaged records, the quarantine outcome, and — when
//! a flight-recorder file (`<stem>.obs.jsonl`) sits beside the
//! container — the newest readable record in it: what that step, once
//! completed, reported about itself (fault retries, queue depth, stage
//! timings). A step that died mid-write left none.
//!
//! Exits 0 when clean, 1 when damaged, 2 on usage/I/O errors; a failed
//! operation prints `{"path", "error", "exit": 2}`. `--quarantine`
//! renames a container with container-level damage (torn or corrupt
//! superblock/table) to `<name>.quarantined`.

use h5lite::scrub::{quarantine, scrub, ChunkReport, ChunkState, ContainerState};
use obs::json::obj;
use obs::Json;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: scrub <container> [--quarantine]");
    ExitCode::from(2)
}

/// One damaged chunk record of the document.
fn chunk_json(c: &ChunkReport) -> Json {
    let mut members = vec![
        ("dataset", Json::Str(c.dataset.clone())),
        ("index", Json::Num(c.index as f64)),
        ("record", Json::Num(c.record as f64)),
        ("offset", Json::Num(c.offset as f64)),
        ("stored", Json::Num(c.stored as f64)),
    ];
    let state = match c.state {
        ChunkState::Corrupt { expected, actual } => {
            members.push(("expected_crc", Json::Num(expected as f64)));
            members.push(("actual_crc", Json::Num(actual as f64)));
            "corrupt"
        }
        ChunkState::Truncated => "truncated",
        ChunkState::Ok => "ok",
    };
    members.push(("state", Json::Str(state.into())));
    obj(members)
}

fn main() -> ExitCode {
    let mut path = None;
    let mut do_quarantine = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quarantine" => do_quarantine = true,
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };

    // The one way out of a failed operation.
    let fail = |op: &str, e: &dyn std::fmt::Display| {
        let doc = obj([
            ("path", Json::Str(path.clone())),
            ("error", Json::Str(format!("{op}: {e}"))),
            ("exit", Json::Num(2.0)),
        ]);
        println!("{doc}");
        ExitCode::from(2)
    };

    let report = match scrub(&path) {
        Ok(r) => r,
        Err(e) => return fail("scrub", &e),
    };

    let classification = match &report.container {
        ContainerState::Ok => "ok".to_string(),
        ContainerState::Torn => "torn".to_string(),
        ContainerState::CorruptSuperblock(d) => format!("corrupt_superblock: {d}"),
        ContainerState::CorruptTable(d) => format!("corrupt_table: {d}"),
    };
    // The newest readable flight record beside the container, and how
    // many lines of the file were unreadable.
    let (flight, flight_bad_lines) = match obs::read_flight(&obs::flight_path(Path::new(&path))) {
        Ok(mut scan) => (scan.records.pop(), scan.errors.len()),
        Err(_) => (None, 0),
    };

    let mut quarantined_to = Json::Null;
    if report.container != ContainerState::Ok && do_quarantine {
        match quarantine(&path) {
            Ok(dest) => quarantined_to = Json::Str(dest.display().to_string()),
            Err(e) => return fail("quarantine", &e),
        }
    }

    let exit = if report.is_clean() { 0 } else { 1 };
    let doc = obj([
        ("path", Json::Str(path.clone())),
        ("container", Json::Str(classification)),
        ("chunk_records", Json::Num(report.chunks.len() as f64)),
        (
            "damaged",
            Json::Arr(report.damaged().map(chunk_json).collect()),
        ),
        ("quarantined_to", quarantined_to),
        (
            "flight",
            flight.as_ref().map_or(Json::Null, obs::StepFlight::to_json),
        ),
        ("flight_bad_lines", Json::Num(flight_bad_lines as f64)),
        ("exit", Json::Num(exit.into())),
    ]);
    println!("{doc}");
    ExitCode::from(exit)
}
