//! Command-line container scrub.
//!
//! ```text
//! scrub <container> [--repair <replica>] [--quarantine] [--json]
//! ```
//!
//! Walks the container, prints a damage map, and exits 0 when clean,
//! 1 when damaged, 2 on usage/I/O errors. `--repair` heals damaged
//! chunks from a replica container (bytes are verified against the
//! target's recorded CRCs before being written). `--quarantine`
//! renames a container with container-level damage (torn or corrupt
//! superblock/table) to `<name>.quarantined`.
//!
//! `--json` emits one machine-readable JSON document on stdout (an
//! [`obs::Json`] object, read back by [`obs::json::parse`]) instead of
//! the human damage map: container classification, per-chunk
//! verdicts, repair/quarantine outcomes, and — when a flight-recorder
//! file (`<stem>.obs.jsonl`) sits beside the container — the newest
//! readable record in it: what that step, once completed, reported
//! about itself (fault retries, queue depth, stage timings). A step
//! that died mid-write left none. A failed operation is
//! `{"path", "error", "exit": 2}`.
//! Exit codes are identical in both modes.

use h5lite::scrub::{
    quarantine, repair_from_replica, scrub, ChunkReport, ChunkState, ContainerState,
};
use obs::json::obj;
use obs::Json;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: scrub <container> [--repair <replica>] [--quarantine] [--json]");
    ExitCode::from(2)
}

/// One damaged chunk record of the `--json` document.
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut replica = None;
    let mut do_quarantine = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repair" => {
                i += 1;
                match args.get(i) {
                    Some(r) => replica = Some(r.clone()),
                    None => return usage(),
                }
            }
            "--quarantine" => do_quarantine = true,
            "--json" => json = true,
            a if path.is_none() && !a.starts_with('-') => path = Some(a.to_string()),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(path) = path else { return usage() };

    // The one way out of a failed operation, in either mode.
    let fail = |op: &str, e: &dyn std::fmt::Display| {
        if json {
            let doc = obj([
                ("path", Json::Str(path.clone())),
                ("error", Json::Str(format!("{op}: {e}"))),
                ("exit", Json::Num(2.0)),
            ]);
            println!("{doc}");
        } else {
            eprintln!("{op} {path}: {e}");
        }
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

    if !json {
        match &report.container {
            ContainerState::Ok => println!(
                "{path}: container ok (verified), {} chunk record(s)",
                report.chunks.len()
            ),
            state => println!("{path}: container damaged: {state:?}"),
        }
        for c in report.damaged() {
            match c.state {
                ChunkState::Corrupt { expected, actual } => println!(
                    "  corrupt   {}[{}] record {} at offset {} ({} bytes): recorded {expected:#010x}, read {actual:#010x}",
                    c.dataset, c.index, c.record, c.offset, c.stored
                ),
                ChunkState::Truncated => println!(
                    "  truncated {}[{}] record {} at offset {} ({} bytes past end of file)",
                    c.dataset, c.index, c.record, c.offset, c.stored
                ),
                ChunkState::Ok => {}
            }
        }
        if let Some(rec) = &flight {
            println!(
                "  flight: step {} — {} retries, {} transient fault(s), {} escalation(s), \
                 queue depth max {}, {:.4}s total",
                rec.step,
                rec.retries,
                rec.transient_faults,
                rec.escalations,
                rec.queue_depth_max,
                rec.total_secs
            );
        }
    }

    // From here on the human path prints as it goes; the JSON path
    // collects outcome fields and emits one document at each exit.
    let mut quarantined_to = Json::Null;
    let mut repair = Json::Null;

    let emit = |exit: u8, quarantined_to: Json, repair: Json| {
        if json {
            let flight = flight.as_ref().map(obs::StepFlight::to_json);
            let doc = obj([
                ("path", Json::Str(path.clone())),
                ("container", Json::Str(classification.clone())),
                ("chunk_records", Json::Num(report.chunks.len() as f64)),
                (
                    "damaged",
                    Json::Arr(report.damaged().map(chunk_json).collect()),
                ),
                ("quarantined_to", quarantined_to),
                ("repair", repair),
                ("flight", flight.unwrap_or(Json::Null)),
                ("flight_bad_lines", Json::Num(flight_bad_lines as f64)),
                ("exit", Json::Num(exit.into())),
            ]);
            println!("{doc}");
        }
        ExitCode::from(exit)
    };

    if report.container != ContainerState::Ok {
        if do_quarantine {
            match quarantine(&path) {
                Ok(dest) => {
                    if !json {
                        println!("quarantined to {}", dest.display());
                    }
                    quarantined_to = Json::Str(dest.display().to_string());
                }
                Err(e) => return fail("quarantine", &e),
            }
        }
        return emit(1, quarantined_to, repair);
    }

    if report.is_clean() {
        return emit(0, quarantined_to, repair);
    }

    if let Some(replica) = replica {
        match repair_from_replica(&path, &replica) {
            Ok(rep) => {
                if !json {
                    println!(
                        "repair from {replica}: {} repaired, {} unrepairable",
                        rep.repaired, rep.unrepairable
                    );
                }
                repair = obj([
                    ("replica", Json::Str(replica)),
                    ("repaired", Json::Num(rep.repaired as f64)),
                    ("unrepairable", Json::Num(rep.unrepairable as f64)),
                ]);
                if rep.unrepairable == 0 {
                    return emit(0, quarantined_to, repair);
                }
            }
            Err(e) => return fail("repair", &e),
        }
    }
    emit(1, quarantined_to, repair)
}
