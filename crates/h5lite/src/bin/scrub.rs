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
//! `--json` emits one machine-readable JSON object on stdout instead
//! of the human damage map: container classification, per-chunk
//! verdicts, repair/quarantine outcomes, and — when a flight-recorder
//! file (`<stem>.obs.jsonl`) sits beside the container — the newest
//! readable flight record, so the post-mortem of a torn step includes
//! what the dying run was doing (fault retries, queue depth, stage
//! timings). Exit codes are identical in both modes.

use h5lite::scrub::{quarantine, repair_from_replica, scrub, ChunkState, ContainerState};
use obs::json::escape;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: scrub <container> [--repair <replica>] [--quarantine] [--json]");
    ExitCode::from(2)
}

/// The newest readable flight record beside `container`, as a raw
/// JSON object string, plus the count of unreadable lines.
fn flight_summary(container: &str) -> (Option<String>, usize) {
    let fpath = obs::flight_path(Path::new(container));
    match obs::read_flight(&fpath) {
        Ok(scan) => (
            scan.records.last().map(|r| r.to_json_line()),
            scan.errors.len(),
        ),
        Err(_) => (None, 0),
    }
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

    let report = match scrub(&path) {
        Ok(r) => r,
        Err(e) => {
            if json {
                println!(
                    "{{\"path\": \"{}\", \"error\": \"{}\", \"exit\": 2}}",
                    escape(&path),
                    escape(&e.to_string())
                );
            } else {
                eprintln!("scrub {path}: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let classification = match &report.container {
        ContainerState::Ok => "ok".to_string(),
        ContainerState::Torn => "torn".to_string(),
        ContainerState::CorruptSuperblock(d) => format!("corrupt_superblock: {d}"),
        ContainerState::CorruptTable(d) => format!("corrupt_table: {d}"),
    };
    let (flight, flight_bad_lines) = flight_summary(&path);

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
        if let Some(rec) = flight.as_deref().and_then(|l| {
            obs::json::parse(l)
                .ok()
                .and_then(|v| obs::StepFlight::from_json(&v).ok())
        }) {
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
    // collects outcome fields and emits one object at each exit.
    let mut quarantined_to: Option<String> = None;
    let mut repair_json = "null".to_string();

    let emit = |exit: u8, quarantined_to: &Option<String>, repair_json: &str| {
        if json {
            let damaged: Vec<String> = report
                .damaged()
                .map(|c| {
                    let (state, detail) = match c.state {
                        ChunkState::Corrupt { expected, actual } => (
                            "corrupt",
                            format!(", \"expected_crc\": {expected}, \"actual_crc\": {actual}"),
                        ),
                        ChunkState::Truncated => ("truncated", String::new()),
                        ChunkState::Ok => ("ok", String::new()),
                    };
                    format!(
                        "{{\"dataset\": \"{}\", \"index\": {}, \"record\": {}, \
                         \"offset\": {}, \"stored\": {}, \"state\": \"{state}\"{detail}}}",
                        escape(&c.dataset),
                        c.index,
                        c.record,
                        c.offset,
                        c.stored
                    )
                })
                .collect();
            println!(
                "{{\"path\": \"{}\", \"container\": \"{}\", \
                 \"chunk_records\": {}, \"damaged\": [{}], \"quarantined_to\": {}, \
                 \"repair\": {}, \"flight\": {}, \"flight_bad_lines\": {}, \"exit\": {exit}}}",
                escape(&path),
                escape(&classification),
                report.chunks.len(),
                damaged.join(", "),
                match quarantined_to {
                    Some(q) => format!("\"{}\"", escape(q)),
                    None => "null".into(),
                },
                repair_json,
                flight.as_deref().unwrap_or("null"),
                flight_bad_lines,
            );
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
                    quarantined_to = Some(dest.display().to_string());
                }
                Err(e) => {
                    if json {
                        println!(
                            "{{\"path\": \"{}\", \"error\": \"quarantine: {}\", \"exit\": 2}}",
                            escape(&path),
                            escape(&e.to_string())
                        );
                    } else {
                        eprintln!("quarantine {path}: {e}");
                    }
                    return ExitCode::from(2);
                }
            }
        }
        return emit(1, &quarantined_to, &repair_json);
    }

    if report.is_clean() {
        return emit(0, &quarantined_to, &repair_json);
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
                repair_json = format!(
                    "{{\"replica\": \"{}\", \"repaired\": {}, \"unrepairable\": {}}}",
                    escape(&replica),
                    rep.repaired,
                    rep.unrepairable
                );
                if rep.unrepairable == 0 {
                    return emit(0, &quarantined_to, &repair_json);
                }
            }
            Err(e) => {
                if json {
                    println!(
                        "{{\"path\": \"{}\", \"error\": \"repair: {}\", \"exit\": 2}}",
                        escape(&path),
                        escape(&e.to_string())
                    );
                } else {
                    eprintln!("repair {path}: {e}");
                }
                return ExitCode::from(2);
            }
        }
    }
    emit(1, &quarantined_to, &repair_json)
}
