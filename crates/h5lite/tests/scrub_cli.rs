//! The `scrub` binary end to end: exit codes, and a `--json` document
//! that `obs::json::parse` reads back with every key the mode
//! promises, for a clean container, a torn one and a missing path.

use h5lite::{DatasetSpec, Dtype, H5File};
use obs::Json;
use std::path::Path;
use std::process::Command;
use testutil::TempPath;

/// Run `scrub <path> --json`; the exit code and the parsed stdout.
fn scrub_json(path: &Path) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_scrub"))
        .arg(path)
        .arg("--json")
        .output()
        .expect("spawn scrub");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = obs::json::parse(&stdout).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    let code = out.status.code().expect("scrub exited");
    assert_eq!(doc.num("exit"), Some(code as f64), "{stdout}");
    assert_eq!(doc.str_of("path"), path.to_str(), "{stdout}");
    (code, doc)
}

/// A container with one 64-byte dataset; closed, or abandoned before
/// `close()` (zeroed superblock).
fn write_container(path: &Path, close: bool) {
    let f = H5File::create(path).unwrap();
    let id = f
        .create_dataset(DatasetSpec::new("v", Dtype::U8, &[64]))
        .unwrap();
    f.write_full(id, &[1u8; 64]).unwrap();
    if close {
        f.close().unwrap();
    }
}

const REPORT_KEYS: [&str; 9] = [
    "path",
    "container",
    "chunk_records",
    "damaged",
    "quarantined_to",
    "repair",
    "flight",
    "flight_bad_lines",
    "exit",
];

#[test]
fn json_mode_reports_clean_torn_and_missing() {
    let clean = TempPath::new("h5lite-int-scrub-cli-clean", "h5l");
    write_container(clean.path(), true);
    let (code, doc) = scrub_json(clean.path());
    assert_eq!(code, 0);
    assert_eq!(doc.str_of("container"), Some("ok"));
    assert_eq!(doc.num("chunk_records"), Some(1.0));
    assert_eq!(doc.arr("damaged"), Some(&[][..]));

    let torn = TempPath::new("h5lite-int-scrub-cli-torn", "h5l");
    write_container(torn.path(), false);
    let (code, torn_doc) = scrub_json(torn.path());
    assert_eq!(code, 1);
    assert_eq!(torn_doc.str_of("container"), Some("torn"));

    for doc in [&doc, &torn_doc] {
        for key in REPORT_KEYS {
            assert!(doc.get(key).is_some(), "missing {key}: {doc}");
        }
        assert_eq!(doc.get("quarantined_to"), Some(&Json::Null));
        assert_eq!(doc.get("flight"), Some(&Json::Null));
    }

    // With a flight record beside the container, `flight` is that
    // record: `kind` plus all 23 fields, decoding to what was written.
    let flight = TempPath::new("h5lite-int-scrub-cli-clean", obs::flight::FLIGHT_EXT);
    assert_eq!(flight.path(), obs::flight_path(clean.path()));
    let rec = obs::StepFlight {
        step: 3,
        retries: 2,
        total_secs: 0.25,
        ..Default::default()
    };
    obs::flight::write_step(flight.path(), &rec).unwrap();
    let (code, doc) = scrub_json(clean.path());
    assert_eq!(code, 0);
    let embedded = doc.get("flight").expect("flight");
    let Json::Obj(members) = embedded else {
        panic!("flight is not an object: {doc}")
    };
    assert_eq!(members.len(), 24, "{doc}");
    assert_eq!(embedded.str_of("kind"), Some("step"));
    assert_eq!(obs::StepFlight::from_json(embedded), Ok(rec));
    assert_eq!(doc.num("flight_bad_lines"), Some(0.0));

    let missing = TempPath::new("h5lite-int-scrub-cli-missing", "h5l");
    let (code, doc) = scrub_json(missing.path());
    assert_eq!(code, 2);
    assert!(doc
        .str_of("error")
        .is_some_and(|e| e.starts_with("scrub: ")));
    let Json::Obj(members) = &doc else {
        panic!("not an object: {doc}")
    };
    assert_eq!(members.len(), 3, "{doc}");
}
