//! What the `bench_*` binaries share: how a knob is read from the
//! environment and how a `BENCH_*.json` artifact is written — once,
//! as an [`obs::Json`] value through its `Display`, so every artifact
//! is in the dialect `tests/bench_schema.rs` parses.

pub use obs::json::obj;
use obs::Json;
use std::str::FromStr;

/// The knob `name` parsed as `T`; `default` when it is unset or does
/// not parse.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// [`env_or`] for sizes and counts, where 0 is no size: it reads as
/// unset.
pub fn env_count(name: &str, default: usize) -> usize {
    match env_or(name, default) {
        0 => default,
        n => n,
    }
}

/// Write `doc` (an object) to the path in `BENCH_OUT`, or to
/// `default_path`, stamped with the parallelism of the host the
/// numbers were taken on.
pub fn write_artifact(default_path: &str, mut doc: Json) {
    let Json::Obj(members) = &mut doc else {
        panic!("a bench artifact is a JSON object");
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    members.insert("host_parallelism".into(), Json::Num(parallelism as f64));
    members.insert("multi_core_host".into(), Json::Bool(parallelism > 1));
    let path = env_or("BENCH_OUT", default_path.to_string());
    std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
