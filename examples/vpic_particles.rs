//! VPIC-like particle dump through the predictive parallel-write path:
//! 8 particle fields split over rank threads, written with overlap +
//! reordering, then read back and validated field by field.
//!
//! ```text
//! cargo run --release --example vpic_particles
//! ```

use bench::{demo_real_config, partition_1d};
use repro_suite::predwrite::{run_real, verify_file, Method};
use repro_suite::workloads::{vpic, VpicParams};

fn main() {
    let n_particles = 1 << 16;
    let nranks = 8;
    let ds = vpic::snapshot(VpicParams::with_particles(n_particles));
    println!(
        "VPIC dump: {n_particles} particles, {} fields, {nranks} ranks",
        ds.fields.len()
    );

    // Equal 1-D splits per field (the helper truncates the remainder
    // so chunks are uniform, as the chunked layout requires).
    let data = partition_1d(&ds, nranks);

    let path = std::env::temp_dir().join("vpic-particles.h5l");
    // Balanced bandwidth (scale 0.5); engine-level read-back check of
    // every element.
    let cfg = demo_real_config(
        Method::OverlapReorder,
        ds.fields.len(),
        0.5,
        true,
        path.clone(),
    );
    let res = run_real(&data, &cfg).expect("run failed");
    println!(
        "wrote {} raw as {} compressed in {:.2}s (ratio {:.1}x, {} overflows)",
        res.raw_bytes,
        res.compressed_bytes,
        res.total_time,
        res.ideal_ratio(),
        res.n_overflow
    );
    println!(
        "engine verification re-read every element within bound in {:.2}s",
        res.breakdown.verify
    );

    // Validate each field against the written file with the engine's
    // public checker (every element against its resolved bound).
    let report = verify_file(&path, &data, Some(&cfg.configs), cfg.sz_threads).unwrap();
    for f in &report.fields {
        assert!(f.ok, "{}: {} > {}", f.name, f.max_abs_err, f.max_bound);
        println!(
            "  {:8} verified (worst error {:.2e}, bound {:.2e})",
            f.name, f.max_abs_err, f.max_bound
        );
    }
    std::fs::remove_file(&path).ok();
}
