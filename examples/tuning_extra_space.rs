//! Tuning the extra-space ratio: sweep `Rspace` over the paper's
//! supported band and print the performance/storage trade-off, then
//! pick a ratio from a user weight via the Fig. 9 mapping.
//!
//! ```text
//! cargo run --release --example tuning_extra_space [weight]
//! ```

use bench::partition_3d;
use repro_suite::pfsim::BandwidthModel;
use repro_suite::predwrite::{
    profile_partition_with, replicate_profiles, simulate_method, weight_to_rspace,
    ExtraSpacePolicy, Method, SimParams,
};
use repro_suite::ratiomodel::{EstimateScratch, Models};
use repro_suite::szlite::Config;
use repro_suite::workloads::{nyx, NyxParams};

fn main() {
    let weight: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    // Profile a small measured set and replay at 512 ranks.
    let side = 32;
    let measured = 8;
    let nranks = 512;
    let bw = BandwidthModel::summit();
    let models = Models::with_cthr(bw.stable_cthr(nranks));
    let ds = nyx::snapshot(NyxParams::with_side(side));
    let mut scratch = EstimateScratch::new();
    let base: Vec<Vec<_>> = partition_3d(&ds, measured)
        .iter()
        .map(|rank_fields| {
            rank_fields
                .iter()
                .map(|fd| {
                    let cfg = Config::rel(1e-3);
                    profile_partition_with(&fd.data, &fd.dims, &cfg, &models, &mut scratch).unwrap()
                })
                .collect()
        })
        .collect();
    let profiles = replicate_profiles(&base, nranks);

    println!("rspace  storage-ovh  perf(total)  overflow-parts");
    for rs in [1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.43, 1.6] {
        let r = simulate_method(
            Method::Overlap,
            &profiles,
            &SimParams::new(bw).with_policy(ExtraSpacePolicy::new(rs)),
        );
        println!(
            "{rs:<7.2} {:>10.1}%  {:>10.3}s  {:>8} / {}",
            r.storage_overhead() * 100.0,
            r.total_time,
            r.n_overflow,
            nranks * 6,
        );
    }

    let chosen = weight_to_rspace(weight);
    println!(
        "\nweight {weight:.2} (0 = performance, 1 = storage) -> rspace {chosen:.3}\n\
         paper band [1.1, 1.43], default 1.25; below ~1.1 overflow handling\n\
         dominates (their observation: rspace 1.1 -> 32.4% overflows, +65.6% time)"
    );
}
