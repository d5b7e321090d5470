//! The metric registry: every name the benchmark may print, with its
//! unit, direction and (end-to-end only) regression bound. It mirrors
//! `BENCHMARK.json`; a self-test asserts the two agree.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics have none).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported on every workload with `--trace 0`.
/// Bounds were fixed from the spreads recorded in `BASELINE.md`: the
/// time-based ones have to cover this shared host's drift under
/// sustained load (step times of one workload moved 154 → 185 ms over
/// four minutes), the count-based ones the spread across seeds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ckpt_mb_per_s", "MB/s", Higher, 0.25),
    e2e("step_ms_p50", "ms", Lower, 0.25),
    e2e("restart_mb_per_s", "MB/s", Higher, 0.25),
    e2e("stored_bytes_per_raw_byte", "ratio", Lower, 0.06),
    e2e("extra_space_per_raw_byte", "ratio", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, reported on every workload with `--trace 1`.
/// The layer is the name's prefix (a crate name, or `recon` for the
/// reconciliation of the layers against the engine).
pub const PER_LAYER: &[MetricDef] = &[
    // szlite
    layer("szlite.compress_mb_per_s", "MB/s", Higher),
    layer("szlite.decompress_mb_per_s", "MB/s", Higher),
    layer("szlite.bits_per_point", "bit", Lower),
    layer("szlite.unpredictable_frac", "ratio", Lower),
    layer("szlite.sample_ms_per_partition", "ms", Lower),
    layer("szlite.huffman_build_us", "us", Lower),
    layer("szlite.huffman_encode_msym_per_s", "Msym/s", Higher),
    layer("szlite.huffman_decode_msym_per_s", "Msym/s", Higher),
    layer("szlite.lzss_compress_mb_per_s", "MB/s", Higher),
    layer("szlite.lzss_decompress_mb_per_s", "MB/s", Higher),
    // ratiomodel
    layer("ratiomodel.estimate_ms_per_partition", "ms", Lower),
    layer("ratiomodel.estimate_frac_of_compress", "ratio", Lower),
    layer("ratiomodel.size_rel_err_mean", "ratio", Lower),
    layer("ratiomodel.online_predict_ns", "ns", Lower),
    layer("ratiomodel.online_observe_ns", "ns", Lower),
    layer("ratiomodel.online_rel_err_final", "ratio", Lower),
    // commsim
    layer("commsim.allgather_us", "us", Lower),
    layer("commsim.barrier_us", "us", Lower),
    layer("commsim.world_spawn_us", "us", Lower),
    // pfsim
    layer("pfsim.write_at_mb_per_s", "MB/s", Higher),
    layer("pfsim.read_at_mb_per_s", "MB/s", Higher),
    layer("pfsim.sync_ms", "ms", Lower),
    layer("pfsim.throttle_rate_ratio", "ratio", Higher),
    // h5lite
    layer("h5lite.write_full_mb_per_s", "MB/s", Higher),
    layer("h5lite.write_pipelined_1w_mb_per_s", "MB/s", Higher),
    layer("h5lite.write_pipelined_2w_mb_per_s", "MB/s", Higher),
    layer("h5lite.write_fanout_speedup_2w", "ratio", Higher),
    layer("h5lite.read_raw_mb_per_s", "MB/s", Higher),
    layer("h5lite.read_pipelined_1w_mb_per_s", "MB/s", Higher),
    layer("h5lite.read_pipelined_2w_mb_per_s", "MB/s", Higher),
    layer("h5lite.read_fanout_speedup_2w", "ratio", Higher),
    layer("h5lite.crc32c_mb_per_s", "MB/s", Higher),
    layer("h5lite.gather_tile_mb_per_s", "MB/s", Higher),
    layer("h5lite.scatter_tile_mb_per_s", "MB/s", Higher),
    layer("h5lite.asyncq_us_per_op", "us", Lower),
    layer("h5lite.eventset_spawn_us", "us", Lower),
    layer("h5lite.close_ms", "ms", Lower),
    layer("h5lite.open_ms", "ms", Lower),
    layer("h5lite.scrub_mb_per_s", "MB/s", Higher),
    // predwrite (crates/core)
    layer("predwrite.plan_us", "us", Lower),
    layer("predwrite.reorder_us", "us", Lower),
    layer("predwrite.run_real_ms", "ms", Lower),
    layer("predwrite.compress_only_ms", "ms", Lower),
    layer("predwrite.write_only_ms", "ms", Lower),
    layer("predwrite.overlap_hidden_frac", "ratio", Higher),
    layer("predwrite.speedup_vs_filter", "ratio", Higher),
    layer("predwrite.speedup_vs_nocomp", "ratio", Higher),
    layer("predwrite.overflow_parts_per_step", "count", Lower),
    layer("predwrite.overflow_bytes_frac", "ratio", Lower),
    layer("predwrite.reservation_wire_bytes", "B", Lower),
    layer("predwrite.verify_mb_per_s", "MB/s", Higher),
    layer("predwrite.sim_steps_per_s", "1/s", Higher),
    // timeline
    layer("timeline.glue_ms_per_step", "ms", Lower),
    layer("timeline.step_ms_p90", "ms", Lower),
    layer("timeline.step_ms_max", "ms", Lower),
    layer("timeline.sidecar_save_ms", "ms", Lower),
    layer("timeline.sidecar_load_ms", "ms", Lower),
    layer("timeline.resume_ms", "ms", Lower),
    // workloads
    layer("workloads.snapshot_ms", "ms", Lower),
    layer("workloads.partition_ms", "ms", Lower),
    // obs
    layer("obs.disabled_span_ns", "ns", Lower),
    layer("obs.enabled_span_ns", "ns", Lower),
    layer("obs.flight_write_us", "us", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("obs.trace_events_per_step", "count", Lower),
    // reconciliation of the layers against the engine
    layer("recon.replay_over_engine", "ratio", Lower),
    layer("recon.unattributed_frac", "ratio", Lower),
];

/// Measured values of one run, checked against a definition list.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`. Panics on a second value for a name: a
    /// metric printed twice is a harness bug, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded twice (harness bug)"
        );
        self.0.push((name, value));
    }

    /// Value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Pair every definition with its value, in definition order. An
    /// unrecorded, undefined or non-finite value is an error: the
    /// result line must carry exactly the metrics `BENCHMARK.json`
    /// declares.
    pub fn checked(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        if let Some((n, _)) = self
            .0
            .iter()
            .find(|(n, _)| defs.iter().all(|d| d.name != *n))
        {
            return Err(format!("metric {n} is not declared"));
        }
        defs.iter()
            .map(|d| match self.get(d.name) {
                Some(v) if v.is_finite() => Ok((*d, v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", d.name)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

/// Failure accounting of one run: every step, dataset read and
/// verified field is one operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed share of the attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values print with every digit
/// `f64` holds.
pub fn result_json(ops: Ops, metrics: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_reject_missing_unknown_and_nonfinite() {
        let defs = &END_TO_END[..2];
        let mut v = Values::default();
        v.set("setup_s", 1.5);
        assert!(v.checked(defs).unwrap_err().contains("ckpt_mb_per_s"));
        v.set("ckpt_mb_per_s", f64::NAN);
        assert!(v.checked(defs).unwrap_err().contains("not finite"));
        let mut v = Values::default();
        v.set("setup_s", 1.5);
        v.set("ckpt_mb_per_s", 2.0);
        let line = result_json(
            Ops {
                attempted: 3,
                failed: 0,
            },
            &v.checked(defs).unwrap(),
        );
        let j = obs::json::parse(&line).unwrap();
        assert_eq!(j.bool_of("correct"), Some(true));
        assert_eq!(j.num("attempted"), Some(3.0));
        let m = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.num("value"), Some(1.5));
        assert_eq!(m.str_of("unit"), Some("s"));
        v.set("bogus", 1.0);
        assert!(v.checked(defs).unwrap_err().contains("bogus"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }
}
