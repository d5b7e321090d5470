//! Read-back verification: the decode half of the engine's round trip.
//!
//! A write-side pipeline is only trustworthy if what landed on disk
//! decodes back within the configured error bound. This module
//! re-opens the file produced by [`run_real`](crate::real::run_real),
//! decompresses every field through the *pipelined* reader
//! ([`h5lite::H5Reader::read_pipelined`], each rank's slab decoded by
//! its worker straight into the one `Vec<f32>`) and checks each element
//! against its partition's resolved bound — the same resolution rule
//! the compressor used (value-range-relative bounds resolve against
//! each rank's finite min/max). Each worker decodes through szlite's
//! table-driven entropy path (LUT Huffman over the word-buffered bit
//! reader, via the recycled `DecompressScratch` in its
//! `FilterScratch`), so the verification phase rides every read-side
//! speedup automatically.
//!
//! It runs standalone (any written file plus the original in-memory
//! partitions) or as the opt-in `verify` phase of a real run
//! ([`RealConfig::verify`](crate::real::RealConfig)), where its wall
//! clock lands in [`Breakdown::verify`](crate::metrics::Breakdown).

use crate::real::{RankFieldData, RealError};
use h5lite::H5Reader;
use std::path::Path;
use szlite::Config;

/// Per-field outcome of a verification pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldReport {
    /// Dataset path in the file.
    pub name: String,
    /// Elements checked across all ranks.
    pub n_points: usize,
    /// Worst observed |original − restored| over finite points.
    pub max_abs_err: f64,
    /// Largest resolved per-rank bound the field was checked against
    /// (0 for lossless runs, where equality is required).
    pub max_bound: f64,
    /// Whether every element honored its bound.
    pub ok: bool,
}

/// Outcome of a verification pass over a whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// One report per field, in field order.
    pub fields: Vec<FieldReport>,
}

impl VerifyReport {
    /// True when every field verified clean.
    pub fn ok(&self) -> bool {
        self.fields.iter().all(|f| f.ok)
    }

    /// Total elements checked.
    pub fn n_points(&self) -> usize {
        self.fields.iter().map(|f| f.n_points).sum()
    }
}

/// Resolve the absolute bound a rank's partition was compressed under
/// — literally the compressor's own resolution rule
/// ([`szlite::ErrorBound::resolve_for`]), so the check can never
/// drift from what the stream was produced with.
fn resolve_bound(cfg: &Config, data: &[f32]) -> Result<f64, RealError> {
    cfg.error_bound
        .resolve_for(data)
        .map_err(|e| RealError::context("verify", e))
}

/// Verify one element against its bound. Non-finite originals must
/// round-trip bit-exactly (the compressor stores them verbatim).
#[inline]
fn element_ok(orig: f32, restored: f32, eb: f64) -> bool {
    if orig.is_finite() {
        (f64::from(orig) - f64::from(restored)).abs() <= eb
    } else {
        orig.to_bits() == restored.to_bits()
    }
}

/// Re-open `path`, decode every field with the pipelined reader at
/// `workers` threads and check every element of every rank partition
/// against its resolved bound.
///
/// `configs` carries one compression [`Config`] per field; pass `None`
/// for a no-compression run, which demands exact equality instead.
/// Returns the per-field report; decoding failures (unreadable file,
/// shape mismatch) surface as [`RealError`], while bound violations
/// are recorded in the report (`ok = false`) for the caller to act on.
pub fn verify_file(
    path: &Path,
    data: &[Vec<RankFieldData>],
    configs: Option<&[Config]>,
    workers: usize,
) -> Result<VerifyReport, RealError> {
    let reader = H5Reader::open(path)?;
    let nranks = data.len();
    let nfields = data.first().map_or(0, Vec::len);
    // The standalone entry point cannot rely on run_real's input
    // validation: reject ragged shapes up front instead of panicking.
    for (r, rank_fields) in data.iter().enumerate() {
        if rank_fields.len() != nfields {
            return Err(RealError::Shape(format!(
                "verify: rank {r} has {} fields, expected {nfields}",
                rank_fields.len()
            )));
        }
    }
    if let Some(cfgs) = configs {
        if cfgs.len() != nfields {
            return Err(RealError::Shape(format!(
                "verify: {} configs for {nfields} fields",
                cfgs.len()
            )));
        }
    }
    let mut fields = Vec::with_capacity(nfields);
    for f in 0..nfields {
        let name = &data[0][f].name;
        let restored = reader
            .read_pipelined::<f32>(name, workers)
            .map_err(|e| RealError::context(format!("verify {name}"), e))?;
        let part_len = data[0][f].data.len();
        if restored.len() != part_len * nranks {
            return Err(RealError::Shape(format!(
                "verify {name}: decoded {} points, expected {}",
                restored.len(),
                part_len * nranks
            )));
        }
        let mut max_abs_err = 0.0f64;
        let mut max_bound = 0.0f64;
        let mut ok = true;
        for (r, rank_fields) in data.iter().enumerate() {
            let orig = &rank_fields[f].data;
            if orig.len() != part_len {
                return Err(RealError::Shape(format!(
                    "verify {name}: rank {r} partition has {} points, expected {part_len}",
                    orig.len()
                )));
            }
            let chunk = &restored[r * part_len..(r + 1) * part_len];
            let eb = match configs {
                Some(cfgs) => resolve_bound(&cfgs[f], orig)?,
                None => 0.0,
            };
            max_bound = max_bound.max(eb);
            for (&a, &b) in orig.iter().zip(chunk) {
                let good = element_ok(a, b, eb);
                if a.is_finite() {
                    let d = (f64::from(a) - f64::from(b)).abs();
                    // A NaN restore of a finite original would vanish
                    // under f64::max; report it as an infinite error so
                    // the failure message stays truthful.
                    max_abs_err = if d.is_nan() {
                        f64::INFINITY
                    } else {
                        max_abs_err.max(d)
                    };
                } else if !good {
                    max_abs_err = f64::INFINITY;
                }
                ok &= good;
            }
        }
        fields.push(FieldReport {
            name: name.clone(),
            n_points: part_len * nranks,
            max_abs_err,
            max_bound,
            ok,
        });
    }
    Ok(VerifyReport { fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_check_handles_nonfinite() {
        assert!(element_ok(1.0, 1.0005, 1e-3));
        assert!(!element_ok(1.0, 1.1, 1e-3));
        assert!(element_ok(f32::NAN, f32::NAN, 0.0));
        assert!(element_ok(f32::INFINITY, f32::INFINITY, 0.0));
        assert!(!element_ok(f32::INFINITY, f32::NEG_INFINITY, 0.0));
        assert!(!element_ok(f32::NAN, 0.0, 1e9));
    }

    #[test]
    fn bound_resolution_matches_compressor() {
        // Relative bounds resolve against the finite range; absolute
        // bounds pass through; all-NaN partitions use the constant
        // fallback (range 0 → |min|.max(1) scaling).
        let data = vec![-1.0f32, 3.0, f32::NAN];
        let eb = resolve_bound(&Config::rel(1e-2), &data).unwrap();
        assert!((eb - 0.04).abs() < 1e-12);
        let eb = resolve_bound(&Config::abs(0.5), &data).unwrap();
        assert!((eb - 0.5).abs() < 1e-12);
        let all_nan = vec![f32::NAN; 4];
        assert!(resolve_bound(&Config::rel(1e-2), &all_nan).unwrap() > 0.0);
    }
}
