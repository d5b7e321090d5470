//! Online ratio-model adaptation for timestep streams.
//!
//! The offline-fitted models ([`crate::Models`]) are calibrated once
//! and reused for every run; over a checkpoint *stream* that leaves
//! history on the table: the per-partition ratios observed at timestep
//! *t* are an excellent predictor for timestep *t + 1*. This module
//! closes the loop with a per-partition multiplicative bias
//! correction:
//!
//! * each tracked partition ("cell") keeps an EWMA of
//!   `observed / model` — the systematic error of the sampling-based
//!   model on *this* partition's data;
//! * predictions blend the fresh offline estimate with that
//!   correction, ramping trust in over [`OnlineConfig::warmup`]
//!   observations;
//! * an EWMA of the blended prediction's relative error forms an
//!   **error band** from which a per-partition extra-space headroom is
//!   derived — tight when history is stable, wide after drift — with a
//!   hard floor guaranteeing the reservation never drops below the
//!   partition's last observed size.
//!
//! The state is a pure fold over the observation sequence, so
//! streaming runs replay deterministically at any worker count.

/// Scope of the error band the adaptive headroom derives from.
///
/// The bias correction is always per-partition; the *band* (how much
/// cushion the error history justifies) can be shared. At thousands of
/// ranks a field's partitions compress near-identically, so pooling
/// their error statistics into one collective band per field converges
/// with far fewer per-cell observations and keeps headroom uniform
/// across a field's ranks — one outlier partition widens every
/// member's cushion instead of silently overflowing alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandScope {
    /// Each cell derives its band from its own EWMA error (the PR 4
    /// behavior).
    #[default]
    Partition,
    /// Cells are pooled per field (with `rank·nfields+field` cell
    /// indexing, by `cell % nfields`); each field's band is the running
    /// mean of its members' EWMA errors. Consumed by
    /// [`OnlinePredictor::for_stream`], which knows the field count.
    Field,
}

/// Tunables of the online blend and adaptive headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// EWMA weight of the newest observation, in (0, 1].
    pub alpha: f64,
    /// Observations before the blend fully trusts history and the
    /// adaptive headroom activates (≥ 1; earlier predictions fall back
    /// to the engine's static policy).
    pub warmup: u64,
    /// Error-band multiplier: headroom is `1 + err_margin · ewma_err`.
    pub err_margin: f64,
    /// Floor on the adapted headroom (keeps a minimum cushion even on
    /// perfectly stable history).
    pub min_headroom: f64,
    /// Cap on the error-band part of the headroom (the last-observed
    /// floor may exceed it — recovery from a misprediction takes
    /// precedence over the cap).
    pub max_headroom: f64,
    /// Whether bands are per-partition or pooled per group.
    pub band_scope: BandScope,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            alpha: 0.5,
            warmup: 2,
            err_margin: 4.0,
            min_headroom: 1.05,
            max_headroom: 1.43,
            band_scope: BandScope::Partition,
        }
    }
}

impl OnlineConfig {
    /// Copy with every field forced into its supported range.
    fn sanitized(self) -> Self {
        let min = self.min_headroom.max(1.0);
        OnlineConfig {
            alpha: if self.alpha.is_finite() {
                self.alpha.clamp(1e-3, 1.0)
            } else {
                0.5
            },
            warmup: self.warmup.max(1),
            err_margin: if self.err_margin.is_finite() {
                self.err_margin.max(0.0)
            } else {
                4.0
            },
            min_headroom: min,
            max_headroom: self.max_headroom.max(min),
            band_scope: self.band_scope,
        }
    }
}

/// Per-partition adaptation state.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// EWMA of `observed / model` (multiplicative model bias).
    correction: f64,
    /// EWMA of `|predicted − observed| / observed`.
    err: f64,
    /// Most recent observed compressed size, bytes.
    last_observed: u64,
    /// Observations folded in so far.
    n_obs: u64,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            correction: 1.0,
            err: 0.0,
            last_observed: 0,
            n_obs: 0,
        }
    }
}

/// Read-only view of one cell's statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Current EWMA bias correction (`observed / model`).
    pub correction: f64,
    /// Current EWMA relative prediction error.
    pub rel_err: f64,
    /// Last observed compressed size, bytes (0 before any observation).
    pub last_observed: u64,
    /// Observations folded in.
    pub n_obs: u64,
}

/// One blended prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePrediction {
    /// Blended predicted compressed size, bytes (≥ 1).
    pub bytes: u64,
    /// Adapted extra-space multiplier, or `None` during warm-up (the
    /// caller should fall back to its static policy). When present it
    /// satisfies `ceil(bytes · headroom) ≥ last_observed`.
    pub headroom: Option<f64>,
    /// The clamped error band the headroom was derived from (useful
    /// for reporting even during warm-up).
    pub band: f64,
}

/// Version byte of [`OnlinePredictor::to_state_bytes`]'s encoding.
const STATE_VERSION: u8 = 2;

/// Collective error-band accumulator of one cell group.
#[derive(Debug, Clone, Copy, Default)]
struct BandGroup {
    /// Running sum of the member cells' current EWMA errors (only
    /// members with history contribute; maintained incrementally on
    /// every observation and serialized verbatim, so restored
    /// predictors reproduce bit-identical bands).
    err_sum: f64,
    /// Members with at least one observation.
    n_active: u64,
}

/// Streaming per-partition predictor: offline model × online
/// bias correction, with adaptive extra-space headroom.
#[derive(Debug, Clone)]
pub struct OnlinePredictor {
    cfg: OnlineConfig,
    cells: Vec<Cell>,
    /// Collective band accumulators; empty = per-cell bands. Cell
    /// `c` belongs to group `c % groups.len()`.
    groups: Vec<BandGroup>,
}

impl OnlinePredictor {
    /// Predictor tracking `n_cells` partitions (callers index cells
    /// however they like, e.g. `rank · nfields + field`) with
    /// per-partition error bands.
    pub fn new(n_cells: usize, cfg: OnlineConfig) -> Self {
        OnlinePredictor {
            cfg: cfg.sanitized(),
            cells: vec![Cell::default(); n_cells],
            groups: Vec::new(),
        }
    }

    /// Predictor for a stream of `nranks × nfields` partitions, cells
    /// indexed `rank · nfields + field`, with the band scope
    /// `cfg.band_scope` asks for: per-cell bands
    /// ([`BandScope::Partition`], identical to
    /// [`OnlinePredictor::new`]) or one collective band per field
    /// pooled across its ranks ([`BandScope::Field`]). The one place
    /// the scope is turned into a layout — the simulated and the
    /// real-I/O stream both construct through it.
    pub fn for_stream(nranks: usize, nfields: usize, cfg: OnlineConfig) -> Self {
        let band_groups = match cfg.band_scope {
            BandScope::Partition => 0,
            BandScope::Field => nfields,
        };
        Self::with_band_groups(nranks * nfields, band_groups, cfg)
    }

    /// Predictor with **collective** error bands: cells are pooled
    /// into `band_groups` groups by `cell % band_groups`, and each
    /// group's band derives from the running mean of its members' EWMA
    /// errors instead of each cell's own. Bias corrections, warm-up
    /// gates and the last-observed reservation floor stay per-cell.
    /// `band_groups = 0` is per-cell banding.
    fn with_band_groups(n_cells: usize, band_groups: usize, cfg: OnlineConfig) -> Self {
        OnlinePredictor {
            cfg: cfg.sanitized(),
            cells: vec![Cell::default(); n_cells],
            groups: vec![BandGroup::default(); band_groups],
        }
    }

    /// Number of tracked cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of collective band groups (0 = per-cell bands).
    pub fn band_groups(&self) -> usize {
        self.groups.len()
    }

    /// The EWMA error feeding `cell`'s band: the cell's own error, or
    /// its group's running mean under collective banding.
    fn band_err(&self, cell: usize) -> f64 {
        if self.groups.is_empty() {
            return self.cells[cell].err;
        }
        let g = &self.groups[cell % self.groups.len()];
        if g.n_active == 0 {
            self.cells[cell].err
        } else {
            // The incremental sum can round a hair below zero once
            // members' errors shrink; the band is a cushion, clamp it.
            (g.err_sum / g.n_active as f64).max(0.0)
        }
    }

    /// The (sanitized) configuration in effect.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Blend the fresh offline estimate `model_bytes` with the cell's
    /// history. Always finite, never below 1 byte.
    pub fn predict(&self, cell: usize, model_bytes: u64) -> OnlinePrediction {
        let c = &self.cells[cell];
        let model = model_bytes.max(1);
        // Trust ramp: 0 with no history, 1 from `warmup` observations.
        let w = (c.n_obs as f64 / self.cfg.warmup as f64).min(1.0);
        let corr = 1.0 + w * (c.correction - 1.0);
        let bytes = ((model as f64 * corr).ceil() as u64).max(1);
        let band = (1.0 + self.cfg.err_margin * self.band_err(cell))
            .clamp(self.cfg.min_headroom, self.cfg.max_headroom);
        let headroom =
            (c.n_obs >= self.cfg.warmup).then(|| band.max(c.last_observed as f64 / bytes as f64));
        OnlinePrediction {
            bytes,
            headroom,
            band,
        }
    }

    /// Fold in one observation: `model_bytes` is the raw offline
    /// estimate, `predicted_bytes` the blended prediction that was
    /// planned with, `observed_bytes` the actual compressed size.
    pub fn observe(
        &mut self,
        cell: usize,
        model_bytes: u64,
        predicted_bytes: u64,
        observed_bytes: u64,
    ) {
        let old = self.cells[cell];
        let mut c = old;
        let obs = observed_bytes.max(1) as f64;
        // Clamps keep a degenerate observation (corrupt sizes, zero
        // model) from poisoning the EWMA with inf/NaN.
        let g = (obs / model_bytes.max(1) as f64).clamp(1e-3, 1e3);
        let e = ((predicted_bytes.max(1) as f64 - obs).abs() / obs).min(10.0);
        if c.n_obs == 0 {
            c.correction = g;
            c.err = e;
        } else {
            let a = self.cfg.alpha;
            c.correction = (1.0 - a) * c.correction + a * g;
            c.err = (1.0 - a) * c.err + a * e;
        }
        c.last_observed = observed_bytes;
        c.n_obs += 1;
        if !self.groups.is_empty() {
            // Keep the group's running Σ(member EWMA errors) in sync:
            // replace this cell's previous contribution with its new
            // one (first observation also activates the member).
            let gi = cell % self.groups.len();
            let grp = &mut self.groups[gi];
            if old.n_obs == 0 {
                grp.n_active += 1;
                grp.err_sum += c.err;
            } else {
                grp.err_sum += c.err - old.err;
            }
        }
        self.cells[cell] = c;
    }

    /// Statistics of one cell.
    pub fn stats(&self, cell: usize) -> CellStats {
        let c = &self.cells[cell];
        CellStats {
            correction: c.correction,
            rel_err: c.err,
            last_observed: c.last_observed,
            n_obs: c.n_obs,
        }
    }

    /// Serialize the full adaptation state (config + every cell) to a
    /// compact byte stream — the payload of the timeline's per-step
    /// sidecar, so a restarted stream resumes with warmed predictions
    /// instead of re-running warm-up. Framing (magic, checksum) is the
    /// caller's job.
    pub fn to_state_bytes(&self) -> Vec<u8> {
        use szlite::stream::{put_f64, put_varint};
        let mut out = Vec::with_capacity(24 + self.cells.len() * 24 + self.groups.len() * 10);
        out.push(STATE_VERSION);
        put_f64(&mut out, self.cfg.alpha);
        put_varint(&mut out, self.cfg.warmup);
        put_f64(&mut out, self.cfg.err_margin);
        put_f64(&mut out, self.cfg.min_headroom);
        put_f64(&mut out, self.cfg.max_headroom);
        out.push(match self.cfg.band_scope {
            BandScope::Partition => 0,
            BandScope::Field => 1,
        });
        put_varint(&mut out, self.cells.len() as u64);
        for c in &self.cells {
            put_f64(&mut out, c.correction);
            put_f64(&mut out, c.err);
            put_varint(&mut out, c.last_observed);
            put_varint(&mut out, c.n_obs);
        }
        // Group sums are stored verbatim (not re-derived from cells on
        // load): the incremental f64 accumulation order is part of the
        // state, so a resumed stream reproduces bit-identical bands.
        put_varint(&mut out, self.groups.len() as u64);
        for g in &self.groups {
            put_f64(&mut out, g.err_sum);
            put_varint(&mut out, g.n_active);
        }
        out
    }

    /// Rebuild a predictor from [`OnlinePredictor::to_state_bytes`]
    /// output. The config is re-sanitized on load, so a state written
    /// with wider ranges still comes up safe.
    pub fn from_state_bytes(bytes: &[u8]) -> Result<Self, String> {
        use szlite::stream::{get_f64, get_varint};
        let err = |what: &str| format!("online predictor state: truncated {what}");
        let mut pos = 0usize;
        let version = *bytes.first().ok_or_else(|| err("header"))?;
        if version != STATE_VERSION {
            return Err(format!(
                "online predictor state: unsupported version {version}"
            ));
        }
        pos += 1;
        let alpha = get_f64(bytes, &mut pos).map_err(|_| err("alpha"))?;
        let warmup = get_varint(bytes, &mut pos).map_err(|_| err("warmup"))?;
        let err_margin = get_f64(bytes, &mut pos).map_err(|_| err("err_margin"))?;
        let min_headroom = get_f64(bytes, &mut pos).map_err(|_| err("min_headroom"))?;
        let max_headroom = get_f64(bytes, &mut pos).map_err(|_| err("max_headroom"))?;
        let band_scope = match bytes.get(pos) {
            Some(0) => BandScope::Partition,
            Some(1) => BandScope::Field,
            Some(b) => {
                return Err(format!("online predictor state: unknown band scope {b}"));
            }
            None => return Err(err("band scope")),
        };
        pos += 1;
        let n = get_varint(bytes, &mut pos).map_err(|_| err("cell count"))? as usize;
        if n > 100_000_000 {
            return Err("online predictor state: implausible cell count".into());
        }
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            let correction = get_f64(bytes, &mut pos).map_err(|_| err("cell"))?;
            let cell_err = get_f64(bytes, &mut pos).map_err(|_| err("cell"))?;
            let last_observed = get_varint(bytes, &mut pos).map_err(|_| err("cell"))?;
            let n_obs = get_varint(bytes, &mut pos).map_err(|_| err("cell"))?;
            if !correction.is_finite() || !cell_err.is_finite() {
                return Err("online predictor state: non-finite cell".into());
            }
            cells.push(Cell {
                correction,
                err: cell_err,
                last_observed,
                n_obs,
            });
        }
        let ng = get_varint(bytes, &mut pos).map_err(|_| err("group count"))? as usize;
        if ng > n.max(1) {
            return Err("online predictor state: more groups than cells".into());
        }
        let mut groups = Vec::new();
        for _ in 0..ng {
            let err_sum = get_f64(bytes, &mut pos).map_err(|_| err("group"))?;
            let n_active = get_varint(bytes, &mut pos).map_err(|_| err("group"))?;
            if !err_sum.is_finite() || n_active > n as u64 {
                return Err("online predictor state: invalid group".into());
            }
            groups.push(BandGroup { err_sum, n_active });
        }
        if pos != bytes.len() {
            return Err("online predictor state: trailing bytes".into());
        }
        Ok(OnlinePredictor {
            cfg: OnlineConfig {
                alpha,
                warmup,
                err_margin,
                min_headroom,
                max_headroom,
                band_scope,
            }
            .sanitized(),
            cells,
            groups,
        })
    }

    /// Mean EWMA relative error over cells with history (0 when none
    /// has observed anything yet) — the stream-level stability signal.
    pub fn mean_rel_err(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for c in &self.cells {
            if c.n_obs > 0 {
                sum += c.err;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_falls_back_to_static_policy() {
        let mut p = OnlinePredictor::new(1, OnlineConfig::default());
        let pr = p.predict(0, 1000);
        assert_eq!(pr.bytes, 1000, "no history: pure model");
        assert!(pr.headroom.is_none(), "no history: static policy");
        p.observe(0, 1000, 1000, 1200);
        assert!(p.predict(0, 1000).headroom.is_none(), "1 obs < warmup 2");
        p.observe(0, 1000, 1000, 1200);
        assert!(p.predict(0, 1000).headroom.is_some(), "warmed up");
    }

    #[test]
    fn stationary_stream_converges_to_observed() {
        let mut p = OnlinePredictor::new(1, OnlineConfig::default());
        for _ in 0..6 {
            let pr = p.predict(0, 1000);
            p.observe(0, 1000, pr.bytes, 1300);
        }
        let pr = p.predict(0, 1000);
        assert!(
            (pr.bytes as i64 - 1300).unsigned_abs() <= 2,
            "got {}",
            pr.bytes
        );
        // Stable history → error band collapses to the floor.
        let h = pr.headroom.unwrap();
        assert!(h <= 1.06, "headroom {h} should be near min");
    }

    #[test]
    fn misprediction_widens_then_recovers() {
        let cfg = OnlineConfig::default();
        let mut p = OnlinePredictor::new(1, cfg);
        for _ in 0..4 {
            let pr = p.predict(0, 1000);
            p.observe(0, 1000, pr.bytes, 1000);
        }
        let calm = p.predict(0, 1000).headroom.unwrap();
        // A 60 % spike: the next headroom must widen and the reserve
        // must cover the spike's observed size.
        let pr = p.predict(0, 1000);
        p.observe(0, 1000, pr.bytes, 1600);
        let pr = p.predict(0, 1000);
        let h = pr.headroom.unwrap();
        assert!(h > calm, "after drift {h} must exceed calm {calm}");
        let reserve = (pr.bytes as f64 * h).ceil() as u64;
        assert!(reserve >= 1600, "reserve {reserve} below last observed");
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let mut p = OnlinePredictor::new(
            1,
            OnlineConfig {
                alpha: f64::NAN,
                warmup: 0,
                err_margin: f64::INFINITY,
                min_headroom: 0.0,
                max_headroom: 0.0,
                band_scope: BandScope::Partition,
            },
        );
        p.observe(0, 0, 0, 0);
        p.observe(0, u64::MAX, 1, u64::MAX);
        let pr = p.predict(0, 0);
        assert!(pr.bytes >= 1);
        assert!(pr.band.is_finite());
        if let Some(h) = pr.headroom {
            assert!(h.is_finite() && h >= 1.0);
        }
    }

    #[test]
    fn state_roundtrips_exactly() {
        let mut p = OnlinePredictor::new(6, OnlineConfig::default());
        for step in 0..5u64 {
            for cell in 0..6 {
                let pr = p.predict(cell, 1000 + cell as u64 * 37);
                p.observe(cell, 1000, pr.bytes, 900 + step * 50 + cell as u64);
            }
        }
        let bytes = p.to_state_bytes();
        let q = OnlinePredictor::from_state_bytes(&bytes).unwrap();
        assert_eq!(q.n_cells(), p.n_cells());
        assert_eq!(q.config(), p.config());
        for cell in 0..6 {
            assert_eq!(q.stats(cell), p.stats(cell), "cell {cell}");
            // Bit-identical state must yield bit-identical predictions.
            assert_eq!(q.predict(cell, 1234), p.predict(cell, 1234));
        }
    }

    #[test]
    fn corrupt_state_rejected() {
        let p = OnlinePredictor::new(2, OnlineConfig::default());
        let bytes = p.to_state_bytes();
        assert!(OnlinePredictor::from_state_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(OnlinePredictor::from_state_bytes(&[]).is_err());
        let mut vers = bytes.clone();
        vers[0] = 99;
        assert!(OnlinePredictor::from_state_bytes(&vers).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(OnlinePredictor::from_state_bytes(&trailing).is_err());
    }

    #[test]
    fn collective_band_pools_member_errors() {
        // 3 ranks × 2 fields, grouped per field. Field 0's ranks see
        // erratic sizes, field 1's are rock-stable; under collective
        // banding every rank of field 0 gets the widened band —
        // including rank 2, whose own history happens to be clean —
        // while field 1 stays at the floor.
        let nranks = 3;
        let nfields = 2;
        let mut p =
            OnlinePredictor::with_band_groups(nranks * nfields, nfields, OnlineConfig::default());
        assert_eq!(p.band_groups(), nfields);
        for step in 0..4u64 {
            for r in 0..nranks {
                // Field 0: ranks 0 and 1 oscillate ±40 %; rank 2 is
                // stable (its own error would justify a tight band).
                let f0_obs = if r < 2 {
                    if step % 2 == 0 {
                        1400
                    } else {
                        600
                    }
                } else {
                    1000
                };
                let cell0 = r * nfields;
                let pr = p.predict(cell0, 1000);
                p.observe(cell0, 1000, pr.bytes, f0_obs);
                // Field 1: perfectly stable everywhere.
                let cell1 = r * nfields + 1;
                let pr = p.predict(cell1, 2000);
                p.observe(cell1, 2000, pr.bytes, 2000);
            }
        }
        let stable_rank_f0 = p.predict(2 * nfields, 1000);
        let f1 = p.predict(2 * nfields + 1, 2000);
        assert!(
            stable_rank_f0.band > f1.band,
            "field 0's collective band {} must exceed stable field 1's {}",
            stable_rank_f0.band,
            f1.band
        );
        assert!(
            f1.band <= 1.06,
            "stable field must sit at the floor, got {}",
            f1.band
        );
        // Per-cell banding on the same history would give rank 2 of
        // field 0 a tight band — the pooled one must be wider.
        let mut q = OnlinePredictor::new(nranks * nfields, OnlineConfig::default());
        for step in 0..4u64 {
            for r in 0..nranks {
                let f0_obs = if r < 2 {
                    if step % 2 == 0 {
                        1400
                    } else {
                        600
                    }
                } else {
                    1000
                };
                let cell0 = r * nfields;
                let pr = q.predict(cell0, 1000);
                q.observe(cell0, 1000, pr.bytes, f0_obs);
            }
        }
        assert!(
            stable_rank_f0.band > q.predict(2 * nfields, 1000).band,
            "collective band must widen the stable member beyond its own"
        );
    }

    #[test]
    fn collective_band_keeps_per_cell_floor_and_warmup() {
        let mut p = OnlinePredictor::with_band_groups(4, 2, OnlineConfig::default());
        // Only cell 0 has history: cells still in warm-up must keep
        // reporting no headroom even though their group has a band.
        p.observe(0, 1000, 1000, 1500);
        p.observe(0, 1000, 1000, 1500);
        assert!(p.predict(0, 1000).headroom.is_some());
        assert!(
            p.predict(2, 1000).headroom.is_none(),
            "cell 2 is unwarmed; the group band must not unlock it"
        );
        // The last-observed floor stays per-cell: cell 0's reserve
        // covers its own spike regardless of the pooled band.
        let pr = p.predict(0, 100);
        let h = pr.headroom.unwrap();
        assert!(
            (pr.bytes as f64 * h).ceil() as u64 >= 1500,
            "reserve must cover cell 0's last observed size"
        );
    }

    #[test]
    fn grouped_state_roundtrips_exactly() {
        let mut p = OnlinePredictor::with_band_groups(
            6,
            3,
            OnlineConfig {
                band_scope: BandScope::Field,
                ..OnlineConfig::default()
            },
        );
        for step in 0..5u64 {
            for cell in 0..6 {
                let pr = p.predict(cell, 1000 + cell as u64 * 31);
                p.observe(cell, 1000, pr.bytes, 800 + step * 90 + cell as u64 * 13);
            }
        }
        let q = OnlinePredictor::from_state_bytes(&p.to_state_bytes()).unwrap();
        assert_eq!(q.band_groups(), 3);
        assert_eq!(q.config(), p.config());
        for cell in 0..6 {
            assert_eq!(q.stats(cell), p.stats(cell));
            assert_eq!(q.predict(cell, 4321), p.predict(cell, 4321), "cell {cell}");
        }
    }

    #[test]
    fn mean_rel_err_ignores_untouched_cells() {
        let mut p = OnlinePredictor::new(3, OnlineConfig::default());
        assert_eq!(p.mean_rel_err(), 0.0);
        p.observe(1, 1000, 1000, 1500); // rel err 500/1500 = 1/3
        assert!((p.mean_rel_err() - 1.0 / 3.0).abs() < 1e-12);
    }
}
