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
}

/// Cap on the error-band part of the headroom, unless `min_headroom`
/// is higher (the last-observed floor may exceed it — recovery from a
/// misprediction takes precedence over the cap).
const MAX_HEADROOM: f64 = 1.43;

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            alpha: 0.5,
            warmup: 2,
            err_margin: 4.0,
            min_headroom: 1.05,
        }
    }
}

impl OnlineConfig {
    /// Copy with every field forced into its supported range.
    fn sanitized(self) -> Self {
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
            min_headroom: self.min_headroom.max(1.0),
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
const STATE_VERSION: u8 = 4;

/// Streaming per-partition predictor: offline model × online
/// bias correction, with adaptive extra-space headroom.
#[derive(Debug, Clone)]
pub struct OnlinePredictor {
    cfg: OnlineConfig,
    cells: Vec<Cell>,
}

impl OnlinePredictor {
    /// Predictor tracking `n_cells` partitions (callers index cells
    /// however they like, e.g. `rank · nfields + field`), each with
    /// its own error band.
    pub fn new(n_cells: usize, cfg: OnlineConfig) -> Self {
        OnlinePredictor {
            cfg: cfg.sanitized(),
            cells: vec![Cell::default(); n_cells],
        }
    }

    /// Number of tracked cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
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
        let band = (1.0 + self.cfg.err_margin * c.err)
            .min(MAX_HEADROOM)
            .max(self.cfg.min_headroom);
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
        let mut c = self.cells[cell];
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
        let mut out = Vec::with_capacity(40 + self.cells.len() * 24);
        out.push(STATE_VERSION);
        put_f64(&mut out, self.cfg.alpha);
        put_varint(&mut out, self.cfg.warmup);
        put_f64(&mut out, self.cfg.err_margin);
        put_f64(&mut out, self.cfg.min_headroom);
        put_varint(&mut out, self.cells.len() as u64);
        for c in &self.cells {
            put_f64(&mut out, c.correction);
            put_f64(&mut out, c.err);
            put_varint(&mut out, c.last_observed);
            put_varint(&mut out, c.n_obs);
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
        let n = get_varint(bytes, &mut pos).map_err(|_| err("cell count"))?;
        // A cell is at least two `f64`s and two one-byte varints: a
        // count the bytes left cannot hold is refused before it sizes
        // anything.
        let room = (bytes.len() - pos) / (8 + 8 + 1 + 1);
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= room)
            .ok_or("online predictor state: implausible cell count")?;
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
        if pos != bytes.len() {
            return Err("online predictor state: trailing bytes".into());
        }
        Ok(OnlinePredictor {
            cfg: OnlineConfig {
                alpha,
                warmup,
                err_margin,
                min_headroom,
            }
            .sanitized(),
            cells,
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
    fn forged_cell_count_is_refused_before_it_sizes_anything() {
        // A fresh cell is 18 bytes (two `f64`s, two one-byte varints):
        // two of them follow the count. A count the rest cannot hold is
        // refused as such, not found truncated after a reservation of
        // 32 bytes a cell.
        let bytes = OnlinePredictor::new(2, OnlineConfig::default()).to_state_bytes();
        let (head, cells) = bytes.split_at(bytes.len() - 2 * 18 - 1);
        assert_eq!(cells[0], 2);
        for count in [2, 3, 100_000_000, 1_000_000_000_000, u64::MAX] {
            let mut forged = head.to_vec();
            szlite::stream::put_varint(&mut forged, count);
            forged.extend_from_slice(&cells[1..]);
            match OnlinePredictor::from_state_bytes(&forged) {
                Ok(p) => assert!(count == 2 && p.n_cells() == 2),
                Err(e) => assert_eq!(e, "online predictor state: implausible cell count"),
            }
        }
    }

    #[test]
    fn warmup_and_floor_are_per_cell() {
        let mut p = OnlinePredictor::new(4, OnlineConfig::default());
        // Only cell 0 has history: cells still in warm-up must keep
        // reporting no headroom.
        p.observe(0, 1000, 1000, 1500);
        p.observe(0, 1000, 1000, 1500);
        assert!(p.predict(0, 1000).headroom.is_some());
        assert!(
            p.predict(2, 1000).headroom.is_none(),
            "cell 2 is unwarmed; cell 0's history must not unlock it"
        );
        // So is the last-observed floor: cell 0's reserve covers its
        // own spike whatever the model now says.
        let pr = p.predict(0, 100);
        let h = pr.headroom.unwrap();
        assert!(
            (pr.bytes as f64 * h).ceil() as u64 >= 1500,
            "reserve must cover cell 0's last observed size"
        );
    }

    #[test]
    fn mean_rel_err_ignores_untouched_cells() {
        let mut p = OnlinePredictor::new(3, OnlineConfig::default());
        assert_eq!(p.mean_rel_err(), 0.0);
        p.observe(1, 1000, 1000, 1500); // rel err 500/1500 = 1/3
        assert!((p.mean_rel_err() - 1.0 / 3.0).abs() < 1e-12);
    }
}
