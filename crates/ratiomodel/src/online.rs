//! Online ratio-model adaptation for timestep streams.
//!
//! The offline-fitted models ([`crate::Models`]) are calibrated once
//! and reused for every run; over a checkpoint *stream* that leaves
//! history on the table: the per-partition ratios observed at timestep
//! *t* are an excellent predictor for timestep *t + 1*. This module
//! closes the loop at two units:
//!
//! * each tracked partition ("cell") keeps an EWMA of
//!   `observed / model` — the systematic error of the sampling-based
//!   model on *this* partition's data — and predictions blend the
//!   fresh offline estimate with that correction, ramping trust in
//!   over [`OnlineConfig::warmup`] observations;
//! * each rank keeps an EWMA of the relative error of its partitions'
//!   predicted *total*, which forms an **error band** from which the
//!   headroom of the rank's one reserved region is derived — tight
//!   when history is stable, wide after drift — with a hard floor
//!   guaranteeing the region never drops below the rank's last
//!   observed total. A rank's total is predicted several times better
//!   than any one of its fields, so the region needs a smaller cushion
//!   than per-partition slots would.
//!
//! The state is a pure fold over the observation sequence, so
//! streaming runs replay deterministically at any worker count.

/// Tunables of the online blend and adaptive headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// EWMA weight of the newest observation, in (0, 1].
    pub alpha: f64,
    /// Observations before the blend fully trusts history and the
    /// adaptive headroom activates (≥ 1; earlier reservations fall back
    /// to the engine's static policy).
    pub warmup: u64,
    /// Error-band multiplier: a rank's headroom is
    /// `1 + err_margin · ewma_err` of its predicted total.
    pub err_margin: f64,
    /// Floor on a rank's adapted headroom (keeps a minimum cushion on
    /// the rank's total even on perfectly stable history).
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
            min_headroom: 1.01,
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

/// The error-tracking state of one unit — a cell's or a rank's.
#[derive(Debug, Clone, Copy, Default)]
struct Band {
    /// EWMA of `|predicted − observed| / observed`.
    err: f64,
    /// Most recent observed compressed size, bytes.
    last_observed: u64,
    /// Observations folded in so far.
    n_obs: u64,
}

impl Band {
    /// Fold in one `(predicted, observed)` pair with EWMA weight `a`.
    fn observe(&mut self, a: f64, predicted: u64, observed: u64) {
        let obs = observed.max(1) as f64;
        // The clamp keeps a degenerate observation (corrupt sizes) from
        // poisoning the EWMA with inf.
        let e = ((predicted.max(1) as f64 - obs).abs() / obs).min(10.0);
        self.err = if self.n_obs == 0 {
            e
        } else {
            (1.0 - a) * self.err + a * e
        };
        self.last_observed = observed;
        self.n_obs += 1;
    }

    /// Serialized as one `f64` and two varints.
    fn put(&self, out: &mut Vec<u8>) {
        szlite::stream::put_f64(out, self.err);
        szlite::stream::put_varint(out, self.last_observed);
        szlite::stream::put_varint(out, self.n_obs);
    }

    fn get(bytes: &[u8], pos: &mut usize) -> Result<Self, String> {
        use szlite::stream::{get_f64, get_varint};
        let truncated = |_| "online predictor state: truncated band".to_string();
        let err = get_f64(bytes, pos).map_err(truncated)?;
        let last_observed = get_varint(bytes, pos).map_err(truncated)?;
        let n_obs = get_varint(bytes, pos).map_err(truncated)?;
        if !err.is_finite() {
            return Err("online predictor state: non-finite band".into());
        }
        Ok(Band {
            err,
            last_observed,
            n_obs,
        })
    }
}

/// Least encoded size of a [`Band`]: one `f64`, two one-byte varints.
const BAND_MIN_BYTES: usize = 8 + 1 + 1;

/// Per-partition adaptation state.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// EWMA of `observed / model` (multiplicative model bias).
    correction: f64,
    /// The blended prediction's error history.
    band: Band,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            correction: 1.0,
            band: Band::default(),
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
}

/// Version byte of [`OnlinePredictor::to_state_bytes`]'s encoding.
const STATE_VERSION: u8 = 5;

/// Streaming predictor: offline model × per-partition online bias
/// correction, with adaptive per-rank extra-space headroom.
#[derive(Debug, Clone)]
pub struct OnlinePredictor {
    cfg: OnlineConfig,
    cells: Vec<Cell>,
    ranks: Vec<Band>,
}

impl OnlinePredictor {
    /// Predictor tracking `n_cells` partitions (callers index cells
    /// however they like), each with its own bias correction, and no
    /// rank: [`OnlinePredictor::region_headroom`] is for the predictor
    /// of a stream ([`OnlinePredictor::for_stream`]).
    pub fn new(n_cells: usize, cfg: OnlineConfig) -> Self {
        OnlinePredictor {
            cfg: cfg.sanitized(),
            cells: vec![Cell::default(); n_cells],
            ranks: Vec::new(),
        }
    }

    /// Predictor of an `nranks × nfields` checkpoint stream: cell
    /// `rank · nfields + field` per partition, plus one error band per
    /// rank.
    pub fn for_stream(nranks: usize, nfields: usize, cfg: OnlineConfig) -> Self {
        OnlinePredictor {
            ranks: vec![Band::default(); nranks],
            ..OnlinePredictor::new(nranks * nfields, cfg)
        }
    }

    /// Number of tracked cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of tracked ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
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
        let w = (c.band.n_obs as f64 / self.cfg.warmup as f64).min(1.0);
        let corr = 1.0 + w * (c.correction - 1.0);
        OnlinePrediction {
            bytes: ((model as f64 * corr).ceil() as u64).max(1),
        }
    }

    /// The headroom of rank `rank`'s region when its partitions are
    /// predicted at `predicted` bytes in total: the rank's error band
    /// `1 + err_margin · ewma_err` within `[min_headroom, 1.43]`,
    /// raised to the rank's last observed total where that is more,
    /// so that `ceil(predicted · h) ≥ last_observed`. `None` during
    /// warm-up (the caller falls back to its static policy).
    pub fn region_headroom(&self, rank: usize, predicted: u64) -> Option<f64> {
        let b = &self.ranks[rank];
        let band = (1.0 + self.cfg.err_margin * b.err)
            .min(MAX_HEADROOM)
            .max(self.cfg.min_headroom);
        (b.n_obs >= self.cfg.warmup)
            .then(|| band.max(b.last_observed as f64 / predicted.max(1) as f64))
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
        let a = self.cfg.alpha;
        let c = &mut self.cells[cell];
        // The clamp keeps a zero model from poisoning the EWMA.
        let g = (observed_bytes.max(1) as f64 / model_bytes.max(1) as f64).clamp(1e-3, 1e3);
        c.correction = if c.band.n_obs == 0 {
            g
        } else {
            (1.0 - a) * c.correction + a * g
        };
        c.band.observe(a, predicted_bytes, observed_bytes);
    }

    /// Fold in one step of rank `rank`: its partitions were predicted
    /// at `predicted` bytes in total and came out `observed` bytes.
    pub fn observe_rank(&mut self, rank: usize, predicted: u64, observed: u64) {
        let a = self.cfg.alpha;
        self.ranks[rank].observe(a, predicted, observed);
    }

    /// Statistics of one cell.
    pub fn stats(&self, cell: usize) -> CellStats {
        let c = &self.cells[cell];
        CellStats {
            correction: c.correction,
            rel_err: c.band.err,
            last_observed: c.band.last_observed,
            n_obs: c.band.n_obs,
        }
    }

    /// Serialize the full adaptation state (config, every rank, every
    /// cell) to a compact byte stream — the payload of the timeline's
    /// per-step sidecar, so a restarted stream resumes with warmed
    /// predictions instead of re-running warm-up. Framing (magic,
    /// checksum) is the caller's job.
    pub fn to_state_bytes(&self) -> Vec<u8> {
        use szlite::stream::{put_f64, put_varint};
        let mut out = Vec::with_capacity(40 + (self.cells.len() + self.ranks.len()) * 24);
        out.push(STATE_VERSION);
        put_f64(&mut out, self.cfg.alpha);
        put_varint(&mut out, self.cfg.warmup);
        put_f64(&mut out, self.cfg.err_margin);
        put_f64(&mut out, self.cfg.min_headroom);
        put_varint(&mut out, self.ranks.len() as u64);
        for b in &self.ranks {
            b.put(&mut out);
        }
        put_varint(&mut out, self.cells.len() as u64);
        for c in &self.cells {
            put_f64(&mut out, c.correction);
            c.band.put(&mut out);
        }
        out
    }

    /// Rebuild a predictor from [`OnlinePredictor::to_state_bytes`]
    /// output. The config is re-sanitized on load, so a state written
    /// with wider ranges still comes up safe. A state of another
    /// version is refused.
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
        // A count the bytes left cannot hold at `least` bytes a record
        // is refused before it sizes anything.
        let count = |pos: &mut usize, what: &str, least: usize| {
            let n = get_varint(bytes, pos).map_err(|_| err(what))?;
            let room = (bytes.len() - *pos) / least;
            usize::try_from(n)
                .ok()
                .filter(|&n| n <= room)
                .ok_or(format!("online predictor state: implausible {what}"))
        };
        let n = count(&mut pos, "rank count", BAND_MIN_BYTES)?;
        let mut ranks = Vec::with_capacity(n);
        for _ in 0..n {
            ranks.push(Band::get(bytes, &mut pos)?);
        }
        // A cell is a correction `f64` before its band.
        let n = count(&mut pos, "cell count", 8 + BAND_MIN_BYTES)?;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            let correction = get_f64(bytes, &mut pos).map_err(|_| err("cell"))?;
            if !correction.is_finite() {
                return Err("online predictor state: non-finite cell".into());
            }
            let band = Band::get(bytes, &mut pos)?;
            cells.push(Cell { correction, band });
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
            ranks,
        })
    }

    /// Mean EWMA relative error over cells with history (0 when none
    /// has observed anything yet) — the stream-level stability signal.
    pub fn mean_rel_err(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for c in &self.cells {
            if c.band.n_obs > 0 {
                sum += c.band.err;
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

    /// A stream predictor whose rank 0 has seen `totals` as its
    /// (predicted, observed) totals.
    fn rank_history(cfg: OnlineConfig, totals: &[(u64, u64)]) -> OnlinePredictor {
        let mut p = OnlinePredictor::for_stream(2, 3, cfg);
        for &(predicted, observed) in totals {
            p.observe_rank(0, predicted, observed);
        }
        p
    }

    #[test]
    fn warmup_falls_back_to_static_policy() {
        let mut p = OnlinePredictor::for_stream(1, 1, OnlineConfig::default());
        assert_eq!(p.predict(0, 1000).bytes, 1000, "no history: pure model");
        assert!(p.region_headroom(0, 1000).is_none(), "no history");
        p.observe(0, 1000, 1000, 1200);
        p.observe_rank(0, 1000, 1200);
        assert!(p.region_headroom(0, 1000).is_none(), "1 obs < warmup 2");
        p.observe(0, 1000, 1000, 1200);
        p.observe_rank(0, 1000, 1200);
        assert!(p.region_headroom(0, 1000).is_some(), "warmed up");
    }

    #[test]
    fn stationary_stream_converges_to_observed() {
        let mut p = OnlinePredictor::for_stream(1, 1, OnlineConfig::default());
        for _ in 0..12 {
            let pr = p.predict(0, 1000);
            p.observe(0, 1000, pr.bytes, 1300);
            p.observe_rank(0, pr.bytes, 1300);
        }
        let pr = p.predict(0, 1000);
        assert!(
            (pr.bytes as i64 - 1300).unsigned_abs() <= 2,
            "got {}",
            pr.bytes
        );
        // Stable history → error band collapses to the floor.
        let h = p.region_headroom(0, pr.bytes).unwrap();
        assert!(h <= 1.02, "headroom {h} should be near min");
    }

    #[test]
    fn misprediction_widens_then_recovers() {
        let mut p = rank_history(OnlineConfig::default(), &[(1000, 1000); 4]);
        let calm = p.region_headroom(0, 1000).unwrap();
        assert_eq!(calm, 1.01, "the floor on exact history");
        // A 60 % spike of the rank's total: the next headroom must
        // widen and the region must cover the spike's observed size.
        p.observe_rank(0, 1000, 1600);
        let h = p.region_headroom(0, 1000).unwrap();
        assert!(h > calm, "after drift {h} must exceed calm {calm}");
        assert!(
            (1000.0 * h).ceil() as u64 >= 1600,
            "region below last total"
        );
        // Exact totals from then on: the band decays back to the floor.
        for _ in 0..40 {
            p.observe_rank(0, 1000, 1000);
        }
        assert_eq!(p.region_headroom(0, 1000), Some(calm));
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let mut p = OnlinePredictor::for_stream(
            1,
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
        p.observe_rank(0, 0, 0);
        p.observe_rank(0, 1, u64::MAX);
        assert!(p.predict(0, 0).bytes >= 1);
        let h = p.region_headroom(0, 0).unwrap();
        assert!(h.is_finite() && h >= 1.0);
    }

    #[test]
    fn state_roundtrips_exactly() {
        let mut p = OnlinePredictor::for_stream(2, 3, OnlineConfig::default());
        for step in 0..5u64 {
            for cell in 0..6 {
                let pr = p.predict(cell, 1000 + cell as u64 * 37);
                p.observe(cell, 1000, pr.bytes, 900 + step * 50 + cell as u64);
            }
            p.observe_rank(1, 3000, 2950 + step);
        }
        let bytes = p.to_state_bytes();
        let q = OnlinePredictor::from_state_bytes(&bytes).unwrap();
        assert_eq!((q.n_cells(), q.n_ranks()), (6, 2));
        assert_eq!(q.config(), p.config());
        for cell in 0..6 {
            assert_eq!(q.stats(cell), p.stats(cell), "cell {cell}");
            // Bit-identical state must yield bit-identical predictions.
            assert_eq!(q.predict(cell, 1234), p.predict(cell, 1234));
        }
        for rank in 0..2 {
            assert_eq!(q.region_headroom(rank, 2900), p.region_headroom(rank, 2900));
        }
        assert!(q.region_headroom(1, 2900).is_some());
    }

    #[test]
    fn corrupt_state_rejected() {
        let p = OnlinePredictor::for_stream(2, 1, OnlineConfig::default());
        let bytes = p.to_state_bytes();
        assert!(OnlinePredictor::from_state_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(OnlinePredictor::from_state_bytes(&[]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(OnlinePredictor::from_state_bytes(&trailing).is_err());
        // Any other version is refused, the one before this too.
        for version in [4, 99] {
            let mut vers = bytes.clone();
            vers[0] = version;
            let e = OnlinePredictor::from_state_bytes(&vers).unwrap_err();
            assert!(e.contains("unsupported version"), "{e}");
        }
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
        // So is a rank count: the state of 1 rank claiming a billion.
        let bytes = OnlinePredictor::for_stream(1, 0, OnlineConfig::default()).to_state_bytes();
        let (head, rest) = bytes.split_at(bytes.len() - 10 - 1 - 1);
        assert_eq!(rest[0], 1);
        let mut forged = head.to_vec();
        szlite::stream::put_varint(&mut forged, 1 << 30);
        forged.extend_from_slice(&rest[1..]);
        let e = OnlinePredictor::from_state_bytes(&forged).unwrap_err();
        assert_eq!(e, "online predictor state: implausible rank count");
    }

    #[test]
    fn warmup_and_floor_are_per_rank() {
        let mut p = rank_history(OnlineConfig::default(), &[(1000, 1500); 2]);
        // Only rank 0 has history: rank 1, still in warm-up, must keep
        // reporting no headroom.
        assert!(p.region_headroom(0, 1000).is_some());
        assert!(
            p.region_headroom(1, 1000).is_none(),
            "rank 1 is unwarmed; rank 0's history must not unlock it"
        );
        // So is the last-observed floor: rank 0's region covers its own
        // spike whatever its fields are now predicted at.
        let h = p.region_headroom(0, 100).unwrap();
        assert!(
            (100.0 * h).ceil() as u64 >= 1500,
            "region must cover rank 0's last observed total"
        );
        // Cells are not ranks: folding a cell leaves every band alone.
        p.observe(0, 1000, 1000, 9000);
        assert_eq!(p.region_headroom(1, 1000), None);
    }

    #[test]
    fn mean_rel_err_ignores_untouched_cells() {
        let mut p = OnlinePredictor::new(3, OnlineConfig::default());
        assert_eq!(p.mean_rel_err(), 0.0);
        p.observe(1, 1000, 1000, 1500); // rel err 500/1500 = 1/3
        assert!((p.mean_rel_err() - 1.0 / 3.0).abs() < 1e-12);
    }
}
