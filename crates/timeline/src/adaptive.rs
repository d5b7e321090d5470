//! The adaptive prediction source: offline models blended with the
//! online per-partition bias correction.
//!
//! [`OnlineSource`] implements [`predwrite::PredictionSource`], so the
//! real engine's predict phase transparently swaps from the static
//! offline models to history-corrected predictions with per-partition
//! adaptive headroom. The engine threads read it immutably during a
//! step; between steps the timeline engine feeds the step's
//! [`RunObservations`] back via [`OnlineSource::observe_run`].

use predwrite::{fold_observations, PredictionSource, RealError, RunObservations, SourceEstimate};
use ratiomodel::{EstimateScratch, Models, OnlineConfig, OnlinePredictor};
use szlite::{Config, Dims};

/// Streaming prediction source: one online cell per (rank, field).
#[derive(Debug, Clone)]
pub struct OnlineSource {
    models: Models,
    online: OnlinePredictor,
    nranks: usize,
    nfields: usize,
}

impl OnlineSource {
    /// Source tracking `nranks × nfields` partitions, banded per
    /// `cfg.band_scope` (see [`OnlinePredictor::for_stream`]).
    pub fn new(nranks: usize, nfields: usize, models: Models, cfg: OnlineConfig) -> Self {
        OnlineSource {
            models,
            online: OnlinePredictor::for_stream(nranks, nfields, cfg),
            nranks,
            nfields,
        }
    }

    /// Source resuming from a previously persisted predictor (e.g. a
    /// sidecar written by an earlier run). The predictor must track
    /// exactly `nranks × nfields` cells — a mismatch means the sidecar
    /// belongs to a differently shaped stream and must not be reused.
    pub fn with_predictor(
        nranks: usize,
        nfields: usize,
        models: Models,
        online: OnlinePredictor,
    ) -> Result<Self, String> {
        if online.n_cells() != nranks * nfields {
            return Err(format!(
                "online state tracks {} cells, stream shape is {nranks}×{nfields}",
                online.n_cells()
            ));
        }
        Ok(OnlineSource {
            models,
            online,
            nranks,
            nfields,
        })
    }

    /// Ranks tracked.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Fields tracked per rank.
    pub fn nfields(&self) -> usize {
        self.nfields
    }

    /// The underlying online predictor (error statistics live here).
    pub fn predictor(&self) -> &OnlinePredictor {
        &self.online
    }

    fn cell(&self, rank: usize, field: usize) -> usize {
        rank * self.nfields + field
    }

    /// Fold one completed step's observations into every cell.
    pub fn observe_run(&mut self, obs: &RunObservations) {
        assert_eq!(obs.len(), self.nranks, "observation rank count changed");
        assert!(
            obs.iter().all(|row| row.len() == self.nfields),
            "observation field count changed"
        );
        fold_observations(&mut self.online, obs);
    }
}

impl PredictionSource for OnlineSource {
    fn estimate(
        &self,
        rank: usize,
        field: usize,
        data: &[f32],
        dims: &Dims,
        cfg: &Config,
        scratch: &mut EstimateScratch,
    ) -> Result<SourceEstimate, RealError> {
        let est = ratiomodel::estimate_partition_with(data, dims, cfg, &self.models, scratch)?;
        let p = self.online.predict(self.cell(rank, field), est.bytes);
        let raw_bytes = (data.len() * 4) as f64;
        // The blend rescales the predicted size; write time scales
        // with it, compression time does not (it depends on the data,
        // not on what we predict about it).
        let scale = p.bytes as f64 / est.bytes.max(1) as f64;
        Ok(SourceEstimate {
            bytes: p.bytes,
            ratio: raw_bytes / p.bytes.max(1) as f64,
            comp_time: est.comp_time,
            write_time: est.write_time * scale,
            model_bytes: est.bytes,
            headroom: p.headroom,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predwrite::FieldObservation;
    use ratiomodel::BandScope;

    #[test]
    fn observations_feed_the_right_cells() {
        let mut src = OnlineSource::new(2, 3, Models::with_cthr(40e6), OnlineConfig::default());
        let obs: RunObservations = (0..2)
            .map(|r| {
                (0..3)
                    .map(|f| FieldObservation {
                        predicted: 1000,
                        model_bytes: 1000,
                        reserved: 1250,
                        actual: 1000 + (r * 3 + f) as u64,
                        overflow: 0,
                    })
                    .collect()
            })
            .collect();
        src.observe_run(&obs);
        for r in 0..2 {
            for f in 0..3 {
                let st = src.predictor().stats(r * 3 + f);
                assert_eq!(st.n_obs, 1);
                assert_eq!(st.last_observed, 1000 + (r * 3 + f) as u64);
            }
        }
    }

    #[test]
    fn field_scope_creates_one_band_group_per_field() {
        let cfg = OnlineConfig {
            band_scope: BandScope::Field,
            ..OnlineConfig::default()
        };
        let src = OnlineSource::new(4, 3, Models::with_cthr(40e6), cfg);
        assert_eq!(src.predictor().band_groups(), 3);
        assert_eq!(src.predictor().n_cells(), 12);
        let per_cell = OnlineSource::new(4, 3, Models::with_cthr(40e6), OnlineConfig::default());
        assert_eq!(per_cell.predictor().band_groups(), 0);
    }

    #[test]
    #[should_panic(expected = "rank count changed")]
    fn rejects_mismatched_observation_shape() {
        let mut src = OnlineSource::new(2, 3, Models::with_cthr(40e6), OnlineConfig::default());
        src.observe_run(&vec![vec![FieldObservation::default(); 3]]);
    }
}
