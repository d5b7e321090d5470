//! Crash-mid-step recovery: restart a checkpoint stream from what
//! survives on disk.
//!
//! A stream killed mid-step leaves the step directory in one of a few
//! shapes: the newest container may be torn (created but never
//! closed, so its superblock is still zeroed), bit-flipped, truncated,
//! or fine but missing its predictor sidecar. [`resume_timeline`]
//! classifies all of it with the container scrubber
//! ([`h5lite::scrub`]), quarantines anything damaged, picks the first
//! step that needs (re)writing, reloads the newest valid sidecar so
//! adaptation history survives the crash, and hands off to
//! [`run_timeline_resumed`] to keep streaming.
//!
//! Recovery only trusts what it can verify: a chunk is only accepted
//! when its recorded CRC32C matches, a sidecar only when its framing
//! checksum and shape check out, and (with [`TimelineConfig::verify`])
//! every surviving step is additionally decoded and bound-checked
//! against the original data before it is allowed to stand.

use crate::engine::{run_timeline_resumed, AdaptMode, TimelineConfig};
use crate::sidecar;
use h5lite::scrub::{quarantine, scrub};
use h5lite::H5Reader;
use predwrite::{verify_file, RankFieldData, RealError, TimelineReport};
use std::path::PathBuf;

/// What [`resume_timeline`] found and did.
#[derive(Debug)]
pub struct ResumeReport {
    /// Steps whose containers scrubbed clean (CRC-verified) and, when
    /// verification is on, decoded within bound. These are kept as-is.
    pub surviving: Vec<usize>,
    /// Damaged containers moved aside as `<name>.quarantined`.
    pub quarantined: Vec<PathBuf>,
    /// First step the resumed stream (re)writes.
    pub resume_from: usize,
    /// Step whose sidecar seeded the resumed predictor (`None` =
    /// static mode, no usable sidecar, or nothing survived).
    pub sidecar_step: Option<usize>,
    /// Metrics of the resumed tail (`steps[0]` is `resume_from`).
    pub report: TimelineReport,
}

/// Scan `cfg.dir`, quarantine damaged step containers, and resume the
/// stream from the first missing or damaged step. Expects the stream
/// to have been running with [`TimelineConfig::keep_files`] (rotating
/// streams leave nothing to recover).
///
/// `step_data` must regenerate the same per-step data the original
/// run used — surviving steps are (optionally) re-verified against
/// it, and the resumed tail is written from it.
pub fn resume_timeline<F, D>(
    cfg: &TimelineConfig,
    mut step_data: F,
) -> Result<ResumeReport, RealError>
where
    F: FnMut(usize) -> D,
    D: std::borrow::Borrow<Vec<Vec<RankFieldData>>>,
{
    let mut surviving = Vec::new();
    let mut quarantined = Vec::new();
    let mut resume_from = cfg.steps;
    for step in 0..cfg.steps {
        let path = cfg.step_path(step);
        if !path.exists() {
            resume_from = resume_from.min(step);
            continue;
        }
        let report = scrub(&path)
            .map_err(|e| RealError::context(format!("resume: scrub {}", path.display()), e))?;
        if !report.is_clean() {
            let dest = quarantine(&path).map_err(|e| {
                RealError::context(format!("resume: quarantine {}", path.display()), e)
            })?;
            quarantined.push(dest);
            resume_from = resume_from.min(step);
            continue;
        }
        if resume_from == cfg.steps {
            surviving.push(step);
        }
        // Clean steps after a gap are simply overwritten by the
        // resumed stream; only the contiguous clean prefix survives.
    }
    resume_from = resume_from.min(cfg.steps);

    // Decode-within-bound check on every surviving step: a checksum
    // can only prove the bytes are what the writer recorded, not that
    // the writer finished the step coherently. Any step that fails is
    // quarantined and the stream restarts from it.
    if cfg.verify {
        let mut verified_up_to = surviving.len();
        for (i, &step) in surviving.iter().enumerate() {
            let data = step_data(step);
            let ok = verify_file(
                &cfg.step_path(step),
                data.borrow(),
                Some(&cfg.configs),
                cfg.sz_threads,
            )
            .map(|r| r.ok())
            .unwrap_or(false);
            if !ok {
                let dest = quarantine(cfg.step_path(step)).map_err(|e| {
                    RealError::context(format!("resume: quarantine step {step}"), e)
                })?;
                quarantined.push(dest);
                verified_up_to = i;
                break;
            }
        }
        if verified_up_to < surviving.len() {
            resume_from = surviving[verified_up_to];
            surviving.truncate(verified_up_to);
        }
    }

    // Reload adaptation history from the newest valid sidecar of this
    // stream's shape among the surviving steps. A missing, damaged or
    // foreign sidecar just falls back to the next-older one, and
    // finally to a cold start — the predictor re-converges within a
    // couple of steps either way. The shape is read from the scrubbed
    // container beside the sidecar: a dataset per field, a chunk per
    // rank.
    let shape_of = |step: usize| -> Option<(usize, usize)> {
        let reader = H5Reader::open(cfg.step_path(step)).ok()?;
        let names = reader.names();
        let nranks = reader.meta(names.first()?).ok()?.n_chunks();
        Some((usize::try_from(nranks).ok()?, names.len()))
    };
    let (sidecar_step, online) = surviving
        .iter()
        .rev()
        .filter(|_| matches!(cfg.mode, AdaptMode::Adaptive(_)))
        .find_map(|&step| {
            let (nranks, nfields, predictor) =
                sidecar::load_sidecar(&cfg.sidecar_path(step)).ok()?;
            (shape_of(step)? == (nranks, nfields)).then_some((step, predictor))
        })
        .unzip();

    let report = run_timeline_resumed(cfg, resume_from, online, step_data)?;
    Ok(ResumeReport {
        surviving,
        quarantined,
        resume_from,
        sidecar_step,
        report,
    })
}
