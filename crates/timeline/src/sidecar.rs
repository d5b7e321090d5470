//! Predictor-state sidecars: the online adaptation state persisted
//! beside each step's container.
//!
//! A crash between steps loses the [`ratiomodel::OnlinePredictor`]'s
//! accumulated history, which would force a resumed stream back
//! through warm-up with the static policy's wide reservations. The
//! timeline engine therefore snapshots the predictor after every
//! adaptive step into a tiny checksummed sidecar
//! (`step-NNNN.h5l.pred`), and [`crate::recovery::resume_timeline`]
//! reloads the newest valid one, so a resumed stream predicts — and
//! reserves — like the uninterrupted run within a step or two.
//!
//! Framing: `"TLSC"` magic, version byte, `nranks`/`nfields` varints,
//! payload length varint, the [`OnlinePredictor::to_state_bytes`]
//! payload, then a CRC32C over everything before it. A sidecar that
//! fails any of these checks is treated as absent (cold start), never
//! trusted partially.

use h5lite::crc32c;
use ratiomodel::OnlinePredictor;
use std::io::Write;
use std::path::{Path, PathBuf};
use szlite::stream::{get_varint, put_u32, put_varint};

/// Sidecar magic: "TLSC" (TimeLine SideCar).
const MAGIC: &[u8; 4] = b"TLSC";
/// Current sidecar framing version.
const VERSION: u8 = 1;

/// Sidecar path of a step container: `<container>.pred`.
pub fn sidecar_path(step_path: &Path) -> PathBuf {
    let mut name = step_path.file_name().unwrap_or_default().to_os_string();
    name.push(".pred");
    step_path.with_file_name(name)
}

/// Persist the predictor state beside a step container. The sidecar is
/// written to a temp file, synced, then renamed into place, so a crash
/// mid-save leaves either the old sidecar or none — never a torn one
/// that happens to pass partial parsing.
pub fn save_sidecar(
    path: &Path,
    nranks: usize,
    nfields: usize,
    predictor: &OnlinePredictor,
) -> std::io::Result<()> {
    let payload = predictor.to_state_bytes();
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, nranks as u64);
    put_varint(&mut out, nfields as u64);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let crc = crc32c(&out);
    put_u32(&mut out, crc);

    let tmp = path.with_extension("pred.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Load and validate a sidecar. Returns the stream shape it was saved
/// for and the reconstructed predictor; any framing, checksum or
/// payload defect is an `Err` (callers fall back to a cold start).
pub fn load_sidecar(path: &Path) -> Result<(usize, usize, OnlinePredictor), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("sidecar {}: {e}", path.display()))?;
    let err = |what: &str| format!("sidecar {}: {what}", path.display());
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(err("too short"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let recorded = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte tail"));
    let actual = crc32c(body);
    if recorded != actual {
        return Err(err(&format!(
            "checksum mismatch (recorded {recorded:#010x}, computed {actual:#010x})"
        )));
    }
    if &body[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    if body[4] != VERSION {
        return Err(err(&format!("unsupported version {}", body[4])));
    }
    let mut pos = 5usize;
    let nranks = get_varint(body, &mut pos).map_err(|_| err("truncated nranks"))? as usize;
    let nfields = get_varint(body, &mut pos).map_err(|_| err("truncated nfields"))? as usize;
    let plen = get_varint(body, &mut pos).map_err(|_| err("truncated payload length"))? as usize;
    if body.len() - pos != plen {
        return Err(err("payload length mismatch"));
    }
    let predictor = OnlinePredictor::from_state_bytes(&body[pos..])
        .map_err(|e| format!("sidecar {}: {e}", path.display()))?;
    // A stream's predictor has a cell per partition and an error band
    // per rank; anything else would fail the resumed step instead.
    if predictor.n_cells() != nranks * nfields || predictor.n_ranks() != nranks {
        return Err(err("cell or rank-band count does not match recorded shape"));
    }
    Ok((nranks, nfields, predictor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::TempPath;

    fn warmed(nranks: usize, nfields: usize) -> OnlinePredictor {
        let mut p = OnlinePredictor::for_stream(nranks, nfields);
        for step in 0..4u64 {
            for cell in 0..nranks * nfields {
                p.observe(cell, 1000, 990 + step, 970 + 3 * cell as u64 + step);
            }
        }
        p
    }

    #[test]
    fn sidecar_roundtrips_predictor_state() {
        let guard = TempPath::new("timeline-sidecar-rt", "pred");
        let p = warmed(2, 3);
        save_sidecar(guard.path(), 2, 3, &p).unwrap();
        let (nr, nf, q) = load_sidecar(guard.path()).unwrap();
        assert_eq!((nr, nf), (2, 3));
        for cell in 0..6 {
            assert_eq!(q.stats(cell), p.stats(cell));
            assert_eq!(q.predict(cell, 1000), p.predict(cell, 1000));
        }
    }

    #[test]
    fn corrupt_sidecar_rejected() {
        let guard = TempPath::new("timeline-sidecar-bad", "pred");
        save_sidecar(guard.path(), 2, 2, &warmed(2, 2)).unwrap();
        let mut bytes = std::fs::read(guard.path()).unwrap();

        // A flipped payload byte must trip the CRC.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(guard.path(), &bytes).unwrap();
        let e = load_sidecar(guard.path()).unwrap_err();
        assert!(e.contains("checksum"), "{e}");

        // A truncated sidecar must be rejected, not partially parsed.
        bytes[mid] ^= 0x10;
        std::fs::write(guard.path(), &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_sidecar(guard.path()).is_err());

        // A shape-inconsistent sidecar (recorded shape disagrees with
        // the payload's cell count) must be rejected even with a
        // valid checksum — rebuild it with a lying header.
        let p = warmed(2, 2);
        let payload = p.to_state_bytes();
        let mut forged = Vec::new();
        forged.extend_from_slice(b"TLSC");
        forged.push(1);
        szlite::stream::put_varint(&mut forged, 3); // claims 3 ranks
        szlite::stream::put_varint(&mut forged, 2);
        szlite::stream::put_varint(&mut forged, payload.len() as u64);
        forged.extend_from_slice(&payload);
        let crc = crc32c(&forged);
        szlite::stream::put_u32(&mut forged, crc);
        std::fs::write(guard.path(), &forged).unwrap();
        let e = load_sidecar(guard.path()).unwrap_err();
        assert!(e.contains("shape"), "{e}");
    }

    #[test]
    fn missing_sidecar_is_an_error_not_a_panic() {
        let e = load_sidecar(Path::new("/nonexistent/step-0000.h5l.pred")).unwrap_err();
        assert!(e.contains("sidecar"));
    }

    #[test]
    fn sidecar_path_appends_suffix() {
        assert_eq!(
            sidecar_path(Path::new("/tmp/x/step-0007.h5l")),
            PathBuf::from("/tmp/x/step-0007.h5l.pred")
        );
    }
}
