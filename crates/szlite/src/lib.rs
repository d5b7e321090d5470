//! # szlite — prediction-based error-bounded lossy compression
//!
//! A from-scratch Rust implementation of the SZ3-style compression
//! pipeline used as the compressor substrate of the SC'22 paper
//! *"Accelerating Parallel Write via Deeply Integrating Predictive
//! Lossy Compression with HDF5"*:
//!
//! 1. **Lorenzo prediction** of each point from already-processed
//!    neighbors ([`predictor`]),
//! 2. **error-bounded linear quantization** of the residual with a
//!    bounded codebook ([`quantizer`]),
//! 3. **canonical Huffman coding** of the code stream ([`huffman`]),
//! 4. a trailing **LZSS lossless stage** ([`lossless`]).
//!
//! The bounded codebook (the constant [`config::RADIUS`], SZ's 32768)
//! caps Huffman tree size and yields the bounded min/max compression
//! throughput the paper's prediction model (its Eq. 1) relies on;
//! unpredictable points escape to raw literals, which produces the
//! throughput floor at tiny error bounds. A [`Config`] is its error
//! bound and nothing else: every stream runs that codebook and the
//! LZSS stage.
//!
//! ## Guarantee
//!
//! For every finite input value `x` and its reconstruction `x̂`:
//! `|x − x̂| ≤ eb` (the resolved absolute bound). Enforced by
//! construction and re-checked against storage-type rounding; points
//! that would violate it are stored verbatim.
//!
//! ## Kernel dispatch
//!
//! Prediction, quantization, the bound re-check and code counting are
//! one fused pass over blocks of consecutive rows. Which kernel a plane
//! runs is decided at one place in [`compress_into`], from what the
//! host and the input are — **CPU feature × plane shape** — and by
//! nothing else: there is no environment variable or cargo feature to
//! set, and `Config`'s one field, the error bound, picks no kernel. The element type is `f32`, the type of every
//! field the paper's applications checkpoint.
//!
//! * On x86-64 with AVX2 (detected at run time), a plane of at least 8
//!   rows of at least 8 points runs its
//!   whole 8-row blocks through the vector kernel: lane *j* of the row
//!   wavefront is element *j mod 4* of a `__m256d`, two vectors per
//!   iteration, and all the blocks of the plane are one wavefront (the
//!   decoder's replay runs the same schedule).
//! * Everything else — hosts without AVX2, other architectures, rows
//!   shorter than 8, the last `ny mod 8` rows of a plane, 1-D data —
//!   runs the scalar body, 4 rows at a time while a plane has them and
//!   one row otherwise.
//!
//! Four scalar lanes are not a tuning choice either: a point's
//! predict → divide → round → reconstruct → storage-round-trip chain is
//! ≈ 95 cycles, and four of them already fill the out-of-order window,
//! so the scalar kernel is bound by µops per point, not by latency —
//! 8 or 16 scalar lanes measured 10–35 % slower. The vector kernel
//! wins by spending a quarter of the arithmetic instructions per point.
//!
//! Both arms evaluate the expression of [`compress_reference`] on the
//! same operands in the same order, so the stream is byte-identical
//! whichever runs; the scalar per-point body exists once and is the
//! oracle of the vector module (the library crates' only `unsafe`).
//!
//! ## Example
//!
//! ```
//! use szlite::{compress, decompress, Config, Dims};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let dims = Dims::d3(16, 16, 16);
//! let bytes = compress(&data, &dims, &Config::abs(1e-3)).unwrap();
//! assert!(bytes.len() < 4096 * 4);
//! let (restored, rdims) = decompress(&bytes).unwrap();
//! assert_eq!(rdims, dims);
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

pub mod config;
pub mod error;
pub mod huffman;
pub mod lossless;
pub mod predictor;
pub mod quantizer;
pub mod sampling;
pub mod stats;
pub mod stream;

mod avx2;
mod compressor;
mod decompressor;

pub use compressor::{
    compress, compress_into, compress_reference, compress_with_stats, CompressStats, Scratch,
};
pub use config::{Config, Dims, ErrorBound};
#[doc(hidden)]
pub use decompressor::decompress_into_scalar;
pub use decompressor::{
    decompress, decompress_into, decompress_to_slice, stream_info, DecompressScratch, StreamInfo,
};
pub use error::{Result, SzError};
pub use sampling::{
    sample_quantization, sample_quantization_into, SampleCodes, SampleScratch, MIN_SAMPLE_POINTS,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn wave3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(
                        ((x as f32) * 0.2).sin() * ((y as f32) * 0.13).cos() + 0.01 * (z as f32),
                    );
                }
            }
        }
        v
    }

    #[test]
    fn roundtrip_3d_within_bound() {
        let dims = Dims::d3(12, 10, 14);
        let data = wave3d(12, 10, 14);
        let eb = 1e-3;
        let bytes = compress(&data, &dims, &Config::abs(eb)).unwrap();
        let (restored, rdims) = decompress(&bytes).unwrap();
        assert_eq!(rdims, dims);
        assert!(stats::max_abs_err(&data, &restored) <= eb);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let dims = Dims::d3(32, 32, 32);
        let data = wave3d(32, 32, 32);
        let (_, st) = compress_with_stats(&data, &dims, &Config::rel(1e-3)).unwrap();
        assert!(st.ratio() > 4.0, "ratio {}", st.ratio());
    }

    #[test]
    fn tighter_bound_lower_ratio() {
        let dims = Dims::d3(24, 24, 24);
        let data = wave3d(24, 24, 24);
        let (_, loose) = compress_with_stats(&data, &dims, &Config::rel(1e-2)).unwrap();
        let (_, tight) = compress_with_stats(&data, &dims, &Config::rel(1e-5)).unwrap();
        assert!(loose.ratio() > tight.ratio());
    }

    #[test]
    fn nan_values_survive_roundtrip() {
        let dims = Dims::d1(16);
        let mut data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        data[5] = f32::NAN;
        data[9] = f32::INFINITY;
        let bytes = compress(&data, &dims, &Config::abs(0.1)).unwrap();
        let (restored, _) = decompress(&bytes).unwrap();
        assert!(restored[5].is_nan());
        assert_eq!(restored[9], f32::INFINITY);
        assert!((restored[0] - 0.0).abs() <= 0.1);
    }

    #[test]
    fn type_mismatch_rejected() {
        // Header byte 5 is the element type: 0, `f32`. The retired
        // `f64` tag (1) and any other value are typed errors, before
        // any payload byte is read.
        let dims = Dims::d1(8);
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut bytes = compress(&data, &dims, &Config::abs(0.1)).unwrap();
        assert_eq!(bytes[5], 0);
        for tag in [1, 2, 0xFF] {
            bytes[5] = tag;
            assert_eq!(stream_info(&bytes), Err(SzError::Corrupt("dtype")));
            let mut out = vec![7.5; 3];
            let got = decompress_into(&bytes, &mut DecompressScratch::new(), &mut out);
            assert_eq!(got, Err(SzError::Corrupt("dtype")));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(compress(&[], &Dims::d1(1), &Config::abs(0.1)).is_err());
    }

    #[test]
    fn dim_mismatch_rejected() {
        let data = vec![0.0f32; 10];
        assert!(matches!(
            compress(&data, &Dims::d1(11), &Config::abs(0.1)),
            Err(SzError::DimMismatch { .. })
        ));
    }

    /// A stream of a few points, and the offset of its header's
    /// radius: magic(4) + version + dtype + ndims + one one-byte dim +
    /// eb(8). The mode byte follows the radius's four.
    fn short_stream() -> (Vec<u8>, usize) {
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let bytes = compress(&data, &Dims::d1(8), &Config::abs(0.1)).unwrap();
        (bytes, 4 + 3 + 1 + 8)
    }

    /// `bytes` refused with `want` by the header parser and by every
    /// decode entry point, before any element is written.
    fn assert_refused(bytes: &[u8], want: SzError) {
        assert_eq!(stream_info(bytes), Err(want.clone()));
        let mut out = vec![7.5; 3];
        let got = decompress_into(bytes, &mut DecompressScratch::new(), &mut out);
        assert_eq!(got, Err(want.clone()));
        assert!(out.is_empty());
        let mut dst = vec![7.5; 8];
        let got = decompress_to_slice(bytes, &mut DecompressScratch::new(), &mut dst);
        assert_eq!(got, Err(want));
        assert!(dst.iter().all(|&v| v == 7.5));
    }

    #[test]
    fn header_radius_other_than_the_codebook_is_refused() {
        // The header records the codebook's half-size, which is always
        // `RADIUS`; any other value, a once-valid one included, is a
        // typed refusal.
        let (mut bytes, at) = short_stream();
        assert_eq!(bytes[at..at + 4], config::RADIUS.to_le_bytes());
        for radius in [
            0,
            2,
            16,
            config::RADIUS - 1,
            config::RADIUS + 1,
            1 << 30,
            u32::MAX,
        ] {
            bytes[at..at + 4].copy_from_slice(&radius.to_le_bytes());
            assert_refused(&bytes, SzError::Corrupt("header radius"));
        }
    }

    #[test]
    fn stream_info_reports_header() {
        let dims = Dims::d3(4, 5, 6);
        let data = wave3d(4, 5, 6);
        let bytes = compress(&data, &dims, &Config::abs(0.25)).unwrap();
        let info = stream_info(&bytes).unwrap();
        assert_eq!(info.dims, dims);
        assert!((info.eb - 0.25).abs() < 1e-12);
    }

    #[test]
    fn truncated_stream_rejected() {
        let dims = Dims::d1(256);
        let data: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
        let bytes = compress(&data, &dims, &Config::abs(1e-3)).unwrap();
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress(&[0u8; 64]).is_err());
        assert!(matches!(
            decompress(b"not a stream at all"),
            Err(SzError::BadMagic)
        ));
    }

    #[test]
    fn constant_data_compresses_extremely() {
        let dims = Dims::d3(16, 16, 16);
        let data = vec![42.0f32; 4096];
        let (bytes, st) = compress_with_stats(&data, &dims, &Config::rel(1e-3)).unwrap();
        assert!(st.ratio() > 50.0, "ratio {}", st.ratio());
        let (restored, _) = decompress(&bytes).unwrap();
        assert!(restored.iter().all(|&v| (v - 42.0).abs() < 1e-2));
    }

    #[test]
    fn scratch_reuse_is_byte_identical() {
        // One Scratch reused across runs of different shapes, bounds
        // and dirtiness levels must reproduce the fresh-buffer stream
        // exactly — the pipeline's determinism guarantee rests on this.
        let mut scratch = Scratch::new();
        let cases: Vec<(Vec<f32>, Dims, Config)> = vec![
            (wave3d(12, 10, 14), Dims::d3(12, 10, 14), Config::abs(1e-3)),
            (wave3d(4, 5, 6), Dims::d3(4, 5, 6), Config::rel(1e-2)),
            (
                (0..777).map(|i| (i as f32).sin() * 50.0).collect(),
                Dims::d1(777),
                Config::abs(1e-4),
            ),
            (
                vec![3.25; 64],
                Dims::from_slice(&[8, 8]).unwrap(),
                Config::rel(1e-3),
            ),
        ];
        for (data, dims, cfg) in &cases {
            let (fresh, fresh_stats) = compress_with_stats(data, dims, cfg).unwrap();
            let mut out = Vec::new();
            let stats = compress_into(data, dims, cfg, &mut scratch, &mut out).unwrap();
            assert_eq!(out, fresh);
            assert_eq!(stats, fresh_stats);
        }
    }

    #[test]
    fn lossless_off_mode_is_refused() {
        // Every stream runs the LZSS stage: mode byte 1. The retired
        // mode 0 (no lossless stage) and any other value are typed
        // refusals, before any payload byte is read.
        let (mut bytes, at) = short_stream();
        assert_eq!(bytes[at + 4], 1);
        for mode in [0, 2, 0xFF] {
            bytes[at + 4] = mode;
            assert_refused(&bytes, SzError::Corrupt("lossless mode"));
        }
    }
}
