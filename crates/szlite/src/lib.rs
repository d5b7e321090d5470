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
//! The bounded codebook (default radius 32768) caps Huffman tree size
//! and yields the bounded min/max compression throughput the paper's
//! prediction model (its Eq. 1) relies on; unpredictable points escape
//! to raw literals, which produces the throughput floor at tiny error
//! bounds.
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
//! one fused pass over blocks of consecutive rows. Which kernel a block
//! runs is decided at one place in [`compress_into`], from what the
//! host and the input are — **CPU feature × element type × block
//! shape** — and by nothing else: there is no environment variable,
//! `Config` field or cargo feature to set.
//!
//! * On x86-64 with AVX2 (detected at run time), for `f32` and `f64`
//!   elements, a block with at least 8 rows left in its plane and a
//!   `y − 1` neighbor (any 2-D or 3-D grid with ≥ 8 rows) runs the
//!   vector kernel: lane *j* of the row wavefront is element *j mod 4*
//!   of a `__m256d`, two vectors per iteration. Only the iterations in
//!   which all 8 lanes are inside their rows are vectorized; a block's
//!   ramp-up and ramp-down run the scalar body.
//! * Everything else — hosts without AVX2, other architectures, the
//!   last `ny mod 8` rows of a plane, 1-D data — runs the scalar body,
//!   4 rows at a time while a plane has them and one row otherwise.
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
//! whichever runs; the scalar per-point body exists once and the vector
//! module (the library crates' only `unsafe`: the feature-checked call)
//! borrows it for its ramps.
//!
//! ## Example
//!
//! ```
//! use szlite::{compress, decompress, Config, Dims};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let dims = Dims::d3(16, 16, 16);
//! let bytes = compress::<f32>(&data, &dims, &Config::abs(1e-3)).unwrap();
//! assert!(bytes.len() < 4096 * 4);
//! let (restored, rdims) = decompress::<f32>(&bytes).unwrap();
//! assert_eq!(rdims, dims);
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

pub mod config;
pub mod element;
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
pub use decompressor::{
    decompress, decompress_into, decompress_to_slice, stream_info, DecompressScratch, StreamInfo,
};
pub use element::Element;
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
        let bytes = compress::<f32>(&data, &dims, &Config::abs(eb)).unwrap();
        let (restored, rdims) = decompress::<f32>(&bytes).unwrap();
        assert_eq!(rdims, dims);
        assert!(stats::max_abs_err(&data, &restored) <= eb);
    }

    #[test]
    fn roundtrip_f64() {
        let dims = Dims::from_slice(&[32, 32]).unwrap();
        let data: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.03).sin() * 100.0).collect();
        let bytes = compress::<f64>(&data, &dims, &Config::abs(1e-6)).unwrap();
        let (restored, _) = decompress::<f64>(&bytes).unwrap();
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-6);
        }
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
        let bytes = compress::<f32>(&data, &dims, &Config::abs(0.1)).unwrap();
        let (restored, _) = decompress::<f32>(&bytes).unwrap();
        assert!(restored[5].is_nan());
        assert_eq!(restored[9], f32::INFINITY);
        assert!((restored[0] - 0.0).abs() <= 0.1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let dims = Dims::d1(8);
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let bytes = compress::<f32>(&data, &dims, &Config::abs(0.1)).unwrap();
        assert!(decompress::<f64>(&bytes).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(compress::<f32>(&[], &Dims::d1(1), &Config::abs(0.1)).is_err());
    }

    #[test]
    fn dim_mismatch_rejected() {
        let data = vec![0.0f32; 10];
        assert!(matches!(
            compress::<f32>(&data, &Dims::d1(11), &Config::abs(0.1)),
            Err(SzError::DimMismatch { .. })
        ));
    }

    #[test]
    fn oversized_radius_rejected_before_anything_is_sized_by_it() {
        // Past 2^31 codes would wrap, and the count table would be a
        // 16–64 GiB allocation Linux overcommits rather than refuses.
        let data = vec![1.0f32; 64];
        let dims = Dims::from_slice(&[8, 8]).unwrap();
        for radius in [config::MAX_RADIUS + 1, 1 << 31, u32::MAX] {
            let cfg = Config {
                radius,
                ..Config::abs(0.1)
            };
            let mut out = vec![7u8; 3];
            let got = compress_into(&data, &dims, &cfg, &mut Scratch::new(), &mut out);
            assert_eq!(got, Err(SzError::RadiusTooLarge(radius)));
            assert!(out.is_empty());
            let mut sampler = SampleScratch::default();
            assert_eq!(
                sample_quantization_into(&data, &dims, &cfg, 1.0, &mut sampler),
                Err(SzError::RadiusTooLarge(radius))
            );
            assert!(sampler.sample().histogram.is_empty());
        }
    }

    #[test]
    fn stream_info_reports_header() {
        let dims = Dims::d3(4, 5, 6);
        let data = wave3d(4, 5, 6);
        let bytes = compress::<f32>(&data, &dims, &Config::abs(0.25)).unwrap();
        let info = stream_info(&bytes).unwrap();
        assert_eq!(info.dims, dims);
        assert_eq!(info.dtype, 0);
        assert!((info.eb - 0.25).abs() < 1e-12);
        assert!(info.lossless);
    }

    #[test]
    fn truncated_stream_rejected() {
        let dims = Dims::d1(256);
        let data: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
        let bytes = compress::<f32>(&data, &dims, &Config::abs(1e-3)).unwrap();
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress::<f32>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress::<f32>(&[0u8; 64]).is_err());
        assert!(matches!(
            decompress::<f32>(b"not a stream at all"),
            Err(SzError::BadMagic)
        ));
    }

    #[test]
    fn constant_data_compresses_extremely() {
        let dims = Dims::d3(16, 16, 16);
        let data = vec![42.0f32; 4096];
        let (bytes, st) = compress_with_stats(&data, &dims, &Config::rel(1e-3)).unwrap();
        assert!(st.ratio() > 50.0, "ratio {}", st.ratio());
        let (restored, _) = decompress::<f32>(&bytes).unwrap();
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
                Config::abs(1e-4).with_lossless(false),
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
    fn no_lossless_mode_roundtrip() {
        let dims = Dims::d1(512);
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).cos()).collect();
        let cfg = Config::abs(1e-3).with_lossless(false);
        let bytes = compress::<f32>(&data, &dims, &cfg).unwrap();
        let info = stream_info(&bytes).unwrap();
        assert!(!info.lossless);
        let (restored, _) = decompress::<f32>(&bytes).unwrap();
        assert!(stats::max_abs_err(&data, &restored) <= 1e-3);
    }
}
