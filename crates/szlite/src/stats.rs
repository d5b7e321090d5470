//! Distortion and rate metrics for evaluating lossy compression.

/// Peak signal-to-noise ratio (dB) between an original and a
/// reconstructed array. Returns `f64::INFINITY` for identical arrays.
///
/// PSNR = 20·log10(range) − 10·log10(MSE), the metric the paper quotes
/// (e.g. 78.6 dB for the Nyx configuration).
pub fn psnr(orig: &[f32], recon: &[f32]) -> f64 {
    assert_eq!(orig.len(), recon.len(), "length mismatch");
    assert!(!orig.is_empty());
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut mse = 0.0f64;
    for (&a, &b) in orig.iter().zip(recon) {
        let a = f64::from(a);
        let b = f64::from(b);
        min = min.min(a);
        max = max.max(a);
        let d = a - b;
        mse += d * d;
    }
    mse /= orig.len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    let range = max - min;
    20.0 * range.log10() - 10.0 * mse.log10()
}

/// Maximum point-wise absolute error.
pub fn max_abs_err(orig: &[f32], recon: &[f32]) -> f64 {
    assert_eq!(orig.len(), recon.len(), "length mismatch");
    orig.iter()
        .zip(recon)
        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
        .fold(0.0, f64::max)
}

/// Compression ratio given sizes in bytes.
pub fn ratio(raw_bytes: usize, compressed_bytes: usize) -> f64 {
    raw_bytes as f64 / compressed_bytes as f64
}

/// Bit-rate (bits/value) given compressed size and point count.
pub fn bit_rate(compressed_bytes: usize, n_points: usize) -> f64 {
    compressed_bytes as f64 * 8.0 / n_points as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psnr_identical_is_infinite() {
        let a = vec![1.0f32, 2.0, 3.0];
        assert_eq!(psnr(&a, &a), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let orig: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let small: Vec<f32> = orig.iter().map(|v| v + 1e-4).collect();
        let large: Vec<f32> = orig.iter().map(|v| v + 1e-2).collect();
        assert!(psnr(&orig, &small) > psnr(&orig, &large));
    }

    #[test]
    fn max_err_basic() {
        let a = vec![0.0f32, 1.0];
        let b = vec![0.5f32, 1.25];
        assert!((max_abs_err(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_helpers() {
        assert!((ratio(32, 2) - 16.0).abs() < 1e-12);
        assert!((bit_rate(4, 16) - 2.0).abs() < 1e-12);
    }
}
