//! Property tests for the workload generators and domain decomposition.

use proptest::prelude::*;
use workloads::noise::{fbm, fbm_row, value_noise, value_noise_row};
use workloads::{factor3, field::Field, nyx, split_1d, vpic, Decomposition, NyxParams, VpicParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x30_4C0A) /* pinned: deterministic CI */)]

    #[test]
    fn factor3_product_and_order(n in 1usize..4096) {
        let f = factor3(n);
        prop_assert_eq!(f.iter().product::<usize>(), n);
        prop_assert!(f[0] >= f[1] && f[1] >= f[2]);
    }

    #[test]
    fn split_1d_partitions_exactly(n in 1usize..5000, parts in 1usize..32) {
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let f = Field::new("t", data.clone(), vec![n]);
        let chunks = split_1d(&f, parts);
        prop_assert_eq!(chunks.len(), parts);
        let total: Vec<f32> = chunks.concat();
        prop_assert_eq!(total, data);
        // Sizes differ by at most one element.
        let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
        let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn decomposition_blocks_partition_cube(p in 0u32..4) {
        // Power-of-two process counts over a 16^3 cube.
        let nprocs = 1usize << (3 * p.min(3)); // 1, 8, 64, 512 capped
        let side = 16usize;
        prop_assume!(nprocs <= side * side * side);
        let data: Vec<f32> = (0..side * side * side).map(|i| i as f32).collect();
        let f = Field::new("t", data.clone(), vec![side, side, side]);
        let dec = Decomposition::new(nprocs, [side, side, side]);
        let mut seen = vec![false; data.len()];
        for r in 0..nprocs {
            for v in dec.extract(&f, r) {
                let idx = v as usize;
                prop_assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn nyx_seeded_determinism(seed in any::<u64>()) {
        let a = nyx::snapshot(NyxParams { side: 8, seed, ..Default::default() });
        let b = nyx::snapshot(NyxParams { side: 8, seed, ..Default::default() });
        for (fa, fb) in a.fields.iter().zip(&b.fields) {
            prop_assert_eq!(&fa.data, &fb.data);
        }
    }

    #[test]
    fn nyx_fields_always_finite(seed in any::<u64>(), z in 0.0f64..12.0) {
        let ds = nyx::snapshot(NyxParams { side: 8, seed, redshift: z, ..Default::default() });
        for f in &ds.fields {
            prop_assert!(f.data.iter().all(|v| v.is_finite()), "{}", f.name);
        }
    }

    #[test]
    fn vpic_energy_nonnegative(seed in any::<u64>()) {
        let ds = vpic::snapshot(VpicParams { n_particles: 256, seed, ..Default::default() });
        let e = &ds.field("energy").unwrap().data;
        prop_assert!(e.iter().all(|&v| v >= 0.0));
    }

    /// The row kernels return the per-point definition's bits along a
    /// random walk in x: steps inside a cell, onto the next cell, across
    /// several cells and backwards, from negative and positive starts.
    #[test]
    fn row_kernels_match_the_per_point_noise(
        start in -60.0f64..60.0,
        steps in proptest::collection::vec(-1.5f64..3.5, 1..48),
        (y, z) in (-60.0f64..60.0, -60.0f64..60.0),
        seed in any::<u64>(),
        octaves in 1u32..7,
        persistence in 0.01f64..0.99,
    ) {
        let xs: Vec<f64> = steps
            .iter()
            .scan(start, |x, &d| {
                *x += d;
                Some(*x)
            })
            .collect();
        let mut row = vec![0.0; xs.len()];
        value_noise_row(&xs, y, z, seed, &mut row);
        for (&x, &v) in xs.iter().zip(&row) {
            prop_assert_eq!(v.to_bits(), value_noise(x, y, z, seed).to_bits(), "x {}", x);
        }
        fbm_row(&xs, y, z, seed, octaves, persistence, &mut row);
        for (&x, &v) in xs.iter().zip(&row) {
            let want = fbm(x, y, z, seed, octaves, persistence);
            prop_assert_eq!(v.to_bits(), want.to_bits(), "x {}", x);
        }
    }
}
