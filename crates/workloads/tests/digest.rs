//! The generators' output, pinned bit for bit across commits.
//!
//! Every byte a workload stores, every reservation and every
//! `REPRO.json` value is a function of these values, so a change that
//! moves one bit of one field shows here first, named by stream, seed
//! and step. The constants were computed with the per-point generators
//! (`noise::value_noise` / `noise::fbm` called once per grid point);
//! the row kernels must reproduce them under every build profile.

use workloads::{Dataset, SnapshotStream};

/// FNV-1a over every field's name, length and `f32` bits, in order.
fn digest(ds: &Dataset) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for f in &ds.fields {
        f.name.bytes().for_each(|b| eat(u64::from(b)));
        eat(f.data.len() as u64);
        f.data.iter().for_each(|v| eat(u64::from(v.to_bits())));
    }
    h
}

/// (stream, seed, digest of steps 0..4).
const PINNED: [(&str, u64, [u64; 4]); 6] = [
    (
        "nyx",
        1,
        [
            0xe515c71284ddb04c,
            0x9709e6527e5e25d0,
            0x5123dff4220e7ae7,
            0xe6433696a5ab05dd,
        ],
    ),
    (
        "nyx",
        2,
        [
            0x95470fd36024cd8e,
            0xd74aff20cc81a847,
            0xffafdcf7d852b5e9,
            0xcfcb4b23716940f7,
        ],
    ),
    (
        "vpic",
        1,
        [
            0x4eaa9ba894e100b7,
            0xd12e73b0a1acc6b8,
            0x4c3224bef9fc2557,
            0x923f80fdca4cffd0,
        ],
    ),
    (
        "vpic",
        2,
        [
            0x3a37b734ab281eb4,
            0x6ec5f76fe1fb2276,
            0x5872d42f50c8c452,
            0xf93ffd7f828e8454,
        ],
    ),
    (
        "rtm",
        1,
        [
            0x9abbce2f97aece05,
            0xe653190fccc90017,
            0xc36d59ebc377140f,
            0xbd4c75c9fcdc7e5d,
        ],
    ),
    (
        "rtm",
        2,
        [
            0xe4e2428930e8ca6e,
            0x6e467bfd5a9d9f40,
            0xeee331f34bf70fd1,
            0x8072656a65631900,
        ],
    ),
];

#[test]
fn every_generated_value_keeps_its_bits() {
    let mut departed = Vec::new();
    for (label, seed, want) in PINNED {
        let stream = match label {
            "nyx" => SnapshotStream::nyx(16),
            "vpic" => SnapshotStream::vpic(2048),
            _ => SnapshotStream::rtm(16),
        }
        .seed(seed);
        for (step, &want) in want.iter().enumerate() {
            let got = digest(&stream.snapshot(step));
            if got != want {
                departed.push(format!("{label} seed {seed} step {step}: {got:#018x}"));
            }
        }
    }
    assert!(
        departed.is_empty(),
        "digests departed:\n{}",
        departed.join("\n")
    );
}
