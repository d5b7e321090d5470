//! Value-identity of the parallel decode pipeline.
//!
//! The read-side contract mirrors the write side's determinism pin:
//! fanning chunk reads + filter inversion out to a worker pool never
//! changes the decoded bytes — `H5Reader::read_pipelined` is
//! **value-identical** at any worker count, whatever it restores the
//! dataset as (`read_full_pipelined` is its byte instance, `read_raw`
//! that at one worker). These tests pin that on real-ish workload
//! tiles (Nyx, VPIC, RTM) across worker counts; a matrix over layouts
//! × filter chains × worker counts requires the typed read to equal
//! the byte read folded element by element, and forged
//! containers to end in typed errors on both of the reader's arms; a
//! seeded property test pushes random grids through the full
//! pipelined round trip (pipelined compress → pipelined read → error
//! bound holds).

use proptest::prelude::*;
use repro_suite::h5lite::chunk::gather_tile_into;
use repro_suite::h5lite::{
    DatasetSpec, Dtype, EventSet, FilterSpec, H5Error, H5File, H5Reader, SzFilterParams,
    LZSS_FILTER_ID, SZLITE_FILTER_ID,
};
use repro_suite::szlite::{self, Config, Dims, SzError};
use repro_suite::workloads::{nyx, rtm, vpic, NyxParams, RtmParams, VpicParams};
use testutil::TempPath;

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn sz_spec(name: &str, dims: &[u64], chunk: &[u64], bound: f64) -> DatasetSpec {
    DatasetSpec::new(name, Dtype::F32, dims)
        .chunked(chunk)
        .with_filter(FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: true,
                bound,
                dims: chunk.iter().map(|&c| c as usize).collect(),
            }
            .to_bytes(),
        })
}

/// Write serially, then assert the pipelined reader reproduces the
/// serial reader's bytes at several worker counts.
fn assert_reads_identical(tag: &str, spec: &DatasetSpec, bytes: &[u8]) {
    let name = spec.name.clone();
    let t = TempPath::new(tag, "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec.clone()).unwrap();
    f.write_full(id, bytes).unwrap();
    f.close().unwrap();

    let r = H5Reader::open(t.path()).unwrap();
    let serial = r.read_raw(&name).unwrap();
    for workers in [1usize, 2, 8] {
        let pipelined = r.read_full_pipelined(&name, workers).unwrap();
        assert_eq!(pipelined, serial, "{tag}: workers={workers}");
    }
}

#[test]
fn nyx_reads_value_identical_across_worker_counts() {
    let ds = nyx::snapshot(NyxParams::with_side(32));
    let field = ds.field("baryon_density").unwrap();
    let spec = sz_spec("nyx/baryon_density", &[32, 32, 32], &[16, 16, 16], 1e-2);
    assert_reads_identical("read-nyx", &spec, &f32_bytes(&field.data));
}

#[test]
fn vpic_reads_value_identical_across_worker_counts() {
    let ds = vpic::snapshot(VpicParams::with_particles(1 << 14));
    let field = ds.field("mom_x").unwrap();
    let spec = sz_spec("vpic/mom_x", &[1 << 14], &[1 << 12], 1e-3);
    assert_reads_identical("read-vpic", &spec, &f32_bytes(&field.data));
}

#[test]
fn rtm_reads_value_identical_across_worker_counts() {
    let ds = rtm::snapshot(RtmParams::with_side(24));
    let field = &ds.fields[0];
    // 3×2×1 chunk grid with anisotropic tiles.
    let spec = sz_spec(&field.name, &[24, 24, 24], &[8, 12, 24], 1e-3);
    assert_reads_identical("read-rtm", &spec, &f32_bytes(&field.data));
}

#[test]
fn multi_stage_chain_reads_value_identical() {
    // LZSS → LZSS (exact) decoded stage by stage through the worker
    // pool, on a ragged chunk grid (the last tile is clipped).
    let data: Vec<f32> = (0..4000).map(|i| (i / 7) as f32).collect();
    let spec = DatasetSpec::new("chain", Dtype::F32, &[4000])
        .chunked(&[512])
        .with_filter(FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        })
        .with_filter(FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        });
    assert_reads_identical("read-chain", &spec, &f32_bytes(&data));
}

#[test]
fn typed_pipelined_read_matches_serial_typed_read() {
    let ds = nyx::snapshot(NyxParams::with_side(16));
    let field = ds.field("temperature").unwrap();
    let spec = sz_spec("nyx/temperature", &[16, 16, 16], &[8, 8, 8], 1e-2);
    let t = TempPath::new("read-typed", "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec).unwrap();
    f.write_full(id, &f32_bytes(&field.data)).unwrap();
    f.close().unwrap();
    let r = H5Reader::open(t.path()).unwrap();
    let serial = r.read_f32("nyx/temperature").unwrap();
    for workers in [1usize, 2, 8] {
        assert_eq!(
            r.read_pipelined::<f32>("nyx/temperature", workers).unwrap(),
            serial
        );
    }
}

/// The chains of the matrix: (szlite first, LZSS stages after). Zero,
/// one and two byte stages take both parities of the inverse chain's
/// ping-pong between its buffers.
const CHAINS: [(bool, usize); 6] = [
    (false, 0),
    (false, 1),
    (false, 2),
    (true, 0),
    (true, 1),
    (true, 2),
];
const BOUND: f64 = 1e-3;

/// The conversion the reader used to run over the whole byte buffer,
/// kept as the reference the typed read is held to.
fn fold_le(raw: &[u8]) -> Vec<f32> {
    (raw.chunks_exact(4))
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

fn wave(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (1000.0 + (i as f64 * 0.07).sin() * 3.0 + (i / 13) as f64 * 0.01) as f32)
        .collect()
}

/// What a forged container gets wrong.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Forge {
    Nothing,
    /// Every chunk is stored as a reserved-slot prefix plus a tail
    /// segment elsewhere in the file (the overflow layout).
    Overflow,
    /// The last chunk holds one point fewer than its tile.
    ShortLastChunk,
    /// The last chunk is recorded under an index outside the grid.
    IndexOutOfGrid,
}

/// Write `data` chunk by chunk the way the engine does — the tile
/// filtered by hand, the stored bytes placed with `write_chunk_at` —
/// so ragged tiles can carry szlite streams of their own shape and a
/// container can be forged with valid checksums.
fn write_chunks(
    path: &std::path::Path,
    dims: &[u64],
    chunk: Option<&[u64]>,
    (sz, lzss): (bool, usize),
    data: &[f32],
    forge: Forge,
) {
    let f = H5File::create(path).unwrap();
    let mut spec = DatasetSpec::new("m", Dtype::F32, dims);
    if let Some(c) = chunk {
        spec = spec.chunked(c);
    }
    if sz {
        spec = spec.with_filter(FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: true,
                bound: BOUND,
                dims: vec![1],
            }
            .to_bytes(),
        });
    }
    for _ in 0..lzss {
        spec = spec.with_filter(FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        });
    }
    let id = f.create_dataset(spec).unwrap();
    let bytes = f32_bytes(data);
    let cd = chunk.unwrap_or(dims);
    let full_tile: usize = cd.iter().product::<u64>() as usize;
    let n_chunks: u64 = dims.iter().zip(cd).map(|(d, c)| d.div_ceil(*c)).product();
    let mut raw = Vec::new();
    for c in 0..n_chunks {
        let last = c + 1 == n_chunks;
        gather_tile_into(&bytes, dims, 4, cd, c, &mut raw).unwrap();
        let mut tile = fold_le(&raw);
        let raw_len = (tile.len() * 4) as u64;
        if last && forge == Forge::ShortLastChunk {
            tile.pop();
        }
        let mut stored = if sz {
            // A full tile keeps its shape (the 3-D kernels run); a
            // clipped one is a 1-D run of what is left of it.
            let shape: Vec<usize> = cd.iter().map(|&e| e as usize).collect();
            let tile_dims = if tile.len() == full_tile {
                Dims::from_slice(&shape).unwrap()
            } else {
                Dims::d1(tile.len())
            };
            let mut out = Vec::new();
            let cfg = Config::abs(BOUND).with_lossless(false);
            szlite::compress_into(
                &tile,
                &tile_dims,
                &cfg,
                &mut szlite::Scratch::new(),
                &mut out,
            )
            .unwrap();
            out
        } else {
            f32_bytes(&tile)
        };
        for _ in 0..lzss {
            stored = szlite::lossless::compress(&stored);
        }
        let index = if last && forge == Forge::IndexOutOfGrid {
            n_chunks + 5
        } else {
            c
        };
        if forge == Forge::Overflow {
            let cut = stored.len() / 3;
            let slot = f.reserve(cut as u64);
            // Something else lands between the slot and the tail.
            f.reserve(17);
            let tail = f.reserve((stored.len() - cut) as u64);
            f.write_chunk_at(id, index, slot, &stored[..cut], raw_len)
                .unwrap();
            f.write_chunk_at(id, index, tail, &stored[cut..], 0)
                .unwrap();
        } else {
            let at = f.reserve(stored.len() as u64);
            f.write_chunk_at(id, index, at, &stored, raw_len).unwrap();
        }
    }
    f.close().unwrap();
}

/// A layout of the matrix: name, dims, chunk dims.
type Layout = (&'static str, &'static [u64], Option<&'static [u64]>);

/// The first six decode in place (every chunk is one run of the
/// dataset), the rest through the tile arm.
const LAYOUTS: [Layout; 9] = [
    ("contiguous-1d", &[4000], None),
    ("contiguous-3d", &[12, 10, 8], None),
    ("two-slabs", &[2 * 1536], Some(&[1536])),
    ("three-slabs-last-short", &[2 * 1536 + 700], Some(&[1536])),
    ("slabs-3d-last-short", &[11, 12, 8], Some(&[4, 12, 8])),
    ("ragged-1d", &[1000], Some(&[96])),
    ("cubes", &[16, 16, 16], Some(&[8, 8, 8])),
    ("ragged-2d", &[37, 29], Some(&[8, 12])),
    ("ragged-3d", &[9, 10, 11], Some(&[4, 4, 4])),
];

#[test]
fn typed_read_equals_folded_byte_read_f32() {
    for (layout, dims, chunk) in LAYOUTS {
        let n: usize = dims.iter().product::<u64>() as usize;
        let data = wave(n);
        for chain in CHAINS {
            let tag = format!("{layout} chain {chain:?}");
            let t = TempPath::new("read-matrix", "h5l");
            write_chunks(t.path(), dims, chunk, chain, &data, Forge::Nothing);
            let r = H5Reader::open(t.path()).unwrap();
            let reference = fold_le(&r.read_raw("m").unwrap());
            assert_eq!(reference.len(), n, "{tag}");
            for (a, b) in data.iter().zip(&reference) {
                let err = (f64::from(*a) - f64::from(*b)).abs();
                assert!(
                    if chain.0 { err <= BOUND } else { err == 0.0 },
                    "{tag}: {a:?} -> {b:?}"
                );
            }
            for workers in [1usize, 2, 8] {
                let typed = r.read_pipelined::<f32>("m", workers).unwrap();
                assert_eq!(
                    f32_bytes(&typed),
                    f32_bytes(&reference),
                    "{tag} workers={workers}"
                );
                let raw = r.read_full_pipelined("m", workers).unwrap();
                assert_eq!(
                    raw,
                    f32_bytes(&reference),
                    "{tag} workers={workers} (bytes)"
                );
            }
        }
    }
    // A dataset of bytes is refused as `f32` before anything is read.
    let t = TempPath::new("read-wrong-type", "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f
        .create_dataset(DatasetSpec::new("m", Dtype::U8, &[64]))
        .unwrap();
    f.write_full(id, &[7; 64]).unwrap();
    f.close().unwrap();
    let r = H5Reader::open(t.path()).unwrap();
    for workers in [1usize, 2] {
        assert!(matches!(
            r.read_pipelined::<f32>("m", workers),
            Err(H5Error::Corrupt("dataset is not f32"))
        ));
    }
}

#[test]
fn overflow_segments_read_through_the_slab_arm() {
    // One slab per rank, every chunk split into a reserved-slot prefix
    // and a tail elsewhere in the file: the segments are checked and
    // concatenated before the chunk decodes into its sub-slice.
    let dims = [3 * 2048 + 100u64];
    let data = wave(dims[0] as usize);
    let whole = TempPath::new("read-overflow-whole", "h5l");
    let split = TempPath::new("read-overflow-split", "h5l");
    for chain in CHAINS {
        write_chunks(
            whole.path(),
            &dims,
            Some(&[2048]),
            chain,
            &data,
            Forge::Nothing,
        );
        write_chunks(
            split.path(),
            &dims,
            Some(&[2048]),
            chain,
            &data,
            Forge::Overflow,
        );
        let expected = H5Reader::open(whole.path()).unwrap().read_f32("m").unwrap();
        let r = H5Reader::open(split.path()).unwrap();
        assert_eq!(r.meta("m").unwrap().chunks.len(), 8, "two records a chunk");
        for workers in [1usize, 2, 8] {
            let got = r.read_pipelined::<f32>("m", workers).unwrap();
            assert_eq!(
                f32_bytes(&got),
                f32_bytes(&expected),
                "{chain:?} workers={workers}"
            );
        }
    }
}

#[test]
fn forged_containers_end_in_typed_errors_on_both_arms() {
    // (dims, chunk): the slab arm, then the tile arm.
    let arms: [(&[u64], &[u64]); 2] = [(&[4 * 512], &[512]), (&[16, 16], &[8, 8])];
    for (dims, chunk) in arms {
        let n: usize = dims.iter().product::<u64>() as usize;
        let data = wave(n);
        for chain in CHAINS {
            let tag = format!("{dims:?} chain {chain:?}");
            let t = TempPath::new("read-forged", "h5l");
            let every_read_fails = |check: &dyn Fn(H5Error)| {
                let r = H5Reader::open(t.path()).unwrap();
                for workers in [1usize, 2, 8] {
                    check(r.read_pipelined::<f32>("m", workers).expect_err(&tag));
                    check(r.read_full_pipelined("m", workers).expect_err(&tag));
                }
            };

            // A flipped stored byte, in the last chunk so that every
            // other chunk has decoded by the time it is found.
            write_chunks(t.path(), dims, Some(chunk), chain, &data, Forge::Nothing);
            let last = *H5Reader::open(t.path())
                .unwrap()
                .meta("m")
                .unwrap()
                .chunks
                .last()
                .unwrap();
            let mut file = std::fs::read(t.path()).unwrap();
            file[(last.offset + last.stored / 2) as usize] ^= 0x20;
            std::fs::write(t.path(), &file).unwrap();
            every_read_fails(&|e| {
                assert!(
                    matches!(e, H5Error::ChecksumMismatch { context: "chunk", offset, .. } if offset == last.offset),
                    "{tag}: {e:?}"
                )
            });

            // A well-checksummed chunk that holds fewer points than
            // its tile: the chain's last step refuses the destination.
            write_chunks(
                t.path(),
                dims,
                Some(chunk),
                chain,
                &data,
                Forge::ShortLastChunk,
            );
            every_read_fails(&|e| {
                assert!(
                    matches!(e, H5Error::Filter(_) | H5Error::ShapeMismatch { .. }),
                    "{tag}: {e:?}"
                )
            });

            // A table naming a chunk the grid does not have.
            write_chunks(
                t.path(),
                dims,
                Some(chunk),
                chain,
                &data,
                Forge::IndexOutOfGrid,
            );
            every_read_fails(&|e| {
                assert!(
                    matches!(e, H5Error::Corrupt("chunk index out of grid")),
                    "{tag}: {e:?}"
                )
            });
        }
    }
}

#[test]
fn f64_through_the_szlite_filter_is_typed_not_reinterpreted() {
    // A chunk whose szlite stream names `f64` (header byte 5 = 1, a
    // type no longer written) in an `f32` dataset: a typed error from
    // both views, never its bytes decoded as `f32`.
    let mut stream = Vec::new();
    szlite::compress_into(
        &wave(1024),
        &Dims::d1(1024),
        &Config::abs(BOUND),
        &mut szlite::Scratch::new(),
        &mut stream,
    )
    .unwrap();
    stream[5] = 1;
    let t = TempPath::new("read-f64-sz", "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f
        .create_dataset(
            DatasetSpec::new("d", Dtype::F32, &[1024]).with_filter(FilterSpec {
                id: SZLITE_FILTER_ID,
                params: vec![],
            }),
        )
        .unwrap();
    let at = f.reserve(stream.len() as u64);
    f.write_chunk_at(id, 0, at, &stream, 4 * 1024).unwrap();
    f.close().unwrap();
    let r = H5Reader::open(t.path()).unwrap();
    for workers in [1usize, 2] {
        let typed = r.read_pipelined::<f32>("d", workers).map(|_| ());
        for res in [typed, r.read_full_pipelined("d", workers).map(|_| ())] {
            match res {
                Err(H5Error::Filter(SzError::Corrupt("dtype"))) => {}
                other => panic!("{other:?}"),
            }
        }
    }
}

#[test]
fn tiles_with_a_scalar_plane_read_as_the_scalar_decoder_restores_them() {
    // A 128³ field in 32³ tiles, NaNs planted in one plane of one tile:
    // that plane's rows replay on the scalar arm, every other plane of
    // the read (where the host has one) on the vector arm. Each tile
    // must restore as the scalar reference decodes its stream.
    let (side, tile) = (128usize, 32usize);
    let mut data = rtm::snapshot(RtmParams::with_side(side)).fields[0]
        .data
        .clone();
    for y in 0..tile {
        for x in (3..tile).step_by(7) {
            data[(5 * side + y) * side + x] = f32::NAN;
        }
    }
    let spec = sz_spec("rtm/p", &[side as u64; 3], &[tile as u64; 3], 1e-3);
    let t = TempPath::new("read-scalar-plane", "h5l");
    let f = H5File::create(t.path()).unwrap();
    let id = f.create_dataset(spec).unwrap();
    f.write_full(id, &f32_bytes(&data)).unwrap();
    f.close().unwrap();

    let cfg = Config::abs(1e-3);
    let dims = Dims::d3(tile, tile, tile);
    let (mut scratch, mut restored) = (szlite::DecompressScratch::new(), Vec::<f32>::new());
    let mut want = vec![0.0f32; data.len()];
    let tiles = side / tile;
    for c in 0..tiles * tiles * tiles {
        let origin = [
            c / tiles / tiles * tile,
            c / tiles % tiles * tile,
            c % tiles * tile,
        ];
        let mut values = Vec::with_capacity(tile * tile * tile);
        for z in 0..tile {
            for y in 0..tile {
                let row = ((origin[0] + z) * side + origin[1] + y) * side + origin[2];
                values.extend_from_slice(&data[row..row + tile]);
            }
        }
        let stream = szlite::compress(&values, &dims, &cfg).unwrap();
        szlite::decompress_into_scalar(&stream, &mut scratch, &mut restored).unwrap();
        for z in 0..tile {
            for y in 0..tile {
                let row = ((origin[0] + z) * side + origin[1] + y) * side + origin[2];
                want[row..row + tile].copy_from_slice(&restored[(z * tile + y) * tile..][..tile]);
            }
        }
    }
    let r = H5Reader::open(t.path()).unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for workers in [1usize, 2, 8] {
        let got = r.read_pipelined::<f32>("rtm/p", workers).unwrap();
        assert!(bits(&got) == bits(&want), "workers={workers}");
    }
}

/// Arbitrary 1-3D shapes with chunk extents that divide the grid (the
/// SZ filter's params carry one tile shape per dataset), plus data.
fn grid_chunk_data() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<f32>)> {
    prop_oneof![
        ((1u64..32), (1u64..8)).prop_map(|(c, k)| (vec![c * k], vec![c])),
        ((1u64..12), (1u64..12), (1u64..4), (1u64..4))
            .prop_map(|(ca, cb, ka, kb)| (vec![ca * ka, cb * kb], vec![ca, cb])),
        (
            (1u64..6),
            (1u64..6),
            (1u64..6),
            (1u64..3),
            (1u64..3),
            (1u64..3)
        )
            .prop_map(|(ca, cb, cc, ka, kb, kc)| (
                vec![ca * ka, cb * kb, cc * kc],
                vec![ca, cb, cc]
            )),
    ]
    .prop_flat_map(|(dims, chunk)| {
        let n: usize = dims.iter().product::<u64>() as usize;
        (
            Just(dims),
            Just(chunk),
            proptest::collection::vec(-1e5f32..1e5f32, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, 0x4EAD_71FE) /* pinned: deterministic CI */)]

    #[test]
    fn pipelined_roundtrip_holds_bound_and_matches_serial(
        (dims, chunk, data) in grid_chunk_data(),
        eb in 1e-4f64..1.0,
    ) {
        // Full pooled round trip: compress through the write pipeline,
        // read back through the decode pipeline, check value-identity
        // with the serial reader and the error bound against the
        // original data.
        let spec = sz_spec("prop", &dims, &chunk, eb);
        let bytes = f32_bytes(&data);

        let t = TempPath::new("read-prop", "h5l");
        let f = H5File::create(t.path()).unwrap();
        let id = f.create_dataset(spec).unwrap();
        let es = EventSet::new(2);
        f.write_full_pipelined(id, &bytes, 3, &es, None).unwrap();
        es.wait().unwrap();
        f.close().unwrap();

        let r = H5Reader::open(t.path()).unwrap();
        let serial = r.read_f32("prop").unwrap();
        let restored = r.read_pipelined::<f32>("prop", 3).unwrap();
        prop_assert_eq!(&restored, &serial);
        prop_assert_eq!(restored.len(), data.len());
        for (&a, &b) in data.iter().zip(&restored) {
            prop_assert!((f64::from(a) - f64::from(b)).abs() <= eb);
        }
    }
}
