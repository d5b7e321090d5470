//! Property-based tests for the szlite pipeline invariants.

use proptest::prelude::*;
use szlite::{
    compress, compress_into, compress_reference, compress_with_stats, decompress, decompress_into,
    huffman::{HuffmanDecoder, HuffmanEncoder},
    lossless,
    predictor::Lorenzo,
    quantizer::{Quantizer, UNPREDICTABLE},
    stream::{get_varint, put_varint, BitReader, BitWriter},
    stream_info, Config, DecompressScratch, Dims, Scratch,
};

/// Arbitrary small 1-3D shapes with matching data lengths.
fn shape_and_data() -> impl Strategy<Value = (Vec<usize>, Vec<f32>)> {
    prop_oneof![
        (1usize..200).prop_map(|n| vec![n]),
        ((1usize..24), (1usize..24)).prop_map(|(a, b)| vec![a, b]),
        ((1usize..10), (1usize..10), (1usize..10)).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
    .prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        (
            Just(dims),
            proptest::collection::vec(-1e6f32..1e6f32, n..=n),
        )
    })
}

/// Shapes that stress the row-block schedule: 1-D, 2-D and 3-D
/// (including a single plane) with `ny` and `nx` on both sides of the
/// lane count, so blocks, leftover rows and rows shorter than the lag
/// ramp all occur — and planes of 8 to 24 rows of 1 to 40 points,
/// whose 8-row blocks run the vector kernels' ramps at every length,
/// overlapping for short rows and around many steady-state iterations
/// for long ones, and from 16 rows on the compressor's transitions
/// from one block to the next.
fn schedule_shape() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (1usize..=40).prop_map(|n| vec![n]),
        ((1usize..=9), (1usize..=9)).prop_map(|(a, b)| vec![a, b]),
        ((1usize..=4), (1usize..=9), (1usize..=9)).prop_map(|(a, b, c)| vec![a, b, c]),
        ((1usize..=3), (8usize..=24), (1usize..=40)).prop_map(|(a, b, c)| {
            if a == 1 {
                vec![b, c]
            } else {
                vec![a, b, c]
            }
        }),
    ]
}

/// `decode_into` of `n` symbols against `n` calls of the bit-at-a-time
/// walk: the same symbols, the same bits left, or the same error after
/// the same symbols.
fn assert_batch_matches_walk(
    dec: &HuffmanDecoder,
    bits: &[u8],
    n: usize,
) -> Result<(), TestCaseError> {
    let mut walk = BitReader::new(bits);
    let mut want = Vec::new();
    let mut failed = None;
    for _ in 0..n {
        match dec.decode_one_reference(&mut walk) {
            Ok(symbol) => want.push(symbol),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let mut batch = BitReader::new(bits);
    // Dirty and longer than some `n`: nothing of it may show through.
    let mut got = vec![u32::MAX; 5];
    let result = dec.decode_into(&mut batch, n, &mut got);
    prop_assert_eq!(&got, &want, "symbols of {} asked", n);
    match failed {
        None => {
            prop_assert_eq!(result, Ok(()));
            prop_assert_eq!(batch.bits_remaining(), walk.bits_remaining());
        }
        Some(e) => prop_assert_eq!(result, Err(e)),
    }
    Ok(())
}

/// The encoder of a symbol stream: [`HuffmanEncoder::from_freqs`] over
/// its histogram.
fn encoder(symbols: &[u32], alphabet: usize) -> HuffmanEncoder {
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    HuffmanEncoder::from_freqs(&freqs)
}

/// The decoder of the serialized table that gives symbol `s` the code
/// length `lens[s]` (0: absent), through the one table initialisation
/// there is; it takes Kraft-oversubscribed lengths too.
fn table_of(lens: &[u8]) -> HuffmanDecoder {
    let present: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();
    let mut table = Vec::new();
    put_varint(&mut table, lens.len() as u64);
    put_varint(&mut table, present.len() as u64);
    let mut prev = 0;
    for &s in &present {
        put_varint(&mut table, (s - prev) as u64);
        table.push(lens[s]);
        prev = s;
    }
    HuffmanDecoder::deserialize(&table, &mut 0).unwrap()
}

/// Symbols whose frequencies fall off geometrically from `0`, so codes
/// run from 1 bit (two or more per table peek) to past the table width.
fn skewed_symbols(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u64>(), 1..max_len)
        .prop_map(|words| words.iter().map(|w| w.trailing_zeros().min(40)).collect())
}

/// A smooth field with escapes planted by `density`: 0 none, 1 sparse
/// random, 2 every point of some anti-diagonals `(x + y) % 3 == c` —
/// the lanes of a block visit `x + y = const` in one iteration, so
/// several of them escape together — 3 both. Escapes cycle through
/// NaN, ±Inf, spikes far outside the quantizer radius and `-0.0` (which
/// escapes, and then *is* a reconstruction, next to a spike).
fn escape_field(dims: &[usize], seed: u64, density: u8) -> Vec<f32> {
    let nx = *dims.last().unwrap();
    let ny = if dims.len() >= 2 {
        dims[dims.len() - 2]
    } else {
        1
    };
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let diagonal = next() % 3;
    (0..dims.iter().product::<usize>())
        .map(|i| {
            let (x, y) = (i % nx, (i / nx) % ny);
            let r = next();
            let smooth = (i as f64 * 0.37).sin() + (r % 1000) as f64 * 1e-4;
            let sparse = density & 1 != 0 && r % 11 == 0;
            let striped = density & 2 != 0 && (x + y) as u64 % 3 == diagonal;
            let v = if sparse || striped {
                match (r >> 20) % 6 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 1e9,
                    4 => -1e9,
                    _ => -0.0,
                }
            } else {
                smooth
            };
            v as f32
        })
        .collect()
}

/// Per-point replay of a stream from public pieces only: bit-at-a-time
/// Huffman walk, branchy [`Lorenzo::predict`] over a full-grid
/// reconstruction, literals pulled in raster order.
fn replay_per_point(bytes: &[u8]) -> Vec<f32> {
    let info = stream_info(bytes).unwrap();
    let body = &bytes[info.payload_offset..info.payload_offset + info.payload_len];
    let payload = lossless::decompress(body).unwrap();
    let mut pos = 0;
    let dec = HuffmanDecoder::deserialize(&payload, &mut pos).unwrap();
    let n = get_varint(&payload, &mut pos).unwrap() as usize;
    let code_len = get_varint(&payload, &mut pos).unwrap() as usize;
    let mut bits = BitReader::new(&payload[pos..pos + code_len]);
    pos += code_len;
    let _n_literals = get_varint(&payload, &mut pos).unwrap();
    let quant = Quantizer::new(info.eb);
    let lorenzo = Lorenzo::new(&info.dims);
    let [nz, ny, nx] = lorenzo.strides().ext;
    let mut recon = vec![0.0f64; n];
    let mut out = Vec::with_capacity(n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let pred = lorenzo.predict(&recon, z, y, x);
                let code = dec.decode_one_reference(&mut bits).unwrap();
                let (v, r) = if code == UNPREDICTABLE {
                    let v = f32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap());
                    pos += 4;
                    (
                        v,
                        Some(f64::from(v)).filter(|r| r.is_finite()).unwrap_or(0.0),
                    )
                } else {
                    let v = quant.reconstruct(code, pred) as f32;
                    (v, f64::from(v))
                };
                recon[out.len()] = r;
                out.push(v);
            }
        }
    }
    out
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The fused row-block compressor must emit exactly the reference
/// stream and the row-block decoder exactly the per-point replay, with
/// scratches and output buffers left dirty by a differently shaped run.
///
/// With `ties` the bound is a power of two and every finite value a
/// multiple of it, so reconstructions stay multiples of `2·eb`, every
/// other quotient is an exact `k + ½` tie and its reconstruction sits
/// exactly on the bound.
fn assert_schedule_equivalence(
    dims: &[usize],
    seed: u64,
    density: u8,
    ties: bool,
) -> Result<(), TestCaseError> {
    let mut data = escape_field(dims, seed, density);
    let d = Dims::from_slice(dims).unwrap();
    let eb = if ties { 1.0 / 64.0 } else { 1e-2 };
    if ties {
        for v in &mut data {
            *v = ((f64::from(*v) / eb).round() * eb) as f32;
        }
    }
    // The ±1e9 spikes (and their neighbors' predictions) are residuals
    // far past the codebook's `RADIUS · 2eb`: escapes.
    let cfg = Config::abs(eb);
    let mut scratch = Scratch::new();
    let mut dscratch = DecompressScratch::new();
    let mut fused = vec![0xAAu8; 5];
    let mut decoded = Vec::new();
    let dirty = escape_field(&[3, 7, 5], seed ^ 0x9E37, 1);
    compress_into(&dirty, &Dims::d3(3, 7, 5), &cfg, &mut scratch, &mut fused).unwrap();
    decompress_into(&fused, &mut dscratch, &mut decoded).unwrap();

    let reference = compress_reference(&data, &d, &cfg).unwrap();
    let stats = compress_into(&data, &d, &cfg, &mut scratch, &mut fused).unwrap();
    prop_assert_eq!(&fused, &reference, "stream diverged, dims {:?}", dims);
    let rdims = decompress_into(&fused, &mut dscratch, &mut decoded).unwrap();
    prop_assert_eq!(rdims, d);
    let replayed = replay_per_point(&fused);
    prop_assert_eq!(
        le_bytes(&decoded),
        le_bytes(&replayed),
        "decode diverged, dims {:?}",
        dims
    );
    // Escapes round-trip bit-exactly, in place.
    let escaped = data.iter().filter(|v| !v.is_finite()).count();
    prop_assert!(stats.n_unpredictable >= escaped);
    for (a, b) in data.iter().zip(&decoded) {
        if !a.is_finite() {
            prop_assert_eq!(le_bytes(&[*a]), le_bytes(&[*b]));
        }
    }
    Ok(())
}

/// The reduced stencils (1-D: `+x` only; first plane: `+x +y −xy`)
/// on every shape class that selects them — rows, single columns,
/// planes with and without full lane blocks, single-row volumes whose
/// later planes go back to the full stencil — with `-0.0`, NaN, ±Inf
/// and spike inputs at every density, plain and at exact ties.
#[test]
fn low_order_stencils_match_oracles() {
    let shapes: [&[usize]; 14] = [
        &[1],
        &[2],
        &[5],
        &[64],
        &[1000],
        &[1, 7],
        &[13, 1],
        &[2, 5],
        &[4, 4],
        &[5, 9],
        &[9, 33],
        &[1, 1, 12],
        &[3, 1, 9],
        &[2, 6, 5],
    ];
    for (k, dims) in shapes.into_iter().enumerate() {
        for density in 0..4 {
            for ties in [false, true] {
                let seed = 0x5EED ^ ((k as u64) << 8 | u64::from(density));
                assert_schedule_equivalence(dims, seed, density, ties).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x52_1173) /* pinned: deterministic CI */)]

    #[test]
    fn row_block_schedule_matches_oracles_f32(
        dims in schedule_shape(),
        seed in any::<u64>(),
        density in 0u8..4,
        ties in any::<bool>(),
    ) {
        assert_schedule_equivalence(&dims, seed, density, ties)?;
    }

    #[test]
    fn bit_writer_batch_matches_bit_at_a_time(
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((any::<u32>(), 1u8..=32), 0..4096)),
            0..8,
        ),
    ) {
        // Batches of up to 4096 codes interleaved with runs of
        // one-code calls against an oracle that appends one bit at a
        // time: on a fresh writer, then on one recycling its buffer.
        // The oracle reads the low `len` bits of a code.
        let low = |len: u8| ((1u64 << len) - 1) as u32;
        let mut oracle: Vec<bool> = Vec::new();
        for (_, codes) in &ops {
            for &(code, len) in codes {
                oracle.extend((0..len).rev().map(|b| code >> b & 1 == 1));
            }
        }
        let packed: Vec<u8> = oracle
            .chunks(8)
            .map(|c| c.iter().enumerate().fold(0u8, |a, (i, &b)| a | u8::from(b) << (7 - i)))
            .collect();
        let mut recycled = Vec::new();
        for _ in 0..2 {
            let mut w = BitWriter::with_buffer(recycled);
            let mut written = 0;
            for (batch, codes) in &ops {
                if *batch {
                    let bits = codes.iter().map(|&(_, len)| u64::from(len)).sum();
                    w.write_codes(bits, codes.iter().map(|&(code, len)| (code & low(len), len)));
                } else {
                    for &(code, len) in codes {
                        w.write_codes(u64::from(len), [(code & low(len), len)]);
                    }
                }
                written += codes.iter().map(|&(_, len)| usize::from(len)).sum::<usize>();
                prop_assert_eq!(w.bit_len(), written);
            }
            recycled = w.finish();
            prop_assert_eq!(&recycled, &packed);
        }
    }

    #[test]
    fn error_bound_invariant_abs((dims, data) in shape_and_data(), eb in 1e-4f64..10.0) {
        let d = Dims::from_slice(&dims).unwrap();
        let bytes = compress(&data, &d, &Config::abs(eb)).unwrap();
        let (restored, rdims) = decompress(&bytes).unwrap();
        prop_assert_eq!(rdims, d);
        prop_assert_eq!(restored.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&restored).enumerate() {
            prop_assert!(
                (f64::from(a) - f64::from(b)).abs() <= eb,
                "point {} of {}: {} vs {} (eb {})", i, data.len(), a, b, eb
            );
        }
    }

    #[test]
    fn error_bound_invariant_rel((dims, data) in shape_and_data(), r in 1e-5f64..1e-1) {
        let d = Dims::from_slice(&dims).unwrap();
        let bytes = compress(&data, &d, &Config::rel(r)).unwrap();
        let info = szlite::stream_info(&bytes).unwrap();
        let (restored, _) = decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&restored) {
            prop_assert!((f64::from(a) - f64::from(b)).abs() <= info.eb);
        }
    }

    #[test]
    fn compressed_size_reported_accurately((dims, data) in shape_and_data()) {
        let d = Dims::from_slice(&dims).unwrap();
        let (bytes, st) = compress_with_stats(&data, &d, &Config::rel(1e-3)).unwrap();
        prop_assert_eq!(bytes.len(), st.compressed_bytes);
        prop_assert_eq!(st.n_points, data.len());
    }

    #[test]
    fn lossless_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = lossless::compress(&data);
        let out = lossless::decompress(&c).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn lossless_never_expands_much(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = lossless::compress(&data);
        prop_assert!(c.len() <= data.len() + 16);
    }

    #[test]
    fn huffman_roundtrip(symbols in proptest::collection::vec(0u32..512, 1..2000)) {
        let enc = encoder(&symbols, 512);
        let mut table = Vec::new();
        enc.serialize(&mut table);
        let mut w = BitWriter::new();
        enc.encode(&symbols, &mut w);
        let bits = w.finish();
        let mut pos = 0;
        let dec = HuffmanDecoder::deserialize(&table, &mut pos).unwrap();
        let mut r = BitReader::new(&bits);
        let mut decoded = Vec::new();
        dec.decode_into(&mut r, symbols.len(), &mut decoded).unwrap();
        prop_assert_eq!(decoded, symbols);
    }

    #[test]
    fn batch_decoder_equivalent_to_the_walk(
        symbols in skewed_symbols(600),
        wide in proptest::collection::vec(0u32..512, 1..300),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        extra in 0usize..6,
    ) {
        // Narrow tables (long runs of 1- to 3-bit codes: two per peek
        // nearly always) and wide ones (codes around 9 bits: rarely),
        // on their own streams, on every cut of those, and on garbage.
        for (symbols, alphabet) in [(&symbols, 41), (&wide, 512)] {
            let enc = encoder(symbols, alphabet);
            let mut table = Vec::new();
            enc.serialize(&mut table);
            let mut w = BitWriter::new();
            enc.encode(symbols, &mut w);
            let bits = w.finish();
            let dec = HuffmanDecoder::deserialize(&table, &mut 0).unwrap();
            for n in [symbols.len(), symbols.len() + extra] {
                assert_batch_matches_walk(&dec, &bits, n)?;
                assert_batch_matches_walk(&dec, &garbage, n)?;
            }
            // Every truncation: the pair's second code, or the first,
            // falls in the zero padding of the peek.
            for cut in 0..bits.len() {
                assert_batch_matches_walk(&dec, &bits[..cut], symbols.len())?;
            }
        }
    }

    #[test]
    fn batch_decoder_equivalent_on_long_and_single_code_tables(
        lens in proptest::collection::vec(0u8..20, 1..300),
        deep in 13usize..25,
        picks in proptest::collection::vec(any::<u32>(), 1..300),
        single in 0u32..100,
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
        n in 0usize..400,
    ) {
        // A complete code of lengths 1, 2, …, deep − 1, deep − 1 (from
        // halving frequencies) on a stream that picks every symbol
        // alike, so most codes are past the table width, and its cuts.
        let freqs: Vec<u64> = (0..deep).map(|s| 1 << (deep - 1 - s)).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let symbols: Vec<u32> = picks.iter().map(|p| p % deep as u32).collect();
        let mut table = Vec::new();
        enc.serialize(&mut table);
        let mut w = BitWriter::new();
        enc.encode(&symbols, &mut w);
        let bits = w.finish();
        let dec = HuffmanDecoder::deserialize(&table, &mut 0).unwrap();
        for cut in (0..=bits.len()).rev() {
            assert_batch_matches_walk(&dec, &bits[..cut], symbols.len())?;
        }
        // Arbitrary length tables, Kraft-oversubscribed ones included;
        // and a table of one symbol (one 1-bit code), on random bits.
        let dec = table_of(&lens);
        assert_batch_matches_walk(&dec, &garbage, n)?;
        let enc = encoder(&[single], 100);
        let mut table = Vec::new();
        enc.serialize(&mut table);
        let dec = HuffmanDecoder::deserialize(&table, &mut 0).unwrap();
        assert_batch_matches_walk(&dec, &garbage, n)?;
        assert_batch_matches_walk(&dec, &vec![0; garbage.len()], n)?;
    }

    #[test]
    fn decompressor_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Must return an error or a valid result, never panic.
        let _ = decompress(&data);
    }

    #[test]
    fn truncation_never_panics((dims, data) in shape_and_data(), frac in 0.0f64..1.0) {
        let d = Dims::from_slice(&dims).unwrap();
        let bytes = compress(&data, &d, &Config::rel(1e-3)).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = decompress(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    }
}
