//! Byte-identity of the fused single-pass compressor against the
//! scalar reference pipeline on real workload data.
//!
//! `szlite::compress_into` fuses Lorenzo prediction, quantization and
//! Huffman frequency counting into one branch-free pass; the unit
//! suite pins it against `compress_reference` on synthetic inputs.
//! These tests close the remaining gap: every field of each paper
//! workload (Nyx, VPIC, RTM), at both a loose and a tight bound, with
//! one `Scratch` reused across all of them — the exact usage pattern
//! of the streaming pipeline.
//!
//! They also pin that the lossless stage's give-up costs these
//! workloads no bytes: `compress_reference` runs the same stage, so
//! the comparison above cannot see it. Each lossless-on stream must
//! carry exactly the body the exhaustive matcher (szlite's own test
//! oracle, included by path) would have produced from the payload that
//! body holds — token stream if smaller than the payload, stored
//! otherwise. The same holds tile by tile at the benchmark's chunk
//! shape, where the stage stores a payload by its can't-shrink bound
//! without running the matcher at all.

use szlite::lossless::{self, cannot_shrink, LzScratch, WINDOW};
use szlite::stream::put_varint;
use szlite::{compress_into, compress_reference, stream_info, Config, Dims, Scratch};
use workloads::{nyx, rtm, vpic, Dataset, Field, NyxParams, RtmParams, SnapshotStream, VpicParams};

#[path = "../../szlite/src/lossless/oracle.rs"]
mod lzss_oracle;

/// Payload bytes of an szlite stream (what follows the header).
fn body(stream: &[u8]) -> &[u8] {
    let info = stream_info(stream).unwrap();
    &stream[info.payload_offset..info.payload_offset + info.payload_len]
}

/// What the lossless stage of an szlite stream was given: its stored
/// body, expanded (`lossless::decompress` undoes a stored body too).
fn payload(stream: &[u8]) -> Vec<u8> {
    lossless::decompress(body(stream)).unwrap()
}

/// The lossless stage as it was before it could give up: mode byte 1 +
/// length + tokens when that is smaller than `payload`, else mode byte
/// 0 + `payload`.
fn exhaustive_lossless(payload: &[u8]) -> Vec<u8> {
    let mut out = vec![1u8];
    put_varint(&mut out, payload.len() as u64);
    lzss_oracle::tokens(payload, &mut out);
    if out.len() >= payload.len() {
        out.clear();
        out.push(0);
        out.extend_from_slice(payload);
    }
    out
}

fn assert_identical(ds: &Dataset, scratch: &mut Scratch) {
    for field in &ds.fields {
        let dims = Dims::from_slice(&field.dims).unwrap();
        for cfg in [Config::rel(1e-2), Config::rel(1e-4)] {
            let reference = compress_reference(&field.data, &dims, &cfg).unwrap();
            let mut fused = Vec::new();
            compress_into(&field.data, &dims, &cfg, scratch, &mut fused).unwrap();
            assert_eq!(
                fused, reference,
                "fused stream diverged on field '{}' (dims {:?})",
                field.name, field.dims
            );
        }
    }
}

/// `szlite::lossless` judges whole windows of this many bytes past the
/// first, so a payload is at risk only beyond two of them.
const GIVE_UP_WINDOW: usize = 16 << 10;

/// At the benchmark's bound and a size whose payloads span several
/// give-up windows, giving up must not have cost a byte.
fn assert_give_up_is_free(ds: &Dataset, scratch: &mut Scratch) {
    let mut judged = 0;
    for field in &ds.fields {
        let dims = Dims::from_slice(&field.dims).unwrap();
        let cfg = Config::rel(1e-3);
        let mut with = Vec::new();
        compress_into(&field.data, &dims, &cfg, scratch, &mut with).unwrap();
        let payload = payload(&with);
        judged += usize::from(payload.len() > 2 * GIVE_UP_WINDOW);
        assert!(
            body(&with) == exhaustive_lossless(&payload),
            "give-up changed the stored bytes of field '{}' ({} payload bytes)",
            field.name,
            payload.len()
        );
    }
    assert!(judged > 0, "every payload too short to be judged");
}

#[test]
fn nyx_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(&nyx::snapshot(NyxParams::with_side(24)), &mut scratch);
}

#[test]
fn vpic_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(
        &vpic::snapshot(VpicParams::with_particles(6000)),
        &mut scratch,
    );
}

#[test]
fn rtm_fields_byte_identical() {
    let mut scratch = Scratch::new();
    assert_identical(&rtm::snapshot(RtmParams::with_side(24)), &mut scratch);
}

#[test]
fn nyx_give_up_costs_no_bytes() {
    let mut scratch = Scratch::new();
    assert_give_up_is_free(&nyx::snapshot(NyxParams::with_side(64)), &mut scratch);
}

#[test]
fn vpic_give_up_costs_no_bytes() {
    let mut scratch = Scratch::new();
    assert_give_up_is_free(
        &vpic::snapshot(VpicParams::with_particles(1 << 16)),
        &mut scratch,
    );
}

#[test]
fn rtm_give_up_costs_no_bytes() {
    let mut scratch = Scratch::new();
    assert_give_up_is_free(&rtm::snapshot(RtmParams::with_side(64)), &mut scratch);
}

/// `T³` tiles of a cubic field, in raster order of the tile grid: what
/// a chunked dataset's filter compresses one at a time.
fn tiles<const T: usize>(field: &Field) -> Vec<Vec<f32>> {
    let n = field.dims[0];
    assert!(field.dims == [n, n, n] && n.is_multiple_of(T));
    let mut out = Vec::new();
    for (tz, ty, tx) in
        (0..n / T).flat_map(|z| (0..n / T).flat_map(move |y| (0..n / T).map(move |x| (z, y, x))))
    {
        let mut tile = Vec::with_capacity(T * T * T);
        for z in tz * T..(tz + 1) * T {
            for y in ty * T..(ty + 1) * T {
                let row = (z * n + y) * n + tx * T;
                tile.extend_from_slice(&field.data[row..row + T]);
            }
        }
        out.push(tile);
    }
    out
}

/// The stream of one 32³ tile at `cfg`.
fn tile_stream(tile: &[f32], cfg: &Config, scratch: &mut Scratch) -> Vec<u8> {
    let mut with = Vec::new();
    compress_into(tile, &Dims::d3(32, 32, 32), cfg, scratch, &mut with).unwrap();
    with
}

/// The benchmark's chunk shape: every 32³ tile of an RTM 64³ field,
/// compressed on its own at `Config::rel(1e-3)`, carries exactly the
/// body the exhaustive matcher would have produced — and the lossless
/// stage's can't-shrink bound, not the matcher, decided some of them.
#[test]
fn rtm_tiles_cost_no_bytes() {
    let mut scratch = Scratch::new();
    let mut lz = LzScratch::default();
    let ds = SnapshotStream::rtm(64).seed(1).snapshot(0);
    let cfg = Config::rel(1e-3);
    let mut decided = 0;
    for (t, tile) in tiles::<32>(&ds.fields[0]).iter().enumerate() {
        let with = tile_stream(tile, &cfg, &mut scratch);
        let payload = payload(&with);
        decided += usize::from(cannot_shrink(&payload, &mut lz));
        assert!(
            body(&with) == exhaustive_lossless(&payload),
            "tile {t} ({} payload bytes) stored other bytes",
            payload.len()
        );
    }
    assert!(decided > 0, "the bound decided no tile");
}

/// A compressible tile payload of at most 64 KiB: a 32³ tile of a Nyx
/// dark-matter density field, which the matcher shrinks by a few
/// percent, to exactly the exhaustive bytes.
#[test]
fn nyx_density_tile_is_still_matched() {
    let mut scratch = Scratch::new();
    let ds = SnapshotStream::nyx(64).seed(1).snapshot(0);
    let cfg = Config::rel(1e-3);
    let field = ds
        .fields
        .iter()
        .find(|f| f.name == "dark_matter_density")
        .unwrap();
    let tile = &tiles::<32>(field)[0];
    let with = tile_stream(tile, &cfg, &mut scratch);
    let payload = payload(&with);
    let lossless = body(&with);
    assert!(
        lossless == exhaustive_lossless(&payload),
        "field '{}'",
        field.name
    );
    assert!(payload.len() <= WINDOW);
    assert!(!cannot_shrink(&payload, &mut LzScratch::default()));
    assert_eq!(
        lossless[0], 1,
        "the matcher did not win on '{}'",
        field.name
    );
}
