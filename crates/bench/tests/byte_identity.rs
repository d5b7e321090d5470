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
//! oracle, included by path) would have produced from the lossless-off
//! payload — token stream if smaller than the payload, stored
//! otherwise.

use szlite::stream::put_varint;
use szlite::{compress_into, compress_reference, stream_info, Config, Dims, Scratch};
use workloads::{nyx, rtm, vpic, Dataset, NyxParams, RtmParams, VpicParams};

#[path = "../../szlite/src/lossless/oracle.rs"]
mod lzss_oracle;

/// Payload bytes of an szlite stream (what follows the header).
fn body(stream: &[u8]) -> &[u8] {
    let info = stream_info(stream).unwrap();
    &stream[info.payload_offset..info.payload_offset + info.payload_len]
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
        for cfg in [Config::rel(1e-2), Config::rel(1e-4).with_lossless(false)] {
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
        let (mut with, mut without) = (Vec::new(), Vec::new());
        compress_into(&field.data, &dims, &cfg, scratch, &mut with).unwrap();
        let plain = cfg.with_lossless(false);
        compress_into(&field.data, &dims, &plain, scratch, &mut without).unwrap();
        let payload = body(&without);
        judged += usize::from(payload.len() > 2 * GIVE_UP_WINDOW);
        assert!(
            body(&with) == exhaustive_lossless(payload),
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
