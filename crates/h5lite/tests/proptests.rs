//! Property tests for the h5lite container format.

use h5lite::chunk::{gather_tile_into, scatter_tile};
use h5lite::meta::{
    deserialize_table, serialize_table, AttrValue, ChunkInfo, DatasetMeta, Dtype, FilterSpec,
};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = Dtype> {
    prop_oneof![Just(Dtype::F32), Just(Dtype::U8)]
}

/// Strings whose length is drawn from `len` and whose characters are
/// drawn uniformly from `chars`.
fn text(
    chars: impl IntoIterator<Item = char>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    let chars: Vec<char> = chars.into_iter().collect();
    proptest::collection::vec(0..chars.len(), len)
        .prop_map(move |picks| picks.iter().map(|&i| chars[i]).collect())
}

fn arb_attr() -> impl Strategy<Value = (String, AttrValue)> {
    (
        text('a'..='z', 1..13),
        prop_oneof![
            any::<f64>()
                .prop_filter("finite", |v| v.is_finite())
                .prop_map(AttrValue::F64),
            any::<i64>().prop_map(AttrValue::I64),
            text(' '..='~', 0..25).prop_map(AttrValue::Str),
        ],
    )
}

fn arb_meta() -> impl Strategy<Value = DatasetMeta> {
    (
        text(('a'..='z').chain(['/']), 1..21),
        arb_dtype(),
        proptest::collection::vec(1u64..64, 1..4),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                0u64..1_000_000,
                0u64..1_000_000,
                any::<u32>(),
            ),
            0..6,
        ),
        proptest::collection::vec(arb_attr(), 0..4),
        proptest::option::of(proptest::collection::vec(1u64..8, 1..4)),
        proptest::collection::vec(
            (0u32..100_000, proptest::collection::vec(any::<u8>(), 0..16)),
            0..3,
        ),
    )
        .prop_map(|(name, dtype, dims, raw_chunks, attrs, cd, filters)| {
            let chunk_dims = cd.filter(|c| c.len() == dims.len());
            DatasetMeta {
                name,
                dtype,
                dims,
                chunk_dims,
                filters: filters
                    .into_iter()
                    .map(|(id, params)| FilterSpec { id, params })
                    .collect(),
                chunks: raw_chunks
                    .into_iter()
                    .enumerate()
                    .map(|(i, (_, offset, stored, raw, crc))| ChunkInfo {
                        index: i as u64,
                        offset,
                        stored,
                        raw,
                        crc,
                    })
                    .collect(),
                attrs,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(128, 0x85_1173) /* pinned: deterministic CI */)]

    #[test]
    fn metadata_table_roundtrips(metas in proptest::collection::vec(arb_meta(), 0..5)) {
        let bytes = serialize_table(&metas);
        let parsed = deserialize_table(&bytes).unwrap();
        prop_assert_eq!(parsed, metas);
    }

    #[test]
    fn metadata_truncation_never_panics(metas in proptest::collection::vec(arb_meta(), 1..3), frac in 0.0f64..1.0) {
        let bytes = serialize_table(&metas);
        let cut = ((bytes.len() as f64) * frac) as usize;
        let _ = deserialize_table(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    }

    #[test]
    fn tiles_cover_dataset_exactly(
        dims in proptest::collection::vec(1u64..12, 1..4),
        chunk in proptest::collection::vec(1u64..6, 1..4),
        elem in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        prop_assume!(dims.len() == chunk.len());
        let n: u64 = dims.iter().product();
        let data: Vec<u8> = (0..n as usize * elem).map(|i| (i % 251) as u8).collect();
        let n_chunks: u64 = dims.iter().zip(&chunk).map(|(&d, &c)| d.div_ceil(c)).product();
        let mut rebuilt = vec![0xFFu8; data.len()];
        let (mut total_tile_bytes, mut tile) = (0usize, Vec::new());
        for c in 0..n_chunks {
            gather_tile_into(&data, &dims, elem, &chunk, c, &mut tile).unwrap();
            total_tile_bytes += tile.len();
            scatter_tile(&mut rebuilt, &dims, elem, &chunk, c, &tile).unwrap();
        }
        // Tiles partition the buffer: total bytes match and scatter
        // reconstructs the original exactly (every byte visited).
        prop_assert_eq!(total_tile_bytes, data.len());
        prop_assert_eq!(rebuilt, data);
    }
}
