//! Integration of H5File with an externally managed SharedFile, plus
//! async event-set writes feeding recorded chunks — the exact
//! composition the predictive write engine uses.

use h5lite::{crc32c, BufferPool, DatasetSpec, Dtype, EventSet, H5File, H5Reader};
use pfsim::SharedFile;
use testutil::TempPath;

/// RAII temp path: the container file is removed when the guard drops,
/// even if an assertion fails mid-test.
fn tmp(name: &str) -> TempPath {
    TempPath::new(&format!("h5lite-int-{name}"), "h5l")
}

#[test]
fn from_shared_wraps_fresh_file() {
    let guard = tmp("fresh");
    let path = guard.path().to_path_buf();
    let shared = SharedFile::create(&path).unwrap();
    let file = H5File::from_shared(shared).unwrap();
    assert!(file.tail() >= h5lite::SUPERBLOCK);
    let id = file
        .create_dataset(DatasetSpec::new("x", Dtype::U8, &[3]))
        .unwrap();
    file.write_full(id, &[7, 8, 9]).unwrap();
    file.close().unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert_eq!(r.read_raw("x").unwrap(), vec![7, 8, 9]);
}

#[test]
fn async_chunk_writes_then_close() {
    // Chunks queued on the event set at pre-reserved offsets through
    // the async emission primitive (the overlap engine's pattern) must
    // produce a valid readable file.
    let guard = tmp("async");
    let path = guard.path().to_path_buf();
    let file = H5File::create(&path).unwrap();
    let n_chunks = 4u64;
    let chunk_elems = 32u64;
    let id = file
        .create_dataset(
            DatasetSpec::new("d", Dtype::F32, &[n_chunks * chunk_elems]).chunked(&[chunk_elems]),
        )
        .unwrap();
    let es = EventSet::new(2);
    let pool = std::sync::Arc::new(BufferPool::new());
    let chunk_bytes = chunk_elems * 4;
    let base = file.reserve(n_chunks * chunk_bytes);
    for c in 0..n_chunks {
        let vals: Vec<f32> = (0..chunk_elems).map(|i| (c * 100 + i) as f32).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let offset = base + c * chunk_bytes;
        file.write_chunk_at_async(id, c, offset, bytes, chunk_bytes, &es, None, pool.clone())
            .unwrap();
    }
    es.wait().unwrap();
    file.close().unwrap();
    assert!(!pool.is_empty(), "landed buffers return to the pool");

    let r = H5Reader::open(&path).unwrap();
    let vals = r.read_f32("d").unwrap();
    for c in 0..n_chunks {
        for i in 0..chunk_elems {
            assert_eq!(vals[(c * chunk_elems + i) as usize], (c * 100 + i) as f32);
        }
    }
}

#[test]
fn reader_rejects_incomplete_chunk_set() {
    let guard = tmp("incomplete");
    let path = guard.path().to_path_buf();
    let file = H5File::create(&path).unwrap();
    let id = file
        .create_dataset(DatasetSpec::new("d", Dtype::U8, &[8]).chunked(&[4]))
        .unwrap();
    // Record only one of the two chunks.
    let off = file.reserve(4);
    file.shared_file().write_at(off, &[1, 2, 3, 4]).unwrap();
    file.record_chunk(
        id,
        h5lite::ChunkInfo {
            index: 0,
            offset: off,
            stored: 4,
            raw: 4,
            crc: crc32c(&[1, 2, 3, 4]),
        },
    )
    .unwrap();
    file.close().unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert!(r.read_raw("d").is_err());
}

#[test]
fn two_extent_chunk_concatenates_in_order() {
    // The overflow layout: one chunk stored as an in-slot prefix plus
    // an appended tail; the reader must concatenate in record order.
    let guard = tmp("twoextent");
    let path = guard.path().to_path_buf();
    let file = H5File::create(&path).unwrap();
    let id = file
        .create_dataset(DatasetSpec::new("d", Dtype::U8, &[6]).chunked(&[6]))
        .unwrap();
    let a = file.reserve(4);
    file.shared_file().write_at(a, &[10, 11, 12, 13]).unwrap();
    file.record_chunk(
        id,
        h5lite::ChunkInfo {
            index: 0,
            offset: a,
            stored: 4,
            raw: 6,
            crc: crc32c(&[10, 11, 12, 13]),
        },
    )
    .unwrap();
    let b = file.reserve(2);
    file.shared_file().write_at(b, &[14, 15]).unwrap();
    file.record_chunk(
        id,
        h5lite::ChunkInfo {
            index: 0,
            offset: b,
            stored: 2,
            raw: 0,
            crc: crc32c(&[14, 15]),
        },
    )
    .unwrap();
    file.close().unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert_eq!(r.read_raw("d").unwrap(), vec![10, 11, 12, 13, 14, 15]);
}
