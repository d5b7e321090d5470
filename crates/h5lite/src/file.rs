//! The h5lite container: writer and reader.
//!
//! A writer appends chunk data to a [`SharedFile`] and keeps dataset
//! metadata in memory; `close()` serializes the metadata table to the
//! end of the file and rewrites the superblock to point at it. Clones
//! of a writer share state, so rank threads in a parallel write all
//! hold the same file — mirroring parallel HDF5's shared-file model.
//!
//! Every operation has one body. A dataset write tiles, filters and
//! emits through [`compress_chunks`] at whatever worker count the
//! caller names ([`H5File::write_full`] is the 1-worker, synchronous
//! instance of [`H5File::write_full_pipelined`]); a chunk reaches the
//! file through [`H5File::write_chunk_at`] or its queued sibling
//! [`H5File::write_chunk_at_async`], which are the only places a
//! checksum is taken and a chunk recorded; a dataset read verifies
//! and inverts every chunk through [`H5Reader::read_pipelined`],
//! generic over what the dataset is restored as — each worker writes a
//! restored value once, into its place in the one output buffer
//! ([`H5Reader::read_full_pipelined`] is its byte instance and
//! [`H5Reader::read_raw`] that at one worker).

use crate::asyncq::EventSet;
use crate::chunk::{scatter_tile, slab_points, tile_points};
use crate::crc::crc32c;
use crate::error::{H5Error, Result};
use crate::filter::{invert_to, FilterScratch, ReadElement};
use crate::meta::{
    deserialize_table, serialize_table, AttrValue, ChunkInfo, DatasetMeta, Dtype, FilterSpec,
};
use crate::pipeline::{compress_chunks, ordered_fanout};
use crate::pool::BufferPool;
use pfsim::{SharedFile, Throttle};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// File magic "H5LT".
pub const MAGIC: u32 = 0x544C3548;
/// The one format version this crate writes and reads.
pub const VERSION: u8 = 2;
/// Superblock flag bit: chunk records carry CRC32C checksums. Always
/// set; a superblock without it does not open.
const FLAG_CHUNK_CRC: u8 = 1;
/// Reserved superblock size at offset 0.
pub const SUPERBLOCK: u64 = 32;

/// Where a validated superblock says the metadata table lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Superblock {
    table_offset: u64,
    table_len: u64,
    table_crc: u32,
}

impl Superblock {
    /// Parse and self-validate a raw superblock. The trailer CRC
    /// covers bytes 0..28, so a torn superblock rewrite is caught
    /// here rather than as a garbage table offset.
    pub fn parse(sb: &[u8; SUPERBLOCK as usize]) -> Result<Self> {
        let magic = u32::from_le_bytes(sb[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(H5Error::BadMagic);
        }
        if sb[4] != VERSION {
            return Err(H5Error::UnsupportedVersion(sb[4]));
        }
        let recorded = u32::from_le_bytes(sb[28..32].try_into().unwrap());
        let actual = crc32c(&sb[0..28]);
        if recorded != actual {
            return Err(H5Error::ChecksumMismatch {
                context: "superblock",
                offset: 0,
                expected: recorded,
                actual,
            });
        }
        // Readers verify every chunk against its record's CRC, so a
        // header that claims there are none is not this format.
        if sb[5] != FLAG_CHUNK_CRC {
            return Err(H5Error::Corrupt("superblock flags"));
        }
        Ok(Superblock {
            table_offset: u64::from_le_bytes(sb[8..16].try_into().unwrap()),
            table_len: u64::from_le_bytes(sb[16..24].try_into().unwrap()),
            table_crc: u32::from_le_bytes(sb[24..28].try_into().unwrap()),
        })
    }

    /// Encode a superblock (with trailer CRC) for `close()`.
    pub(crate) fn encode(table_offset: u64, table_len: u64, table_crc: u32) -> Vec<u8> {
        let mut sb = Vec::with_capacity(SUPERBLOCK as usize);
        sb.extend_from_slice(&MAGIC.to_le_bytes());
        sb.push(VERSION);
        sb.push(FLAG_CHUNK_CRC);
        sb.extend_from_slice(&[0u8; 2]);
        sb.extend_from_slice(&table_offset.to_le_bytes());
        sb.extend_from_slice(&table_len.to_le_bytes());
        sb.extend_from_slice(&table_crc.to_le_bytes());
        let crc = crc32c(&sb);
        sb.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(sb.len() as u64, SUPERBLOCK);
        sb
    }

    /// Read the metadata table this superblock points at from a file
    /// of `flen` bytes: extent, checksum, then structure — shared by
    /// [`H5Reader::open`] and the scrub pass.
    pub fn read_table(&self, file: &SharedFile, flen: u64) -> Result<Vec<DatasetMeta>> {
        if self
            .table_offset
            .checked_add(self.table_len)
            .is_none_or(|end| end > flen)
        {
            return Err(H5Error::Truncated("metadata table"));
        }
        let mut table = vec![0u8; self.table_len as usize];
        file.read_at(self.table_offset, &mut table)?;
        let actual = crc32c(&table);
        if actual != self.table_crc {
            return Err(H5Error::ChecksumMismatch {
                context: "metadata table",
                offset: self.table_offset,
                expected: self.table_crc,
                actual,
            });
        }
        deserialize_table(&table)
    }
}

/// Handle to a dataset within an open writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetId(usize);

/// Specification for creating a dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Full path name.
    pub name: String,
    /// Type of its elements.
    pub dtype: Dtype,
    /// Logical extents.
    pub dims: Vec<u64>,
    /// Chunk extents (`None` = contiguous).
    pub chunk_dims: Option<Vec<u64>>,
    /// Filter pipeline.
    pub filters: Vec<FilterSpec>,
}

impl DatasetSpec {
    /// Contiguous unfiltered dataset.
    pub fn new(name: impl Into<String>, dtype: Dtype, dims: &[u64]) -> Self {
        DatasetSpec {
            name: name.into(),
            dtype,
            dims: dims.to_vec(),
            chunk_dims: None,
            filters: Vec::new(),
        }
    }

    /// Use a chunked layout.
    pub fn chunked(mut self, chunk_dims: &[u64]) -> Self {
        self.chunk_dims = Some(chunk_dims.to_vec());
        self
    }

    /// Append a filter to the pipeline.
    pub fn with_filter(mut self, spec: FilterSpec) -> Self {
        self.filters.push(spec);
        self
    }
}

struct Inner {
    file: SharedFile,
    datasets: Mutex<Vec<DatasetMeta>>,
    closed: AtomicBool,
    /// Recycles stored-chunk buffers between the compression pipeline
    /// and the async write queue, across every dataset of the file.
    pool: Arc<BufferPool>,
}

/// Writable h5lite container (clone-shareable across rank threads).
#[derive(Clone)]
pub struct H5File {
    inner: Arc<Inner>,
}

impl H5File {
    /// Create a new container at `path` (truncates).
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_shared(SharedFile::create(path)?)
    }

    /// Wrap an existing [`SharedFile`] (already superblock-initialized
    /// via `create`, or fresh: the superblock region is reserved).
    pub fn from_shared(file: SharedFile) -> Result<Self> {
        if file.tail() < SUPERBLOCK {
            file.write_at(0, &[0u8; SUPERBLOCK as usize])?;
            file.advance_tail_to(SUPERBLOCK)
                .map_err(std::io::Error::from)?;
        }
        Ok(H5File {
            inner: Arc::new(Inner {
                file,
                datasets: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
                pool: Arc::new(BufferPool::new()),
            }),
        })
    }

    /// Underlying shared file.
    pub fn shared_file(&self) -> &SharedFile {
        &self.inner.file
    }

    fn check_open(&self) -> Result<()> {
        if self.inner.closed.load(Ordering::SeqCst) {
            Err(H5Error::InvalidState("file already closed"))
        } else {
            Ok(())
        }
    }

    /// Create a dataset; returns its handle.
    pub fn create_dataset(&self, spec: DatasetSpec) -> Result<DatasetId> {
        self.check_open()?;
        if spec.dims.is_empty() || spec.dims.len() > 3 {
            return Err(H5Error::Corrupt("dataset rank must be 1..=3"));
        }
        if let Some(cd) = &spec.chunk_dims {
            if cd.len() != spec.dims.len() || cd.contains(&0) {
                return Err(H5Error::Corrupt("chunk dims"));
            }
        }
        let mut ds = self.inner.datasets.lock().unwrap();
        if ds.iter().any(|d| d.name == spec.name) {
            return Err(H5Error::DuplicateDataset(spec.name));
        }
        ds.push(DatasetMeta {
            name: spec.name,
            dtype: spec.dtype,
            dims: spec.dims,
            chunk_dims: spec.chunk_dims,
            filters: spec.filters,
            chunks: Vec::new(),
            attrs: Vec::new(),
        });
        Ok(DatasetId(ds.len() - 1))
    }

    /// Attach an attribute to a dataset.
    pub fn set_attr(&self, id: DatasetId, name: impl Into<String>, value: AttrValue) -> Result<()> {
        self.check_open()?;
        let mut ds = self.inner.datasets.lock().unwrap();
        let d = ds.get_mut(id.0).ok_or(H5Error::Corrupt("dataset id"))?;
        let name = name.into();
        if let Some(slot) = d.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            d.attrs.push((name, value));
        }
        Ok(())
    }

    /// The one dataset-write body: check `data` against the dataset's
    /// extents, tile it, run the filter chain on `workers` threads and
    /// hand each stored chunk to `emit(chunk_index, stored, raw_len)`
    /// in chunk-index order.
    fn write_tiles<S>(&self, id: DatasetId, data: &[u8], workers: usize, emit: S) -> Result<()>
    where
        S: FnMut(u64, Vec<u8>, u64) -> Result<()>,
    {
        self.check_open()?;
        let (dims, chunk_dims, filters, dtype, expected) = {
            let ds = self.inner.datasets.lock().unwrap();
            let d = ds.get(id.0).ok_or(H5Error::Corrupt("dataset id"))?;
            (
                d.dims.clone(),
                d.chunk_dims.clone(),
                d.filters.clone(),
                d.dtype,
                d.raw_bytes(),
            )
        };
        if data.len() as u64 != expected {
            return Err(H5Error::ShapeMismatch {
                expected,
                actual: data.len() as u64,
            });
        }
        // A contiguous dataset is a single tile spanning the extents.
        let cd = chunk_dims.unwrap_or_else(|| dims.clone());
        compress_chunks(
            &filters,
            data,
            &dims,
            dtype,
            &cd,
            workers,
            &self.inner.pool,
            emit,
        )
    }

    /// Write a full dataset on the calling thread: tile into chunks,
    /// run the filter pipeline, append each chunk synchronously. The
    /// 1-worker instance of [`H5File::write_full_pipelined`] with the
    /// write queue replaced by a direct write; the one stored buffer
    /// cycles through the pool, so nothing is allocated per chunk.
    pub fn write_full(&self, id: DatasetId, data: &[u8]) -> Result<()> {
        self.write_tiles(id, data, 1, |c, stored, raw| {
            let offset = self.inner.file.reserve(stored.len() as u64);
            let res = self.write_chunk_at(id, c, offset, &stored, raw);
            self.inner.pool.put(stored);
            res
        })
    }

    /// Write a full dataset through the parallel compression pipeline:
    /// chunk tiles fan out to `workers` compression threads and every
    /// compressed chunk streams straight into the `events` async write
    /// queue — compression of chunk *k+1* overlaps the write of chunk
    /// *k*. Chunks are reserved and recorded in chunk-index order, so
    /// the produced file is byte-identical at any worker count (and to
    /// [`H5File::write_full`]). Call `events.wait()` before `close()`.
    pub fn write_full_pipelined(
        &self,
        id: DatasetId,
        data: &[u8],
        workers: usize,
        events: &EventSet,
        throttle: Option<Arc<Throttle>>,
    ) -> Result<()> {
        self.write_tiles(id, data, workers, |c, stored, raw| {
            let offset = self.inner.file.reserve(stored.len() as u64);
            self.write_chunk_at_async(
                id,
                c,
                offset,
                stored,
                raw,
                events,
                throttle.clone(),
                Arc::clone(&self.inner.pool),
            )
        })
    }

    /// Write pre-filtered chunk bytes at an explicit offset and record
    /// the chunk with their CRC32C — the synchronous emission
    /// primitive, also the parallel-write path where offsets were
    /// computed collectively beforehand (the paper's pre-computed
    /// layout).
    pub fn write_chunk_at(
        &self,
        id: DatasetId,
        chunk_index: u64,
        offset: u64,
        stored: &[u8],
        raw_len: u64,
    ) -> Result<()> {
        self.check_open()?;
        self.inner.file.write_at(offset, stored)?;
        self.record_chunk(
            id,
            ChunkInfo {
                index: chunk_index,
                offset,
                stored: stored.len() as u64,
                raw: raw_len,
                crc: crc32c(stored),
            },
        )
    }

    /// [`H5File::write_chunk_at`] through an [`EventSet`]: the write is
    /// queued (optionally throttled) and `stored` returns to `pool`
    /// once it lands. The checksum is taken before the queue owns the
    /// buffer, so the recorded CRC always reflects the bytes the
    /// writer intended and a fault between here and the platter is
    /// detectable on read. Write failures surface at `events.wait()`.
    #[allow(clippy::too_many_arguments)]
    pub fn write_chunk_at_async(
        &self,
        id: DatasetId,
        chunk_index: u64,
        offset: u64,
        stored: Vec<u8>,
        raw_len: u64,
        events: &EventSet,
        throttle: Option<Arc<Throttle>>,
        pool: Arc<BufferPool>,
    ) -> Result<()> {
        self.check_open()?;
        let info = ChunkInfo {
            index: chunk_index,
            offset,
            stored: stored.len() as u64,
            raw: raw_len,
            crc: crc32c(&stored),
        };
        events.enqueue(&self.inner.file, offset, stored, throttle, Some(pool));
        self.record_chunk(id, info)
    }

    /// Record a chunk that was written externally (e.g. via async ops).
    pub fn record_chunk(&self, id: DatasetId, info: ChunkInfo) -> Result<()> {
        let mut ds = self.inner.datasets.lock().unwrap();
        let d = ds.get_mut(id.0).ok_or(H5Error::Corrupt("dataset id"))?;
        d.chunks.push(info);
        Ok(())
    }

    /// Reserve `len` bytes of file space, returning the offset.
    pub fn reserve(&self, len: u64) -> u64 {
        self.inner.file.reserve(len)
    }

    /// Total bytes currently reserved/written (logical tail).
    pub fn tail(&self) -> u64 {
        self.inner.file.tail()
    }

    /// Finalize: write the metadata table and superblock. Idempotent —
    /// the second close is an error (like H5Fclose on a closed id).
    pub fn close(&self) -> Result<()> {
        if self.inner.closed.swap(true, Ordering::SeqCst) {
            return Err(H5Error::InvalidState("file already closed"));
        }
        let table = {
            let mut ds = self.inner.datasets.lock().unwrap();
            for d in ds.iter_mut() {
                d.chunks.sort_by_key(|c| c.index);
            }
            serialize_table(&ds)
        };
        let table_offset = self.inner.file.reserve(table.len() as u64);
        self.inner.file.write_at(table_offset, &table)?;
        // Sync data (chunks + table) before publishing the superblock:
        // a crash between the two leaves the zeroed create-time
        // superblock in place, which recovery classifies as a torn
        // step rather than trusting a pointer to unsynced bytes.
        self.inner.file.sync()?;
        let sb = Superblock::encode(table_offset, table.len() as u64, crc32c(&table));
        self.inner.file.write_at(0, &sb)?;
        self.inner.file.sync()?;
        Ok(())
    }
}

/// Read-only h5lite container. Every byte it returns has passed the
/// CRC32C recorded for its chunk.
pub struct H5Reader {
    file: SharedFile,
    datasets: Vec<DatasetMeta>,
    /// Physical file length at open, for cheap truncation checks.
    flen: u64,
}

impl H5Reader {
    /// Open and parse the container at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = SharedFile::open(path)?;
        let mut sb = [0u8; SUPERBLOCK as usize];
        file.read_at(0, &mut sb)
            .map_err(|_| H5Error::Truncated("superblock"))?;
        let flen = file.len()?;
        let datasets = Superblock::parse(&sb)?.read_table(&file, flen)?;
        Ok(H5Reader {
            file,
            datasets,
            flen,
        })
    }

    /// Dataset names in creation order.
    pub fn names(&self) -> Vec<&str> {
        self.datasets.iter().map(|d| d.name.as_str()).collect()
    }

    /// Metadata of a dataset.
    pub fn meta(&self, name: &str) -> Result<&DatasetMeta> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| H5Error::NoSuchDataset(name.to_string()))
    }

    /// The dataset's chunk records grouped by chunk: chunk `i`'s stored
    /// extents are `records[starts[i]..starts[i + 1]]`.
    ///
    /// A chunk may be stored as several extents with the same index
    /// (reserved-slot prefix + overflow tail, the paper's overflow
    /// redirection); they stay in record order, so reading them
    /// back-to-back reconstitutes the filtered stream. The indices are
    /// outside input: together they must name every chunk of the grid
    /// and nothing else. Two allocations, whatever the chunk count.
    fn chunk_segments(d: &DatasetMeta) -> Result<(Vec<ChunkInfo>, Vec<usize>)> {
        let mut records = d.chunks.clone();
        records.sort_by_key(|c| c.index);
        let n_chunks = d.n_chunks();
        let mut starts = Vec::with_capacity(records.len() + 1);
        for (at, c) in records.iter().enumerate() {
            if at > 0 && c.index == records[at - 1].index {
                continue;
            }
            if c.index >= n_chunks {
                return Err(H5Error::Corrupt("chunk index out of grid"));
            }
            if c.index != starts.len() as u64 {
                return Err(H5Error::Corrupt("incomplete chunk set"));
            }
            starts.push(at);
        }
        if starts.len() as u64 != n_chunks {
            return Err(H5Error::Corrupt("incomplete chunk set"));
        }
        starts.push(records.len());
        Ok((records, starts))
    }

    /// Logical byte size of dataset `d`, for sizing the output buffer.
    ///
    /// The table's extents are outside input: their product must not
    /// wrap, must be what the chunk records say they decode to (a
    /// chunk's first extent records the tile's unfiltered length, an
    /// overflow tail records 0) and must be a length a `Vec` can have
    /// on this platform before it sizes anything.
    fn checked_raw_len(d: &DatasetMeta) -> Result<usize> {
        let extents = (d.dims.iter()).try_fold(d.dtype.size() as u64, |n, &e| n.checked_mul(e));
        let recorded = (d.chunks.iter()).try_fold(0u64, |n, c| n.checked_add(c.raw));
        extents
            .filter(|&bytes| recorded == Some(bytes))
            .and_then(|bytes| isize::try_from(bytes).ok())
            .map(|bytes| bytes as usize)
            .ok_or(H5Error::Corrupt("dataset extents"))
    }

    /// Read one chunk's concatenated stored bytes into `stored`,
    /// verifying each segment's CRC32C — corrupt bytes are never
    /// handed to a decoder.
    fn read_segments(&self, segments: &[ChunkInfo], stored: &mut Vec<u8>) -> Result<()> {
        // The table's lengths are outside input: every extent must lie
        // inside the file, and together they cannot hold more than the
        // file does, before any of them sizes the buffer.
        let mut total = 0u64;
        for c in segments {
            let in_file = (c.offset.checked_add(c.stored)).is_some_and(|end| end <= self.flen);
            total = total.saturating_add(c.stored);
            if !in_file || total > self.flen {
                return Err(H5Error::Truncated("chunk"));
            }
        }
        stored.clear();
        stored.resize(total as usize, 0);
        let mut at = 0usize;
        for c in segments {
            let end = at + c.stored as usize;
            self.file.read_at(c.offset, &mut stored[at..end])?;
            let actual = crc32c(&stored[at..end]);
            if actual != c.crc {
                return Err(H5Error::ChecksumMismatch {
                    context: "chunk",
                    offset: c.offset,
                    expected: c.crc,
                    actual,
                });
            }
            at = end;
        }
        Ok(())
    }

    /// Read and de-filter a full dataset into its raw byte buffer on
    /// the calling thread: [`H5Reader::read_full_pipelined`] at one
    /// worker.
    pub fn read_raw(&self, name: &str) -> Result<Vec<u8>> {
        self.read_full_pipelined(name, 1)
    }

    /// Read and de-filter a full dataset as its raw little-endian
    /// bytes, whatever its element type: the `u8` instance of
    /// [`H5Reader::read_pipelined`].
    pub fn read_full_pipelined(&self, name: &str, workers: usize) -> Result<Vec<u8>> {
        self.read_pipelined(name, workers)
    }

    /// Read a dataset as `f32` values, or as its bytes (`u8`).
    pub fn read<T: ReadElement>(&self, name: &str) -> Result<Vec<T>> {
        self.read_pipelined(name, 1)
    }

    /// Read a dataset as `f32` values.
    pub fn read_f32(&self, name: &str) -> Result<Vec<f32>> {
        self.read::<f32>(name)
    }

    /// The one dataset-read body — the read-side mirror of
    /// [`H5File::write_full_pipelined`], generic over what the dataset
    /// is restored as (its values, or `u8` for its raw bytes).
    ///
    /// Chunk reads, CRC checks and filter inversion fan out to
    /// `workers` threads (each reusing one [`FilterScratch`] and one
    /// read buffer across its chunks; one worker runs inline on the
    /// caller's thread). The output is allocated once and every
    /// restored value is written to it once. Where each chunk is one
    /// contiguous run of the dataset (one slab per rank, any 1-D or
    /// contiguous dataset) the output is handed out as disjoint
    /// sub-slices and a worker decodes straight into its chunk's;
    /// tiles that interleave rows are decoded into a buffer the worker
    /// keeps and scattered from there. Either way the result is
    /// value-identical at any worker count.
    pub fn read_pipelined<T: ReadElement>(&self, name: &str, workers: usize) -> Result<Vec<T>> {
        let d = self.meta(name)?;
        T::check_dtype(d.dtype)?;
        let raw_len = Self::checked_raw_len(d)?;
        let _span = obs::span_arg("h5.read", raw_len as u64);
        // Contiguous datasets decode as a single chunk spanning the
        // extents.
        let cd = d.chunk_dims.as_deref().unwrap_or(&d.dims);
        let slab = slab_points(&d.dims, cd)?;
        let (records, starts) = Self::chunk_segments(d)?;
        let n = starts.len() as u64 - 1;
        // `T`s per dataset point: 1 for a typed read, the element's
        // byte size for the byte view.
        let per = d.dtype.size() / std::mem::size_of::<T>();
        let mut out = vec![T::default(); raw_len / std::mem::size_of::<T>()];
        if n == 0 {
            return Ok(out);
        }
        // Extent bounds and CRC32C before a decoder sees a byte, then
        // the inverse chain into exactly the chunk's destination.
        let decode = |scratch: &mut FilterScratch, stored: &mut Vec<u8>, i: u64, dst: &mut [T]| {
            let _span = obs::span_arg("h5.chunk_decode", i);
            let i = i as usize;
            self.read_segments(&records[starts[i]..starts[i + 1]], stored)?;
            invert_to(&d.filters, d.dtype, stored, scratch, dst)
        };
        // The output as disjoint parts, one lock each: a slab per chunk
        // where chunks are runs (taken once, by the one worker that
        // claimed the index — what makes the hand-out safe, not a point
        // of contention), else the whole, held only for a tile's row
        // copies after the worker decoded into its own tile buffer.
        let part = slab.map_or(out.len(), |points| points * per);
        let parts: Vec<Mutex<&mut [T]>> = out.chunks_mut(part).map(Mutex::new).collect();
        ordered_fanout(
            n,
            workers,
            || (FilterScratch::new(), Vec::new(), Vec::new()),
            |(scratch, stored, tile), i| match slab {
                Some(_) => decode(scratch, stored, i, &mut parts[i as usize].lock().unwrap()),
                None => {
                    tile.resize(tile_points(&d.dims, cd, i)? * per, T::default());
                    decode(scratch, stored, i, tile)?;
                    scatter_tile(&mut parts[0].lock().unwrap(), &d.dims, per, cd, i, tile)
                }
            },
            |_, ()| Ok(()),
        )?;
        drop(parts); // the locks borrow `out`
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{SzFilterParams, LZSS_FILTER_ID, SZLITE_FILTER_ID};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("h5lite-test-{}-{}.h5l", std::process::id(), name));
        p
    }

    fn f32_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    #[test]
    fn contiguous_roundtrip() {
        let path = tmp("contig");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let id = f
            .create_dataset(DatasetSpec::new("a", Dtype::F32, &[100]))
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        assert_eq!(r.names(), vec!["a"]);
        assert_eq!(r.read_f32("a").unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_roundtrip_3d() {
        let path = tmp("chunk3d");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..4 * 6 * 8).map(|i| (i as f32).sin()).collect();
        let id = f
            .create_dataset(DatasetSpec::new("grid/v", Dtype::F32, &[4, 6, 8]).chunked(&[2, 3, 4]))
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        assert_eq!(r.meta("grid/v").unwrap().chunks.len(), 8);
        assert_eq!(r.read_f32("grid/v").unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sz_filtered_roundtrip_within_bound() {
        let path = tmp("szfilt");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..16 * 16 * 16).map(|i| (i as f32 * 0.01).cos()).collect();
        let params = SzFilterParams {
            absolute: true,
            bound: 1e-3,
            dims: vec![8, 16, 16],
        }
        .to_bytes();
        let id = f
            .create_dataset(
                DatasetSpec::new("t", Dtype::F32, &[16, 16, 16])
                    .chunked(&[8, 16, 16])
                    .with_filter(FilterSpec {
                        id: SZLITE_FILTER_ID,
                        params,
                    }),
            )
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        let meta = r.meta("t").unwrap();
        assert!(
            meta.stored_bytes() < meta.raw_bytes(),
            "filter should shrink data"
        );
        let restored = r.read_f32("t").unwrap();
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-3);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attributes_roundtrip() {
        let path = tmp("attrs");
        let f = H5File::create(&path).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("x", Dtype::U8, &[4]))
            .unwrap();
        f.write_full(id, &[1, 2, 3, 4]).unwrap();
        f.set_attr(id, "eb", AttrValue::F64(0.5)).unwrap();
        f.set_attr(id, "step", AttrValue::I64(7)).unwrap();
        f.set_attr(id, "step", AttrValue::I64(8)).unwrap(); // overwrite
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        let m = r.meta("x").unwrap();
        let written = [
            ("eb".to_string(), AttrValue::F64(0.5)),
            ("step".to_string(), AttrValue::I64(8)),
        ];
        assert_eq!(m.attrs, written);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let path = tmp("dup");
        let f = H5File::create(&path).unwrap();
        f.create_dataset(DatasetSpec::new("a", Dtype::U8, &[1]))
            .unwrap();
        assert!(matches!(
            f.create_dataset(DatasetSpec::new("a", Dtype::U8, &[1])),
            Err(H5Error::DuplicateDataset(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn double_close_rejected() {
        let path = tmp("dclose");
        let f = H5File::create(&path).unwrap();
        f.close().unwrap();
        assert!(f.close().is_err());
        assert!(f
            .create_dataset(DatasetSpec::new("a", Dtype::U8, &[1]))
            .is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parallel_chunk_writes_from_threads() {
        let path = tmp("par");
        let f = H5File::create(&path).unwrap();
        let n_chunks = 8u64;
        let chunk_elems = 64u64;
        let id = f
            .create_dataset(
                DatasetSpec::new("p", Dtype::F32, &[n_chunks * chunk_elems])
                    .chunked(&[chunk_elems]),
            )
            .unwrap();
        // Pre-compute offsets like the paper's planner would.
        let chunk_bytes = chunk_elems * 4;
        let base = f.reserve(n_chunks * chunk_bytes);
        std::thread::scope(|s| {
            for c in 0..n_chunks {
                let f = f.clone();
                s.spawn(move || {
                    let vals: Vec<f32> = (0..chunk_elems).map(|i| (c * 1000 + i) as f32).collect();
                    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                    f.write_chunk_at(id, c, base + c * chunk_bytes, &bytes, chunk_bytes)
                        .unwrap();
                });
            }
        });
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        let vals = r.read_f32("p").unwrap();
        for c in 0..n_chunks {
            for i in 0..chunk_elems {
                assert_eq!(vals[(c * chunk_elems + i) as usize], (c * 1000 + i) as f32);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipelined_write_is_byte_identical_to_serial() {
        // Chains of one and two byte stages (the ping-pong parity of
        // both stage counts) behind the szlite stage, and without it on
        // bytes.
        let sz = FilterSpec {
            id: SZLITE_FILTER_ID,
            params: SzFilterParams {
                absolute: true,
                bound: 1e-3,
                dims: vec![8, 10, 16],
            }
            .to_bytes(),
        };
        let lzss = FilterSpec {
            id: LZSS_FILTER_ID,
            params: vec![],
        };
        let n = 24 * 20 * 16;
        let f32s = f32_bytes(&(0..n).map(|i| (i as f32 * 0.01).sin()).collect::<Vec<_>>());
        let u8s: Vec<u8> = (0..n).map(|i| (i / 7 % 251) as u8).collect();
        // (element type, szlite first, LZSS stages after, data)
        let cases = [
            (Dtype::F32, true, 0, &f32s),
            (Dtype::F32, true, 2, &f32s),
            (Dtype::U8, false, 2, &u8s),
        ];
        for (dtype, sz_first, n_lzss, bytes) in cases {
            let tag = format!("{dtype:?} sz {sz_first} + {n_lzss} LZSS");
            let mut spec = DatasetSpec::new("t", dtype, &[24, 20, 16]).chunked(&[8, 10, 16]);
            if sz_first {
                spec = spec.with_filter(sz.clone());
            }
            for _ in 0..n_lzss {
                spec = spec.with_filter(lzss.clone());
            }

            let serial_path = tmp("pipe-serial");
            let f = H5File::create(&serial_path).unwrap();
            let id = f.create_dataset(spec.clone()).unwrap();
            f.write_full(id, bytes).unwrap();
            f.close().unwrap();
            let serial = std::fs::read(&serial_path).unwrap();
            if dtype == Dtype::U8 {
                // The float chains' read-back is tests/read_pipeline.rs's
                // matrix; LZSS alone restores exactly.
                let r = H5Reader::open(&serial_path).unwrap();
                for workers in [1usize, 2, 8] {
                    let restored = r.read_full_pipelined("t", workers).unwrap();
                    assert_eq!(&restored, bytes, "{tag} workers={workers}");
                }
            }
            std::fs::remove_file(&serial_path).unwrap();

            for workers in [1usize, 2, 3, 8] {
                let path = tmp(&format!("pipe-{workers}"));
                let f = H5File::create(&path).unwrap();
                let id = f.create_dataset(spec.clone()).unwrap();
                let es = crate::EventSet::new(2);
                f.write_full_pipelined(id, bytes, workers, &es, None)
                    .unwrap();
                es.wait().unwrap();
                f.close().unwrap();
                let parallel = std::fs::read(&path).unwrap();
                assert_eq!(parallel, serial, "{tag} workers={workers}");
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn pipelined_contiguous_write_matches_serial() {
        // A contiguous dataset is a single tile spanning the extents;
        // the synchronous and the queued emission must produce the
        // same file byte for byte.
        let data = vec![9u8; 6000];
        let spec = || {
            DatasetSpec::new("c", Dtype::U8, &[6000]).with_filter(FilterSpec {
                id: LZSS_FILTER_ID,
                params: vec![],
            })
        };
        let serial_path = tmp("contig-serial");
        let f = H5File::create(&serial_path).unwrap();
        let id = f.create_dataset(spec()).unwrap();
        f.write_full(id, &data).unwrap();
        f.close().unwrap();
        let serial = std::fs::read(&serial_path).unwrap();
        std::fs::remove_file(&serial_path).unwrap();

        let path = tmp("contig-pipe");
        let f = H5File::create(&path).unwrap();
        let id = f.create_dataset(spec()).unwrap();
        let es = crate::EventSet::new(1);
        f.write_full_pipelined(id, &data, 4, &es, None).unwrap();
        es.wait().unwrap();
        f.close().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), serial);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipelined_read_matches_serial_reader() {
        // Chunked + sz-filtered dataset read back through the worker
        // pool at several widths; every result must be value-identical
        // to the inline 1-worker read (and to each other).
        let path = tmp("rpipe");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..24 * 20 * 16).map(|i| (i as f32 * 0.01).sin()).collect();
        let params = SzFilterParams {
            absolute: true,
            bound: 1e-3,
            dims: vec![8, 10, 16],
        }
        .to_bytes();
        let id = f
            .create_dataset(
                DatasetSpec::new("t", Dtype::F32, &[24, 20, 16])
                    .chunked(&[8, 10, 16])
                    .with_filter(FilterSpec {
                        id: SZLITE_FILTER_ID,
                        params,
                    }),
            )
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        f.close().unwrap();

        let r = H5Reader::open(&path).unwrap();
        let serial = r.read_raw("t").unwrap();
        for workers in [1usize, 2, 8] {
            assert_eq!(
                r.read_full_pipelined("t", workers).unwrap(),
                serial,
                "workers={workers}"
            );
        }
        assert_eq!(
            r.read_pipelined::<f32>("t", 4).unwrap(),
            r.read_f32("t").unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipelined_read_contiguous_matches_serial() {
        let path = tmp("rpipe-contig");
        let f = H5File::create(&path).unwrap();
        let data = vec![3u8; 5000];
        let id = f
            .create_dataset(
                DatasetSpec::new("c", Dtype::U8, &[5000]).with_filter(FilterSpec {
                    id: LZSS_FILTER_ID,
                    params: vec![],
                }),
            )
            .unwrap();
        f.write_full(id, &data).unwrap();
        f.close().unwrap();
        let r = H5Reader::open(&path).unwrap();
        assert_eq!(r.read_raw("c").unwrap(), data);
        assert_eq!(r.read_full_pipelined("c", 4).unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generic_read_rejects_wrong_type() {
        let path = tmp("rtype");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let id = f
            .create_dataset(DatasetSpec::new("x", Dtype::F32, &[32]))
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("b", Dtype::U8, &[32]))
            .unwrap();
        f.write_full(id, &[9; 32]).unwrap();
        f.close().unwrap();
        let r = H5Reader::open(&path).unwrap();
        assert!(matches!(
            r.read::<f32>("b"),
            Err(H5Error::Corrupt("dataset is not f32"))
        ));
        assert_eq!(r.read::<u8>("b").unwrap(), [9; 32]);
        assert_eq!(r.read::<f32>("x").unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lzss_filter_chain() {
        let path = tmp("lz");
        let f = H5File::create(&path).unwrap();
        let data = vec![42u8; 8192];
        let id = f
            .create_dataset(
                DatasetSpec::new("z", Dtype::U8, &[8192]).with_filter(FilterSpec {
                    id: LZSS_FILTER_ID,
                    params: vec![],
                }),
            )
            .unwrap();
        f.write_full(id, &data).unwrap();
        f.close().unwrap();
        let r = H5Reader::open(&path).unwrap();
        assert!(r.meta("z").unwrap().stored_bytes() < 200);
        assert_eq!(r.read_raw("z").unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_chunk_detected_on_both_read_paths() {
        let path = tmp("crc-chunk");
        let f = H5File::create(&path).unwrap();
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin()).collect();
        let id = f
            .create_dataset(DatasetSpec::new("v", Dtype::F32, &[512]).chunked(&[128]))
            .unwrap();
        f.write_full(id, &f32_bytes(&data)).unwrap();
        f.close().unwrap();

        // Flip one bit inside the second chunk's stored bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = SUPERBLOCK as usize + 600;
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let r = H5Reader::open(&path).unwrap();
        assert!(matches!(
            r.read_raw("v"),
            Err(H5Error::ChecksumMismatch {
                context: "chunk",
                ..
            })
        ));
        assert!(matches!(
            r.read_full_pipelined("v", 4),
            Err(H5Error::ChecksumMismatch {
                context: "chunk",
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_table_and_superblock_detected() {
        let path = tmp("crc-meta");
        let f = H5File::create(&path).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("v", Dtype::U8, &[64]))
            .unwrap();
        f.write_full(id, &[9u8; 64]).unwrap();
        f.close().unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Corrupt the metadata table (last byte of the file).
        let mut bad = clean.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            H5Reader::open(&path),
            Err(H5Error::ChecksumMismatch {
                context: "metadata table",
                ..
            })
        ));

        // Corrupt the superblock's table-offset field.
        let mut bad = clean.clone();
        bad[9] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            H5Reader::open(&path),
            Err(H5Error::ChecksumMismatch {
                context: "superblock",
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_chunk_reported_as_truncated() {
        let path = tmp("crc-trunc");
        let f = H5File::create(&path).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("v", Dtype::U8, &[4096]))
            .unwrap();
        f.write_full(id, &[3u8; 4096]).unwrap();
        f.close().unwrap();
        // Forge containers whose (valid, checksummed) table points a
        // chunk past EOF, or claims more stored bytes than any file
        // holds — the reader must report truncation before ever sizing
        // a buffer from the record or attempting the read.
        let r = H5Reader::open(&path).unwrap();
        let c = r.meta("v").unwrap().chunks[0];
        drop(r);
        let forged = [
            ChunkInfo {
                offset: c.offset + (1 << 20),
                ..c
            },
            ChunkInfo {
                stored: 1 << 50,
                ..c
            },
            ChunkInfo {
                offset: u64::MAX - 8,
                ..c
            },
        ];
        for bad in forged {
            let f2 = H5File::create(&path).unwrap();
            let id2 = f2
                .create_dataset(DatasetSpec::new("v", Dtype::U8, &[4096]))
                .unwrap();
            f2.record_chunk(id2, bad).unwrap();
            f2.close().unwrap();
            let r = H5Reader::open(&path).unwrap();
            assert!(
                matches!(r.read_raw("v"), Err(H5Error::Truncated("chunk"))),
                "{bad:?}"
            );
            for workers in [1usize, 2, 8] {
                assert!(
                    matches!(
                        r.read_full_pipelined("v", workers),
                        Err(H5Error::Truncated("chunk"))
                    ),
                    "{bad:?} workers={workers}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forged_extents_rejected_before_sizing_the_output() {
        let path = tmp("forged-extents");
        let f = H5File::create(&path).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("v", Dtype::U8, &[4096]))
            .unwrap();
        f.write_full(id, &[3u8; 4096]).unwrap();
        f.close().unwrap();
        let c = H5Reader::open(&path).unwrap().meta("v").unwrap().chunks[0];
        // Containers whose (valid, checksummed) table claims extents
        // the chunk records do not account for, a product that wraps
        // u64, or a record inflated to match: nothing may be allocated
        // from them.
        let huge = ChunkInfo { raw: 1 << 62, ..c };
        let forged: [(&[u64], &[ChunkInfo]); 5] = [
            (&[1 << 40], &[c]),
            (&[1 << 40, 1 << 40], &[c]),
            (&[4096], &[huge]),
            (&[1 << 63], &[huge, huge]),
            (&[4096], &[c, c]),
        ];
        for (dims, records) in forged {
            let f2 = H5File::create(&path).unwrap();
            let id2 = f2
                .create_dataset(DatasetSpec::new("v", Dtype::U8, dims))
                .unwrap();
            for &record in records {
                f2.record_chunk(id2, record).unwrap();
            }
            f2.close().unwrap();
            let r = H5Reader::open(&path).unwrap();
            let is_rejected =
                |res: Result<Vec<u8>>| matches!(res, Err(H5Error::Corrupt("dataset extents")));
            assert!(is_rejected(r.read_raw("v")), "{dims:?}");
            for workers in [1usize, 2, 8] {
                assert!(is_rejected(r.read_full_pipelined("v", workers)), "{dims:?}");
            }
            assert!(r.read::<f32>("v").is_err());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_garbage_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not an h5lite file, but long enough....").unwrap();
        assert!(matches!(H5Reader::open(&path), Err(H5Error::BadMagic)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shape_mismatch_on_write() {
        let path = tmp("shape");
        let f = H5File::create(&path).unwrap();
        let id = f
            .create_dataset(DatasetSpec::new("s", Dtype::F32, &[10]))
            .unwrap();
        assert!(matches!(
            f.write_full(id, &[0u8; 10]),
            Err(H5Error::ShapeMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
