//! Metadata model and binary serialization of the h5lite container.
//!
//! The on-disk layout mirrors HDF5's roles with a simplified encoding:
//!
//! ```text
//! [superblock: 32 bytes]  magic "H5LT", version, table offset/len
//! [raw chunk data ......] appended in write order
//! [metadata table .......] serialized dataset records (this module)
//! ```
//!
//! The superblock is rewritten on close to point at the final table,
//! like HDF5's end-of-file metadata flush.

use crate::error::{H5Error, Result};
use szlite::stream::{
    get_f64, get_u32, get_u64, get_varint, put_f64, put_u32, put_u64, put_varint,
};
use szlite::SzError;

/// Type of a dataset's elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit IEEE float.
    F32,
    /// Raw bytes.
    U8,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::U8 => 1,
        }
    }

    /// The table's tag. Tags 1 (`f64`) and 3 (`i64`) are retired:
    /// nothing writes them, and a table that holds one is corrupt.
    fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::U8 => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self> {
        match t {
            0 => Ok(Dtype::F32),
            2 => Ok(Dtype::U8),
            _ => Err(H5Error::Corrupt("dtype tag")),
        }
    }
}

/// An attribute value (HDF5 attributes, simplified).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Floating-point scalar.
    F64(f64),
    /// Integer scalar.
    I64(i64),
    /// UTF-8 string.
    Str(String),
}

/// A filter applied to chunk data (H5Z analog).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    /// Registered filter id (e.g. [`crate::filter::SZLITE_FILTER_ID`]).
    pub id: u32,
    /// Opaque filter parameters (filter-defined encoding).
    pub params: Vec<u8>,
}

/// Location of one stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Linear chunk index in the chunk grid.
    pub index: u64,
    /// Absolute file offset of the stored (possibly filtered) bytes.
    pub offset: u64,
    /// Stored length in bytes.
    pub stored: u64,
    /// Unfiltered length in bytes.
    pub raw: u64,
    /// CRC32C of the stored bytes (see [`crate::crc`]), checked on
    /// every read.
    pub crc: u32,
}

/// Metadata record of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Full path name, e.g. `"fields/temperature"`.
    pub name: String,
    /// Type of its elements.
    pub dtype: Dtype,
    /// Logical extents (slowest first).
    pub dims: Vec<u64>,
    /// Chunk extents; `None` = contiguous layout.
    pub chunk_dims: Option<Vec<u64>>,
    /// Filter pipeline applied to each chunk, in application order.
    pub filters: Vec<FilterSpec>,
    /// Stored chunks (one entry for contiguous layout).
    pub chunks: Vec<ChunkInfo>,
    /// Attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

impl DatasetMeta {
    /// Number of logical elements.
    fn n_elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Logical byte size of the full dataset.
    pub fn raw_bytes(&self) -> u64 {
        self.n_elements() * self.dtype.size() as u64
    }

    /// Total stored bytes across chunks.
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.stored).sum()
    }

    /// Chunk-grid extents (ceil-division of dims by chunk dims).
    fn chunk_grid(&self) -> Vec<u64> {
        match &self.chunk_dims {
            None => vec![1],
            Some(cd) => self
                .dims
                .iter()
                .zip(cd)
                .map(|(&d, &c)| d.div_ceil(c))
                .collect(),
        }
    }

    /// Total number of chunks in the grid.
    pub fn n_chunks(&self) -> u64 {
        self.chunk_grid().iter().product()
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A varint of the table, its truncation or overflow a table error.
fn varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    get_varint(buf, pos).map_err(|e| match e {
        SzError::Truncated(_) => H5Error::Truncated("table varint"),
        _ => H5Error::Corrupt("table varint"),
    })
}

/// The count of records that follows, each at least `min_bytes` long
/// when encoded: a count the bytes left cannot hold is `Corrupt(what)`,
/// so that no forged count sizes an allocation beyond the table's own
/// length.
fn count(buf: &[u8], pos: &mut usize, min_bytes: usize, what: &'static str) -> Result<usize> {
    let n = varint(buf, pos)?;
    let room = (buf.len() - *pos) / min_bytes;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= room)
        .ok_or(H5Error::Corrupt(what))
}

/// Least encoded sizes, in bytes, of a table's records: a dataset (a
/// one-byte name length, then dtype, rank, one extent, layout, filter,
/// chunk and attribute counts), a filter (id and parameter length), a
/// chunk (index, offset, stored and raw lengths, CRC) and an attribute
/// (name length, tag and a string's length).
const MIN_DATASET: usize = 8;
const MIN_FILTER: usize = 4 + 1;
const MIN_CHUNK: usize = 1 + 8 + 1 + 1 + 4;
const MIN_ATTR: usize = 3;

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or(H5Error::Corrupt("string length"))?;
    let bytes = buf.get(*pos..end).ok_or(H5Error::Truncated("string"))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| H5Error::Corrupt("utf8"))
}

/// Serialize a metadata table (all datasets in a file). Chunk records
/// carry their CRC32C.
pub fn serialize_table(datasets: &[DatasetMeta]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, datasets.len() as u64);
    for d in datasets {
        put_str(&mut out, &d.name);
        out.push(d.dtype.tag());
        put_varint(&mut out, d.dims.len() as u64);
        for &x in &d.dims {
            put_varint(&mut out, x);
        }
        match &d.chunk_dims {
            None => out.push(0),
            Some(cd) => {
                out.push(1);
                put_varint(&mut out, cd.len() as u64);
                for &x in cd {
                    put_varint(&mut out, x);
                }
            }
        }
        put_varint(&mut out, d.filters.len() as u64);
        for f in &d.filters {
            put_u32(&mut out, f.id);
            put_varint(&mut out, f.params.len() as u64);
            out.extend_from_slice(&f.params);
        }
        put_varint(&mut out, d.chunks.len() as u64);
        for c in &d.chunks {
            put_varint(&mut out, c.index);
            put_u64(&mut out, c.offset);
            put_varint(&mut out, c.stored);
            put_varint(&mut out, c.raw);
            put_u32(&mut out, c.crc);
        }
        put_varint(&mut out, d.attrs.len() as u64);
        for (name, v) in &d.attrs {
            put_str(&mut out, name);
            match v {
                AttrValue::F64(x) => {
                    out.push(0);
                    put_f64(&mut out, *x);
                }
                AttrValue::I64(x) => {
                    out.push(1);
                    put_u64(&mut out, *x as u64);
                }
                AttrValue::Str(s) => {
                    out.push(2);
                    put_str(&mut out, s);
                }
            }
        }
    }
    out
}

/// Parse a metadata table written by [`serialize_table`]. Never panics,
/// and allocates in proportion to `buf`: every error is
/// [`H5Error::Truncated`] or [`H5Error::Corrupt`].
pub fn deserialize_table(buf: &[u8]) -> Result<Vec<DatasetMeta>> {
    let mut pos = 0usize;
    let n = count(buf, &mut pos, MIN_DATASET, "dataset count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, &mut pos)?;
        let dtype = Dtype::from_tag(*buf.get(pos).ok_or(H5Error::Truncated("dtype"))?)?;
        pos += 1;
        let nd = varint(buf, &mut pos)?;
        if nd == 0 || nd > 8 {
            return Err(H5Error::Corrupt("rank"));
        }
        let mut dims = Vec::with_capacity(nd as usize);
        for _ in 0..nd {
            dims.push(varint(buf, &mut pos)?);
        }
        let has_chunks = *buf.get(pos).ok_or(H5Error::Truncated("layout tag"))?;
        pos += 1;
        let chunk_dims = match has_chunks {
            0 => None,
            1 => {
                if varint(buf, &mut pos)? != nd {
                    return Err(H5Error::Corrupt("chunk rank"));
                }
                let mut cd = Vec::with_capacity(dims.len());
                for _ in 0..nd {
                    cd.push(varint(buf, &mut pos)?);
                }
                Some(cd)
            }
            _ => return Err(H5Error::Corrupt("layout tag")),
        };
        let nf = count(buf, &mut pos, MIN_FILTER, "filter count")?;
        let mut filters = Vec::with_capacity(nf);
        for _ in 0..nf {
            let id = get_u32(buf, &mut pos).map_err(|_| H5Error::Truncated("filter id"))?;
            let plen = varint(buf, &mut pos)? as usize;
            let end = pos
                .checked_add(plen)
                .ok_or(H5Error::Corrupt("filter params"))?;
            let params = buf
                .get(pos..end)
                .ok_or(H5Error::Truncated("filter params"))?
                .to_vec();
            pos = end;
            filters.push(FilterSpec { id, params });
        }
        let nc = count(buf, &mut pos, MIN_CHUNK, "chunk count")?;
        let mut chunks = Vec::with_capacity(nc);
        for _ in 0..nc {
            let index = varint(buf, &mut pos)?;
            let offset = get_u64(buf, &mut pos).map_err(|_| H5Error::Truncated("chunk"))?;
            let stored = varint(buf, &mut pos)?;
            let raw = varint(buf, &mut pos)?;
            let crc = get_u32(buf, &mut pos).map_err(|_| H5Error::Truncated("chunk crc"))?;
            chunks.push(ChunkInfo {
                index,
                offset,
                stored,
                raw,
                crc,
            });
        }
        let na = count(buf, &mut pos, MIN_ATTR, "attribute count")?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            let aname = get_str(buf, &mut pos)?;
            let tag = *buf.get(pos).ok_or(H5Error::Truncated("attr tag"))?;
            pos += 1;
            let val = match tag {
                0 => {
                    AttrValue::F64(get_f64(buf, &mut pos).map_err(|_| H5Error::Truncated("attr"))?)
                }
                1 => AttrValue::I64(
                    get_u64(buf, &mut pos).map_err(|_| H5Error::Truncated("attr"))? as i64,
                ),
                2 => AttrValue::Str(get_str(buf, &mut pos)?),
                _ => return Err(H5Error::Corrupt("attr tag")),
            };
            attrs.push((aname, val));
        }
        out.push(DatasetMeta {
            name,
            dtype,
            dims,
            chunk_dims,
            filters,
            chunks,
            attrs,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> DatasetMeta {
        DatasetMeta {
            name: "fields/temperature".into(),
            dtype: Dtype::F32,
            dims: vec![64, 64, 64],
            chunk_dims: Some(vec![32, 32, 32]),
            filters: vec![FilterSpec {
                id: 32017,
                params: vec![1, 2, 3],
            }],
            chunks: vec![
                ChunkInfo {
                    index: 0,
                    offset: 64,
                    stored: 100,
                    raw: 131072,
                    crc: 0xDEAD_BEEF,
                },
                ChunkInfo {
                    index: 1,
                    offset: 164,
                    stored: 90,
                    raw: 131072,
                    crc: 0x1234_5678,
                },
            ],
            attrs: vec![
                ("error_bound".into(), AttrValue::F64(1e-3)),
                ("timestep".into(), AttrValue::I64(42)),
                ("unit".into(), AttrValue::Str("K".into())),
            ],
        }
    }

    #[test]
    fn roundtrip_table() {
        let metas = vec![
            sample_meta(),
            DatasetMeta {
                name: "raw".into(),
                dtype: Dtype::U8,
                dims: vec![10],
                chunk_dims: None,
                filters: vec![],
                chunks: vec![ChunkInfo {
                    index: 0,
                    offset: 0,
                    stored: 10,
                    raw: 10,
                    crc: 7,
                }],
                attrs: vec![],
            },
        ];
        let bytes = serialize_table(&metas);
        let parsed = deserialize_table(&bytes).unwrap();
        assert_eq!(parsed, metas);
    }

    #[test]
    fn chunk_grid_math() {
        let m = sample_meta();
        assert_eq!(m.chunk_grid(), vec![2, 2, 2]);
        assert_eq!(m.n_chunks(), 8);
        assert_eq!(m.n_elements(), 262144);
        assert_eq!(m.raw_bytes(), 1048576);
        assert_eq!(m.stored_bytes(), 190);
    }

    #[test]
    fn attr_lookup() {
        let m = sample_meta();
        let attr = |name: &str| m.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        assert_eq!(attr("timestep"), Some(&AttrValue::I64(42)));
        assert!(attr("missing").is_none());
    }

    #[test]
    fn truncated_table_rejected() {
        let bytes = serialize_table(&[sample_meta()]);
        for cut in [1, bytes.len() / 3, bytes.len() - 2] {
            assert!(deserialize_table(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_dtype_rejected() {
        let mut bytes = serialize_table(&[sample_meta()]);
        // dtype tag follows the name; name is "fields/temperature" (18
        // chars) + 1 varint byte + count varint. Tags 1 (`f64`) and 3
        // (`i64`) are retired.
        assert_eq!(bytes[20], 0);
        for tag in [1, 3, 99] {
            bytes[20] = tag;
            assert!(matches!(
                deserialize_table(&bytes),
                Err(H5Error::Corrupt("dtype tag"))
            ));
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // One 1-D `f32` dataset of 4 points, contiguous, no filter, one
        // chunk, then its attribute count. The least chunk record is 15
        // bytes: 14 bytes after the count hold none, 15 hold one.
        let mut t = vec![1, 1, b'd', 0, 1, 4, 0, 0, 1];
        t.extend([0; 14]);
        assert!(matches!(
            deserialize_table(&t),
            Err(H5Error::Corrupt("chunk count"))
        ));
        t.push(0);
        assert!(matches!(
            deserialize_table(&t),
            Err(H5Error::Truncated("table varint"))
        ));
        t.push(0);
        assert_eq!(deserialize_table(&t).unwrap()[0].chunks.len(), 1);
    }
}
