//! Low-level byte/bit stream primitives used by the container format.
//!
//! Everything is little-endian. Varints use LEB128. Huffman bits are
//! written by [`BitWriter::write_codes`] alone, and read by peek/consume
//! (the decode loops) or [`BitReader::read_bit`] (the reference walk).

use crate::error::{Result, SzError};

/// Append a `u64` LEB128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] appends for `v`: one per started 7 bits.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Read a LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(SzError::Truncated("varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(SzError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32` at `*pos`.
pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let end = pos.checked_add(4).ok_or(SzError::Truncated("u32"))?;
    let bytes = buf.get(*pos..end).ok_or(SzError::Truncated("u32"))?;
    *pos = end;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u64` at `*pos`.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let end = pos.checked_add(8).ok_or(SzError::Truncated("u64"))?;
    let bytes = buf.get(*pos..end).ok_or(SzError::Truncated("u64"))?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Append a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `f64` at `*pos`.
pub fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let end = pos.checked_add(8).ok_or(SzError::Truncated("f64"))?;
    let bytes = buf.get(*pos..end).ok_or(SzError::Truncated("f64"))?;
    *pos = end;
    Ok(f64::from_le_bytes(bytes.try_into().unwrap()))
}

/// MSB-first bit writer over a growable byte vector.
///
/// Bits accumulate in a 64-bit word that [`BitWriter::write_codes`]
/// stores after every code; fewer than 8 bits stay pending between
/// calls. The backing buffer can be recycled across streams via
/// [`BitWriter::with_buffer`].
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bit accumulator; only the low `nbits` bits are meaningful.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer reusing `buf` (cleared first) as backing storage, so
    /// per-chunk callers can recycle the allocation between streams.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            bytes: buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Write every `(code, len)` pair of `codes` (`code` below `2^len`,
    /// MSB first, `1 <= len <= 32`) after the bits already written;
    /// `bits` is at least their total length (a shorter one panics).
    ///
    /// The output is sized once, for `bits`. Then each code is one
    /// 8-byte big-endian store of the pending bits, moved to the top of
    /// the word, at the byte cursor; the cursor advances by the whole
    /// bytes filled and fewer than 8 bits stay pending, so no code takes
    /// a branch of its own.
    pub fn write_codes(&mut self, bits: u64, codes: impl IntoIterator<Item = (u32, u8)>) {
        let mut at = self.bytes.len();
        let pending = u64::from(self.nbits);
        self.bytes
            .resize(at + ((bits + pending) / 8) as usize + 8, 0);
        let out = &mut self.bytes[..];
        // The low `nbits` bits of `acc` are pending; the bits above them
        // were stored already, and shift out.
        let (mut acc, mut nbits) = (self.acc, self.nbits);
        for (code, len) in codes {
            debug_assert!((1..=32).contains(&len) && u64::from(code) >> len == 0);
            acc = acc << len | u64::from(code);
            // nbits < 8 between codes, so 1 <= nbits + len <= 39.
            nbits += u32::from(len);
            out[at..][..8].copy_from_slice(&(acc << (64 - nbits)).to_be_bytes());
            at += (nbits / 8) as usize;
            nbits %= 8;
        }
        self.bytes.truncate(at);
        self.acc = acc & ((1 << nbits) - 1);
        self.nbits = nbits;
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Flush the final partial byte (zero padded) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.bytes
    }
}

/// Largest `n` accepted by [`BitReader::peek_bits`]: one refill always
/// tops the accumulator up to at least this many bits while the stream
/// has them.
pub(crate) const MAX_PEEK_BITS: u32 = 56;

/// MSB-first bit reader over a byte slice, buffered through a 64-bit
/// accumulator that refills from whole words.
///
/// Two access styles share the same position:
///
/// - the byte-exact API ([`BitReader::read_bit`]), which returns
///   `None` once the slice is exhausted — semantics identical to the
///   historical bit-at-a-time reader;
/// - the decode-loop API ([`BitReader::peek_bits`] /
///   [`BitReader::consume`]), which lets a table-driven decoder look at
///   the next prefix without committing to a length. `peek_bits`
///   zero-pads past the end of the slice; callers that consume must
///   first check [`BitReader::bits_remaining`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte not yet loaded into `acc`.
    pos: usize,
    /// MSB-aligned accumulator: the top `avail` bits are the next bits
    /// of the stream, everything below them is zero.
    acc: u64,
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// New reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Total bits left in the stream (accumulator plus unread bytes).
    #[inline]
    pub fn bits_remaining(&self) -> usize {
        self.avail as usize + (self.bytes.len() - self.pos) * 8
    }

    /// Bits currently valid in the accumulator. After a refilling call
    /// (e.g. [`BitReader::peek_bits`]) this is < [`MAX_PEEK_BITS`] only
    /// when the byte slice is exhausted, in which case it equals
    /// [`BitReader::bits_remaining`] — which lets a decoder's hot loop
    /// test "are `len ≤ 56` bits really left?" against this single
    /// register instead of recomputing the full remaining count.
    #[inline]
    pub(crate) fn avail_bits(&self) -> u32 {
        self.avail
    }

    /// Top the accumulator up to ≥ 56 valid bits (or to everything the
    /// stream still has). The fast path grafts whole bytes of a 64-bit
    /// word in one shot; the tail falls back to byte-at-a-time.
    #[inline]
    pub(crate) fn refill(&mut self) {
        if self.avail >= MAX_PEEK_BITS {
            return;
        }
        if self.pos + 8 <= self.bytes.len() {
            let w = u64::from_be_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
            // Whole bytes that fit above the valid region (avail ≤ 55,
            // so 1 ≤ take ≤ 7 and the shifts below stay in range).
            let take = (63 - self.avail) >> 3;
            self.acc |= (w >> (64 - 8 * take)) << (64 - self.avail - 8 * take);
            self.pos += take as usize;
            self.avail += 8 * take;
        } else {
            while self.avail <= MAX_PEEK_BITS && self.pos < self.bytes.len() {
                self.acc |= u64::from(self.bytes[self.pos]) << (56 - self.avail);
                self.pos += 1;
                self.avail += 8;
            }
        }
    }

    /// Look at the next `n` bits (MSB-first, `1 ≤ n ≤ 56`) without
    /// consuming them. Bits past the end of the stream read as zero;
    /// check [`BitReader::bits_remaining`] before consuming.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!((1..=MAX_PEEK_BITS).contains(&n));
        if self.avail < n {
            self.refill();
        }
        self.acc >> (64 - n)
    }

    /// Advance past `n` bits previously exposed by
    /// [`BitReader::peek_bits`]. `n` must not exceed the bits the last
    /// peek actually made available (`bits_remaining` bounds it at the
    /// stream tail).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.avail, "consume past refilled bits");
        self.acc <<= n;
        self.avail -= n;
    }

    /// Read a single bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<u8> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return None;
            }
        }
        let bit = (self.acc >> 63) as u8;
        self.acc <<= 1;
        self.avail -= 1;
        Some(bit)
    }
}

/// Fixed-width reads the tests check written streams with; decoders
/// peek and consume.
#[cfg(test)]
impl BitReader<'_> {
    /// Read `len` bits MSB-first into a `u64` (`len ≤ 64`).
    ///
    /// Failure is position-stable: if fewer than `len` bits remain the
    /// reader returns `None` without consuming anything, so the
    /// remaining bits can still be read afterwards.
    fn read_bits(&mut self, len: u8) -> Option<u64> {
        debug_assert!(len <= 64);
        if len == 0 {
            return Some(0);
        }
        let len = u32::from(len);
        if self.bits_remaining() < len as usize {
            return None;
        }
        if len <= MAX_PEEK_BITS {
            let v = self.peek_bits(len);
            self.consume(len);
            Some(v)
        } else {
            let hi = self.peek_bits(32);
            self.consume(32);
            let lo_len = len - 32;
            let lo = self.peek_bits(lo_len);
            self.consume(lo_len);
            Some((hi << lo_len) | lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let vals = [0u64, 1, 127, 128, 300, 65535, 1 << 32, u64::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            get_varint(&buf, &mut pos),
            Err(SzError::Truncated(_))
        ));
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdeadbeef);
        put_u64(&mut buf, 0x0123456789abcdef);
        put_f64(&mut buf, -1.25e300);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xdeadbeef);
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), 0x0123456789abcdef);
        assert_eq!(get_f64(&buf, &mut pos).unwrap(), -1.25e300);
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_codes(19, [(0b101, 3), (0xffff, 16)]);
        w.write_codes(1, [(0, 1)]);
        w.write_codes(1, [(0b1, 1)]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xffff);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn bit_writer_wide_codes_and_buffer_reuse() {
        // Codes of the widest length, on both sides of a pending bit.
        let mut w = BitWriter::new();
        w.write_codes(1, [(1, 1)]);
        w.write_codes(64, [(0xDEAD_BEEF, 32), (0xCAFE_F00D, 32)]);
        w.write_codes(2, [(0b11, 2)]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);

        // A writer recycling that buffer produces the same stream as a
        // fresh one.
        let mut w2 = BitWriter::with_buffer(bytes);
        w2.write_codes(7, [(0b1010101, 7)]);
        let mut w3 = BitWriter::new();
        w3.write_codes(7, [(0b1010101, 7)]);
        assert_eq!(w2.finish(), w3.finish());
    }

    #[test]
    fn a_batch_fits_the_output_its_bit_count_sizes() {
        // The last store of a batch reaches furthest past its bits when
        // bits are pending and its last code is short: every pending
        // count, around every byte boundary, against one code per call.
        let pend = |w: &mut BitWriter, pending: u8| {
            if pending > 0 {
                w.write_codes(u64::from(pending), [(0x55 >> (8 - pending), pending)]);
            }
        };
        for pending in 0..8u8 {
            for head in 1..=32u8 {
                for last in 1..=8u8 {
                    let codes = [((1u64 << head) - 1) as u32, 1];
                    let mut batch = BitWriter::new();
                    pend(&mut batch, pending);
                    batch.write_codes(u64::from(head + last), [(codes[0], head), (codes[1], last)]);
                    let mut single = BitWriter::new();
                    pend(&mut single, pending);
                    single.write_codes(u64::from(head), [(codes[0], head)]);
                    single.write_codes(u64::from(last), [(codes[1], last)]);
                    assert_eq!(batch.finish(), single.finish(), "{pending} {head} {last}");
                }
            }
        }
    }

    #[test]
    fn bit_reader_eof() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert!(r.read_bit().is_none());
    }

    #[test]
    fn read_bits_failure_is_position_stable() {
        // A failing read_bits must not consume the bits it could have
        // read: after the None, the remaining bits are all still there.
        let mut r = BitReader::new(&[0b1011_0011, 0b1100_0000]);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        // 12 bits remain; asking for more fails without moving.
        assert!(r.read_bits(13).is_none());
        assert!(r.read_bits(64).is_none());
        assert_eq!(r.bits_remaining(), 12);
        assert_eq!(r.read_bits(12).unwrap(), 0b0011_1100_0000);
        assert!(r.read_bits(1).is_none());
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn peek_consume_matches_read_bits() {
        // Driving the reader through peek/consume yields exactly the
        // bit sequence the byte-exact API reads, across word-refill
        // boundaries.
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let widths = [3u32, 11, 1, 56, 7, 24, 13, 2, 31, 11, 11, 11];
        let mut peeker = BitReader::new(&bytes);
        let mut reader = BitReader::new(&bytes);
        for &w in widths.iter().cycle().take(40) {
            if peeker.bits_remaining() < w as usize {
                break;
            }
            let a = peeker.peek_bits(w);
            peeker.consume(w);
            let b = reader.read_bits(w as u8).unwrap();
            assert_eq!(a, b, "width {w}");
        }
        assert_eq!(peeker.bits_remaining(), reader.bits_remaining());
    }

    #[test]
    fn peek_zero_pads_past_the_end() {
        // 6 bits of stream left ("111100"): an 11-bit peek sees them
        // MSB-aligned with zero padding, and bits_remaining still says
        // 6 — the caller decides whether a consume is legal.
        let mut r = BitReader::new(&[0b1011_1100]);
        r.peek_bits(2);
        r.consume(2);
        assert_eq!(r.bits_remaining(), 6);
        assert_eq!(r.peek_bits(11), 0b111_1000_0000);
        assert_eq!(r.bits_remaining(), 6);
        // The real bits are still readable through the byte-exact API.
        assert_eq!(r.read_bits(6).unwrap(), 0b11_1100);
    }

    #[test]
    fn bits_remaining_tracks_all_apis() {
        let bytes = vec![0xA5u8; 20];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits_remaining(), 160);
        r.read_bit().unwrap();
        assert_eq!(r.bits_remaining(), 159);
        r.read_bits(56).unwrap();
        assert_eq!(r.bits_remaining(), 103);
        r.peek_bits(11);
        r.consume(11);
        assert_eq!(r.bits_remaining(), 92);
        r.read_bits(64).unwrap();
        assert_eq!(r.bits_remaining(), 28);
    }
}
