//! Trailing lossless stage: LZSS with hash-chain matching.
//!
//! SZ applies a general-purpose lossless compressor (zstd) after Huffman
//! coding; we implement a self-contained LZSS. Like zstd-on-Huffman
//! output, it wins when the code stream has long repeats (very smooth
//! regions → long zero-code runs) and falls back to a raw copy when the
//! Huffman output is effectively random (the paper's low-ratio regime,
//! §III-D factor 3).
//!
//! The stage is built to cost what it returns:
//!
//! * the matcher works through two fixed, cache-sized `u32` tables
//!   ([`LzScratch`]: a 256 KiB hash head and a 256 KiB ring of chain
//!   links), whatever the input length;
//! * an input of at most [`WINDOW`] bytes is stored raw without running
//!   the matcher when a count of its repeated positions proves that no
//!   token stream can be shorter than it ([`cannot_shrink`]; the bound
//!   is below) — a 32³ tile's Huffman output, for one;
//! * it *gives up* on longer input that does not repeat: once a whole
//!   16 KiB window of input past the first has cost 1.10× its size or
//!   more in output (all literals cost 1.125×), the stream is stored
//!   raw — exactly what a finished token stream that is not smaller
//!   than its input ends as, minus the time spent finding that out.
//!   Window and threshold are private constants set from the measured
//!   distribution quoted on them; there is no knob.
//!
//! # Bytes contract
//!
//! The output is a pure function of the input bytes. Against the
//! exhaustive matcher (every position searched to the end, the
//! behaviour before the give-up existed) a stream differs only if a
//! repeat-free stretch of at least one window is followed by enough
//! compressible input to have paid for it — or if the input is too long
//! for 32-bit positions (≈ 4 GiB) — and then it is the stored input
//! plus the mode byte, so never larger than skipping the stage + 1.
//!
//! The bound never changes a byte. A match of length `L` costs 3 bytes
//! and one flag bit, and covers `L − 3` positions whose 4 bytes also
//! occur earlier in the window (those it starts at up to `L − 4` past
//! its start). With `R` such positions in an `n`-byte input, `k`
//! matches covering `M` bytes have `M − 3k ≤ R`, and, as `L ≥ 4`,
//! `k ≤ M − 3k`; the stream (mode byte, length varint, flag bytes and
//! tokens) is therefore at least
//!
//! `1 + varint(n) + (n − R) + ⌈(n − 3R) / 8⌉`
//!
//! bytes, as `n − M + 3k ≥ n − R` token bytes and `n − M + k ≥ n − 3R`
//! tokens. It is not smaller than `n`, and the input is stored, whenever
//! `11·R < n + 16 + 8·varint(n)`. `R` is counted with one hashed pass
//! over 2^17 buckets: a position counts when an earlier position of the
//! input has marked its bucket. A repeated 4-byte group always finds the
//! bucket of its first occurrence marked, so collisions only raise the
//! count and the bound stays exact. On the tiles of `rtm_chunked` (RTM
//! 128³ in 32³ tiles, relative bound 1e-3; its four snapshots on seeds
//! 1 and 2, 512 payloads of 13.1–17.2 KB) the count reads
//! `R / n ≤ 0.066` against a limit of ≈ 0.091 — every tile is stored by
//! the bound, where the matcher used to run to the end and keep none of
//! them.

use crate::error::{Result, SzError};
use crate::stream::{get_varint, put_varint, varint_len};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255 + MIN_MATCH;
/// Farthest a match reaches back; also the longest input
/// [`cannot_shrink`] decides on.
pub const WINDOW: usize = 65535;
const HASH_BITS: u32 = 16;
const MAX_CHAIN: usize = 48;
/// Slots of the chain-link ring: the smallest power of two above
/// [`WINDOW`], so an in-window position never shares a slot with a
/// later one that has already been inserted.
const RING: usize = WINDOW + 1;
/// First epoch base: past the window, so the empty marker 0 fails the
/// window check like any stale entry.
const FIRST_BASE: u32 = WINDOW as u32 + 1;
/// Hash bits of [`cannot_shrink`]'s count: one bit per bucket, in the
/// first `2^17 / 32` slots of the matcher's ring (see [`LzScratch`]).
const COUNT_BITS: u32 = HASH_BITS + 1;
const MARKS: usize = (1 << COUNT_BITS) / 32;

/// Input bytes per give-up decision.
///
/// Measured on the payloads of the paper's workloads (Nyx 48×96×96 × 6
/// fields, VPIC 2^18 × 8 fields, RTM 64×128×128; relative bound 1e-3,
/// seven generator seeds, 1368 windows past the first), output bytes
/// per input byte of a 16 KiB window are sharply bimodal: windows of
/// incompressible Huffman output cost 1.122–1.125 (all literals plus
/// one flag bit each), windows of the two compressible Nyx density
/// fields 0.87–1.04, and nothing lands in between — except a stream's
/// *first* window, which holds the serialized Huffman table and reads
/// anything from 0.79 to 1.125. Hence: never judge the first window,
/// and put the threshold in the gap.
///
/// An input of at most two windows is therefore never judged, and the
/// matcher used to run every such input to the end: a 32³ tile's
/// payload (13.1–17.2 KB on `rtm_chunked`) lies inside the first or
/// just past it. Those inputs are what [`cannot_shrink`]'s bound
/// decides on.
const GIVE_UP_WINDOW: usize = 16 << 10;
/// A window past the first that emits at least this percentage of its
/// input ends the search (see [`GIVE_UP_WINDOW`] for the measured gap
/// it sits in).
const GIVE_UP_PERCENT: usize = 110;

/// Stage tag: payload stored raw (incompressible input).
pub(crate) const MODE_RAW: u8 = 0;
/// Stage tag: payload is LZSS token stream.
const MODE_LZSS: u8 = 1;

#[inline]
fn load4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

/// The top `bits` bits of the multiplicative hash of `v`.
#[inline]
fn hash(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

#[inline]
fn hash4(v: u32) -> usize {
    hash(v, HASH_BITS)
}

/// Reusable LZSS matcher state: the hash-head table (2^16 × `u32`,
/// 256 KiB) and the ring of chain links (2^16 × `u32`, 256 KiB),
/// allocated on first use and never resized — the matcher's working
/// set is half a megabyte however long the input is.
///
/// Both tables store *epoch-offset* positions `base + i`: every
/// compressed buffer advances `base` by `len + WINDOW + 1`, so entries
/// left over from a previous buffer (and the empty marker 0) fail the
/// window check like any other out-of-window position and the head
/// table is not cleared between calls. It is zeroed only when `base`
/// would pass `u32::MAX`, once per ≈ 4 GiB compressed. A link is read
/// only from the slot of an in-window candidate of the current buffer,
/// and that slot cannot have been reused: position `cand + 2^16` lies
/// ahead of the position being matched.
///
/// So the ring's contents between buffers mean nothing, and
/// [`cannot_shrink`] counts in its first 4096 slots (16 KiB, a bit per
/// bucket of a 17-bit hash — an L1-sized table where a table of
/// positions would be 512 KiB), zeroing them first.
#[derive(Debug, Default)]
pub struct LzScratch {
    head: Vec<u32>,
    links: Vec<u32>,
    base: u32,
}

impl LzScratch {
    /// Allocate the tables on first use.
    fn reserve(&mut self) {
        if self.head.is_empty() {
            self.head = vec![0; 1 << HASH_BITS];
            self.links = vec![0; RING];
            self.base = FIRST_BASE;
        }
    }
}

/// Compress `input`, always producing a self-describing stream
/// (mode byte + payload). Never grows the data by more than a few bytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out, &mut LzScratch::default());
    out
}

/// Compress `input` into `out` (cleared first), reusing `scratch`
/// across calls. Output is byte-identical to [`compress`].
pub fn compress_into(input: &[u8], out: &mut Vec<u8>, scratch: &mut LzScratch) {
    out.clear();
    if !cannot_shrink(input, scratch) {
        out.push(MODE_LZSS);
        // LZSS is kept only when mode byte + tokens is smaller than the
        // input.
        if lzss_compress_into(input, out, scratch, true) && out.len() < input.len() {
            return;
        }
        out.clear();
    }
    // Incompressible: store raw.
    out.push(MODE_RAW);
    out.extend_from_slice(input);
}

/// True when `input` is at most [`WINDOW`] bytes and the module's
/// bound proves that no LZSS stream of it (mode byte included) is
/// shorter than it: [`compress_into`] then stores it without running
/// the matcher. One hashed pass that stops as soon as the bound fails;
/// it allocates nothing past `scratch`'s tables.
pub fn cannot_shrink(input: &[u8], scratch: &mut LzScratch) -> bool {
    let n = input.len();
    if n > WINDOW {
        return false;
    }
    // Stored while `11·R < limit`.
    let limit = n + 16 + 8 * varint_len(n as u64);
    scratch.reserve();
    let marks: &mut [u32; MARKS] = (&mut scratch.links[..MARKS]).try_into().expect("marks");
    marks.fill(0);
    let mut repeats = 0usize;
    for four in input.windows(MIN_MATCH) {
        let h = hash(
            u32::from_le_bytes(four.try_into().expect("4 bytes")),
            COUNT_BITS,
        );
        // Every earlier position of the input is within the window
        // (`n ≤ WINDOW`), so a marked bucket is a repeat or a collision.
        let (word, bit) = (h / 32, 1 << (h % 32));
        repeats += usize::from(marks[word] & bit != 0);
        marks[word] |= bit;
        if 11 * repeats >= limit {
            return false;
        }
    }
    true
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decompress a stream produced by [`compress`] into `out` (cleared
/// first), reusing its allocation — the per-chunk decode path calls
/// this once per chunk per worker whose payload LZSS shrank.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let (&mode, rest) = input
        .split_first()
        .ok_or(SzError::Truncated("lossless mode"))?;
    match mode {
        MODE_RAW => {
            out.extend_from_slice(rest);
            Ok(())
        }
        MODE_LZSS => lzss_decompress_into(rest, out),
        _ => Err(SzError::Corrupt("unknown lossless mode")),
    }
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped
/// at `max_len`. Compares 8 bytes at a time; the result is identical to
/// the byte-by-byte scan.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let wa = u64::from_le_bytes(input[a + l..a + l + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(input[b + l..b + l + 8].try_into().unwrap());
        let x = wa ^ wb;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && input[a + l] == input[b + l] {
        l += 1;
    }
    l
}

/// Link position `i` (epoch-offset `gi`, hash `h`) in front of its
/// hash chain.
#[inline]
fn insert(head: &mut [u32; 1 << HASH_BITS], links: &mut [u32; RING], h: usize, i: usize, gi: u32) {
    links[i % RING] = head[h];
    head[h] = gi;
}

/// Append the LZSS token stream of `input` to `out`.
///
/// Returns `false` when the search was abandoned and `out` holds only a
/// useless prefix: `give_up` is set and a window past the first cost
/// [`GIVE_UP_PERCENT`] of its input or more, or the input is too long
/// for 32-bit positions. `give_up` is `true` everywhere but in the
/// tests that compare token streams against the exhaustive matcher.
fn lzss_compress_into(input: &[u8], out: &mut Vec<u8>, s: &mut LzScratch, give_up: bool) -> bool {
    put_varint(out, input.len() as u64);
    let n = input.len();
    if n == 0 {
        return true;
    }
    if n > (u32::MAX - 2 * FIRST_BASE) as usize {
        return false;
    }
    // Positions this buffer takes out of the epoch: its own, plus the
    // gap that puts them out of the next buffer's window.
    let span = n as u32 + FIRST_BASE;
    s.reserve();
    if span > u32::MAX - s.base {
        s.head.fill(0);
        s.base = FIRST_BASE;
    }
    let base = s.base;
    s.base = base + span;
    // Fixed-size views: indices derived from a 16-bit hash or a
    // position modulo `RING` need no bounds check.
    let head: &mut [u32; 1 << HASH_BITS] = (&mut s.head[..]).try_into().expect("head size");
    let links: &mut [u32; RING] = (&mut s.links[..]).try_into().expect("ring size");
    // Positions below this have `MIN_MATCH` bytes ahead of them: they
    // are hashed, inserted and searched; the last few are not.
    let hashable = n.saturating_sub(MIN_MATCH - 1);

    let mut i = 0usize;
    // Token group: flag byte position + bit count.
    let mut flag_pos = out.len();
    out.push(0);
    let mut flag_bits = 0u8;
    // Give-up window: where it began in the input and in the output,
    // and the input position that completes it.
    let (mut win_in, mut win_out) = (0usize, 0usize);
    let mut win_end = if give_up { GIVE_UP_WINDOW } else { usize::MAX };

    macro_rules! push_flag {
        ($bit:expr) => {
            if flag_bits == 8 {
                flag_pos = out.len();
                out.push(0);
                flag_bits = 0;
            }
            if $bit {
                out[flag_pos] |= 1 << flag_bits;
            }
            flag_bits += 1;
        };
    }

    while i < n {
        if i >= win_end {
            // The first window (`win_in == 0`) holds the Huffman table
            // and is never judged.
            if win_in > 0 && (out.len() - win_out) * 100 >= (i - win_in) * GIVE_UP_PERCENT {
                return false;
            }
            win_in = i;
            win_out = out.len();
            win_end = i + GIVE_UP_WINDOW;
        }

        let gi = base + i as u32;
        let mut h = 0usize;
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < hashable {
            let v = load4(input, i);
            h = hash4(v);
            let max_len = (n - i).min(MAX_MATCH);
            let mut g = head[h];
            let mut chain = 0;
            while gi.wrapping_sub(g) <= WINDOW as u32 && chain < MAX_CHAIN {
                let cand = (g - base) as usize;
                // One 4-byte compare rejects a candidate shorter than
                // `MIN_MATCH`: it can never be the emitted match, and
                // ignoring it never changes which longer one wins (the
                // first in chain order to reach the maximum length).
                // Past that, a candidate can only beat `best_len` if it
                // also matches at offset `best_len` (< `max_len`, or
                // the walk would have stopped).
                if load4(input, cand) == v && input[cand + best_len] == input[i + best_len] {
                    let l = match_len(input, cand, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == max_len {
                            break;
                        }
                    }
                }
                g = links[cand % RING];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            push_flag!(true);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for the covered span.
            insert(head, links, h, i, gi);
            let end = i + best_len;
            for p in i + 1..end.min(hashable) {
                insert(head, links, hash4(load4(input, p)), p, base + p as u32);
            }
            i = end;
        } else {
            push_flag!(false);
            out.push(input[i]);
            if i < hashable {
                insert(head, links, h, i, gi);
            }
            i += 1;
        }
    }
    true
}

fn lzss_decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let mut pos = 0usize;
    let n = get_varint(input, &mut pos)? as usize;
    // Even a stream of nothing but maximal match tokens (3 payload
    // bytes → MAX_MATCH output bytes) cannot expand past
    // `remaining * MAX_MATCH`, so a forged length varint beyond that
    // is rejected before it can drive a gigantic reservation.
    let remaining = input.len() - pos;
    if n > (1 << 40) || n > remaining.saturating_mul(MAX_MATCH) {
        return Err(SzError::Corrupt("lzss length implausible"));
    }
    out.reserve(n);
    let mut flags = 0u8;
    let mut flag_bits = 0u8;
    while out.len() < n {
        if flag_bits == 0 {
            flags = *input.get(pos).ok_or(SzError::Truncated("lzss flags"))?;
            pos += 1;
            flag_bits = 8;
            if flags == 0 {
                // All-literal group: one chunked copy instead of eight
                // per-bit iterations. Smooth-region payloads (long
                // Huffman-code runs that LZSS could not match) are
                // dominated by these groups.
                let want = (n - out.len()).min(8);
                let lits = input
                    .get(pos..pos + want)
                    .ok_or(SzError::Truncated("lzss literal"))?;
                out.extend_from_slice(lits);
                pos += want;
                flag_bits = 0;
                continue;
            }
        }
        let is_match = flags & 1 != 0;
        flags >>= 1;
        flag_bits -= 1;
        if is_match {
            let b = input
                .get(pos..pos + 3)
                .ok_or(SzError::Truncated("lzss match"))?;
            pos += 3;
            let dist = u16::from_le_bytes([b[0], b[1]]) as usize;
            let len = b[2] as usize + MIN_MATCH;
            if dist == 0 || dist > out.len() {
                return Err(SzError::Corrupt("lzss distance"));
            }
            let start = out.len() - dist;
            if dist >= len {
                // Non-overlapping: one memcpy-class copy.
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping (dist < len): the copied prefix is
                // itself source material, so the copyable window
                // doubles each round — copy_within-style expansion
                // instead of a byte-at-a-time loop.
                let mut copied = 0usize;
                while copied < len {
                    let take = (len - copied).min(out.len() - start);
                    out.extend_from_within(start..start + take);
                    copied += take;
                }
            }
        } else {
            let byte = *input.get(pos).ok_or(SzError::Truncated("lzss literal"))?;
            pos += 1;
            out.push(byte);
        }
    }
    if out.len() != n {
        return Err(SzError::Corrupt("lzss length mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
impl LzScratch {
    /// Move the epoch forward, as if `base` positions had been
    /// compressed through this scratch.
    fn set_base(&mut self, base: u32) {
        assert!(!self.head.is_empty() && base >= self.base);
        self.base = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pseudo-random (incompressible) bytes.
    fn xorshift_bytes(seed: u32, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect()
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"abc");
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabc".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "repetitive data should shrink");
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_zeros() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 2_000);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        let data = xorshift_bytes(0x12345678, 10_000);
        let c = compress(&data);
        assert!(c.len() <= data.len() + 1);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." forces dist-1 overlapping copies
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn decompress_into_reuses_dirty_buffer() {
        // The same output buffer recycled across streams of different
        // sizes and modes must match the allocating path exactly.
        let streams: Vec<Vec<u8>> = vec![
            b"abcabcabcabc".repeat(50),
            (0..255u8).collect(),
            vec![0u8; 10_000],
            b"xy".to_vec(),
        ];
        let mut buf = vec![0xAAu8; 123]; // dirty on purpose
        for s in &streams {
            let c = compress(s);
            decompress_into(&c, &mut buf).unwrap();
            assert_eq!(&buf, s);
        }
    }

    #[test]
    fn reused_scratch_is_byte_identical() {
        // One scratch recycled across many buffers (repeats, randomish,
        // overlapping self-copies, tiny, empty) must emit exactly the
        // stream a fresh scratch does: stale head entries may never
        // surface as match candidates.
        let buffers: Vec<Vec<u8>> = vec![
            b"abcabcabcabc".repeat(64),
            xorshift_bytes(0xdeadbeef, 10_000),
            vec![b'a'; 1000],
            b"abcabcabcabc".repeat(64), // repeat of an earlier input
            Vec::new(),
            xorshift_bytes(77, 3),
            vec![0u8; 100_000],
        ];
        let mut s = LzScratch::default();
        let mut out = Vec::new();
        for b in &buffers {
            compress_into(b, &mut out, &mut s);
            assert_eq!(out, compress(b), "diverged on len {}", b.len());
            assert_eq!(decompress(&out).unwrap(), *b);
        }
    }

    /// Naive per-byte expansion of a raw LZSS token stream (no mode
    /// byte) — the oracle the chunked fast paths are checked against.
    fn naive_expand(input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        let n = get_varint(input, &mut pos)? as usize;
        let mut flags = 0u8;
        let mut flag_bits = 0u8;
        while out.len() < n {
            if flag_bits == 0 {
                flags = *input.get(pos).ok_or(SzError::Truncated("lzss flags"))?;
                pos += 1;
                flag_bits = 8;
            }
            let is_match = flags & 1 != 0;
            flags >>= 1;
            flag_bits -= 1;
            if is_match {
                let b = input
                    .get(pos..pos + 3)
                    .ok_or(SzError::Truncated("lzss match"))?;
                pos += 3;
                let dist = u16::from_le_bytes([b[0], b[1]]) as usize;
                let len = b[2] as usize + MIN_MATCH;
                if dist == 0 || dist > out.len() {
                    return Err(SzError::Corrupt("lzss distance"));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            } else {
                let byte = *input.get(pos).ok_or(SzError::Truncated("lzss literal"))?;
                pos += 1;
                out.push(byte);
            }
        }
        if out.len() != n {
            return Err(SzError::Corrupt("lzss length mismatch"));
        }
        Ok(out)
    }

    /// Hand-build a MODE_LZSS stream: `lits` literal bytes, then one
    /// match of (`dist`, `len`), then `tail_lits` more literals.
    fn craft_stream(lits: &[u8], dist: u16, len: usize, tail_lits: &[u8]) -> Vec<u8> {
        assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
        let mut body = Vec::new();
        put_varint(&mut body, (lits.len() + len + tail_lits.len()) as u64);
        let mut tokens: Vec<(bool, Vec<u8>)> = Vec::new();
        for &b in lits {
            tokens.push((false, vec![b]));
        }
        let mut m = dist.to_le_bytes().to_vec();
        m.push((len - MIN_MATCH) as u8);
        tokens.push((true, m));
        for &b in tail_lits {
            tokens.push((false, vec![b]));
        }
        for group in tokens.chunks(8) {
            let mut flag = 0u8;
            for (i, (is_match, _)) in group.iter().enumerate() {
                if *is_match {
                    flag |= 1 << i;
                }
            }
            body.push(flag);
            for (_, payload) in group {
                body.extend_from_slice(payload);
            }
        }
        let mut s = vec![MODE_LZSS];
        s.extend_from_slice(&body);
        s
    }

    #[test]
    fn overlapping_matches_at_every_small_distance() {
        // dist 1..=8 with len far beyond dist exercises the doubling
        // copy_within-style expansion at every window size, including
        // maximal 259-byte matches; output must equal the naive
        // per-byte oracle.
        for dist in 1u16..=8 {
            for len in [MIN_MATCH, 7, 16, 100, MAX_MATCH] {
                let seed: Vec<u8> = (0..dist as u8).map(|i| i.wrapping_mul(41) + 3).collect();
                let s = craft_stream(&seed, dist, len, b"xy");
                let fast = decompress(&s).unwrap();
                let naive = naive_expand(&s[1..]).unwrap();
                assert_eq!(fast, naive, "dist {dist} len {len}");
                // The expansion really is periodic with period `dist`.
                let body = &fast[seed.len()..seed.len() + len];
                for (k, &b) in body.iter().enumerate() {
                    assert_eq!(b, seed[k % dist as usize], "dist {dist} len {len} at {k}");
                }
            }
        }
    }

    #[test]
    fn non_overlapping_match_spanning_literal_group_boundary() {
        // 13 leading literals put the match token inside the second
        // flag group, and dist ≥ len takes the single-copy fast path.
        let lits: Vec<u8> = (0..13u8).collect();
        for (dist, len) in [(13u16, 8usize), (10, 10), (9, MIN_MATCH)] {
            let s = craft_stream(&lits, dist, len, b"tail");
            assert_eq!(decompress(&s).unwrap(), naive_expand(&s[1..]).unwrap());
        }
    }

    #[test]
    fn match_expansion_across_chunk_copy_boundary() {
        // dist just below len makes the first extend_from_within round
        // stop mid-match and a short second round finish it — the seam
        // between the chunked copy and the overlap loop.
        for (dist, len) in [(7u16, 8usize), (8, 9), (5, 11), (128, 255)] {
            let seed: Vec<u8> = (0..dist).map(|i| (i * 89 + 17) as u8).collect();
            let s = craft_stream(&seed, dist, len, &[]);
            assert_eq!(
                decompress(&s).unwrap(),
                naive_expand(&s[1..]).unwrap(),
                "dist {dist} len {len}"
            );
        }
    }

    #[test]
    fn roundtrip_small_period_data_hits_fast_paths() {
        // Compressor-produced streams for periodic data emit real
        // dist-1..8 matches; the full encode→fast-decode loop must
        // roundtrip bit-exactly.
        for period in 1usize..=8 {
            let seed: Vec<u8> = (0..period as u8).map(|i| i.wrapping_mul(67) + 5).collect();
            let data: Vec<u8> = seed.iter().copied().cycle().take(4096 + period).collect();
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "period {period}");
        }
    }

    #[test]
    fn forged_length_rejected_without_allocation() {
        // A huge declared length over a tiny payload must be rejected
        // up front (no terabyte reserve), even below the absolute cap.
        let mut s = vec![MODE_LZSS];
        put_varint(&mut s, 1u64 << 39);
        s.push(0);
        assert!(matches!(
            decompress(&s),
            Err(SzError::Corrupt("lzss length implausible"))
        ));
    }

    #[test]
    fn corrupt_mode_rejected() {
        assert!(decompress(&[9, 1, 2, 3]).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let mut c = compress(&data);
        c.truncate(c.len() - 3);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn bad_distance_rejected() {
        // Hand-craft: n=8, flag byte with match bit, dist 100 > produced 0
        let mut buf = vec![MODE_LZSS];
        put_varint(&mut buf, 8);
        buf.push(0b0000_0001);
        buf.extend_from_slice(&100u16.to_le_bytes());
        buf.push(0);
        assert!(decompress(&buf).is_err());
    }

    /// Length varint + token groups of the exhaustive oracle.
    fn oracle_stream(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, input.len() as u64);
        oracle::tokens(input, &mut out);
        out
    }

    /// Token stream of the matcher under test; `None` when it gave up.
    fn token_stream(input: &[u8], s: &mut LzScratch, give_up: bool) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        lzss_compress_into(input, &mut out, s, give_up).then_some(out)
    }

    /// One stretch of a generated input: `(kind, len, seed, period)`.
    type Segment = (u8, usize, u32, usize);

    /// Inputs up to ~200 KiB from a small recipe, so a failure shrinks
    /// and prints as a handful of integers.
    fn build(segments: &[Segment]) -> Vec<u8> {
        let mut data: Vec<u8> = Vec::new();
        for &(kind, len, seed, period) in segments {
            let noise = xorshift_bytes(seed, len);
            match kind {
                // Incompressible.
                0 => data.extend(noise),
                // Periodic, period 1..=300.
                1 => data.extend(noise[..period.min(len)].iter().cycle().take(len)),
                // A constant run.
                2 => data.extend(std::iter::repeat_n(seed as u8, len)),
                // Four-symbol alphabet: hash chains deeper than
                // `MAX_CHAIN`, matches of every length.
                3 => data.extend(noise.iter().map(|b| b & 3)),
                // Payload-like: a replay of earlier bytes (possibly
                // from beyond the window) with sparse mutations.
                _ => {
                    let from = seed as usize % (data.len() + 1);
                    let copy: Vec<u8> = data[from..].iter().copied().take(len).collect();
                    data.extend(
                        copy.iter()
                            .zip(&noise)
                            .map(|(&b, &r)| if r < 4 { b ^ r } else { b }),
                    );
                }
            }
        }
        data
    }

    thread_local! {
        /// One scratch for every proptest case, dirty from the last.
        static DIRTY: std::cell::RefCell<LzScratch> = std::cell::RefCell::default();
    }

    proptest! {
        // Sized for the unoptimised tier-1 run (~10 ms a case there);
        // CI's release step of this crate runs the larger count.
        #![proptest_config(ProptestConfig::with_cases_and_seed(
            if cfg!(debug_assertions) { 48 } else { 256 },
            0x15_1255,
        ) /* pinned: deterministic CI */)]

        #[test]
        fn tokens_equal_the_exhaustive_oracle(
            segments in proptest::collection::vec(
                (0u8..5, 0usize..=40 << 10, any::<u32>(), 1usize..=300),
                0..=5,
            ),
        ) {
            let data = build(&segments);
            let expect = oracle_stream(&data);
            let got = DIRTY.with_borrow_mut(|s| token_stream(&data, s, false));
            prop_assert!(got.as_ref() == Some(&expect), "len {}", data.len());
            prop_assert_eq!(naive_expand(&expect).unwrap(), data);
        }
    }

    /// Positions of `input` whose 4 bytes occur earlier within the
    /// window, counted without hashing.
    fn exact_repeats(input: &[u8]) -> usize {
        let mut last = std::collections::HashMap::new();
        (0..input.len().saturating_sub(MIN_MATCH - 1))
            .filter(|&i| {
                let seen = last.insert(load4(input, i), i);
                seen.is_some_and(|q| i - q <= WINDOW)
            })
            .count()
    }

    /// [`compress_into`] on a dirty scratch.
    fn stage(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        DIRTY.with_borrow_mut(|s| compress_into(input, &mut out, s));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_and_seed(
            if cfg!(debug_assertions) { 48 } else { 256 },
            0xB0_0D,
        ) /* pinned: deterministic CI */)]

        /// The module's bound holds against the exhaustive matcher, and
        /// storing by it never changes a byte: below two give-up
        /// windows the stage emits exactly the exhaustive stream.
        #[test]
        fn the_bound_stores_only_what_no_stream_shrinks(
            segments in proptest::collection::vec(
                (0u8..5, 0usize..=14 << 10, any::<u32>(), 1usize..=300),
                0..=5,
            ),
        ) {
            let data = build(&segments);
            let n = data.len();
            let tokens = 1 + oracle_stream(&data).len();
            let r = exact_repeats(&data);
            let flags = n.saturating_sub(3 * r).div_ceil(8);
            prop_assert!(tokens >= 1 + varint_len(n as u64) + n - r + flags, "len {}", n);
            let stored = DIRTY.with_borrow_mut(|s| cannot_shrink(&data, s));
            prop_assert!(!stored || tokens >= n, "stored a stream that shrinks, len {}", n);
            prop_assert!(!stored || n <= WINDOW);
            if n <= 2 * GIVE_UP_WINDOW {
                let want = if tokens < n {
                    [&[MODE_LZSS][..], &oracle_stream(&data)].concat()
                } else {
                    [&[MODE_RAW][..], &data].concat()
                };
                prop_assert!(stage(&data) == want, "len {}", n);
            }
        }
    }

    #[test]
    fn the_bound_decides_both_ways() {
        // Noise is stored by the bound up to ≈ 20 KB: past that, the
        // collisions of 2^17 buckets (≈ n² / 2^18 of them) alone reach
        // the limit of ≈ n / 11 counted repeats.
        let noise = xorshift_bytes(0xC0FFEE, WINDOW + 1);
        let mut s = LzScratch::default();
        for n in [0, 1, 3, 4, 100, 14_500, 20_000] {
            assert!(cannot_shrink(&noise[..n], &mut s), "noise of {n}");
            assert_eq!(stage(&noise[..n]), [&[MODE_RAW][..], &noise[..n]].concat());
        }
        for n in [2 * GIVE_UP_WINDOW, WINDOW, WINDOW + 1] {
            assert!(!cannot_shrink(&noise[..n], &mut s), "noise of {n}");
        }
        // One planted repeat of a fifth of the input: the count exceeds
        // the limit and the matcher runs, and wins.
        let mut data = noise[..14_500].to_vec();
        data.copy_within(0..2900, 7000);
        assert!(!cannot_shrink(&data, &mut s));
        assert_eq!(stage(&data)[0], MODE_LZSS);
        roundtrip(&data);
    }

    #[test]
    fn epoch_reset_keeps_tokens() {
        // Drive `base` to the end of the u32 epoch: a buffer that just
        // fits runs on the dirty head, the next one zeroes it and
        // starts over; both must match the oracle, as must buffers
        // compressed after the reset.
        let a = build(&[(3, 9000, 7, 1), (1, 5000, 9, 37)]);
        let b = build(&[(1, 70_000, 11, 300), (0, 100, 3, 1), (4, 8000, 500, 1)]);
        let mut s = LzScratch::default();
        assert!(token_stream(&a, &mut s, false) == Some(oracle_stream(&a)));
        let span = b.len() as u32 + FIRST_BASE;
        s.set_base(u32::MAX - span);
        assert!(token_stream(&b, &mut s, false) == Some(oracle_stream(&b)));
        assert_eq!(s.base, u32::MAX, "the buffer fits exactly");
        assert!(token_stream(&a, &mut s, false) == Some(oracle_stream(&a)));
        assert_eq!(s.base, FIRST_BASE + a.len() as u32 + FIRST_BASE, "reset");
        s.set_base(u32::MAX - span + 1);
        assert!(token_stream(&b, &mut s, false) == Some(oracle_stream(&b)));
        assert_eq!(s.base, FIRST_BASE + span, "one position short: reset");
        assert!(token_stream(&a, &mut s, false) == Some(oracle_stream(&a)));
    }

    #[test]
    fn noise_gives_up_and_is_stored() {
        let data = xorshift_bytes(0x1234_5678, 64 << 10);
        let mut s = LzScratch::default();
        assert!(token_stream(&data, &mut s, true).is_none());
        let c = compress(&data);
        assert_eq!(c[0], MODE_RAW);
        assert_eq!(c.len(), data.len() + 1);
        roundtrip(&data);
    }

    #[test]
    fn flat_histogram_periodic_data_still_compresses() {
        // Every byte value equally often — a histogram gate would call
        // this incompressible — but the sequence repeats.
        let mut perm: Vec<u8> = (0..=255).collect();
        for (i, r) in xorshift_bytes(99, 256).into_iter().enumerate() {
            perm.swap(i, r as usize);
        }
        let data: Vec<u8> = perm.iter().copied().cycle().take(128 << 10).collect();
        let c = compress(&data);
        assert_eq!(c[0], MODE_LZSS);
        assert!(c.len() < data.len() / 20, "{} of {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn give_up_judges_whole_windows_past_the_first() {
        let noise = xorshift_bytes(5, 64 << 10);
        let mut s = LzScratch::default();

        // Below two windows nothing is judged: noise runs to the end
        // and ends stored by the size check, exactly as before.
        for len in [GIVE_UP_WINDOW, 2 * GIVE_UP_WINDOW - 1, 2 * GIVE_UP_WINDOW] {
            let got = token_stream(&noise[..len], &mut s, true);
            assert!(got == Some(oracle_stream(&noise[..len])), "len {len}");
            assert_eq!(compress(&noise[..len])[0], MODE_RAW);
            roundtrip(&noise[..len]);
        }
        // One byte into the third window, the second has been judged.
        let len = 2 * GIVE_UP_WINDOW + 1;
        assert!(token_stream(&noise[..len], &mut s, true).is_none());

        // A compressible first window does not excuse the noise after
        // it, although here the finished stream would have been kept.
        let mut data = vec![0u8; GIVE_UP_WINDOW];
        data.extend_from_slice(&noise);
        assert!(1 + oracle_stream(&data).len() < data.len());
        assert!(token_stream(&data, &mut s, true).is_none());
        assert_eq!(compress(&data)[0], MODE_RAW);
        roundtrip(&data);

        // The contract's worst case: noise first, then input the
        // exhaustive matcher would have shrunk 20-fold — stored,
        // `len + 1`.
        let mut data = noise[..2 * GIVE_UP_WINDOW].to_vec();
        data.resize(1 << 20, 0);
        assert!(oracle_stream(&data).len() < data.len() / 20);
        let c = compress(&data);
        assert_eq!((c[0], c.len()), (MODE_RAW, data.len() + 1));
        roundtrip(&data);

        // An incompressible stretch of three quarters of a window does
        // not end the search, inside one window or across two.
        for at in [GIVE_UP_WINDOW + 100, 2 * GIVE_UP_WINDOW - 6000] {
            let stretch = GIVE_UP_WINDOW * 3 / 4;
            let mut data = vec![7u8; 4 * GIVE_UP_WINDOW];
            data[at..at + stretch].copy_from_slice(&noise[..stretch]);
            assert!(token_stream(&data, &mut s, true) == Some(oracle_stream(&data)));
            roundtrip(&data);
        }
    }
}
