//! Canonical Huffman coding over quantization codes.
//!
//! SZ-style compressors Huffman-encode the quantization-code stream. The
//! codebook is bounded (`2 · RADIUS` symbols, [`crate::config::RADIUS`]),
//! which bounds tree-build time — the mechanism behind the
//! compression-throughput floor the paper observes (Fig. 6).
//!
//! Codes are canonical so the table serializes as `(symbol, length)`
//! pairs only; both sides reconstruct identical codes.
//!
//! One path each way: the encoder is built from a histogram and emits
//! through [`BitWriter::write_codes`]; the decoder's table is set up only
//! by [`HuffmanDecoder::reinit`] and read by two loops,
//! [`HuffmanDecoder::decode_into`] (a prefix's two codes per peek into a
//! code list: 2-D and 3-D restarts) and `decode_each` (one code per peek
//! to a closure: the 1-D restart), both pinned against the bit-at-a-time
//! walk [`HuffmanDecoder::decode_one_reference`].

use crate::error::{Result, SzError};
use crate::stream::{get_varint, put_varint, varint_len, BitReader, BitWriter, MAX_PEEK_BITS};
use std::collections::BinaryHeap;

/// Maximum admissible code length. Rebuilt with flattened frequencies
/// if exceeded (rare; needs near-Fibonacci frequency profiles).
const MAX_CODE_LEN: u8 = 32;

/// Width of the decoder's primary lookup table: an `LUT_BITS`-bit peek
/// resolves every code of length ≤ `LUT_BITS` in a single table hit
/// (2^11 × 8 bytes = 16 KiB, resident in L1), and with it the code
/// after it when that one fits in the bits left; longer codes fall back
/// to a search over the canonical first_code/first_index table.
const LUT_BITS: u32 = 11;
const LUT_SIZE: usize = 1 << LUT_BITS;
const PEEKS: usize = (MAX_PEEK_BITS / LUT_BITS) as usize;
/// Width of a length field of a primary-table entry. An entry packs,
/// low bits first: the bits [`HuffmanDecoder::decode_into`] consumes
/// for it (`LUT_LEN_BITS` wide), the symbol of the code the prefix
/// starts with (26 bits), that code's length (`LUT_LEN_BITS`), and the
/// symbol of the code after it (26 bits). The consumed bits are the two
/// codes' lengths when the second one ends inside the prefix, and the
/// first's alone otherwise; a zero entry means "no short code with this
/// prefix" (fall back).
const LUT_LEN_BITS: u32 = 6;
const LUT_LEN_MASK: u64 = (1 << LUT_LEN_BITS) - 1;
/// Where an entry's first-code length starts.
const LUT_FIRST_LEN: u32 = 32;
/// Where an entry's second symbol starts.
const LUT_SECOND: u32 = LUT_FIRST_LEN + LUT_LEN_BITS;

/// The first code of a primary-table entry: `(symbol, length)`.
#[inline]
fn lut_first(entry: u64) -> (u32, u32) {
    (
        (entry as u32) >> LUT_LEN_BITS,
        (entry >> LUT_FIRST_LEN & LUT_LEN_MASK) as u32,
    )
}

/// Encoder-side canonical Huffman table.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    /// `(code, len)` per symbol; `len == 0` means the symbol is absent.
    codes: Vec<(u32, u8)>,
    /// Symbols with `len > 0`, ascending — lets [`Self::serialize`] and
    /// in-place rebuilds skip full-alphabet scans.
    present: Vec<u32>,
}

/// Reusable workspace for [`HuffmanEncoder::rebuild_sparse`]: the tree
/// arrays sized by the number of *used* symbols, not the alphabet, so a
/// per-chunk encode loop does no alphabet-proportional allocation.
#[derive(Debug, Default)]
pub struct EncoderWorkspace {
    lens: Vec<u8>,
    parent: Vec<usize>,
    nodes: Vec<Node>,
    flat: Vec<u64>,
    by_len: Vec<(u8, u32)>,
}

/// Decoder-side canonical Huffman table.
///
/// A decoder is reusable: [`HuffmanDecoder::reinit`] repopulates the
/// table from a new serialized stream while recycling the `symbols`
/// and primary-LUT allocations, so a per-chunk decode loop builds no
/// fresh tables.
///
/// Decoding is two-level: an 11-bit (`LUT_BITS`) prefix peeked from the
/// word-buffered [`BitReader`] indexes the primary table directly to
/// `(symbol, code_len)` for short codes — for two of them when the
/// second also ends inside the prefix; longer (or invalid) prefixes
/// fall back to a search of the canonical table by code length.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Symbols sorted in canonical order.
    symbols: Vec<u32>,
    /// `first_code[len]`: canonical code value of the first code of
    /// length `len`; `first_index[len]`: its index into `symbols`.
    first_code: [u64; MAX_CODE_LEN as usize + 1],
    first_index: [usize; MAX_CODE_LEN as usize + 1],
    count: [usize; MAX_CODE_LEN as usize + 1],
    /// Primary table: `LUT_BITS`-bit prefix → the packed code it starts
    /// with and the one after it (see [`LUT_LEN_BITS`]).
    lut: Vec<u64>,
    /// [`HuffmanDecoder::reinit`] scratch: the parsed `(len, symbol)`
    /// pairs, kept so per-chunk re-initialization does no
    /// alphabet-proportional work (the serialized table lists only the
    /// *present* symbols, and so does this).
    pairs: Vec<(u8, u32)>,
}

impl Default for HuffmanDecoder {
    /// An empty table (decodes nothing); fill it with
    /// [`HuffmanDecoder::reinit`].
    fn default() -> Self {
        HuffmanDecoder {
            symbols: Vec::new(),
            first_code: [0; MAX_CODE_LEN as usize + 1],
            first_index: [0; MAX_CODE_LEN as usize + 1],
            count: [0; MAX_CODE_LEN as usize + 1],
            lut: Vec::new(),
            pairs: Vec::new(),
        }
    }
}

// Standard heap-based Huffman tree node; ids index a parent array.
#[derive(Debug, PartialEq, Eq)]
struct Node {
    freq: u64,
    id: usize,
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap; tie-break on id for determinism.
        other
            .freq
            .cmp(&self.freq)
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Compute code lengths for the used symbols only. `used` must list the
/// symbols with `freqs[s] > 0` in ascending order; on return
/// `ws.lens[i]` is the code length of `used[i]`. All scratch lives in
/// `ws`, so steady-state calls allocate nothing.
fn code_lengths_sparse(freqs: &[u64], used: &[u32], ws: &mut EncoderWorkspace) {
    ws.lens.clear();
    ws.lens.resize(used.len(), 0);
    match used.len() {
        0 => return,
        1 => {
            ws.lens[0] = 1;
            return;
        }
        _ => {}
    }

    // Work on a compact copy of the used frequencies; the flatten-retry
    // path (rare; needs near-Fibonacci profiles) mutates it in place.
    ws.flat.clear();
    ws.flat.extend(used.iter().map(|&s| freqs[s as usize]));
    loop {
        ws.parent.clear();
        ws.parent.resize(used.len() * 2, usize::MAX);
        ws.nodes.clear();
        ws.nodes.extend(
            ws.flat
                .iter()
                .enumerate()
                .map(|(i, &f)| Node { freq: f, id: i }),
        );
        let mut heap = BinaryHeap::from(std::mem::take(&mut ws.nodes));
        let mut next_id = used.len();
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            ws.parent[a.id] = next_id;
            ws.parent[b.id] = next_id;
            heap.push(Node {
                freq: a.freq.saturating_add(b.freq),
                id: next_id,
            });
            next_id += 1;
        }
        // Depth of each leaf = chain length to the root.
        let root = heap.pop().unwrap().id;
        // Hand the heap's allocation back to the workspace.
        ws.nodes = heap.into_vec();
        let mut too_deep = false;
        for i in 0..used.len() {
            let mut d = 0u32;
            let mut n = i;
            while n != root {
                n = ws.parent[n];
                d += 1;
            }
            if d > MAX_CODE_LEN as u32 {
                too_deep = true;
                break;
            }
            ws.lens[i] = d.max(1) as u8;
        }
        if !too_deep {
            return;
        }
        // Flatten the distribution and retry; converges quickly.
        for f in ws.flat.iter_mut() {
            if *f > 0 {
                *f = (*f >> 1) + 1;
            }
        }
    }
}

impl HuffmanEncoder {
    /// Build an encoder from symbol frequencies (`freqs[s]` = count of
    /// symbol `s`): one scan for the used symbols, then the build
    /// [`Self::rebuild_sparse`] does.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        let used: Vec<u32> = (0..freqs.len() as u32)
            .filter(|&s| freqs[s as usize] > 0)
            .collect();
        let mut enc = HuffmanEncoder::default();
        enc.rebuild_sparse(freqs.len(), freqs, &used, &mut EncoderWorkspace::default());
        enc
    }

    /// Rebuild this encoder in place from sparse frequency data,
    /// recycling its table allocation and the caller's workspace.
    ///
    /// `used` must list the symbols with `freqs[s] > 0` in ascending
    /// order. The only alphabet-proportional work is the (amortized)
    /// table resize: the tree build touches `used.len()` entries, not
    /// the alphabet.
    pub fn rebuild_sparse(
        &mut self,
        alphabet: usize,
        freqs: &[u64],
        used: &[u32],
        ws: &mut EncoderWorkspace,
    ) {
        // Clear the previous build's entries before resizing so stale
        // (code, len) pairs can't survive under a new symbol set.
        for &s in &self.present {
            if let Some(e) = self.codes.get_mut(s as usize) {
                *e = (0, 0);
            }
        }
        self.codes.resize(alphabet, (0, 0));

        code_lengths_sparse(freqs, used, ws);
        // Canonical assignment in (len, symbol) order.
        ws.by_len.clear();
        ws.by_len.extend(
            used.iter()
                .enumerate()
                .filter(|&(i, _)| ws.lens[i] > 0)
                .map(|(i, &s)| (ws.lens[i], s)),
        );
        ws.by_len.sort_unstable();
        let mut code: u64 = 0;
        let mut prev_len = 0u8;
        for &(len, sym) in &ws.by_len {
            code <<= len - prev_len;
            self.codes[sym as usize] = (code as u32, len);
            code += 1;
            prev_len = len;
        }
        self.present.clear();
        self.present.extend_from_slice(used);
    }

    /// Code length in bits for a symbol (0 if absent). Read by
    /// ratiomodel's dense reference of the size model, which pins the
    /// sparse prediction to the same bits.
    pub fn len_of(&self, sym: u32) -> u8 {
        self.codes.get(sym as usize).map_or(0, |&(_, l)| l)
    }

    /// Total encoded bit length of a stream with the given frequencies
    /// (symbols without a code, or beyond `freqs`, count for nothing).
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        self.present
            .iter()
            .map(|&s| {
                let f = freqs.get(s as usize).copied().unwrap_or(0);
                f * u64::from(self.codes[s as usize].1)
            })
            .sum()
    }

    /// Serialize the table: varint count then (delta-coded symbol, len).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        let n_present = self.present.len();
        // Two header varints plus, per entry, a symbol delta (≤ 5 bytes
        // for any alphabet we admit) and one length byte.
        out.reserve(20 + n_present * 6);
        put_varint(out, self.codes.len() as u64);
        put_varint(out, n_present as u64);
        let mut prev = 0u32;
        for &sym in &self.present {
            let len = self.codes[sym as usize].1;
            put_varint(out, u64::from(sym - prev));
            out.push(len);
            prev = sym;
        }
    }

    /// Encode `symbols` appending to the writer, through its batch
    /// entry: in slices, each sized for its symbols at the table's
    /// longest code, so that the output is never sized far past what is
    /// written and no pass over the symbols comes first.
    pub fn encode(&self, symbols: &[u32], w: &mut BitWriter) {
        let longest = self.present.iter().map(|&s| self.codes[s as usize].1).max();
        for slice in symbols.chunks(4096) {
            let bits = slice.len() as u64 * u64::from(longest.unwrap_or(0));
            self.encode_sized(slice, bits, w);
        }
    }

    /// [`encode`](Self::encode) of `symbols` whose code lengths sum to
    /// at most `bits` — exactly: their histogram's
    /// [`encoded_bits`](Self::encoded_bits), which a caller that counted
    /// them has without a pass.
    pub(crate) fn encode_sized(&self, symbols: &[u32], bits: u64, w: &mut BitWriter) {
        // The table as a local slice: the writer's byte stores could
        // alias `self`, its fields would be reloaded per code.
        let table = self.codes.as_slice();
        w.write_codes(
            bits,
            symbols.iter().map(|&s| {
                let (code, len) = table[s as usize];
                debug_assert!(len > 0, "encoding absent symbol {s}");
                (code, len)
            }),
        );
    }

    /// Table size when serialized, in bytes (used by the ratio model):
    /// the length of what [`Self::serialize`] appends, without
    /// producing it.
    pub fn table_bytes(&self) -> usize {
        let mut n = varint_len(self.codes.len() as u64) + varint_len(self.present.len() as u64);
        let mut prev = 0u32;
        for &sym in &self.present {
            n += varint_len(u64::from(sym - prev)) + 1;
            prev = sym;
        }
        n
    }
}

impl HuffmanDecoder {
    /// Deserialize a table previously written by
    /// [`HuffmanEncoder::serialize`].
    pub fn deserialize(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let mut dec = HuffmanDecoder::default();
        dec.reinit(buf, pos)?;
        Ok(dec)
    }

    /// Re-initialize this decoder from a serialized table, recycling
    /// its allocations. The resulting table is identical to
    /// [`HuffmanDecoder::deserialize`] on the same bytes.
    ///
    /// All work is proportional to the number of *present* symbols, not
    /// the alphabet: the serialized table lists `(symbol, len)` pairs
    /// only, and so does the rebuild — a per-chunk decode loop with a
    /// wide quantizer alphabet (default 2·32768) pays for the few
    /// hundred codes a chunk actually uses, never for 64 Ki empty
    /// slots.
    pub fn reinit(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let alphabet = get_varint(buf, pos)? as usize;
        let n_present = get_varint(buf, pos)? as usize;
        if n_present > alphabet || alphabet > (1 << 24) {
            return Err(SzError::Corrupt("huffman table header"));
        }
        // On a parse error the tables are left untouched (stale), same
        // as the dense-era behavior; callers treat the decoder as
        // uninitialized after a failed reinit.
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        let mut prev = 0u64;
        for i in 0..n_present {
            let delta = get_varint(buf, pos)?;
            let sym = if i == 0 { delta } else { prev + delta };
            let len = *buf.get(*pos).ok_or(SzError::Truncated("huffman len"))?;
            *pos += 1;
            if len == 0 || len > MAX_CODE_LEN || sym >= alphabet as u64 {
                self.pairs = pairs;
                return Err(SzError::Corrupt("huffman table entry"));
            }
            // Symbols are delta-coded non-decreasing, so a duplicate is
            // always adjacent; last-wins mirrors the dense
            // `lens[sym] = len` overwrite exactly.
            if i > 0 && sym == prev {
                *pairs.last_mut().unwrap() = (len, sym as u32);
            } else {
                pairs.push((len, sym as u32));
            }
            prev = sym;
        }
        // Lexicographic (len, symbol) order — canonical order, and the
        // same order the dense path's stable by-length sort of an
        // ascending symbol list produces (symbols are unique here).
        pairs.sort_unstable();
        self.count = [0usize; MAX_CODE_LEN as usize + 1];
        self.symbols.clear();
        for &(len, sym) in &pairs {
            self.count[len as usize] += 1;
            self.symbols.push(sym);
        }
        self.pairs = pairs;
        self.build_tables();
        Ok(())
    }

    /// Rebuild `first_code`/`first_index` and the primary LUT from
    /// `count` and canonically ordered `symbols`, as
    /// [`HuffmanDecoder::reinit`] leaves them.
    fn build_tables(&mut self) {
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            self.first_code[len] = code;
            self.first_index[len] = index;
            code += self.count[len] as u64;
            index += self.count[len];
        }

        // Primary LUT: every LUT_BITS-bit prefix whose leading bits
        // form a code of length ≤ LUT_BITS maps straight to that
        // (symbol, len). Lengths are walked longest-first so that with
        // an over-subscribed (corrupt but accepted) table, overlapping
        // spans resolve to the *shortest* matching code — exactly what
        // the reference walk finds first — keeping the two decoders
        // equivalent on every input.
        self.lut.clear();
        self.lut.resize(LUT_SIZE, 0);
        let short_max = LUT_BITS.min(u32::from(MAX_CODE_LEN)) as usize;
        for len in (1..=short_max).rev() {
            let first = self.first_code[len];
            for i in 0..self.count[len] {
                let code = first + i as u64;
                if code >> len != 0 {
                    // Over-subscribed table: the code does not fit in
                    // `len` bits; the reference walk can never match
                    // it, so it gets no LUT span either.
                    continue;
                }
                let sym = self.symbols[self.first_index[len] + i];
                // `reinit` admits alphabets up to 2^24, so every symbol
                // fits the entry's 26-bit field.
                debug_assert!(sym < 1 << (32 - LUT_LEN_BITS));
                let shift = LUT_BITS as usize - len;
                let base = (code as usize) << shift;
                let len = len as u64;
                let entry = u64::from(sym) << LUT_LEN_BITS | len << LUT_FIRST_LEN | len;
                for e in &mut self.lut[base..base + (1 << shift)] {
                    *e = entry;
                }
            }
        }
        // The code after the first one: the first code of what follows
        // it in the prefix (zero-filled), kept when that code ends
        // within the prefix's real bits — a code's span covers every
        // filling of the bits after it, so the zero fill cannot change
        // the match. (Only the fields this pass does not write are
        // read.)
        for prefix in 0..LUT_SIZE {
            let entry = self.lut[prefix];
            let (_, len) = lut_first(entry);
            if entry == 0 || len == LUT_BITS {
                continue;
            }
            let next = self.lut[(prefix << len) & (LUT_SIZE - 1)];
            let (symbol, next_len) = lut_first(next);
            if next != 0 && next_len <= LUT_BITS - len {
                self.lut[prefix] = (entry & !LUT_LEN_MASK)
                    | u64::from(len + next_len)
                    | u64::from(symbol) << LUT_SECOND;
            }
        }
    }

    /// Decode one symbol by the bit-at-a-time canonical walk.
    ///
    /// No restart runs it: it is the reference oracle both table-driven
    /// loops are pinned against, symbol for symbol, error for error and
    /// bit for bit (the unit tests for `decode_each`, the proptests for
    /// [`HuffmanDecoder::decode_into`]).
    pub fn decode_one_reference(&self, r: &mut BitReader<'_>) -> Result<u32> {
        // Single-symbol degenerate table: consume one bit.
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            let bit = r.read_bit().ok_or(SzError::Truncated("huffman bits"))?;
            code = (code << 1) | u64::from(bit);
            let cnt = self.count[len];
            if cnt > 0 {
                let first = self.first_code[len];
                if code < first + cnt as u64 && code >= first {
                    let idx = self.first_index[len] + (code - first) as usize;
                    return Ok(self.symbols[idx]);
                }
            }
        }
        Err(SzError::Corrupt("invalid huffman code"))
    }

    /// True when every symbol the table holds — everything it can
    /// decode — lies in `range`.
    pub(crate) fn decodes_only(&self, range: std::ops::Range<u32>) -> bool {
        self.symbols.iter().all(|s| range.contains(s))
    }

    /// Decode exactly `n` symbols into `out`, reusing its allocation
    /// across calls. On success `out` holds the `n` symbols and the
    /// reader stands where `n` calls of
    /// [`HuffmanDecoder::decode_one_reference`] leave it; on error,
    /// `out` holds the symbols decoded before it, and the error is the
    /// one those calls end in.
    ///
    /// The batch loop drives the LUT fast path through the buffered
    /// reader with peek/consume — no per-symbol `Option` plumbing — and
    /// takes a prefix's two codes with one `consume` when both end in
    /// the stream's real bits. Codes longer than `LUT_BITS` and invalid
    /// prefixes are found by a search over the code lengths.
    pub fn decode_into(&self, r: &mut BitReader<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        // Not cleared: every slot up to `n` is written before the call
        // returns it, so `resize` only fills what a longer stream adds.
        out.resize(n, 0);
        // The loop runs on a copy, which stays in registers.
        let mut local = r.clone();
        let (decoded, result) = self.decode_pairs(&mut local, out);
        *r = local;
        out.truncate(decoded);
        result
    }

    /// The loop of [`Self::decode_into`]: fills `out`, returns how many
    /// symbols it decoded and how it ended.
    #[inline]
    fn decode_pairs(&self, r: &mut BitReader<'_>, out: &mut [u32]) -> (usize, Result<()>) {
        let n = out.len();
        let mut i = 0;
        // One refill, then as many peeks as it guarantees bits for: the
        // peeks' own refill test then never fires, so no branch in the
        // loop depends on the code lengths.
        'batch: while i + 2 * PEEKS <= n {
            r.refill();
            for _ in 0..PEEKS {
                let entry = self.lut[r.peek_bits(LUT_BITS) as usize];
                if entry == 0 {
                    match self.decode_long(r) {
                        Ok(symbol) => out[i] = symbol,
                        Err(e) => return (i, Err(e)),
                    }
                    i += 1;
                    continue;
                }
                // Both codes only when the second one's bits are real
                // stream bits (`avail` is the whole remainder at the
                // tail).
                let bits = (entry & LUT_LEN_MASK) as u32;
                if bits > r.avail_bits() {
                    break 'batch;
                }
                r.consume(bits);
                let (first, len) = lut_first(entry);
                out[i] = first;
                out[i + 1] = (entry >> LUT_SECOND) as u32;
                i += 1 + usize::from(bits != len);
            }
        }
        let tail = self.decode_each(r, n - i, |symbol| {
            out[i] = symbol;
            i += 1;
            true
        });
        (i, tail.map(drop))
    }

    /// Decode up to `n` symbols one code per peek (a refill per
    /// [`PEEKS`]), handing each to `emit` as it is decoded until `emit`
    /// returns false, and return how many were read: the symbols and the
    /// error of [`Self::decode_into`], with no code list in between.
    #[inline(always)]
    pub(crate) fn decode_each(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        mut emit: impl FnMut(u32) -> bool,
    ) -> Result<usize> {
        for batch in (0..n).step_by(PEEKS) {
            r.refill();
            for i in batch..n.min(batch + PEEKS) {
                let entry = self.lut[r.peek_bits(LUT_BITS) as usize];
                let (symbol, len) = lut_first(entry);
                let symbol = if entry == 0 {
                    self.decode_long(r)?
                } else if len > r.avail_bits() {
                    return Err(SzError::Truncated("huffman bits"));
                } else {
                    r.consume(len);
                    symbol
                };
                if !emit(symbol) {
                    return Ok(i + 1);
                }
            }
        }
        Ok(n)
    }

    /// One symbol whose prefix has no primary-table entry, through
    /// [`Self::search`].
    #[inline]
    fn decode_long(&self, r: &mut BitReader<'_>) -> Result<u32> {
        const MAX: u32 = MAX_CODE_LEN as u32;
        let bits = r.peek_bits(MAX);
        // After the peek, fewer than `MAX` bits available means that
        // is all the stream has left.
        let (symbol, len) = self.search(bits, r.avail_bits())?;
        r.consume(len);
        Ok(symbol)
    }

    /// The symbol and length of the code `bits` (the next
    /// `MAX_CODE_LEN` bits, of which `avail` are real) starts with,
    /// given that no code of `LUT_BITS` or fewer does: the first longer
    /// code length whose canonical range holds them — the match and the
    /// error of [`HuffmanDecoder::decode_one_reference`], without
    /// reading the bits one at a time.
    #[cold]
    fn search(&self, bits: u64, avail: u32) -> Result<(u32, u32)> {
        for len in LUT_BITS as usize + 1..=MAX_CODE_LEN as usize {
            if len as u32 > avail {
                // Where the walk runs out of bits.
                return Err(SzError::Truncated("huffman bits"));
            }
            let code = bits >> (MAX_CODE_LEN as usize - len);
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] as u64 {
                let symbol = self.symbols[self.first_index[len] + offset as usize];
                return Ok((symbol, len as u32));
            }
        }
        Err(SzError::Corrupt("invalid huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `HuffmanEncoder::from_freqs` as it was before it went through
    /// [`HuffmanEncoder::rebuild_sparse`]: length, code and presence
    /// tables built densely over the whole alphabet.
    fn from_freqs_dense(freqs: &[u64]) -> HuffmanEncoder {
        let used: Vec<u32> = (0..freqs.len() as u32)
            .filter(|&s| freqs[s as usize] > 0)
            .collect();
        let mut ws = EncoderWorkspace::default();
        code_lengths_sparse(freqs, &used, &mut ws);
        let mut lens = vec![0u8; freqs.len()];
        for (i, &s) in used.iter().enumerate() {
            lens[s as usize] = ws.lens[i];
        }
        let mut by_len: Vec<(u8, u32)> = lens
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s as u32))
            .collect();
        by_len.sort_unstable();
        let mut codes = vec![(0u32, 0u8); lens.len()];
        let mut code: u64 = 0;
        let mut prev_len = 0u8;
        for &(len, sym) in &by_len {
            code <<= len - prev_len;
            codes[sym as usize] = (code as u32, len);
            code += 1;
            prev_len = len;
        }
        let present = lens
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, _)| s as u32)
            .collect();
        HuffmanEncoder { codes, present }
    }

    /// `counts` spread over an alphabet: `count[i]` goes to symbol
    /// `i · stride + offset`.
    fn spread(counts: &[u64], stride: usize, offset: usize) -> Vec<u64> {
        let mut freqs = vec![0u64; (counts.len().max(1) - 1) * stride + offset + 1];
        for (i, &c) in counts.iter().enumerate() {
            freqs[i * stride + offset] = c;
        }
        freqs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_and_seed(
            if cfg!(debug_assertions) { 128 } else { 1024 },
            0x4ca_f7ab,
        ) /* pinned: deterministic CI */)]

        #[test]
        fn from_freqs_and_size_queries_equal_their_dense_forms(
            // 0 random counts; the rest sit on the edges of the Kraft
            // sum: 1 Fibonacci (the deepest tree a total allows — past
            // 33 symbols the build flattens and retries), 2 powers of
            // two (a complete tree with one maximal-length pair),
            // 3 all equal, 4 one dominant symbol over a flat tail.
            profile in 0u8..5,
            n_used in 0usize..=70,
            noise in proptest::collection::vec(1u64..1_000_000, 70..=70),
            stride in 1usize..=950,
            offset in 0usize..40,
        ) {
            let counts: Vec<u64> = (0..n_used)
                .map(|i| match profile {
                    0 => noise[i],
                    1 => (0..i).fold((1u64, 1u64), |(a, b), _| (b, a + b)).0,
                    2 => 1u64 << i.saturating_sub(1).min(40),
                    3 => noise[0],
                    _ => if i == 0 { 1 << 50 } else { 1 + noise[i] % 2 },
                })
                .collect();
            let freqs = spread(&counts, stride, offset);
            let enc = HuffmanEncoder::from_freqs(&freqs);
            let dense = from_freqs_dense(&freqs);
            prop_assert!(enc.codes == dense.codes, "codes differ");
            prop_assert_eq!(&enc.present, &dense.present);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            enc.serialize(&mut a);
            dense.serialize(&mut b);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(enc.table_bytes(), b.len());
            // Bits over the build's own counts, over counts with
            // symbols the table lacks, and over a shorter table.
            let mut other = freqs.clone();
            other.push(9);
            other[0] += 1;
            for f in [&freqs[..], &other[..], &freqs[..freqs.len() / 2]] {
                let dense_bits: u64 = f
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| c * u64::from(dense.len_of(s as u32)))
                    .sum();
                prop_assert_eq!(enc.encoded_bits(f), dense_bits);
            }
        }
    }

    #[test]
    fn table_bytes_counts_every_varint_width() {
        // Symbol deltas on both sides of the 7-bit boundaries, up to
        // four-byte ones.
        let mut freqs = vec![0u64; 1 << 22];
        let mut sym = 0;
        for delta in [0usize, 127, 128, 16383, 16384, 1 << 21] {
            sym += delta;
            freqs[sym] = sym as u64 + 1;
        }
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut table = Vec::new();
        enc.serialize(&mut table);
        assert_eq!(enc.table_bytes(), table.len());
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            (1 << 56) - 1,
            1 << 56,
            1 << 63,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
    }

    /// The encoder of a symbol stream: [`HuffmanEncoder::from_freqs`]
    /// over its histogram.
    fn encoder(symbols: &[u32], alphabet: usize) -> HuffmanEncoder {
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        HuffmanEncoder::from_freqs(&freqs)
    }

    /// `symbols` encoded: the decoder of their table and their bits.
    fn coded(symbols: &[u32], alphabet: usize) -> (HuffmanDecoder, Vec<u8>) {
        let enc = encoder(symbols, alphabet);
        let mut table = Vec::new();
        enc.serialize(&mut table);
        let mut w = BitWriter::new();
        enc.encode(symbols, &mut w);
        let mut pos = 0;
        let dec = HuffmanDecoder::deserialize(&table, &mut pos).unwrap();
        assert_eq!(pos, table.len());
        (dec, w.finish())
    }

    /// The decoder of the serialized table that gives symbol `s` the
    /// code length `lens[s]` (0: absent). `reinit` takes any lengths up
    /// to `MAX_CODE_LEN`, Kraft-oversubscribed ones included.
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

    fn roundtrip(symbols: &[u32], alphabet: usize) {
        let (dec, bits) = coded(symbols, alphabet);
        let mut decoded = Vec::new();
        dec.decode_into(&mut BitReader::new(&bits), symbols.len(), &mut decoded)
            .unwrap();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[1, 2, 3, 1, 1, 1, 2, 0, 0, 3], 4);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[5; 100], 8);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[0, 1, 0, 1, 1, 1, 0], 2);
    }

    #[test]
    fn roundtrip_skewed() {
        let mut syms = vec![7u32; 10_000];
        syms.extend((0..64).map(|i| i as u32));
        roundtrip(&syms, 64 + 8);
    }

    #[test]
    fn roundtrip_wide_alphabet() {
        let syms: Vec<u32> = (0..5_000u32).map(|i| (i * 7919) % 65536).collect();
        roundtrip(&syms, 65536);
    }

    #[test]
    fn skewed_codes_are_shorter() {
        let mut freqs = vec![1u64; 16];
        freqs[3] = 1_000_000;
        let enc = HuffmanEncoder::from_freqs(&freqs);
        for s in 0..16 {
            if s != 3 {
                assert!(enc.len_of(3) <= enc.len_of(s));
            }
        }
    }

    #[test]
    fn encoded_bits_matches_actual() {
        let syms: Vec<u32> = (0..1000u32).map(|i| i % 10).collect();
        let mut freqs = vec![0u64; 10];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut w = BitWriter::new();
        enc.encode(&syms, &mut w);
        assert_eq!(w.bit_len() as u64, enc.encoded_bits(&freqs));
    }

    #[test]
    fn reused_decoder_matches_fresh() {
        // One decoder reinit-ed across tables of different shapes must
        // decode exactly like a freshly deserialized one.
        let streams: Vec<(Vec<u32>, usize)> = vec![
            (vec![1, 2, 3, 1, 1, 1, 2, 0, 0, 3], 4),
            (vec![5; 100], 8),
            ((0..5_000u32).map(|i| (i * 7919) % 4096).collect(), 4096),
            (vec![0, 1, 0, 1, 1], 2),
        ];
        let mut reused = HuffmanDecoder::default();
        let mut codes = Vec::new();
        for (syms, alphabet) in &streams {
            let enc = encoder(syms, *alphabet);
            let mut table = Vec::new();
            enc.serialize(&mut table);
            let mut w = BitWriter::new();
            enc.encode(syms, &mut w);
            let bits = w.finish();

            let mut pos = 0;
            reused.reinit(&table, &mut pos).unwrap();
            assert_eq!(pos, table.len());
            let mut r = BitReader::new(&bits);
            reused.decode_into(&mut r, syms.len(), &mut codes).unwrap();
            assert_eq!(&codes, syms);

            let fresh = HuffmanDecoder::deserialize(&table, &mut 0).unwrap();
            let mut r = BitReader::new(&bits);
            let mut fresh_codes = Vec::new();
            fresh
                .decode_into(&mut r, syms.len(), &mut fresh_codes)
                .unwrap();
            assert_eq!(&fresh_codes, syms);
        }
    }

    #[test]
    fn rebuild_sparse_matches_from_freqs() {
        // One encoder rebuilt in place across streams of different
        // alphabets and symbol sets must serialize and encode exactly
        // like a fresh dense build — including after shrinks, so stale
        // entries from a wider previous table can't leak through.
        let streams: Vec<(Vec<u32>, usize)> = vec![
            ((0..5_000u32).map(|i| (i * 7919) % 65536).collect(), 65536),
            (vec![1, 2, 3, 1, 1, 1, 2, 0, 0, 3], 4),
            (vec![5; 100], 8),
            ((0..500u32).map(|i| i % 300).collect(), 4096),
            (vec![7], 16),
        ];
        let mut enc = HuffmanEncoder::default();
        let mut ws = EncoderWorkspace::default();
        for (syms, alphabet) in &streams {
            let mut freqs = vec![0u64; *alphabet];
            for &s in syms {
                freqs[s as usize] += 1;
            }
            let used: Vec<u32> = (0..*alphabet as u32)
                .filter(|&s| freqs[s as usize] > 0)
                .collect();
            enc.rebuild_sparse(*alphabet, &freqs, &used, &mut ws);
            let fresh = HuffmanEncoder::from_freqs(&freqs);

            let (mut a, mut b) = (Vec::new(), Vec::new());
            enc.serialize(&mut a);
            fresh.serialize(&mut b);
            assert_eq!(a, b, "serialized table diverged at alphabet {alphabet}");
            let (mut wa, mut wb) = (BitWriter::new(), BitWriter::new());
            enc.encode(syms, &mut wa);
            fresh.encode(syms, &mut wb);
            assert_eq!(wa.finish(), wb.finish());
            assert_eq!(enc.table_bytes(), fresh.table_bytes());
        }
    }

    /// `decode_each` of up to `n` symbols against the bit-at-a-time
    /// walk, run to the end and stopped by `emit` after the first, the
    /// second, the middle and the last symbol: the same symbols, the
    /// count it returns, the bits left after them — or, when the walk
    /// fails first, the same symbols before the same typed error.
    fn assert_each_matches_walk(dec: &HuffmanDecoder, bits: &[u8], n: usize) {
        let mut walk = BitReader::new(bits);
        let (mut want, mut left) = (Vec::new(), vec![walk.bits_remaining()]);
        let mut failed = None;
        while want.len() < n {
            match dec.decode_one_reference(&mut walk) {
                Ok(symbol) => {
                    want.push(symbol);
                    left.push(walk.bits_remaining());
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        for stop in [usize::MAX, 1, 2, (n / 2).max(1), n.saturating_sub(1).max(1)] {
            let mut r = BitReader::new(bits);
            let mut got = Vec::new();
            let result = dec.decode_each(&mut r, n, |symbol| {
                got.push(symbol);
                got.len() < stop
            });
            let end = stop.min(n);
            if want.len() >= end {
                assert_eq!(result, Ok(end), "stop {stop} of {n}");
                assert_eq!(got, want[..end], "stop {stop} of {n}");
                assert_eq!(r.bits_remaining(), left[end], "stop {stop} of {n}");
            } else {
                assert_eq!(result, Err(failed.clone().unwrap()), "stop {stop} of {n}");
                assert_eq!(got, want, "stop {stop} of {n}");
            }
        }
    }

    /// [`assert_each_matches_walk`] on `bits` and on every cut of its
    /// first `cuts` bytes, where the stream ends inside a code or in
    /// the zero padding of a peek.
    fn assert_each_matches_walk_cut(dec: &HuffmanDecoder, bits: &[u8], n: usize, cuts: usize) {
        assert_each_matches_walk(dec, bits, n);
        for cut in 0..bits.len().min(cuts) {
            assert_each_matches_walk(dec, &bits[..cut], n);
        }
    }

    /// `n` bytes of xorshift noise.
    fn garbage(x: &mut u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                (*x & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn lut_matches_reference_on_valid_streams() {
        // Short and wide tables, a single-symbol and a two-symbol one,
        // asked for more symbols than their streams hold, and cut.
        let streams: Vec<(Vec<u32>, usize)> = vec![
            (vec![1, 2, 3, 1, 1, 1, 2, 0, 0, 3], 4),
            (vec![5; 100], 8),
            ((0..5_000u32).map(|i| (i * 7919) % 65536).collect(), 65536),
            (vec![0, 1, 0, 1, 1], 2),
        ];
        for (syms, alphabet) in &streams {
            let (dec, bits) = coded(syms, *alphabet);
            assert_each_matches_walk_cut(&dec, &bits, syms.len(), 256);
            assert_each_matches_walk(&dec, &bits, syms.len() + 4);
        }
    }

    #[test]
    fn long_codes_fall_back_to_the_reference_walk() {
        // A geometric frequency ramp forces code lengths well past
        // LUT_BITS, so the search carries real traffic; decode must
        // still roundtrip and match the reference exactly, and so must
        // a short stream of every symbol alike under the same table,
        // cut anywhere.
        let mut syms = Vec::new();
        for s in 0..24u32 {
            let reps = 1usize << (24 - s).min(16);
            syms.extend(std::iter::repeat_n(s, reps));
        }
        let enc = encoder(&syms, 24);
        let long_codes = (0..24).filter(|&s| enc.len_of(s) > LUT_BITS as u8).count();
        assert!(long_codes > 0, "profile failed to produce >LUT_BITS codes");
        let (dec, bits) = coded(&syms, 24);
        let mut decoded = Vec::new();
        dec.decode_into(&mut BitReader::new(&bits), syms.len(), &mut decoded)
            .unwrap();
        assert_eq!(decoded, syms);
        assert_each_matches_walk(&dec, &bits, syms.len());

        let mixed: Vec<u32> = (0..24).cycle().take(240).collect();
        let mut w = BitWriter::new();
        enc.encode(&mixed, &mut w);
        assert_each_matches_walk_cut(&dec, &w.finish(), mixed.len(), usize::MAX);
    }

    #[test]
    fn lut_matches_reference_on_garbage_bits() {
        // Corrupt bitstreams must produce identical symbols and the
        // identical typed error from both paths, for a many-symbol
        // table and a single-symbol one.
        let syms: Vec<u32> = (0..500u32).map(|i| (i * 31) % 97).collect();
        let (dec, _) = coded(&syms, 97);
        let (single, _) = coded(&[3], 4);
        let mut x = 0x2545F491u64;
        for len in [0usize, 1, 2, 5, 17, 64, 255] {
            let noise = garbage(&mut x, len);
            assert_each_matches_walk(&dec, &noise, 200);
            assert_each_matches_walk(&single, &noise, 200);
        }
    }

    /// The table-driven decoder exists to be faster than the walk it
    /// is pinned against; optimised builds only, where the comparison
    /// means something.
    #[cfg(not(debug_assertions))]
    #[test]
    fn lut_decode_is_no_slower_than_the_reference_walk() {
        // 1 Mi quantization codes as szlite emits them: two-sided
        // geometric around the radius, a few long-code outliers.
        let radius = 32_768u32;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let syms: Vec<u32> = (0..1 << 20)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let magnitude = (state >> 33).trailing_ones();
                let spread = (state >> 20) as u32 % 3;
                let offset = magnitude * 3 + spread;
                if state & 1 == 0 {
                    radius + offset
                } else {
                    radius - offset
                }
            })
            .collect();
        let (dec, bits) = coded(&syms, 2 * radius as usize);

        let mut out = Vec::new();
        let mut best_of_7 = |decode: &mut dyn FnMut(&mut BitReader<'_>, &mut Vec<u32>)| {
            (0..7)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    decode(&mut BitReader::new(&bits), &mut out);
                    let secs = t0.elapsed().as_secs_f64();
                    assert_eq!(out, syms);
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let lut = best_of_7(&mut |r, out| dec.decode_into(r, syms.len(), out).unwrap());
        let reference = best_of_7(&mut |r, out| {
            out.clear();
            for _ in 0..syms.len() {
                out.push(dec.decode_one_reference(r).unwrap());
            }
        });
        assert!(
            lut <= reference,
            "LUT decode {lut:.6} s slower than the reference walk {reference:.6} s"
        );
    }

    #[test]
    fn oversubscribed_table_decodes_identically_on_both_paths() {
        // `reinit` accepts Kraft-oversubscribed length sets (corrupt
        // tables); the LUT's shortest-match fill order must keep it in
        // lockstep with the reference walk even there, codes past the
        // table width included.
        let dec = table_of(&[1u8, 1, 1, 2, 2, 3, 12, 12, 13]);
        let mut x = 0x9E3779B9u64;
        for len in [1usize, 3, 9, 33, 130] {
            assert_each_matches_walk_cut(&dec, &garbage(&mut x, len), 300, usize::MAX);
        }
    }

    #[test]
    fn corrupt_table_rejected() {
        // length byte of 0 is invalid
        let mut buf = Vec::new();
        put_varint(&mut buf, 4); // alphabet
        put_varint(&mut buf, 1); // one entry
        put_varint(&mut buf, 1); // symbol 1
        buf.push(0); // invalid length
        let mut pos = 0;
        assert!(HuffmanDecoder::deserialize(&buf, &mut pos).is_err());
    }

    #[test]
    fn truncated_bits_detected() {
        let syms = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let (dec, bits) = coded(&syms, 4);
        let mut r = BitReader::new(&bits[..0]);
        let mut out = Vec::new();
        assert!(dec.decode_into(&mut r, syms.len(), &mut out).is_err());
    }
}
