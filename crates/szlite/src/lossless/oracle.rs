//! Test oracle: the exhaustive LZSS matcher, as it shipped before the
//! stage learned to give up — every position searched through a
//! per-buffer chain array, candidates shorter than `MIN_MATCH` tracked
//! like any other, each literal position hashed twice.
//!
//! Compiled only into tests: `lossless.rs` checks its matcher against
//! this token for token, and `crates/bench/tests/byte_identity.rs`
//! includes the file by path to pin that giving up costs no bytes on
//! the paper's workloads. Self-contained on purpose (std only).

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255 + MIN_MATCH;
const WINDOW: usize = 65535;
const HASH_BITS: u32 = 16;
const MAX_CHAIN: usize = 48;
const NONE: usize = usize::MAX;

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn match_len(input: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    (0..max_len)
        .find(|&l| input[a + l] != input[b + l])
        .unwrap_or(max_len)
}

/// Append the token groups of `input` (flag byte + up to eight tokens
/// each; the length varint that precedes them in a stream is the
/// caller's) to `out`.
pub fn tokens(input: &[u8], out: &mut Vec<u8>) {
    if input.is_empty() {
        return;
    }
    let mut head = vec![NONE; 1 << HASH_BITS];
    let mut prev = vec![NONE; input.len()];

    let mut i = 0usize;
    let mut flag_pos = out.len();
    out.push(0);
    let mut flag_bits = 0u8;

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

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let mut cand = head[hash4(input, i)];
            let mut chain = 0;
            let max_len = (input.len() - i).min(MAX_MATCH);
            while cand != NONE && i - cand <= WINDOW && chain < MAX_CHAIN {
                if best_len == 0
                    || (best_len < max_len && input[cand + best_len] == input[i + best_len])
                {
                    let l = match_len(input, cand, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            push_flag!(true);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            let end = i + best_len;
            while i < end && i + MIN_MATCH <= input.len() {
                let h = hash4(input, i);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
        } else {
            push_flag!(false);
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash4(input, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
}
