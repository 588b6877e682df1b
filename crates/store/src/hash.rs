//! Small, dependency-free hashing utilities used for content addressing
//! (artifact dedup, code snapshots). FNV-1a at 64 and 128 bits: not
//! cryptographic, but collision-safe enough at the scale of an embedded
//! observability store, and fully deterministic across platforms.

/// 64-bit FNV-1a.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// 64-bit FNV-1a folded over 8-byte little-endian words instead of bytes:
/// an eighth of the multiplies of [`fnv1a_64`] on the same input. After
/// each multiply the high half is xored into the low half, because a bare
/// multiply only carries differences upwards and two flips of a word's
/// top bit would otherwise cancel. The last partial word is zero-padded
/// and the length folded in after it, so inputs that differ only in
/// trailing zero bytes still differ. A different function from
/// [`fnv1a_64`]: each format names the one it uses.
pub fn fnv1a_64_words(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    fn step(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(PRIME);
        h ^ (h >> 32)
    }
    let mut h = OFFSET;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        h = step(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(last));
    step(h, data.len() as u64)
}

/// 128-bit FNV-1a.
pub fn fnv1a_128(data: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in data {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hex-encode a 128-bit hash, the textual form of content addresses.
pub fn hex128(h: u128) -> String {
    format!("{h:032x}")
}

/// A content hash of arbitrary text, used for the paper's "code snapshot"
/// when no git hash is supplied.
pub fn content_hash(text: &str) -> String {
    hex128(fnv1a_128(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_fold_sees_every_byte_the_length_and_paired_top_bit_flips() {
        let data: Vec<u8> = (0u8..=36).collect();
        let base = fnv1a_64_words(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a_64_words(&flipped), base, "byte {i} bit {bit}");
            }
        }
        // Zero padding of the last word is not confused with real zeros.
        assert_ne!(fnv1a_64_words(&[7, 0]), fnv1a_64_words(&[7]));
        assert_ne!(fnv1a_64_words(&[0; 8]), fnv1a_64_words(&[0; 16]));
        // The top bits of two words: differences a bare multiply would
        // leave in bit 63 of both, where they cancel.
        let mut paired = data.clone();
        paired[7] ^= 0x80;
        paired[15] ^= 0x80;
        assert_ne!(fnv1a_64_words(&paired), base);
    }

    #[test]
    fn fnv128_distinguishes_and_is_deterministic() {
        assert_eq!(fnv1a_128(b"abc"), fnv1a_128(b"abc"));
        assert_ne!(fnv1a_128(b"abc"), fnv1a_128(b"abd"));
        assert_ne!(fnv1a_128(b"abc"), fnv1a_128(b"acb"));
    }

    #[test]
    fn hex_is_32_chars_zero_padded() {
        let s = hex128(0x1f);
        assert_eq!(s.len(), 32);
        assert!(s.starts_with("000000000000000000000000000000"));
        assert!(s.ends_with("1f"));
    }

    #[test]
    fn content_hash_stable() {
        assert_eq!(content_hash("fn main() {}"), content_hash("fn main() {}"));
        assert_ne!(content_hash("v1"), content_hash("v2"));
    }
}
