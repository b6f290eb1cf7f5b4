//! Packed single-bit ΣΔ streams.
//!
//! The modulator emits one of exactly two values per clock (±1), yet the
//! behavioral chain historically shuttled that stream around as `Vec<f64>`
//! — 64 bits of heap traffic per one bit of information, plus a
//! float-multiply-and-round at the decimator's front door for every
//! sample. [`PackedBits`] stores the stream the way the paper's FPGA link
//! does: one bit per modulator clock, packed LSB-first into `u64` words.
//!
//! The packed representation is **bit-exact** against the `f64` path: a
//! `+1` bit enters the integer CIC as `+2^20` and a `−1` bit as `−2^20`,
//! which is precisely the value `(±1.0 * 2^20).round()` produces (see
//! [`crate::decimator::TwoStageDecimator::process_packed_into`]). The
//! equivalence is property-tested in `tests/props.rs`.
//!
//! ```
//! use tonos_dsp::bits::PackedBits;
//!
//! let bits: PackedBits = [true, false, true, true].into_iter().collect();
//! assert_eq!(bits.len(), 4);
//! assert_eq!(bits.ones(), 3);
//! assert_eq!(bits.mean(), 0.5);
//! ```

/// A densely packed single-bit (±1) stream.
///
/// Bit `i` of the stream lives at bit `i % 64` (LSB-first) of word
/// `i / 64`. A set bit encodes `+1`, a clear bit `−1` — the two levels of
/// the 1-bit feedback DAC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty stream.
    pub fn new() -> Self {
        PackedBits::default()
    }

    /// An empty stream with room for `bits` bits before reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        PackedBits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words; bits beyond [`PackedBits::len`] in the last
    /// word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends one bit (`true` = +1, `false` = −1).
    pub fn push(&mut self, bit: bool) {
        let slot = self.len % 64;
        if slot == 0 {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("word pushed above") |= 1u64 << slot;
        }
        self.len += 1;
    }

    /// Appends the low `len` bits of `word` (LSB-first) in one call —
    /// the block writers' fast path (one word splice instead of up to 64
    /// per-bit pushes). Bits of `word` at or above `len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics when `len > 64`.
    pub fn push_bits(&mut self, word: u64, len: usize) {
        assert!(len <= 64, "a word carries at most 64 bits, got {len}");
        if len == 0 {
            return;
        }
        let w = if len < 64 {
            word & ((1u64 << len) - 1)
        } else {
            word
        };
        let slot = self.len % 64;
        if slot == 0 {
            self.words.push(w);
        } else {
            *self.words.last_mut().expect("non-empty at slot > 0") |= w << slot;
            if slot + len > 64 {
                self.words.push(w >> (64 - slot));
            }
        }
        self.len += len;
    }

    /// Iterates the bits in stream order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        // Word-at-a-time: one shift per bit, one bounds check per 64.
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let in_word = (self.len - w * 64).min(64);
            (0..in_word).map(move |i| word >> i & 1 == 1)
        })
    }

    /// Number of `+1` bits.
    pub fn ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Mean of the ±1 stream — the demodulated DC value, in full-scale
    /// units. `0.0` for an empty stream.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        (2.0 * self.ones() as f64 - self.len as f64) / self.len as f64
    }

    /// Expands to ±1.0 floats, the input of the float-only reference
    /// filters (`CicDecimatorF64`, the ablations' lossy baseline).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.iter().map(|b| if b { 1.0 } else { -1.0 }).collect()
    }

    /// Removes all bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Serializes the stream to bytes, LSB-first within each byte (byte
    /// `j` holds bits `8j..8j+8`), `len().div_ceil(8)` bytes total. Tail
    /// bits of the last byte beyond [`PackedBits::len`] are zero. This is
    /// the wire/file representation used by [`crate::frame`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(n);
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(n);
        out
    }

    /// Rebuilds a stream of `len` bits from its [`PackedBits::to_bytes`]
    /// representation. Bits of `bytes` at or beyond `len` are ignored, so
    /// the result is bit-identical to the stream that was serialized.
    ///
    /// # Panics
    ///
    /// Panics when `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "{} bytes carry fewer than {len} bits",
            bytes.len()
        );
        let mut packed = PackedBits::with_capacity(len);
        let mut remaining = len;
        for chunk in bytes.chunks(8) {
            if remaining == 0 {
                break;
            }
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let take = remaining.min(chunk.len() * 8).min(64);
            packed.push_bits(u64::from_le_bytes(word), take);
            remaining -= take;
        }
        packed
    }
}

impl FromIterator<bool> for PackedBits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut packed = PackedBits::with_capacity(iter.size_hint().0);
        for bit in iter {
            packed.push(bit);
        }
        packed
    }
}

impl Extend<bool> for PackedBits {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let mut packed = PackedBits::new();
        for &b in &pattern {
            packed.push(b);
        }
        assert_eq!(packed.len(), 200);
        assert!(!packed.is_empty());
        let unpacked: Vec<bool> = packed.iter().collect();
        assert_eq!(unpacked, pattern);
    }

    #[test]
    fn word_boundaries_are_exact() {
        for len in [1, 63, 64, 65, 127, 128, 129] {
            let packed: PackedBits = (0..len).map(|i| i % 2 == 0).collect();
            assert_eq!(packed.len(), len);
            assert_eq!(packed.words().len(), len.div_ceil(64));
            assert_eq!(packed.iter().count(), len);
            assert_eq!(packed.ones(), len.div_ceil(2) as u64);
        }
    }

    #[test]
    fn unused_tail_bits_stay_zero() {
        let mut packed = PackedBits::new();
        packed.push(true);
        assert_eq!(packed.words(), &[1u64]);
        // Equality must not depend on stale tail state after clear+reuse.
        packed.clear();
        assert!(packed.is_empty());
        packed.push(false);
        assert_eq!(packed.words(), &[0u64]);
        let fresh: PackedBits = [false].into_iter().collect();
        assert_eq!(packed, fresh);
    }

    #[test]
    fn push_bits_matches_per_bit_pushes() {
        // Every alignment × length combination must splice identically to
        // per-bit pushes, including the cross-word spill.
        for prefix in [0usize, 1, 7, 63, 64, 65] {
            for len in [0usize, 1, 5, 63, 64] {
                let word = 0xDEAD_BEEF_CAFE_F00D_u64;
                let mut a = PackedBits::new();
                let mut b = PackedBits::new();
                for i in 0..prefix {
                    a.push(i % 3 == 0);
                    b.push(i % 3 == 0);
                }
                a.push_bits(word, len);
                for t in 0..len {
                    b.push(word >> t & 1 == 1);
                }
                assert_eq!(a, b, "prefix {prefix} len {len}");
                assert_eq!(a.words(), b.words(), "prefix {prefix} len {len}");
            }
        }
        // Bits above `len` must be ignored (tail stays zero).
        let mut c = PackedBits::new();
        c.push_bits(u64::MAX, 3);
        assert_eq!(c.words(), &[0b111u64]);
    }

    #[test]
    fn bitstream_conversion_matches_signs() {
        let bits = [true, false, false, true, true, true, false];
        let packed: PackedBits = bits.into_iter().collect();
        assert_eq!(packed.len(), 7);
        assert_eq!(packed.ones(), 4);
        let expected: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        assert_eq!(packed.to_f64_vec(), expected);
    }

    #[test]
    fn mean_is_the_demodulated_dc() {
        assert_eq!(PackedBits::new().mean(), 0.0);
        let packed: PackedBits = (0..1000).map(|i| i % 4 != 0).collect();
        // 750 ones, 250 zeros: mean = (750 - 250) / 1000 = 0.5.
        assert!((packed.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byte_round_trip_is_exact() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 200] {
            let pattern: PackedBits = (0..len).map(|i| i % 3 == 0 || i % 11 == 0).collect();
            let bytes = pattern.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8), "len {len}");
            let back = PackedBits::from_bytes(&bytes, len);
            assert_eq!(back, pattern, "len {len}");
            assert_eq!(back.words(), pattern.words(), "len {len}");
        }
        // Junk bits beyond `len` in the source bytes are masked off.
        let noisy = PackedBits::from_bytes(&[0xFF], 3);
        assert_eq!(noisy.words(), &[0b111u64]);
    }

    #[test]
    #[should_panic(expected = "fewer than")]
    fn from_bytes_rejects_short_buffers() {
        let _ = PackedBits::from_bytes(&[0u8], 9);
    }

    #[test]
    fn collect_matches_extend() {
        let pattern: Vec<bool> = (0..130).map(|i| i % 5 == 0).collect();
        let collected: PackedBits = pattern.iter().copied().collect();
        let mut extended = PackedBits::new();
        extended.extend(pattern.iter().copied());
        assert_eq!(collected, extended);
    }
}
