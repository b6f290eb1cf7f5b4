//! Caller-owned scratch buffers for the per-frame conversion hot path.
//!
//! Converting one pressure frame needs three working buffers: the
//! modulator input samples for the frame, the packed ±1 bitstream, and
//! the decimated outputs. Allocating them per frame would put three heap
//! round-trips on a path that runs 1 000 times per second per session —
//! [`ConversionScratch`] owns them instead, so a settled readout session
//! performs **zero heap allocations per frame** (proven by the
//! counting-allocator test in `tests/alloc_free.rs`).
//!
//! Ownership flows downward: [`crate::readout::ReadoutSystem`] owns one
//! scratch and lends it to [`crate::chip::SensorChip`] per frame; the
//! monitor above reuses the readout's scratch transitively by calling
//! `push_frame`. The buffers grow to the frame's high-water mark on first
//! use and are only cleared (never shrunk) afterwards.

use tonos_dsp::bits::PackedBits;

/// Reusable working memory for one pressure-frame conversion.
///
/// All buffers are cleared at the start of each conversion and retain
/// their capacity across frames. The contents after a conversion are the
/// frame's intermediate products, readable until the next conversion:
/// `bits` holds the packed modulator stream and `out` the decimated
/// samples.
#[derive(Debug, Clone, Default)]
pub struct ConversionScratch {
    /// Modulator input samples (one per modulator clock).
    pub inputs: Vec<f64>,
    /// Packed ±1 modulator bitstream for the frame.
    pub bits: PackedBits,
    /// Decimated output samples for the frame.
    pub out: Vec<f64>,
}

impl ConversionScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ConversionScratch::default()
    }

    /// Scratch pre-sized for frames of `clocks` modulator cycles, so the
    /// first frame already runs allocation-free.
    pub fn with_frame_capacity(clocks: usize) -> Self {
        ConversionScratch {
            inputs: Vec::with_capacity(clocks),
            bits: PackedBits::with_capacity(clocks),
            out: Vec::with_capacity(4),
        }
    }

    /// Clears all buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.inputs.clear();
        self.bits.clear();
        self.out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut s = ConversionScratch::with_frame_capacity(128);
        s.inputs.extend(std::iter::repeat_n(0.5, 128));
        for i in 0..128 {
            s.bits.push(i % 2 == 0);
        }
        s.out.push(0.25);
        let caps = (s.inputs.capacity(), s.out.capacity());
        s.clear();
        assert!(s.inputs.is_empty() && s.out.is_empty());
        assert!(s.bits.is_empty());
        assert_eq!((s.inputs.capacity(), s.out.capacity()), caps);
    }
}
