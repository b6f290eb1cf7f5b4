//! Self-delimiting link frames: the wire/file format of the host link.
//!
//! The paper's chip streams its ΣΔ bitstream "over USB to a computer
//! system" (§2.2). This module defines the byte-level frame that crosses
//! that boundary — used both by the live transport (`tonos-link`) and by
//! the binary session recorder (`tonos_core::export`), so recorded
//! sessions and link traffic share one format.
//!
//! ```text
//! offset  size  field
//! 0       4     sync word  5A DC B1 7E
//! 4       1     version (high nibble) | kind (low nibble)
//! 5       2     element id          (u16 LE)
//! 7       4     sequence number     (u32 LE)
//! 11      8     clock index         (u64 LE)
//! 19      4     payload length, BITS (u32 LE)
//! 23      n     payload, n = bits.div_ceil(8), LSB-first per byte
//! 23+n    4     CRC-32 (IEEE) over bytes 4..23+n   (u32 LE)
//! ```
//!
//! Design rules that make the stream recoverable after corruption:
//!
//! * **Self-delimiting.** A receiver that lost its place scans for the
//!   4-byte sync word and re-parses from there; a false sync inside
//!   payload bytes is rejected by the CRC with probability `1 − 2⁻³²`.
//! * **Bounded length.** `payload_bits` above [`MAX_PAYLOAD_BITS`] is
//!   corruption by definition ([`CorruptReason::Length`]) — a flipped
//!   length bit can never convince the parser to buffer gigabytes.
//! * **Versioned.** The version nibble must match [`VERSION`]; anything
//!   else is treated as corruption, not as a future format.
//!
//! The streaming decoder with resynchronization and sequence-gap
//! tracking lives in `tonos-link`; this module provides the frame type,
//! the one-shot parser it is built on, and [`crc32`].

use crate::bits::PackedBits;
use crate::DspError;

/// The frame sync word. Chosen to avoid runs likely in ΣΔ payloads
/// (alternating-heavy bytes) while staying cheap to scan for.
pub const SYNC: [u8; 4] = [0x5A, 0xDC, 0xB1, 0x7E];

/// Bytes before the payload, sync word included.
pub const HEADER_LEN: usize = 23;

/// Trailing CRC-32 bytes.
pub const CRC_LEN: usize = 4;

/// Wire-format version carried in the high nibble of byte 4.
pub const VERSION: u8 = 1;

/// Hard ceiling on `payload_bits`; larger values are corruption.
pub const MAX_PAYLOAD_BITS: u32 = 1 << 20;

/// Frame kind: a packed ΣΔ bitstream chunk (the live link payload).
pub const KIND_BITSTREAM: u8 = 0;
/// Frame kind: session-record metadata (`tonos_core::export`).
pub const KIND_SESSION_META: u8 = 1;
/// Frame kind: session-record sample data (`tonos_core::export`).
pub const KIND_SESSION_DATA: u8 = 2;
/// Control frame kind: device→host session handshake carrying a keyed
/// MAC ([`Hello`]).
pub const KIND_HELLO: u8 = 3;
/// Control frame kind: host→device handshake verdict ([`HelloAck`]).
pub const KIND_HELLO_ACK: u8 = 4;
/// Control frame kind: host→device negative acknowledgement listing
/// missing sequence ranges ([`Nak`]).
pub const KIND_NAK: u8 = 5;

/// Whether a frame kind is a control frame (handshake / NAK traffic).
///
/// Control frames are *not* part of the data sequence space: their
/// `seq`/`clock` header fields are advisory (senders write 0) and a
/// streaming decoder must exclude them from gap and duplicate tracking.
pub fn is_control_kind(kind: u8) -> bool {
    matches!(kind, KIND_HELLO | KIND_HELLO_ACK | KIND_NAK)
}

/// Hard ceiling on ranges inside one [`Nak`]; more is corruption.
pub const NAK_MAX_RANGES: usize = 64;

/// The `KIND_HELLO` payload: a device introducing itself with a keyed
/// 64-bit MAC tag, so stream provenance stops riding on CRC-32 (which
/// is integrity only — anyone can compute it).
///
/// The tag algorithm (SipHash-2-4 over `device_id ‖ nonce`, see
/// `tonos-link`'s `LinkKey`) is part of the wire contract; this type is
/// only the byte layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Device-chosen stable identity.
    pub device_id: u64,
    /// Device-chosen fresh value, mixed into the tag.
    pub nonce: u64,
    /// Keyed MAC over `device_id ‖ nonce` (little-endian).
    pub tag: u64,
}

impl Hello {
    /// Payload length in bytes.
    pub const LEN: usize = 24;

    /// Serializes to the 24-byte `KIND_HELLO` payload.
    pub fn to_payload(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&self.device_id.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out
    }

    /// Parses a `KIND_HELLO` payload; `None` if the length is wrong.
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        if payload.len() != Self::LEN {
            return None;
        }
        Some(Hello {
            device_id: u64::from_le_bytes(payload[0..8].try_into().ok()?),
            nonce: u64::from_le_bytes(payload[8..16].try_into().ok()?),
            tag: u64::from_le_bytes(payload[16..24].try_into().ok()?),
        })
    }

    /// Wraps the payload in a `KIND_HELLO` frame (seq/clock 0 — control
    /// frames sit outside the data sequence space).
    pub fn to_frame(self) -> Frame {
        Frame::bytes(KIND_HELLO, 0, 0, 0, self.to_payload())
            .expect("hello payload is well within frame limits")
    }
}

/// The `KIND_HELLO_ACK` payload: the host's one-byte handshake verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Whether the host accepted the handshake.
    pub accepted: bool,
}

impl HelloAck {
    /// Payload length in bytes.
    pub const LEN: usize = 1;

    /// Serializes to the 1-byte `KIND_HELLO_ACK` payload.
    pub fn to_payload(self) -> Vec<u8> {
        vec![u8::from(self.accepted)]
    }

    /// Parses a `KIND_HELLO_ACK` payload; `None` on a wrong length or a
    /// byte other than 0/1.
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        match payload {
            [0] => Some(HelloAck { accepted: false }),
            [1] => Some(HelloAck { accepted: true }),
            _ => None,
        }
    }

    /// Wraps the payload in a `KIND_HELLO_ACK` frame.
    pub fn to_frame(self) -> Frame {
        Frame::bytes(KIND_HELLO_ACK, 0, 0, 0, self.to_payload())
            .expect("ack payload is well within frame limits")
    }
}

/// One missing-sequence range inside a [`Nak`]: `count` frames starting
/// at `first` (sequence arithmetic is mod 2³²).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqRange {
    /// First missing sequence number.
    pub first: u32,
    /// Number of consecutive missing frames (≥ 1).
    pub count: u32,
}

/// The `KIND_NAK` payload: the host telling the device which data
/// frames never arrived, so the device can retransmit them from its
/// bounded window before gap concealment has to invent samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nak {
    /// Missing ranges, at most [`NAK_MAX_RANGES`].
    pub ranges: Vec<SeqRange>,
}

impl Nak {
    /// Serializes to the `KIND_NAK` payload:
    /// `count:u16 LE` then `count × (first:u32 LE, count:u32 LE)`.
    pub fn to_payload(&self) -> Vec<u8> {
        let n = self.ranges.len().min(NAK_MAX_RANGES);
        let mut out = Vec::with_capacity(2 + n * 8);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for r in &self.ranges[..n] {
            out.extend_from_slice(&r.first.to_le_bytes());
            out.extend_from_slice(&r.count.to_le_bytes());
        }
        out
    }

    /// Parses a `KIND_NAK` payload; `None` on a malformed length, a
    /// range count over [`NAK_MAX_RANGES`], or a zero-length range.
    pub fn from_payload(payload: &[u8]) -> Option<Self> {
        let n = u16::from_le_bytes(payload.get(0..2)?.try_into().ok()?) as usize;
        if n > NAK_MAX_RANGES || payload.len() != 2 + n * 8 {
            return None;
        }
        let mut ranges = Vec::with_capacity(n);
        for i in 0..n {
            let at = 2 + i * 8;
            let range = SeqRange {
                first: u32::from_le_bytes(payload[at..at + 4].try_into().ok()?),
                count: u32::from_le_bytes(payload[at + 4..at + 8].try_into().ok()?),
            };
            if range.count == 0 {
                return None;
            }
            ranges.push(range);
        }
        Some(Nak { ranges })
    }

    /// Wraps the payload in a `KIND_NAK` frame.
    pub fn to_frame(&self) -> Frame {
        Frame::bytes(KIND_NAK, 0, 0, 0, self.to_payload())
            .expect("nak payload is well within frame limits")
    }
}

/// The bytewise CRC-32 table: the register after shifting byte `i`
/// through the reflected polynomial `0xEDB8_8320`.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `SLICES[k][i]` is the register after byte `i`
/// followed by `k` zero bytes, so `SLICES[0]` is [`TABLE`] and one step
/// of [`crc32`] folds eight bytes with eight independent lookups. 8 KiB.
static SLICES: [[u32; 256]; 8] = {
    let mut slices = [[0u32; 256]; 8];
    slices[0] = TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = slices[k - 1][i];
            slices[k][i] = TABLE[(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial every USB/Ethernet-adjacent link layer uses. Slicing-by-8:
/// eight bytes per step through eight lookup tables, then the bytewise
/// loop for the tail; equal to [`crc32_bytewise`] on every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &SLICES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// CRC-32 one table lookup per byte: the specification [`crc32`] is
/// tested against, about four times slower. Not for production paths.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// One decoded (or to-be-encoded) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (low nibble of byte 4): [`KIND_BITSTREAM`] and friends.
    pub kind: u8,
    /// Source element/channel id.
    pub element: u16,
    /// Per-stream sequence number (wraps at `u32::MAX`).
    pub seq: u32,
    /// Modulator clock index of the payload's first bit (bitstream
    /// frames) or an application-defined cursor (record frames).
    pub clock: u64,
    payload_bits: u32,
    payload: Vec<u8>,
}

/// Outcome of [`Frame::parse`] on a buffer positioned at a candidate
/// frame start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The buffer holds a valid prefix of a frame; feed more bytes.
    NeedMore,
    /// A complete, CRC-verified frame occupying `consumed` bytes.
    Parsed {
        /// The decoded frame.
        frame: Frame,
        /// Bytes of the buffer the frame occupied.
        consumed: usize,
    },
    /// The bytes at the buffer start are not a valid frame.
    Corrupt {
        /// What check failed.
        reason: CorruptReason,
    },
}

/// Why a candidate frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptReason {
    /// The buffer does not start with [`SYNC`].
    Sync,
    /// The version nibble does not match [`VERSION`].
    Version,
    /// `payload_bits` exceeds [`MAX_PAYLOAD_BITS`].
    Length,
    /// The CRC-32 check failed.
    Crc,
}

impl Frame {
    /// A bitstream frame carrying a packed ΣΔ chunk.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the chunk exceeds
    /// [`MAX_PAYLOAD_BITS`] bits.
    pub fn bitstream(
        element: u16,
        seq: u32,
        clock: u64,
        bits: &PackedBits,
    ) -> Result<Self, DspError> {
        Frame::new(
            KIND_BITSTREAM,
            element,
            seq,
            clock,
            bits.to_bytes(),
            bits.len() as u32,
        )
    }

    /// A frame over an opaque byte payload (record kinds).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the payload exceeds
    /// [`MAX_PAYLOAD_BITS`] bits or the kind does not fit its nibble.
    pub fn bytes(
        kind: u8,
        element: u16,
        seq: u32,
        clock: u64,
        payload: Vec<u8>,
    ) -> Result<Self, DspError> {
        let bits = (payload.len() as u32).saturating_mul(8);
        Frame::new(kind, element, seq, clock, payload, bits)
    }

    fn new(
        kind: u8,
        element: u16,
        seq: u32,
        clock: u64,
        payload: Vec<u8>,
        payload_bits: u32,
    ) -> Result<Self, DspError> {
        if kind > 0x0F {
            return Err(DspError::InvalidParameter(format!(
                "frame kind {kind} does not fit the kind nibble"
            )));
        }
        if payload_bits > MAX_PAYLOAD_BITS {
            return Err(DspError::InvalidParameter(format!(
                "payload of {payload_bits} bits exceeds the {MAX_PAYLOAD_BITS}-bit frame limit"
            )));
        }
        debug_assert_eq!(payload.len(), (payload_bits as usize).div_ceil(8));
        Ok(Frame {
            kind,
            element,
            seq,
            clock,
            payload_bits,
            payload,
        })
    }

    /// Number of valid payload bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits as usize
    }

    /// The raw payload bytes (`payload_bits().div_ceil(8)` of them).
    pub fn payload_bytes(&self) -> &[u8] {
        &self.payload
    }

    /// The payload as a packed ΣΔ stream (bitstream frames).
    pub fn to_packed_bits(&self) -> PackedBits {
        PackedBits::from_bytes(&self.payload, self.payload_bits as usize)
    }

    /// Encoded size in bytes (sync + header + payload + CRC).
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + CRC_LEN
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let body_start = out.len() + SYNC.len();
        out.extend_from_slice(&SYNC);
        out.push((VERSION << 4) | self.kind);
        out.extend_from_slice(&self.element.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.clock.to_le_bytes());
        out.extend_from_slice(&self.payload_bits.to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[body_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// The encoded frame as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Parses one frame from the start of `buf`.
    ///
    /// `buf` must be positioned at a candidate frame start (the caller
    /// scans for [`SYNC`]); anything else comes back as
    /// [`ParseOutcome::Corrupt`] so streaming decoders can advance one
    /// byte and rescan.
    pub fn parse(buf: &[u8]) -> ParseOutcome {
        if buf.len() < SYNC.len() {
            return if SYNC.starts_with(buf) {
                ParseOutcome::NeedMore
            } else {
                ParseOutcome::Corrupt {
                    reason: CorruptReason::Sync,
                }
            };
        }
        if buf[..SYNC.len()] != SYNC {
            return ParseOutcome::Corrupt {
                reason: CorruptReason::Sync,
            };
        }
        if buf.len() < HEADER_LEN {
            return ParseOutcome::NeedMore;
        }
        if buf[4] >> 4 != VERSION {
            return ParseOutcome::Corrupt {
                reason: CorruptReason::Version,
            };
        }
        let payload_bits = u32::from_le_bytes(buf[19..23].try_into().expect("4 bytes"));
        if payload_bits > MAX_PAYLOAD_BITS {
            return ParseOutcome::Corrupt {
                reason: CorruptReason::Length,
            };
        }
        let payload_len = (payload_bits as usize).div_ceil(8);
        let total = HEADER_LEN + payload_len + CRC_LEN;
        if buf.len() < total {
            return ParseOutcome::NeedMore;
        }
        let crc_stored =
            u32::from_le_bytes(buf[total - CRC_LEN..total].try_into().expect("4 bytes"));
        if crc32(&buf[SYNC.len()..total - CRC_LEN]) != crc_stored {
            return ParseOutcome::Corrupt {
                reason: CorruptReason::Crc,
            };
        }
        let frame = Frame {
            kind: buf[4] & 0x0F,
            element: u16::from_le_bytes(buf[5..7].try_into().expect("2 bytes")),
            seq: u32::from_le_bytes(buf[7..11].try_into().expect("4 bytes")),
            clock: u64::from_le_bytes(buf[11..19].try_into().expect("8 bytes")),
            payload_bits,
            payload: buf[HEADER_LEN..HEADER_LEN + payload_len].to_vec(),
        };
        ParseOutcome::Parsed {
            frame,
            consumed: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_bits(n: usize) -> PackedBits {
        (0..n).map(|i| i % 3 == 0 || i % 7 == 2).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The two universally published IEEE CRC-32 check values.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_short_length() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "{len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random bytes of up to a little over 2 KiB, sliced out of a
        /// larger buffer at every start offset 0–7: the slicing kernel
        /// agrees with the bytewise reference.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            buf in prop::collection::vec(0u8..=255, 2_120),
            len in 0usize..=2_112,
        ) {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {}, len {}", start, len);
            }
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        for n in [0usize, 1, 7, 8, 63, 64, 65, 128, 1000] {
            let bits = sample_bits(n);
            let frame = Frame::bitstream(3, 42, 9999, &bits).unwrap();
            let encoded = frame.encode();
            assert_eq!(encoded.len(), frame.encoded_len());
            match Frame::parse(&encoded) {
                ParseOutcome::Parsed {
                    frame: back,
                    consumed,
                } => {
                    assert_eq!(consumed, encoded.len());
                    assert_eq!(back, frame);
                    assert_eq!(back.to_packed_bits(), bits, "{n} bits");
                }
                other => panic!("parse failed for {n} bits: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let frame = Frame::bitstream(0, 0, 0, &sample_bits(100)).unwrap();
        let encoded = frame.encode();
        for cut in 0..encoded.len() {
            assert_eq!(
                Frame::parse(&encoded[..cut]),
                ParseOutcome::NeedMore,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_corruption_class_is_rejected() {
        let frame = Frame::bitstream(1, 2, 3, &sample_bits(64)).unwrap();
        let good = frame.encode();

        let mut bad = good.clone();
        bad[0] ^= 0xFF; // sync
        assert_eq!(
            Frame::parse(&bad),
            ParseOutcome::Corrupt {
                reason: CorruptReason::Sync
            }
        );

        let mut bad = good.clone();
        bad[4] ^= 0xF0; // version nibble
        assert_eq!(
            Frame::parse(&bad),
            ParseOutcome::Corrupt {
                reason: CorruptReason::Version
            }
        );

        let mut bad = good.clone();
        bad[22] = 0xFF; // length high byte -> over MAX_PAYLOAD_BITS
        assert_eq!(
            Frame::parse(&bad),
            ParseOutcome::Corrupt {
                reason: CorruptReason::Length
            }
        );

        // A flip anywhere in the CRC-covered region must fail the CRC.
        for i in [4usize, 6, 9, 15, 21, 25, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            let outcome = Frame::parse(&bad);
            assert!(
                matches!(outcome, ParseOutcome::Corrupt { .. }),
                "flip at {i}: {outcome:?}"
            );
        }
    }

    #[test]
    fn oversized_payloads_are_rejected_at_construction() {
        let too_big: PackedBits = (0..(MAX_PAYLOAD_BITS as usize + 1)).map(|_| true).collect();
        assert!(Frame::bitstream(0, 0, 0, &too_big).is_err());
        assert!(Frame::bytes(0x10, 0, 0, 0, Vec::new()).is_err());
        assert!(Frame::bytes(KIND_SESSION_DATA, 0, 0, 0, vec![0; 8]).is_ok());
    }
}
