//! The device side of the link: a sensor chip streaming framed ΣΔ
//! payloads.
//!
//! [`DeviceSimulator`] is the paper's measurement hardware reduced to
//! what actually crosses the USB boundary: a [`SensorChip`] converting
//! a patient's pressure waveform into packed modulator bits, and a
//! [`FrameEncoder`] serializing those bits. No decimation, no
//! calibration, no analysis — all of that is the host's job, which is
//! the whole point of the split.

use tonos_core::chip::SensorChip;
use tonos_core::config::SystemConfig;
use tonos_core::scratch::ConversionScratch;
use tonos_core::SystemError;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::frame::{HelloAck, Nak, KIND_HELLO_ACK, KIND_NAK};
use tonos_mems::contact::ContactInterface;
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::Telemetry;

use crate::auth::LinkKey;
use crate::decode::{FrameDecoder, LinkEvent};
use crate::encode::FrameEncoder;

/// Pressure frames batched into each wire frame: 8 ms of signal per
/// frame at the paper rate.
const FRAMES_PER_PACKET: usize = 8;

/// Appends every bit of `src` to `dst`, word-wise.
fn append_bits(dst: &mut PackedBits, src: &PackedBits) {
    let mut remaining = src.len();
    for &word in src.words() {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(64);
        dst.push_bits(word, take);
        remaining -= take;
    }
}

/// A simulated device streaming one element's framed bitstream.
///
/// Construction synthesizes the patient's arterial waveform for the
/// whole session up front (devices are allowed memory for their own
/// stimulus); each [`next_packet`](DeviceSimulator::next_packet) call
/// converts the next few pressure frames through the chip and returns
/// one encoded wire frame.
#[derive(Debug)]
pub struct DeviceSimulator {
    chip: SensorChip,
    scratch: ConversionScratch,
    encoder: FrameEncoder,
    contact: ContactInterface,
    truth: Vec<MillimetersHg>,
    elements: usize,
    osr: usize,
    cursor: usize,
    frame_buf: Vec<Pascals>,
    packet: PackedBits,
    /// `(key, device_id, nonce)` when the device introduces itself with
    /// a keyed-MAC hello before the first data frame.
    auth: Option<(LinkKey, u64, u64)>,
    hello_sent: bool,
    /// Host verdict from the last `KIND_HELLO_ACK` seen, if any.
    acked: Option<bool>,
    /// Decoder for the host→device control channel (acks and NAKs).
    host_decoder: FrameDecoder,
    host_events: Vec<LinkEvent>,
}

impl DeviceSimulator {
    /// A device built from `config`, streaming `patient`'s waveform for
    /// `duration_s` seconds. Identical `(config, patient, duration)`
    /// triples produce bit-identical streams — the property the
    /// link-vs-in-process equivalence tests are built on.
    ///
    /// # Errors
    ///
    /// Propagates chip construction, decimator-geometry, and waveform
    /// synthesis failures.
    pub fn new(
        config: &SystemConfig,
        patient: &PatientProfile,
        duration_s: f64,
    ) -> Result<Self, SystemError> {
        let chip = SensorChip::new(config.chip)?;
        let osr = config.decimator.build().map_err(SystemError::Dsp)?.ratio();
        let frame_rate = config.chip.sample_rate_hz / osr as f64;
        let truth = patient.record(frame_rate, duration_s)?.samples;
        let elements = config.chip.layout.rows * config.chip.layout.cols;
        Ok(DeviceSimulator {
            chip,
            scratch: ConversionScratch::with_frame_capacity(osr),
            encoder: FrameEncoder::new(0),
            contact: config.contact,
            truth,
            elements,
            osr,
            cursor: 0,
            frame_buf: Vec::with_capacity(elements),
            packet: PackedBits::new(),
            auth: None,
            hello_sent: false,
            acked: None,
            host_decoder: FrameDecoder::new(),
            host_events: Vec::new(),
        })
    }

    /// Keeps the last `window` encoded frames for NAK-driven replay
    /// (see [`FrameEncoder::with_retransmit_window`]).
    #[must_use]
    pub fn with_retransmit_window(mut self, window: usize) -> Self {
        self.encoder = self.encoder.with_retransmit_window(window);
        self
    }

    /// Authenticates the stream: the first call to
    /// [`DeviceSimulator::next_packet_into`] will emit a keyed-MAC
    /// hello frame (tagged with `key` over `device_id ‖ nonce`) ahead
    /// of the data.
    #[must_use]
    pub fn with_auth(mut self, key: LinkKey, device_id: u64, nonce: u64) -> Self {
        self.auth = Some((key, device_id, nonce));
        self
    }

    /// The host's handshake verdict, if a `KIND_HELLO_ACK` has been
    /// seen by [`DeviceSimulator::handle_host_bytes`].
    pub fn hello_acked(&self) -> Option<bool> {
        self.acked
    }

    /// Consumes bytes from the host→device direction of the link —
    /// handshake acks and NAKs — appending any retransmitted frames to
    /// `out`. Returns how many frames were replayed.
    ///
    /// NAK'd spans that have already aged out of the retransmit window
    /// are silently skipped; the host's gap concealment covers them.
    pub fn handle_host_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> u32 {
        self.host_events.clear();
        let mut events = std::mem::take(&mut self.host_events);
        self.host_decoder.push(bytes, &mut events);
        let mut replayed = 0u32;
        for event in &events {
            let LinkEvent::Control(frame) = event else {
                continue;
            };
            match frame.kind {
                KIND_HELLO_ACK => {
                    if let Some(ack) = HelloAck::from_payload(frame.payload_bytes()) {
                        self.acked = Some(ack.accepted);
                    }
                }
                KIND_NAK => {
                    if let Some(nak) = Nak::from_payload(frame.payload_bytes()) {
                        for range in &nak.ranges {
                            replayed += self.encoder.retransmit_into(*range, out);
                        }
                    }
                }
                _ => {}
            }
        }
        self.host_events = events;
        replayed
    }

    /// Reports the encoder's transmit counters into the given registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.encoder = self.encoder.with_telemetry(telemetry);
        self
    }

    /// Modulator clocks per pressure frame.
    pub fn osr(&self) -> usize {
        self.osr
    }

    /// Total pressure frames the session will stream.
    pub fn frames_total(&self) -> usize {
        self.truth.len()
    }

    /// Whether the stream has ended.
    pub fn finished(&self) -> bool {
        self.cursor >= self.truth.len()
    }

    /// The packed bits of the most recent packet, before encoding —
    /// lets a caller tee the exact payload into an in-process decimator
    /// for equivalence checks.
    pub fn last_packet_bits(&self) -> &PackedBits {
        &self.packet
    }

    /// Converts the next batch of pressure frames and appends one
    /// encoded wire frame to `out`. Returns `false` (appending nothing)
    /// once the stream has ended.
    ///
    /// # Errors
    ///
    /// Propagates chip conversion failures.
    pub fn next_packet_into(&mut self, out: &mut Vec<u8>) -> Result<bool, SystemError> {
        if self.finished() {
            return Ok(false);
        }
        if !self.hello_sent {
            self.hello_sent = true;
            if let Some((key, device_id, nonce)) = self.auth {
                key.hello(device_id, nonce).to_frame().encode_into(out);
            }
        }
        self.packet.clear();
        for _ in 0..FRAMES_PER_PACKET {
            let Some(&mmhg) = self.truth.get(self.cursor) else {
                break;
            };
            let pressure = self.contact.net_element_pressure(Pascals::from_mmhg(mmhg));
            self.frame_buf.clear();
            self.frame_buf.resize(self.elements, pressure);
            self.chip
                .convert_frame_packed_into(&self.frame_buf, self.osr, &mut self.scratch)?;
            append_bits(&mut self.packet, &self.scratch.bits);
            self.cursor += 1;
        }
        self.encoder
            .encode_into(&self.packet, out)
            .map_err(SystemError::Dsp)?;
        Ok(true)
    }

    /// [`DeviceSimulator::next_packet_into`] returning a fresh vector,
    /// or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates chip conversion failures.
    pub fn next_packet(&mut self) -> Result<Option<Vec<u8>>, SystemError> {
        let mut out = Vec::new();
        if self.next_packet_into(&mut out)? {
            Ok(Some(out))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tonos_dsp::frame::{Frame, ParseOutcome};

    #[test]
    fn device_streams_are_deterministic_and_framed() {
        let config = SystemConfig::paper_default();
        let patient = PatientProfile::normotensive();
        let run = || -> Vec<u8> {
            let mut dev = DeviceSimulator::new(&config, &patient, 1.0).unwrap();
            let mut wire = Vec::new();
            while dev.next_packet_into(&mut wire).unwrap() {}
            wire
        };
        let a = run();
        assert_eq!(a, run());

        // The stream parses end to end: 1000 frames at 8 per packet.
        let mut rest = &a[..];
        let mut frames = 0usize;
        let mut clocks = 0u64;
        while !rest.is_empty() {
            match Frame::parse(rest) {
                ParseOutcome::Parsed { frame, consumed } => {
                    assert_eq!(frame.seq, frames as u32);
                    assert_eq!(frame.clock, clocks);
                    clocks += frame.payload_bits() as u64;
                    frames += 1;
                    rest = &rest[consumed..];
                }
                other => panic!("stream unparseable: {other:?}"),
            }
        }
        assert_eq!(frames, 125);
        assert_eq!(clocks, 1000 * 128);
    }

    #[test]
    fn device_stream_matches_its_golden_digest() {
        // One fixed session's wire bytes, pinned by length and a 64-bit
        // FNV-1a digest. The bit-identity checks elsewhere compare the
        // chip against the same build's own scalar path, so they cannot
        // see a chip kernel that changes the stream; this digest,
        // recorded from the two-pass block stepper the fused kernel
        // replaced, can. (A CRC-32 of the wire cannot: every frame ends
        // in its own CRC-32, which leaves a running CRC at a fixed
        // residue whatever the payload.)
        let config = SystemConfig::paper_default();
        let patient = PatientProfile::normotensive().with_seed(0x5EED);
        let mut dev = DeviceSimulator::new(&config, &patient, 2.0)
            .unwrap()
            .with_auth(LinkKey::from_bytes(*b"tonos-golden-key"), 0xD1CE, 0x0B5E);
        let mut wire = Vec::new();
        while dev.next_packet_into(&mut wire).unwrap() {}
        let fnv1a = wire.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(wire.len(), 38_801);
        assert_eq!(fnv1a, 0xC8BD_7F0A_BFC1_329A);
    }

    #[test]
    fn last_packet_bits_mirror_the_wire_payload() {
        let config = SystemConfig::paper_default();
        let patient = PatientProfile::hypertensive();
        let mut dev = DeviceSimulator::new(&config, &patient, 0.1).unwrap();
        let wire = dev.next_packet().unwrap().unwrap();
        let ParseOutcome::Parsed { frame, .. } = Frame::parse(&wire) else {
            panic!("unparseable");
        };
        assert_eq!(&frame.to_packed_bits(), dev.last_packet_bits());
    }
}
