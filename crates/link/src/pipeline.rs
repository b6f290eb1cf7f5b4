//! The host-side signal pipeline: decoded frames → decimation →
//! calibration → online analysis, with explicit gap concealment.
//!
//! ## The gap-policy rule
//!
//! The link can lose frames; the pipeline must decide what the samples
//! that should have existed become. Whatever the policy, one rule is
//! non-negotiable: **a concealed sample can never silently fire a
//! pressure alarm**. Every sample that covers lost input — and every
//! sample whose decimation window overlaps lost input — is flagged, the
//! flag travels into [`OnlineAnalyzer::push_flagged`], and a pressure
//! alarm whose qualifying run includes flagged beats is suppressed and
//! journaled instead of raised. Signal-loss alarms still fire on
//! concealed spans: failing to alarm on a dead link is the dangerous
//! direction.
//!
//! Two concealment policies are offered ([`GapPolicy`]):
//!
//! * [`GapPolicy::HoldLast`] — emit the last good raw value for each
//!   lost output sample, flagged [`SampleFlag::Concealed`]. Keeps
//!   downstream consumers (trend displays, recorders) fed with a
//!   plausible waveform.
//! * [`GapPolicy::MarkInvalid`] — emit `NaN`, flagged
//!   [`SampleFlag::Invalid`]. Keeps downstream consumers honest.
//!
//! Under *both* policies the analyzer is advanced with the held value
//! (flagged concealed), so its timebase, beat detector state, and
//! alarm-suppression semantics are identical regardless of what the
//! exported stream shows.
//!
//! ## Concealment is bounded
//!
//! Concealment emits one sample per lost output slot, and the gap size
//! comes from the frame clock headers — which the wire does not
//! authenticate (CRC-32 is integrity, not provenance) and which can be
//! legitimately enormous on reconnect to a long-running device. Filling
//! such a jump sample-by-sample would spin for up to 2⁵⁷ iterations and
//! grow the output without bound, so concealment is clamped to
//! [`MAX_CONCEAL_S`] seconds of output. Anything beyond the clamp is a
//! **stream reset**: the output index is re-based past the skipped span
//! (time is still never silently compressed — the index jump *is* the
//! record of the loss), `link.stream_resets` / `link.gap_skipped_samples`
//! count it, a journal warning names it, and a bounded concealed span is
//! still emitted so downstream consumers see the gap boundary.

use tonos_core::config::SystemConfig;
use tonos_core::readout::ReadoutSystem;
use tonos_core::stream::{AlarmLimits, MonitorEvent, OnlineAnalyzer};
use tonos_core::SystemError;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::decimator::{DecimatorConfig, TwoStageDecimator};
use tonos_dsp::frame::{Frame, Hello, HelloAck, KIND_BITSTREAM, KIND_HELLO};
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_telemetry::{names, Counter, Severity, SpanTimer, Telemetry};

use crate::auth::LinkKey;
use crate::decode::{FrameDecoder, LinkEvent};

/// Longest gap (seconds of output) concealed sample-by-sample; larger
/// clock jumps are handled as a stream reset (see the module docs).
pub const MAX_CONCEAL_S: f64 = 5.0;

/// What to emit for output samples lost to a link gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapPolicy {
    /// Repeat the last good raw value, flagged [`SampleFlag::Concealed`].
    HoldLast,
    /// Emit `NaN`, flagged [`SampleFlag::Invalid`].
    MarkInvalid,
}

/// Provenance of one pipeline output sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFlag {
    /// Decimated from CRC-verified, in-order payload only.
    Clean,
    /// Covers lost input (held value), or decimated from a window that
    /// overlaps lost input (post-gap filter memory).
    Concealed,
    /// Covers lost input under [`GapPolicy::MarkInvalid`]; the value is
    /// `NaN`.
    Invalid,
}

/// One calibrated output sample with provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSample {
    /// Output-sample index since the start of the stream (gaps
    /// included, so index × output period is wall-clock time).
    pub index: u64,
    /// Calibrated pressure in mmHg (`NaN` for [`SampleFlag::Invalid`]).
    pub value_mmhg: f64,
    /// Provenance flag.
    pub flag: SampleFlag,
}

/// Linear raw→mmHg calibration for link-ingested streams.
///
/// The wire carries raw modulator payloads; the cuff-based calibration
/// machinery of `tonos_core` lives on the other side of the link. This
/// is the host's stand-in: `mmHg = gain · raw + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCalibration {
    /// mmHg per raw decimated unit.
    pub gain: f64,
    /// mmHg at raw zero.
    pub offset: f64,
}

impl LinkCalibration {
    /// The identity map: raw values pass through unchanged.
    pub fn identity() -> Self {
        LinkCalibration {
            gain: 1.0,
            offset: 0.0,
        }
    }

    /// Applies the calibration.
    pub fn apply(&self, raw: f64) -> f64 {
        self.gain * raw + self.offset
    }

    /// Two-point bench calibration: runs the given system configuration
    /// through an in-process [`ReadoutSystem`] at two known uniform
    /// pressures and fits the line between the settled raw outputs —
    /// how a bench operator would calibrate a freshly connected device
    /// whose configuration is known.
    ///
    /// # Errors
    ///
    /// Propagates readout failures and returns
    /// [`SystemError::CalibrationFailed`] when the two probe points
    /// produce a degenerate raw span.
    pub fn two_point(
        config: &SystemConfig,
        low: MillimetersHg,
        high: MillimetersHg,
    ) -> Result<Self, SystemError> {
        let probe = |mmhg: MillimetersHg| -> Result<f64, SystemError> {
            let mut sys = ReadoutSystem::new(*config)?;
            let elements = config.chip.layout.rows * config.chip.layout.cols;
            let frame = vec![
                config
                    .contact
                    .net_element_pressure(Pascals::from_mmhg(mmhg));
                elements
            ];
            // Let mux and filter chain settle, then average the noise.
            let settle = sys.settling_frames() + 64;
            for _ in 0..settle {
                sys.push_frame(&frame)?;
            }
            let reps = 64;
            let mut acc = 0.0;
            for _ in 0..reps {
                acc += sys.push_frame(&frame)?;
            }
            Ok(acc / f64::from(reps))
        };
        let raw_low = probe(low)?;
        let raw_high = probe(high)?;
        let span = raw_high - raw_low;
        if !(span.abs() > 1e-12) {
            return Err(SystemError::CalibrationFailed(format!(
                "degenerate raw span between {} and {} mmHg probes",
                low.value(),
                high.value()
            )));
        }
        let gain = (high.value() - low.value()) / span;
        Ok(LinkCalibration {
            gain,
            offset: low.value() - gain * raw_low,
        })
    }
}

/// Aggregate health of one link-ingested stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkHealth {
    /// Decoder-level statistics (frames, CRC failures, resyncs, gaps).
    pub decoder: crate::decode::DecoderStats,
    /// Output samples decimated from verified payload only.
    pub clean_samples: u64,
    /// Output samples that cover or touch lost input, emitted flagged.
    pub concealed_samples: u64,
    /// Concealed samples emitted as `NaN` under
    /// [`GapPolicy::MarkInvalid`] (a subset of the concealment total in
    /// spirit; disjoint from `concealed_samples` in the counts).
    pub invalid_samples: u64,
    /// Output samples skipped by stream resets: lost slots beyond the
    /// [`MAX_CONCEAL_S`] clamp, accounted for by re-basing the output
    /// index rather than emitting per-sample filler. Not included in
    /// [`LinkHealth::samples`] — nothing was emitted for them.
    pub skipped_samples: u64,
    /// Clock jumps too large to conceal, handled as stream resets.
    pub stream_resets: u64,
    /// Beats detected by the online analyzer (0 without an analyzer).
    pub beats: u64,
    /// Alarms raised by the online analyzer.
    pub alarms: u64,
    /// Smoothed pulse rate estimate, beats/minute.
    pub pulse_rate_bpm: f64,
    /// Mean systolic over detected beats, mmHg (0 without beats).
    pub mean_systolic_mmhg: f64,
    /// Mean diastolic over detected beats, mmHg (0 without beats).
    pub mean_diastolic_mmhg: f64,
    /// NAK control frames queued for the device (retransmit requests).
    pub naks_tx: u64,
    /// Keyed-MAC handshakes verified and accepted.
    pub handshakes_ok: u64,
    /// Handshakes rejected: forged tag, malformed payload.
    pub handshakes_rejected: u64,
    /// Data frames dropped because the pipeline requires an
    /// authenticated session and none was established.
    pub unauth_frames: u64,
}

impl LinkHealth {
    /// Total output samples emitted (clean + concealed + invalid).
    pub fn samples(&self) -> u64 {
        self.clean_samples + self.concealed_samples + self.invalid_samples
    }
}

/// Snapshot of the pipeline's per-sample totals, kept so telemetry
/// counters receive one batched delta per transport chunk instead of
/// one atomic op per output sample (which costs real hot-path
/// throughput at OSR-scale output rates).
#[derive(Debug, Clone, Copy, Default)]
struct SampleCounts {
    clean: u64,
    concealed: u64,
    invalid: u64,
    skipped: u64,
    resets: u64,
}

/// Push-based host pipeline: bytes in, flagged calibrated samples out.
///
/// Build order: [`HostPipeline::new`] →
/// [`with_reorder_window`](HostPipeline::with_reorder_window) /
/// [`with_auth`](HostPipeline::with_auth) (optional) →
/// [`with_analyzer`](HostPipeline::with_analyzer) (optional) →
/// [`with_telemetry`](HostPipeline::with_telemetry) (optional, last, so
/// the analyzer's instruments are wired too).
///
/// # Example
///
/// ```
/// use tonos_dsp::bits::PackedBits;
/// use tonos_dsp::decimator::DecimatorConfig;
/// use tonos_link::{FrameEncoder, GapPolicy, HostPipeline, LinkCalibration, SampleFlag};
///
/// let mut pipe = HostPipeline::new(
///     &DecimatorConfig::paper_default(),
///     LinkCalibration::identity(),
///     GapPolicy::HoldLast,
/// )
/// .unwrap();
///
/// // A device encodes one 128-bit chunk; the transport delivers it.
/// let mut enc = FrameEncoder::new(0);
/// let chunk: PackedBits = (0..128).map(|i| i % 3 == 0).collect();
/// let wire = enc.encode(&chunk).unwrap();
///
/// let mut samples = Vec::new();
/// pipe.push_bytes(&wire, &mut samples);
/// assert!(samples.iter().all(|s| s.flag == SampleFlag::Clean));
/// ```
#[derive(Debug)]
pub struct HostPipeline {
    decoder: FrameDecoder,
    decimator: TwoStageDecimator,
    osr: usize,
    output_rate_hz: f64,
    calibration: LinkCalibration,
    policy: GapPolicy,
    analyzer: Option<OnlineAnalyzer>,
    last_raw: Option<f64>,
    /// Outputs still flagged after a gap (decimator memory span).
    taint: usize,
    taint_span: usize,
    /// Output samples concealed per gap before it becomes a reset.
    max_conceal_samples: u64,
    next_index: u64,
    clean_samples: u64,
    concealed_samples: u64,
    invalid_samples: u64,
    skipped_samples: u64,
    stream_resets: u64,
    /// Totals as of the last telemetry flush (see [`SampleCounts`]).
    flushed: SampleCounts,
    beats: u64,
    alarms: u64,
    sum_systolic: f64,
    sum_diastolic: f64,
    /// Pre-shared key for verifying device hellos; `None` leaves the
    /// wire unauthenticated (hellos are acked but not verified).
    auth_key: Option<LinkKey>,
    /// Whether data frames are dropped until a verified handshake.
    auth_required: bool,
    authenticated: bool,
    /// Device id from the most recent accepted hello (`None` until a
    /// handshake lands), so ingest consumers can route by device.
    device_id: Option<u64>,
    naks_tx: u64,
    handshakes_ok: u64,
    handshakes_rejected: u64,
    unauth_frames: u64,
    /// Encoded control frames (acks, NAKs) awaiting
    /// [`HostPipeline::drain_control_into`].
    control_out: Vec<u8>,
    naks_counter: Counter,
    handshakes_ok_counter: Counter,
    handshakes_rejected_counter: Counter,
    unauth_counter: Counter,
    clean_counter: Counter,
    concealed_counter: Counter,
    invalid_counter: Counter,
    skipped_counter: Counter,
    resets_counter: Counter,
    decode_span: SpanTimer,
    conceal_span: SpanTimer,
    telemetry: Telemetry,
    link_scratch: Vec<LinkEvent>,
    out_scratch: Vec<f64>,
}

impl HostPipeline {
    /// A pipeline decimating with `decimator` under the given
    /// calibration and gap policy, no analyzer, no telemetry.
    ///
    /// # Errors
    ///
    /// Propagates decimator construction failures.
    pub fn new(
        decimator: &DecimatorConfig,
        calibration: LinkCalibration,
        policy: GapPolicy,
    ) -> Result<Self, SystemError> {
        let built = decimator.build().map_err(SystemError::Dsp)?;
        let taint_span = built.settling_output_samples();
        let max_conceal_samples = ((MAX_CONCEAL_S * decimator.output_rate()).ceil() as u64).max(1);
        Ok(HostPipeline {
            osr: built.ratio(),
            output_rate_hz: decimator.output_rate(),
            decimator: built,
            calibration,
            policy,
            analyzer: None,
            last_raw: None,
            taint: 0,
            taint_span,
            max_conceal_samples,
            next_index: 0,
            clean_samples: 0,
            concealed_samples: 0,
            invalid_samples: 0,
            skipped_samples: 0,
            stream_resets: 0,
            flushed: SampleCounts::default(),
            beats: 0,
            alarms: 0,
            sum_systolic: 0.0,
            sum_diastolic: 0.0,
            auth_key: None,
            auth_required: false,
            authenticated: true,
            device_id: None,
            naks_tx: 0,
            handshakes_ok: 0,
            handshakes_rejected: 0,
            unauth_frames: 0,
            control_out: Vec::new(),
            naks_counter: Counter::disabled(),
            handshakes_ok_counter: Counter::disabled(),
            handshakes_rejected_counter: Counter::disabled(),
            unauth_counter: Counter::disabled(),
            clean_counter: Counter::disabled(),
            concealed_counter: Counter::disabled(),
            invalid_counter: Counter::disabled(),
            skipped_counter: Counter::disabled(),
            resets_counter: Counter::disabled(),
            decode_span: SpanTimer::disabled(),
            conceal_span: SpanTimer::disabled(),
            telemetry: Telemetry::disabled(),
            decoder: FrameDecoder::new(),
            link_scratch: Vec::new(),
            out_scratch: Vec::new(),
        })
    }

    /// Enables the decoder's reorder buffer (see
    /// [`FrameDecoder::with_reorder_window`]): out-of-order frames
    /// within `window` are re-sequenced instead of gapped, and
    /// [`HostPipeline::drain_control_into`] emits NAKs for the spans
    /// still missing so the device can retransmit them.
    #[must_use]
    pub fn with_reorder_window(mut self, window: u32) -> Self {
        self.decoder = self.decoder.with_reorder_window(window);
        self
    }

    /// Verifies device handshakes against `key`.
    ///
    /// With `required = false`, unauthenticated data still flows (the
    /// handshake only feeds provenance counters and the journal); with
    /// `required = true`, data and gap events are dropped — and counted
    /// as `link.unauth_frames` — until a hello tagged with `key`
    /// arrives.
    ///
    /// ```
    /// use tonos_dsp::decimator::DecimatorConfig;
    /// use tonos_link::{GapPolicy, HostPipeline, LinkCalibration, LinkKey};
    ///
    /// let key = LinkKey::from_bytes([9u8; 16]);
    /// let mut pipe = HostPipeline::new(
    ///     &DecimatorConfig::paper_default(),
    ///     LinkCalibration::identity(),
    ///     GapPolicy::HoldLast,
    /// )
    /// .unwrap()
    /// .with_auth(key, true);
    ///
    /// // The device opens with a keyed hello; the host verifies it and
    /// // queues an accept ack for the return path.
    /// let hello = key.hello(42, 7).to_frame().encode();
    /// let mut samples = Vec::new();
    /// pipe.push_bytes(&hello, &mut samples);
    /// assert_eq!(pipe.health().handshakes_ok, 1);
    ///
    /// let mut reply = Vec::new();
    /// pipe.drain_control_into(&mut reply);
    /// assert!(!reply.is_empty()); // the encoded HelloAck frame
    /// ```
    #[must_use]
    pub fn with_auth(mut self, key: LinkKey, required: bool) -> Self {
        self.auth_key = Some(key);
        self.auth_required = required;
        self.authenticated = !required;
        self
    }

    /// Adds online alarm screening at the pipeline's output rate.
    ///
    /// # Errors
    ///
    /// Propagates analyzer construction failures.
    pub fn with_analyzer(mut self, limits: AlarmLimits) -> Result<Self, SystemError> {
        self.analyzer = Some(OnlineAnalyzer::new(self.output_rate_hz, limits)?);
        Ok(self)
    }

    /// Wires decoder, sample counters, and (if present) the analyzer
    /// into the given registry. Call after
    /// [`with_analyzer`](HostPipeline::with_analyzer).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.decoder = self.decoder.with_telemetry(telemetry);
        self.clean_counter = telemetry.counter(names::LINK_SAMPLES_CLEAN);
        self.concealed_counter = telemetry.counter(names::LINK_GAPS_CONCEALED);
        self.invalid_counter = telemetry.counter(names::LINK_SAMPLES_INVALID);
        self.skipped_counter = telemetry.counter(names::LINK_GAP_SKIPPED_SAMPLES);
        self.resets_counter = telemetry.counter(names::LINK_STREAM_RESETS);
        self.naks_counter = telemetry.counter(names::LINK_NAKS_TX);
        self.handshakes_ok_counter = telemetry.counter(names::LINK_HANDSHAKES_OK);
        self.handshakes_rejected_counter = telemetry.counter(names::LINK_HANDSHAKES_REJECTED);
        self.unauth_counter = telemetry.counter(names::LINK_UNAUTH_FRAMES);
        self.decode_span = telemetry.span(names::SPAN_LINK_DECODE);
        self.conceal_span = telemetry.span(names::SPAN_LINK_CONCEAL);
        self.analyzer = self.analyzer.map(|a| a.with_telemetry(telemetry.clone()));
        self.telemetry = telemetry.clone();
        // Counters report activity from attach time on: don't credit
        // pre-attach samples to the registry at the first flush.
        self.flushed = self.counts();
        self
    }

    /// Current per-sample totals, for the batched telemetry flush.
    fn counts(&self) -> SampleCounts {
        SampleCounts {
            clean: self.clean_samples,
            concealed: self.concealed_samples,
            invalid: self.invalid_samples,
            skipped: self.skipped_samples,
            resets: self.stream_resets,
        }
    }

    /// Decimation ratio (modulator clocks per output sample).
    pub fn osr(&self) -> usize {
        self.osr
    }

    /// Output sample rate in Hz.
    pub fn output_rate_hz(&self) -> f64 {
        self.output_rate_hz
    }

    /// Device id announced by the most recent accepted hello, if any —
    /// what an ingest tap uses to route this stream's samples.
    pub fn device_id(&self) -> Option<u64> {
        self.device_id
    }

    /// Feeds transport bytes in; flagged calibrated samples are
    /// appended to `out`.
    pub fn push_bytes(&mut self, bytes: &[u8], out: &mut Vec<HostSample>) {
        let mut events = std::mem::take(&mut self.link_scratch);
        events.clear();
        // One span per transport chunk, not per frame: at 8 KiB chunks
        // that is ~1 clock read per ~60 frames, cheap enough to leave on.
        let span = self.decode_span.start();
        self.decoder.push(bytes, &mut events);
        span.finish();
        for event in events.drain(..) {
            match event {
                LinkEvent::Gap { lost_clocks, .. } => {
                    if !self.authenticated {
                        continue;
                    }
                    self.conceal(lost_clocks, out);
                }
                LinkEvent::Frame(frame) => {
                    if !self.authenticated {
                        self.unauth_frames += 1;
                        self.unauth_counter.inc();
                        continue;
                    }
                    if frame.kind != KIND_BITSTREAM {
                        continue;
                    }
                    let bits = frame.to_packed_bits();
                    self.decimate(&bits, out);
                }
                LinkEvent::Control(frame) => self.handle_control(&frame),
            }
        }
        self.link_scratch = events;
        // Batched telemetry flush, mirroring the decoder: one atomic
        // add per counter per chunk instead of one per output sample.
        // All sample/reset totals mutate under this method (conceal,
        // decimate, and emit are only reached from here), so flushing
        // at the end keeps the registry exact at chunk granularity.
        let now = self.counts();
        self.clean_counter.add(now.clean - self.flushed.clean);
        self.concealed_counter
            .add(now.concealed - self.flushed.concealed);
        self.invalid_counter.add(now.invalid - self.flushed.invalid);
        self.skipped_counter.add(now.skipped - self.flushed.skipped);
        self.resets_counter.add(now.resets - self.flushed.resets);
        self.flushed = now;
    }

    /// Handles one device→host control frame.
    fn handle_control(&mut self, frame: &Frame) {
        if frame.kind != KIND_HELLO {
            // Acks and NAKs belong to the host→device direction; seen
            // here they are counted as control traffic and ignored.
            return;
        }
        let verdict = match Hello::from_payload(frame.payload_bytes()) {
            Some(hello) => match self.auth_key {
                Some(key) => {
                    if key.verify(&hello) {
                        Ok(hello)
                    } else {
                        Err(format!(
                            "forged handshake: device_id {} nonce {} carries a bad MAC tag",
                            hello.device_id, hello.nonce
                        ))
                    }
                }
                // No key configured: the hello is advisory; accept it
                // so an authenticated device can talk to a host that
                // does not enforce provenance.
                None => Ok(hello),
            },
            None => Err("malformed hello payload".to_string()),
        };
        match verdict {
            Ok(hello) => {
                self.authenticated = true;
                self.device_id = Some(hello.device_id);
                self.handshakes_ok += 1;
                self.handshakes_ok_counter.inc();
                HelloAck { accepted: true }
                    .to_frame()
                    .encode_into(&mut self.control_out);
            }
            Err(why) => {
                self.handshakes_rejected += 1;
                self.handshakes_rejected_counter.inc();
                self.telemetry.event(Severity::Warning, "link.auth", || {
                    format!("handshake rejected: {why}")
                });
                HelloAck { accepted: false }
                    .to_frame()
                    .encode_into(&mut self.control_out);
            }
        }
    }

    /// Appends the host→device control traffic queued so far — hello
    /// acks, plus a NAK for every span currently missing inside the
    /// reorder window — to `out`. Returns `true` if anything was
    /// appended.
    ///
    /// Call once per ingested chunk (the server does): each call
    /// re-requests everything still missing, so a lost NAK or a lost
    /// retransmission heals on the next round instead of deadlocking
    /// the window.
    pub fn drain_control_into(&mut self, out: &mut Vec<u8>) -> bool {
        let before = out.len();
        out.append(&mut self.control_out);
        if let Some(nak) = self.decoder.take_nak() {
            nak.to_frame().encode_into(out);
            self.naks_tx += 1;
            self.naks_counter.inc();
        }
        out.len() > before
    }

    /// Aggregate stream health so far.
    pub fn health(&self) -> LinkHealth {
        let beats_f = if self.beats > 0 {
            self.beats as f64
        } else {
            1.0
        };
        LinkHealth {
            decoder: self.decoder.stats(),
            clean_samples: self.clean_samples,
            concealed_samples: self.concealed_samples,
            invalid_samples: self.invalid_samples,
            skipped_samples: self.skipped_samples,
            stream_resets: self.stream_resets,
            beats: self.beats,
            alarms: self.alarms,
            pulse_rate_bpm: self
                .analyzer
                .as_ref()
                .map_or(0.0, OnlineAnalyzer::pulse_rate_bpm),
            mean_systolic_mmhg: self.sum_systolic / beats_f,
            mean_diastolic_mmhg: self.sum_diastolic / beats_f,
            naks_tx: self.naks_tx,
            handshakes_ok: self.handshakes_ok,
            handshakes_rejected: self.handshakes_rejected,
            unauth_frames: self.unauth_frames,
        }
    }

    /// Decimates verified payload bits and emits the outputs.
    fn decimate(&mut self, bits: &PackedBits, out: &mut Vec<HostSample>) {
        let mut ys = std::mem::take(&mut self.out_scratch);
        ys.clear();
        self.decimator.process_packed_into(bits, &mut ys);
        for &y in &ys {
            self.emit(y, out);
        }
        self.out_scratch = ys;
    }

    /// Emits one decimated output, honouring post-gap taint.
    fn emit(&mut self, raw: f64, out: &mut Vec<HostSample>) {
        self.last_raw = Some(raw);
        let mmhg = self.calibration.apply(raw);
        let concealed = if self.taint > 0 {
            self.taint -= 1;
            true
        } else {
            false
        };
        if concealed {
            self.concealed_samples += 1;
        } else {
            self.clean_samples += 1;
        }
        out.push(HostSample {
            index: self.next_index,
            value_mmhg: mmhg,
            flag: if concealed {
                SampleFlag::Concealed
            } else {
                SampleFlag::Clean
            },
        });
        self.next_index += 1;
        self.analyze(mmhg, concealed);
    }

    /// Emits the concealment samples for a gap of `lost_clocks`
    /// modulator clocks and re-aligns the decimator phase.
    ///
    /// Concealment work is bounded: the clock header that sizes the gap
    /// is attacker- and reconnect-controlled (up to `u64::MAX`), so a
    /// jump past [`MAX_CONCEAL_S`] of output becomes a stream reset —
    /// the output index is re-based over the excess and only the
    /// bounded tail is emitted sample-by-sample.
    fn conceal(&mut self, lost_clocks: u64, out: &mut Vec<HostSample>) {
        // Clone the handle so the guard doesn't pin `self` across the
        // `&mut self` emit/decimate calls below (two Arc clones).
        let timer = self.conceal_span.clone();
        let _span = timer.start();
        let mut whole = lost_clocks / self.osr as u64;
        let residual = (lost_clocks % self.osr as u64) as usize;
        if whole > self.max_conceal_samples {
            let skipped = whole - self.max_conceal_samples;
            whole = self.max_conceal_samples;
            self.next_index = self.next_index.saturating_add(skipped);
            self.skipped_samples += skipped;
            self.stream_resets += 1;
            self.telemetry
                .event(Severity::Warning, "link.pipeline", || {
                    format!(
                        "stream reset: clock jump of {lost_clocks} clocks exceeds the \
                     concealment clamp; re-based output index over {skipped} samples"
                    )
                });
        }
        let held = self.last_raw.unwrap_or(0.0);
        let held_mmhg = self.calibration.apply(held);
        for _ in 0..whole {
            let (value, flag) = match self.policy {
                GapPolicy::HoldLast => (held_mmhg, SampleFlag::Concealed),
                GapPolicy::MarkInvalid => (f64::NAN, SampleFlag::Invalid),
            };
            match flag {
                SampleFlag::Concealed => self.concealed_samples += 1,
                _ => self.invalid_samples += 1,
            }
            out.push(HostSample {
                index: self.next_index,
                value_mmhg: value,
                flag,
            });
            self.next_index += 1;
            // The analyzer always advances on the held value so its
            // timebase and suppression semantics are policy-independent
            // (NaN would poison its running sums).
            self.analyze(held_mmhg, true);
        }
        // Taint the decimator-memory span after the gap; set before the
        // residual filler so filler-built outputs come out flagged.
        self.taint = self.taint_span.max(1);
        if residual > 0 {
            // Keep the output phase aligned across non-frame-multiple
            // gaps: feed mid-scale filler bits for the lost remainder.
            let filler: PackedBits = (0..residual).map(|i| i % 2 == 0).collect();
            self.decimate(&filler, out);
        }
    }

    /// Advances the optional analyzer and folds its events into the
    /// aggregates.
    fn analyze(&mut self, mmhg: f64, concealed: bool) {
        let Some(analyzer) = self.analyzer.as_mut() else {
            return;
        };
        for event in analyzer.push_flagged(mmhg, concealed) {
            match event {
                MonitorEvent::Beat {
                    systolic,
                    diastolic,
                    ..
                } => {
                    self.beats += 1;
                    self.sum_systolic += systolic;
                    self.sum_diastolic += diastolic;
                }
                _ => self.alarms += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::FrameEncoder;

    fn chunk(n: usize, phase: usize) -> PackedBits {
        (0..n).map(|i| (i + phase).is_multiple_of(3)).collect()
    }

    fn pipeline(policy: GapPolicy) -> HostPipeline {
        HostPipeline::new(
            &DecimatorConfig::paper_default(),
            LinkCalibration::identity(),
            policy,
        )
        .unwrap()
    }

    #[test]
    fn fault_free_bytes_match_direct_decimation() {
        let mut enc = FrameEncoder::new(0);
        let mut wire = Vec::new();
        let chunks: Vec<PackedBits> = (0..40).map(|i| chunk(128, i)).collect();
        for c in &chunks {
            enc.encode_into(c, &mut wire).unwrap();
        }

        let mut pipe = pipeline(GapPolicy::HoldLast);
        let mut got = Vec::new();
        pipe.push_bytes(&wire, &mut got);

        let mut direct = DecimatorConfig::paper_default().build().unwrap();
        let mut expect = Vec::new();
        for c in &chunks {
            direct.process_packed_into(c, &mut expect);
        }
        assert_eq!(got.len(), expect.len());
        for (s, e) in got.iter().zip(&expect) {
            assert_eq!(s.flag, SampleFlag::Clean);
            assert_eq!(s.value_mmhg.to_bits(), e.to_bits());
        }
        let health = pipe.health();
        assert_eq!(health.clean_samples, expect.len() as u64);
        assert_eq!(health.concealed_samples + health.invalid_samples, 0);
    }

    #[test]
    fn dropped_frames_become_flagged_samples_not_silence() {
        for policy in [GapPolicy::HoldLast, GapPolicy::MarkInvalid] {
            let mut enc = FrameEncoder::new(0);
            let packets: Vec<Vec<u8>> = (0..20)
                .map(|i| enc.encode(&chunk(128, i)).unwrap())
                .collect();
            let mut pipe = pipeline(policy);
            let mut got = Vec::new();
            for (i, p) in packets.iter().enumerate() {
                if (5..8).contains(&i) {
                    continue; // three frames lost in transit
                }
                pipe.push_bytes(p, &mut got);
            }
            // Every output slot is accounted for: 20 frames' worth.
            assert_eq!(got.len(), 20, "policy {policy:?}");
            let concealed = got.iter().filter(|s| s.flag != SampleFlag::Clean).count();
            // 3 lost + the post-gap decimator-memory span.
            assert!(concealed >= 3, "policy {policy:?}: {concealed}");
            match policy {
                GapPolicy::HoldLast => {
                    assert!(got.iter().all(|s| s.value_mmhg.is_finite()));
                }
                GapPolicy::MarkInvalid => {
                    let nans = got.iter().filter(|s| s.value_mmhg.is_nan()).count();
                    assert_eq!(nans, 3);
                }
            }
            // Indices are continuous: time is never silently compressed.
            for (i, s) in got.iter().enumerate() {
                assert_eq!(s.index, i as u64);
            }
            assert_eq!(pipe.health().decoder.gap_events, 1);
        }
    }

    #[test]
    fn unaligned_gap_keeps_output_cadence() {
        // 100-bit frames: gaps are not multiples of the OSR, so the
        // pipeline must re-phase with filler.
        let mut enc = FrameEncoder::new(0);
        let packets: Vec<Vec<u8>> = (0..64)
            .map(|i| enc.encode(&chunk(100, i)).unwrap())
            .collect();
        let mut pipe = pipeline(GapPolicy::HoldLast);
        let mut got = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            if i == 10 || i == 30 {
                continue;
            }
            pipe.push_bytes(p, &mut got);
        }
        // 64 × 100 bits = 6400 clocks = 50 outputs at OSR 128; the two
        // 100-clock gaps shift which clocks exist but the total output
        // count stays within one sample of the lossless cadence.
        let total = got.len() as i64;
        assert!((total - 50).abs() <= 1, "{total}");
        assert!(got.iter().any(|s| s.flag == SampleFlag::Concealed));
    }

    #[test]
    fn huge_clock_jump_is_a_bounded_stream_reset() {
        use tonos_dsp::frame::Frame;
        // First frame of a connection claiming an enormous clock index —
        // a long-uptime reconnect, or a forged header (the CRC is
        // integrity, not authentication). Concealment must stay bounded
        // instead of emitting one sample per lost output slot.
        let bits = chunk(128, 0);
        let clock = 1u64 << 40;
        let frame = Frame::bitstream(0, 7, clock, &bits).unwrap();
        let mut pipe = pipeline(GapPolicy::HoldLast);
        let mut got = Vec::new();
        pipe.push_bytes(&frame.encode(), &mut got);

        let clamp = (MAX_CONCEAL_S * pipe.output_rate_hz()).ceil() as u64;
        assert!(
            (got.len() as u64) <= clamp + 2,
            "{} samples emitted for a 2^40-clock gap",
            got.len()
        );
        let health = pipe.health();
        assert_eq!(health.stream_resets, 1);
        let whole = clock / pipe.osr() as u64;
        // Every output slot is accounted for: skipped + emitted covers
        // the whole gap plus the frame's own decimated sample.
        assert_eq!(health.skipped_samples + got.len() as u64, whole + 1);
        // The index is re-based, not compressed: the frame's own sample
        // lands exactly where the device clock says it belongs.
        assert_eq!(got.last().unwrap().index, whole);
    }

    #[test]
    fn two_point_calibration_recovers_pressure() {
        let config = SystemConfig::paper_default();
        let cal =
            LinkCalibration::two_point(&config, MillimetersHg(60.0), MillimetersHg(160.0)).unwrap();
        // A third settled probe point must land near the line.
        let mut sys = ReadoutSystem::new(config).unwrap();
        let elements = config.chip.layout.rows * config.chip.layout.cols;
        let frame = vec![
            config
                .contact
                .net_element_pressure(Pascals::from_mmhg(MillimetersHg(100.0)));
            elements
        ];
        for _ in 0..(sys.settling_frames() + 64) {
            sys.push_frame(&frame).unwrap();
        }
        let mut acc = 0.0;
        for _ in 0..64 {
            acc += sys.push_frame(&frame).unwrap();
        }
        let recovered = cal.apply(acc / 64.0);
        assert!(
            (recovered - 100.0).abs() < 5.0,
            "recovered {recovered} mmHg"
        );
    }
}
