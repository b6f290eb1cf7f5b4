//! The complete readout path: chip → decimation filter → sample stream
//! (the block diagram of paper Fig. 3, with the FPGA+USB link replaced by
//! direct sample delivery).
//!
//! [`ReadoutSystem`] also owns the *scan controller* logic implied by
//! §2.2: after an element switch, the decimation filter still carries the
//! previous element's history, so a number of output samples
//! ([`ReadoutSystem::settling_frames`]) must be discarded — "the settling
//! when switching between different sensor elements is limited by the
//! signal bandwidth of the ΣΔ-AD-converter".

use tonos_dsp::decimator::TwoStageDecimator;
use tonos_mems::units::{Pascals, Volts};
use tonos_telemetry::{names, Counter, Gauge, Telemetry};

use crate::chip::SensorChip;
use crate::config::SystemConfig;
use crate::scratch::ConversionScratch;
use crate::SystemError;

/// Telemetry handles and native-counter cursors for the readout path.
///
/// The analog/dsp substrates keep their own always-on `u64` counters;
/// this bridge flushes the *deltas* into the shared registry at frame
/// granularity, so the hot modulator loop never touches an atomic.
#[derive(Debug, Clone, Default)]
struct ReadoutInstruments {
    frames_in: Counter,
    samples_out: Counter,
    settling_discarded: Counter,
    element_selections: Counter,
    modulator_steps: Counter,
    modulator_saturations: Counter,
    mux_switches: Counter,
    decimator_in: Counter,
    decimator_out: Counter,
    decimator_flushes: Counter,
    quantizer_clips: Counter,
    energy_j: Gauge,
    // Native-counter values at the last flush (deltas since attachment).
    last_steps: u64,
    last_saturations: u64,
    last_switches: u64,
    last_selections: u64,
    last_dec_in: u64,
    last_dec_out: u64,
    last_flushes: u64,
    last_clips: u64,
}

/// Chip plus decimation filter, converting pressure frames at the output
/// rate (1 kS/s in the paper configuration).
#[derive(Debug, Clone)]
pub struct ReadoutSystem {
    config: SystemConfig,
    chip: SensorChip,
    decimator: TwoStageDecimator,
    telemetry: Telemetry,
    instruments: ReadoutInstruments,
    /// Reusable per-frame working memory; makes the settled frame path
    /// allocation-free (see `tests/alloc_free.rs`).
    scratch: ConversionScratch,
    /// Output samples still inside the post-switch settling window; used
    /// to classify each produced sample as settled or discarded.
    pending_discard: usize,
}

impl ReadoutSystem {
    /// Builds the system from a configuration, with telemetry disabled.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and substrate construction
    /// failures.
    pub fn new(config: SystemConfig) -> Result<Self, SystemError> {
        ReadoutSystem::with_telemetry(config, Telemetry::disabled())
    }

    /// Builds the system with the given telemetry handle. A disabled
    /// handle costs one branch per frame; an enabled one flushes the
    /// substrate counters into the registry after every converted frame.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and substrate construction
    /// failures.
    pub fn with_telemetry(config: SystemConfig, telemetry: Telemetry) -> Result<Self, SystemError> {
        config.validate()?;
        let chip = SensorChip::new(config.chip)?;
        let decimator = config.decimator.build()?;
        let scratch = ConversionScratch::with_frame_capacity(config.decimator.osr);
        let mut sys = ReadoutSystem {
            config,
            chip,
            decimator,
            telemetry: Telemetry::disabled(),
            instruments: ReadoutInstruments::default(),
            scratch,
            pending_discard: 0,
        };
        sys.attach_telemetry(telemetry);
        Ok(sys)
    }

    /// Attaches (or replaces) the telemetry handle, resolving all
    /// instruments. Counting starts from the current substrate state —
    /// activity before attachment is not retroactively reported.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        let i = &mut self.instruments;
        i.frames_in = telemetry.counter(names::READOUT_FRAMES_IN);
        i.samples_out = telemetry.counter(names::READOUT_SAMPLES_OUT);
        i.settling_discarded = telemetry.counter(names::READOUT_SETTLING_DISCARDED);
        i.element_selections = telemetry.counter(names::CHIP_ELEMENT_SELECTIONS);
        i.modulator_steps = telemetry.counter(names::MODULATOR_STEPS);
        i.modulator_saturations = telemetry.counter(names::MODULATOR_SATURATIONS);
        i.mux_switches = telemetry.counter(names::MUX_SWITCHES);
        i.decimator_in = telemetry.counter(names::DECIMATOR_SAMPLES_IN);
        i.decimator_out = telemetry.counter(names::DECIMATOR_SAMPLES_OUT);
        i.decimator_flushes = telemetry.counter(names::DECIMATOR_FLUSHES);
        i.quantizer_clips = telemetry.counter(names::QUANTIZER_CLIPS);
        i.energy_j = telemetry.gauge(names::CHIP_ENERGY_J);
        i.last_steps = self.chip.modulator_steps();
        i.last_saturations = self.chip.modulator_saturations();
        i.last_switches = self.chip.mux_switch_events();
        i.last_selections = self.chip.element_selections();
        i.last_dec_in = self.decimator.samples_in();
        i.last_dec_out = self.decimator.samples_out();
        i.last_flushes = self.decimator.flushes();
        i.last_clips = self.decimator.clip_events();
        telemetry
            .gauge(names::CHIP_POWER_W)
            .set(self.chip.power_consumption());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Flushes substrate-counter deltas into the registry. Called
    /// automatically after every frame, selection, and reset when
    /// telemetry is enabled.
    fn flush_native(&mut self) {
        let i = &mut self.instruments;
        let steps = self.chip.modulator_steps();
        if steps > i.last_steps {
            let delta_steps = steps - i.last_steps;
            i.modulator_steps.add(delta_steps);
            i.energy_j.add(self.chip.energy_for_cycles(delta_steps));
            i.last_steps = steps;
        }
        macro_rules! flush {
            ($counter:ident, $cursor:ident, $value:expr) => {
                let v = $value;
                if v > i.$cursor {
                    i.$counter.add(v - i.$cursor);
                    i.$cursor = v;
                }
            };
        }
        flush!(
            modulator_saturations,
            last_saturations,
            self.chip.modulator_saturations()
        );
        flush!(mux_switches, last_switches, self.chip.mux_switch_events());
        flush!(
            element_selections,
            last_selections,
            self.chip.element_selections()
        );
        flush!(decimator_in, last_dec_in, self.decimator.samples_in());
        flush!(decimator_out, last_dec_out, self.decimator.samples_out());
        flush!(decimator_flushes, last_flushes, self.decimator.flushes());
        flush!(quantizer_clips, last_clips, self.decimator.clip_events());
    }

    /// The paper's system.
    ///
    /// # Errors
    ///
    /// Mirrors [`ReadoutSystem::new`]; never fails for the built-in
    /// configuration.
    pub fn paper_default() -> Result<Self, SystemError> {
        ReadoutSystem::new(SystemConfig::paper_default())
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The sensor chip (immutable access).
    pub fn chip(&self) -> &SensorChip {
        &self.chip
    }

    /// Modulator clocks per output sample (the oversampling ratio).
    pub fn osr(&self) -> usize {
        self.config.decimator.osr
    }

    /// Output sample rate in Hz.
    pub fn output_rate_hz(&self) -> f64 {
        self.config.output_rate_hz()
    }

    /// Output samples to discard after an element switch before the
    /// decimation chain has flushed the previous element.
    pub fn settling_frames(&self) -> usize {
        self.decimator.settling_output_samples()
    }

    /// Converts one pressure frame (element pressures held for one output
    /// period) into exactly one output sample in normalized full-scale
    /// units.
    ///
    /// # Errors
    ///
    /// Propagates chip conversion failures.
    pub fn push_frame(&mut self, pressures: &[Pascals]) -> Result<f64, SystemError> {
        // Hot path: the bitstream stays packed (64 modulator clocks per
        // u64 word) from the modulator's block stepper to the
        // word-parallel integer CIC — no ±1.0 f64 round trip, no per-bit
        // loop, and no heap allocation once the scratch has grown to the
        // frame size. Bit-exact against the legacy f64 path.
        let osr = self.osr();
        self.chip
            .convert_frame_packed_into(pressures, osr, &mut self.scratch)?;
        self.decimator
            .process_packed_into(&self.scratch.bits, &mut self.scratch.out);
        // Feeding exactly `osr` modulator samples always produces exactly
        // one decimated output (the phases are aligned by construction).
        let y = match self.scratch.out[..] {
            [y] => y,
            _ => {
                return Err(SystemError::Config(
                    "decimator phase misaligned with frame size".into(),
                ))
            }
        };
        if self.telemetry.enabled() {
            self.instruments.frames_in.inc();
            // Every frame yields one output; it is either still inside
            // the post-switch settling window (discarded by the scan
            // controller) or a settled sample delivered downstream —
            // frames_in == samples_out + settling_discarded, exactly.
            if self.pending_discard > 0 {
                self.instruments.settling_discarded.inc();
            } else {
                self.instruments.samples_out.inc();
            }
            self.flush_native();
        }
        if self.pending_discard > 0 {
            self.pending_discard -= 1;
        }
        Ok(y)
    }

    /// Converts a sequence of frames, returning one output per frame.
    ///
    /// Frames are anything slice-like (`Vec<Pascals>`, `&[Pascals]`,
    /// arrays), so callers can stream borrowed chunks of a flat buffer
    /// instead of materializing `Vec<Vec<_>>`.
    ///
    /// # Errors
    ///
    /// Propagates per-frame conversion failures.
    pub fn push_frames<F: AsRef<[Pascals]>>(
        &mut self,
        frames: &[F],
    ) -> Result<Vec<f64>, SystemError> {
        frames.iter().map(|f| self.push_frame(f.as_ref())).collect()
    }

    /// Selects an array element and reports how many upcoming output
    /// samples the caller must discard (the scan-controller contract).
    ///
    /// # Errors
    ///
    /// Propagates channel-range and capacitance failures.
    pub fn select_element(
        &mut self,
        row: usize,
        col: usize,
        pressures: &[Pascals],
    ) -> Result<usize, SystemError> {
        self.chip.select_element(row, col, pressures)?;
        let discard = self.settling_frames();
        self.pending_discard = discard;
        if self.telemetry.enabled() {
            self.flush_native();
        }
        Ok(discard)
    }

    /// Measures one element: selects it, converts `frames`, and returns
    /// only the settled outputs (the first [`ReadoutSystem::settling_frames`]
    /// are discarded).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] when fewer frames than the settling
    /// time are provided; propagates conversion failures.
    pub fn measure_element<F: AsRef<[Pascals]>>(
        &mut self,
        row: usize,
        col: usize,
        frames: &[F],
    ) -> Result<Vec<f64>, SystemError> {
        if frames.is_empty() {
            return Err(SystemError::Config("no frames provided".into()));
        }
        let discard = self.select_element(row, col, frames[0].as_ref())?;
        if frames.len() <= discard {
            return Err(SystemError::Config(format!(
                "need more than {discard} frames to settle, got {}",
                frames.len()
            )));
        }
        let out = self.push_frames(frames)?;
        Ok(out[discard..].to_vec())
    }

    /// Runs the electrical characterization path (§3.1): a differential
    /// voltage sequence at the modulator rate through the auxiliary input
    /// and the decimation filter. Returns the decimated output.
    pub fn acquire_voltage(&mut self, inputs: &[Volts]) -> Vec<f64> {
        // The frame lane on the frame scratch: packed bits in `bits`,
        // the decimated output in `out`.
        self.chip
            .convert_voltage_block_into(inputs, &mut self.scratch);
        self.decimator
            .process_packed_into(&self.scratch.bits, &mut self.scratch.out);
        let out = self.scratch.out.clone();
        if self.telemetry.enabled() {
            self.flush_native();
        }
        out
    }

    /// Resets the modulator and decimation filter state.
    pub fn reset(&mut self) {
        self.chip.reset_modulator();
        self.decimator.reset();
        self.pending_discard = 0;
        if self.telemetry.enabled() {
            self.flush_native();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tonos_mems::units::MillimetersHg;

    fn frame(mmhg: f64) -> Vec<Pascals> {
        vec![Pascals::from_mmhg(MillimetersHg(mmhg)); 4]
    }

    #[test]
    fn one_frame_one_output() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        assert_eq!(sys.osr(), 128);
        assert_eq!(sys.output_rate_hz(), 1000.0);
        let y = sys.push_frame(&frame(0.0)).unwrap();
        assert!(y.is_finite());
        let ys = sys.push_frames(&vec![frame(0.0); 10]).unwrap();
        assert_eq!(ys.len(), 10);
    }

    #[test]
    fn settled_output_tracks_pressure_steps() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        let discard = sys.settling_frames();
        let low: Vec<f64> =
            sys.push_frames(&vec![frame(50.0); discard + 60]).unwrap()[discard..].to_vec();
        let high: Vec<f64> =
            sys.push_frames(&vec![frame(250.0); discard + 60]).unwrap()[discard..].to_vec();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&high) > mean(&low),
            "{} !> {}",
            mean(&high),
            mean(&low)
        );
    }

    #[test]
    fn measure_element_discards_settling() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        let n = sys.settling_frames() + 25;
        let frames = vec![frame(100.0); n];
        let out = sys.measure_element(1, 1, &frames).unwrap();
        assert_eq!(out.len(), 25);
        // After settling, a constant input gives a near-constant output
        // (residual = quantization + modulator noise).
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let dev = out.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(dev < 0.01, "settled spread {dev}");
    }

    #[test]
    fn measure_element_needs_enough_frames() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        let too_few = vec![frame(0.0); sys.settling_frames()];
        assert!(matches!(
            sys.measure_element(0, 0, &too_few),
            Err(SystemError::Config(_))
        ));
        assert!(matches!(
            sys.measure_element::<Vec<Pascals>>(0, 0, &[]),
            Err(SystemError::Config(_))
        ));
    }

    #[test]
    fn voltage_path_decimates_at_osr() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        let inputs = vec![Volts(0.5); 128 * 20];
        let out = sys.acquire_voltage(&inputs);
        assert_eq!(out.len(), 20);
        // 0.5 V / 2.5 V = 0.2 FS once settled.
        let last = *out.last().unwrap();
        assert!((last - 0.2).abs() < 0.02, "settled to {last}");
    }

    #[test]
    fn reset_clears_history() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        let _ = sys.push_frames(&vec![frame(300.0); 30]).unwrap();
        sys.reset();
        // After reset the first settled samples match a fresh system fed
        // the same input (same seeds, cleared state).
        let mut fresh = ReadoutSystem::paper_default().unwrap();
        let a = sys.push_frames(&vec![frame(50.0); 20]).unwrap();
        let b = fresh.push_frames(&vec![frame(50.0); 20]).unwrap();
        // Noise streams have advanced differently, so compare means
        // rather than samples.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&a[10..]) - mean(&b[10..])).abs() < 0.005);
    }

    #[test]
    fn telemetry_accounts_for_every_frame() {
        use tonos_telemetry::{names, Registry};
        let registry = Registry::new();
        let mut sys =
            ReadoutSystem::with_telemetry(SystemConfig::paper_default(), registry.telemetry())
                .unwrap();
        assert!(sys.telemetry().enabled());
        let settle = sys.settling_frames();
        let _ = sys.push_frames(&vec![frame(80.0); 10]).unwrap();
        let _ = sys
            .measure_element(1, 1, &vec![frame(80.0); settle + 25])
            .unwrap();
        let s = registry.snapshot();
        let frames_in = s.counter(names::READOUT_FRAMES_IN).unwrap();
        let samples_out = s.counter(names::READOUT_SAMPLES_OUT).unwrap();
        let discarded = s.counter(names::READOUT_SETTLING_DISCARDED).unwrap();
        assert_eq!(frames_in, (10 + settle + 25) as u64);
        assert_eq!(discarded, settle as u64);
        assert_eq!(frames_in, samples_out + discarded);
        // The bridge flushes the substrate counters consistently: one OSR
        // worth of modulator clocks and decimator inputs per frame.
        let osr = sys.osr() as u64;
        assert_eq!(s.counter(names::MODULATOR_STEPS), Some(frames_in * osr));
        assert_eq!(
            s.counter(names::DECIMATOR_SAMPLES_IN),
            Some(frames_in * osr)
        );
        assert_eq!(s.counter(names::DECIMATOR_SAMPLES_OUT), Some(frames_in));
        assert_eq!(s.counter(names::CHIP_ELEMENT_SELECTIONS), Some(1));
        assert_eq!(s.counter(names::MUX_SWITCHES), Some(1));
        // 128 clocks at ~90 nJ each per frame.
        let energy = s.gauge(names::CHIP_ENERGY_J).unwrap();
        let expected = sys.chip().energy_for_cycles(frames_in * osr);
        assert!((energy - expected).abs() < 1e-12, "{energy} vs {expected}");
    }

    #[test]
    fn disabled_telemetry_reports_nothing() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        assert!(!sys.telemetry().enabled());
        let _ = sys.push_frames(&vec![frame(0.0); 5]).unwrap();
        // Borrowed-chunk frames work through the same generic API.
        let flat = [Pascals(0.0); 4 * 3];
        let chunks: Vec<&[Pascals]> = flat.chunks(4).collect();
        let out = sys.push_frames(&chunks).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn invalid_selection_propagates() {
        let mut sys = ReadoutSystem::paper_default().unwrap();
        assert!(matches!(
            sys.select_element(5, 0, &frame(0.0)),
            Err(SystemError::Analog(_))
        ));
    }
}
