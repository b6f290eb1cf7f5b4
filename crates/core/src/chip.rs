//! The monolithic sensor chip: array, reference, multiplexers, and the
//! ΣΔ modulator on one die (paper Fig. 3/5).
//!
//! [`SensorChip`] wires the substrates together exactly as the micrograph
//! shows: the 2×2 transducer array and reference structure feed the
//! second-order ΣΔ-modulator through two synchronized 2:1 multiplexers;
//! an auxiliary differential voltage input bypasses the transducer for
//! electrical characterization.
//!
//! ## Capacitance lookup
//!
//! Evaluating the membrane capacitance integral at the 128 kHz modulator
//! clock would be absurdly slow *and* physically pointless — the membrane
//! mechanics are static on a 7.8 µs scale. The chip therefore builds a
//! per-element pressure→capacitance lookup table at construction
//! (compressed from the exact model) and interpolates it per conversion
//! frame; out-of-table loads fall back to the exact (slow) model so
//! accuracy is never silently lost.

use tonos_analog::frontend::{CapacitiveFrontEnd, VoltageInput};
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::mux::AnalogMux;
use tonos_analog::power::PowerModel;
use tonos_mems::array::SensorArray;
use tonos_mems::units::{Farads, Pascals, Volts};

use crate::config::ChipConfig;
use crate::scratch::ConversionScratch;
use crate::SystemError;

/// Pressure range covered by the capacitance lookup table.
const LUT_MIN_PA: f64 = -150_000.0;
/// Upper bound of the lookup table (≈ +1125 mmHg, far beyond clinical).
const LUT_MAX_PA: f64 = 150_000.0;
/// Lookup table points (1 kPa ≈ 7.5 mmHg resolution before
/// interpolation; capacitance is glassy smooth on that scale).
const LUT_POINTS: usize = 301;

/// Per-element pressure→capacitance interpolation table.
#[derive(Debug, Clone, PartialEq)]
struct CapacitanceLut {
    step: f64,
    /// Capacitance in farads at `LUT_MIN_PA + i * step`.
    values: Vec<f64>,
}

impl CapacitanceLut {
    fn build(element: &tonos_mems::element::ForceSensorElement) -> Result<Self, SystemError> {
        let step = (LUT_MAX_PA - LUT_MIN_PA) / (LUT_POINTS - 1) as f64;
        let mut values = Vec::with_capacity(LUT_POINTS);
        for i in 0..LUT_POINTS {
            let p = Pascals(LUT_MIN_PA + i as f64 * step);
            values.push(element.capacitance(p)?.value());
        }
        Ok(CapacitanceLut { step, values })
    }

    /// Linear interpolation; `None` when outside the table.
    fn lookup(&self, pressure: Pascals) -> Option<Farads> {
        let p = pressure.value();
        if !(LUT_MIN_PA..=LUT_MAX_PA).contains(&p) {
            return None;
        }
        let x = (p - LUT_MIN_PA) / self.step;
        let i = (x.floor() as usize).min(self.values.len() - 2);
        let frac = x - i as f64;
        Some(Farads(
            self.values[i] * (1.0 - frac) + self.values[i + 1] * frac,
        ))
    }
}

/// The integrated tactile sensor chip.
#[derive(Debug, Clone)]
pub struct SensorChip {
    config: ChipConfig,
    array: SensorArray,
    mux: AnalogMux,
    modulator: SigmaDelta2,
    frontend: CapacitiveFrontEnd,
    voltage_input: VoltageInput,
    power: PowerModel,
    luts: Vec<CapacitanceLut>,
    /// Reused per-call capacitance snapshot buffer (taken and restored by
    /// the hot entry points so they stay allocation-free per frame).
    caps_scratch: Vec<Farads>,
    /// Successful element selections (including no-op re-selects, which
    /// still represent scan-controller decisions).
    element_selections: u64,
}

impl SensorChip {
    /// Fabricates a chip from a configuration (array with seeded
    /// mismatch, front end referenced to the on-chip reference structure,
    /// modulator with the configured non-idealities) and precomputes the
    /// capacitance lookup tables.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and substrate construction
    /// failures.
    pub fn new(config: ChipConfig) -> Result<Self, SystemError> {
        config.validate()?;
        let array = SensorArray::with_mismatch(
            config.layout,
            config.electrode,
            config.mismatch,
            config.fabrication_seed,
        )?
        .with_grid(config.capacitance_grid);
        let mux = AnalogMux::new(
            config.layout.rows,
            config.layout.cols,
            config.mux_tau_clocks,
        )?;
        let modulator = SigmaDelta2::new(config.nonideal)?;
        let vref = Volts(config.supply.value() / 2.0);
        let frontend = CapacitiveFrontEnd::new(
            array.reference_capacitance(),
            config.feedback_capacitance,
            vref,
        )?;
        let voltage_input = VoltageInput::new(vref)?;
        let power = PowerModel::paper_default();
        let mut luts = Vec::with_capacity(config.layout.len());
        for (_, element) in array.iter() {
            luts.push(CapacitanceLut::build(element)?);
        }
        Ok(SensorChip {
            config,
            array,
            mux,
            modulator,
            frontend,
            voltage_input,
            power,
            luts,
            caps_scratch: Vec::new(),
            element_selections: 0,
        })
    }

    /// The paper's chip with default configuration.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in configuration; the `Result` mirrors
    /// [`SensorChip::new`].
    pub fn paper_default() -> Result<Self, SystemError> {
        SensorChip::new(ChipConfig::paper_default())
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The transducer array.
    pub fn array(&self) -> &SensorArray {
        &self.array
    }

    /// The capacitive front end (for inspecting Cfb / Vref).
    pub fn frontend(&self) -> &CapacitiveFrontEnd {
        &self.frontend
    }

    /// Currently selected element `(row, col)`.
    pub fn selected_element(&self) -> (usize, usize) {
        self.mux.selected()
    }

    /// Fraction of modulator steps that saturated an integrator (overload
    /// telltale).
    pub fn overload_ratio(&self) -> f64 {
        self.modulator.overload_ratio()
    }

    /// Power consumption in watts at the configured operating point
    /// (anchored at the paper's 11.5 mW @ 5 V / 128 kHz).
    pub fn power_consumption(&self) -> f64 {
        self.power
            .power(self.config.sample_rate_hz, self.config.supply)
    }

    /// Total ΣΔ modulator clock cycles executed so far.
    pub fn modulator_steps(&self) -> u64 {
        self.modulator.steps()
    }

    /// Total modulator integrator saturation events so far.
    pub fn modulator_saturations(&self) -> u64 {
        self.modulator.saturation_events()
    }

    /// Total mux channel switches so far (no-op re-selects excluded).
    pub fn mux_switch_events(&self) -> u64 {
        self.mux.switch_events()
    }

    /// Successful element selections so far (no-op re-selects included).
    pub fn element_selections(&self) -> u64 {
        self.element_selections
    }

    /// Energy in joules consumed by `cycles` modulator clocks at the
    /// configured operating point.
    pub fn energy_for_cycles(&self, cycles: u64) -> f64 {
        self.power
            .energy_for_cycles(cycles, self.config.sample_rate_hz, self.config.supply)
    }

    /// Evaluates every element's capacitance for a per-element pressure
    /// frame, via the lookup tables (exact-model fallback outside the
    /// table range).
    ///
    /// # Errors
    ///
    /// Propagates membrane collapse for loads beyond the table that the
    /// exact model rejects, and a length-mismatch configuration error.
    pub fn capacitances(&self, pressures: &[Pascals]) -> Result<Vec<Farads>, SystemError> {
        let mut caps = Vec::with_capacity(pressures.len());
        self.capacitances_into(pressures, &mut caps)?;
        Ok(caps)
    }

    /// [`SensorChip::capacitances`] into a caller-owned buffer (cleared,
    /// then filled) — the allocation-free variant the hot path uses.
    ///
    /// # Errors
    ///
    /// Mirrors [`SensorChip::capacitances`].
    pub fn capacitances_into(
        &self,
        pressures: &[Pascals],
        caps: &mut Vec<Farads>,
    ) -> Result<(), SystemError> {
        if pressures.len() != self.config.layout.len() {
            return Err(SystemError::Config(format!(
                "expected {} element pressures, got {}",
                self.config.layout.len(),
                pressures.len()
            )));
        }
        caps.clear();
        caps.reserve(pressures.len());
        for (((_, element), lut), &p) in self.array.iter().zip(&self.luts).zip(pressures) {
            let c = match lut.lookup(p) {
                Some(c) => c,
                None => element.capacitance(p)?,
            };
            caps.push(c);
        }
        Ok(())
    }

    /// Selects an array element through the row/column multiplexers. The
    /// pressures describe the array state at switch time (they freeze the
    /// outgoing channel's charge into the settling transient).
    ///
    /// # Errors
    ///
    /// Propagates channel-range and capacitance-evaluation failures.
    pub fn select_element(
        &mut self,
        row: usize,
        col: usize,
        pressures: &[Pascals],
    ) -> Result<(), SystemError> {
        let mut caps = std::mem::take(&mut self.caps_scratch);
        let result = self.capacitances_into(pressures, &mut caps);
        let routed = result.and_then(|()| Ok(self.mux.select(row, col, &caps)?));
        self.caps_scratch = caps;
        routed?;
        self.element_selections += 1;
        Ok(())
    }

    /// Converts one *pressure frame*: the element pressures are held for
    /// `clocks` modulator cycles (the mechanics are static at this time
    /// scale) and the modulator's single-bit stream lands packed in
    /// `scratch.bits` (one bit per clock, 64 clocks per `u64` word), with
    /// no per-bit `f64` between modulator and decimator. `scratch.inputs`
    /// holds the frame's modulator inputs as a side product; the scratch
    /// is caller-owned, so the hot path allocates nothing.
    ///
    /// Bit-exact against the per-sample path: the settled mux emits a
    /// constant, so the input fill and the modulator's block stepper
    /// ([`DeltaSigmaModulator::step_block`]) reproduce the scalar
    /// sequence exactly.
    ///
    /// # Errors
    ///
    /// Propagates capacitance-evaluation failures.
    pub fn convert_frame_packed_into(
        &mut self,
        pressures: &[Pascals],
        clocks: usize,
        scratch: &mut ConversionScratch,
    ) -> Result<(), SystemError> {
        let mut caps = std::mem::take(&mut self.caps_scratch);
        let result = self.capacitances_into(pressures, &mut caps);
        let filled = result.and_then(|()| {
            scratch.clear();
            scratch.inputs.reserve(clocks);
            if self.mux.is_settled() {
                // Settled fast path: the routed capacitance is constant
                // for the whole frame — one sample, `clocks` copies.
                if clocks > 0 {
                    let sensed = self.mux.sample(&caps)?;
                    let u = self.frontend.input_fraction(sensed);
                    scratch.inputs.extend(std::iter::repeat_n(u, clocks));
                }
            } else {
                for _ in 0..clocks {
                    let sensed = self.mux.sample(&caps)?;
                    scratch.inputs.push(self.frontend.input_fraction(sensed));
                }
            }
            Ok(())
        });
        self.caps_scratch = caps;
        filled?;
        self.modulator
            .step_block(&scratch.inputs, &mut scratch.bits);
        Ok(())
    }

    /// Converts a block through the auxiliary differential voltage input
    /// (electrical characterization, §3/§3.1), one input sample per
    /// modulator clock, on the lane of
    /// [`SensorChip::convert_frame_packed_into`]: the scratch is cleared,
    /// `scratch.inputs` receives the modulator inputs, and the block
    /// stepper packs the bitstream into `scratch.bits`.
    pub fn convert_voltage_block_into(
        &mut self,
        inputs: &[Volts],
        scratch: &mut ConversionScratch,
    ) {
        scratch.clear();
        scratch
            .inputs
            .extend(inputs.iter().map(|&v| self.voltage_input.input_fraction(v)));
        self.modulator
            .step_block(&scratch.inputs, &mut scratch.bits);
    }

    /// Resets the modulator loop state (integrators, comparator).
    pub fn reset_modulator(&mut self) {
        self.modulator.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tonos_mems::units::MillimetersHg;

    fn chip() -> SensorChip {
        SensorChip::paper_default().unwrap()
    }

    fn uniform_frame(mmhg: f64) -> Vec<Pascals> {
        vec![Pascals::from_mmhg(MillimetersHg(mmhg)); 4]
    }

    fn convert(chip: &mut SensorChip, frame: &[Pascals], clocks: usize) -> Vec<f64> {
        let mut scratch = ConversionScratch::new();
        chip.convert_frame_packed_into(frame, clocks, &mut scratch)
            .unwrap();
        scratch.bits.to_f64_vec()
    }

    #[test]
    fn lut_matches_exact_model_to_attofarads() {
        let chip = chip();
        for &mmhg in &[-200.0, -50.0, 0.0, 33.3, 100.0, 250.0, 400.0] {
            let frame = uniform_frame(mmhg);
            let via_lut = chip.capacitances(&frame).unwrap();
            for ((_, element), lut_val) in chip.array.iter().zip(&via_lut) {
                let exact = element.capacitance(frame[0]).unwrap();
                let err_af = (lut_val.value() - exact.value()).abs() * 1e18;
                assert!(err_af < 5.0, "{mmhg} mmHg: LUT error {err_af} aF");
            }
        }
    }

    #[test]
    fn out_of_table_pressures_fall_back_to_exact_model() {
        let chip = chip();
        // 160 kPa is outside the LUT but below collapse.
        let p = Pascals(160_000.0);
        let caps = chip.capacitances(&[p; 4]).unwrap();
        let exact = chip.array.element(0, 0).unwrap().capacitance(p).unwrap();
        assert!((caps[0].value() - exact.value()).abs() < 1e-20);
    }

    #[test]
    fn conversion_tracks_pressure_changes() {
        let mut chip = chip();
        // Bitstream mean must increase when the pressure (hence ΔC, hence
        // the modulator input) increases.
        let mean_at = |chip: &mut SensorChip, mmhg: f64| {
            let bits = convert(chip, &uniform_frame(mmhg), 40_000);
            bits[2000..].iter().sum::<f64>() / (bits.len() - 2000) as f64
        };
        let low = mean_at(&mut chip, 0.0);
        let high = mean_at(&mut chip, 300.0);
        // 300 mmHg deflects the membrane ~25 nm → ΔC ≈ 0.3 fF ≈ 0.003 of
        // the 100 fF full scale.
        assert!(
            high > low + 0.0015,
            "bitstream mean must rise with pressure: {low} -> {high}"
        );
    }

    #[test]
    fn voltage_input_bypasses_the_transducer() {
        let mut chip = chip();
        let mut scratch = ConversionScratch::new();
        chip.convert_voltage_block_into(&vec![Volts(0.625); 40_000], &mut scratch);
        let bits = scratch.bits.to_f64_vec();
        let mean = bits[2000..].iter().sum::<f64>() / (bits.len() - 2000) as f64;
        // 0.625 V / 2.5 V = 0.25 FS.
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn element_selection_routes_the_right_capacitor() {
        let mut chip = chip();
        // Pressurize only element (1, 0); the selected element must see
        // the load, an unloaded element must not. Comparing the *same*
        // element across frames isolates pressure from per-element
        // mismatch offsets (which are larger than the signal).
        let quiet_frame = uniform_frame(0.0);
        let mut loaded_frame = uniform_frame(0.0);
        loaded_frame[2] = Pascals::from_mmhg(MillimetersHg(300.0));
        let mean_for = |chip: &mut SensorChip, row: usize, col: usize, frame: &[Pascals]| {
            chip.select_element(row, col, frame).unwrap();
            chip.reset_modulator();
            let bits = convert(chip, frame, 40_000);
            bits[4000..].iter().sum::<f64>() / (bits.len() - 4000) as f64
        };
        let e10_quiet = mean_for(&mut chip, 1, 0, &quiet_frame);
        let e10_loaded = mean_for(&mut chip, 1, 0, &loaded_frame);
        assert!(
            e10_loaded > e10_quiet + 0.0015,
            "selected loaded element must read higher: {e10_quiet} vs {e10_loaded}"
        );
        let e01_quiet = mean_for(&mut chip, 0, 1, &quiet_frame);
        let e01_loaded = mean_for(&mut chip, 0, 1, &loaded_frame);
        assert!(
            (e01_loaded - e01_quiet).abs() < 0.001,
            "unloaded element must not react: {e01_quiet} vs {e01_loaded}"
        );
        assert_eq!(chip.selected_element(), (0, 1));
    }

    #[test]
    fn power_matches_the_paper() {
        let chip = chip();
        assert!((chip.power_consumption() - 11.5e-3).abs() < 1e-9);
    }

    #[test]
    fn wrong_frame_length_is_rejected() {
        let chip = chip();
        let err = chip.capacitances(&uniform_frame(0.0)[..3]).unwrap_err();
        assert!(matches!(err, SystemError::Config(_)));
    }

    #[test]
    fn collapse_pressure_propagates_as_mems_error() {
        let chip = chip();
        let err = chip.capacitances(&[Pascals(5e6); 4]).unwrap_err();
        assert!(matches!(err, SystemError::Mems(_)));
    }

    #[test]
    fn chips_are_deterministic_per_fabrication_seed() {
        let a = SensorChip::paper_default().unwrap();
        let b = SensorChip::paper_default().unwrap();
        let frame = uniform_frame(80.0);
        assert_eq!(
            a.capacitances(&frame).unwrap(),
            b.capacitances(&frame).unwrap()
        );
        let mut cfg = ChipConfig::paper_default();
        cfg.fabrication_seed ^= 1;
        let c = SensorChip::new(cfg).unwrap();
        assert_ne!(
            a.capacitances(&frame).unwrap(),
            c.capacitances(&frame).unwrap()
        );
    }

    #[test]
    fn no_overload_in_clinical_range() {
        let mut chip = chip();
        convert(&mut chip, &uniform_frame(250.0), 20_000);
        assert_eq!(chip.overload_ratio(), 0.0);
    }
}
