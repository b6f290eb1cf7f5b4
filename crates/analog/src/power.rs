//! Supply- and clock-scaled power model of the sensor chip.
//!
//! The paper reports a single operating point: **11.5 mW at 5 V supply and
//! 128 kHz sampling frequency** (§3.1). The behavioral model splits that
//! into a bias (static) part proportional to `Vdd` and a switched-
//! capacitor (dynamic) part proportional to `Vdd²·fs`, the standard
//! first-order scaling of an SC circuit:
//!
//! ```text
//! P(fs, Vdd) = I_bias · Vdd + C_eff · Vdd² · fs
//! ```
//!
//! The split at the anchor point is 60 % bias / 40 % dynamic — typical for
//! a 0.8 µm fully-differential SC design whose op-amp bias dominates. The
//! A2 ablation uses this model to price the paper's "increased conversion
//! rate would be desirable" against its power cost.

use tonos_mems::units::Volts;

use crate::AnalogError;

/// Anchored power model of the readout chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Total bias current in amperes.
    bias_current: f64,
    /// Effective switched capacitance in farads.
    switched_capacitance: f64,
}

/// The paper's measured operating point.
pub const PAPER_POWER_W: f64 = 11.5e-3;
/// The paper's supply voltage.
pub const PAPER_SUPPLY_V: f64 = 5.0;
/// The paper's sampling frequency.
pub const PAPER_SAMPLING_HZ: f64 = 128_000.0;

impl PowerModel {
    /// Builds a model anchored at a measured `(power, vdd, fs)` point with
    /// a given static-power fraction at that point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] unless all quantities are
    /// positive and the static fraction lies in `[0, 1]`.
    pub fn anchored(
        power_w: f64,
        vdd: Volts,
        fs_hz: f64,
        static_fraction: f64,
    ) -> Result<Self, AnalogError> {
        if !(power_w > 0.0 && vdd.value() > 0.0 && fs_hz > 0.0) {
            return Err(AnalogError::InvalidParameter(
                "anchor power, supply, and frequency must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&static_fraction) {
            return Err(AnalogError::InvalidParameter(format!(
                "static fraction {static_fraction} must be in [0, 1]"
            )));
        }
        Ok(PowerModel {
            bias_current: static_fraction * power_w / vdd.value(),
            switched_capacitance: (1.0 - static_fraction) * power_w
                / (vdd.value() * vdd.value() * fs_hz),
        })
    }

    /// The paper's chip: 11.5 mW at 5 V / 128 kHz, 60 % bias.
    pub fn paper_default() -> Self {
        PowerModel::anchored(PAPER_POWER_W, Volts(PAPER_SUPPLY_V), PAPER_SAMPLING_HZ, 0.6)
            .expect("paper anchor is valid")
    }

    /// Power draw in watts at an operating point.
    pub fn power(&self, fs_hz: f64, vdd: Volts) -> f64 {
        let v = vdd.value();
        self.bias_current * v + self.switched_capacitance * v * v * fs_hz
    }

    /// Energy per conversion (one modulator clock) in joules.
    pub fn energy_per_sample(&self, fs_hz: f64, vdd: Volts) -> f64 {
        self.power(fs_hz, vdd) / fs_hz
    }

    /// Energy in joules consumed by `cycles` modulator clocks at an
    /// operating point — the accounting hook the telemetry layer uses to
    /// integrate chip energy over a session without per-cycle bookkeeping.
    pub fn energy_for_cycles(&self, cycles: u64, fs_hz: f64, vdd: Volts) -> f64 {
        self.energy_per_sample(fs_hz, vdd) * cycles as f64
    }

    /// The effective switched capacitance in farads (model introspection).
    pub fn switched_capacitance(&self) -> f64 {
        self.switched_capacitance
    }

    /// The bias current in amperes (model introspection).
    pub fn bias_current(&self) -> f64 {
        self.bias_current
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_anchor_point() {
        let m = PowerModel::paper_default();
        let p = m.power(PAPER_SAMPLING_HZ, Volts(PAPER_SUPPLY_V));
        assert!((p - PAPER_POWER_W).abs() < 1e-12, "{p}");
        let i = p / PAPER_SUPPLY_V;
        assert!((i - 2.3e-3).abs() < 1e-6, "2.3 mA at the anchor, got {i}");
    }

    #[test]
    fn power_scales_linearly_with_clock_beyond_static() {
        let m = PowerModel::paper_default();
        let p1 = m.power(128_000.0, Volts(5.0));
        let p2 = m.power(256_000.0, Volts(5.0));
        // Doubling fs adds exactly the dynamic share once more.
        let dynamic = 0.4 * PAPER_POWER_W;
        assert!((p2 - p1 - dynamic).abs() < 1e-9);
        // And never *less* power at a faster clock.
        assert!(p2 > p1);
    }

    #[test]
    fn power_drops_at_lower_supply() {
        let m = PowerModel::paper_default();
        assert!(m.power(128_000.0, Volts(3.3)) < m.power(128_000.0, Volts(5.0)));
    }

    #[test]
    fn energy_per_sample_is_tens_of_nanojoules() {
        let m = PowerModel::paper_default();
        let e = m.energy_per_sample(PAPER_SAMPLING_HZ, Volts(PAPER_SUPPLY_V));
        // 11.5 mW / 128 kHz ≈ 90 nJ per modulator clock.
        assert!((e - 89.8e-9).abs() < 1e-9, "{e}");
    }

    #[test]
    fn energy_for_cycles_integrates_the_per_sample_energy() {
        let m = PowerModel::paper_default();
        let fs = PAPER_SAMPLING_HZ;
        let vdd = Volts(PAPER_SUPPLY_V);
        // One second of modulator clocks consumes exactly the power draw.
        let e = m.energy_for_cycles(fs as u64, fs, vdd);
        assert!((e - PAPER_POWER_W).abs() < 1e-12, "{e}");
        assert_eq!(m.energy_for_cycles(0, fs, vdd), 0.0);
    }

    #[test]
    fn static_only_model_ignores_clock() {
        let m = PowerModel::anchored(10e-3, Volts(5.0), 100e3, 1.0).unwrap();
        assert_eq!(m.power(100e3, Volts(5.0)), m.power(1e6, Volts(5.0)));
        assert_eq!(m.switched_capacitance(), 0.0);
    }

    #[test]
    fn dynamic_only_model_is_proportional_to_fs() {
        let m = PowerModel::anchored(10e-3, Volts(5.0), 100e3, 0.0).unwrap();
        assert_eq!(m.bias_current(), 0.0);
        let p1 = m.power(100e3, Volts(5.0));
        let p2 = m.power(200e3, Volts(5.0));
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_anchors_are_rejected() {
        assert!(PowerModel::anchored(0.0, Volts(5.0), 1e5, 0.5).is_err());
        assert!(PowerModel::anchored(1e-3, Volts(0.0), 1e5, 0.5).is_err());
        assert!(PowerModel::anchored(1e-3, Volts(5.0), 0.0, 0.5).is_err());
        assert!(PowerModel::anchored(1e-3, Volts(5.0), 1e5, 1.5).is_err());
        assert!(PowerModel::anchored(1e-3, Volts(5.0), 1e5, -0.1).is_err());
    }
}
