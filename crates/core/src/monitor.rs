//! End-to-end continuous blood-pressure monitoring (the Fig. 9 session).
//!
//! [`BloodPressureMonitor`] runs the complete measurement the paper
//! demonstrates in §3.2:
//!
//! 1. synthesize the patient's arterial pressure (ground truth);
//! 2. couple it through tissue and the contact interface onto the array;
//! 3. **scan** the array and select the strongest element (§2);
//! 4. acquire the continuous raw waveform through mux → ΣΔ → decimator;
//! 5. **calibrate** against a hand-cuff reading (§3.2);
//! 6. extract beats, systolic/diastolic trends, and pulse rate;
//! 7. report tracking errors against the known ground truth — the
//!    quantitative validation the paper's test-person setup could not do.

use tonos_mems::creep::CreepModel;
use tonos_mems::thermal::ThermalModel;
use tonos_mems::units::{MillimetersHg, Pascals};
use tonos_physio::cuff::{CuffDevice, CuffReading};
use tonos_physio::patient::PatientProfile;
use tonos_physio::tissue::TissueModel;
use tonos_physio::waveform::WaveformRecord;
use tonos_telemetry::{buckets, names, Counter, Histogram, Severity, SpanTimer, Telemetry};

use crate::analyze::WaveformAnalysis;
use crate::calibrate::Calibration;
use crate::config::SystemConfig;
use crate::readout::ReadoutSystem;
use crate::select::{scan_strongest, ScanResult};
use crate::SystemError;

/// Beat-tracking errors against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingErrors {
    /// Mean absolute systolic error over matched beats, mmHg.
    pub systolic_mae: f64,
    /// Mean absolute diastolic error over matched beats, mmHg.
    pub diastolic_mae: f64,
    /// Pulse-rate error, beats per minute.
    pub pulse_rate_error_bpm: f64,
    /// Number of detected beats matched to truth beats.
    pub matched_beats: usize,
}

/// A die-temperature profile during a session: a linear ramp from
/// `start_c` to `end_c` over `ramp_s` seconds, then holding — the typical
/// warm-up of a bench-calibrated sensor strapped to skin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureProfile {
    /// Die temperature at session start, °C.
    pub start_c: f64,
    /// Final die temperature, °C.
    pub end_c: f64,
    /// Ramp duration, seconds.
    pub ramp_s: f64,
}

impl TemperatureProfile {
    /// Die temperature at time `t` seconds into the session.
    pub fn temp_at(&self, t: f64) -> f64 {
        if self.ramp_s <= 0.0 || t >= self.ramp_s {
            self.end_c
        } else if t <= 0.0 {
            self.start_c
        } else {
            self.start_c + (self.end_c - self.start_c) * t / self.ramp_s
        }
    }
}

/// When and how to re-run the cuff calibration during a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalibrationPolicy {
    /// Interval between cuff recalibrations in seconds; `None` keeps the
    /// single initial calibration (the paper's Fig. 9 procedure).
    pub interval_s: Option<f64>,
    /// Length of the raw-waveform window used for each calibration.
    pub window_s: f64,
}

impl RecalibrationPolicy {
    /// The paper's procedure: calibrate once at the start.
    pub fn initial_only() -> Self {
        RecalibrationPolicy {
            interval_s: None,
            window_s: 4.0,
        }
    }

    /// Recalibrate periodically (the interval must exceed the cuff's
    /// inflation cycle; validated at run time).
    pub fn periodic(interval_s: f64) -> Self {
        RecalibrationPolicy {
            interval_s: Some(interval_s),
            window_s: 4.0,
        }
    }
}

impl Default for RecalibrationPolicy {
    fn default() -> Self {
        RecalibrationPolicy::initial_only()
    }
}

/// A completed monitoring session.
#[derive(Debug, Clone)]
pub struct MonitoringSession {
    /// The ground-truth arterial record driving the session.
    pub truth: WaveformRecord,
    /// Raw (uncalibrated, full-scale units) output samples; the first
    /// corresponds to truth index `acquisition_start`.
    pub raw: Vec<f64>,
    /// Calibrated pressure samples aligned with `raw`.
    pub calibrated: Vec<MillimetersHg>,
    /// Truth sample index at which acquisition (after scan/settling)
    /// began.
    pub acquisition_start: usize,
    /// The array scan that chose the element.
    pub scan: ScanResult,
    /// The initial calibration.
    pub calibration: Calibration,
    /// All calibrations applied, as `(session time, calibration)` pairs —
    /// one entry when running the paper's initial-only procedure.
    pub calibrations: Vec<(f64, Calibration)>,
    /// The cuff reading used for the initial calibration.
    pub cuff_reading: CuffReading,
    /// Beat analysis of the calibrated waveform.
    pub analysis: WaveformAnalysis,
    /// Errors against ground truth.
    pub errors: TrackingErrors,
    /// Output sample rate, Hz.
    pub sample_rate: f64,
    /// Chip power during the session, watts.
    pub chip_power_w: f64,
}

/// Telemetry handles for the monitor's session stages.
#[derive(Debug, Clone, Default)]
struct MonitorInstruments {
    beats: Counter,
    recalibrations: Counter,
    beat_interval: Histogram,
    span_scan: SpanTimer,
    span_acquisition: SpanTimer,
    span_calibration: SpanTimer,
    span_analysis: SpanTimer,
}

/// The end-to-end monitor.
#[derive(Debug, Clone)]
pub struct BloodPressureMonitor {
    system: ReadoutSystem,
    tissue: TissueModel,
    patient: PatientProfile,
    cuff: CuffDevice,
    scan_window: usize,
    recalibration: RecalibrationPolicy,
    telemetry: Telemetry,
    instruments: MonitorInstruments,
    /// Optional sensor-side thermal drift: the thermal model plus the
    /// die-temperature profile. Affects the *sensor*, not the truth.
    thermal: Option<(ThermalModel, TemperatureProfile)>,
    /// Optional sensor-side motion artifacts added to the contact-surface
    /// pressure (probe motion disturbs the contact, not the artery).
    artifacts: Option<tonos_physio::artifact::ArtifactGenerator>,
    /// Optional PDMS stress relaxation of the contact (strap-on creep).
    creep: Option<CreepModel>,
}

/// Default number of settled frames scored per element during the scan.
const DEFAULT_SCAN_WINDOW: usize = 400;

/// Fraction of a beat period after onset at which the systolic peak
/// occurs (the template's peak phase).
const SYSTOLIC_PHASE: f64 = 0.16;

/// Beat-matching tolerance in seconds.
const MATCH_TOLERANCE_S: f64 = 0.4;

impl BloodPressureMonitor {
    /// Creates a monitor with the radial-artery tissue preset and a
    /// clinical cuff (seeded from the patient seed).
    ///
    /// # Errors
    ///
    /// Propagates system construction failures.
    pub fn new(config: SystemConfig, patient: PatientProfile) -> Result<Self, SystemError> {
        Ok(BloodPressureMonitor {
            system: ReadoutSystem::new(config)?,
            tissue: TissueModel::radial_artery(),
            patient,
            cuff: CuffDevice::clinical(patient.params.seed ^ 0xCF),
            scan_window: DEFAULT_SCAN_WINDOW,
            recalibration: RecalibrationPolicy::initial_only(),
            telemetry: Telemetry::disabled(),
            instruments: MonitorInstruments::default(),
            thermal: None,
            artifacts: None,
            creep: None,
        })
    }

    /// Attaches a telemetry handle (chainable): session stages are timed
    /// as spans, beats and recalibrations are counted, and noteworthy
    /// session events land in the journal. The readout system underneath
    /// is instrumented through the same handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.system.attach_telemetry(telemetry.clone());
        let i = &mut self.instruments;
        i.beats = telemetry.counter(names::MONITOR_BEATS);
        i.recalibrations = telemetry.counter(names::MONITOR_RECALIBRATIONS);
        // Beat-to-beat intervals: 0.3–2.1 s covers 28–200 bpm.
        i.beat_interval = telemetry.histogram(
            names::MONITOR_BEAT_INTERVAL_S,
            &buckets::linear(0.3, 0.1, 18),
        );
        i.span_scan = telemetry.span(names::SPAN_SCAN);
        i.span_acquisition = telemetry.span(names::SPAN_ACQUISITION);
        i.span_calibration = telemetry.span(names::SPAN_CALIBRATION);
        i.span_analysis = telemetry.span(names::SPAN_ANALYSIS);
        self.telemetry = telemetry;
        self
    }

    /// Replaces the tissue model (chainable).
    pub fn with_tissue(mut self, tissue: TissueModel) -> Self {
        self.tissue = tissue;
        self
    }

    /// Replaces the cuff device (chainable).
    pub fn with_cuff(mut self, cuff: CuffDevice) -> Self {
        self.cuff = cuff;
        self
    }

    /// Replaces the scan window (settled frames per element; chainable).
    pub fn with_scan_window(mut self, frames: usize) -> Self {
        self.scan_window = frames;
        self
    }

    /// Sets the recalibration policy (chainable).
    pub fn with_recalibration(mut self, policy: RecalibrationPolicy) -> Self {
        self.recalibration = policy;
        self
    }

    /// Injects PDMS contact creep: the strap-on hold-down pressure
    /// relaxes viscoelastically, drifting a session calibrated at t = 0
    /// (the arterial truth is unaffected — pure sensor error).
    pub fn with_contact_creep(mut self, creep: CreepModel) -> Self {
        self.creep = Some(creep);
        self
    }

    /// Injects sensor-side motion artifacts (probe motion disturbing the
    /// contact pressure; the arterial truth is unaffected).
    pub fn with_motion_artifacts(
        mut self,
        artifacts: tonos_physio::artifact::ArtifactGenerator,
    ) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Injects sensor-side thermal drift: the die follows the profile and
    /// the membranes' temperature-dependent stiffness biases the reading
    /// (the ground truth is unaffected — this is pure sensor error).
    pub fn with_thermal_drift(mut self, model: ThermalModel, profile: TemperatureProfile) -> Self {
        self.thermal = Some((model, profile));
        self
    }

    /// The underlying readout system.
    pub fn system(&self) -> &ReadoutSystem {
        &self.system
    }

    /// Runs a session of the given duration (seconds of acquired data,
    /// excluding the scan lead-in, which is synthesized additionally).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] for durations under 4 s (too short
    /// to calibrate) and propagates pipeline failures.
    pub fn run(&mut self, duration_s: f64) -> Result<MonitoringSession, SystemError> {
        if !(duration_s >= 4.0) {
            return Err(SystemError::Config(format!(
                "session of {duration_s} s is too short to calibrate (need >= 4 s)"
            )));
        }
        let fs = self.system.output_rate_hz();
        let settle = self.system.settling_frames() as f64;
        let layout_len = self.system.chip().array().layout().len() as f64;
        let scan_s = (layout_len + 1.0) * (settle + self.scan_window as f64) / fs;
        let truth = self.patient.record(fs, duration_s + scan_s + 1.0)?;
        self.run_record(truth)
    }

    /// Runs a session against an externally synthesized ground-truth
    /// record (scenarios like [`tonos_physio::patient::PressureTransient`]).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] when the record's sample rate does
    /// not match the system output rate or the record is too short;
    /// propagates pipeline failures.
    pub fn run_record(&mut self, truth: WaveformRecord) -> Result<MonitoringSession, SystemError> {
        let fs = self.system.output_rate_hz();
        if (truth.sample_rate - fs).abs() > 1e-9 {
            return Err(SystemError::Config(format!(
                "truth record at {} Hz, system outputs {} Hz",
                truth.sample_rate, fs
            )));
        }
        let synth = self.frame_synth(&truth, fs)?;
        let array_len = self.system.chip().array().layout().len();

        // --- Scan phase: advance through the truth record. ---
        let mut cursor = 0usize;
        let truth_len = truth.samples.len();
        let scan_span = self.instruments.span_scan.start();
        let scan = {
            let truth_ref = &truth;
            let synth_ref = &synth;
            scan_strongest(
                &mut self.system,
                || {
                    let mut frame = Vec::with_capacity(array_len);
                    synth_ref.fill_scan(truth_ref, cursor, &mut frame);
                    cursor += 1;
                    frame
                },
                self.scan_window,
            )?
        };
        scan_span.finish();
        self.telemetry.event(Severity::Info, "monitor", || {
            format!(
                "scan selected element ({}, {}) of {}",
                scan.best.0, scan.best.1, array_len
            )
        });

        let acquisition_start = cursor.min(truth_len);
        if truth_len - acquisition_start < (4.0 * fs) as usize {
            return Err(SystemError::Config(format!(
                "only {} samples remain after the scan; extend the record",
                truth_len - acquisition_start
            )));
        }

        // --- Acquisition phase. ---
        let acquisition_span = self.instruments.span_acquisition.start();
        let mut raw = Vec::with_capacity(truth_len - acquisition_start);
        // One frame buffer for the whole session: with the readout's
        // conversion scratch underneath, each iteration of this loop is
        // allocation-free except for `raw`'s pre-sized pushes.
        let mut frame = Vec::with_capacity(array_len);
        for i in 0..truth_len - acquisition_start {
            synth.fill_acquisition(&truth, acquisition_start, i, fs, &mut frame);
            raw.push(self.system.push_frame(&frame)?);
        }
        acquisition_span.finish();

        self.finish_session(truth, raw, acquisition_start, scan)
    }

    /// Builds this session's frame synthesizer: artifact track aligned
    /// with the truth record and precomputed drift terms.
    fn frame_synth(&self, truth: &WaveformRecord, fs: f64) -> Result<FrameSynth, SystemError> {
        let contact = self.system.config().contact;
        let layout = self.system.chip().array().layout();
        let tissue = self.tissue;

        // Sensor-side motion artifacts: a surface-pressure disturbance
        // track aligned with the truth record.
        let artifact_track: Vec<Pascals> = match &self.artifacts {
            Some(generator) => generator
                .track(fs, truth.samples.len() as f64 / fs)
                .into_iter()
                .map(Pascals::from_mmhg)
                .collect(),
            None => Vec::new(),
        };

        // --- Sensor-side thermal drift (membrane-load-referred). ---
        // Precompute the full-scale drift once; the per-frame value is a
        // linear interpolation along the temperature profile.
        let thermal_drift = match &self.thermal {
            Some((model, profile)) if (profile.end_c - profile.start_c).abs() > 1e-9 => {
                // Bias point: the membrane load at the patient's mean
                // pressure.
                let mean_arterial = truth.mean_pressure();
                let bias = contact
                    .net_element_pressure(tissue.field(mean_arterial).pressure_at_xy(0.0, 0.0));
                let full = model.equivalent_pressure_drift(profile.end_c, bias)?;
                Some((*profile, full))
            }
            _ => None,
        };
        // Contact creep: the relaxing fraction applies to the full
        // transmitted contact pressure (hold-down + mean pulse), and the
        // membrane sees it through the concentration/transmission gain.
        let creep_drift = self.creep.map(|creep| {
            let mean_surface = tissue.field(truth.mean_pressure()).pressure_at_xy(0.0, 0.0);
            let surface_bias = Pascals(mean_surface.value() + contact.hold_down.value());
            let gain = contact.force_concentration * contact.pdms_transmission;
            (creep, surface_bias, gain)
        });

        Ok(FrameSynth {
            tissue,
            contact,
            layout,
            artifact_track,
            thermal_drift,
            creep_drift,
        })
    }

    /// The post-acquisition half of a session: cuff calibration(s),
    /// piecewise application, beat analysis, and error reporting.
    ///
    /// # Errors
    ///
    /// Propagates calibration and analysis failures.
    fn finish_session(
        &mut self,
        truth: WaveformRecord,
        raw: Vec<f64>,
        acquisition_start: usize,
        scan: ScanResult,
    ) -> Result<MonitoringSession, SystemError> {
        let fs = self.system.output_rate_hz();

        // --- Calibration(s) against the cuff. ---
        let window_s = self.recalibration.window_s.min(raw.len() as f64 / fs);
        let window_len = ((window_s * fs) as usize).max(1);
        if let Some(interval) = self.recalibration.interval_s {
            if interval < self.cuff.cycle_time() {
                return Err(SystemError::Config(format!(
                    "recalibration interval {interval} s is shorter than the cuff cycle {} s",
                    self.cuff.cycle_time()
                )));
            }
        }
        let t0 = acquisition_start as f64 / fs;
        let calibration_span = self.instruments.span_calibration.start();
        let mut calibrations: Vec<(f64, Calibration)> = Vec::new();
        let mut first_reading: Option<CuffReading> = None;
        let mut cal_start = 0usize; // raw index of the current window
        loop {
            let t_cal = t0 + cal_start as f64 / fs;
            // Truth beats inside this calibration window.
            let window_beats: Vec<_> = truth
                .beats
                .iter()
                .filter(|b| b.onset_s >= t_cal && b.onset_s < t_cal + window_s)
                .collect();
            if window_beats.is_empty() {
                return Err(SystemError::CalibrationFailed(format!(
                    "no truth beats in the calibration window at t = {t_cal:.1} s"
                )));
            }
            let mean_sys = window_beats.iter().map(|b| b.systolic.value()).sum::<f64>()
                / window_beats.len() as f64;
            let mean_dia = window_beats
                .iter()
                .map(|b| b.diastolic.value())
                .sum::<f64>()
                / window_beats.len() as f64;
            let reading =
                self.cuff
                    .measure(t_cal, MillimetersHg(mean_sys), MillimetersHg(mean_dia))?;
            let cal = Calibration::from_waveform(
                &raw[cal_start..(cal_start + window_len).min(raw.len())],
                fs,
                &reading,
            )?;
            calibrations.push((t_cal, cal));
            if first_reading.is_none() {
                first_reading = Some(reading);
            } else {
                self.instruments.recalibrations.inc();
                self.telemetry.event(Severity::Info, "monitor", || {
                    format!(
                        "cuff recalibration at t = {t_cal:.1} s ({}/{} mmHg)",
                        reading.systolic.value(),
                        reading.diastolic.value()
                    )
                });
            }
            let Some(interval) = self.recalibration.interval_s else {
                break;
            };
            let next = cal_start + (interval * fs) as usize;
            if next + window_len > raw.len() {
                break;
            }
            cal_start = next;
        }
        calibration_span.finish();
        let cuff_reading = first_reading.expect("at least one calibration ran");
        let calibration = calibrations[0].1;

        // Piecewise application: each sample uses the latest calibration
        // whose window has completed by that time.
        let mut calibrated = Vec::with_capacity(raw.len());
        let mut active = 0usize;
        for (i, &r) in raw.iter().enumerate() {
            let t = t0 + i as f64 / fs;
            while active + 1 < calibrations.len() && t >= calibrations[active + 1].0 + window_s {
                active += 1;
            }
            calibrated.push(calibrations[active].1.apply(r));
        }

        // --- Analysis & error reporting. ---
        let analysis_span = self.instruments.span_analysis.start();
        let cal_values: Vec<f64> = calibrated.iter().map(|p| p.value()).collect();
        let analysis = WaveformAnalysis::from_samples(&cal_values, fs)?;
        analysis_span.finish();
        self.instruments.beats.add(analysis.beats.len() as u64);
        for pair in analysis.beats.windows(2) {
            self.instruments
                .beat_interval
                .record((pair[1].peak_index - pair[0].peak_index) as f64 / fs);
        }
        let errors = tracking_errors(&truth, &analysis, acquisition_start, fs);
        self.telemetry.event(Severity::Info, "monitor", || {
            format!(
                "session analyzed: {} beats, {} matched, systolic MAE {:.2} mmHg",
                analysis.beats.len(),
                errors.matched_beats,
                errors.systolic_mae
            )
        });

        Ok(MonitoringSession {
            chip_power_w: self.system.chip().power_consumption(),
            truth,
            raw,
            calibrated,
            acquisition_start,
            scan,
            calibration,
            calibrations,
            cuff_reading,
            analysis,
            errors,
            sample_rate: fs,
        })
    }
}

/// Per-session frame synthesis: arterial truth sample + surface
/// artifact + sensor-side drift → per-element pressure frame.
///
/// All methods are pure math: infallible and allocation-free, keeping
/// the acquisition loop on the zero-allocation frame path.
#[derive(Debug, Clone)]
struct FrameSynth {
    tissue: TissueModel,
    contact: tonos_mems::contact::ContactInterface,
    layout: tonos_mems::array::ArrayLayout,
    artifact_track: Vec<Pascals>,
    /// Active thermal ramp: (profile, full-scale equivalent drift).
    thermal_drift: Option<(TemperatureProfile, Pascals)>,
    /// Contact creep: (model, surface bias, concentration·transmission).
    creep_drift: Option<(CreepModel, Pascals, f64)>,
}

impl FrameSynth {
    /// Surface artifact at truth index `i` (zero outside the track).
    fn artifact_at(&self, i: usize) -> Pascals {
        self.artifact_track.get(i).copied().unwrap_or(Pascals(0.0))
    }

    /// Arterial sample + surface artifact → per-element pressures, into
    /// a caller-owned buffer.
    fn fill(&self, arterial: MillimetersHg, artifact: Pascals, out: &mut Vec<Pascals>) {
        let field = self.tissue.field(arterial);
        out.clear();
        for row in 0..self.layout.rows {
            for col in 0..self.layout.cols {
                let (x, y) = self.layout.position(row, col);
                out.push(
                    self.contact
                        .net_element_pressure(field.pressure_at_xy(x, y) + artifact),
                );
            }
        }
    }

    /// Scan-phase frame at truth index `idx` (clamped to the record).
    fn fill_scan(&self, truth: &WaveformRecord, idx: usize, out: &mut Vec<Pascals>) {
        let i = idx.min(truth.samples.len() - 1);
        self.fill(truth.samples[i], self.artifact_at(i), out);
    }

    /// Combined sensor drift (thermal + creep) at session time `t`.
    fn drift_at(&self, t: f64) -> Pascals {
        let thermal = match &self.thermal_drift {
            Some((profile, full)) => {
                let frac =
                    (profile.temp_at(t) - profile.start_c) / (profile.end_c - profile.start_c);
                // The model's drift is referenced to its own reference
                // temperature; the session starts at profile.start_c,
                // so only the *change* from the start matters.
                *full * frac
            }
            None => Pascals(0.0),
        };
        let creep = match &self.creep_drift {
            Some((creep, surface_bias, gain)) => creep.pressure_drift(*surface_bias, t) * *gain,
            None => Pascals(0.0),
        };
        thermal + creep
    }

    /// Acquisition-phase frame: truth index `acquisition_start + i`,
    /// with the session drift applied to every element.
    fn fill_acquisition(
        &self,
        truth: &WaveformRecord,
        acquisition_start: usize,
        i: usize,
        fs: f64,
        out: &mut Vec<Pascals>,
    ) {
        let t = (acquisition_start + i) as f64 / fs;
        let arterial = truth.samples[acquisition_start + i];
        self.fill(arterial, self.artifact_at(acquisition_start + i), out);
        let drift = self.drift_at(t);
        for p in out {
            *p += drift;
        }
    }
}

/// Matches detected beats to truth beats and accumulates errors.
fn tracking_errors(
    truth: &WaveformRecord,
    analysis: &WaveformAnalysis,
    acquisition_start: usize,
    fs: f64,
) -> TrackingErrors {
    let mut sys_err = 0.0;
    let mut dia_err = 0.0;
    let mut matched = 0usize;
    for beat in &analysis.beats {
        let peak_t = (acquisition_start + beat.peak_index) as f64 / fs;
        // Truth beat whose systolic instant is nearest this peak.
        let nearest = truth.beats.iter().min_by(|a, b| {
            let ta = (a.onset_s + SYSTOLIC_PHASE * a.rr_s - peak_t).abs();
            let tb = (b.onset_s + SYSTOLIC_PHASE * b.rr_s - peak_t).abs();
            ta.partial_cmp(&tb).expect("finite times")
        });
        if let Some(t) = nearest {
            if (t.onset_s + SYSTOLIC_PHASE * t.rr_s - peak_t).abs() <= MATCH_TOLERANCE_S {
                sys_err += (beat.systolic - t.systolic.value()).abs();
                dia_err += (beat.diastolic - t.diastolic.value()).abs();
                matched += 1;
            }
        }
    }
    let truth_rate = truth.mean_heart_rate_bpm();
    TrackingErrors {
        systolic_mae: if matched > 0 {
            sys_err / matched as f64
        } else {
            f64::NAN
        },
        diastolic_mae: if matched > 0 {
            dia_err / matched as f64
        } else {
            f64::NAN
        },
        pulse_rate_error_bpm: (analysis.pulse_rate_bpm - truth_rate).abs(),
        matched_beats: matched,
    }
}

/// Small extension trait so the frame factory can call the tissue field
/// without importing the `PressureField` trait at every call site.
trait PressureAt {
    fn pressure_at_xy(&self, x: f64, y: f64) -> Pascals;
}

impl PressureAt for tonos_physio::tissue::TissueField {
    fn pressure_at_xy(&self, x: f64, y: f64) -> Pascals {
        use tonos_mems::contact::PressureField;
        self.pressure_at(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tonos_physio::patient::PressureTransient;

    fn quick_monitor() -> BloodPressureMonitor {
        BloodPressureMonitor::new(
            SystemConfig::paper_default(),
            PatientProfile::normotensive(),
        )
        .unwrap()
        .with_scan_window(150)
    }

    #[test]
    fn session_tracks_the_patient() {
        let mut monitor = quick_monitor();
        let session = monitor.run(8.0).unwrap();
        assert!(
            session.errors.matched_beats >= 6,
            "matched {} beats",
            session.errors.matched_beats
        );
        assert!(
            session.errors.systolic_mae < 8.0,
            "systolic MAE {} mmHg",
            session.errors.systolic_mae
        );
        assert!(
            session.errors.diastolic_mae < 8.0,
            "diastolic MAE {} mmHg",
            session.errors.diastolic_mae
        );
        assert!(
            session.errors.pulse_rate_error_bpm < 5.0,
            "rate error {}",
            session.errors.pulse_rate_error_bpm
        );
        assert!((session.chip_power_w - 11.5e-3).abs() < 1e-9);
        assert_eq!(session.sample_rate, 1000.0);
        assert_eq!(session.raw.len(), session.calibrated.len());
    }

    #[test]
    fn calibrated_waveform_lands_in_the_clinical_band() {
        let mut monitor = quick_monitor();
        let session = monitor.run(6.0).unwrap();
        let vals: Vec<f64> = session.calibrated.iter().map(|p| p.value()).collect();
        let max = vals.iter().copied().fold(f64::MIN, f64::max);
        let min = vals.iter().copied().fold(f64::MAX, f64::min);
        assert!((100.0..145.0).contains(&max), "systolic envelope {max}");
        assert!((55.0..95.0).contains(&min), "diastolic envelope {min}");
    }

    #[test]
    fn too_short_sessions_are_rejected() {
        let mut monitor = quick_monitor();
        assert!(matches!(monitor.run(2.0), Err(SystemError::Config(_))));
    }

    #[test]
    fn mismatched_record_rate_is_rejected() {
        let mut monitor = quick_monitor();
        let wrong = PatientProfile::normotensive().record(500.0, 10.0).unwrap();
        assert!(matches!(
            monitor.run_record(wrong),
            Err(SystemError::Config(_))
        ));
    }

    #[test]
    fn transient_scenario_is_tracked() {
        let mut monitor = quick_monitor();
        let scenario = PressureTransient {
            onset_s: 5.0,
            ramp_s: 3.0,
            hold_s: 4.0,
            ..PressureTransient::episode()
        };
        let truth = scenario.record(1000.0, 16.0).unwrap();
        let session = monitor.run_record(truth).unwrap();
        // Calibrated waveform must rise during the plateau relative to
        // the pre-onset baseline.
        let fs = session.sample_rate;
        let idx = |t: f64| ((t * fs) as usize).saturating_sub(session.acquisition_start);
        let seg_max = |lo: usize, hi: usize| {
            session.calibrated
                [lo.min(session.calibrated.len() - 1)..hi.min(session.calibrated.len())]
                .iter()
                .map(|p| p.value())
                .fold(f64::MIN, f64::max)
        };
        let baseline = seg_max(idx(2.5), idx(4.5));
        let plateau = seg_max(idx(9.0), idx(11.5));
        assert!(
            plateau > baseline + 15.0,
            "plateau {plateau} vs baseline {baseline}"
        );
    }

    #[test]
    fn thermal_drift_biases_a_single_calibration_session() {
        // A warm-up after the initial calibration must bias the reading;
        // periodic recalibration must remove most of that bias. Use a
        // deliberately large, fast temperature swing so the effect
        // dominates the other error sources in a short test.
        let profile = TemperatureProfile {
            start_c: 25.0,
            end_c: 80.0,
            ramp_s: 10.0,
        };
        let thermal = tonos_mems::thermal::ThermalModel::paper_default();

        let run = |policy: RecalibrationPolicy| {
            let mut monitor = BloodPressureMonitor::new(
                SystemConfig::paper_default(),
                PatientProfile::normotensive(),
            )
            .unwrap()
            .with_scan_window(120)
            .with_thermal_drift(thermal.clone(), profile)
            // A fast research cuff so an 8 s recalibration interval is
            // legal in this accelerated test.
            .with_cuff(CuffDevice::new(5.0, 1.0, 1.0, 1.0, 0xC0).unwrap())
            .with_recalibration(policy);
            monitor.run(26.0).unwrap()
        };

        let fixed = run(RecalibrationPolicy::initial_only());
        let recal = run(RecalibrationPolicy::periodic(8.0));
        assert_eq!(fixed.calibrations.len(), 1);
        assert!(
            recal.calibrations.len() >= 3,
            "{}",
            recal.calibrations.len()
        );
        assert!(
            fixed.errors.systolic_mae > recal.errors.systolic_mae + 1.0,
            "recalibration must beat a fixed calibration under drift: {} vs {}",
            fixed.errors.systolic_mae,
            recal.errors.systolic_mae
        );
    }

    #[test]
    fn motion_artifacts_degrade_but_do_not_break_tracking() {
        let clean = quick_monitor().run(10.0).unwrap();
        // Moderate artifacts: 8 mmHg surface spikes (≈ 29 mmHg at the
        // membrane after the contact concentration) every ~7 s. The
        // artifact schedule is drawn over the whole record — scan phase
        // included — but only events landing in the post-scan acquisition
        // window can show up in `raw`, so the seed is chosen to place
        // spikes there; seeds whose draws fall inside the ~12 s scan
        // (e.g. seed 5 under the workspace generator) make the envelope
        // comparison below vacuous.
        let mut noisy_monitor = quick_monitor().with_motion_artifacts(
            tonos_physio::artifact::ArtifactGenerator::new(0.15, 8.0, 2).unwrap(),
        );
        let noisy = noisy_monitor.run(10.0).unwrap();
        // Tracking still works…
        assert!(noisy.errors.matched_beats >= 5);
        assert!(
            noisy.errors.systolic_mae < 15.0,
            "artifacted MAE {}",
            noisy.errors.systolic_mae
        );
        // …but the artifacts are visibly present in the raw stream.
        let spread = |raw: &[f64]| {
            let max = raw.iter().copied().fold(f64::MIN, f64::max);
            let min = raw.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(&noisy.raw) > spread(&clean.raw) * 1.2,
            "artifacts must widen the raw envelope"
        );
    }

    #[test]
    fn epicardial_contact_yields_a_stronger_signal() {
        let wrist = quick_monitor().run(6.0).unwrap();
        let mut epi_monitor =
            quick_monitor().with_tissue(tonos_physio::tissue::TissueModel::epicardial());
        let epi = epi_monitor.run(6.0).unwrap();
        let p2p = |raw: &[f64]| {
            let max = raw.iter().copied().fold(f64::MIN, f64::max);
            let min = raw.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            p2p(&epi.raw) > 1.8 * p2p(&wrist.raw),
            "direct contact must produce a much larger pulse: {} vs {}",
            p2p(&epi.raw),
            p2p(&wrist.raw)
        );
        assert!(epi.errors.systolic_mae < 8.0);
    }

    #[test]
    fn contact_creep_drifts_the_reading_down() {
        // An aggressive creep model (25 % relaxing with a 10 s constant)
        // must pull the late-session reading visibly below a crept-free
        // run calibrated at the same instant.
        let creep = tonos_mems::creep::CreepModel::new(0.25, 10.0).unwrap();
        let rigid = quick_monitor().run(12.0).unwrap();
        let mut crept_monitor = quick_monitor().with_contact_creep(creep);
        let crept = crept_monitor.run(12.0).unwrap();
        let late_mean = |s: &MonitoringSession| {
            let n = s.calibrated.len();
            s.calibrated[n - 3000..]
                .iter()
                .map(|p| p.value())
                .sum::<f64>()
                / 3000.0
        };
        assert!(
            late_mean(&crept) < late_mean(&rigid) - 2.0,
            "creep must depress the late reading: {} vs {}",
            late_mean(&crept),
            late_mean(&rigid)
        );
        // And the mild default preset is a sub-mmHg effect on this scale.
        let mut mild_monitor =
            quick_monitor().with_contact_creep(tonos_mems::creep::CreepModel::pdms_strap());
        let mild = mild_monitor.run(12.0).unwrap();
        assert!(
            (late_mean(&mild) - late_mean(&rigid)).abs() < 2.0,
            "default creep is slow: {} vs {}",
            late_mean(&mild),
            late_mean(&rigid)
        );
    }

    #[test]
    fn recalibration_interval_must_respect_the_cuff_cycle() {
        let mut monitor = quick_monitor().with_recalibration(RecalibrationPolicy::periodic(10.0)); // < 30 s cycle
        assert!(matches!(monitor.run(25.0), Err(SystemError::Config(_))));
    }

    #[test]
    fn temperature_profile_shape() {
        let p = TemperatureProfile {
            start_c: 25.0,
            end_c: 35.0,
            ramp_s: 60.0,
        };
        assert_eq!(p.temp_at(-1.0), 25.0);
        assert_eq!(p.temp_at(0.0), 25.0);
        assert!((p.temp_at(30.0) - 30.0).abs() < 1e-12);
        assert_eq!(p.temp_at(60.0), 35.0);
        assert_eq!(p.temp_at(1000.0), 35.0);
        let instant = TemperatureProfile { ramp_s: 0.0, ..p };
        assert_eq!(instant.temp_at(0.0), 35.0);
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = quick_monitor().run(5.0).unwrap();
        let b = quick_monitor().run(5.0).unwrap();
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.calibration, b.calibration);
    }
}
