//! Waveform analysis: beat detection and systolic/diastolic extraction.
//!
//! The continuous recording (paper Fig. 9) is only clinically useful once
//! each beat's systolic peak and diastolic foot are identified — both for
//! the cuff calibration (§3.2) and for reporting pulse rate. The detector
//! here is a standard smoothed-peak-picking algorithm with a refractory
//! period, robust to the 12-bit quantization and modest artifacts of the
//! simulated chain.

use crate::SystemError;

/// One detected beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beat {
    /// Sample index of the systolic peak.
    pub peak_index: usize,
    /// Sample index of the preceding diastolic foot.
    pub foot_index: usize,
    /// Systolic (peak) value in the waveform's units.
    pub systolic: f64,
    /// Diastolic (foot) value in the waveform's units.
    pub diastolic: f64,
}

/// Summary of an analyzed waveform segment.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformAnalysis {
    /// Detected beats in time order.
    pub beats: Vec<Beat>,
    /// Mean pulse rate in beats per minute.
    pub pulse_rate_bpm: f64,
    /// Mean systolic value.
    pub mean_systolic: f64,
    /// Mean diastolic value.
    pub mean_diastolic: f64,
}

/// Minimum physiological beat spacing (refractory period), seconds —
/// 0.33 s corresponds to 180 bpm.
const MIN_BEAT_SPACING_S: f64 = 0.33;

/// Smoothing window for peak picking, seconds.
const SMOOTH_WINDOW_S: f64 = 0.04;

/// Fraction of the local peak-to-peak span a local maximum must clear
/// (above the local minimum) to count as a systolic peak.
const PEAK_THRESHOLD_FRACTION: f64 = 0.55;

/// Threshold-estimation block length, seconds (see `detect_beats`).
const DETECT_BLOCK_S: f64 = 10.0;

/// Moving-average smoothing with a centered window.
fn smooth(x: &[f64], half_window: usize) -> Vec<f64> {
    if half_window == 0 {
        return x.to_vec();
    }
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    // Prefix sums for O(n) averaging.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in x {
        prefix.push(prefix.last().unwrap() + v);
    }
    for i in 0..n {
        let lo = i.saturating_sub(half_window);
        let hi = (i + half_window + 1).min(n);
        out.push((prefix[hi] - prefix[lo]) / (hi - lo) as f64);
    }
    out
}

/// Detects beats in a waveform sampled at `sample_rate` Hz.
///
/// # Errors
///
/// * [`SystemError::Config`] — non-positive sample rate or a segment
///   shorter than one second.
/// * [`SystemError::NoBeatsDetected`] — flat or non-pulsatile input.
pub fn detect_beats(x: &[f64], sample_rate: f64) -> Result<Vec<Beat>, SystemError> {
    if !(sample_rate > 0.0) {
        return Err(SystemError::Config("sample rate must be positive".into()));
    }
    if (x.len() as f64) < sample_rate {
        return Err(SystemError::Config(format!(
            "need at least 1 s of data, got {} samples at {} Hz",
            x.len(),
            sample_rate
        )));
    }
    let half_window = ((SMOOTH_WINDOW_S * sample_rate / 2.0).round() as usize).max(1);
    let s = smooth(x, half_window);
    let min_spacing = (MIN_BEAT_SPACING_S * sample_rate) as usize;

    // Peak picking with a *windowed* threshold: the detection threshold is
    // computed per ~10 s block (with 1 s margins) rather than globally, so
    // slow pressure trends — e.g. a hypertensive episode raising the
    // global maximum — do not push baseline beats under the threshold.
    let n = s.len();
    let block = ((DETECT_BLOCK_S * sample_rate) as usize).max(min_spacing * 4);
    let margin = (sample_rate as usize).max(1);
    let mut peaks: Vec<usize> = Vec::new();
    let mut any_span = false;
    let mut start = 0usize;
    while start < n {
        let seg_lo = start.saturating_sub(margin);
        let seg_hi = (start + block + margin).min(n);
        let seg = &s[seg_lo..seg_hi];
        let lo = seg.iter().copied().fold(f64::MAX, f64::min);
        let hi = seg.iter().copied().fold(f64::MIN, f64::max);
        let span = hi - lo;
        if span > 0.0 {
            any_span = true;
            let threshold = lo + PEAK_THRESHOLD_FRACTION * span;
            let keep_hi = (start + block).min(n);
            for i in seg_lo.max(1)..seg_hi.min(n - 1) {
                // Only record peaks owned by this block (margins exist
                // solely to stabilize the local threshold).
                if i < start || i >= keep_hi {
                    continue;
                }
                if s[i] >= threshold && s[i] >= s[i - 1] && s[i] > s[i + 1] {
                    match peaks.last() {
                        Some(&last) if i - last < min_spacing => {
                            // Keep the taller of the two contenders.
                            if s[i] > s[last] {
                                *peaks.last_mut().unwrap() = i;
                            }
                        }
                        _ => peaks.push(i),
                    }
                }
            }
        }
        start += block;
    }
    if peaks.is_empty() {
        let _ = any_span;
        return Err(SystemError::NoBeatsDetected { samples: x.len() });
    }

    // Refine each peak on the raw trace and find the preceding foot.
    let refine = (half_window * 2).max(1);
    let mut beats = Vec::with_capacity(peaks.len());
    for (k, &p) in peaks.iter().enumerate() {
        let lo_i = p.saturating_sub(refine);
        let hi_i = (p + refine + 1).min(x.len());
        let (peak_index, systolic) = (lo_i..hi_i)
            .map(|i| (i, x[i]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite samples"))
            .expect("non-empty window");
        // Foot: raw minimum between the previous peak (or segment start)
        // and this peak.
        let search_lo = if k == 0 { 0 } else { peaks[k - 1] };
        let (foot_index, diastolic) = (search_lo..=p)
            .map(|i| (i, x[i]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite samples"))
            .expect("non-empty window");
        beats.push(Beat {
            peak_index,
            foot_index,
            systolic,
            diastolic,
        });
    }
    Ok(beats)
}

/// An ensemble-averaged beat: the mean pulse shape across all detected
/// beats, resampled onto a fixed phase grid and normalized to [0, 1].
///
/// Pulse *morphology* (the reflected-wave shoulder, the dicrotic wave)
/// carries clinical information beyond systolic/diastolic numbers;
/// ensemble averaging is the standard way to extract it from a noisy,
/// quantized recording.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleBeat {
    /// Normalized pulse shape on a uniform phase grid [0, 1).
    pub shape: Vec<f64>,
    /// Number of beats averaged.
    pub beats_used: usize,
}

impl EnsembleBeat {
    /// Averages the peak-to-peak segments of consecutive detected beats
    /// onto a `grid`-point phase axis, then normalizes to [0, 1]. Phase 0
    /// is therefore the systolic peak.
    ///
    /// Peak alignment (rather than foot alignment) is deliberate: the
    /// diastolic tail is nearly flat, so its minimum wanders with any
    /// baseline tilt (respiration!) and foot-aligned ensembles smear.
    /// The systolic peak is sharp and detection-stable.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoBeatsDetected`] when fewer than 3 beats
    /// are available, or [`SystemError::Config`] for a degenerate grid.
    pub fn from_beats(x: &[f64], beats: &[Beat], grid: usize) -> Result<Self, SystemError> {
        if grid < 8 {
            return Err(SystemError::Config("ensemble grid must be >= 8".into()));
        }
        if beats.len() < 3 {
            return Err(SystemError::NoBeatsDetected { samples: x.len() });
        }
        let mut acc = vec![0.0; grid];
        let mut used = 0usize;
        for pair in beats.windows(2) {
            let start = pair[0].peak_index;
            let end = pair[1].peak_index;
            if end <= start + 4 || end > x.len() {
                continue;
            }
            let len = (end - start) as f64;
            for (g, a) in acc.iter_mut().enumerate() {
                // Linear interpolation at phase g/grid.
                let pos = start as f64 + len * g as f64 / grid as f64;
                let i = pos.floor() as usize;
                let frac = pos - i as f64;
                let v = if i + 1 < end {
                    x[i] * (1.0 - frac) + x[i + 1] * frac
                } else {
                    x[i.min(x.len() - 1)]
                };
                *a += v;
            }
            used += 1;
        }
        if used < 2 {
            return Err(SystemError::NoBeatsDetected { samples: x.len() });
        }
        for a in &mut acc {
            *a /= used as f64;
        }
        let lo = acc.iter().copied().fold(f64::MAX, f64::min);
        let hi = acc.iter().copied().fold(f64::MIN, f64::max);
        let span = hi - lo;
        if !(span > 0.0) {
            return Err(SystemError::NoBeatsDetected { samples: x.len() });
        }
        for a in &mut acc {
            *a = (*a - lo) / span;
        }
        Ok(EnsembleBeat {
            shape: acc,
            beats_used: used,
        })
    }

    /// Half-height width of the systolic complex: the fraction of the
    /// period the normalized pulse stays at or above 0.5. The stiffer the
    /// arteries, the earlier and larger the reflected wave and the
    /// broader the merged systolic complex — a robust morphology metric
    /// even when the reflection fuses with the primary peak (where
    /// shoulder-level metrics become ambiguous).
    pub fn half_height_width(&self) -> f64 {
        self.shape.iter().filter(|&&v| v >= 0.5).count() as f64 / self.shape.len() as f64
    }
}

impl WaveformAnalysis {
    /// Detects beats and summarizes a waveform segment.
    ///
    /// # Errors
    ///
    /// See [`detect_beats`].
    pub fn from_samples(x: &[f64], sample_rate: f64) -> Result<Self, SystemError> {
        let beats = detect_beats(x, sample_rate)?;
        let pulse_rate_bpm = if beats.len() >= 2 {
            let first = beats.first().unwrap().peak_index as f64;
            let last = beats.last().unwrap().peak_index as f64;
            let beats_n = (beats.len() - 1) as f64;
            60.0 * sample_rate * beats_n / (last - first)
        } else {
            0.0
        };
        let mean_systolic = beats.iter().map(|b| b.systolic).sum::<f64>() / beats.len() as f64;
        let mean_diastolic = beats.iter().map(|b| b.diastolic).sum::<f64>() / beats.len() as f64;
        Ok(WaveformAnalysis {
            beats,
            pulse_rate_bpm,
            mean_systolic,
            mean_diastolic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tonos_physio::patient::PatientProfile;

    fn truth_waveform(duration: f64) -> (Vec<f64>, f64) {
        let record = PatientProfile::normotensive()
            .record(250.0, duration)
            .unwrap();
        (
            record.samples.iter().map(|p| p.value()).collect(),
            record.sample_rate,
        )
    }

    #[test]
    fn detects_the_right_number_of_beats() {
        let (x, fs) = truth_waveform(30.0);
        let beats = detect_beats(&x, fs).unwrap();
        // 72 bpm for 30 s ≈ 36 beats.
        assert!(
            (33..=38).contains(&beats.len()),
            "{} beats detected",
            beats.len()
        );
    }

    #[test]
    fn systolic_and_diastolic_match_the_synthesizer_targets() {
        let (x, fs) = truth_waveform(20.0);
        let analysis = WaveformAnalysis::from_samples(&x, fs).unwrap();
        assert!(
            (analysis.mean_systolic - 120.0).abs() < 4.0,
            "systolic {}",
            analysis.mean_systolic
        );
        assert!(
            (analysis.mean_diastolic - 80.0).abs() < 4.0,
            "diastolic {}",
            analysis.mean_diastolic
        );
        assert!(
            (analysis.pulse_rate_bpm - 72.0).abs() < 3.0,
            "rate {}",
            analysis.pulse_rate_bpm
        );
    }

    #[test]
    fn beat_ordering_and_structure_are_consistent() {
        let (x, fs) = truth_waveform(10.0);
        let beats = detect_beats(&x, fs).unwrap();
        for pair in beats.windows(2) {
            assert!(pair[1].peak_index > pair[0].peak_index);
        }
        for b in &beats {
            assert!(b.foot_index <= b.peak_index);
            assert!(b.systolic > b.diastolic);
        }
    }

    #[test]
    fn works_at_the_system_output_rate_with_quantization() {
        // 1 kHz with 12-bit-like quantization on a small span (the raw
        // ADC representation of the pulse).
        let record = PatientProfile::normotensive().record(1000.0, 15.0).unwrap();
        let x: Vec<f64> = record
            .samples
            .iter()
            .map(|p| {
                let raw = (p.value() - 100.0) / 2000.0; // small FS fraction
                (raw * 2048.0).round() / 2048.0
            })
            .collect();
        let beats = detect_beats(&x, 1000.0).unwrap();
        assert!(
            (15..=20).contains(&beats.len()),
            "{} beats in 15 s",
            beats.len()
        );
    }

    #[test]
    fn nonstationary_records_keep_baseline_beats() {
        // A +35 mmHg episode must not mask the baseline beats before it
        // (regression for the windowed threshold).
        let scenario = tonos_physio::patient::PressureTransient::episode();
        let record = scenario.record(250.0, 160.0).unwrap();
        let x: Vec<f64> = record.samples.iter().map(|p| p.value()).collect();
        let beats = detect_beats(&x, 250.0).unwrap();
        // ~192 beats at 72 bpm over 160 s; allow a generous band but rule
        // out the global-threshold failure mode (which found ~130).
        assert!(
            (175..=205).contains(&beats.len()),
            "{} beats detected over the episode record",
            beats.len()
        );
        // Beats exist both before and during the episode.
        let before = beats
            .iter()
            .filter(|b| (b.peak_index as f64 / 250.0) < 50.0)
            .count();
        let during = beats
            .iter()
            .filter(|b| {
                let t = b.peak_index as f64 / 250.0;
                (85.0..105.0).contains(&t)
            })
            .count();
        assert!(before >= 55, "{before} baseline beats");
        assert!(during >= 20, "{during} episode beats");
    }

    #[test]
    fn flat_input_reports_no_beats() {
        let x = vec![5.0; 3000];
        assert!(matches!(
            detect_beats(&x, 1000.0),
            Err(SystemError::NoBeatsDetected { .. })
        ));
    }

    #[test]
    fn short_or_invalid_input_is_rejected() {
        assert!(matches!(
            detect_beats(&[1.0; 100], 1000.0),
            Err(SystemError::Config(_))
        ));
        assert!(matches!(
            detect_beats(&[1.0; 100], 0.0),
            Err(SystemError::Config(_))
        ));
    }

    #[test]
    fn refractory_period_rejects_dicrotic_double_counting() {
        // Exaggerate the dicrotic bump by summing two sinusoids: the
        // detector must still count only the fundamental rate.
        let fs = 500.0;
        let n = (fs * 20.0) as usize;
        let f0 = 1.2; // 72 bpm
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let main = (2.0 * std::f64::consts::PI * f0 * t).sin();
                let dicrotic = 0.35 * (2.0 * std::f64::consts::PI * 2.0 * f0 * t + 0.8).sin();
                100.0 + 20.0 * (main + dicrotic)
            })
            .collect();
        let beats = detect_beats(&x, fs).unwrap();
        let rate = 60.0 * fs * (beats.len() - 1) as f64
            / (beats.last().unwrap().peak_index - beats[0].peak_index) as f64;
        assert!((rate - 72.0).abs() < 8.0, "rate {rate} (double counting?)");
    }

    #[test]
    fn ensemble_width_ranks_arterial_stiffness() {
        use tonos_physio::waveform::{BeatMorphology, PulseWaveform};
        let params = tonos_physio::waveform::ArterialParams {
            rr_sigma: 0.0,
            drift_step_mmhg: 0.0,
            respiration: tonos_physio::variability::RespiratoryModulation::none(),
            ..tonos_physio::waveform::ArterialParams::normotensive()
        };
        let fs = 500.0;
        let shoulder = |morph: BeatMorphology| {
            let record = PulseWaveform::with_morphology(params, morph)
                .unwrap()
                .record(fs, 20.0)
                .unwrap();
            let x: Vec<f64> = record.samples.iter().map(|p| p.value()).collect();
            let beats = detect_beats(&x, fs).unwrap();
            let ensemble = EnsembleBeat::from_beats(&x, &beats, 100).unwrap();
            assert!(ensemble.beats_used >= 15);
            ensemble.half_height_width()
        };
        let young = shoulder(BeatMorphology::radial_young());
        let adult = shoulder(BeatMorphology::radial_adult());
        let elderly = shoulder(BeatMorphology::radial_elderly());
        assert!(
            young < adult && adult < elderly,
            "systolic-complex width must rank stiffness: {young} {adult} {elderly}"
        );
    }

    #[test]
    fn ensemble_beat_validates_inputs() {
        let x = vec![0.0; 1000];
        assert!(matches!(
            EnsembleBeat::from_beats(&x, &[], 100),
            Err(SystemError::NoBeatsDetected { .. })
        ));
        let beats = vec![
            Beat {
                peak_index: 10,
                foot_index: 5,
                systolic: 1.0,
                diastolic: 0.0,
            },
            Beat {
                peak_index: 50,
                foot_index: 45,
                systolic: 1.0,
                diastolic: 0.0,
            },
            Beat {
                peak_index: 90,
                foot_index: 85,
                systolic: 1.0,
                diastolic: 0.0,
            },
        ];
        assert!(matches!(
            EnsembleBeat::from_beats(&x, &beats, 4),
            Err(SystemError::Config(_))
        ));
        // Flat data between feet → degenerate span.
        assert!(EnsembleBeat::from_beats(&x, &beats, 50).is_err());
    }

    #[test]
    fn smoothing_preserves_mean() {
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.1).sin()).collect();
        let s = smooth(&x, 5);
        let mx = x.iter().sum::<f64>() / x.len() as f64;
        let ms = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mx - ms).abs() < 1e-3);
        assert_eq!(smooth(&x, 0), x);
    }
}
