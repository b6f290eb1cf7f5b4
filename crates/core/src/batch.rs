//! Whole monitoring sessions run K-at-a-time on a lane bank.
//!
//! [`run_batch`] executes K [`BloodPressureMonitor`] sessions in
//! lockstep: each lane keeps its own patient, tissue path, chip, and
//! decimation chain, but every modulator clock steps through one shared
//! [`crate::bank::ReadoutBank`] — the SoA hot loop that converts K
//! patients per instruction stream. The control flow mirrors
//! [`BloodPressureMonitor::run`] stage for stage (scan → acquisition →
//! calibration → analysis), so each lane's session is **bit-identical**
//! to running its monitor alone; the scalar path stays the oracle.
//!
//! Lockstep needs one frame schedule for every lane: same output rate,
//! array layout, settling time, scan window, and OSR. Heterogeneous
//! groups are rejected with [`SystemError::Config`] — callers (the
//! fleet's batch engine) fall back to scalar sessions.

use tonos_analog::bank::BankScratch;
use tonos_mems::units::Pascals;

use crate::bank::ReadoutBank;
use crate::monitor::{BloodPressureMonitor, MonitoringSession};
use crate::select::ScanResult;
use crate::SystemError;

/// Reusable per-worker scratch for [`run_batch_with_scratch`].
///
/// Holds the modulator bank's grown chunk rows (and transpose buffers)
/// between batches, so a long-lived worker draws into already-sized
/// storage instead of re-growing allocations per session group. Contents carry no session state — adopting a stale scratch is
/// always bit-safe; it only changes allocation behavior.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    bank: BankScratch,
}

/// Runs one monitoring session per monitor, K lanes in lockstep on a
/// shared modulator bank. Returns one [`MonitoringSession`] per monitor,
/// in order — each bit-identical to what `monitors[i].run(duration_s)`
/// would have produced.
///
/// # Errors
///
/// Returns [`SystemError::Config`] when the monitors are not
/// lockstep-compatible (differing rates, layouts, settling, scan
/// windows, or OSR) or the duration is under 4 s; propagates any lane's
/// pipeline failure (callers can rerun scalar sessions to isolate the
/// failing lane).
pub fn run_batch(
    monitors: &mut [BloodPressureMonitor],
    duration_s: f64,
) -> Result<Vec<MonitoringSession>, SystemError> {
    let mut scratch = BatchScratch::default();
    run_batch_with_scratch(monitors, duration_s, &mut scratch)
}

/// [`run_batch`] with a caller-held [`BatchScratch`]: the bank adopts
/// the scratch for the conversion and hands it back (grown) before the
/// modulators are released, so fleet workers amortize tile allocation
/// across every batch they run.
///
/// # Errors
///
/// Identical to [`run_batch`].
pub fn run_batch_with_scratch(
    monitors: &mut [BloodPressureMonitor],
    duration_s: f64,
    scratch: &mut BatchScratch,
) -> Result<Vec<MonitoringSession>, SystemError> {
    let k = monitors.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    if !(duration_s >= 4.0) {
        return Err(SystemError::Config(format!(
            "session of {duration_s} s is too short to calibrate (need >= 4 s)"
        )));
    }

    // --- Lockstep compatibility: one frame schedule for all lanes. ---
    let fs = monitors[0].system.output_rate_hz();
    let settle = monitors[0].system.settling_frames();
    let layout = monitors[0].system.chip().array().layout();
    let window = monitors[0].scan_window;
    for m in monitors.iter() {
        let incompatible = (m.system.output_rate_hz() - fs).abs() > 1e-9
            || m.system.settling_frames() != settle
            || m.system.chip().array().layout().rows != layout.rows
            || m.system.chip().array().layout().cols != layout.cols
            || m.scan_window != window;
        if incompatible {
            return Err(SystemError::Config(
                "monitors are not lockstep-compatible (rate/layout/settling/scan window)".into(),
            ));
        }
    }
    if window == 0 {
        return Err(SystemError::Config("scan window must be positive".into()));
    }

    // --- Per-lane ground truth and frame synthesis (scalar `run`). ---
    let scan_s = (layout.len() as f64 + 1.0) * (settle as f64 + window as f64) / fs;
    let mut truths = Vec::with_capacity(k);
    let mut synths = Vec::with_capacity(k);
    for m in monitors.iter() {
        let truth = m.patient.record(fs, duration_s + scan_s + 1.0)?;
        if (truth.sample_rate - fs).abs() > 1e-9 {
            return Err(SystemError::Config(format!(
                "truth record at {} Hz, system outputs {} Hz",
                truth.sample_rate, fs
            )));
        }
        synths.push(m.frame_synth(&truth, fs)?);
        truths.push(truth);
    }
    let truth_len = truths[0].samples.len();
    if truths.iter().any(|t| t.samples.len() != truth_len) {
        return Err(SystemError::Config(
            "lockstep lanes need equal-length truth records".into(),
        ));
    }

    // Telemetry handles are cheap shared clones; taking them up front
    // keeps the monitors free for the exclusive system borrows below.
    let instruments: Vec<_> = monitors.iter().map(|m| m.instruments.clone()).collect();
    let telemetry: Vec<_> = monitors.iter().map(|m| m.telemetry.clone()).collect();
    // One banked-conversion span per lane, on the lane's own registry —
    // operators comparing `span.bank.convert_s` against the scalar
    // scan/acquisition spans see what lockstep bought that session.
    let bank_timers: Vec<_> = telemetry
        .iter()
        .map(|t| t.span(tonos_telemetry::names::SPAN_BANK_CONVERT))
        .collect();

    // --- Banked conversion: scan then acquisition, all lanes lockstep.
    let (scans, raws, acquisition_start) = {
        let bank_spans: Vec<_> = bank_timers.iter().map(|t| t.start()).collect();
        let systems: Vec<_> = monitors.iter_mut().map(|m| &mut m.system).collect();
        let mut bank = ReadoutBank::new(systems)?;
        bank.adopt_scratch(std::mem::take(&mut scratch.bank));

        let mut cursor = 0usize;
        let mut frame_bufs: Vec<Vec<Pascals>> = vec![Vec::with_capacity(layout.len()); k];
        let mut ys = vec![0.0; k];

        // Scan: every lane walks the same element schedule as
        // `crate::select::scan_strongest`; only the pressures (and
        // therefore the winners) differ per lane.
        let scan_spans: Vec<_> = instruments.iter().map(|i| i.span_scan.start()).collect();
        let mut scores: Vec<Vec<((usize, usize), f64)>> = vec![Vec::with_capacity(layout.len()); k];
        let mut best = vec![(0usize, 0usize); k];
        let mut best_score = vec![f64::NEG_INFINITY; k];
        let mut settled_out: Vec<Vec<f64>> = vec![Vec::with_capacity(window); k];
        for row in 0..layout.rows {
            for col in 0..layout.cols {
                for lane in 0..k {
                    synths[lane].fill_scan(&truths[lane], cursor, &mut frame_bufs[lane]);
                    bank.select_element(lane, row, col, &frame_bufs[lane])?;
                    settled_out[lane].clear();
                }
                for f in 0..settle + window {
                    for lane in 0..k {
                        synths[lane].fill_scan(&truths[lane], cursor, &mut frame_bufs[lane]);
                    }
                    cursor += 1;
                    bank.push_frames(&frame_bufs, &mut ys)?;
                    if f >= settle {
                        for (sink, &y) in settled_out.iter_mut().zip(&ys) {
                            sink.push(y);
                        }
                    }
                }
                for lane in 0..k {
                    let settled = &settled_out[lane];
                    let mean = settled.iter().sum::<f64>() / settled.len() as f64;
                    let score = (settled.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                        / settled.len() as f64)
                        .sqrt();
                    scores[lane].push(((row, col), score));
                    if score > best_score[lane] {
                        best_score[lane] = score;
                        best[lane] = (row, col);
                    }
                }
            }
        }
        // Re-select each lane's winner and settle on it.
        for lane in 0..k {
            synths[lane].fill_scan(&truths[lane], cursor, &mut frame_bufs[lane]);
            bank.select_element(lane, best[lane].0, best[lane].1, &frame_bufs[lane])?;
        }
        for _ in 0..settle + 1 {
            for lane in 0..k {
                synths[lane].fill_scan(&truths[lane], cursor, &mut frame_bufs[lane]);
            }
            cursor += 1;
            bank.push_frames(&frame_bufs, &mut ys)?;
        }
        for span in scan_spans {
            span.finish();
        }
        let scans: Vec<ScanResult> = scores
            .into_iter()
            .zip(&best)
            .map(|(scores, &best)| ScanResult { scores, best })
            .collect();
        for (lane, t) in telemetry.iter().enumerate() {
            let b = scans[lane].best;
            t.event(tonos_telemetry::Severity::Info, "monitor", || {
                format!(
                    "scan selected element ({}, {}) of {}",
                    b.0,
                    b.1,
                    layout.len()
                )
            });
        }

        let acquisition_start = cursor.min(truth_len);
        if truth_len - acquisition_start < (4.0 * fs) as usize {
            return Err(SystemError::Config(format!(
                "only {} samples remain after the scan; extend the record",
                truth_len - acquisition_start
            )));
        }

        // Acquisition: the steady lockstep loop — all lanes settled, so
        // every frame takes the bank's allocation-free constant path.
        let acq_spans: Vec<_> = instruments
            .iter()
            .map(|i| i.span_acquisition.start())
            .collect();
        let mut raws: Vec<Vec<f64>> = vec![Vec::with_capacity(truth_len - acquisition_start); k];
        for i in 0..truth_len - acquisition_start {
            for lane in 0..k {
                synths[lane].fill_acquisition(
                    &truths[lane],
                    acquisition_start,
                    i,
                    fs,
                    &mut frame_bufs[lane],
                );
            }
            bank.push_frames(&frame_bufs, &mut ys)?;
            for (raw, &y) in raws.iter_mut().zip(&ys) {
                raw.push(y);
            }
        }
        for span in acq_spans {
            span.finish();
        }
        for span in bank_spans {
            span.finish();
        }

        scratch.bank = bank.take_scratch();
        bank.release();
        (scans, raws, acquisition_start)
    };

    // --- Per-lane calibration, analysis, and reporting (scalar code).
    let mut sessions = Vec::with_capacity(k);
    for (((m, truth), raw), scan) in monitors.iter_mut().zip(truths).zip(raws).zip(scans) {
        sessions.push(m.finish_session(truth, raw, acquisition_start, scan)?);
    }
    Ok(sessions)
}
