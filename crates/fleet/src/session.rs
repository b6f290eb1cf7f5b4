//! What one fleet session is: its specification, execution, and outcome.
//!
//! A *session* is one patient monitored end-to-end — array scan, cuff
//! calibration, continuous acquisition, beat analysis, and (optionally)
//! online alarm screening — exactly what [`BloodPressureMonitor::run`]
//! produces, condensed into a [`SessionSummary`] small enough to ship
//! across the fleet's result channel by value.

use tonos_core::config::SystemConfig;
use tonos_core::monitor::{BloodPressureMonitor, MonitoringSession};
use tonos_core::stream::{AlarmLimits, MonitorEvent, OnlineAnalyzer};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::Telemetry;

/// Specification of one monitoring session to run on the fleet.
///
/// Build with [`SessionSpec::new`] and the chained `with_*` setters;
/// every field also stays public for direct construction.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Operator-facing label (bed number, patient tag, ...).
    pub label: String,
    /// Physiological profile driving the ground-truth waveform.
    pub patient: PatientProfile,
    /// Full system configuration (chip, decimator, calibration).
    pub config: SystemConfig,
    /// Monitoring duration in seconds (the monitor requires ≥ 4 s).
    pub duration_s: f64,
    /// Array-scan window in frames; `None` keeps the monitor default.
    pub scan_window: Option<usize>,
    /// When set, the calibrated output is additionally screened by an
    /// [`OnlineAnalyzer`] with these limits, and raised alarms are
    /// counted into [`SessionSummary::alarms`] (and the session's
    /// telemetry registry, for fleet-level fan-in).
    pub alarm_limits: Option<AlarmLimits>,
}

impl SessionSpec {
    /// A session with the paper-default system configuration, 8 s of
    /// monitoring, no alarm screening.
    pub fn new(label: impl Into<String>, patient: PatientProfile) -> Self {
        SessionSpec {
            label: label.into(),
            patient,
            config: SystemConfig::paper_default(),
            duration_s: 8.0,
            scan_window: None,
            alarm_limits: None,
        }
    }

    /// Sets the monitoring duration in seconds.
    #[must_use]
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets the array-scan window (smaller = faster startup; tests use
    /// 150 frames).
    #[must_use]
    pub fn with_scan_window(mut self, frames: usize) -> Self {
        self.scan_window = Some(frames);
        self
    }

    /// Enables online alarm screening with the given limits.
    #[must_use]
    pub fn with_alarms(mut self, limits: AlarmLimits) -> Self {
        self.alarm_limits = Some(limits);
        self
    }

    /// Runs the session to completion on the calling thread, reporting
    /// into the context's (session-local) telemetry. This is what fleet
    /// workers execute; errors come back as strings because they cross
    /// the fleet's result channel.
    ///
    /// Per-frame working memory is owned by the monitor's
    /// `ReadoutSystem` (one `ConversionScratch` per session, reused
    /// across every frame), so a worker's steady-state acquisition loop
    /// does not touch the heap — sessions scale across workers without
    /// contending on the allocator.
    pub(crate) fn run(self, ctx: &SessionContext) -> Result<SessionSummary, String> {
        let mut monitor = BloodPressureMonitor::new(self.config, self.patient)
            .map_err(|e| e.to_string())?
            .with_telemetry(ctx.telemetry.clone());
        if let Some(frames) = self.scan_window {
            monitor = monitor.with_scan_window(frames);
        }
        let session = monitor.run(self.duration_s).map_err(|e| e.to_string())?;
        summarize(&session, self.alarm_limits, &ctx.telemetry)
    }
}

/// Condenses a finished session, running the optional alarm screening
/// stage.
fn summarize(
    session: &MonitoringSession,
    alarm_limits: Option<AlarmLimits>,
    telemetry: &Telemetry,
) -> Result<SessionSummary, String> {
    let alarms = match alarm_limits {
        None => 0,
        Some(limits) => {
            let mut analyzer = OnlineAnalyzer::new(session.sample_rate, limits)
                .map_err(|e| e.to_string())?
                .with_telemetry(telemetry.clone());
            let pressures: Vec<f64> = session.calibrated.iter().map(|p| p.value()).collect();
            analyzer
                .push_block(&pressures)
                .iter()
                .filter(|e| !matches!(e, MonitorEvent::Beat { .. }))
                .count()
        }
    };
    Ok(SessionSummary::from_session(session, alarms))
}

/// Per-session execution context handed to the workload by a worker.
///
/// The telemetry handle reaches a registry owned by *this session only*;
/// the engine snapshots and rolls it up after the session ends, so a
/// misbehaving session can never skew a neighbour's numbers.
#[derive(Debug, Clone)]
pub struct SessionContext {
    /// Engine-assigned session id (monotonic per engine).
    pub id: u64,
    /// The label the session was submitted under.
    pub label: String,
    /// Handle onto the session-local telemetry registry.
    pub telemetry: Telemetry,
}

/// Scalar results of one completed session — the part of a
/// [`MonitoringSession`] worth shipping across the fleet (the full
/// waveforms stay with the worker and are dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Beats accepted by waveform analysis.
    pub beats: usize,
    /// Mean pulse rate, beats per minute.
    pub pulse_rate_bpm: f64,
    /// Mean systolic pressure, mmHg.
    pub mean_systolic_mmhg: f64,
    /// Mean diastolic pressure, mmHg.
    pub mean_diastolic_mmhg: f64,
    /// Mean absolute systolic error vs. ground truth, mmHg.
    pub systolic_mae_mmhg: f64,
    /// Mean absolute diastolic error vs. ground truth, mmHg.
    pub diastolic_mae_mmhg: f64,
    /// Detected beats matched against truth beats.
    pub matched_beats: usize,
    /// Calibrated output samples delivered.
    pub samples: usize,
    /// Output sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Chip power draw during the session, watts.
    pub chip_power_w: f64,
    /// Alarms raised by the optional online screening stage.
    pub alarms: usize,
}

impl SessionSummary {
    /// A summary for a *streamed* session — one ingested from an
    /// external device over the host link (`tonos-link`) rather than
    /// simulated in-process. Such sessions have no ground truth to score
    /// against, so the error fields are zero and `matched_beats`
    /// mirrors `beats`; everything else carries the live analyzer's
    /// output, making link-ingested sessions first-class citizens of
    /// [`FleetReport`](crate::FleetReport).
    #[allow(clippy::too_many_arguments)]
    pub fn from_stream(
        beats: usize,
        pulse_rate_bpm: f64,
        mean_systolic_mmhg: f64,
        mean_diastolic_mmhg: f64,
        samples: usize,
        sample_rate_hz: f64,
        alarms: usize,
    ) -> Self {
        SessionSummary {
            beats,
            pulse_rate_bpm,
            mean_systolic_mmhg,
            mean_diastolic_mmhg,
            systolic_mae_mmhg: 0.0,
            diastolic_mae_mmhg: 0.0,
            matched_beats: beats,
            samples,
            sample_rate_hz,
            chip_power_w: 0.0,
            alarms,
        }
    }

    /// Condenses a completed [`MonitoringSession`].
    pub fn from_session(session: &MonitoringSession, alarms: usize) -> Self {
        SessionSummary {
            beats: session.analysis.beats.len(),
            pulse_rate_bpm: session.analysis.pulse_rate_bpm,
            mean_systolic_mmhg: session.analysis.mean_systolic,
            mean_diastolic_mmhg: session.analysis.mean_diastolic,
            systolic_mae_mmhg: session.errors.systolic_mae,
            diastolic_mae_mmhg: session.errors.diastolic_mae,
            matched_beats: session.errors.matched_beats,
            samples: session.calibrated.len(),
            sample_rate_hz: session.sample_rate,
            chip_power_w: session.chip_power_w,
            alarms,
        }
    }
}

/// How one session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Ran to completion.
    Completed(SessionSummary),
    /// Returned an error (bad configuration, validation failure, ...).
    Failed(String),
    /// Panicked; the panic was caught at the worker boundary and the
    /// rest of the fleet kept running.
    Panicked(String),
}

impl SessionOutcome {
    /// Whether the session completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, SessionOutcome::Completed(_))
    }

    /// The summary, when completed.
    pub fn summary(&self) -> Option<&SessionSummary> {
        match self {
            SessionOutcome::Completed(s) => Some(s),
            _ => None,
        }
    }

    /// The error or panic message, when not completed.
    pub fn error(&self) -> Option<&str> {
        match self {
            SessionOutcome::Completed(_) => None,
            SessionOutcome::Failed(e) | SessionOutcome::Panicked(e) => Some(e),
        }
    }
}
