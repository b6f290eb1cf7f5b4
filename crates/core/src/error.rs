//! Error type for the system crate.

use std::error::Error;
use std::fmt;

use tonos_analog::AnalogError;
use tonos_dsp::DspError;
use tonos_mems::MemsError;
use tonos_physio::PhysioError;

/// Errors produced by the integrated sensor system.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// A MEMS-level failure (collapse, invalid geometry, …).
    Mems(MemsError),
    /// An analog-circuit failure (invalid configuration, bad channel, …).
    Analog(AnalogError),
    /// A digital-filter failure (invalid parameters, short input, …).
    Dsp(DspError),
    /// A physiological-model failure.
    Physio(PhysioError),
    /// A system-level configuration or processing failure.
    Config(String),
    /// An I/O failure (session records, the host link).
    /// Carries the [`std::io::ErrorKind`] plus the rendered message —
    /// [`std::io::Error`] itself is neither `Clone` nor `PartialEq`.
    Io(std::io::ErrorKind, String),
    /// Calibration could not be established (degenerate raw span, missing
    /// beats, or missing cuff reading).
    CalibrationFailed(String),
    /// No beats could be detected in a waveform segment.
    NoBeatsDetected {
        /// Samples examined.
        samples: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Mems(e) => write!(f, "mems: {e}"),
            SystemError::Analog(e) => write!(f, "analog: {e}"),
            SystemError::Dsp(e) => write!(f, "dsp: {e}"),
            SystemError::Physio(e) => write!(f, "physio: {e}"),
            SystemError::Config(msg) => write!(f, "configuration: {msg}"),
            SystemError::Io(kind, msg) => write!(f, "i/o ({kind:?}): {msg}"),
            SystemError::CalibrationFailed(msg) => write!(f, "calibration failed: {msg}"),
            SystemError::NoBeatsDetected { samples } => {
                write!(f, "no beats detected in {samples} samples")
            }
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Mems(e) => Some(e),
            SystemError::Analog(e) => Some(e),
            SystemError::Dsp(e) => Some(e),
            SystemError::Physio(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemsError> for SystemError {
    fn from(e: MemsError) -> Self {
        SystemError::Mems(e)
    }
}

impl From<AnalogError> for SystemError {
    fn from(e: AnalogError) -> Self {
        SystemError::Analog(e)
    }
}

impl From<DspError> for SystemError {
    fn from(e: DspError) -> Self {
        SystemError::Dsp(e)
    }
}

impl From<PhysioError> for SystemError {
    fn from(e: PhysioError) -> Self {
        SystemError::Physio(e)
    }
}

impl From<std::io::Error> for SystemError {
    fn from(e: std::io::Error) -> Self {
        SystemError::Io(e.kind(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources_work() {
        let e: SystemError = MemsError::InvalidGeometry("x".into()).into();
        assert!(matches!(e, SystemError::Mems(_)));
        assert!(e.source().is_some());
        let e: SystemError = AnalogError::InvalidParameter("y".into()).into();
        assert!(e.to_string().contains("analog"));
        let e: SystemError = DspError::NoSignal.into();
        assert!(e.to_string().contains("dsp"));
        let e: SystemError = PhysioError::InvalidParameter("z".into()).into();
        assert!(e.to_string().contains("physio"));
        let e = SystemError::NoBeatsDetected { samples: 42 };
        assert!(e.to_string().contains("42"));
        assert!(e.source().is_none());
        let e: SystemError = std::io::Error::other("disk full").into();
        assert!(matches!(e, SystemError::Io(std::io::ErrorKind::Other, _)));
        assert!(e.to_string().contains("disk full"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SystemError>();
    }
}
