//! Export of sessions as binary records.
//!
//! The paper's setup streamed the 12-bit samples over USB "to a computer
//! system" — which means someone immediately needed the data in a file.
//! [`write_session_record`] / [`read_session_record`] store the sample
//! stream *binary and CRC-protected*, as a sequence of
//! [`tonos_dsp::frame`] frames — the exact codec the live host link
//! (`tonos-link`) speaks on the wire, so recorded sessions and link
//! traffic share one format and one corruption-detection story.

use std::io::{Read, Write};

use crate::monitor::MonitoringSession;
use crate::SystemError;
use tonos_mems::units::MillimetersHg;

/// Samples per [`tonos_dsp::frame::KIND_SESSION_DATA`] frame in a binary
/// session record (16 bytes per sample: raw + calibrated `f64`).
const RECORD_CHUNK_SAMPLES: usize = 4096;

/// The sample stream read back from a binary session record.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Output sample rate, Hz.
    pub sample_rate: f64,
    /// Truth sample index at which acquisition began.
    pub acquisition_start: usize,
    /// Raw (uncalibrated, full-scale) samples — bit-exact.
    pub raw: Vec<f64>,
    /// Calibrated samples aligned with `raw` — bit-exact.
    pub calibrated: Vec<MillimetersHg>,
}

fn record_corrupt(msg: impl Into<String>) -> SystemError {
    SystemError::Io(std::io::ErrorKind::InvalidData, msg.into())
}

/// The decoded `KIND_SESSION_META` header of a binary session record.
///
/// Produced by [`validate_record_meta`] — the single checked gate that
/// both [`read_session_record`] and external record containers (the
/// historian's segment reader) pass a candidate meta frame through
/// before trusting any of its fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordMeta {
    /// Output sample rate, Hz.
    pub sample_rate: f64,
    /// Truth sample index at which acquisition began.
    pub acquisition_start: u64,
    /// Declared sample count (already bounded against the record size).
    pub samples: u64,
}

/// Validates a candidate session-record meta frame: kind, payload
/// layout, and the declared sample count against `record_bytes` (the
/// total encoded record size the count will be trusted to describe).
///
/// This is the single source of truth for record-header validation —
/// `read_session_record` and the historian's segment reader both call
/// it, so a crafted or corrupt meta frame is rejected identically
/// everywhere instead of each container growing its own subtly
/// different bounds checks.
///
/// # Errors
///
/// Returns [`SystemError::Io`] with [`std::io::ErrorKind::InvalidData`]
/// when the frame is not a `KIND_SESSION_META` frame, its payload is
/// not the 24-byte meta layout, or the declared sample count could not
/// possibly fit in `record_bytes` (every sample costs 16 payload
/// bytes, so a record of `n` bytes holds at most `n / 16` samples —
/// rejecting here is what keeps a forged count from sizing a huge
/// allocation).
pub fn validate_record_meta(
    meta: &tonos_dsp::frame::Frame,
    record_bytes: usize,
) -> Result<RecordMeta, SystemError> {
    use tonos_dsp::frame::KIND_SESSION_META;
    if meta.kind != KIND_SESSION_META || meta.payload_bytes().len() != 24 {
        return Err(record_corrupt("session record does not start with meta"));
    }
    let m = meta.payload_bytes();
    let sample_rate = f64::from_le_bytes(m[0..8].try_into().expect("8 bytes"));
    let acquisition_start = u64::from_le_bytes(m[8..16].try_into().expect("8 bytes"));
    let samples = u64::from_le_bytes(m[16..24].try_into().expect("8 bytes"));
    if samples > (record_bytes / 16) as u64 {
        return Err(record_corrupt(format!(
            "meta declares {samples} samples but the record is only {record_bytes} bytes"
        )));
    }
    Ok(RecordMeta {
        sample_rate,
        acquisition_start,
        samples,
    })
}

/// Writes a session's sample stream as a binary, CRC-protected record:
/// one [`KIND_SESSION_META`](tonos_dsp::frame::KIND_SESSION_META) frame
/// (sample rate, acquisition start, sample count) followed by
/// [`KIND_SESSION_DATA`](tonos_dsp::frame::KIND_SESSION_DATA) frames of
/// up to `RECORD_CHUNK_SAMPLES` (4096) interleaved `(raw, calibrated)` `f64`
/// pairs. The frame `clock` field carries the chunk's first sample
/// index; `seq` numbers the frames.
///
/// [`read_session_record`] round-trips this bit-exactly, and because the
/// container is the live link's frame codec, a recorded session can be
/// replayed through any frame decoder.
///
/// # Errors
///
/// Returns [`SystemError::Io`] on write failure.
pub fn write_session_record<W: Write>(
    session: &MonitoringSession,
    out: W,
) -> Result<(), SystemError> {
    write_record_parts(
        session.sample_rate,
        session.acquisition_start as u64,
        &session.raw,
        &session.calibrated,
        out,
    )
}

/// Writes a binary session record from its constituent parts — the
/// same format as [`write_session_record`], for producers that have a
/// sample stream but no [`MonitoringSession`] around it (the
/// historian's link recorder journaling live ingest, replay tools
/// re-chunking stored streams).
///
/// `raw` and `calibrated` must be the same length.
///
/// # Errors
///
/// Returns [`SystemError::Io`] on write failure and with
/// [`std::io::ErrorKind::InvalidInput`] on mismatched slice lengths.
pub fn write_record_parts<W: Write>(
    sample_rate: f64,
    acquisition_start: u64,
    raw: &[f64],
    calibrated: &[MillimetersHg],
    mut out: W,
) -> Result<(), SystemError> {
    use tonos_dsp::frame::{Frame, KIND_SESSION_DATA, KIND_SESSION_META};
    if raw.len() != calibrated.len() {
        return Err(SystemError::Io(
            std::io::ErrorKind::InvalidInput,
            format!(
                "record parts disagree: {} raw vs {} calibrated samples",
                raw.len(),
                calibrated.len()
            ),
        ));
    }
    let mut meta = Vec::with_capacity(24);
    meta.extend_from_slice(&sample_rate.to_le_bytes());
    meta.extend_from_slice(&acquisition_start.to_le_bytes());
    meta.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    let meta = Frame::bytes(KIND_SESSION_META, 0, 0, 0, meta)
        .expect("24-byte meta payload is within the frame limit");
    out.write_all(&meta.encode())?;
    let mut seq = 1u32;
    let mut buf = Vec::new();
    for (start, chunk) in raw
        .chunks(RECORD_CHUNK_SAMPLES)
        .enumerate()
        .map(|(i, c)| (i * RECORD_CHUNK_SAMPLES, c))
    {
        let mut payload = Vec::with_capacity(chunk.len() * 16);
        for (i, &r) in chunk.iter().enumerate() {
            payload.extend_from_slice(&r.to_le_bytes());
            payload.extend_from_slice(&calibrated[start + i].value().to_le_bytes());
        }
        let frame = Frame::bytes(KIND_SESSION_DATA, 0, seq, start as u64, payload)
            .expect("chunk payload is within the frame limit");
        seq = seq.wrapping_add(1);
        buf.clear();
        frame.encode_into(&mut buf);
        out.write_all(&buf)?;
    }
    Ok(())
}

/// Reads back a binary session record written by
/// [`write_session_record`], verifying every frame's CRC and the
/// meta-declared sample count.
///
/// # Errors
///
/// Returns [`SystemError::Io`] on read failure, and
/// [`SystemError::Io`] with [`std::io::ErrorKind::InvalidData`] when a
/// frame fails its CRC, frames are missing, or the layout is not a
/// session record.
pub fn read_session_record<R: Read>(mut input: R) -> Result<SessionRecord, SystemError> {
    use tonos_dsp::frame::{Frame, ParseOutcome, KIND_SESSION_DATA};
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    let mut pos = 0;
    let mut frames = Vec::new();
    while pos < bytes.len() {
        match Frame::parse(&bytes[pos..]) {
            ParseOutcome::Parsed { frame, consumed } => {
                pos += consumed;
                frames.push(frame);
            }
            ParseOutcome::NeedMore => {
                return Err(record_corrupt("session record ends mid-frame"));
            }
            ParseOutcome::Corrupt { reason } => {
                return Err(record_corrupt(format!(
                    "corrupt frame at byte {pos}: {reason:?}"
                )));
            }
        }
    }
    let Some((meta, data)) = frames.split_first() else {
        return Err(record_corrupt("empty session record"));
    };
    // The declared count sizes two allocations below, so it goes
    // through the shared checked gate before being trusted: a corrupt
    // or crafted meta frame declaring more samples than the record
    // could hold is rejected instead of panicking on a huge
    // `with_capacity`.
    let header = validate_record_meta(meta, bytes.len())?;
    let sample_rate = header.sample_rate;
    let acquisition_start = header.acquisition_start as usize;
    let samples = header.samples as usize;
    let mut raw = Vec::with_capacity(samples);
    let mut calibrated = Vec::with_capacity(samples);
    for frame in data {
        if frame.kind != KIND_SESSION_DATA {
            return Err(record_corrupt(format!(
                "unexpected frame kind {} in session record",
                frame.kind
            )));
        }
        if frame.clock as usize != raw.len() {
            return Err(record_corrupt(format!(
                "data frame at sample {} but {} samples read",
                frame.clock,
                raw.len()
            )));
        }
        let payload = frame.payload_bytes();
        if !payload.len().is_multiple_of(16) {
            return Err(record_corrupt("data frame payload is not whole samples"));
        }
        for pair in payload.chunks_exact(16) {
            raw.push(f64::from_le_bytes(pair[0..8].try_into().expect("8 bytes")));
            calibrated.push(MillimetersHg(f64::from_le_bytes(
                pair[8..16].try_into().expect("8 bytes"),
            )));
        }
    }
    if raw.len() != samples {
        return Err(record_corrupt(format!(
            "meta declared {samples} samples, record holds {}",
            raw.len()
        )));
    }
    Ok(SessionRecord {
        sample_rate,
        acquisition_start,
        raw,
        calibrated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::monitor::BloodPressureMonitor;
    use tonos_physio::patient::PatientProfile;

    fn session() -> MonitoringSession {
        BloodPressureMonitor::new(
            SystemConfig::paper_default(),
            PatientProfile::normotensive(),
        )
        .unwrap()
        .with_scan_window(120)
        .run(5.0)
        .unwrap()
    }

    #[test]
    fn io_errors_surface_as_typed_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let s = session();
        let err = write_session_record(&s, Broken).unwrap_err();
        assert!(matches!(err, SystemError::Io(std::io::ErrorKind::Other, _)));
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn binary_record_round_trips_bit_exactly() {
        let s = session();
        let mut buf = Vec::new();
        write_session_record(&s, &mut buf).unwrap();
        let record = read_session_record(buf.as_slice()).unwrap();
        assert_eq!(record.sample_rate, s.sample_rate);
        assert_eq!(record.acquisition_start, s.acquisition_start);
        // Bit-exact: f64 equality, not tolerance.
        assert_eq!(record.raw, s.raw);
        assert_eq!(record.calibrated, s.calibrated);
    }

    #[test]
    fn absurd_declared_sample_count_is_rejected_before_allocating() {
        use tonos_dsp::frame::{Frame, KIND_SESSION_META};
        // A CRC-valid meta frame declaring ~u64::MAX samples: the reader
        // must reject it as corrupt, not attempt the allocation.
        let mut meta = Vec::with_capacity(24);
        meta.extend_from_slice(&1000.0f64.to_le_bytes());
        meta.extend_from_slice(&0u64.to_le_bytes());
        meta.extend_from_slice(&u64::MAX.to_le_bytes());
        let frame = Frame::bytes(KIND_SESSION_META, 0, 0, 0, meta).unwrap();
        let err = read_session_record(frame.encode().as_slice()).unwrap_err();
        assert!(
            matches!(err, SystemError::Io(std::io::ErrorKind::InvalidData, _)),
            "{err}"
        );
    }

    #[test]
    fn corrupt_records_are_rejected_not_misread() {
        let s = session();
        let mut buf = Vec::new();
        write_session_record(&s, &mut buf).unwrap();
        // Flip one payload bit: the CRC must catch it.
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        let err = read_session_record(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, SystemError::Io(std::io::ErrorKind::InvalidData, _)),
            "{err}"
        );
        // Truncation is detected, not silently accepted.
        let err = read_session_record(buf[..buf.len() - 5].as_ref()).unwrap_err();
        assert!(matches!(
            err,
            SystemError::Io(std::io::ErrorKind::InvalidData, _)
        ));
        // Empty input is an error too.
        assert!(read_session_record([].as_slice()).is_err());
    }
}
