//! Pins one seeded in-process monitoring session's output, the way
//! `device_stream_matches_its_golden_digest` in `tonos-link` pins the
//! wire, and the voltage-input characterization path. The bit-identity
//! proptests compare the chip against the same build's own per-sample
//! oracle, so they cannot see a change that moves both; these digests
//! can.

use tonos_core::config::SystemConfig;
use tonos_core::monitor::BloodPressureMonitor;
use tonos_core::readout::ReadoutSystem;
use tonos_mems::units::Volts;
use tonos_physio::patient::PatientProfile;

/// 64-bit FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn monitor_session_matches_its_golden_digest() {
    let patient = PatientProfile::normotensive().with_seed(0x5EED);
    let mut monitor = BloodPressureMonitor::new(SystemConfig::paper_default(), patient)
        .unwrap()
        .with_scan_window(150);
    let session = monitor.run(5.0).unwrap();
    let digest = fnv1a(
        session
            .raw
            .iter()
            .map(|x| x.to_bits())
            .chain(session.calibrated.iter().map(|p| p.value().to_bits())),
    );
    assert_eq!(session.raw.len(), 6_149);
    assert_eq!(session.calibrated.len(), session.raw.len());
    assert_eq!(digest, 0xCA81_E085_E6B7_9688);
}

/// Pins the auxiliary voltage input (the §3.1 characterization path)
/// through `acquire_voltage` at full precision: three calls on one
/// system, so modulator and decimator state carry from call to call.
#[test]
fn voltage_acquisition_matches_its_golden_digest() {
    let mut system = ReadoutSystem::new(SystemConfig::characterization_default()).unwrap();
    let volts: Vec<Volts> = (0..128_000)
        .map(|i| Volts(1.25 * (0.001 * f64::from(i)).sin()))
        .collect();
    let mut words = Vec::new();
    for _ in 0..3 {
        let out = system.acquire_voltage(&volts);
        assert_eq!(out.len(), 1_000);
        words.extend(out.iter().map(|x| x.to_bits()));
    }
    assert_eq!(fnv1a(words), 0x441A_9CB6_9A38_3E26);
}
