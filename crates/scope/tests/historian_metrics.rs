//! The historian's telemetry surfaced through the scope plane: every
//! `historian.*` instrument must show up in the `/metrics` exposition
//! and be capturable by the flight recorder — the storage layer is
//! observable through the same endpoints as the rest of the system.

use std::time::Duration;

use tonos_historian::{Historian, HubConfig, MeasurementHub, StoreConfig};
use tonos_link::http::{body, request};
use tonos_mems::units::MillimetersHg;
use tonos_scope::{FlightRecorder, RecorderConfig, ScopeServer, ScopeSources};
use tonos_telemetry::{names, Registry};

#[test]
fn historian_counters_reach_metrics_and_the_flight_recorder() {
    let dir = tonos_historian::scratch_dir("scope-metrics");
    let registry = Registry::new();
    let telemetry = registry.telemetry();

    // Drive the store through a real session so every instrument
    // family moves: appends, seals, reads, tier records, recovery.
    let config = StoreConfig {
        segment_bytes: 32 * 1024,
        tier_block: 256,
        ..StoreConfig::default()
    };
    let (historian, _) = Historian::open(&dir, config, &telemetry).unwrap();
    let hub = MeasurementHub::new(historian.clone(), HubConfig::default(), &telemetry);
    let id = hub.prepare(1);
    hub.start(id).unwrap();
    for k in 0..20u64 {
        let raw: Vec<f64> = (0..512).map(|i| (k * 512 + i) as f64).collect();
        let cal: Vec<MillimetersHg> = raw.iter().map(|&r| MillimetersHg(r * 0.1)).collect();
        historian
            .append(1, id, k * 512, 1000.0, &raw, &cal)
            .unwrap();
    }
    historian.compact().unwrap();
    let reader = historian.reader();
    reader.read_range(1, id, 0, 20 * 512, 64).unwrap();

    let recorder = std::sync::Arc::new(std::sync::Mutex::new(FlightRecorder::new(
        registry.clone(),
        RecorderConfig {
            interval: Duration::from_millis(1),
            retention: Duration::from_secs(5),
        },
    )));
    recorder.lock().unwrap().tick();

    let server = ScopeServer::bind(
        "127.0.0.1:0",
        ScopeSources::registry(registry).with_recorder(std::sync::Arc::clone(&recorder)),
    )
    .unwrap();
    let response = request(server.local_addr(), "GET", "/metrics", "").expect("scope request");
    let body = body(&response);

    // Counters (`_total`), gauges (bare), and the fsync histogram all
    // present and nonzero where the workload moved them.
    for metric in [
        "tonos_historian_records_appended_total",
        "tonos_historian_bytes_appended_total",
        "tonos_historian_reads_total",
        "tonos_historian_bytes_read_total",
        "tonos_historian_segments_sealed_total",
        "tonos_historian_compactions_total",
        "tonos_historian_tier_records_total",
        "tonos_historian_sessions_prepared_total",
        "tonos_historian_sessions_started_total",
    ] {
        let line = body
            .lines()
            .find(|l| l.starts_with(metric) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{metric} missing from /metrics:\n{body}"));
        let value: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(value > 0.0, "{metric} never moved: {line}");
    }
    for gauge in ["tonos_historian_segments", "tonos_historian_bytes"] {
        assert!(
            body.lines()
                .any(|l| l.starts_with(gauge) && !l.contains("_total")),
            "{gauge} missing from /metrics"
        );
    }
    assert!(
        body.contains("tonos_historian_fsync_s_bucket"),
        "fsync histogram missing"
    );
    // The store row of the ledger: append and ranged-read spans, each
    // counting what the workload did.
    for (span, at_least) in [
        ("tonos_span_store_append_s_count", 20.0),
        ("tonos_span_store_read_range_s_count", 1.0),
    ] {
        let line = body
            .lines()
            .find(|l| l.starts_with(span))
            .unwrap_or_else(|| panic!("{span} missing from /metrics:\n{body}"));
        let value: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(value >= at_least, "{span} counted too few: {line}");
    }

    // The flight recorder captured the same series by name.
    let rec = recorder.lock().unwrap();
    let series = rec.series_names();
    for name in [
        names::HISTORIAN_APPENDS,
        names::HISTORIAN_SEALS,
        names::HISTORIAN_COMPACTIONS,
        names::HISTORIAN_SESSIONS_PREPARED,
    ] {
        assert!(
            series.iter().any(|s| s == name),
            "{name} missing from recorder series: {series:?}"
        );
    }
    let appended = rec.counter_series(names::HISTORIAN_APPENDS);
    assert!(!appended.is_empty());
    assert!(appended.last().unwrap().1 >= 20);
    drop(rec);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
