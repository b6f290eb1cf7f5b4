//! End-to-end fleet tests: real monitoring sessions on a real worker
//! pool, failure isolation, and telemetry rollup accounting.

use tonos_core::stream::AlarmLimits;
use tonos_fleet::{FleetConfig, FleetEngine, SessionOutcome, SessionSpec, SessionSummary};
use tonos_physio::patient::PatientProfile;
use tonos_telemetry::names;

/// A short-but-real session spec (150-frame scan, 4 s of monitoring)
/// that keeps debug-build test time reasonable.
fn quick(label: &str, patient: PatientProfile) -> SessionSpec {
    SessionSpec::new(label, patient)
        .with_duration(4.0)
        .with_scan_window(150)
}

#[test]
fn fleet_runs_real_sessions_and_rolls_up_telemetry() {
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 2 });
    assert_eq!(fleet.workers(), 2);
    fleet.push(quick("bed-0", PatientProfile::normotensive()));
    // Sensitive limits so the hypertensive patient (165/105) reliably
    // alarms within a 4 s session.
    fleet.push(
        quick("bed-1", PatientProfile::hypertensive()).with_alarms(AlarmLimits {
            systolic_high: 140.0,
            systolic_low: 60.0,
            qualifying_beats: 2,
            signal_loss_s: 3.0,
        }),
    );
    assert_eq!(fleet.pending(), 2);

    let report = fleet.drain();
    assert_eq!(fleet.pending(), 0);
    assert_eq!(report.len(), 2);
    assert!(report.failures().is_empty(), "{report}");
    for (result, summary) in report.completed() {
        assert!(summary.beats >= 3, "#{} beats {}", result.id, summary.beats);
        assert!(summary.pulse_rate_bpm > 40.0 && summary.pulse_rate_bpm < 180.0);
        assert!(summary.samples > 1000, "4 s at 1 kS/s");
        assert!(summary.chip_power_w > 0.0);
    }
    // Alarm fan-in: the hypertensive bed screened positive.
    let hyper = report.get(1).unwrap().outcome.summary().unwrap();
    assert!(hyper.alarms > 0, "hypertensive session raised no alarms");
    assert_eq!(report.total_alarms(), hyper.alarms);

    // Fleet-level registry: engine accounting plus rolled-up session
    // instruments in one snapshot.
    let agg = fleet.snapshot();
    assert_eq!(agg.counter(names::FLEET_SESSIONS_STARTED), Some(2));
    assert_eq!(agg.counter(names::FLEET_SESSIONS_COMPLETED), Some(2));
    assert_eq!(agg.counter(names::FLEET_SESSIONS_FAILED), None);
    let frames = agg.counter(names::READOUT_FRAMES_IN).unwrap();
    assert!(frames > 8000, "two 4 s sessions at 1 kHz, got {frames}");
    assert_eq!(
        agg.counter(names::ANALYZER_ALARMS),
        Some(hyper.alarms as u64),
        "rolled-up alarm counter must match the report's fan-in"
    );
    let wall = agg.histogram(names::SPAN_FLEET_SESSION).unwrap();
    assert_eq!(wall.count, 2);
    // The fleet health report reads like a single session's, fleet-wide.
    let health = fleet.registry().health();
    assert_eq!(health.frames_in, frames);
    assert!(health.beats >= 6);
}

#[test]
fn session_criticals_reach_the_fleet_journal_with_their_timestamps() {
    use std::time::Duration;
    use tonos_telemetry::Severity;

    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 2 });
    fleet.push_task("bed-crit", |ctx| {
        // Journal with explicit session-clock timestamps so the test can
        // assert exact preservation through the rollup.
        ctx.telemetry.event_at(
            Duration::from_millis(1500),
            Severity::Critical,
            "analyzer",
            || "sustained hypertension".into(),
        );
        ctx.telemetry.event_at(
            Duration::from_millis(2750),
            Severity::Warning,
            "link",
            || "gap concealed".into(),
        );
        ctx.telemetry
            .event(Severity::Info, "monitor", || "chatter".into());
        Ok(SessionSummary::from_stream(0, 0.0, 0.0, 0.0, 0, 0.0, 0))
    });
    let report = fleet.drain();
    assert!(report.failures().is_empty(), "{report}");

    let agg = fleet.snapshot();
    assert_eq!(agg.counter(names::FLEET_CRITICAL_EVENTS), Some(1));
    assert_eq!(agg.counter(names::FLEET_WARNING_EVENTS), Some(1));
    // The events themselves were re-journaled — with session-clock
    // timestamps, sources, and messages intact — while the info-level
    // chatter was dropped at the fleet boundary.
    let crit = agg
        .events
        .iter()
        .find(|e| e.severity == tonos_telemetry::Severity::Critical)
        .expect("critical event in the fleet journal");
    assert_eq!(crit.at, Duration::from_millis(1500));
    assert_eq!(crit.source, "analyzer");
    assert_eq!(crit.message, "sustained hypertension");
    let warn = agg
        .events
        .iter()
        .find(|e| e.severity == tonos_telemetry::Severity::Warning)
        .expect("warning event in the fleet journal");
    assert_eq!(warn.at, Duration::from_millis(2750));
    assert!(!agg.events.iter().any(|e| e.message == "chatter"));
}

#[test]
fn a_poisoned_session_does_not_take_down_the_fleet() {
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 2 });
    fleet.push(quick("bed-ok", PatientProfile::normotensive()));
    let panicker = fleet.push_task("bed-poisoned", |ctx| {
        ctx.telemetry.counter("poison.progress").add(7);
        panic!("simulated driver bug");
    });
    let failer = fleet.push_task(
        "bed-misconfigured",
        |_ctx| Err("cuff not found".to_string()),
    );

    let report = fleet.drain();
    assert_eq!(report.len(), 3);
    assert_eq!(report.completed().count(), 1);
    let failures = report.failures();
    assert_eq!(failures.len(), 2);
    match &report.get(panicker).unwrap().outcome {
        SessionOutcome::Panicked(msg) => assert!(msg.contains("simulated driver bug")),
        other => panic!("expected panic outcome, got {other:?}"),
    }
    assert_eq!(
        report.get(failer).unwrap().outcome.error(),
        Some("cuff not found")
    );

    let agg = fleet.snapshot();
    assert_eq!(agg.counter(names::FLEET_SESSIONS_COMPLETED), Some(1));
    assert_eq!(agg.counter(names::FLEET_SESSIONS_FAILED), Some(1));
    assert_eq!(agg.counter(names::FLEET_SESSIONS_PANICKED), Some(1));
    // Telemetry the panicking session recorded before dying still
    // reached the rollup — sessions are isolated, not discarded.
    assert_eq!(agg.counter("poison.progress"), Some(7));
    // And the pool is still healthy: it runs new work after the panic.
    fleet.push(quick("bed-after", PatientProfile::hypotensive()));
    let second = fleet.drain();
    assert_eq!(second.len(), 1);
    assert!(second.failures().is_empty());
}

#[test]
fn fleet_sessions_match_single_thread_runs_exactly() {
    // The same seeded spec through the pool and on the calling thread
    // must agree to the bit: parallelism adds no nondeterminism.
    let spec = quick("bed-x", PatientProfile::exercise());

    let mut monitor = tonos_core::monitor::BloodPressureMonitor::new(spec.config, spec.patient)
        .unwrap()
        .with_scan_window(150);
    let session = monitor.run(spec.duration_s).unwrap();
    let reference = SessionSummary::from_session(&session, 0);

    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 3 });
    for _ in 0..3 {
        fleet.push(spec.clone());
    }
    let report = fleet.drain();
    assert!(report.failures().is_empty());
    for (_, summary) in report.completed() {
        assert_eq!(summary, &reference);
    }
}

#[test]
fn shutdown_drains_and_ids_stay_monotonic() {
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 1 });
    let a = fleet.push_task("a", |_| Err("x".into()));
    let first = fleet.drain();
    assert_eq!(first.len(), 1);
    let b = fleet.push_task("b", |_| Err("y".into()));
    assert!(b > a, "ids keep increasing across drains");
    let report = fleet.shutdown();
    assert_eq!(report.len(), 1);
    assert_eq!(report.sessions[0].id, b);
}

#[test]
fn actors_preserve_chunk_order_and_summarize_at_close() {
    // Many actors, few workers: chunk actors must interleave on the
    // pool without losing per-actor ordering, and an idle actor must
    // not occupy a worker (with 64 actors on 2 workers, the test would
    // deadlock if it did).
    use tonos_fleet::ActorEvent;
    const ACTORS: usize = 64;
    const CHUNKS: u64 = 50;
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 2 });
    let mut handles = Vec::new();
    for a in 0..ACTORS {
        let mut expect = 0u64;
        let handle = fleet.open_actor(format!("actor-{a}"), 8, move |event, ctx| {
            match event {
                ActorEvent::Chunk(bytes) => {
                    // Each chunk carries its sequence number; any
                    // reordering or cross-actor bleed trips this.
                    let got = u64::from_le_bytes(bytes.try_into().unwrap());
                    assert_eq!(got, expect, "chunks out of order");
                    expect += 1;
                    ctx.telemetry.counter("actor.chunks").inc();
                    None
                }
                ActorEvent::Closed => Some(Ok(SessionSummary::from_stream(
                    0,
                    0.0,
                    0.0,
                    0.0,
                    expect as usize,
                    1.0,
                    0,
                ))),
            }
        });
        handles.push(handle);
    }
    // Interleave pushes across actors; retry when a bounded queue is
    // momentarily full (that's backpressure doing its job).
    for seq in 0..CHUNKS {
        for handle in &handles {
            let mut chunk = seq.to_le_bytes().to_vec();
            while let Err(tonos_fleet::ChunkFull(back)) = handle.try_push_chunk(chunk) {
                chunk = back;
                std::thread::yield_now();
            }
        }
    }
    for handle in &handles {
        handle.close();
    }
    drop(handles);
    let report = fleet.drain();
    assert_eq!(report.len(), ACTORS);
    assert!(report.failures().is_empty(), "{:?}", report.failures());
    for (_, summary) in report.completed() {
        assert_eq!(summary.samples as u64, CHUNKS);
    }
    // Per-actor registries rolled up: every chunk counted exactly once.
    assert_eq!(
        fleet.snapshot().counter("actor.chunks"),
        Some(ACTORS as u64 * CHUNKS)
    );
}

#[test]
fn a_panicking_actor_is_contained_and_queue_rejects_afterwards() {
    use tonos_fleet::ActorEvent;
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 1 });
    let bad = fleet.open_actor("bad", 4, |event, _ctx| match event {
        ActorEvent::Chunk(_) => panic!("poisoned chunk"),
        ActorEvent::Closed => Some(Err("unreachable".into())),
    });
    let good = fleet.open_actor("good", 4, |event, _ctx| match event {
        ActorEvent::Chunk(_) => None,
        ActorEvent::Closed => Some(Ok(SessionSummary::from_stream(0, 0.0, 0.0, 0.0, 1, 1.0, 0))),
    });
    bad.try_push_chunk(vec![1]).unwrap();
    // The panic lands asynchronously; pushes eventually bounce off the
    // finished actor instead of queueing into the void.
    let mut rejected = false;
    for _ in 0..1_000 {
        if bad.try_push_chunk(vec![2]).is_err() {
            rejected = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(rejected, "finished actor kept accepting chunks");
    good.try_push_chunk(vec![3]).unwrap();
    good.close();
    bad.close();
    drop((good, bad));
    let report = fleet.drain();
    assert_eq!(report.len(), 2);
    let outcomes: Vec<_> = report
        .sessions
        .iter()
        .map(|s| {
            (
                s.label.clone(),
                matches!(s.outcome, SessionOutcome::Panicked(_)),
            )
        })
        .collect();
    assert!(outcomes.contains(&("bad".to_string(), true)));
    assert!(outcomes.contains(&("good".to_string(), false)));
}

#[test]
fn dropping_an_actor_handle_closes_the_session() {
    use tonos_fleet::ActorEvent;
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 1 });
    let handle = fleet.open_actor("dropped", 4, |event, _ctx| match event {
        ActorEvent::Chunk(_) => None,
        ActorEvent::Closed => Some(Ok(SessionSummary::from_stream(0, 0.0, 0.0, 0.0, 7, 1.0, 0))),
    });
    handle.try_push_chunk(vec![0]).unwrap();
    drop(handle); // no explicit close(): drop must stand in for it
    let report = fleet.drain();
    assert_eq!(report.len(), 1);
    assert_eq!(report.completed().next().unwrap().1.samples, 7);
}

#[test]
fn actor_scheduling_never_double_runs_a_session_under_contention() {
    // Stress loop: monitoring sessions and chunk actors contend for the
    // same four workers. Two invariants prove no session ever runs on
    // two workers concurrently:
    //   1. every actor handler flags reentry (the at-most-one-worker
    //      guarantee) — any violation fails the drain via a panic;
    //   2. every label reports exactly once.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use tonos_fleet::ActorEvent;

    const ROUNDS: usize = 2;
    const PER_ROUND: usize = 8;
    let mut fleet = FleetEngine::spawn(FleetConfig { workers: 4 });

    let reentered = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for a in 0..4 {
        let busy = Arc::new(AtomicBool::new(false));
        let reentered = Arc::clone(&reentered);
        let handle = fleet.open_actor(format!("actor-{a}"), 64, move |event, _ctx| match event {
            ActorEvent::Chunk(_) => {
                if busy.swap(true, Ordering::SeqCst) {
                    reentered.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                busy.store(false, Ordering::SeqCst);
                None
            }
            ActorEvent::Closed => {
                Some(Ok(SessionSummary::from_stream(0, 0.0, 0.0, 0.0, 0, 1.0, 0)))
            }
        });
        handles.push(handle);
    }

    let mut pushed = 0;
    for round in 0..ROUNDS {
        for i in 0..PER_ROUND {
            let seed = 500 + (round * PER_ROUND + i) as u64;
            fleet.push(quick(
                &format!("r{round}-s{i}"),
                PatientProfile::normotensive().with_seed(seed),
            ));
            pushed += 1;
            // Interleave actor chunks with session pushes so actor
            // dispatches and sessions genuinely contend; a full queue
            // (backpressure) is fine here.
            for h in &handles {
                let _ = h.try_push_chunk(vec![round as u8, i as u8]);
            }
        }
        fleet.poll_finished();
    }
    for h in &handles {
        h.close();
    }
    drop(handles);
    let report = fleet.drain();

    let total = pushed + 4; // sessions plus the four actors
    assert_eq!(report.len(), total);
    assert!(report.failures().is_empty(), "{report}");
    assert_eq!(
        reentered.load(Ordering::SeqCst),
        0,
        "an actor handler ran on two workers at once"
    );

    let mut labels: Vec<&str> = report.sessions.iter().map(|s| s.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), total, "a session reported twice");

    let agg = fleet.snapshot();
    assert_eq!(
        agg.counter(names::FLEET_SESSIONS_STARTED),
        Some(total as u64)
    );
    assert_eq!(
        agg.counter(names::FLEET_SESSIONS_COMPLETED),
        Some(total as u64)
    );
}
