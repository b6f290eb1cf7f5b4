//! `tonos-fleet` — parallel multi-patient monitoring at scale.
//!
//! The paper's sensor monitors one artery. A ward monitors forty. This
//! crate runs many independent [`BloodPressureMonitor`] sessions
//! concurrently on a fixed pool of worker threads (std threads and
//! channels only — no runtime, no new dependencies), with three
//! guarantees the single-session stack cannot give:
//!
//! * **Isolation** — every session gets its own telemetry
//!   [`Registry`](tonos_telemetry::Registry) and owns all of its state;
//!   sessions cannot observe or corrupt each other.
//! * **Graceful failure** — a session that errors or outright panics is
//!   contained at the worker boundary and reported in the
//!   [`FleetReport`]; the rest of the fleet keeps monitoring.
//! * **Aggregate telemetry** — per-session registries are rolled up
//!   (counters summed, histograms pooled bucket-wise) into one
//!   fleet-level registry next to the engine's own session accounting,
//!   so ward-wide throughput, health ratios, and alarm fan-in read out
//!   of a single [`snapshot`](FleetEngine::snapshot).
//!
//! # Example
//!
//! Submitting real monitoring sessions (a few seconds of simulated
//! patient each — build with `--release` for fleet-scale runs):
//!
//! ```no_run
//! use tonos_core::stream::AlarmLimits;
//! use tonos_fleet::{FleetConfig, FleetEngine, SessionSpec};
//! use tonos_physio::patient::PatientProfile;
//!
//! let mut fleet = FleetEngine::spawn(FleetConfig::default());
//! for (bed, patient) in PatientProfile::all().into_iter().enumerate() {
//!     fleet.push(
//!         SessionSpec::new(format!("bed-{bed}"), patient)
//!             .with_duration(8.0)
//!             .with_alarms(AlarmLimits::adult()),
//!     );
//! }
//! let report = fleet.drain();
//! assert!(report.failures().is_empty());
//! println!("{report}");
//! println!("{}", fleet.registry().health());
//! ```
//!
//! The engine accepts arbitrary workloads too, which is also how its
//! failure isolation is exercised:
//!
//! ```
//! use tonos_fleet::{FleetConfig, FleetEngine, SessionOutcome};
//!
//! let mut fleet = FleetEngine::spawn(FleetConfig { workers: 2 });
//! let good = fleet.push_task("good", |ctx| {
//!     ctx.telemetry.counter("demo.work").inc();
//!     Err("not a real session".to_string())
//! });
//! let bad = fleet.push_task("bad", |_ctx| panic!("poisoned session"));
//!
//! let report = fleet.drain();
//! assert_eq!(report.len(), 2);
//! assert_eq!(report.failures().len(), 2); // both reported, none fatal
//! assert!(matches!(
//!     report.get(bad).unwrap().outcome,
//!     SessionOutcome::Panicked(_)
//! ));
//! // The failed session's telemetry still reached the fleet rollup.
//! assert_eq!(fleet.snapshot().counter("demo.work"), Some(1));
//! # let _ = good;
//! ```
//!
//! [`BloodPressureMonitor`]: tonos_core::monitor::BloodPressureMonitor

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod report;
pub mod session;

pub use engine::{
    ActorEvent, ActorHandle, ActorHandler, ChunkFull, FleetConfig, FleetEngine, SessionTask,
};
pub use report::{FleetReport, SessionResult};
pub use session::{SessionContext, SessionOutcome, SessionSpec, SessionSummary};
