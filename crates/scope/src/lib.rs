//! `tonos-scope` — the live telemetry plane: flight recorder, metrics
//! exposition endpoint, and per-link health queries.
//!
//! `tonos-telemetry` gives every pipeline a registry of counters,
//! gauges, histograms, and a journal; `tonos-link` runs a fleet of
//! ingest sessions against it. What was missing is the *operator's*
//! side: a way to watch a live deployment without stopping it. This
//! crate closes that loop with two pieces, both `std`-only:
//!
//! * [`FlightRecorder`] — a bounded ring of periodic telemetry frames
//!   over one [`Registry`](tonos_telemetry::Registry), change-compressed
//!   (idle ticks cost a timestamp) and clock-injected (deterministic
//!   under `FakeClock`). Replay APIs reconstruct any counter, gauge, or
//!   histogram series over the retained window — the last two minutes of
//!   history when an alarm pages, with a hard memory ceiling.
//! * [`ScopeServer`] — an HTTP/1.1 endpoint on
//!   [`tonos_link::http`] serving
//!   `/metrics` (Prometheus text exposition 0.0.4), `/health` (JSON
//!   summary), `/links` (per-connection
//!   [`LinkStatus`](tonos_link::LinkStatus) JSON, mid-ingest included,
//!   via a [`LinkDirectory`](tonos_link::LinkDirectory)), and `/flight`
//!   (recorder ring status). Scrapes never mutate the observed
//!   registry. With a recorder attached, the server ticks it on a
//!   timer thread of its own, whether or not anyone is scraping.
//!
//! Wiring it to a running ingest server is three lines:
//!
//! ```no_run
//! use tonos_link::{LinkServer, LinkServerConfig};
//! use tonos_scope::{ScopeServer, ScopeSources};
//!
//! let link = LinkServer::bind("127.0.0.1:9000", LinkServerConfig::default())?;
//! let sources = ScopeSources::registry(link.fleet_registry().clone())
//!     .with_directory(link.directory());
//! let scope = ScopeServer::bind("127.0.0.1:9090", sources)?;
//! println!("scrape http://{}/metrics", scope.local_addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recorder;
pub mod server;

pub use recorder::{FlightRecorder, RecorderConfig, SeriesFrame};
pub use server::{ScopeServer, ScopeSources};
