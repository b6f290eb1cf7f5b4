//! The chip-to-host link: what happens to the ΣΔ bitstream between the
//! die and the computer.
//!
//! The paper's measurement setup streams the modulator bitstream "over
//! USB to a computer system" (§2.2) and decimates on the host. Every
//! crate below this one pretends that hop is perfect — the modulator's
//! packed words flow straight into the decimation filter by function
//! call. This crate models the hop itself, split at the same boundary
//! the paper draws:
//!
//! * **Device side** ([`FrameEncoder`], [`DeviceSimulator`]): serialize
//!   packed ΣΔ chunks ([`tonos_dsp::bits::PackedBits`]) into
//!   self-delimiting wire frames ([`tonos_dsp::frame`]) carrying the
//!   element id, a sequence number, and the modulator clock index of
//!   the first payload bit.
//! * **Lossy transport** ([`FaultyTransport`]): a seeded, deterministic
//!   byte-stream mangler — bit flips, chunk drops, truncation,
//!   duplication, reordering, stalls — for exercising the receiver the
//!   way a flaky cable would.
//! * **Host side** ([`FrameDecoder`], [`HostPipeline`]): a push-based
//!   decoder that resynchronizes after corruption, verifies CRCs, and
//!   detects sequence gaps; above it, a pipeline that decimates clean
//!   payloads and *conceals* gaps under an explicit [`GapPolicy`] —
//!   concealed spans are flagged all the way into the
//!   [`OnlineAnalyzer`](tonos_core::stream::OnlineAnalyzer), where they
//!   suppress pressure alarms rather than silently firing them.
//! * **Stream provenance** ([`LinkKey`]): a keyed-MAC (SipHash-2-4)
//!   hello handshake — devices introduce themselves with a tagged
//!   `device_id ‖ nonce`, hosts verify against a pre-shared key, and a
//!   `require_auth` pipeline drops (and counts) data frames until a
//!   verified hello arrives.
//! * **Recovery** (reorder window + NAK retransmit): the decoder can
//!   buffer out-of-order frames inside a bounded window and request
//!   missing spans back from the device (`KIND_NAK`), which replays the
//!   exact original bytes from its retransmit history. A stream
//!   recovered within the window is **bit-identical** to a lossless
//!   one; beyond it, recovery degrades to the explicit-gap machinery.
//!   The byte-level rules live in the repo's `PROTOCOL.md`.
//! * **Ingest server** ([`LinkServer`]): a TCP listener whose single
//!   IO thread blocks in Unix `poll(2)` until the listener or a socket
//!   is readable, and multiplexes every connection onto per-connection
//!   chunk actors on the fleet worker pool, with bounded per-connection
//!   queues, a slow-consumer disconnect policy, and best-effort control
//!   write-back (acks, NAKs) on each socket. The ingest server needs
//!   Unix: `poll` and `listen` are bound from the C library `std`
//!   already links, in one private module that holds the crate's only
//!   `unsafe`.
//! * **Live queries** ([`LinkDirectory`]): every connection publishes
//!   its [`LinkHealth`] into a directory entry after each chunk, so
//!   operators (and the `tonos-scope` endpoint's `/links`) can inspect
//!   per-connection counters *while* devices are ingesting instead of
//!   waiting for the fleet rollup at disconnect.
//!
//! The invariant the whole crate is built around: **no silent
//! corruption**. Every byte the transport damages either never reaches
//! the pipeline (CRC rejection) or reaches it flagged (gap
//! concealment); fault-free transport is bit-identical to the
//! in-process path.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(unix))]
compile_error!("tonos-link's ingest server needs Unix poll(2)");

pub mod auth;
pub mod decode;
pub mod device;
pub mod encode;
pub mod fault;
pub mod http;
pub mod pipeline;
pub mod query;
#[cfg(unix)]
#[allow(unsafe_code)]
mod ready;
pub mod server;

pub use auth::LinkKey;
pub use decode::{DecoderStats, FrameDecoder, LinkEvent};
pub use device::DeviceSimulator;
pub use encode::FrameEncoder;
pub use fault::{FaultConfig, FaultyTransport};
pub use pipeline::{GapPolicy, HostPipeline, HostSample, LinkCalibration, LinkHealth, SampleFlag};
pub use query::{LinkAggregate, LinkDirectory, LinkEntry, LinkStatus};
pub use server::{IngestTap, LinkServer, LinkServerConfig, TapSession};
