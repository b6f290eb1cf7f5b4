//! An ingest server: one TCP connection per device, one
//! [`HostPipeline`] per connection, multiplexed by a single IO thread
//! over the fleet's worker pool.
//!
//! ## Shape
//!
//! * **One IO thread, any number of links.** The listener and every
//!   accepted socket are non-blocking; the IO thread blocks in Unix
//!   `poll(2)` until the listener or a socket is readable, reads the
//!   ready sockets, accepts new connections, and hands each chunk to
//!   that connection's **chunk actor** on the [`FleetEngine`] pool
//!   ([`FleetEngine::open_actor`]). No thread-per-connection anywhere:
//!   thread count is `1 + workers`, constant from 1 link to 10k (the
//!   loopback sweep in `BENCH_link.json` gates exactly this). The
//!   listener asks for a 4096-deep accept queue, so a burst of devices
//!   connecting at once queues in the kernel.
//! * **Wakes are few.** With nothing to read the wait lasts 100 ms,
//!   the tick on which finished sessions roll up. After a wake that
//!   moved bytes the loop pauses 1 ms, so a busy link's packets are
//!   read a few at a time rather than one wake per packet, while a link
//!   that has been quiet is read the moment its first byte lands.
//!   Every wake counts into [`names::LINK_IO_WAKES`].
//! * **Ordering without pinning.** A chunk actor is run by at most one
//!   worker at a time and sees chunks in push order, so each
//!   connection's pipeline state is single-threaded even though any
//!   worker may run it. Idle connections cost no worker at all —
//!   that is what lets a fixed pool carry thousands of links.
//! * **Backpressure is bounded.** Each actor's chunk queue is bounded.
//!   When a connection's queue is full the IO thread simply stops
//!   reading that socket (TCP pushes back on the device) and retries
//!   the refused chunk every 1 ms; if the queue stays full past a grace
//!   window the connection is evicted, bumping
//!   [`names::LINK_SLOW_CONSUMER_DISCONNECTS`] and journaling the
//!   eviction — an unbounded queue on a medical ingest path is a
//!   slow-motion out-of-memory abort.
//! * **The wire is bidirectional.** Each pipeline's control traffic —
//!   handshake acks and NAK retransmit requests
//!   ([`HostPipeline::drain_control_into`]) — is written back to the
//!   device best-effort on the same socket after every chunk. A lost
//!   NAK is re-requested on the next chunk; the device's decoder
//!   resyncs across any partial write.
//! * **Shutdown is cooperative.** [`LinkServer::shutdown`] flips a stop
//!   flag and wakes the IO thread by connecting to the server itself;
//!   the loop checks the flag before it accepts, so that connection
//!   never becomes a session. It then closes every actor (queued chunks
//!   are still processed first), and the fleet engine is drained for
//!   its report and merged telemetry snapshot.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tonos_core::stream::AlarmLimits;
use tonos_dsp::decimator::DecimatorConfig;
use tonos_fleet::{ActorEvent, ActorHandle, ChunkFull, FleetConfig, FleetEngine, FleetReport};
use tonos_telemetry::{names, Histogram, Registry, Severity, Telemetry, TelemetrySnapshot};

use crate::auth::LinkKey;
use crate::http::{wake_addr, ACCEPT_BACKOFF, WAKE_TIMEOUT};
use crate::pipeline::{GapPolicy, HostPipeline, HostSample, LinkCalibration};
use crate::query::{LinkDirectory, LinkEntry, LinkStatus};
use crate::ready::{deepen_backlog, PollSet};

/// Identity of one ingesting connection as seen by an [`IngestTap`].
#[derive(Debug, Clone)]
pub struct TapSession {
    /// Fleet session id of the connection's chunk actor.
    pub conn_id: u64,
    /// Peer address string.
    pub peer: String,
    /// Device id from the connection's accepted hello handshake
    /// (`None` until one lands) — the routing key for consumers that
    /// track devices rather than sockets.
    pub device_id: Option<u64>,
    /// Output sample rate of the connection's pipeline, Hz.
    pub output_rate_hz: f64,
}

/// A consumer of every accepted connection's decoded output stream —
/// how the historian journals live ingest without the server knowing
/// anything about storage.
///
/// Calls arrive on fleet worker threads, one connection at a time per
/// connection (the chunk-actor ordering guarantee), but concurrently
/// across connections: implementations must be `Sync` and should do
/// bounded work per call (buffer and hand off, not block).
pub trait IngestTap: Send + Sync {
    /// Called after each ingested chunk with the samples it produced
    /// (may be empty when a chunk carried only control traffic).
    fn on_samples(&self, session: &TapSession, samples: &[HostSample]);

    /// Called exactly once when the connection's actor closes.
    fn on_closed(&self, session: &TapSession);
}

/// Socket read size and actor chunk granularity.
const READ_CHUNK: usize = 8 * 1024;

/// Reads taken from one socket per wake before moving on — fairness
/// cap so one firehose device cannot starve its neighbours.
const READS_PER_SWEEP: usize = 4;

/// Accepts taken per wake before the sockets get a turn.
const ACCEPTS_PER_SWEEP: usize = 64;

/// Readiness wait with nothing parked: the tick on which finished
/// sessions roll up into the fleet registry.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Readiness wait while a refused chunk is parked: the cadence of its
/// retries and of the grace-window check.
const PARKED_TICK: Duration = Duration::from_millis(1);

/// Pause after a wake that moved bytes, so a busy link is read a few
/// packets at a time instead of one wake per packet.
const WAKE_SPACING: Duration = Duration::from_millis(1);

/// Ingest server configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkServerConfig {
    /// Fleet worker threads (0 = one per hardware thread). Connections
    /// are chunk actors — idle links occupy no worker — so the pool
    /// stays this size no matter how many devices connect.
    pub workers: usize,
    /// Bounded per-connection actor queue, in read chunks (≥ 1).
    pub queue_chunks: usize,
    /// How long a connection's queue may stay full — with the IO loop
    /// not reading its socket — before it is evicted as a slow
    /// consumer.
    pub slow_consumer_grace_ms: u64,
    /// Decimator configuration for every connection's pipeline.
    pub decimator: DecimatorConfig,
    /// Raw→mmHg calibration applied to every connection.
    pub calibration: LinkCalibration,
    /// Gap-concealment policy.
    pub policy: GapPolicy,
    /// Online alarm screening limits (`None` = no analyzer).
    pub alarm_limits: Option<AlarmLimits>,
    /// Decoder reorder window per connection, in frames (0 disables
    /// reordering and NAK-driven retransmit requests).
    pub reorder_window: u32,
    /// Pre-shared key for verifying device handshakes (`None` leaves
    /// hellos unverified).
    pub auth_key: Option<LinkKey>,
    /// With a key set: drop (and count) data frames until a verified
    /// handshake arrives on each connection.
    pub require_auth: bool,
}

impl Default for LinkServerConfig {
    /// Paper-default decimation, identity calibration, hold-last
    /// concealment, adult alarm limits, a 32-frame reorder window, no
    /// handshake enforcement.
    fn default() -> Self {
        LinkServerConfig {
            workers: 0,
            queue_chunks: 64,
            slow_consumer_grace_ms: 200,
            decimator: DecimatorConfig::paper_default(),
            calibration: LinkCalibration::identity(),
            policy: GapPolicy::HoldLast,
            alarm_limits: Some(AlarmLimits::adult()),
            reorder_window: 32,
            auth_key: None,
            require_auth: false,
        }
    }
}

/// A running ingest server.
///
/// Bind with [`LinkServer::bind`], learn the ephemeral port from
/// [`LinkServer::local_addr`], and finish with [`LinkServer::shutdown`]
/// for the fleet report and merged telemetry.
#[derive(Debug)]
pub struct LinkServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
    fleet_registry: Registry,
    directory: Arc<LinkDirectory>,
    io_thread: Option<JoinHandle<(FleetReport, TelemetrySnapshot)>>,
}

impl LinkServer {
    /// Binds and starts accepting. `addr` follows
    /// [`TcpListener::bind`] conventions (`"127.0.0.1:0"` picks an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind(addr: &str, config: LinkServerConfig) -> std::io::Result<Self> {
        LinkServer::bind_with_tap(addr, config, None)
    }

    /// [`LinkServer::bind`] with an [`IngestTap`] attached: every
    /// connection's decoded samples are offered to `tap` after each
    /// chunk, and the tap is told when each connection closes. The tap
    /// rides outside [`LinkServerConfig`] (which stays `Copy`).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O failures.
    pub fn bind_with_tap(
        addr: &str,
        config: LinkServerConfig,
        tap: Option<Arc<dyn IngestTap>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        deepen_backlog(&listener)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));
        let workers = if config.workers == 0 {
            FleetConfig::default().workers
        } else {
            config.workers
        };
        // The engine lives on the IO thread, but its registry and the
        // connection directory are created here so the server (and
        // anything it hands them to, like a scope endpoint) can query
        // live telemetry without touching the IO thread.
        let engine = FleetEngine::spawn(FleetConfig { workers });
        let fleet_registry = engine.registry().clone();
        let directory = Arc::new(LinkDirectory::new());
        let stop_io = Arc::clone(&stop);
        let conn_io = Arc::clone(&connections);
        let dir_io = Arc::clone(&directory);
        let io_thread = thread::spawn(move || {
            io_loop(&listener, engine, &dir_io, &config, tap, &stop_io, &conn_io)
        });
        Ok(LinkServer {
            addr: local,
            stop,
            connections,
            fleet_registry,
            directory,
            io_thread: Some(io_thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far — lets tests and operators confirm
    /// devices landed before shutting down.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// IO threads multiplexing the sockets — always 1, independent of
    /// connection count. Exposed so benchmarks and operators can assert
    /// the no-thread-per-connection property.
    pub fn io_threads(&self) -> usize {
        1
    }

    /// The fleet-level registry backing this server: engine counters
    /// live from the start, per-session telemetry folded in at rollup.
    /// Scrape it (e.g. through a `tonos-scope` endpoint) while the
    /// server runs.
    pub fn fleet_registry(&self) -> &Registry {
        &self.fleet_registry
    }

    /// The live connection directory: every accepted connection's
    /// [`LinkStatus`], updated per ingested chunk.
    pub fn directory(&self) -> Arc<LinkDirectory> {
        Arc::clone(&self.directory)
    }

    /// Point-in-time status of every connection, mid-ingest included.
    pub fn links(&self) -> Vec<LinkStatus> {
        self.directory.snapshot()
    }

    /// Stops accepting, drains every connection to completion, and
    /// returns the fleet report (one session per connection) plus the
    /// merged telemetry snapshot.
    pub fn shutdown(mut self) -> (FleetReport, TelemetrySnapshot) {
        self.stop_and_join()
            .expect("IO thread present until shutdown")
            .expect("IO thread never panics")
    }

    /// Sets the stop flag, wakes the IO thread's wait with a connection
    /// of its own, and joins the thread (once).
    fn stop_and_join(&mut self) -> Option<thread::Result<(FleetReport, TelemetrySnapshot)>> {
        let handle = self.io_thread.take()?;
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        Some(handle.join())
    }
}

impl Drop for LinkServer {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// One multiplexed connection's IO-side state.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    actor: ActorHandle,
    /// A chunk the actor queue refused; retried until it fits or the
    /// grace window expires. While set, the socket is not read —
    /// backpressure propagates to the device through TCP.
    pending: Option<Vec<u8>>,
    full_since: Option<Instant>,
    /// Socket finished (EOF, error, eviction): actor closed, awaiting
    /// removal from the sweep.
    done: bool,
}

/// The single IO thread: a readiness loop that blocks in `poll(2)` on
/// the listener and every connection socket.
fn io_loop(
    listener: &TcpListener,
    mut engine: FleetEngine,
    directory: &Arc<LinkDirectory>,
    config: &LinkServerConfig,
    tap: Option<Arc<dyn IngestTap>>,
    stop: &Arc<AtomicBool>,
    connections: &AtomicUsize,
) -> (FleetReport, TelemetrySnapshot) {
    let fleet_tel = engine.telemetry();
    let queue_depth = fleet_tel.histogram(
        names::LINK_QUEUE_DEPTH,
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    );
    let wakes = fleet_tel.counter(names::LINK_IO_WAKES);
    let grace = Duration::from_millis(config.slow_consumer_grace_ms);
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut set = PollSet::default();
    loop {
        // Entry 0 is the listener, entry i + 1 is conns[i]. A socket
        // with a parked chunk is not read, so it is not watched either.
        set.clear();
        set.add(listener, true);
        for conn in &conns {
            set.add(&conn.stream, conn.pending.is_none());
        }
        let parked = conns.iter().any(|c| c.pending.is_some());
        let timeout = if parked { PARKED_TICK } else { IDLE_TICK };
        if let Err(e) = set.wait(timeout) {
            fleet_tel.event(Severity::Warning, "link.server", || {
                format!("readiness wait failed ({e}); retrying")
            });
            thread::sleep(timeout);
        }
        wakes.inc();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Sweep before accepting, so the poll indices still line up.
        let mut progressed = false;
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.pending.is_some() || set.ready(i + 1) {
                progressed |= sweep_conn(conn, &mut buf, grace, &queue_depth, &fleet_tel);
            }
        }
        conns.retain(|c| !c.done);
        // Admit new devices, a bounded batch per wake.
        let accepts = if set.ready(0) { ACCEPTS_PER_SWEEP } else { 0 };
        for _ in 0..accepts {
            match listener.accept() {
                Ok((stream, peer)) => {
                    connections.fetch_add(1, Ordering::SeqCst);
                    fleet_tel.counter(names::LINK_CONNECTIONS).inc();
                    match open_connection(
                        &mut engine,
                        directory,
                        config,
                        tap.clone(),
                        &fleet_tel,
                        stream,
                        peer,
                    ) {
                        Ok(conn) => conns.push(conn),
                        Err(e) => {
                            fleet_tel.event(Severity::Warning, "link.server", || {
                                format!("connection setup failed for {peer}: {e}")
                            });
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // ECONNABORTED, EINTR, EMFILE under fd pressure...:
                    // a transient accept failure must not silently stop
                    // the ward from admitting devices. Journal it and
                    // keep listening; the stop flag is the only exit. A
                    // refused connection stays queued, so the listener
                    // stays ready: back off rather than spin on it.
                    fleet_tel.counter(names::LINK_ACCEPT_ERRORS).inc();
                    fleet_tel.event(Severity::Warning, "link.server", || {
                        format!("accept error ({e}); still listening")
                    });
                    thread::sleep(ACCEPT_BACKOFF);
                    break;
                }
            }
        }
        // Fold any finished sessions into the fleet rollup now, so live
        // scrapes of the fleet registry see completed-session telemetry
        // promptly instead of only at shutdown.
        engine.poll_finished();
        if progressed {
            thread::sleep(WAKE_SPACING);
        }
    }
    // Cooperative shutdown: close every actor (queued chunks are still
    // processed before each Closed event), then drain the pool.
    for conn in &conns {
        conn.actor.close();
    }
    drop(conns);
    let report = engine.drain();
    let snapshot = engine.snapshot();
    (report, snapshot)
}

/// Services one connection for one wake: retry a refused chunk, evict
/// on expired grace, read up to [`READS_PER_SWEEP`] chunks. Returns
/// whether any progress was made.
fn sweep_conn(
    conn: &mut Conn,
    buf: &mut [u8],
    grace: Duration,
    queue_depth: &Histogram,
    fleet_tel: &Telemetry,
) -> bool {
    let mut progressed = false;
    // A refused chunk gets first claim on the queue.
    if let Some(chunk) = conn.pending.take() {
        match conn.actor.try_push_chunk(chunk) {
            Ok(()) => {
                progressed = true;
                conn.full_since = None;
                queue_depth.record(conn.actor.queue_len() as f64);
            }
            Err(ChunkFull(back)) => {
                let since = *conn.full_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= grace {
                    // Slow consumer: evict rather than buffer without
                    // bound. Closing the actor lets the session
                    // summarize everything ingested so far.
                    fleet_tel
                        .counter(names::LINK_SLOW_CONSUMER_DISCONNECTS)
                        .inc();
                    let peer = conn.peer;
                    fleet_tel.event(Severity::Warning, "link.server", || {
                        format!("slow consumer {peer}: queue full past grace, disconnecting")
                    });
                    conn.actor.close();
                    conn.done = true;
                    return true;
                }
                conn.pending = Some(back);
                return false;
            }
        }
    }
    for _ in 0..READS_PER_SWEEP {
        match conn.stream.read(buf) {
            Ok(0) => {
                // Clean EOF: the device is done; let the actor drain
                // its queue and summarize.
                conn.actor.close();
                conn.done = true;
                return true;
            }
            Ok(n) => {
                progressed = true;
                match conn.actor.try_push_chunk(buf[..n].to_vec()) {
                    Ok(()) => {
                        queue_depth.record(conn.actor.queue_len() as f64);
                    }
                    Err(ChunkFull(back)) => {
                        // Queue full: park the chunk and stop reading
                        // this socket; TCP backpressure does the rest.
                        conn.pending = Some(back);
                        conn.full_since = Some(Instant::now());
                        return true;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.actor.close();
                conn.done = true;
                return true;
            }
        }
    }
    progressed
}

/// Registers a directory entry and opens the connection's chunk actor.
fn open_connection(
    engine: &mut FleetEngine,
    directory: &Arc<LinkDirectory>,
    config: &LinkServerConfig,
    tap: Option<Arc<dyn IngestTap>>,
    fleet_tel: &Telemetry,
    stream: TcpStream,
    peer: SocketAddr,
) -> std::io::Result<Conn> {
    stream.set_nonblocking(true)?;
    // The actor writes control frames (handshake acks, NAKs) back to
    // the device on its own clone of the socket; writes are best-effort
    // and never block a worker.
    let write_half = stream.try_clone()?;
    let entry = directory.register(peer.to_string(), fleet_tel.now());
    let handler = ingest_actor(*config, Arc::clone(&entry), tap, write_half);
    let actor = engine.open_actor(format!("link:{peer}"), config.queue_chunks.max(1), handler);
    Ok(Conn {
        stream,
        peer,
        actor,
        pending: None,
        full_since: None,
        done: false,
    })
}

/// Builds the per-connection chunk-actor handler: a [`HostPipeline`]
/// fed chunk-by-chunk, publishing health after every chunk and writing
/// control frames back to the device.
fn ingest_actor(
    config: LinkServerConfig,
    entry: Arc<LinkEntry>,
    tap: Option<Arc<dyn IngestTap>>,
    mut write_half: TcpStream,
) -> impl FnMut(
    ActorEvent<'_>,
    &tonos_fleet::SessionContext,
) -> Option<Result<tonos_fleet::SessionSummary, String>>
       + Send
       + 'static {
    let mut pipe: Option<HostPipeline> = None;
    let mut failed: Option<String> = None;
    let mut samples = Vec::new();
    let mut control = Vec::new();
    move |event, ctx| {
        match event {
            ActorEvent::Chunk(bytes) => {
                if failed.is_some() {
                    return None; // construction failed; report at close
                }
                let pipe = match &mut pipe {
                    Some(p) => p,
                    None => match build_pipeline(&config, &ctx.telemetry) {
                        Ok(p) => pipe.insert(p),
                        Err(e) => {
                            failed = Some(e);
                            return None;
                        }
                    },
                };
                samples.clear();
                pipe.push_bytes(bytes, &mut samples);
                // Publish after every chunk so mid-ingest queries see
                // counters move; `LinkHealth` is `Copy`, one short lock
                // per chunk.
                entry.publish(pipe.health());
                if let Some(tap) = &tap {
                    if !samples.is_empty() {
                        tap.on_samples(
                            &TapSession {
                                conn_id: ctx.id,
                                peer: entry.peer().to_string(),
                                device_id: pipe.device_id(),
                                output_rate_hz: pipe.output_rate_hz(),
                            },
                            &samples,
                        );
                    }
                }
                // Bidirectional wire: ship queued acks and NAKs back to
                // the device. Best-effort — a WouldBlock or broken pipe
                // drops the control bytes, and the next chunk's NAK
                // re-requests anything still missing.
                control.clear();
                if pipe.drain_control_into(&mut control) {
                    let _ = write_half.write(&control);
                }
                None
            }
            ActorEvent::Closed => {
                // Whatever happened — clean EOF, eviction, construction
                // failure — the directory entry must not stay "live"
                // after the session ends.
                entry.disconnect();
                if let Some(tap) = &tap {
                    tap.on_closed(&TapSession {
                        conn_id: ctx.id,
                        peer: entry.peer().to_string(),
                        device_id: pipe.as_ref().and_then(HostPipeline::device_id),
                        output_rate_hz: config.decimator.output_rate(),
                    });
                }
                if let Some(why) = failed.take() {
                    return Some(Err(why));
                }
                let Some(pipe) = &mut pipe else {
                    // Connection closed before its first chunk.
                    return Some(Ok(tonos_fleet::SessionSummary::from_stream(
                        0,
                        0.0,
                        0.0,
                        0.0,
                        0,
                        config.decimator.output_rate(),
                        0,
                    )));
                };
                let health = pipe.health();
                entry.publish(health);
                ctx.telemetry.event(Severity::Info, "link.server", || {
                    format!(
                        "session closed: {} frames, {} samples ({} concealed/invalid), \
                         {} beats, {} alarms",
                        health.decoder.frames,
                        health.samples(),
                        health.concealed_samples + health.invalid_samples,
                        health.beats,
                        health.alarms,
                    )
                });
                Some(Ok(tonos_fleet::SessionSummary::from_stream(
                    health.beats as usize,
                    health.pulse_rate_bpm,
                    health.mean_systolic_mmhg,
                    health.mean_diastolic_mmhg,
                    health.samples() as usize,
                    pipe.output_rate_hz(),
                    health.alarms as usize,
                )))
            }
        }
    }
}

/// Builds one connection's pipeline from the server configuration.
fn build_pipeline(
    config: &LinkServerConfig,
    telemetry: &Telemetry,
) -> Result<HostPipeline, String> {
    let mut pipe = HostPipeline::new(&config.decimator, config.calibration, config.policy)
        .map_err(|e| e.to_string())?
        .with_reorder_window(config.reorder_window);
    if let Some(key) = config.auth_key {
        pipe = pipe.with_auth(key, config.require_auth);
    }
    if let Some(limits) = config.alarm_limits {
        pipe = pipe.with_analyzer(limits).map_err(|e| e.to_string())?;
    }
    Ok(pipe.with_telemetry(telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_binds_accepts_and_reports() {
        let server = LinkServer::bind("127.0.0.1:0", LinkServerConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_eq!(server.io_threads(), 1);

        // A device that sends two valid frames and disconnects.
        let mut enc = crate::encode::FrameEncoder::new(0);
        let bits: tonos_dsp::bits::PackedBits = (0..256).map(|i| i % 3 == 0).collect();
        let mut wire = Vec::new();
        enc.encode_into(&bits, &mut wire).unwrap();
        enc.encode_into(&bits, &mut wire).unwrap();
        {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&wire).unwrap();
        }
        while server.connections() < 1 {
            thread::sleep(Duration::from_millis(5));
        }
        // Give the IO loop a beat to drain the socket to EOF.
        thread::sleep(Duration::from_millis(100));

        let (report, snapshot) = server.shutdown();
        assert_eq!(report.sessions.len(), 1);
        let summary = report.sessions[0].outcome.summary().unwrap();
        assert_eq!(summary.samples, 4); // 512 bits at OSR 128
        let frames_rx = snapshot
            .counters
            .iter()
            .find(|c| c.name == names::LINK_FRAMES_RX)
            .map_or(0, |c| c.value);
        assert_eq!(frames_rx, 2);
    }
}
