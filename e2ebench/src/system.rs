//! The system under test and the benchmark's shared tools: the running
//! stack (store, hub, HTTP API, link server, scope endpoint), recorded
//! device streams, the operation ledger, and the output checks.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tonos_core::config::SystemConfig;
use tonos_core::stream::AlarmLimits;
use tonos_historian::{Historian, HubConfig, MeasurementApi, MeasurementHub};
use tonos_link::{
    DeviceSimulator, FaultConfig, FaultyTransport, GapPolicy, HostPipeline, HostSample, IngestTap,
    LinkCalibration, LinkKey, LinkServer, LinkServerConfig, SampleFlag, TapSession,
};
use tonos_physio::patient::PatientProfile;
use tonos_scope::{ScopeServer, ScopeSources};
use tonos_telemetry::{names, Registry};

use crate::http::{self, Reply};
use crate::trace::{ms, now_ns, Tracer};

/// Pre-shared key every simulated device authenticates with.
pub fn link_key() -> LinkKey {
    LinkKey::from_bytes(*b"ward-shared-key!")
}

/// Pressure frames per wire packet (the device default: 8 ms of signal).
pub const FRAMES_PER_PACKET: usize = 8;

/// Everything a workload needs from the run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Chip, decimator and contact configuration.
    pub config: SystemConfig,
    /// Span recorder (enabled only while tracing).
    pub tracer: Arc<Tracer>,
    /// Packet writes awaiting delivery to the hub (traced runs).
    pub writes: Arc<WriteLog>,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Hardware threads.
    pub nproc: usize,
}

/// Operations attempted and failed, check failures, and the samples
/// behind the end-to-end metrics. One per generator thread, merged.
#[derive(Debug, Default)]
pub struct Ops {
    /// Sessions and HTTP requests attempted.
    pub attempted: u64,
    /// Operations that failed, check failures included.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Named samples (latencies in ms).
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Sessions that reached `complete`.
    pub sessions: u64,
    /// Samples stored (ingest) or points served (reads).
    pub samples: u64,
    /// Waveform reads awaiting [`verify_reads`].
    pub reads: Vec<WaveRead>,
    /// Waveform reads verified.
    pub reads_checked: u64,
    /// Digest of stored samples per deterministic session key.
    pub digests: BTreeMap<String, u64>,
    /// Length of the measured stage, seconds.
    pub elapsed_s: f64,
}

impl Ops {
    /// Records a failed operation or check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Fails with `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(msg());
        }
        ok
    }

    /// Adds one sample to a series.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.series.entry(key).or_default().push(v);
    }

    /// Records a session digest; a key seen before must repeat it.
    pub fn digest(&mut self, key: String, digest: u64) {
        if let Some(&prev) = self.digests.get(&key) {
            self.check(prev == digest, || {
                format!("digest of {key} did not repeat: {prev:016x} vs {digest:016x}")
            });
        }
        self.digests.insert(key, digest);
    }

    /// Folds another thread's ledger in.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        for (k, v) in other.series {
            self.series.entry(k).or_default().extend(v);
        }
        self.sessions += other.sessions;
        self.samples += other.samples;
        self.reads.extend(other.reads);
        self.reads_checked += other.reads_checked;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        for (k, d) in other.digests {
            self.digest(k, d);
        }
    }

    /// One HTTP request as an operation, traced as `span`. Returns the
    /// reply (counted failed unless 2xx) or `None` on an IO failure.
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        tracer: &Tracer,
        span: &'static str,
        session: u64,
        addr: SocketAddr,
        method: &str,
        target: &str,
        body: &str,
    ) -> Option<Reply> {
        self.attempted += 1;
        let guard = tracer.span(span, session);
        let result = http::call(addr, method, target, body);
        drop(guard);
        match result {
            Ok(r) if r.ok() => Some(r),
            Ok(r) => {
                tracer.count("api.errors", 1);
                self.fail(format!("{method} {target}: HTTP {} {}", r.status, r.body));
                Some(r)
            }
            Err(e) => {
                tracer.count("api.errors", 1);
                self.fail(format!("{method} {target}: {e}"));
                None
            }
        }
    }

    /// A `/metrics` scrape due at `due_ns`. An open-loop generator
    /// (`from_due`) times it from when it was due; a closed-loop one,
    /// which only gets to it between its own requests, from when it
    /// was sent.
    pub fn scrape(&mut self, tracer: &Tracer, scope: SocketAddr, due_ns: u64, from_due: bool) {
        tracer.value("gen.late", ms(due_ns, now_ns()));
        if let Some(r) = self.request(tracer, "scope.scrape", 0, scope, "GET", "/metrics", "") {
            let start = if from_due { due_ns } else { r.sent_ns };
            self.sample("scrape", ms(start, r.done_ns));
            tracer.value("scope.payload_bytes", r.body.len() as f64);
        }
    }
}

/// Packet writes per device, waiting for the hub to receive their last
/// sample — the start points of `link.ingest_delay`.
#[derive(Debug, Default)]
pub struct WriteLog {
    pending: Mutex<HashMap<u64, VecDeque<(u64, u64)>>>,
}

impl WriteLog {
    /// A packet whose last output sample is `last_clock` was written.
    pub fn wrote(&self, device: u64, last_clock: u64, at_ns: u64) {
        let mut p = self.pending.lock().expect("write log lock");
        p.entry(device).or_default().push_back((last_clock, at_ns));
    }

    /// Removes and returns the write times of every packet of `device`
    /// whose last sample is at or below `clock`.
    pub fn delivered(&self, device: u64, clock: u64) -> Vec<u64> {
        let mut p = self.pending.lock().expect("write log lock");
        let Some(q) = p.get_mut(&device) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(&(c, t)) = q.front() {
            if c > clock {
                break;
            }
            out.push(t);
            q.pop_front();
        }
        out
    }

    /// Forgets a device's pending writes (its connection ended).
    pub fn clear(&self, device: u64) {
        self.pending.lock().expect("write log lock").remove(&device);
    }
}

/// The hub seen through the link server's tap: while tracing, times
/// each delivery into the hub and the delay since the generator wrote
/// the packets the delivery completes.
pub struct TimedTap {
    hub: MeasurementHub,
    tracer: Arc<Tracer>,
    writes: Arc<WriteLog>,
}

impl TimedTap {
    /// Wraps `hub`.
    pub fn new(hub: MeasurementHub, ctx: &Ctx) -> Self {
        TimedTap {
            hub,
            tracer: Arc::clone(&ctx.tracer),
            writes: Arc::clone(&ctx.writes),
        }
    }
}

impl IngestTap for TimedTap {
    fn on_samples(&self, session: &TapSession, samples: &[HostSample]) {
        if !self.tracer.enabled() {
            return self.hub.on_samples(session, samples);
        }
        let at = now_ns();
        if let (Some(device), Some(last)) = (session.device_id, samples.last()) {
            for wrote in self.writes.delivered(device, last.index) {
                self.tracer.value("link.ingest_delay", ms(wrote, at));
            }
        }
        let _span = self
            .tracer
            .span("hub.on_samples", session.device_id.unwrap_or(0));
        self.hub.on_samples(session, samples);
    }

    fn on_closed(&self, session: &TapSession) {
        self.hub.on_closed(session);
    }
}

/// The whole chain, up and serving on loopback.
pub struct Stack {
    /// Store directory.
    pub dir: PathBuf,
    /// The measurement hub (shared with the API and the link tap).
    pub hub: MeasurementHub,
    /// Registry of the hub, store and API instruments.
    registry: Registry,
    api: MeasurementApi,
    link: LinkServer,
    scope: ScopeServer,
    /// HTTP API address.
    pub api_addr: SocketAddr,
    /// Device ingest address.
    pub link_addr: SocketAddr,
    /// `/metrics` address.
    pub scope_addr: SocketAddr,
}

/// Server-side counts a workload is judged on.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackReport {
    /// Samples the hub could not route to a measuring session.
    pub unrouted: u64,
    /// Slow-consumer evictions.
    pub evictions: u64,
    /// p99 of the link actor queue depth (`link.queue_depth`).
    pub queue_depth_p99: f64,
}

/// The server's pipeline configuration, reproduced in process for the
/// lossless reference stream.
pub fn link_config(ctx: &Ctx) -> LinkServerConfig {
    LinkServerConfig {
        workers: ctx.nproc,
        decimator: ctx.config.decimator,
        auth_key: Some(link_key()),
        require_auth: true,
        // The replayed devices never read the server's NAKs, so a lost
        // chunk must become an immediate concealed gap.
        reorder_window: 0,
        ..LinkServerConfig::default()
    }
}

/// An in-process pipeline configured like every server connection.
pub fn reference_pipeline(ctx: &Ctx) -> HostPipeline {
    let c = link_config(ctx);
    HostPipeline::new(
        &c.decimator,
        LinkCalibration::identity(),
        GapPolicy::HoldLast,
    )
    .expect("paper decimator builds")
    .with_reorder_window(c.reorder_window)
    .with_auth(link_key(), true)
    .with_analyzer(AlarmLimits::adult())
    .expect("adult alarm limits are valid")
}

impl Stack {
    /// Serves `historian` through a fresh hub, API, link server and
    /// scope endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(ctx: &Ctx, dir: PathBuf, historian: Historian) -> std::io::Result<Stack> {
        let registry = Registry::new();
        let tel = registry.telemetry();
        let hub = MeasurementHub::new(historian, HubConfig::default(), &tel);
        let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &tel)?;
        let tap: Arc<dyn IngestTap> = Arc::new(TimedTap::new(hub.clone(), ctx));
        let link = LinkServer::bind_with_tap("127.0.0.1:0", link_config(ctx), Some(tap))?;
        let scope = ScopeServer::bind(
            "127.0.0.1:0",
            ScopeSources::registry(link.fleet_registry().clone()).with_directory(link.directory()),
        )?;
        Ok(Stack {
            dir,
            api_addr: api.local_addr(),
            link_addr: link.local_addr(),
            scope_addr: scope.local_addr(),
            hub,
            registry,
            api,
            link,
            scope,
        })
    }

    /// Live server-side counts.
    pub fn report(&self) -> StackReport {
        let fleet = self.link.fleet_registry().snapshot();
        StackReport {
            unrouted: self
                .registry
                .snapshot()
                .counter(names::HISTORIAN_TAP_UNROUTED)
                .unwrap_or(0),
            evictions: fleet
                .counter(names::LINK_SLOW_CONSUMER_DISCONNECTS)
                .unwrap_or(0),
            queue_depth_p99: fleet
                .histogram(names::LINK_QUEUE_DEPTH)
                .and_then(|h| h.quantile(0.99))
                .unwrap_or(0.0),
        }
    }

    /// Stops every server thread; the hub (and its store) stay usable.
    pub fn stop(self) -> (MeasurementHub, PathBuf) {
        self.scope.shutdown();
        self.api.shutdown();
        let _ = self.link.shutdown();
        (self.hub, self.dir)
    }
}

/// One device's stream, recorded ahead of a replay.
pub struct Recorded {
    /// Device id carried in the authenticated hello.
    pub device: u64,
    /// Clean wire bytes, one entry per packet.
    pub packets: Vec<Vec<u8>>,
    /// Output index of each packet's last sample (`None` while the
    /// decimator has produced nothing yet).
    pub last_clock: Vec<Option<u64>>,
    /// The lossless stream: the same bytes through an in-process
    /// pipeline.
    pub expected: Vec<HostSample>,
}

impl Recorded {
    /// Index of the stream's final sample.
    pub fn final_clock(&self) -> u64 {
        self.expected.len() as u64 - 1
    }
}

/// Builds `patient`'s device and records `seconds` of its stream.
///
/// # Errors
///
/// Device construction and conversion failures.
pub fn record(
    ctx: &Ctx,
    patient: &PatientProfile,
    seconds: f64,
    device: u64,
    nonce: u64,
) -> Result<Recorded, String> {
    let mut dev = {
        let _s = ctx.tracer.span("chip.setup", device);
        DeviceSimulator::new(&ctx.config, patient, seconds)
            .map_err(|e| e.to_string())?
            .with_auth(link_key(), device, nonce)
    };
    let mut pipe = reference_pipeline(ctx);
    let mut rec = Recorded {
        device,
        packets: Vec::new(),
        last_clock: Vec::new(),
        expected: Vec::new(),
    };
    let mut chip = ctx.tracer.bulk("chip.packet", device);
    loop {
        let mut buf = Vec::new();
        if !chip
            .time(|| dev.next_packet_into(&mut buf))
            .map_err(|e| e.to_string())?
        {
            break;
        }
        pipe.push_bytes(&buf, &mut rec.expected);
        rec.last_clock.push(rec.expected.last().map(|s| s.index));
        rec.packets.push(buf);
    }
    ctx.tracer.count("chip.samples", dev.frames_total() as u64);
    if rec.expected.is_empty() {
        return Err(format!("device {device} produced no samples"));
    }
    Ok(rec)
}

/// The wire as a lossy transport delivers it: the hello and stream head
/// and the final packet pass clean (so the session routes and its last
/// sample arrives); everything between goes through a seeded
/// [`FaultyTransport`] with rare bit flips and chunk drops.
pub fn faulty_wire(packets: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut transport = FaultyTransport::new(
        FaultConfig {
            bit_flip_per_byte: 5e-5,
            drop_chunk: 0.01,
            ..FaultConfig::clean()
        },
        seed,
    );
    let n = packets.len();
    packets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i < 3 {
                p.clone()
            } else if i + 1 == n {
                let mut tail = transport.flush();
                tail.extend_from_slice(p);
                tail
            } else {
                transport.transmit(p)
            }
        })
        .collect()
}

/// Connects a device to the link server.
///
/// # Errors
///
/// Connection failures.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Half-closes a device connection and drains the server's control
/// write-back until the server closes its side. Dropping a socket with
/// unread bytes would reset the connection and could destroy ingest
/// data the server still buffers.
pub fn close_and_drain(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 1024];
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// Writes one packet, timed as `link.write`; while tracing, also logs
/// it for `link.ingest_delay`.
pub fn write_packet(
    ctx: &Ctx,
    writes: &mut crate::trace::Bulk<'_>,
    stream: &mut TcpStream,
    device: u64,
    bytes: &[u8],
    last_clock: Option<u64>,
) -> std::io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    if let (true, Some(c)) = (ctx.tracer.enabled(), last_clock) {
        ctx.writes.wrote(device, c, now_ns());
    }
    writes.time(|| stream.write_all(bytes))
}

/// FNV-1a over `(clock, raw bits, mmhg bits)` of stored points.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in one point.
    pub fn push(&mut self, (clock, raw, mmhg): (u64, f64, f64)) {
        for word in [clock, raw.to_bits(), mmhg.to_bits()] {
            for b in word.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// [`Digest`] of a sequence of points.
pub fn digest_points(points: impl IntoIterator<Item = (u64, f64, f64)>) -> u64 {
    let mut d = Digest::default();
    points.into_iter().for_each(|p| d.push(p));
    d.value()
}

/// What a session left in the store.
#[derive(Debug, Clone, Copy)]
pub struct Stored {
    /// Tier-0 points stored.
    pub points: u64,
    /// Points marked concealed (NaN raw lane).
    pub concealed: u64,
    /// First clock and one past the last.
    pub span: (u64, u64),
    /// Digest of every stored point.
    pub digest: u64,
}

/// Checks a session's stored tier-0 samples against the lossless
/// stream: every clock covered once, every Clean sample bit-identical.
/// With `all_clean`, no sample may be concealed.
pub fn check_stored(
    ctx: &Ctx,
    ops: &mut Ops,
    hub: &MeasurementHub,
    device: u64,
    id: u64,
    expected: &[HostSample],
    all_clean: bool,
) -> Option<Stored> {
    let _s = ctx.tracer.span("check.stored", id);
    let span = hub.historian().snapshot().session_span(device, id);
    let Some((from, to)) = span else {
        ops.fail(format!("session {id} (device {device}) stored nothing"));
        return None;
    };
    let wave = {
        let _r = ctx.tracer.span("store.read_tier", id);
        hub.historian().reader().read_tier(device, id, 0, from, to)
    };
    let wave = match wave {
        Ok(w) => w,
        Err(e) => {
            ops.fail(format!("session {id}: tier-0 read failed: {e}"));
            return None;
        }
    };
    let mut concealed = 0u64;
    let mut mismatched = 0u64;
    for (i, p) in wave.points.iter().enumerate() {
        let truth = expected.get(p.clock as usize);
        if p.clock != i as u64 || truth.is_none() {
            mismatched += 1;
            continue;
        }
        let truth = truth.expect("checked above");
        if p.raw.is_finite() {
            if truth.flag != SampleFlag::Clean
                || p.mmhg.to_bits() != truth.value_mmhg.to_bits()
                || p.raw.to_bits() != truth.value_mmhg.to_bits()
            {
                mismatched += 1;
            }
        } else {
            concealed += 1;
        }
    }
    let n = wave.points.len() as u64;
    ops.check(mismatched == 0, || {
        format!("session {id}: {mismatched} stored samples differ from the lossless stream")
    });
    ops.check(n == expected.len() as u64, || {
        format!(
            "session {id}: {n} samples stored, {} expected",
            expected.len()
        )
    });
    ops.check(!all_clean || concealed == 0, || {
        format!("session {id}: {concealed} concealed samples on a clean wire")
    });
    Some(Stored {
        points: n,
        concealed,
        span: (from, to),
        digest: digest_points(wave.points.iter().map(|p| (p.clock, p.raw, p.mmhg))),
    })
}

/// A waveform read answered over HTTP, checked after the pass against
/// a direct `read_range` of the same query (stored records never
/// change, so the answer cannot move in between).
#[derive(Debug, Clone, Copy)]
pub struct WaveRead {
    device: u64,
    id: u64,
    span: (u64, u64),
    max_points: usize,
    points: usize,
    digest: u64,
    rtt_ms: f64,
}

fn digest_wave(points: impl IntoIterator<Item = (u64, f64, f64)>) -> u64 {
    let canon = |x: f64| if x.is_nan() { f64::NAN } else { x };
    digest_points(points.into_iter().map(|(c, r, m)| (c, canon(r), canon(m))))
}

/// One ranged waveform read through the HTTP API: checked against its
/// point budget now, queued for [`verify_reads`]. Returns the points
/// served.
pub fn waveform(
    ctx: &Ctx,
    ops: &mut Ops,
    api: SocketAddr,
    device: u64,
    id: u64,
    (from, to): (u64, u64),
    max_points: usize,
) -> Option<usize> {
    let target = format!("/sessions/{id}/waveform?from={from}&to={to}&max_points={max_points}");
    let reply = ops.request(&ctx.tracer, "api.waveform", id, api, "GET", &target, "")?;
    if !reply.ok() {
        return None;
    }
    ops.sample("waveform", reply.rtt_ms());
    let _c = ctx.tracer.span("check.waveform", id);
    let Some(points) = http::waveform_points(&reply.body) else {
        ops.fail(format!("{target}: unparseable waveform body"));
        return None;
    };
    ops.check(points.len() <= max_points, || {
        format!(
            "{target}: {} points over a budget of {max_points}",
            points.len()
        )
    });
    ops.reads.push(WaveRead {
        device,
        id,
        span: (from, to),
        max_points,
        points: points.len(),
        digest: digest_wave(points.iter().map(|p| (p.clock, p.raw, p.mmhg))),
        rtt_ms: reply.rtt_ms(),
    });
    Some(points.len())
}

/// Repeats every queued waveform query as a direct `read_range` and
/// checks that HTTP served exactly its points.
pub fn verify_reads(ctx: &Ctx, ops: &mut Ops, hub: &MeasurementHub) {
    let reader = hub.historian().reader();
    for r in std::mem::take(&mut ops.reads) {
        let t0 = now_ns();
        let direct = {
            let _s = ctx.tracer.span("store.read_range", r.id);
            reader.read_range(r.device, r.id, r.span.0, r.span.1, r.max_points)
        };
        let direct_ms = ms(t0, now_ns());
        ctx.tracer.value("api.serve_overhead", r.rtt_ms - direct_ms);
        ctx.tracer.value(
            "store.points_per_budget",
            r.points as f64 / r.max_points as f64,
        );
        let same = direct.as_ref().is_ok_and(|w| {
            w.points.len() == r.points
                && digest_wave(w.points.iter().map(|p| (p.clock, p.raw, p.mmhg))) == r.digest
        });
        ops.check(same, || {
            format!(
                "session {} waveform {:?}: HTTP points differ from read_range",
                r.id, r.span
            )
        });
        ops.reads_checked += 1;
    }
}

/// Status fields the frontends act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Still measuring (or prepared).
    Live,
    /// Settled with data.
    Complete,
    /// Settled without data.
    Failed,
}

/// Parses a status reply into `(state, last_clock)`.
pub fn parse_status(body: &str) -> (State, Option<u64>) {
    let state = match http::json_str(body, "state") {
        Some("complete") => State::Complete,
        Some("failed") => State::Failed,
        _ => State::Live,
    };
    (state, http::json_u64(body, "last_clock"))
}

/// A status + readings poll pair for session `id`, with a direct hub
/// status call alongside while tracing. Returns the status reply.
pub fn poll_pair(
    ctx: &Ctx,
    ops: &mut Ops,
    api: SocketAddr,
    hub: &MeasurementHub,
    id: u64,
) -> Option<Reply> {
    let status = ops.request(
        &ctx.tracer,
        "api.status",
        id,
        api,
        "GET",
        &format!("/sessions/{id}/status"),
        "",
    )?;
    ops.request(
        &ctx.tracer,
        "api.readings",
        id,
        api,
        "GET",
        &format!("/sessions/{id}/readings"),
        "",
    )?;
    if ctx.tracer.enabled() {
        let t0 = now_ns();
        {
            let _h = ctx.tracer.span("hub.status", id);
            hub.status(id);
        }
        ctx.tracer
            .value("api.serve_overhead", status.rtt_ms() - ms(t0, now_ns()));
    }
    status.ok().then_some(status)
}

/// `POST /sessions/prepare` then `POST /sessions/{id}/start`; the id.
pub fn prepare_start(ctx: &Ctx, ops: &mut Ops, api: SocketAddr, device: u64) -> Option<u64> {
    let r = ops.request(
        &ctx.tracer,
        "api.prepare",
        0,
        api,
        "POST",
        "/sessions/prepare",
        &format!("{{\"device\": {device}}}"),
    )?;
    let id = http::json_u64(&r.body, "id")?;
    let r = ops.request(
        &ctx.tracer,
        "api.start",
        id,
        api,
        "POST",
        &format!("/sessions/{id}/start"),
        "",
    )?;
    r.ok().then_some(id)
}

/// Counts a settled session's hub-side totals into the trace.
pub fn count_settled(ctx: &Ctx, hub: &MeasurementHub, id: u64, stored: &Stored, faulty: bool) {
    if let Some(st) = hub.status(id) {
        ctx.tracer.count("hub.flushed_records", st.flushed_records);
    }
    if faulty {
        ctx.tracer.count("link.faulty_samples", stored.points);
        ctx.tracer.count("link.faulty_concealed", stored.concealed);
    }
}

/// One full lifecycle session streamed as fast as the wire takes it:
/// prepare → start → stream through a lossy wire → poll until the last
/// sample is readable → stop → waveform read → output checks. Every
/// workload's setup ends with one, so caches are warm and every layer
/// has been exercised before timing starts.
pub fn warmup_session(ctx: &Ctx, ops: &mut Ops, stack: &Stack, rec: &Recorded, wire: &[Vec<u8>]) {
    ops.attempted += 1;
    let Some(id) = prepare_start(ctx, ops, stack.api_addr, rec.device) else {
        return;
    };
    let mut stream = match connect(stack.link_addr) {
        Ok(s) => s,
        Err(e) => return ops.fail(format!("warm-up connect: {e}")),
    };
    {
        let mut writes = ctx.tracer.bulk("link.write", id);
        for (bytes, &last) in wire.iter().zip(&rec.last_clock) {
            if let Err(e) = write_packet(ctx, &mut writes, &mut stream, rec.device, bytes, last) {
                return ops.fail(format!("warm-up write: {e}"));
            }
        }
    }
    let deadline = now_ns() + 10_000_000_000;
    let mut stopped = false;
    while let Some(status) = poll_pair(ctx, ops, stack.api_addr, &stack.hub, id) {
        match parse_status(&status.body) {
            (State::Live, Some(c)) if c >= rec.final_clock() => {
                let r = ops.request(
                    &ctx.tracer,
                    "api.stop",
                    id,
                    stack.api_addr,
                    "POST",
                    &format!("/sessions/{id}/stop"),
                    "",
                );
                stopped = r.is_some_and(|r| r.ok() && r.body.contains("\"complete\""));
                break;
            }
            (State::Complete, _) => {
                stopped = true;
                break;
            }
            (State::Failed, _) => break,
            _ => {}
        }
        if now_ns() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    close_and_drain(stream);
    ctx.writes.clear(rec.device);
    if !ops.check(stopped, || format!("warm-up session {id} never completed")) {
        return;
    }
    if let Some(stored) = check_stored(ctx, ops, &stack.hub, rec.device, id, &rec.expected, false) {
        waveform(ctx, ops, stack.api_addr, rec.device, id, stored.span, 512);
        count_settled(ctx, &stack.hub, id, &stored, true);
        ops.digest("warmup".to_string(), stored.digest);
    }
}
