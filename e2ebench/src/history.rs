//! `history_reads`: closed-loop ranged reads of a filled store.
//!
//! Setup fills a store through the hub's public functions (`prepare` /
//! `start` / `on_samples` / `stop`) with seeded physiological waveforms,
//! watched through the HTTP API the way a live viewer would (a status +
//! readings poll every [`PROBE_EVERY`] chunks). Some spans carry
//! concealed samples, the long sessions span several 8 MiB segments,
//! and the session count stays within `HubConfig::terminal_keep` (the
//! waveform route answers only for sessions the hub still knows). Setup
//! then runs `compact()`, reopens the store with `Historian::open`, and
//! serves it through a fresh hub with the same sessions registered in
//! the same order. The run is `nproc` readers issuing waveform reads
//! with a seeded mix of zoom spans and point budgets: the store and API
//! layers read here, where `ward_live` makes them write.

use std::path::Path;

use tonos_historian::{
    Historian, HubConfig, MeasurementApi, MeasurementHub, SessionState, StoreConfig,
};
use tonos_link::{HostSample, IngestTap, SampleFlag, TapSession};
use tonos_telemetry::Registry;

use crate::rng::Rng;
use crate::system::{digest_points, poll_pair, waveform, Ctx, Digest, Ops, Stack, TimedTap};
use crate::trace::{ms, now_ns};

/// Sessions recorded for hours' worth of signal in total.
const LONG_SESSIONS: usize = 4;
/// Samples in a long session (about 8 minutes at 1 kHz, 2 segments).
const LONG_SAMPLES: u64 = 500_000;
/// Short sessions.
const SHORT_SESSIONS: usize = 12;
/// Samples in a short session.
const SHORT_SAMPLES: u64 = 20_000;
/// Output sample rate, Hz.
const RATE_HZ: f64 = 1000.0;
/// Seconds of synthesized waveform a session repeats.
const BASE_S: f64 = 20.0;
/// Samples per hub delivery (about one link chunk).
const CHUNK: u64 = 512;
/// Deliveries between two viewer polls during the fill.
const PROBE_EVERY: u64 = 8;
/// `/metrics` scrape interval (reader 0, between reads).
const SCRAPE_MS: u64 = 100;

/// One filled session.
#[derive(Debug, Clone)]
pub struct Filled {
    device: u64,
    id: u64,
    len: u64,
    digest: u64,
}

/// The filled store's sessions.
pub struct History {
    sessions: Vec<Filled>,
}

/// One session's generated stream.
struct Source {
    base: Vec<f64>,
    /// Half-open clock spans delivered as concealed.
    concealed: Vec<(u64, u64)>,
}

impl Source {
    fn sample(&self, clock: u64) -> HostSample {
        let concealed = self.concealed.iter().any(|&(a, b)| (a..b).contains(&clock));
        HostSample {
            index: clock,
            value_mmhg: self.base[(clock % self.base.len() as u64) as usize],
            flag: if concealed {
                SampleFlag::Concealed
            } else {
                SampleFlag::Clean
            },
        }
    }

    /// `(clock, raw, mmhg)` as the hub stores it.
    fn stored(&self, clock: u64) -> (u64, f64, f64) {
        let s = self.sample(clock);
        let raw = if s.flag == SampleFlag::Clean {
            s.value_mmhg
        } else {
            f64::NAN
        };
        (clock, raw, s.value_mmhg)
    }
}

/// Fills, compacts and reopens the store at `dir`, then serves it.
/// `fill` receives the fill stage's operations and rates.
///
/// # Errors
///
/// Store, bind and synthesis failures.
pub fn setup(ctx: &Ctx, dir: &Path, fill: &mut Ops) -> Result<(History, Stack), String> {
    let registry = Registry::new();
    let tel = registry.telemetry();
    let (historian, _) =
        Historian::open(dir, StoreConfig::default(), &tel).map_err(|e| e.to_string())?;
    let hub = MeasurementHub::new(historian, HubConfig::default(), &tel);
    let api = MeasurementApi::bind("127.0.0.1:0", hub.clone(), &tel).map_err(|e| e.to_string())?;
    let tap = TimedTap::new(hub.clone(), ctx);
    let mut rng = Rng::new(ctx.seed).fork(0xC0);
    let mut sessions = Vec::new();
    let t0 = now_ns();
    for s in 0..LONG_SESSIONS + SHORT_SESSIONS {
        let len = if s < LONG_SESSIONS {
            LONG_SAMPLES
        } else {
            SHORT_SAMPLES
        };
        let base: Vec<f64> = rng
            .patient()
            .record(RATE_HZ, BASE_S)
            .map_err(|e| e.to_string())?
            .samples
            .iter()
            .map(|p| p.value())
            .collect();
        let mut concealed = Vec::new();
        let mut at = rng.below(5_000);
        while at < len {
            let end = (at + 50 + rng.below(450)).min(len);
            concealed.push((at, end));
            at = end + 5_000 + rng.below(40_000);
        }
        let src = Source { base, concealed };
        let device = 300 + s as u64;
        let id = hub.prepare(device);
        hub.start(id)?;
        let tap_session = TapSession {
            conn_id: s as u64,
            peer: "fill".to_string(),
            device_id: Some(device),
            output_rate_hz: RATE_HZ,
        };
        let mut chunk = Vec::with_capacity(CHUNK as usize);
        for (n, start) in (0..len).step_by(CHUNK as usize).enumerate() {
            chunk.clear();
            chunk.extend((start..(start + CHUNK).min(len)).map(|c| src.sample(c)));
            let handed = now_ns();
            tap.on_samples(&tap_session, &chunk);
            if (n as u64 + 1).is_multiple_of(PROBE_EVERY) {
                let Some(status) = poll_pair(ctx, fill, api.local_addr(), &hub, id) else {
                    continue;
                };
                fill.sample("poll", ms(status.sent_ns, now_ns()));
                let last = chunk.last().map_or(0, |c| c.index);
                if crate::http::json_u64(&status.body, "last_clock").is_some_and(|c| c >= last) {
                    fill.sample("sample_age", ms(handed, status.done_ns));
                }
            }
        }
        fill.attempted += 1;
        let st = hub.stop(id)?;
        if st.state == SessionState::Complete {
            fill.sessions += 1;
            fill.samples += st.samples;
        } else {
            fill.fail(format!("fill session {id} settled {}", st.state.as_str()));
        }
        ctx.tracer.count("hub.flushed_records", st.flushed_records);
        sessions.push(Filled {
            device,
            id,
            len,
            digest: digest_points((0..len).map(|c| src.stored(c))),
        });
    }
    fill.elapsed_s = (now_ns() - t0) as f64 / 1e9;
    api.shutdown();
    {
        let _s = ctx.tracer.span("store.compact", 0);
        hub.historian().compact().map_err(|e| e.to_string())?;
    }
    drop(tap);
    drop(hub);
    let historian = {
        let _s = ctx.tracer.span("store.open", 0);
        Historian::open(dir, StoreConfig::default(), &tel)
            .map_err(|e| e.to_string())?
            .0
    };
    let stack = Stack::start(ctx, dir.to_path_buf(), historian).map_err(|e| e.to_string())?;
    for f in &sessions {
        let id = stack.hub.prepare(f.device);
        if id != f.id {
            return Err(format!("re-registered session {} as {id}", f.id));
        }
    }
    Ok((History { sessions }, stack))
}

/// Checks that the reopened store holds every filled sample exactly,
/// reading window by window so the check's own memory stays small.
pub fn verify(ctx: &Ctx, ops: &mut Ops, stack: &Stack, history: &History) {
    const WINDOW: u64 = 65_536;
    let _s = ctx.tracer.span("check.stored", 0);
    let reader = stack.hub.historian().reader();
    for f in &history.sessions {
        let mut digest = Digest::default();
        let mut points = 0u64;
        for from in (0..f.len).step_by(WINDOW as usize) {
            match reader.read_tier(f.device, f.id, 0, from, (from + WINDOW).min(f.len)) {
                Ok(w) => {
                    points += w.points.len() as u64;
                    w.points
                        .iter()
                        .for_each(|p| digest.push((p.clock, p.raw, p.mmhg)));
                }
                Err(e) => return ops.fail(format!("filled session {}: {e}", f.id)),
            }
        }
        ops.check(points == f.len && digest.value() == f.digest, || {
            format!("filled session {} does not read back as written", f.id)
        });
        ops.digest(format!("history-session-{}", f.id), digest.value());
    }
}

/// Runs `nproc` readers for `seconds`; returns the pass's operations.
pub fn run(ctx: &Ctx, stack: &Stack, history: &History, seconds: f64) -> Ops {
    let t0 = now_ns();
    let end = t0 + (seconds * 1e9) as u64;
    let mut ops = std::thread::scope(|s| {
        let readers: Vec<_> = (0..ctx.nproc)
            .map(|t| {
                s.spawn(move || {
                    ctx.tracer
                        .generator(|| reader(ctx, stack, history, t as u64, t0, end))
                })
            })
            .collect();
        let mut ops = Ops::default();
        for r in readers {
            ops.merge(r.join().expect("reader thread"));
        }
        ops
    });
    ops.elapsed_s = (now_ns() - t0) as f64 / 1e9;
    ops
}

fn reader(ctx: &Ctx, stack: &Stack, history: &History, t: u64, t0: u64, end: u64) -> Ops {
    let _root = ctx.tracer.span("gen.reader", 0);
    let mut ops = Ops::default();
    let mut rng = Rng::new(ctx.seed).fork(0xC1).fork(t);
    let mut next_scrape = t0;
    while now_ns() < end {
        if t == 0 && now_ns() >= next_scrape {
            ops.scrape(&ctx.tracer, stack.scope_addr, next_scrape, false);
            while next_scrape <= now_ns() {
                next_scrape += SCRAPE_MS * 1_000_000;
            }
        }
        let f = &history.sessions[rng.below(history.sessions.len() as u64) as usize];
        // Zoom: seconds, minutes, or the whole recording.
        let span = match rng.below(10) {
            0..=3 => 1_000 + rng.below(9_000),
            4..=7 => 60_000 + rng.below(240_000),
            _ => f.len,
        }
        .min(f.len);
        let from = rng.below(f.len - span + 1);
        let budget = [128usize, 512, 2048][rng.below(3) as usize];
        if let Some(points) = waveform(
            ctx,
            &mut ops,
            stack.api_addr,
            f.device,
            f.id,
            (from, from + span),
            budget,
        ) {
            ops.samples += points as u64;
        }
    }
    ops
}
