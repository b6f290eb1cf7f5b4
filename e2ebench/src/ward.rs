//! `ward_live`: open-loop latency of the serving path.
//!
//! Setup records each ward device's stream (seeded patient mix,
//! authenticated hello; one device behind a lossy wire). The run
//! replays the bytes on a fixed schedule at [`REPLAY_X`] times real
//! time, at most two devices connected at once, while one frontend
//! thread runs the measurement lifecycle for every session: prepare →
//! start (before the device connects) → poll status and readings every
//! [`POLL_MS`], with a read of the live trend chart every
//! [`TREND_EVERY`] polls → stop once the last sample is readable (the
//! device then closes its link) → closing waveform read, retrying a
//! failed session up to three times. The same thread scrapes `/metrics`
//! every [`SCRAPE_MS`]. Every request and every packet is timed from
//! when it was due.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::pace::{sleep_until, Pacer};
use crate::rng::Rng;
use crate::system::{
    check_stored, connect, count_settled, faulty_wire, parse_status, poll_pair, prepare_start,
    record, waveform, write_packet, Ctx, Ops, Recorded, Stack, State, FRAMES_PER_PACKET,
};
use crate::trace::{ms, now_ns};

/// Ward devices; sessions rotate through them.
const DEVICES: usize = 4;
/// The device whose wire is lossy.
const FAULTY: usize = 3;
/// Signal per session, seconds.
pub const STREAM_S: f64 = 3.0;
/// Replay speed as a multiple of real time.
pub const REPLAY_X: f64 = 2.0;
/// Frontend poll interval per session.
const POLL_MS: u64 = 25;
/// Polls between two reads of the live trend chart.
const TREND_EVERY: u64 = 4;
/// `/metrics` scrape interval.
const SCRAPE_MS: u64 = 100;
/// Samples the live trend chart shows.
const TREND_SAMPLES: u64 = 2000;
/// Point budget of every waveform read.
const BUDGET: usize = 512;
/// How long before its device connects a session is prepared.
const LEAD_MS: u64 = 100;
/// Where scrapes and prepares sit in the frontend's 25 ms poll cycle:
/// slot 0 polls at 0 and slot 1 at 12.5 ms, each pair taking about
/// 3.3 ms (6 ms with a trend read), so these land in the idle gaps and
/// the frontend's own schedule does not queue one request behind
/// another.
const SCRAPE_PHASE_US: u64 = 8_500;
const PREPARE_PHASE_US: u64 = 21_000;
/// Idle time between two sessions of one connection slot.
const GAP_MS: u64 = 500;
/// Longest a device stays connected after its last packet waiting for
/// the frontend's stop.
const LINGER_MS: u64 = 2000;
/// Retries of a failed session.
const MAX_RETRIES: u32 = 3;
/// Connection slots (devices streaming at once).
const SLOTS: usize = 2;

const MS: u64 = 1_000_000;

/// The recorded ward.
pub struct Ward {
    devices: Vec<Recorded>,
    wires: Vec<Vec<Vec<u8>>>,
}

/// Records the ward's devices.
///
/// # Errors
///
/// Device failures.
pub fn record_ward(ctx: &Ctx) -> Result<Ward, String> {
    let mut rng = Rng::new(ctx.seed).fork(0xAA);
    let mut devices = Vec::new();
    let mut wires = Vec::new();
    for d in 0..DEVICES {
        let patient = rng.patient();
        let rec = record(ctx, &patient, STREAM_S, 100 + d as u64, rng.next_u64())?;
        wires.push(if d == FAULTY {
            faulty_wire(&rec.packets, rng.next_u64())
        } else {
            rec.packets.clone()
        });
        devices.push(rec);
    }
    Ok(Ward { devices, wires })
}

impl Ward {
    /// Wall time of one replayed stream, ns.
    fn stream_ns(&self) -> u64 {
        self.devices[0].packets.len() as u64 * packet_ns()
    }
}

fn packet_ns() -> u64 {
    (FRAMES_PER_PACKET as f64 * 1e6 / REPLAY_X) as u64
}

/// One scheduled session.
struct Plan {
    slot: usize,
    device: usize,
    connect_ns: u64,
}

/// What the frontend and the device replay share about one session.
#[derive(Default)]
struct Shared {
    armed: bool,
    close_link: bool,
    /// Streams requested (1 + retries).
    streams: u32,
    /// Written packets not yet readable: `(last clock, due ns)`.
    pending: VecDeque<(u64, u64)>,
}

/// Back-to-back sessions on every slot, slots offset by half a period,
/// as many as fit in `seconds` (at least one per slot).
fn schedule(ward: &Ward, seconds: f64, t0: u64) -> Vec<Plan> {
    let wall = ward.stream_ns();
    let period = wall + GAP_MS * MS;
    let per_slot = ((seconds * 1e9) as u64).saturating_sub(wall) / period + 1;
    let mut plans = Vec::new();
    for k in 0..per_slot {
        for slot in 0..SLOTS {
            plans.push(Plan {
                slot,
                device: slot + SLOTS * (k as usize % 2),
                connect_ns: t0 + k * period + slot as u64 * period / SLOTS as u64,
            });
        }
    }
    plans.sort_by_key(|p| p.connect_ns);
    plans
}

/// Runs the ward for about `seconds`; returns the pass's operations.
pub fn run(ctx: &Ctx, stack: &Stack, ward: &Ward, seconds: f64) -> Ops {
    let t0 = now_ns() + (LEAD_MS + 50) * MS;
    let plans = schedule(ward, seconds, t0);
    let shared: Vec<Mutex<Shared>> = plans.iter().map(|_| Mutex::default()).collect();
    let frontend_done = AtomicBool::new(false);
    let (mut ops, replay_ops, end_ns, settled) = std::thread::scope(|s| {
        let replay = s.spawn(|| {
            ctx.tracer
                .generator(|| replay(ctx, stack, ward, &plans, &shared, &frontend_done))
        });
        let (ops, end_ns, settled) = ctx
            .tracer
            .generator(|| frontend(ctx, stack, ward, &plans, &shared, t0));
        frontend_done.store(true, Ordering::SeqCst);
        (ops, replay.join().expect("replay thread"), end_ns, settled)
    });
    ops.merge(replay_ops);
    ops.elapsed_s = (end_ns - t0) as f64 / 1e9;
    // The output checks run after the pass so they never hold up the
    // frontend's schedule.
    for (device, id) in settled {
        let rec = &ward.devices[device];
        let faulty = device == FAULTY;
        if let Some(stored) = check_stored(
            ctx,
            &mut ops,
            &stack.hub,
            rec.device,
            id,
            &rec.expected,
            !faulty,
        ) {
            ops.samples += stored.points;
            count_settled(ctx, &stack.hub, id, &stored, faulty);
            ops.digest(format!("ward-device-{}", rec.device), stored.digest);
        }
    }
    ops
}

enum Phase {
    Waiting,
    Live {
        id: u64,
        polls: Pacer,
        done: u64,
        retries: u32,
    },
    Done,
}

fn lock(s: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    s.lock().expect("ward session lock")
}

fn frontend(
    ctx: &Ctx,
    stack: &Stack,
    ward: &Ward,
    plans: &[Plan],
    shared: &[Mutex<Shared>],
    t0: u64,
) -> (Ops, u64, Vec<(usize, u64)>) {
    let _root = ctx.tracer.span("gen.frontend", 0);
    let mut settled = Vec::new();
    let mut ops = Ops::default();
    let mut phases: Vec<Phase> = plans.iter().map(|_| Phase::Waiting).collect();
    let mut scrapes = Pacer::new(t0 + SCRAPE_PHASE_US * 1000, SCRAPE_MS * MS);
    let mut next_prepare = 0usize;
    let mut end_ns = t0;
    loop {
        if next_prepare == plans.len() && phases.iter().all(|p| matches!(p, Phase::Done)) {
            break;
        }
        // The earliest due event: a scrape, a prepare, a session's poll.
        let mut due = scrapes.due();
        let mut event = None;
        if let Some(p) = plans.get(next_prepare) {
            let at = p.connect_ns - LEAD_MS * MS + PREPARE_PHASE_US * 1000;
            if at <= due {
                due = at;
                event = Some(usize::MAX);
            }
        }
        for (j, ph) in phases.iter().enumerate() {
            if let Phase::Live { polls, .. } = ph {
                if polls.due() < due {
                    due = polls.due();
                    event = Some(j);
                }
            }
        }
        sleep_until(due);
        match event {
            None => {
                scrapes.start();
                ops.scrape(&ctx.tracer, stack.scope_addr, due, true);
            }
            Some(usize::MAX) => {
                let j = next_prepare;
                next_prepare += 1;
                ops.attempted += 1;
                let device = ward.devices[plans[j].device].device;
                match prepare_start(ctx, &mut ops, stack.api_addr, device) {
                    Some(id) => {
                        let mut sh = lock(&shared[j]);
                        sh.armed = true;
                        sh.streams = 1;
                        let phase = plans[j].slot as u64 * POLL_MS * MS / SLOTS as u64;
                        phases[j] = Phase::Live {
                            id,
                            polls: Pacer::new(plans[j].connect_ns + phase, POLL_MS * MS),
                            done: 0,
                            retries: 0,
                        };
                    }
                    None => {
                        ops.fail(format!("ward session {j} could not start"));
                        lock(&shared[j]).close_link = true;
                        phases[j] = Phase::Done;
                    }
                }
            }
            Some(j) => {
                if let Some(complete) = poll(
                    ctx,
                    &mut ops,
                    stack,
                    ward,
                    &plans[j],
                    &shared[j],
                    &mut phases[j],
                ) {
                    let Phase::Live { id, .. } = phases[j] else {
                        unreachable!("a settled session was live");
                    };
                    lock(&shared[j]).close_link = true;
                    phases[j] = Phase::Done;
                    end_ns = now_ns();
                    if ops.check(complete, || format!("ward session {id} did not complete")) {
                        ops.sessions += 1;
                        closing_read(
                            ctx,
                            &mut ops,
                            stack,
                            ward.devices[plans[j].device].device,
                            id,
                        );
                        settled.push((plans[j].device, id));
                    }
                }
            }
        }
    }
    (ops, end_ns, settled)
}

/// One due poll of a live session. Returns whether it settled, and if
/// so whether it completed.
fn poll(
    ctx: &Ctx,
    ops: &mut Ops,
    stack: &Stack,
    ward: &Ward,
    plan: &Plan,
    shared: &Mutex<Shared>,
    phase: &mut Phase,
) -> Option<bool> {
    let Phase::Live {
        id,
        polls,
        done,
        retries,
    } = phase
    else {
        unreachable!("only live sessions are polled");
    };
    let id = *id;
    let (due, late) = polls.start();
    *done += 1;
    ctx.tracer.value("gen.late", late);
    let rec = &ward.devices[plan.device];
    let status = poll_pair(ctx, ops, stack.api_addr, &stack.hub, id)?;
    ops.sample("poll", ms(due, now_ns()));
    let (state, last) = parse_status(&status.body);
    if let Some(c) = last {
        let mut sh = lock(shared);
        while let Some(&(pc, due_pkt)) = sh.pending.front() {
            if pc > c {
                break;
            }
            sh.pending.pop_front();
            ops.sample("sample_age", ms(due_pkt, status.done_ns));
        }
    }
    if state == State::Live && *done % TREND_EVERY == 0 {
        trend(ctx, ops, stack, rec.device, id);
    }
    match (state, last) {
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
            Some(r.is_some_and(|r| r.ok() && r.body.contains("\"complete\"")))
        }
        (State::Complete, _) => Some(true),
        (State::Failed, _) if *retries < MAX_RETRIES => {
            *retries += 1;
            let rearmed =
                [("api.retry", "retry"), ("api.start", "start")]
                    .iter()
                    .all(|(span, action)| {
                        let target = format!("/sessions/{id}/{action}");
                        ops.request(&ctx.tracer, span, id, stack.api_addr, "POST", &target, "")
                            .is_some_and(|r| r.ok())
                    });
            if !rearmed {
                return Some(false);
            }
            let mut sh = lock(shared);
            sh.streams += 1;
            sh.pending.clear();
            None
        }
        (State::Failed, _) => Some(false),
        _ => {
            // A session that never settles is given up as failed.
            let deadline = plan.connect_ns
                + u64::from(*retries + 1) * (ward.stream_ns() + LINGER_MS * MS)
                + 3_000 * MS;
            (now_ns() > deadline).then_some(false)
        }
    }
}

/// The live trend chart: the latest [`TREND_SAMPLES`] already stored,
/// read through the waveform route. Stored records never change, so
/// the read is checked against a direct `read_range` like any other.
fn trend(ctx: &Ctx, ops: &mut Ops, stack: &Stack, device: u64, id: u64) {
    let Some((from, to)) = stack.hub.historian().snapshot().session_span(device, id) else {
        return;
    };
    let from = from.max(to.saturating_sub(TREND_SAMPLES));
    waveform(ctx, ops, stack.api_addr, device, id, (from, to), BUDGET);
}

/// The frontend's closing read of a settled session: the whole
/// recording through the waveform route.
fn closing_read(ctx: &Ctx, ops: &mut Ops, stack: &Stack, device: u64, id: u64) {
    if let Some(span) = stack.hub.historian().snapshot().session_span(device, id) {
        waveform(ctx, ops, stack.api_addr, device, id, span, BUDGET);
    }
}

/// One device connection being replayed.
struct Active {
    plan: usize,
    stream: TcpStream,
    packets: Pacer,
    next: usize,
    finished_ns: Option<u64>,
}

fn replay(
    ctx: &Ctx,
    stack: &Stack,
    ward: &Ward,
    plans: &[Plan],
    shared: &[Mutex<Shared>],
    frontend_done: &AtomicBool,
) -> Ops {
    let _root = ctx.tracer.span("gen.replay", 0);
    let mut ops = Ops::default();
    let mut streamed = vec![0u32; plans.len()];
    let mut next_job = 0usize;
    let mut active: Vec<Active> = Vec::new();
    let mut draining: Vec<(TcpStream, u64)> = Vec::new();
    let mut writes: Vec<_> = plans.iter().map(|_| None).collect();
    let open = |ops: &mut Ops, active: &mut Vec<Active>, plan: usize, first_ns: u64| match connect(
        stack.link_addr,
    ) {
        Ok(stream) => active.push(Active {
            plan,
            stream,
            packets: Pacer::new(first_ns, packet_ns()),
            next: 0,
            finished_ns: None,
        }),
        Err(e) => ops.fail(format!("device connect: {e}")),
    };
    loop {
        let now = now_ns();
        // Connect every device whose session is due and armed; skip
        // sessions the frontend abandoned.
        while let Some(p) = plans.get(next_job) {
            let (armed, abandoned) = {
                let sh = lock(&shared[next_job]);
                (sh.armed, sh.close_link)
            };
            if p.connect_ns > now || !(armed || abandoned) {
                break;
            }
            if armed {
                ctx.tracer.value("gen.late", ms(p.connect_ns, now));
                open(&mut ops, &mut active, next_job, p.connect_ns);
                streamed[next_job] = 1;
            }
            next_job += 1;
        }
        // A retried session streams again at once.
        for j in 0..next_job {
            let wanted = lock(&shared[j]).streams;
            if streamed[j] > 0 && wanted > streamed[j] && !active.iter().any(|a| a.plan == j) {
                streamed[j] = wanted;
                open(&mut ops, &mut active, j, now_ns());
            }
        }
        // Write every packet that is due.
        let mut next_due = plans.get(next_job).map_or(u64::MAX, |p| p.connect_ns);
        for a in &mut active {
            let rec = &ward.devices[plans[a.plan].device];
            let wire = &ward.wires[plans[a.plan].device];
            let bulk =
                writes[a.plan].get_or_insert_with(|| ctx.tracer.bulk("link.write", a.plan as u64));
            while a.next < wire.len() && a.packets.due() <= now_ns() {
                let (due, late) = a.packets.start();
                ctx.tracer.value("gen.late", late);
                if let Some(c) = rec.last_clock[a.next] {
                    lock(&shared[a.plan]).pending.push_back((c, due));
                }
                if let Err(e) = write_packet(
                    ctx,
                    bulk,
                    &mut a.stream,
                    rec.device,
                    &wire[a.next],
                    rec.last_clock[a.next],
                ) {
                    ops.fail(format!("device write: {e}"));
                    a.next = wire.len();
                    break;
                }
                a.next += 1;
            }
            if a.next < wire.len() {
                next_due = next_due.min(a.packets.due());
            } else if a.finished_ns.is_none() {
                a.finished_ns = Some(now_ns());
            }
        }
        // A device whose session was stopped (or that waited too long)
        // closes its link and drains it until the server closes its side.
        active.retain_mut(|a| {
            let Some(done) = a.finished_ns else {
                return true;
            };
            if !lock(&shared[a.plan]).close_link && now_ns() - done < LINGER_MS * MS {
                return true;
            }
            writes[a.plan] = None;
            ctx.writes.clear(ward.devices[plans[a.plan].device].device);
            let _ = a.stream.shutdown(Shutdown::Write);
            let _ = a.stream.set_nonblocking(true);
            if let Ok(s) = a.stream.try_clone() {
                draining.push((s, now_ns()));
            }
            false
        });
        let mut sink = [0u8; 1024];
        draining.retain_mut(|(s, since)| match s.read(&mut sink) {
            Ok(0) => false,
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => now_ns() - *since < 500 * MS,
            Err(_) => false,
        });
        if next_job == plans.len()
            && active.is_empty()
            && draining.is_empty()
            && frontend_done.load(Ordering::SeqCst)
        {
            break;
        }
        sleep_until(next_due.min(now_ns() + MS));
    }
    drop(writes);
    ops
}
