//! `chain_batch`: closed-loop throughput of the whole chain.
//!
//! `nproc` client threads each run complete sessions back to back:
//! HTTP prepare/start → a freshly built seeded `DeviceSimulator`
//! converts live and streams over clean loopback → half-close → poll
//! status and readings until `complete` → waveform read and checks. The
//! chip's conversion dominates the CPU here, so a chip-kernel gain shows
//! in `sessions_per_s` while a serving-loop change should not.

use std::time::Duration;

use tonos_link::DeviceSimulator;

use crate::rng::Rng;
use crate::system::{
    check_stored, close_and_drain, connect, count_settled, link_key, parse_status, poll_pair,
    prepare_start, reference_pipeline, waveform, write_packet, Ctx, Ops, Stack, State,
};
use crate::trace::{ms, now_ns};

/// Signal per session, seconds.
pub const STREAM_S: f64 = 10.0;
/// Signal of the fixed session every setup runs, seconds.
const FIXED_S: f64 = 2.0;
/// `/metrics` scrape interval (client 0, between sessions).
const SCRAPE_MS: u64 = 100;
/// Point budget of the closing waveform read.
const BUDGET: usize = 512;
/// Pause between two status polls while a session drains.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// Runs `nproc` clients for `seconds`; returns the pass's operations.
pub fn run(ctx: &Ctx, stack: &Stack, seconds: f64) -> Ops {
    let t0 = now_ns();
    let end = t0 + (seconds * 1e9) as u64;
    let mut ops = std::thread::scope(|s| {
        let clients: Vec<_> = (0..ctx.nproc)
            .map(|t| {
                s.spawn(move || {
                    ctx.tracer
                        .generator(|| client(ctx, stack, t as u64, t0, end))
                })
            })
            .collect();
        let mut ops = Ops::default();
        for c in clients {
            ops.merge(c.join().expect("client thread"));
        }
        ops
    });
    ops.elapsed_s = (now_ns() - t0) as f64 / 1e9;
    ops
}

fn client(ctx: &Ctx, stack: &Stack, t: u64, t0: u64, end: u64) -> Ops {
    let _root = ctx.tracer.span("gen.client", 0);
    let mut ops = Ops::default();
    let rng = Rng::new(ctx.seed).fork(0xBA).fork(t);
    let device = 200 + t;
    let mut next_scrape = t0;
    let mut k = 0u64;
    while now_ns() < end {
        if t == 0 && now_ns() >= next_scrape {
            ops.scrape(&ctx.tracer, stack.scope_addr, next_scrape, false);
            while next_scrape <= now_ns() {
                next_scrape += SCRAPE_MS * 1_000_000;
            }
        }
        let mut srng = rng.fork(k);
        session(
            ctx,
            &mut ops,
            stack,
            device,
            &mut srng,
            format!("client-{t}-session-{k}"),
            STREAM_S,
        );
        k += 1;
    }
    ops
}

/// One short session with the same seeded input in every setup of a
/// run, so its stored digest must repeat.
pub fn fixed_session(ctx: &Ctx, ops: &mut Ops, stack: &Stack) {
    let mut rng = Rng::new(ctx.seed).fork(0xBB);
    let key = "chain-fixed-session".to_string();
    session(ctx, ops, stack, 199, &mut rng, key, FIXED_S);
}

#[allow(clippy::too_many_arguments)]
fn session(
    ctx: &Ctx,
    ops: &mut Ops,
    stack: &Stack,
    device: u64,
    rng: &mut Rng,
    key: String,
    seconds: f64,
) {
    ops.attempted += 1;
    let patient = rng.patient();
    let nonce = rng.next_u64();
    let Some(id) = prepare_start(ctx, ops, stack.api_addr, device) else {
        return;
    };
    let dev = {
        let _s = ctx.tracer.span("chip.setup", id);
        DeviceSimulator::new(&ctx.config, &patient, seconds)
    };
    let mut dev = match dev {
        Ok(d) => d.with_auth(link_key(), device, nonce),
        Err(e) => return ops.fail(format!("device build: {e}")),
    };
    let stream = {
        let _s = ctx.tracer.span("link.connect", id);
        connect(stack.link_addr)
    };
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => return ops.fail(format!("device connect: {e}")),
    };
    // The lossless reference: the same bytes through an in-process
    // pipeline, teed off as they are written.
    let mut pipe = reference_pipeline(ctx);
    let mut expected = Vec::new();
    let mut buf = Vec::new();
    let mut last_write = now_ns();
    {
        let mut chip = ctx.tracer.bulk("chip.packet", id);
        let mut writes = ctx.tracer.bulk("link.write", id);
        let mut tee = ctx.tracer.bulk("check.tee", id);
        let mut packets = 0u64;
        loop {
            buf.clear();
            match chip.time(|| dev.next_packet_into(&mut buf)) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return ops.fail(format!("chip conversion: {e}")),
            }
            tee.time(|| pipe.push_bytes(&buf, &mut expected));
            let last = expected.last().map(|s| s.index);
            if let Err(e) = write_packet(ctx, &mut writes, &mut stream, device, &buf, last) {
                return ops.fail(format!("device write: {e}"));
            }
            last_write = now_ns();
            packets += 1;
            if ctx.tracer.enabled() && packets.is_multiple_of(64) {
                let _h = ctx.tracer.span("hub.status", id);
                stack.hub.status(id);
            }
        }
    }
    ctx.tracer.count("chip.samples", dev.frames_total() as u64);
    {
        let _s = ctx.tracer.span("link.close", id);
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let Some(final_clock) = expected.last().map(|s| s.index) else {
        return ops.fail("session produced no samples".to_string());
    };
    let deadline = now_ns() + 10_000_000_000;
    let mut aged = false;
    let complete = loop {
        let Some(status) = poll_pair(ctx, ops, stack.api_addr, &stack.hub, id) else {
            break false;
        };
        ops.sample("poll", ms(status.sent_ns, now_ns()));
        let (state, last) = parse_status(&status.body);
        if !aged && last.is_some_and(|c| c >= final_clock) {
            ops.sample("sample_age", ms(last_write, status.done_ns));
            aged = true;
        }
        match state {
            State::Complete => break true,
            State::Failed => break false,
            State::Live if now_ns() > deadline => break false,
            // Waiting for the server is no layer's call: unattributed.
            State::Live => std::thread::sleep(DRAIN_POLL),
        }
    };
    {
        let _s = ctx.tracer.span("link.close", id);
        close_and_drain(stream);
    }
    ctx.writes.clear(device);
    if !ops.check(complete, || format!("chain session {id} did not complete")) {
        return;
    }
    ops.sessions += 1;
    if let Some(stored) = check_stored(ctx, ops, &stack.hub, device, id, &expected, true) {
        ops.samples += stored.points;
        waveform(ctx, ops, stack.api_addr, device, id, stored.span, BUDGET);
        count_settled(ctx, &stack.hub, id, &stored, false);
        ops.digest(key, stored.digest);
    }
}
