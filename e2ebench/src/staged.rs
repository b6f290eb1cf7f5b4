//! The staged replay: one recorded reference stream fed in process
//! through each layer in turn, so layers that run inside the servers
//! can be timed from outside — `FrameDecoder::push`,
//! `HostPipeline::push_bytes`, the bare decimator, a fresh hub, and a
//! fresh store replaying that hub's records.

use tonos_dsp::frame::KIND_BITSTREAM;
use tonos_historian::{Historian, HubConfig, MeasurementHub, StoreConfig};
use tonos_link::{FrameDecoder, HostSample, IngestTap, LinkEvent, TapSession};
use tonos_mems::units::MillimetersHg;
use tonos_telemetry::Telemetry;

use crate::rng::Rng;
use crate::system::{record, reference_pipeline, Ctx};

/// Seconds of reference signal.
const STAGED_S: f64 = 4.0;
/// Bytes per replayed chunk (the link server's socket read size).
const CHUNK_BYTES: usize = 8 * 1024;
/// Device id of the reference stream.
const DEVICE: u64 = 900;

/// Runs the replay; returns the samples the staged hub stored.
///
/// # Errors
///
/// Device, store and hub failures.
pub fn run(ctx: &Ctx) -> Result<u64, String> {
    let _root = ctx.tracer.span("gen.staged", 0);
    let mut rng = Rng::new(ctx.seed).fork(0x5A);
    let rec = record(ctx, &rng.patient(), STAGED_S, DEVICE, rng.next_u64())?;
    let wire = rec.packets.concat();
    let chunks: Vec<&[u8]> = wire.chunks(CHUNK_BYTES).collect();

    let mut decoder = FrameDecoder::new();
    let mut events = Vec::new();
    let mut payloads = Vec::new();
    let mut frames = 0u64;
    {
        let mut bulk = ctx.tracer.bulk("link.decode", DEVICE);
        for chunk in &chunks {
            events.clear();
            bulk.time(|| decoder.push(chunk, &mut events));
            for e in &events {
                if let LinkEvent::Frame(f) = e {
                    frames += 1;
                    if f.kind == KIND_BITSTREAM {
                        payloads.push(f.to_packed_bits());
                    }
                }
            }
        }
    }
    ctx.tracer.count("link.decode_frames", frames);

    let mut pipe = reference_pipeline(ctx);
    let mut delivered: Vec<Vec<HostSample>> = Vec::new();
    {
        let mut bulk = ctx.tracer.bulk("link.pipeline", DEVICE);
        for chunk in &chunks {
            let mut out = Vec::new();
            bulk.time(|| pipe.push_bytes(chunk, &mut out));
            delivered.push(out);
        }
    }
    let samples: u64 = delivered.iter().map(|d| d.len() as u64).sum();
    ctx.tracer.count("link.pipeline_samples", samples);

    let mut decimator = ctx.config.decimator.build().map_err(|e| e.to_string())?;
    let mut ys = Vec::new();
    {
        let mut bulk = ctx.tracer.bulk("dsp.decimate", DEVICE);
        for bits in &payloads {
            bulk.time(|| decimator.process_packed_into(bits, &mut ys));
        }
    }
    ctx.tracer.count("dsp.samples", ys.len() as u64);

    let off = Telemetry::disabled();
    let hub_dir = ctx.work.join("staged-hub");
    let store_dir = ctx.work.join("staged-store");
    let (historian, _) =
        Historian::open(&hub_dir, StoreConfig::default(), &off).map_err(|e| e.to_string())?;
    let hub = MeasurementHub::new(historian, HubConfig::default(), &off);
    let id = hub.prepare(DEVICE);
    hub.start(id)?;
    let session = TapSession {
        conn_id: 1,
        peer: "staged".to_string(),
        device_id: Some(DEVICE),
        output_rate_hz: ctx.config.decimator.output_rate(),
    };
    {
        let mut bulk = ctx.tracer.bulk("hub.ingest", DEVICE);
        for d in delivered.iter().filter(|d| !d.is_empty()) {
            bulk.time(|| hub.on_samples(&session, d));
        }
    }
    hub.stop(id)?;

    let reader = hub.historian().reader();
    let mut records = Vec::new();
    for e in hub.historian().snapshot().range(DEVICE, id, 0, 0, u64::MAX) {
        let w = reader
            .read_tier(DEVICE, id, 0, e.clock_start, e.clock_end)
            .map_err(|e| e.to_string())?;
        let raw: Vec<f64> = w.points.iter().map(|p| p.raw).collect();
        let cal: Vec<MillimetersHg> = w.points.iter().map(|p| MillimetersHg(p.mmhg)).collect();
        records.push((e.clock_start, w.sample_rate_hz, raw, cal));
    }
    drop(reader);
    let (store, _) =
        Historian::open(&store_dir, StoreConfig::default(), &off).map_err(|e| e.to_string())?;
    let mut appended = 0u64;
    {
        let mut bulk = ctx.tracer.bulk("store.append", DEVICE);
        for (clock, rate, raw, cal) in &records {
            bulk.time(|| store.append(DEVICE, id, *clock, *rate, raw, cal))
                .map_err(|e| e.to_string())?;
            appended += raw.len() as u64;
        }
    }
    ctx.tracer.count("store.samples", appended);
    drop(store);
    drop(hub);
    let _ = std::fs::remove_dir_all(&hub_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(appended)
}
