//! `e2ebench` — one end-to-end benchmark of the whole tonos chain:
//! simulated chip → wire → `LinkServer` → `HostPipeline` →
//! `MeasurementHub` → historian → `MeasurementApi`, over loopback.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ward_live|chain_batch|history_reads> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the run context. See `e2ebench/README.md`.

mod batch;
mod history;
mod http;
mod pace;
mod rng;
mod staged;
mod stats;
mod system;
mod trace;
mod ward;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use tonos_core::config::SystemConfig;
use tonos_historian::{Historian, StoreConfig};
use tonos_telemetry::Telemetry;

use crate::stats::{median, percentile};
use crate::system::{
    faulty_wire, record, verify_reads, warmup_session, Ctx, Ops, Stack, StackReport,
};
use crate::trace::{now_ns, Ledger, Tracer};

/// Setup is timed in two rounds, one before the measured passes and
/// one after, and `setup_s` is the median of every timed setup. A round
/// repeats the setup at least [`ROUND_REPS`] times and until it has
/// timed [`ROUND_S`] seconds of setup, at most [`ROUND_MAX`] times, so
/// a short setup is sampled often and across the run.
const ROUND_REPS: usize = 3;
const ROUND_S: f64 = 1.0;
const ROUND_MAX: usize = 12;

/// Ledger rows, one per layer the benchmark calls into.
const LAYERS: [&str; 8] = [
    "chip", "link", "dsp", "hub", "store", "api", "scope", "check",
];

/// `attributed_frac` gate on the chip-bound workload.
const ATTRIBUTED_GATE: f64 = 0.9;

/// Seconds of signal in the warm-up session every setup ends with.
const WARMUP_S: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ward,
    Batch,
    History,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "ward_live" => Some(Workload::Ward),
            "chain_batch" => Some(Workload::Batch),
            "history_reads" => Some(Workload::History),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ward => "ward_live",
            Workload::Batch => "chain_batch",
            Workload::History => "history_reads",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut workdir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => trace = value == "1",
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        workdir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    now_ns();
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(&args.workdir).map_err(|e| e.to_string())?;
    let work = args.workdir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        seed: args.seed,
        config: SystemConfig::paper_default(),
        tracer: Arc::new(Tracer::new()),
        writes: Arc::default(),
        work: work.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let result = run_in(&ctx, args);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// The workload's recorded inputs, kept across setup repetitions.
enum Inputs {
    Ward(ward::Ward),
    Batch,
    History(history::History),
}

/// One complete setup: inputs, a serving stack, a warm-up session.
fn setup(
    ctx: &Ctx,
    w: Workload,
    rep: usize,
    ops: &mut Ops,
    fills: &mut Vec<Ops>,
) -> Result<(Inputs, Stack), String> {
    let dir = ctx.work.join(format!("store-{rep}"));
    let (inputs, stack) = match w {
        Workload::History => {
            let mut fill = Ops::default();
            let (h, stack) = history::setup(ctx, &dir, &mut fill)?;
            fills.push(fill);
            (Inputs::History(h), stack)
        }
        _ => {
            let inputs = match w {
                Workload::Ward => Inputs::Ward(ward::record_ward(ctx)?),
                _ => Inputs::Batch,
            };
            let (historian, _) =
                Historian::open(&dir, StoreConfig::default(), &Telemetry::disabled())
                    .map_err(|e| e.to_string())?;
            (
                inputs,
                Stack::start(ctx, dir, historian).map_err(|e| e.to_string())?,
            )
        }
    };
    let mut rng = rng::Rng::new(ctx.seed).fork(0x3A);
    let rec = record(ctx, &rng.patient(), WARMUP_S, 50, rng.next_u64())?;
    let wire = faulty_wire(&rec.packets, rng.next_u64());
    warmup_session(ctx, ops, &stack, &rec, &wire);
    if w == Workload::Batch {
        // The same live session in every setup: its stored digest must
        // repeat (the pass's sessions never repeat an input).
        batch::fixed_session(ctx, ops, &stack);
    }
    verify_reads(ctx, ops, &stack.hub);
    Ok((inputs, stack))
}

/// One round of timed setups (see [`ROUND_S`]); returns the last
/// setup's inputs and stack, the others torn down.
fn setup_round(
    ctx: &Ctx,
    w: Workload,
    setup_s: &mut Vec<f64>,
    ops: &mut Ops,
    fills: &mut Vec<Ops>,
) -> Result<(Inputs, Stack), String> {
    let mut timed = 0.0;
    let mut reps = 0;
    loop {
        let t0 = now_ns();
        let kept = setup(ctx, w, setup_s.len(), ops, fills)?;
        let s = (now_ns() - t0) as f64 / 1e9;
        setup_s.push(s);
        timed += s;
        reps += 1;
        if reps >= ROUND_MAX || (reps >= ROUND_REPS && timed >= ROUND_S) {
            return Ok(kept);
        }
        teardown(kept.1);
    }
}

/// One measured run of the workload, its waveform reads verified after.
fn pass(ctx: &Ctx, inputs: &Inputs, stack: &Stack, seconds: f64) -> Ops {
    let mut ops = match inputs {
        Inputs::Ward(w) => ward::run(ctx, stack, w, seconds),
        Inputs::Batch => batch::run(ctx, stack, seconds),
        Inputs::History(h) => history::run(ctx, stack, h, seconds),
    };
    verify_reads(ctx, &mut ops, &stack.hub);
    ops
}

fn teardown(stack: Stack) {
    let (hub, dir) = stack.stop();
    drop(hub);
    let _ = std::fs::remove_dir_all(dir);
}

/// The metric a workload is judged by, over one or more passes, for
/// the tracing overhead.
fn headline(w: Workload, passes: &[&Ops]) -> f64 {
    let pooled = |key: &str| {
        let xs: Vec<f64> = passes
            .iter()
            .flat_map(|o| o.series.get(key).into_iter().flatten().copied())
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    match w {
        Workload::Ward => pooled("sample_age"),
        Workload::Batch => {
            let sessions: u64 = passes.iter().map(|o| o.sessions).sum();
            passes.iter().map(|o| o.elapsed_s).sum::<f64>() / sessions.max(1) as f64
        }
        Workload::History => pooled("waveform"),
    }
}

fn run_in(ctx: &Ctx, args: &Args) -> Result<Vec<String>, String> {
    let w = args.workload;
    ctx.tracer.set_enabled(args.trace);
    let mut ops = Ops::default();
    let mut fills = Vec::new();
    let mut setup_s = Vec::new();
    let (inputs, stack) = setup_round(ctx, w, &mut setup_s, &mut ops, &mut fills)?;
    if let Inputs::History(h) = &inputs {
        history::verify(ctx, &mut ops, &stack, h);
    }

    // A traced run puts one traced half-length pass on either side of
    // the untraced pass, so the store's growth and warming caches weigh
    // on both sides of `trace.overhead_frac` alike.
    let mut traced = Vec::new();
    if args.trace {
        traced.push(pass(ctx, &inputs, &stack, args.seconds / 2.0));
    }
    ctx.tracer.set_enabled(false);
    let plain = pass(ctx, &inputs, &stack, args.seconds);
    if args.trace {
        ctx.tracer.set_enabled(true);
        traced.push(pass(ctx, &inputs, &stack, args.seconds / 2.0));
    }
    let report = stack.report();
    let staged_samples = if args.trace {
        ctx.tracer.generator(|| staged::run(ctx))?
    } else {
        0
    };
    let (hub, dir) = stack.stop();
    if args.trace && w != Workload::History {
        // Store upkeep after the passes (`history_reads` times it in setup).
        {
            let _s = ctx.tracer.span("store.compact", 0);
            hub.historian().compact().map_err(|e| e.to_string())?;
        }
        drop(hub);
        let _s = ctx.tracer.span("store.open", 0);
        Historian::open(&dir, StoreConfig::default(), &Telemetry::disabled())
            .map_err(|e| e.to_string())?;
    } else {
        drop(hub);
    }
    let _ = std::fs::remove_dir_all(&dir);
    ctx.tracer.set_enabled(false);
    // The second setup round, on a host the passes have left busy.
    let (_, stack) = setup_round(ctx, w, &mut setup_s, &mut ops, &mut fills)?;
    teardown(stack);

    let mut metrics = Metrics::default();
    if args.trace {
        // The latency tails carry no bound (README, Steadiness), so they
        // are reported with the per-layer figures, still from the
        // untraced pass.
        latencies(&mut metrics, &mut ops, &plain, &fills, true);
    } else {
        end_to_end(&mut metrics, &mut ops, &plain, &fills, &setup_s);
    }
    let overhead = if traced.is_empty() {
        0.0
    } else {
        headline(w, &traced.iter().collect::<Vec<_>>()) / headline(w, &[&plain]) - 1.0
    };
    let traced_samples: u64 = traced.iter().map(|t| t.samples).sum();
    let mut all = Ops::default();
    all.merge(ops);
    for f in fills {
        all.merge(f);
    }
    all.merge(plain);
    for t in traced {
        all.merge(t);
    }
    all.failed += report.unrouted + report.evictions;
    if report.unrouted + report.evictions > 0 {
        all.errors.push(format!(
            "{} unrouted samples, {} slow-consumer evictions",
            report.unrouted, report.evictions
        ));
    }

    if args.trace {
        per_layer(
            ctx,
            w,
            &mut metrics,
            &mut all,
            report,
            traced_samples + staged_samples,
        );
        metrics.put("trace.overhead_frac", "ratio", overhead);
        if let Err(e) = ctx
            .tracer
            .write_spans(&args.workdir.join(format!("trace-{}.tsv", w.name())))
        {
            eprintln!("e2ebench: could not write spans: {e}");
        }
    }

    let context = context_line(ctx, args, &metrics, &setup_s);
    for e in &all.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    let correct = all.failed == 0;
    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        all.attempted.max(1),
        all.failed
    );
    for (i, (name, (value, unit))) in metrics.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            result,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    result.push_str("}}");
    Ok(vec![context, result])
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Reported metrics plus the percentile picks behind them.
#[derive(Default)]
struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    picks: BTreeMap<String, (f64, usize)>,
}

impl Metrics {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The median over `groups` of each group's `q` percentile;
    /// missing samples fail the run.
    fn pct(&mut self, ops: &mut Ops, name: &str, unit: &'static str, groups: &[Vec<f64>], q: f64) {
        let picks: Vec<_> = groups.iter().filter_map(|xs| percentile(xs, q)).collect();
        let value = median(&picks.iter().map(|p| p.value).collect::<Vec<_>>());
        let Some(value) = value else {
            ops.fail(format!("no samples for {name}"));
            return self.put(name, unit, 0.0);
        };
        self.put(name, unit, value);
        let q_used = picks.iter().map(|p| p.q).fold(1.0, f64::min);
        self.picks
            .insert(name.to_string(), (q_used, picks.iter().map(|p| p.n).sum()));
    }

    /// One percentile of `xs`, scaled.
    fn pct1(
        &mut self,
        ops: &mut Ops,
        name: &str,
        unit: &'static str,
        xs: Vec<f64>,
        q: f64,
        scale: f64,
    ) {
        self.pct(
            ops,
            name,
            unit,
            &[xs.iter().map(|x| x * scale).collect()],
            q,
        );
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one untraced pass. On `history_reads` the
/// ingest figures (rates, sample age, poll) come from the fill stage of
/// every setup: the median over setups of each one's rate or percentile.
fn end_to_end(m: &mut Metrics, ops: &mut Ops, pass: &Ops, fills: &[Ops], setup_s: &[f64]) {
    let rate = |n: u64, o: &Ops| n as f64 / o.elapsed_s.max(1e-9);
    let ingest = ingest(pass, fills);
    m.put("setup_s", "s", median(setup_s).unwrap_or(0.0));
    m.put("peak_rss_mb", "MB", peak_rss_mb());
    let rates = [
        (
            "sessions_per_s",
            median(
                &ingest
                    .iter()
                    .map(|o| rate(o.sessions, o))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "samples_per_s",
            median(
                &ingest
                    .iter()
                    .map(|o| rate(o.samples, o))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("reads_per_s", Some(rate(pass.reads_checked, pass))),
    ];
    for (name, v) in rates {
        let v = v.unwrap_or(0.0);
        ops.check(v > 0.0, || format!("{name} is zero"));
        m.put(name, "1/s", v);
    }
    latencies(m, ops, pass, fills, false);
}

/// The ingest groups: the fill stage of every setup on `history_reads`,
/// the pass itself elsewhere.
fn ingest<'a>(pass: &'a Ops, fills: &'a [Ops]) -> Vec<&'a Ops> {
    if fills.is_empty() {
        vec![pass]
    } else {
        fills.iter().collect()
    }
}

/// Latency medians, or with `tail` the p99s: sample age and poll over
/// the ingest groups, waveform reads and (tail only) scrapes over the
/// pass.
fn latencies(m: &mut Metrics, ops: &mut Ops, pass: &Ops, fills: &[Ops], tail: bool) {
    let (q, at) = if tail { (0.99, "p99") } else { (0.5, "p50") };
    let series = |o: &Ops, k: &str| o.series.get(k).cloned().unwrap_or_default();
    for base in ["sample_age", "poll"] {
        let each: Vec<Vec<f64>> = ingest(pass, fills)
            .iter()
            .map(|o| series(o, base))
            .collect();
        m.pct(ops, &format!("{base}_{at}_ms"), "ms", &each, q);
    }
    let waveform = [series(pass, "waveform")];
    m.pct(ops, &format!("waveform_{at}_ms"), "ms", &waveform, q);
    if tail {
        m.pct(ops, "scrape_p99_ms", "ms", &[series(pass, "scrape")], q);
    }
}

fn per_layer(
    ctx: &Ctx,
    w: Workload,
    m: &mut Metrics,
    ops: &mut Ops,
    report: StackReport,
    samples: u64,
) {
    let t = &ctx.tracer;
    let per = |busy: &str, count: &str| t.busy(busy).0 as f64 / t.counted(count).max(1) as f64;
    let vals = |name: &str| t.values(name);
    m.put(
        "chip.packet_ns_per_sample",
        "ns",
        per("chip.packet", "chip.samples"),
    );
    m.pct1(ops, "chip.setup_ms", "ms", vals("chip.setup"), 0.5, 1.0);
    m.pct1(
        ops,
        "link.ingest_delay_p50_ms",
        "ms",
        vals("link.ingest_delay"),
        0.5,
        1.0,
    );
    m.pct1(
        ops,
        "link.ingest_delay_p99_ms",
        "ms",
        vals("link.ingest_delay"),
        0.99,
        1.0,
    );
    m.pct1(
        ops,
        "link.write_block_p99_ms",
        "ms",
        vals("link.write"),
        0.99,
        1.0,
    );
    m.put(
        "link.decode_ns_per_frame",
        "ns",
        per("link.decode", "link.decode_frames"),
    );
    m.put(
        "link.pipeline_ns_per_sample",
        "ns",
        per("link.pipeline", "link.pipeline_samples"),
    );
    m.put(
        "link.concealed_frac",
        "ratio",
        t.counted("link.faulty_concealed") as f64 / t.counted("link.faulty_samples").max(1) as f64,
    );
    m.put("link.queue_depth_p99", "count", report.queue_depth_p99);
    m.put("link.evictions", "count", report.evictions as f64);
    m.put(
        "dsp.decimate_ns_per_sample",
        "ns",
        per("dsp.decimate", "dsp.samples"),
    );
    m.pct1(
        ops,
        "hub.on_samples_p50_us",
        "us",
        vals("hub.on_samples"),
        0.5,
        1e3,
    );
    m.pct1(
        ops,
        "hub.on_samples_p99_us",
        "us",
        vals("hub.on_samples"),
        0.99,
        1e3,
    );
    m.pct1(
        ops,
        "hub.status_p99_us",
        "us",
        vals("hub.status"),
        0.99,
        1e3,
    );
    m.put(
        "hub.flushed_records",
        "count",
        t.counted("hub.flushed_records") as f64,
    );
    m.put(
        "store.append_ns_per_sample",
        "ns",
        per("store.append", "store.samples"),
    );
    m.pct1(
        ops,
        "store.read_range_p50_ms",
        "ms",
        vals("store.read_range"),
        0.5,
        1.0,
    );
    m.pct1(
        ops,
        "store.read_range_p99_ms",
        "ms",
        vals("store.read_range"),
        0.99,
        1.0,
    );
    m.put(
        "store.points_per_budget",
        "ratio",
        stats::mean(&vals("store.points_per_budget")).unwrap_or(0.0),
    );
    m.pct1(
        ops,
        "store.compact_s",
        "s",
        vals("store.compact"),
        0.5,
        1e-3,
    );
    m.pct1(ops, "store.open_s", "s", vals("store.open"), 0.5, 1e-3);
    for route in ["prepare", "start", "stop", "status", "readings", "waveform"] {
        let xs = vals(&format!("api.{route}"));
        m.pct1(
            ops,
            &format!("api.{route}_p50_ms"),
            "ms",
            xs.clone(),
            0.5,
            1.0,
        );
        m.pct1(ops, &format!("api.{route}_p99_ms"), "ms", xs, 0.99, 1.0);
    }
    m.pct1(
        ops,
        "api.serve_overhead_p50_ms",
        "ms",
        vals("api.serve_overhead"),
        0.5,
        1.0,
    );
    m.put("api.errors", "count", t.counted("api.errors") as f64);
    m.pct1(
        ops,
        "scope.scrape_p50_ms",
        "ms",
        vals("scope.scrape"),
        0.5,
        1.0,
    );
    m.pct1(
        ops,
        "scope.payload_bytes",
        "bytes",
        vals("scope.payload_bytes"),
        0.5,
        1.0,
    );
    m.pct1(ops, "gen.late_p99_ms", "ms", vals("gen.late"), 0.99, 1.0);

    let spans = t.spans();
    for fault in t.faults() {
        ops.fail(format!("trace: {fault}"));
    }
    match Ledger::build(
        &spans,
        |s| s.parent == 0 && s.name.starts_with("gen."),
        &LAYERS,
        samples,
        t.counted("gen.wall_ns"),
    ) {
        Ok(ledger) => {
            for (layer, v) in &ledger.rows {
                m.put(&format!("ledger.{layer}_ns_per_sample"), "ns", *v);
            }
            m.put(
                "ledger.unattributed_ns_per_sample",
                "ns",
                ledger.unattributed,
            );
            m.put("ledger.total_ns_per_sample", "ns", ledger.total);
            let frac = ledger.attributed_frac();
            m.put("ledger.attributed_frac", "ratio", frac);
            ops.check(ledger.balances(), || {
                format!("ledger rows do not sum to the generators' wall time: {ledger:?}")
            });
            if w == Workload::Batch {
                ops.check(frac >= ATTRIBUTED_GATE, || {
                    format!("ledger attributes {frac:.3} of wall time, below {ATTRIBUTED_GATE}")
                });
            }
        }
        Err(e) => ops.fail(e),
    }
}

fn context_line(ctx: &Ctx, args: &Args, m: &Metrics, setup_s: &[f64]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"noise_kernel\": \"{}\", \"bank_kernel\": \"{}\", \"replay_multiple\": {}, \
         \"session_s\": {{\"ward_live\": {}, \"chain_batch\": {}, \"warmup\": {}}}, \"telemetry\": \"on\", \
         \"setup_s\": {:?}, \"percentiles\": {{",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        ctx.nproc,
        tonos_analog::noise::kernel_name(),
        tonos_analog::bank::kernel_name(),
        ward::REPLAY_X,
        ward::STREAM_S,
        batch::STREAM_S,
        WARMUP_S,
        setup_s,
    );
    for (i, (name, (q, n))) in m.picks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"q\": {q}, \"n\": {n}}}");
    }
    s.push_str("}}}");
    s
}
