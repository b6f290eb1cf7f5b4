//! The traced run's span recorder and the per-layer ledger built from it.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer. A span carries a name (`<layer>.<op>`), a start and end, its
//! parent (the span open on the same thread when it began) and the
//! session it belongs to. Calls too frequent to log one by one (a chip
//! packet, a socket write) are timed as a [`Bulk`]: one span record per
//! session holding the summed busy time and the call count, plus every
//! call's duration for percentiles.
//!
//! A span's self time is its busy time minus the busy time of its
//! children. That subtraction is exact only if no two spans of a thread
//! count the same time, so the recorder flags every way one could: a
//! span opened inside a bulk-timed call, a bulk group that outlives the
//! span it was opened in, a span closed out of order. Each generator
//! thread's wall time is also measured apart from its root span
//! ([`Tracer::generator`]), so the ledger's total does not come from the
//! spans it splits and a thread without a root span shows.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds between two [`now_ns`] readings.
pub fn ms(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static IN_BULK: Cell<bool> = const { Cell::new(false) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span (or one bulk group of calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Session the work belongs to (0 when none).
    pub session: u64,
    /// Recording thread.
    pub thread: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Time spent inside the call(s): `end - start` for a single span,
    /// the summed call durations for a bulk group.
    pub busy_ns: u64,
    /// Calls covered (1 for a single span).
    pub count: u64,
}

impl SpanRec {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<SpanRec>,
    values: HashMap<&'static str, Vec<f64>>,
    counts: HashMap<&'static str, u64>,
    faults: Vec<String>,
}

/// The innermost open span on this thread (0 when none).
fn stack_top() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// In-memory span and sample recorder; inert until enabled.
#[derive(Default)]
pub struct Tracer {
    on: AtomicBool,
    next_id: AtomicU64,
    log: Mutex<Log>,
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("trace log lock")
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a span-nesting error; any fails the ledger check.
    fn fault(&self, msg: String) {
        let mut log = self.log();
        if log.faults.len() < 8 {
            log.faults.push(msg);
        }
    }

    /// Every span-nesting error recorded.
    pub fn faults(&self) -> Vec<String> {
        self.log().faults.clone()
    }

    /// Runs one load-generating thread's body `f`, adding its wall time
    /// to `gen.wall_ns` while tracing: the ledger's total.
    pub fn generator<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = now_ns();
        let r = f();
        self.count("gen.wall_ns", now_ns() - t0);
        r
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, session: u64) -> Span<'_> {
        if !self.enabled() {
            return Span { open: None };
        }
        if IN_BULK.with(Cell::get) {
            self.fault(format!("span {name} opened inside a bulk-timed call"));
        }
        let id = self.fresh_id();
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Span {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                name,
                session,
                start: now_ns(),
            }),
        }
    }

    /// A bulk timer for frequent calls of one kind within a session.
    pub fn bulk(&self, name: &'static str, session: u64) -> Bulk<'_> {
        Bulk {
            tracer: self.enabled().then_some(self),
            parent: stack_top(),
            name,
            session,
            first: 0,
            last: 0,
            busy: 0,
            durations: Vec::new(),
        }
    }

    /// Records one sample of a named quantity (latencies in ms).
    pub fn value(&self, name: &'static str, v: f64) {
        if self.enabled() {
            self.log().values.entry(name).or_default().push(v);
        }
    }

    /// Adds to a named count.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled() {
            *self.log().counts.entry(name).or_default() += n;
        }
    }

    fn push(&self, rec: SpanRec, durations_ms: Vec<f64>) {
        let mut log = self.log();
        if !durations_ms.is_empty() {
            log.values.entry(rec.name).or_default().extend(durations_ms);
        }
        log.spans.push(rec);
    }

    /// Every recorded span so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.log().spans.clone()
    }

    /// Every sample of a named quantity.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.log().values.get(name).cloned().unwrap_or_default()
    }

    /// A named count (0 when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.log().counts.get(name).copied().unwrap_or(0)
    }

    /// Summed busy time and call count of every span named `name`.
    pub fn busy(&self, name: &str) -> (u64, u64) {
        self.log()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(b, c), s| (b + s.busy_ns, c + s.count))
    }

    /// Writes every span as tab-separated text, one per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let log = self.log();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tthread\tsession\tname\tstart_ns\tend_ns\tbusy_ns\tcount"
        )?;
        for s in &log.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.thread,
                s.session,
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.count
            )?;
        }
        out.flush()
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    session: u64,
    start: u64,
}

/// Guard of an open span.
pub struct Span<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else {
            return;
        };
        let end = now_ns();
        if STACK.with(|s| s.borrow_mut().pop()) != Some(o.id) {
            o.tracer
                .fault(format!("span {} closed out of order", o.name));
        }
        let busy = end - o.start;
        o.tracer.push(
            SpanRec {
                id: o.id,
                parent: o.parent,
                name: o.name,
                session: o.session,
                thread: THREAD.with(|t| *t),
                start_ns: o.start,
                end_ns: end,
                busy_ns: busy,
                count: 1,
            },
            vec![busy as f64 / 1e6],
        );
    }
}

/// Times many short calls of one kind; records one span on drop.
pub struct Bulk<'a> {
    tracer: Option<&'a Tracer>,
    /// The span open when the group was created; every call and the
    /// group's record belong to it.
    parent: u64,
    name: &'static str,
    session: u64,
    first: u64,
    last: u64,
    busy: u64,
    durations: Vec<f64>,
}

impl Bulk<'_> {
    /// Runs `f`, timing it when tracing.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f();
        };
        if stack_top() != self.parent || IN_BULK.with(Cell::get) {
            tracer.fault(format!(
                "{} timed outside the span it belongs to",
                self.name
            ));
        }
        let t0 = now_ns();
        IN_BULK.with(|b| b.set(true));
        let r = f();
        IN_BULK.with(|b| b.set(false));
        let t1 = now_ns();
        if self.durations.is_empty() {
            self.first = t0;
        }
        self.last = t1;
        self.busy += t1 - t0;
        self.durations.push((t1 - t0) as f64 / 1e6);
        r
    }
}

impl Drop for Bulk<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else {
            return;
        };
        if self.durations.is_empty() {
            return;
        }
        if stack_top() != self.parent {
            tracer.fault(format!("{} outlived the span it was opened in", self.name));
        }
        tracer.push(
            SpanRec {
                id: tracer.fresh_id(),
                parent: self.parent,
                name: self.name,
                session: self.session,
                thread: THREAD.with(|t| *t),
                start_ns: self.first,
                end_ns: self.last,
                busy_ns: self.busy,
                count: self.durations.len() as u64,
            },
            std::mem::take(&mut self.durations),
        );
    }
}

/// Largest share of the total by which the rows plus the unattributed
/// row may miss it: the generator code that runs outside its root span.
const BALANCE_TOLERANCE: f64 = 1e-3;

/// Per-layer wall-time ledger over the trees under chosen root spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(layer, ns per sample)` for every layer, in a fixed order.
    pub rows: Vec<(&'static str, f64)>,
    /// Root self time per sample: time in no layer's call.
    pub unattributed: f64,
    /// The generator threads' wall time per sample, measured apart
    /// from the spans.
    pub total: f64,
}

impl Ledger {
    /// Charges the self time of every span below a root accepted by
    /// `is_root` to its layer; the roots' own self time is the
    /// unattributed row. `wall_ns` is the generator threads' measured
    /// wall time. A layer not listed in `layers`, and a span whose
    /// children cover more than it or lie outside it, are errors.
    pub fn build(
        spans: &[SpanRec],
        is_root: impl Fn(&SpanRec) -> bool,
        layers: &[&'static str],
        samples: u64,
        wall_ns: u64,
    ) -> Result<Ledger, String> {
        let mut child_busy: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_busy.entry(s.parent).or_default() += s.busy_ns;
            }
        }
        let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
        for s in spans {
            if let Some(p) = by_id.get(&s.parent) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} lies outside its parent {}",
                        s.name, p.name
                    ));
                }
            }
        }
        let root_of = |s: &SpanRec| -> Option<u64> {
            let mut cur = s;
            loop {
                if is_root(cur) {
                    return Some(cur.id);
                }
                cur = by_id.get(&cur.parent)?;
            }
        };
        let mut rows: BTreeMap<&'static str, i128> = layers.iter().map(|&l| (l, 0)).collect();
        let mut unattributed: i128 = 0;
        for s in spans {
            if root_of(s).is_none() {
                continue;
            }
            let own =
                i128::from(s.busy_ns) - i128::from(child_busy.get(&s.id).copied().unwrap_or(0));
            if own < 0 {
                return Err(format!(
                    "the children of span {} cover more than it",
                    s.name
                ));
            }
            if is_root(s) {
                unattributed += own;
            } else {
                *rows
                    .get_mut(s.layer())
                    .ok_or_else(|| format!("span {} is in no ledger layer", s.name))? += own;
            }
        }
        let per = |ns: i128| ns as f64 / samples.max(1) as f64;
        Ok(Ledger {
            rows: layers.iter().map(|&l| (l, per(rows[l]))).collect(),
            unattributed: per(unattributed),
            total: per(i128::from(wall_ns)),
        })
    }

    /// Share of the total charged to a layer.
    pub fn attributed_frac(&self) -> f64 {
        if self.total > 0.0 {
            self.rows.iter().map(|(_, v)| v).sum::<f64>() / self.total
        } else {
            0.0
        }
    }

    /// Whether the rows plus the unattributed row sum to the measured
    /// total: false when a generator thread has no root span, or a root
    /// does not cover its thread's work.
    pub fn balances(&self) -> bool {
        let sum: f64 = self.rows.iter().map(|(_, v)| v).sum::<f64>() + self.unattributed;
        self.total > 0.0 && (sum - self.total).abs() <= BALANCE_TOLERANCE * self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = now_ns();
        while now_ns() - t < us * 1000 {}
    }

    const LAYERS: [&str; 4] = ["api", "chip", "hub", "store"];

    fn ledger(tracer: &Tracer) -> Result<Ledger, String> {
        Ledger::build(
            &tracer.spans(),
            |s| s.name.starts_with("gen."),
            &LAYERS,
            10,
            tracer.counted("gen.wall_ns"),
        )
    }

    #[test]
    fn ledger_rows_and_unattributed_sum_to_the_total() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.generator(|| {
            let _root = tracer.span("gen.client", 1);
            spin(2000);
            {
                let _api = tracer.span("api.status", 1);
                spin(3000);
                let _inner = tracer.span("store.read", 1);
                spin(1000);
            }
            let mut chip = tracer.bulk("chip.packet", 1);
            for _ in 0..5 {
                chip.time(|| spin(500));
            }
        });
        // A span outside any root stays out of the ledger.
        drop(tracer.span("hub.on_samples", 2));
        assert!(tracer.faults().is_empty(), "{:?}", tracer.faults());
        let ledger = ledger(&tracer).unwrap();
        assert!(ledger.balances(), "{ledger:?}");
        let row = |l: &str| ledger.rows.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!(row("api") >= 300_000.0, "{ledger:?}");
        assert!(row("store") >= 100_000.0);
        assert!(row("chip") >= 250_000.0);
        assert_eq!(row("hub"), 0.0);
        assert!(ledger.unattributed >= 200_000.0);
        let frac = ledger.attributed_frac();
        assert!(frac > 0.0 && frac < 1.0);
        assert_eq!(tracer.busy("chip.packet").1, 5);
        assert_eq!(tracer.values("chip.packet").len(), 5);
    }

    #[test]
    fn unknown_layers_are_rejected_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        drop(tracer.span("gen.client", 1));
        tracer.value("x", 1.0);
        assert!(tracer.spans().is_empty());
        assert!(tracer.values("x").is_empty());
        tracer.set_enabled(true);
        {
            let _root = tracer.span("gen.client", 1);
            drop(tracer.span("mystery.op", 1));
        }
        let err = Ledger::build(
            &tracer.spans(),
            |s| s.name.starts_with("gen."),
            &["api"],
            1,
            1,
        );
        assert!(err.is_err());
    }

    #[test]
    fn a_generator_without_a_root_span_unbalances_the_ledger() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.generator(|| {
            let _root = tracer.span("gen.client", 1);
            let _api = tracer.span("api.status", 1);
            spin(5000);
        });
        assert!(ledger(&tracer).unwrap().balances());
        // A second thread's work, timed but under no root.
        tracer.generator(|| {
            let _api = tracer.span("api.status", 1);
            spin(20000);
        });
        let unbalanced = ledger(&tracer).unwrap();
        assert!(!unbalanced.balances(), "{unbalanced:?}");
    }

    #[test]
    fn double_counted_time_is_flagged() {
        // A span opened inside a bulk-timed call: its time would count
        // in both the bulk group and the span.
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        {
            let _root = tracer.span("gen.client", 1);
            let mut chip = tracer.bulk("chip.packet", 1);
            chip.time(|| drop(tracer.span("hub.status", 1)));
        }
        assert_eq!(tracer.faults().len(), 1, "{:?}", tracer.faults());

        // A bulk group that outlives the span it was opened in.
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        {
            let _root = tracer.span("gen.client", 1);
            let api = tracer.span("api.status", 1);
            let mut chip = tracer.bulk("chip.packet", 1);
            chip.time(|| spin(10));
            drop(api);
            chip.time(|| spin(10));
        }
        assert_eq!(tracer.faults().len(), 2, "{:?}", tracer.faults());

        // Children that cover more than their parent.
        let spans = [
            SpanRec {
                id: 1,
                parent: 0,
                name: "gen.client",
                session: 0,
                thread: 1,
                start_ns: 0,
                end_ns: 100,
                busy_ns: 100,
                count: 1,
            },
            SpanRec {
                id: 2,
                parent: 1,
                name: "api.status",
                session: 0,
                thread: 1,
                start_ns: 0,
                end_ns: 100,
                busy_ns: 150,
                count: 3,
            },
        ];
        let err = Ledger::build(&spans, |s| s.parent == 0, &LAYERS, 1, 100);
        assert!(err.is_err(), "{err:?}");
    }
}
