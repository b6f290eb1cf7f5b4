//! The batch engine: B sessions per worker, converted on one lane bank,
//! scheduled on the fleet's shared worker pool.
//!
//! [`FleetEngine`] parallelizes across threads — one session per core.
//! On narrow hardware (or when cores are saturated) the next axis is
//! *within* the instruction stream:
//! [`tonos_core::batch::run_batch_with_scratch`] steps K modulators per
//! clock through one SoA lane bank, converting K patients per core.
//! [`BatchEngine`] wraps that mode in the same fleet contract:
//!
//! * **Same pool.** A batch engine is a facade over a [`FleetEngine`]:
//!   its lane groups run on the same workers as ordinary sessions and
//!   chunk actors, so batch conversion, scalar sessions, and live
//!   ingest share one fixed-size pool (a `Dispatch::Batch` kick in the
//!   engine's job queue). [`BatchEngine::fleet`] /
//!   [`BatchEngine::fleet_mut`] expose it.
//! * **Per-worker shards, work-stealing rebalance.** Submitted groups
//!   land on per-worker lane queues (round-robin). A worker drains its
//!   own queue first and steals from the longest other queue when dry —
//!   session join/retire churn rebalances instead of idling workers.
//!   [`names::FLEET_LANE_STEALS`] counts steals;
//!   [`names::FLEET_BATCH_OCCUPANCY`] records how many lanes each
//!   claimed group actually filled.
//! * **Per-worker bank scratch.** Each fleet worker owns one
//!   [`BatchScratch`]: the lane bank's chunk rows are grown by the
//!   first batch a worker runs and reused for every later batch, so
//!   the steady state allocates nothing per group. The noise draws
//!   route through `LockstepFill`, so on x86-64 every shard inherits
//!   the runtime-dispatched explicit-SIMD noise kernel (4/8 generator
//!   streams per vector register) with no change up here.
//! * **Same isolation.** Every session in a batch still gets its own
//!   telemetry [`Registry`]; lanes share an instruction stream, never a
//!   registry.
//! * **Same graceful failure.** A batch whose banked run errors or
//!   panics falls back to scalar sessions, one at a time under
//!   [`catch_unwind`] — the failing lane fails alone and is reported
//!   individually; healthy lanes still complete.
//! * **Same reporting.** Results come back as the familiar
//!   [`FleetReport`]. Banked lanes are bit-identical to scalar sessions,
//!   so the two engines produce the same summaries for the same specs.
//!
//! Per-session `wall_s` in a banked batch is the batch wall time divided
//! by the lane count — the fair per-patient share of the core.
//!
//! Pick [`BatchEngine`] over the plain thread-pool engine when sessions
//! outnumber cores and specs are lockstep-compatible (same config shape
//! and duration); see `ARCHITECTURE.md` § Lane bank for the full
//! guidance.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use tonos_core::batch::{run_batch_with_scratch, BatchScratch};
use tonos_core::monitor::BloodPressureMonitor;
use tonos_telemetry::{buckets, names, Registry, Telemetry, TelemetrySnapshot};

use crate::engine::{panic_message, FleetConfig, FleetEngine, RawResult};
use crate::report::FleetReport;
use crate::session::{summarize, SessionContext, SessionOutcome, SessionSpec};

/// Batch engine sizing.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Sessions per batch — the lane count K of each worker's bank
    /// (clamped to at least 1).
    pub lanes: usize,
}

impl Default for BatchConfig {
    /// One worker per hardware thread, eight lanes per bank.
    fn default() -> Self {
        BatchConfig {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            lanes: 8,
        }
    }
}

/// Lane-bank work shared between a [`BatchEngine`] and the fleet
/// workers: one session queue per worker, drained `lanes` sessions at a
/// time.
///
/// All scheduling state lives under one mutex, so the wakeup protocol
/// has no lost-update window: a producer that enqueues work sees the
/// exact set of active runners (and kicks more workers if needed), and
/// a runner gives its slot back *in the same critical section* that
/// finds every queue empty.
pub(crate) struct BatchShard {
    /// Sessions per claimed group — the bank's lane count K.
    lanes: usize,
    state: Mutex<ShardState>,
    /// Fleet-level telemetry (the owning engine's registry): steal and
    /// occupancy instruments plus the per-session banked/scalar mode
    /// counters recorded worker-side.
    telemetry: Telemetry,
}

struct ShardState {
    /// One FIFO of staged sessions per worker index.
    queues: Vec<VecDeque<(u64, SessionSpec)>>,
    /// Round-robin cursor: which queue the next submitted group joins.
    next: usize,
    /// Workers currently kicked at (or draining) this shard.
    runners: usize,
}

impl std::fmt::Debug for BatchShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchShard")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl BatchShard {
    fn new(workers: usize, lanes: usize, telemetry: Telemetry) -> Self {
        BatchShard {
            lanes: lanes.max(1),
            state: Mutex::new(ShardState {
                queues: (0..workers.max(1)).map(|_| VecDeque::new()).collect(),
                next: 0,
                runners: 0,
            }),
            telemetry,
        }
    }

    /// Places one submitted group on a worker queue (round-robin) and
    /// returns how many batch kicks the caller owes the pool: enough
    /// that every non-empty queue could have a runner, counting the
    /// runners already active.
    fn submit(&self, group: Vec<(u64, SessionSpec)>, workers: usize) -> usize {
        let mut s = self.state.lock().expect("shard state lock poisoned");
        let slot = s.next % s.queues.len();
        s.next = (s.next + 1) % s.queues.len();
        s.queues[slot].extend(group);
        let nonempty = s.queues.iter().filter(|q| !q.is_empty()).count();
        let kicks = nonempty.min(workers.max(1)).saturating_sub(s.runners);
        s.runners += kicks;
        kicks
    }

    /// Claims up to `lanes` sessions for worker `who`: its own queue
    /// first, otherwise stolen from the longest other queue (rebalance
    /// on join/retire churn). `None` means every queue is empty and the
    /// runner slot has been released — the caller stops draining; the
    /// next [`submit`](BatchShard::submit) re-kicks.
    fn claim(&self, who: usize) -> Option<Vec<(u64, SessionSpec)>> {
        let group = {
            let mut s = self.state.lock().expect("shard state lock poisoned");
            let n = s.queues.len();
            let own = who % n;
            let src = if s.queues[own].is_empty() {
                let victim = (0..n)
                    .filter(|&i| i != own && !s.queues[i].is_empty())
                    .max_by_key(|&i| s.queues[i].len());
                match victim {
                    Some(v) => v,
                    None => {
                        s.runners -= 1;
                        return None;
                    }
                }
            } else {
                own
            };
            if src != own {
                self.telemetry.counter(names::FLEET_LANE_STEALS).inc();
            }
            let take = s.queues[src].len().min(self.lanes);
            s.queues[src].drain(..take).collect::<Vec<_>>()
        };
        self.telemetry
            .histogram(names::FLEET_BATCH_OCCUPANCY, &occupancy_buckets(self.lanes))
            .record(group.len() as f64);
        Some(group)
    }

    /// Drains the shard on one fleet worker: claim, convert, report,
    /// repeat until dry. `Err` means the engine is gone.
    pub(crate) fn run_on_worker(
        &self,
        who: usize,
        scratch: &mut BatchScratch,
        results: &Sender<RawResult>,
    ) -> Result<(), ()> {
        while let Some(group) = self.claim(who) {
            for raw in run_group(group, scratch, &self.telemetry) {
                results.send(raw).map_err(|_| ())?;
            }
        }
        Ok(())
    }
}

/// Histogram bounds for lane occupancy: one bucket per lane count.
fn occupancy_buckets(lanes: usize) -> Vec<f64> {
    buckets::linear(1.0, 1.0, lanes.max(1))
}

/// A facade running monitoring sessions K-at-a-time on lane banks, with
/// scalar fallback per batch, on a shared [`FleetEngine`] worker pool.
///
/// Lifecycle mirrors [`FleetEngine`]: [`spawn`](BatchEngine::spawn) →
/// [`push`](BatchEngine::push) → [`drain`](BatchEngine::drain)
/// (repeatable). Sessions are grouped into batches of `lanes` in
/// submission order; a partial batch is flushed by the next drain.
#[derive(Debug)]
pub struct BatchEngine {
    fleet: FleetEngine,
    shard: Arc<BatchShard>,
    lanes: usize,
    staged: Vec<(u64, SessionSpec)>,
}

impl BatchEngine {
    /// Starts the worker pool (a plain [`FleetEngine`] underneath).
    pub fn spawn(config: BatchConfig) -> Self {
        let fleet = FleetEngine::spawn(FleetConfig {
            workers: config.workers,
        });
        let lanes = config.lanes.max(1);
        let shard = Arc::new(BatchShard::new(fleet.workers(), lanes, fleet.telemetry()));
        BatchEngine {
            fleet,
            shard,
            lanes,
            staged: Vec::new(),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.fleet.workers()
    }

    /// Sessions per batch (the bank's lane count K).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The underlying fleet engine — batch groups, plain sessions
    /// ([`FleetEngine::push`]), and chunk actors
    /// ([`FleetEngine::open_actor`]) all share its worker pool, queue,
    /// and registry.
    pub fn fleet(&self) -> &FleetEngine {
        &self.fleet
    }

    /// Mutable access to the underlying fleet engine.
    pub fn fleet_mut(&mut self) -> &mut FleetEngine {
        &mut self.fleet
    }

    /// Submits a monitoring session; returns its engine-assigned id.
    /// The session is dispatched once a full batch of `lanes` specs has
    /// accumulated (or at the next [`drain`](BatchEngine::drain)).
    pub fn push(&mut self, spec: SessionSpec) -> u64 {
        let id = self.fleet.stage_batch_session();
        self.staged.push((id, spec));
        if self.staged.len() >= self.lanes {
            self.flush();
        }
        id
    }

    /// Dispatches any staged partial batch immediately.
    pub fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let group = std::mem::take(&mut self.staged);
        let kicks = self.shard.submit(group, self.fleet.workers());
        for _ in 0..kicks {
            self.fleet.send_batch(Arc::clone(&self.shard));
        }
    }

    /// Sessions submitted but not yet collected by a drain (staged
    /// sessions included).
    pub fn pending(&self) -> usize {
        self.fleet.pending()
    }

    /// Flushes the staged batch, blocks until every submitted session
    /// has finished, rolls telemetry into the fleet registry, and
    /// returns the outcomes ordered by session id. The engine stays
    /// usable afterwards.
    pub fn drain(&mut self) -> FleetReport {
        self.flush();
        self.fleet.drain()
    }

    /// The fleet-level registry: engine counters plus everything rolled
    /// up from drained sessions.
    pub fn registry(&self) -> &Registry {
        self.fleet.registry()
    }

    /// Handle onto the fleet-level registry.
    pub fn telemetry(&self) -> Telemetry {
        self.fleet.telemetry()
    }

    /// Snapshot of the fleet-level registry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.fleet.snapshot()
    }

    /// Drains outstanding sessions, stops the workers, and returns the
    /// final report.
    pub fn shutdown(mut self) -> FleetReport {
        self.flush();
        self.fleet.shutdown()
    }
}

/// Executes one claimed group: banked first, scalar fallback on any
/// error. Per-session mode counters land on the fleet registry here,
/// worker-side; outcome counters and the session span are recorded by
/// [`FleetEngine`] when it collects the results.
fn run_group(
    group: Vec<(u64, SessionSpec)>,
    scratch: &mut BatchScratch,
    telemetry: &Telemetry,
) -> Vec<RawResult> {
    if let Some(raws) = try_banked(&group, scratch) {
        telemetry
            .counter(names::FLEET_BATCHES_BANKED)
            .add(raws.len() as u64);
        return raws;
    }
    telemetry
        .counter(names::FLEET_BATCHES_SCALAR)
        .add(group.len() as u64);
    // Scalar fallback: the exact fleet-engine session path, one spec at
    // a time, each under its own registry and catch_unwind, so the lane
    // that poisoned the bank fails alone.
    group
        .into_iter()
        .map(|(id, spec)| {
            let registry = Registry::new();
            let ctx = SessionContext {
                id,
                label: spec.label.clone(),
                telemetry: registry.telemetry(),
            };
            let label = spec.label.clone();
            let started = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(|| spec.run(&ctx))) {
                Ok(Ok(summary)) => SessionOutcome::Completed(summary),
                Ok(Err(error)) => SessionOutcome::Failed(error),
                Err(payload) => SessionOutcome::Panicked(panic_message(payload.as_ref())),
            };
            RawResult {
                id,
                label,
                wall_s: started.elapsed().as_secs_f64(),
                outcome,
                snapshot: registry.snapshot(),
            }
        })
        .collect()
}

/// Attempts the banked lockstep run. `None` means "use the scalar
/// fallback" — heterogeneous durations, any construction/run error, or
/// a panic inside the bank. The registries built here are discarded on
/// fallback so a half-run banked attempt never double-counts telemetry.
fn try_banked(
    sessions: &[(u64, SessionSpec)],
    scratch: &mut BatchScratch,
) -> Option<Vec<RawResult>> {
    let k = sessions.len();
    let duration_s = sessions[0].1.duration_s;
    if sessions.iter().any(|(_, s)| s.duration_s != duration_s) {
        return None;
    }
    let registries: Vec<Registry> = (0..k).map(|_| Registry::new()).collect();
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
        let mut monitors = Vec::with_capacity(k);
        for ((_, spec), registry) in sessions.iter().zip(&registries) {
            let mut monitor = BloodPressureMonitor::new(spec.config, spec.patient)
                .map_err(|e| e.to_string())?
                .with_telemetry(registry.telemetry());
            if let Some(frames) = spec.scan_window {
                monitor = monitor.with_scan_window(frames);
            }
            monitors.push(monitor);
        }
        run_batch_with_scratch(&mut monitors, duration_s, scratch).map_err(|e| e.to_string())
    }));
    let completed = match run {
        Ok(Ok(completed)) => completed,
        // Error or panic: one lane (or the group shape) is bad. Rerun
        // scalar so the healthy lanes complete and the bad one is
        // isolated and reported with its own error.
        _ => return None,
    };
    let wall_each = started.elapsed().as_secs_f64() / k as f64;
    let mut raws = Vec::with_capacity(k);
    for (((id, spec), session), registry) in sessions.iter().zip(&completed).zip(&registries) {
        let outcome = match summarize(session, spec.alarm_limits, &registry.telemetry()) {
            Ok(summary) => SessionOutcome::Completed(summary),
            Err(error) => SessionOutcome::Failed(error),
        };
        raws.push(RawResult {
            id: *id,
            label: spec.label.clone(),
            wall_s: wall_each,
            outcome,
            snapshot: registry.snapshot(),
        });
    }
    Some(raws)
}
