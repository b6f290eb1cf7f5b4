//! The fleet engine: a fixed worker pool running isolated sessions.
//!
//! ## Design
//!
//! * **Fixed pool, shared queue.** [`FleetEngine::spawn`] starts
//!   `workers` OS threads up front; submissions go down one shared
//!   channel (`Mutex<Receiver>` hand-off, the classic pool shape) so a
//!   long session on one worker never blocks the queue for the others.
//! * **Session isolation.** Each session runs against its *own*
//!   [`Registry`]; the worker snapshots it when the session ends and
//!   ships the immutable snapshot back with the outcome. Sessions share
//!   no mutable state — not even instruments.
//! * **Graceful failure.** The workload runs under
//!   [`std::panic::catch_unwind`]; a poisoned session comes back as
//!   [`SessionOutcome::Panicked`] and its worker moves on to the next
//!   job. One bad patient model cannot take down the ward.
//! * **Aggregate telemetry.** [`FleetEngine::drain`] rolls every
//!   session snapshot into the engine's fleet-level registry (via
//!   [`Rollup`]), alongside the engine's own counters
//!   ([`names::FLEET_SESSIONS_STARTED`] and friends) and the per-session
//!   wall-clock span [`names::SPAN_FLEET_SESSION`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tonos_telemetry::{names, Registry, Rollup, Telemetry, TelemetrySnapshot};

use crate::report::{FleetReport, SessionResult};
use crate::session::{SessionContext, SessionOutcome, SessionSpec, SessionSummary};

/// A boxed session workload: what a worker actually executes.
///
/// [`FleetEngine::push`] wraps a [`SessionSpec`] into one of these;
/// [`FleetEngine::push_task`] accepts one directly, which is how tests
/// inject failing or panicking workloads.
pub type SessionTask =
    Box<dyn FnOnce(&SessionContext) -> Result<SessionSummary, String> + Send + 'static>;

/// Fleet sizing.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
}

impl Default for FleetConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        FleetConfig {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// What a chunk actor's handler is invoked with.
///
/// See [`FleetEngine::open_actor`] for the actor lifecycle.
#[derive(Debug)]
pub enum ActorEvent<'a> {
    /// One chunk pushed via [`ActorHandle::try_push_chunk`], delivered
    /// in push order.
    Chunk(&'a [u8]),
    /// The handle was closed (or dropped); no further chunks follow.
    /// The handler must return its session summary now.
    Closed,
}

/// A chunk-actor workload: invoked once per [`ActorEvent`], always by
/// at most one worker at a time, in chunk order. Returning
/// `Some(result)` finishes the session (mandatory on
/// [`ActorEvent::Closed`]; allowed earlier to terminate the actor).
pub type ActorHandler = Box<
    dyn FnMut(ActorEvent<'_>, &SessionContext) -> Option<Result<SessionSummary, String>>
        + Send
        + 'static,
>;

/// A chunk failed to enqueue because the actor's queue is at capacity
/// (or the actor is closed); the chunk is handed back for the caller
/// to retry, buffer, or drop.
#[derive(Debug)]
pub struct ChunkFull(pub Vec<u8>);

/// Queue state shared between an [`ActorHandle`] and the workers.
struct ActorQueue {
    chunks: VecDeque<Vec<u8>>,
    closed: bool,
    /// Set once the final result has been shipped; late chunks and
    /// re-schedules become no-ops.
    finished: bool,
}

/// Per-actor execution state, entered by one worker at a time.
struct ActorState {
    handler: ActorHandler,
    registry: Registry,
    ctx: SessionContext,
    started: Instant,
}

/// Everything a parked chunk actor owns, shared between its handle and
/// whichever worker is currently scheduled to run it.
struct ActorShared {
    id: u64,
    label: String,
    cap: usize,
    queue: Mutex<ActorQueue>,
    /// At most one worker runs (or is queued to run) the actor at a
    /// time: set by the scheduler via compare-and-swap before
    /// dispatching, cleared by the worker when the queue looks empty.
    /// This is what preserves per-connection chunk ordering on a
    /// many-connection pool.
    scheduled: AtomicBool,
    state: Mutex<Option<ActorState>>,
}

/// The submitter's end of a chunk actor (not cloneable: one producer
/// per actor keeps the ordering story trivial). Dropping the handle
/// closes the actor.
pub struct ActorHandle {
    shared: Arc<ActorShared>,
    jobs: Weak<JobSender>,
}

impl std::fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHandle")
            .field("id", &self.shared.id)
            .field("label", &self.shared.label)
            .finish()
    }
}

impl ActorHandle {
    /// The engine-assigned session id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Chunks currently queued and not yet handled.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().map_or(0, |q| q.chunks.len())
    }

    /// Enqueues a chunk for the actor's handler.
    ///
    /// # Errors
    ///
    /// Returns [`ChunkFull`] (handing the chunk back) when the queue is
    /// at capacity — the backpressure signal a readiness loop turns
    /// into "stop reading this socket" — or when the actor is already
    /// closed.
    pub fn try_push_chunk(&self, chunk: Vec<u8>) -> Result<(), ChunkFull> {
        {
            let Ok(mut queue) = self.shared.queue.lock() else {
                return Err(ChunkFull(chunk));
            };
            if queue.closed || queue.finished || queue.chunks.len() >= self.shared.cap {
                return Err(ChunkFull(chunk));
            }
            queue.chunks.push_back(chunk);
        }
        self.schedule();
        Ok(())
    }

    /// Closes the actor: its handler sees [`ActorEvent::Closed`] after
    /// the chunks already queued, returns the session summary, and the
    /// session is accounted like any other fleet session. Idempotent.
    pub fn close(&self) {
        if let Ok(mut queue) = self.shared.queue.lock() {
            if queue.closed {
                return;
            }
            queue.closed = true;
        }
        self.schedule();
    }

    /// Dispatches the actor to a worker unless one is already running
    /// (or queued to run) it.
    fn schedule(&self) {
        if self
            .shared
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if let Some(jobs) = self.jobs.upgrade() {
                if jobs
                    .0
                    .send(Dispatch::Actor(Arc::clone(&self.shared)))
                    .is_ok()
                {
                    return;
                }
            }
            // Engine gone: nothing will run the actor.
            self.shared.scheduled.store(false, Ordering::Release);
        }
    }
}

impl Drop for ActorHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// Newtype so actor handles can hold a [`Weak`] reference to the job
/// channel: once the engine closes it, scheduling becomes a no-op
/// instead of keeping the worker pool alive forever.
struct JobSender(Sender<Dispatch>);

impl std::fmt::Debug for JobSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobSender")
    }
}

/// One submission travelling to a worker.
enum Dispatch {
    /// A run-to-completion session occupying one worker.
    Task {
        id: u64,
        label: String,
        task: SessionTask,
    },
    /// A chunk actor with queued work (or a close) to process.
    Actor(Arc<ActorShared>),
}

/// One finished session travelling back from a worker.
struct RawResult {
    id: u64,
    label: String,
    wall_s: f64,
    outcome: SessionOutcome,
    snapshot: TelemetrySnapshot,
}

/// A pool of worker threads running monitoring sessions concurrently.
///
/// Lifecycle: [`spawn`](FleetEngine::spawn) →
/// [`push`](FleetEngine::push) / [`push_task`](FleetEngine::push_task) →
/// [`drain`](FleetEngine::drain) (repeatable) — workers stay alive
/// between drains and shut down when the engine drops.
#[derive(Debug)]
pub struct FleetEngine {
    jobs: Option<Arc<JobSender>>,
    results: Receiver<RawResult>,
    workers: Vec<JoinHandle<()>>,
    registry: Registry,
    rollup: Rollup,
    next_id: u64,
    in_flight: usize,
    /// Finished sessions gathered early by
    /// [`poll_finished`](FleetEngine::poll_finished), held for the next
    /// drain's report.
    collected: Vec<SessionResult>,
}

impl FleetEngine {
    /// Starts the worker pool.
    pub fn spawn(config: FleetConfig) -> Self {
        let count = config.workers.max(1);
        let (job_tx, job_rx) = channel::<Dispatch>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = channel::<RawResult>();
        let workers = (0..count)
            .map(|_| {
                let jobs = Arc::clone(&job_rx);
                let results = result_tx.clone();
                thread::spawn(move || worker_loop(&jobs, &results))
            })
            .collect();
        let registry = Registry::new();
        FleetEngine {
            jobs: Some(Arc::new(JobSender(job_tx))),
            results: result_rx,
            workers,
            rollup: Rollup::into_registry(registry.clone()),
            registry,
            next_id: 0,
            in_flight: 0,
            collected: Vec::new(),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a monitoring session; returns its engine-assigned id.
    pub fn push(&mut self, spec: SessionSpec) -> u64 {
        let label = spec.label.clone();
        self.submit(label, Box::new(move |ctx| spec.run(ctx)))
    }

    /// Submits an arbitrary workload under a label — the escape hatch
    /// for custom session shapes and for exercising failure isolation
    /// (a panicking task is contained to its own session).
    pub fn push_task(
        &mut self,
        label: impl Into<String>,
        task: impl FnOnce(&SessionContext) -> Result<SessionSummary, String> + Send + 'static,
    ) -> u64 {
        self.submit(label.into(), Box::new(task))
    }

    fn submit(&mut self, label: String, task: SessionTask) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.telemetry()
            .counter(names::FLEET_SESSIONS_STARTED)
            .inc();
        self.jobs
            .as_ref()
            .expect("job channel open while engine is alive")
            .0
            .send(Dispatch::Task { id, label, task })
            .expect("workers alive while engine is alive");
        self.in_flight += 1;
        id
    }

    /// Opens a **chunk actor**: a session that does not occupy a worker
    /// while idle. Chunks pushed through the returned [`ActorHandle`]
    /// are queued (bounded by `queue_cap`) and the actor is dispatched
    /// to the pool only while it has work, so thousands of mostly-idle
    /// sessions — live ingest connections — share a fixed-size pool.
    ///
    /// Ordering: the handler runs under an at-most-one-worker guarantee
    /// and sees chunks strictly in push order. Panics are contained
    /// exactly like [`FleetEngine::push_task`] sessions
    /// ([`SessionOutcome::Panicked`]); the per-session registry
    /// snapshot is rolled up when the actor finishes.
    ///
    /// The session stays in flight — [`FleetEngine::drain`] will wait
    /// for it — until [`ActorHandle::close`] (or the handle's drop)
    /// lets the handler return its summary.
    pub fn open_actor(
        &mut self,
        label: impl Into<String>,
        queue_cap: usize,
        handler: impl FnMut(ActorEvent<'_>, &SessionContext) -> Option<Result<SessionSummary, String>>
            + Send
            + 'static,
    ) -> ActorHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.telemetry()
            .counter(names::FLEET_SESSIONS_STARTED)
            .inc();
        self.in_flight += 1;
        let label = label.into();
        // Session isolation, actor flavour: the registry is created at
        // open time and lives until the actor closes, so telemetry from
        // every burst of chunks lands in one per-session registry.
        let registry = Registry::new();
        let ctx = SessionContext {
            id,
            label: label.clone(),
            telemetry: registry.telemetry(),
        };
        let shared = Arc::new(ActorShared {
            id,
            label,
            cap: queue_cap.max(1),
            queue: Mutex::new(ActorQueue {
                chunks: VecDeque::new(),
                closed: false,
                finished: false,
            }),
            scheduled: AtomicBool::new(false),
            state: Mutex::new(Some(ActorState {
                handler: Box::new(handler),
                registry,
                ctx,
                started: Instant::now(),
            })),
        });
        let jobs = self
            .jobs
            .as_ref()
            .expect("job channel open while engine is alive");
        ActorHandle {
            shared,
            jobs: Arc::downgrade(jobs),
        }
    }

    /// Sessions submitted but not yet collected by a
    /// [`poll_finished`](FleetEngine::poll_finished) or a drain.
    pub fn pending(&self) -> usize {
        self.in_flight
    }

    /// Collects every session that has already finished — without
    /// blocking — rolling their telemetry into the fleet registry and
    /// holding their results for the next [`drain`](FleetEngine::drain).
    /// Returns the number of sessions still in flight.
    ///
    /// This is what lets a long-lived submitter (an accept loop, a
    /// scheduler) keep an accurate in-flight count between drains.
    pub fn poll_finished(&mut self) -> usize {
        while let Ok(raw) = self.results.try_recv() {
            self.collect(raw);
        }
        self.in_flight
    }

    /// Blocks until every submitted session has finished, rolls their
    /// telemetry into the fleet registry, and returns the outcomes
    /// (ordered by session id). The engine stays usable afterwards.
    pub fn drain(&mut self) -> FleetReport {
        while self.in_flight > 0 {
            let raw = self
                .results
                .recv()
                .expect("workers alive while sessions are in flight");
            self.collect(raw);
        }
        let mut sessions = std::mem::take(&mut self.collected);
        sessions.sort_by_key(|s| s.id);
        FleetReport { sessions }
    }

    fn collect(&mut self, raw: RawResult) {
        self.in_flight -= 1;
        self.absorb(&raw);
        self.collected.push(SessionResult {
            id: raw.id,
            label: raw.label,
            wall_s: raw.wall_s,
            outcome: raw.outcome,
        });
    }

    fn absorb(&mut self, raw: &RawResult) {
        self.rollup.absorb(&raw.snapshot);
        let t = self.telemetry();
        let outcome_counter = match raw.outcome {
            SessionOutcome::Completed(_) => names::FLEET_SESSIONS_COMPLETED,
            SessionOutcome::Failed(_) => names::FLEET_SESSIONS_FAILED,
            SessionOutcome::Panicked(_) => names::FLEET_SESSIONS_PANICKED,
        };
        t.counter(outcome_counter).inc();
        t.span(names::SPAN_FLEET_SESSION)
            .record(Duration::from_secs_f64(raw.wall_s));
    }

    /// The fleet-level registry: engine counters plus everything rolled
    /// up from drained sessions.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Handle onto the fleet-level registry.
    pub fn telemetry(&self) -> Telemetry {
        self.registry.telemetry()
    }

    /// Snapshot of the fleet-level registry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot()
    }

    /// Drains outstanding sessions, stops the workers, and returns the
    /// final report.
    pub fn shutdown(mut self) -> FleetReport {
        let report = self.drain();
        self.close();
        report
    }

    fn close(&mut self) {
        // Dropping the sender ends every worker's recv loop.
        self.jobs = None;
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(jobs: &Mutex<Receiver<Dispatch>>, results: &Sender<RawResult>) {
    loop {
        // Hold the lock only for the hand-off; a worker blocked in recv
        // under the mutex is equivalent to blocking on the mutex itself.
        let dispatch = {
            let Ok(queue) = jobs.lock() else { return };
            match queue.recv() {
                Ok(d) => d,
                Err(_) => return, // engine dropped the sender: shut down
            }
        };
        match dispatch {
            Dispatch::Task { id, label, task } => {
                if run_task(id, label, task, results).is_err() {
                    return; // engine gone; nothing left to report to
                }
            }
            Dispatch::Actor(shared) => {
                if run_actor(&shared, results).is_err() {
                    return;
                }
            }
        }
    }
}

/// Runs one run-to-completion session on this worker.
fn run_task(
    id: u64,
    label: String,
    task: SessionTask,
    results: &Sender<RawResult>,
) -> Result<(), ()> {
    // Session isolation: a registry that lives and dies with this
    // session. Snapshotted below even on panic, so partial telemetry
    // from a failed session still reaches the fleet rollup.
    let registry = Registry::new();
    let ctx = SessionContext {
        id,
        label: label.clone(),
        telemetry: registry.telemetry(),
    };
    let started = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(|| task(&ctx))) {
        Ok(Ok(summary)) => SessionOutcome::Completed(summary),
        Ok(Err(error)) => SessionOutcome::Failed(error),
        Err(payload) => SessionOutcome::Panicked(panic_message(payload.as_ref())),
    };
    let raw = RawResult {
        id,
        label,
        wall_s: started.elapsed().as_secs_f64(),
        outcome,
        snapshot: registry.snapshot(),
    };
    results.send(raw).map_err(|_| ())
}

/// What one handler invocation decided.
enum ActorStep {
    Continue,
    Finished(SessionOutcome),
}

/// Drains a scheduled actor's queue on this worker.
///
/// The `scheduled` flag is cleared only after the queue looks empty,
/// and re-acquired (never double-queued, thanks to the CAS in
/// `ActorHandle::schedule`) if a racing producer slipped a chunk in
/// between the emptiness check and the clear.
fn run_actor(shared: &Arc<ActorShared>, results: &Sender<RawResult>) -> Result<(), ()> {
    loop {
        loop {
            enum Item {
                Chunk(Vec<u8>),
                Close,
                Empty,
            }
            let item = {
                let Ok(mut queue) = shared.queue.lock() else {
                    return Ok(());
                };
                if queue.finished {
                    // Late chunks after the handler already returned its
                    // summary (early finish): discard them.
                    queue.chunks.clear();
                    Item::Empty
                } else if let Some(chunk) = queue.chunks.pop_front() {
                    Item::Chunk(chunk)
                } else if queue.closed {
                    Item::Close
                } else {
                    Item::Empty
                }
            };
            match item {
                Item::Chunk(chunk) => match step_actor(shared, &ActorEvent::Chunk(&chunk)) {
                    ActorStep::Continue => {}
                    ActorStep::Finished(outcome) => finish_actor(shared, outcome, results)?,
                },
                Item::Close => {
                    let outcome = match step_actor(shared, &ActorEvent::Closed) {
                        ActorStep::Finished(outcome) => outcome,
                        ActorStep::Continue => SessionOutcome::Failed(
                            "actor handler returned no summary at close".to_string(),
                        ),
                    };
                    finish_actor(shared, outcome, results)?;
                    break;
                }
                Item::Empty => break,
            }
        }
        // Park the actor. A producer that enqueued after the emptiness
        // check above also ran its CAS; exactly one of us re-schedules.
        shared.scheduled.store(false, Ordering::Release);
        let more = {
            let Ok(queue) = shared.queue.lock() else {
                return Ok(());
            };
            !queue.finished && (!queue.chunks.is_empty() || queue.closed)
        };
        if !more {
            return Ok(());
        }
        if shared
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // A producer won the race and queued a fresh dispatch.
            return Ok(());
        }
        // We won: keep draining on this worker instead of re-queueing.
    }
}

/// Invokes the handler once, under panic containment.
fn step_actor(shared: &Arc<ActorShared>, event: &ActorEvent<'_>) -> ActorStep {
    let Ok(mut slot) = shared.state.lock() else {
        return ActorStep::Finished(SessionOutcome::Failed("actor state poisoned".to_string()));
    };
    let Some(state) = slot.as_mut() else {
        return ActorStep::Continue; // already finished
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let ev = match event {
            ActorEvent::Chunk(c) => ActorEvent::Chunk(c),
            ActorEvent::Closed => ActorEvent::Closed,
        };
        (state.handler)(ev, &state.ctx)
    }));
    match result {
        Ok(None) => ActorStep::Continue,
        Ok(Some(Ok(summary))) => ActorStep::Finished(SessionOutcome::Completed(summary)),
        Ok(Some(Err(error))) => ActorStep::Finished(SessionOutcome::Failed(error)),
        Err(payload) => {
            ActorStep::Finished(SessionOutcome::Panicked(panic_message(payload.as_ref())))
        }
    }
}

/// Ships the actor's result and marks it finished (idempotent).
fn finish_actor(
    shared: &Arc<ActorShared>,
    outcome: SessionOutcome,
    results: &Sender<RawResult>,
) -> Result<(), ()> {
    let state = {
        let Ok(mut slot) = shared.state.lock() else {
            return Ok(());
        };
        slot.take()
    };
    let Some(state) = state else {
        return Ok(()); // a second finish (e.g. close after early finish)
    };
    if let Ok(mut queue) = shared.queue.lock() {
        queue.finished = true;
        queue.chunks.clear();
    }
    let raw = RawResult {
        id: shared.id,
        label: shared.label.clone(),
        wall_s: state.started.elapsed().as_secs_f64(),
        outcome,
        snapshot: state.registry.snapshot(),
    };
    results.send(raw).map_err(|_| ())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
