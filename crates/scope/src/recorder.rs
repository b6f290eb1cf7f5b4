//! The flight recorder: a bounded ring of periodic telemetry deltas.
//!
//! A [`TelemetrySnapshot`] answers "what are the totals *now*?"; an
//! operator debugging a live incident needs "what did this counter do
//! over the last two minutes?". The [`FlightRecorder`] answers that
//! with bounded memory: attached to a [`Registry`], each
//! [`tick`](FlightRecorder::tick) captures a [`SeriesFrame`] holding
//! only the series that **changed** since the previous tick (change
//! compression — an idle fleet costs a timestamp per tick, not a full
//! snapshot). Frames live in a ring sized `retention / interval`
//! (default 1 s × 120 s); when a frame falls off the old end its values
//! fold into a per-series *base*, so replay over the retained window is
//! exact — eviction loses resolution, never mass.
//!
//! Replay is pull-based: [`counter_series`](FlightRecorder::counter_series),
//! [`gauge_series`](FlightRecorder::gauge_series), and
//! [`histogram_series`](FlightRecorder::histogram_series) reconstruct
//! cumulative per-tick values by carrying the last known value across
//! frames without an entry. Ticks read the registry's own [`Clock`] —
//! under a `FakeClock` the whole recorder is deterministic, which is
//! how the replay tests pin 60 s of history exactly.
//!
//! [`Clock`]: tonos_telemetry::Clock

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use tonos_telemetry::{Registry, TelemetrySnapshot};

/// Recorder cadence and depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Time between frames (floor 1 ms).
    pub interval: Duration,
    /// Window of history retained (rounded up to whole intervals).
    pub retention: Duration,
}

impl Default for RecorderConfig {
    /// One frame per second, two minutes of history.
    fn default() -> Self {
        RecorderConfig {
            interval: Duration::from_secs(1),
            retention: Duration::from_secs(120),
        }
    }
}

/// Series id inside one recorder (interned name index).
type SeriesId = u32;

/// One recorded tick: registry-clock timestamp plus the values of every
/// series that changed since the previous tick (absolute values, sparse
/// layout).
#[derive(Debug, Clone, Default)]
pub struct SeriesFrame {
    /// Registry-clock time of the capture.
    pub at: Duration,
    pub(crate) counters: Vec<(SeriesId, u64)>,
    pub(crate) gauges: Vec<(SeriesId, f64)>,
    /// Histogram (count, sum) pairs.
    pub(crate) hists: Vec<(SeriesId, u64, f64)>,
}

impl SeriesFrame {
    /// Number of changed series captured in this frame.
    pub fn changed(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }
}

/// Last-known values per series, used both as the delta reference for
/// the next tick and as the fold-in target when frames are evicted.
#[derive(Debug, Default)]
struct SeriesState {
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<(u64, f64)>,
}

impl SeriesState {
    fn ensure(&mut self, id: SeriesId) {
        let need = id as usize + 1;
        if self.counters.len() < need {
            self.counters.resize(need, 0);
            self.gauges.resize(need, 0.0);
            self.hists.resize(need, (0, 0.0));
        }
    }
}

/// Bounded ring of periodic telemetry frames over one [`Registry`].
#[derive(Debug)]
pub struct FlightRecorder {
    registry: Registry,
    interval: Duration,
    capacity: usize,
    names: Vec<String>,
    ids: HashMap<String, SeriesId>,
    /// Values as of just *before* the oldest retained frame.
    base: SeriesState,
    /// Values as of the newest tick (delta reference).
    last: SeriesState,
    frames: VecDeque<SeriesFrame>,
    last_tick: Option<Duration>,
    ticks: u64,
}

impl FlightRecorder {
    /// A recorder over `registry` with the given cadence.
    pub fn new(registry: Registry, config: RecorderConfig) -> Self {
        let interval = config.interval.max(Duration::from_millis(1));
        let capacity = config
            .retention
            .as_nanos()
            .div_ceil(interval.as_nanos())
            .max(1) as usize;
        FlightRecorder {
            registry,
            interval,
            capacity,
            names: Vec::new(),
            ids: HashMap::new(),
            base: SeriesState::default(),
            last: SeriesState::default(),
            frames: VecDeque::with_capacity(capacity + 1),
            last_tick: None,
            ticks: 0,
        }
    }

    /// The registry this recorder samples.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Frame interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Maximum retained frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained frames right now.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total ticks ever taken (evicted frames included).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Registry-clock timestamps of the oldest and newest retained
    /// frames, when any.
    pub fn span(&self) -> Option<(Duration, Duration)> {
        Some((self.frames.front()?.at, self.frames.back()?.at))
    }

    /// Captures one frame now, unconditionally.
    pub fn tick(&mut self) {
        let snapshot = self.registry.snapshot();
        self.record(&snapshot);
    }

    /// Captures a frame if at least one interval has elapsed on the
    /// registry clock since the last one. Returns whether it ticked —
    /// timer loops (like the scope server's recorder thread) call this
    /// once per interval and let the clock decide.
    pub fn maybe_tick(&mut self) -> bool {
        let now = self.registry.now();
        let due = match self.last_tick {
            None => true,
            Some(prev) => now.saturating_sub(prev) >= self.interval,
        };
        if due {
            self.tick();
        }
        due
    }

    /// Records an externally captured snapshot (e.g. a fleet rollup
    /// shipped from elsewhere) instead of sampling the registry.
    pub fn record(&mut self, snapshot: &TelemetrySnapshot) {
        let mut frame = SeriesFrame {
            at: snapshot.uptime,
            ..SeriesFrame::default()
        };
        for c in &snapshot.counters {
            let (id, fresh) = self.intern(&c.name);
            if fresh || self.last.counters[id as usize] != c.value {
                frame.counters.push((id, c.value));
                self.last.counters[id as usize] = c.value;
            }
        }
        for g in &snapshot.gauges {
            let (id, fresh) = self.intern(&g.name);
            if fresh || self.last.gauges[id as usize].to_bits() != g.value.to_bits() {
                frame.gauges.push((id, g.value));
                self.last.gauges[id as usize] = g.value;
            }
        }
        for h in &snapshot.histograms {
            let (id, fresh) = self.intern(&h.name);
            if fresh || self.last.hists[id as usize] != (h.count, h.sum) {
                frame.hists.push((id, h.count, h.sum));
                self.last.hists[id as usize] = (h.count, h.sum);
            }
        }
        self.last_tick = Some(frame.at);
        self.ticks += 1;
        self.frames.push_back(frame);
        while self.frames.len() > self.capacity {
            let evicted = self.frames.pop_front().expect("non-empty ring");
            // Fold the evicted frame into the base so series replay
            // still starts from the correct value.
            for (id, v) in evicted.counters {
                self.base.ensure(id);
                self.base.counters[id as usize] = v;
            }
            for (id, v) in evicted.gauges {
                self.base.ensure(id);
                self.base.gauges[id as usize] = v;
            }
            for (id, count, sum) in evicted.hists {
                self.base.ensure(id);
                self.base.hists[id as usize] = (count, sum);
            }
        }
    }

    /// Replays a counter over the retained window: one `(at, value)`
    /// per frame, carrying the last known value across frames where the
    /// series did not change. Empty for unknown names.
    pub fn counter_series(&self, name: &str) -> Vec<(Duration, u64)> {
        let Some(&id) = self.ids.get(name) else {
            return Vec::new();
        };
        let mut value = self
            .base
            .counters
            .get(id as usize)
            .copied()
            .unwrap_or_default();
        self.frames
            .iter()
            .map(|f| {
                if let Some(&(_, v)) = f.counters.iter().find(|(i, _)| *i == id) {
                    value = v;
                }
                (f.at, value)
            })
            .collect()
    }

    /// Replays a gauge over the retained window (see
    /// [`counter_series`](FlightRecorder::counter_series)).
    pub fn gauge_series(&self, name: &str) -> Vec<(Duration, f64)> {
        let Some(&id) = self.ids.get(name) else {
            return Vec::new();
        };
        let mut value = self
            .base
            .gauges
            .get(id as usize)
            .copied()
            .unwrap_or_default();
        self.frames
            .iter()
            .map(|f| {
                if let Some(&(_, v)) = f.gauges.iter().find(|(i, _)| *i == id) {
                    value = v;
                }
                (f.at, value)
            })
            .collect()
    }

    /// Replays a histogram's `(at, count, sum)` over the retained
    /// window (see [`counter_series`](FlightRecorder::counter_series)).
    pub fn histogram_series(&self, name: &str) -> Vec<(Duration, u64, f64)> {
        let Some(&id) = self.ids.get(name) else {
            return Vec::new();
        };
        let mut value = self
            .base
            .hists
            .get(id as usize)
            .copied()
            .unwrap_or_default();
        self.frames
            .iter()
            .map(|f| {
                if let Some(&(_, c, s)) = f.hists.iter().find(|(i, _, _)| *i == id) {
                    value = (c, s);
                }
                (f.at, value.0, value.1)
            })
            .collect()
    }

    /// The newest `n` frames, oldest first.
    pub fn tail(&self, n: usize) -> Vec<&SeriesFrame> {
        let skip = self.frames.len().saturating_sub(n);
        self.frames.iter().skip(skip).collect()
    }

    /// Every series name this recorder has ever seen, interning order.
    pub fn series_names(&self) -> &[String] {
        &self.names
    }

    /// Rough heap footprint of the ring: interned names, base/last
    /// tables, and every retained frame's sparse entries. The bench
    /// records this as the recorder memory ceiling.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self
            .names
            .iter()
            .map(|n| n.len() + std::mem::size_of::<String>())
            .sum();
        let state = 2
            * self.names.len()
            * (std::mem::size_of::<u64>()
                + std::mem::size_of::<f64>()
                + std::mem::size_of::<(u64, f64)>());
        let frames: usize = self
            .frames
            .iter()
            .map(|f| {
                std::mem::size_of::<SeriesFrame>()
                    + f.counters.len() * std::mem::size_of::<(SeriesId, u64)>()
                    + f.gauges.len() * std::mem::size_of::<(SeriesId, f64)>()
                    + f.hists.len() * std::mem::size_of::<(SeriesId, u64, f64)>()
            })
            .sum();
        names + state + frames
    }

    /// Resolves (interning on first use) a series name. Returns the id
    /// and whether it was fresh.
    fn intern(&mut self, name: &str) -> (SeriesId, bool) {
        if let Some(&id) = self.ids.get(name) {
            (id, false)
        } else {
            let id = self.names.len() as SeriesId;
            self.names.push(name.to_string());
            self.ids.insert(name.to_string(), id);
            self.last.ensure(id);
            (id, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tonos_telemetry::FakeClock;

    fn rig(interval_s: u64, retention_s: u64) -> (Arc<FakeClock>, Registry, FlightRecorder) {
        let clock = Arc::new(FakeClock::new());
        let registry = Registry::with_clock(clock.clone());
        let recorder = FlightRecorder::new(
            registry.clone(),
            RecorderConfig {
                interval: Duration::from_secs(interval_s),
                retention: Duration::from_secs(retention_s),
            },
        );
        (clock, registry, recorder)
    }

    #[test]
    fn capacity_is_retention_over_interval() {
        let (_, _, rec) = rig(1, 120);
        assert_eq!(rec.capacity(), 120);
        let (_, _, rec) = rig(7, 120);
        assert_eq!(rec.capacity(), 18); // ceil(120/7)
    }

    #[test]
    fn counter_series_carries_values_across_idle_frames() {
        let (clock, registry, mut rec) = rig(1, 60);
        let c = registry.telemetry().counter("x");
        c.add(5);
        rec.tick(); // t=0: x=5
        clock.advance(Duration::from_secs(1));
        rec.tick(); // t=1: idle — no entry for x
        clock.advance(Duration::from_secs(1));
        c.add(2);
        rec.tick(); // t=2: x=7

        let series = rec.counter_series("x");
        assert_eq!(
            series,
            vec![
                (Duration::from_secs(0), 5),
                (Duration::from_secs(1), 5),
                (Duration::from_secs(2), 7),
            ]
        );
        // The idle frame carried only the uptime, no series entries.
        assert_eq!(rec.tail(2)[0].changed(), 0);
    }

    #[test]
    fn eviction_folds_into_base_not_oblivion() {
        let (clock, registry, mut rec) = rig(1, 3);
        let c = registry.telemetry().counter("x");
        for i in 1..=10u64 {
            c.add(1);
            rec.tick();
            clock.advance(Duration::from_secs(1));
            assert!(rec.len() <= 3, "ring exceeded capacity at tick {i}");
        }
        assert_eq!(rec.ticks(), 10);
        let series = rec.counter_series("x");
        // Frames 8..10 retained; replay starts from the evicted value.
        assert_eq!(
            series.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
    }

    #[test]
    fn maybe_tick_follows_the_registry_clock() {
        let (clock, _, mut rec) = rig(1, 60);
        assert!(rec.maybe_tick()); // first tick always fires
        assert!(!rec.maybe_tick()); // no time passed
        clock.advance(Duration::from_millis(999));
        assert!(!rec.maybe_tick());
        clock.advance(Duration::from_millis(1));
        assert!(rec.maybe_tick());
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn gauge_and_histogram_series_replay() {
        let (clock, registry, mut rec) = rig(1, 60);
        let t = registry.telemetry();
        let g = t.gauge("g");
        let h = t.histogram("h", &[1.0, 2.0]);
        g.set(1.5);
        h.record(0.5);
        rec.tick();
        clock.advance(Duration::from_secs(1));
        h.record(1.5);
        rec.tick();

        assert_eq!(
            rec.gauge_series("g"),
            vec![(Duration::from_secs(0), 1.5), (Duration::from_secs(1), 1.5),]
        );
        assert_eq!(
            rec.histogram_series("h"),
            vec![
                (Duration::from_secs(0), 1, 0.5),
                (Duration::from_secs(1), 2, 2.0),
            ]
        );
        assert_eq!(rec.counter_series("nope"), Vec::new());
    }

    #[test]
    fn approx_bytes_grows_with_history_and_is_bounded_by_the_ring() {
        let (clock, registry, mut rec) = rig(1, 5);
        let c = registry.telemetry().counter("x");
        rec.tick();
        let empty = rec.approx_bytes();
        for _ in 0..50 {
            c.add(1);
            clock.advance(Duration::from_secs(1));
            rec.tick();
        }
        let full = rec.approx_bytes();
        assert!(full > empty);
        // Another 50 ticks: the ring is saturated, memory must not grow.
        for _ in 0..50 {
            c.add(1);
            clock.advance(Duration::from_secs(1));
            rec.tick();
        }
        assert_eq!(rec.approx_bytes(), full);
    }
}
