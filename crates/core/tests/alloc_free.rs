//! Proof that the settled frame path performs **zero heap allocations**.
//!
//! A counting global allocator (thread-local counter, so the harness's
//! other test threads don't pollute the count) wraps the system
//! allocator. After a short warm-up that grows every scratch buffer to
//! its high-water mark, pushing frames through the readout must not
//! touch the heap at all — the tentpole guarantee of the packed-bit hot
//! path. A differential check over two monitor sessions extends the
//! claim end-to-end: doubling the session length must not add
//! per-frame allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tonos_core::chip::SensorChip;
use tonos_core::monitor::BloodPressureMonitor;
use tonos_core::readout::ReadoutSystem;
use tonos_core::scratch::ConversionScratch;
use tonos_mems::units::{Farads, MillimetersHg, Pascals};
use tonos_physio::patient::PatientProfile;

/// Counts allocation events (alloc + realloc) per thread. The counter is
/// a const-initialized `Cell<u64>` — no destructor, no lazy init, so the
/// bookkeeping itself never allocates or recurses into the allocator.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events on this thread so far.
fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

fn frame(mmhg: f64) -> Vec<Pascals> {
    vec![Pascals::from_mmhg(MillimetersHg(mmhg)); 4]
}

#[test]
fn settled_push_frame_allocates_nothing() {
    let mut sys = ReadoutSystem::paper_default().unwrap();
    let f = frame(100.0);
    // Warm-up: grow every scratch buffer (conversion scratch, caps
    // scratch, decimator state) to its steady-state size.
    for _ in 0..16 {
        sys.push_frame(&f).unwrap();
    }
    let before = alloc_events();
    for _ in 0..256 {
        sys.push_frame(&f).unwrap();
    }
    let during = alloc_events() - before;
    assert_eq!(
        during, 0,
        "a settled frame must not touch the heap; saw {during} allocation events over 256 frames"
    );
}

#[test]
fn chip_conversion_scratch_paths_allocate_nothing() {
    let mut chip = SensorChip::paper_default().unwrap();
    let f = frame(80.0);

    // Regression: `capacitances_into` must reuse the caller's buffer.
    let mut caps: Vec<Farads> = Vec::new();
    chip.capacitances_into(&f, &mut caps).unwrap();
    let before = alloc_events();
    for _ in 0..128 {
        chip.capacitances_into(&f, &mut caps).unwrap();
    }
    assert_eq!(
        alloc_events() - before,
        0,
        "capacitances_into must reuse the caller's buffer"
    );

    // The packed frame conversion into caller-owned scratch.
    let mut scratch = ConversionScratch::new();
    chip.convert_frame_packed_into(&f, 128, &mut scratch)
        .unwrap();
    let before = alloc_events();
    for _ in 0..128 {
        chip.convert_frame_packed_into(&f, 128, &mut scratch)
            .unwrap();
    }
    assert_eq!(
        alloc_events() - before,
        0,
        "convert_frame_packed_into must run entirely in caller-owned scratch"
    );
}

#[test]
fn longer_sessions_do_not_add_per_frame_allocations() {
    // End-to-end differential: 8 extra seconds = 8000 extra frames. The
    // legacy path allocated ≥ 3 times per frame (pressure frame, packed
    // bits, capacitance snapshot) — 24 000+ extra events. The budget
    // below covers everything that legitimately scales with duration
    // (truth synthesis, beat analysis, report vectors) while being far
    // too small to hide any per-frame heap traffic.
    let run = |seconds: f64| {
        let mut monitor = BloodPressureMonitor::new(
            tonos_core::config::SystemConfig::paper_default(),
            PatientProfile::normotensive(),
        )
        .unwrap()
        .with_scan_window(150);
        let before = alloc_events();
        let session = monitor.run(seconds).unwrap();
        assert!(session.analysis.pulse_rate_bpm > 40.0);
        alloc_events() - before
    };
    let short = run(8.0);
    let long = run(16.0);
    let extra = long.saturating_sub(short);
    assert!(
        extra < 2_000,
        "8000 extra frames added {extra} allocation events (budget 2000): \
         the per-frame path has regressed off the scratch buffers"
    );
}
