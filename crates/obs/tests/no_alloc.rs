//! The observability hot paths must not allocate.
//!
//! A counting global allocator wraps the system allocator; the test
//! registers every metric kind up front (registration allocates by
//! design), then drives the hot paths hard with the counter watched:
//!
//! - a **disabled** flight recorder and profiler — the obs-off
//!   configuration every production container starts in — must not touch
//!   the allocator at all;
//! - the **enabled** steady state (flight ring, counters, quantile
//!   sketches) must also be allocation-free, because all storage
//!   is fixed at registration time.
//!
//! One `#[test]` only: the allocation counter is process-global, and a
//! sibling test running concurrently would perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use obs::{FlightEvent, FlightRecorder, MetricsRegistry, SpanProfiler};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn obs_hot_paths_are_allocation_free() {
    // Registration happens outside the measured windows.
    let mut off_flight = FlightRecorder::disabled();
    let mut on_flight = FlightRecorder::new(64);
    let mut profiler = SpanProfiler::new(1024); // disabled by default
    let mut registry = MetricsRegistry::new();
    let ctr = registry.counter("hot.counter");
    let sketch = registry.sketch("hot.sketch");
    let event = |i| FlightEvent {
        cycles: i,
        name: "event",
        value: i,
    };

    // Obs-off: the configuration every container starts in.
    let off = allocations(|| {
        for i in 0..10_000u64 {
            off_flight.record(event(i));
            let id = profiler.enter("span", i);
            profiler.exit(id, i + 1);
        }
    });
    assert_eq!(off, 0, "obs-disabled hot path allocated {off} times");
    assert!(off_flight.is_empty(), "disabled recorder must stay empty");
    assert_eq!(off_flight.overwritten(), 0);

    // Obs-on steady state: ring overwrite + every metric kind.
    let on = allocations(|| {
        for i in 0..10_000u64 {
            on_flight.record(event(i));
            registry.add(ctr, 1);
            registry.record(sketch, i);
        }
    });
    assert_eq!(on, 0, "obs-enabled steady state allocated {on} times");
    assert_eq!(on_flight.len(), 64, "ring saturated");
    assert_eq!(on_flight.overwritten(), 10_000 - 64);
    assert_eq!(registry.get(ctr), 10_000);
}
