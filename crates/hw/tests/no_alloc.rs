//! The CPU's tracer allocates its ring once, when it is enabled: after
//! that, recording 10,000 events saturates the ring and overwrites in
//! place without touching the counting global allocator. One `#[test]`
//! only: the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sim_hw::trace::TRACE_CAPACITY;
use sim_hw::{CostModel, Cpu, HwExtensions};

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

#[test]
fn tracer_ring_allocates_only_on_enable() {
    let mut cpu = Cpu::new(HwExtensions::cki(), CostModel::default());
    cpu.enable_tracer();
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        // Each CR3 load records a `TraceEvent::Cr3Load` (no TLB flush).
        cpu.set_cr3(i << 12, 1, true);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "recording allocated {allocs} times");
    assert_eq!(cpu.tracer.len(), TRACE_CAPACITY, "ring saturated");
    assert_eq!(cpu.tracer.overwritten(), 10_000 - TRACE_CAPACITY as u64);
}
