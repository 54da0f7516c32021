//! In-process determinism of workloads that overflow the TLB.
//!
//! Every simulated number must depend only on the workload's inputs, not on
//! per-process or per-instance hash seeds. GUPS updates a table far larger
//! than TLB reach, so nearly every access evicts an entry: the run repeats
//! exactly only if replacement does.

use cki::{Backend, Stack, StackConfig};
use sim_hw::Tlb;
use workloads::gups::GupsWorkload;

const MIB: u64 = 1024 * 1024;

/// One GUPS run on a fresh stack: total simulated cycles, TLB hits and
/// TLB misses.
fn gups(backend: Backend) -> (u64, u64, u64) {
    let mut stack = Stack::new(
        backend,
        StackConfig {
            mem_bytes: 256 * MIB,
            vm_bytes: 128 * MIB,
            ..StackConfig::default()
        },
    );
    GupsWorkload::new(16 * MIB, 20_000)
        .run(&mut stack.env())
        .expect("gups");
    let m = &stack.machine.cpu.metrics;
    (
        stack.machine.cpu.clock.cycles(),
        m.value_of("hw.tlb.hits", None),
        m.value_of("hw.tlb.misses", None),
    )
}

#[test]
fn gups_repeats_exactly_on_fresh_stacks() {
    for backend in [Backend::Cki, Backend::HvmBm] {
        let first = gups(backend);
        let second = gups(backend);
        assert_eq!(first, second, "{}: (cycles, hits, misses)", backend.name());
        // The table is ~1.3x TLB capacity in pages: the run must evict.
        let (_, hits, misses) = first;
        assert!(
            misses > Tlb::DEFAULT_CAPACITY as u64 && hits > 0,
            "{}: {hits} hits / {misses} misses never filled the TLB",
            backend.name()
        );
    }
}
