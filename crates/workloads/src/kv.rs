//! In-memory key-value servers under a memtier-like client fleet
//! (paper Figures 5 and 16).
//!
//! The server is an epoll-style event loop: drain the ready requests,
//! process each (hash-table get/set, 1:1 ratio, ~500-byte values), queue
//! the responses, flush (VirtIO kick), block when idle. The client fleet
//! is the closed-loop [`netsim::LoadGen`] attached to the platform's
//! network backend — vary `clients` to sweep Figure 16's x-axis.
//!
//! Redis differs from memcached in per-request engine work (RESP protocol
//! parse, object machinery, single-threaded command loop), which is why
//! the paper's memcached gains are larger than its Redis gains.

use std::collections::HashMap;

use guest_os::{Env, Errno, Fd, Sys};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// Which server to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// memcached: slab-allocated hash table, light protocol.
    Memcached,
    /// Redis: RESP parse + object model, heavier per command.
    Redis,
}

impl KvKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KvKind::Memcached => "memcached",
            KvKind::Redis => "redis",
        }
    }

    /// Engine cycles per request (beyond kernel/network work).
    fn engine_cycles(&self) -> u64 {
        match self {
            KvKind::Memcached => 900,
            KvKind::Redis => 3300,
        }
    }
}

/// The KV-server workload. Attach clients via the platform's
/// `with_clients(n)` before booting the kernel.
pub struct KvServerWorkload {
    /// Which engine.
    pub kind: KvKind,
    /// Requests to serve before stopping.
    pub requests: u64,
    /// Value size (memtier: ~500 B).
    pub value_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl KvServerWorkload {
    /// Creates a server run.
    pub fn new(kind: KvKind, requests: u64) -> Self {
        Self {
            kind,
            requests,
            value_bytes: 500,
            seed: 23,
        }
    }

    /// Runs the event loop until `requests` requests are served.
    ///
    /// Returns `Errno::WouldBlock` if no clients are attached.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let sock = env.sys(Sys::NetSocket)? as Fd;
        let buf = env.mmap(64 * 1024)?;
        env.touch_range(buf, 64 * 1024, true)?;
        // The value store: real content, held at simulated addresses.
        let store_bytes: u64 = 64 * 1024 * 1024;
        let store = env.mmap(store_bytes)?;
        let mut index: HashMap<u64, u64> = HashMap::new();
        let mut next_slot: u64 = 0;
        let mut rng = SmallRng::seed_from_u64(self.seed);

        let probe = Probe::start(env);
        let mut served = 0u64;
        while served < self.requests {
            env.sys(Sys::NetRecv {
                fd: sock,
                buf,
                len: self.value_bytes + 40,
            })?;
            env.compute(self.kind.engine_cycles());
            let key = rng.gen_range(0..100_000u64);
            let write = rng.gen_bool(0.5); // memtier 1:1 ratio
            if write {
                let slot = *index.entry(key).or_insert_with(|| {
                    let s = next_slot;
                    next_slot = (next_slot + self.value_bytes as u64 + 12) % store_bytes;
                    s
                });
                // Write the value into the store (may fault on first use).
                env.touch(store + slot, true)?;
            } else if let Some(&slot) = index.get(&key) {
                env.touch(store + slot, false)?;
            }
            env.sys(Sys::NetSend {
                fd: sock,
                buf,
                len: self.value_bytes + 16,
            })?;
            served += 1;
            // Event loops flush the TX queue every few connections, not
            // once per RX batch — each flush is a doorbell kick.
            if served.is_multiple_of(4) {
                env.sys(Sys::NetFlush { fd: sock })?;
            }
        }
        env.sys(Sys::NetFlush { fd: sock })?;
        Ok(probe.finish(env, self.kind.name(), served))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform, Platform};
    use netsim::ExitCosts;
    use sim_hw::{HwExtensions, Machine};
    use vmm::PvmPlatform;

    fn run_pvm(kind: KvKind, clients: u32, requests: u64) -> Report {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let p = PvmPlatform::new(&mut m, false).with_clients(clients);
        let mut k = Kernel::boot(Box::new(p), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        KvServerWorkload::new(kind, requests).run(&mut env).unwrap()
    }

    #[test]
    fn no_clients_blocks() {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let k: Box<dyn Platform> = Box::new(NativePlatform::new(1));
        let mut k = Kernel::boot(k, &mut m);
        let mut env = Env::new(&mut k, &mut m);
        let r = KvServerWorkload::new(KvKind::Memcached, 10).run(&mut env);
        assert_eq!(r.unwrap_err(), Errno::WouldBlock);
    }

    #[test]
    fn throughput_rises_with_clients() {
        let one = run_pvm(KvKind::Memcached, 1, 2000);
        let many = run_pvm(KvKind::Memcached, 32, 2000);
        assert!(
            many.ops_per_sec() > one.ops_per_sec() * 1.3,
            "batching helps: {} vs {}",
            one.ops_per_sec(),
            many.ops_per_sec()
        );
    }

    #[test]
    fn redis_slower_than_memcached() {
        let mc = run_pvm(KvKind::Memcached, 16, 2000);
        let rd = run_pvm(KvKind::Redis, 16, 2000);
        assert!(rd.ops_per_sec() < mc.ops_per_sec());
    }

    #[test]
    fn exit_cost_table_sanity() {
        // The generator in the backend must interact: served == delivered.
        let m = sim_hw::CostModel::default();
        assert!(ExitCosts::cki(&m).roundtrip < ExitCosts::hvm_nested(&m).roundtrip);
    }
}
