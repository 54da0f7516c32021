//! In-memory key-value servers under a memtier-like client fleet
//! (paper Figures 5 and 16).
//!
//! The server is an epoll-style event loop: receive a ready request,
//! process it (hash-table get/set, 1:1 ratio, ~500-byte values), queue the
//! response, flush every few replies (each flush may ring the VirtIO
//! doorbell), and block when idle. The clients are a host-side
//! [`crate::fleet::ClientFleet`] of closed-loop connections on the server
//! NIC's switch — vary `clients` to sweep Figure 16's x-axis. More clients
//! mean more requests per RX interrupt and per doorbell, which is what
//! separates CKI and PVM from nested HVM in Figure 16.
//!
//! Redis differs from memcached in per-request engine work (RESP protocol
//! parse, object machinery, single-threaded command loop), which is why
//! the paper's memcached gains are larger than its Redis gains.

use std::collections::HashMap;

use guest_os::{Env, Errno, Fd, Sys};
use obs::rng::SmallRng;

use crate::fleet::{ClientFleet, Fleet};
use crate::report::{Probe, Report};
use crate::serving::SERVICE_PORT;

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

/// The KV-server workload.
pub struct KvServerWorkload {
    /// Which engine.
    pub kind: KvKind,
    /// Requests to serve before stopping.
    pub requests: u64,
    /// Closed-loop client connections.
    pub clients: u32,
    /// Value size (memtier: ~500 B).
    pub value_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl KvServerWorkload {
    /// Creates a server run against `clients` connections.
    pub fn new(kind: KvKind, requests: u64, clients: u32) -> Self {
        Self {
            kind,
            requests,
            clients,
            value_bytes: 500,
            seed: 23,
        }
    }

    /// Attaches a NIC and the client fleet, then runs the event loop until
    /// `requests` requests are served.
    ///
    /// Returns `Errno::WouldBlock` if there are no clients.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let request_bytes = self.value_bytes + 40;
        let response_bytes = self.value_bytes + 16;
        let fleet = Fleet {
            clients: self.clients,
            request_bytes,
            response_bytes,
            upstream_bytes: 0,
        };
        let mut net = ClientFleet::attach(env, fleet);
        let sock = env.sys(Sys::NetSocket)? as Fd;
        env.sys(Sys::NetListen {
            fd: sock,
            port: SERVICE_PORT,
        })?;
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
            net.recv(env, sock, buf, request_bytes)?;
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
            net.send(env, sock, buf, response_bytes)?;
            served += 1;
            // Event loops flush the TX queue every few connections, not
            // once per RX batch — each flush may ring the doorbell.
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
    use cki::{Backend, Stack, StackConfig};
    use netsim::ExitCosts;

    fn run_on(
        backend: Backend,
        kind: KvKind,
        clients: u32,
        requests: u64,
    ) -> Result<Report, Errno> {
        let mut stack = Stack::new(backend, StackConfig::default());
        KvServerWorkload::new(kind, requests, clients).run(&mut stack.env())
    }

    fn run_pvm(kind: KvKind, clients: u32, requests: u64) -> Report {
        run_on(Backend::Pvm, kind, clients, requests).unwrap()
    }

    #[test]
    fn no_clients_blocks() {
        let r = run_on(Backend::RunC, KvKind::Memcached, 0, 10);
        assert_eq!(r.unwrap_err(), Errno::WouldBlock);
    }

    #[test]
    fn throughput_rises_with_client_count() {
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
        let m = sim_hw::CostModel::default();
        assert!(ExitCosts::cki(&m).roundtrip < ExitCosts::hvm_nested(&m).roundtrip);
    }
}
