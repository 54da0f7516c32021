//! Cross-container request/response serving over the netsim dataplane.
//!
//! A [`Cluster`] boots one KV-server container and N client containers as
//! separate guest kernels on a *single* machine — each built through
//! [`cki::Backend::build_platform`], so the backend under test pays its
//! real isolation costs on every syscall, page fault, and context switch.
//! Each node gets a [`netsim::VirtioNic`] whose split rings live in that
//! node's own guest memory, wired to a shared [`netsim::HostSwitch`].
//!
//! The workload is closed-loop: every client keeps exactly one request in
//! flight against the server's listening socket, the server drains its
//! backlog and answers each request after a fixed slab of KV compute, and
//! per-request latency lands in the machine's `net.request_cycles` sketch.
//! Every hash `NetSend` returns is kept until a `NetRecv` returns it; a
//! receive whose hash matches no request (at the server) or reply (at a
//! client) in flight is a payload mismatch.
//!
//! What the paper's serving comparison measures falls out of the doorbell
//! and interrupt *mechanism*, not tuned constants: clients never call
//! [`Sys::NetFlush`], so doorbells follow [`Coalesce::kick_batch`] and the
//! timer fallback, HVM pays a VM exit per uncoalesced kick, PVM a
//! hypercall, and CKI nothing at all.

use std::collections::BTreeMap;

use cki::{Backend, NIC_QUEUE, SWITCH_DEPTH};
use guest_os::{Errno, Fd, Kernel, Sys};
use netsim::{Coalesce, HostSwitch, Mac, NicStats, SwitchStats};
use sim_hw::{cost, HwExtensions, Machine, Mode, Tag};
use sim_mem::PAGE_SIZE;

/// Port the server container listens on.
pub const SERVICE_PORT: u16 = 80;

/// Request payload bytes.
pub const REQUEST_BYTES: usize = 200;

/// Response payload bytes.
const RESPONSE_BYTES: usize = 600;

/// Serving-benchmark parameters.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Backend every node runs on.
    pub backend: Backend,
    /// Client containers (each keeps one request in flight).
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: u64,
    /// NAPI-style mitigation knobs.
    pub coalesce: Coalesce,
    /// Server-side compute per request (hash + lookup stand-in).
    pub kv_compute_cycles: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Cki,
            clients: 4,
            requests_per_client: 32,
            coalesce: Coalesce::default(),
            kv_compute_cycles: 900,
        }
    }
}

/// What one serving run measured.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Backend name.
    pub backend: String,
    /// Client containers.
    pub clients: u64,
    /// Requests completed.
    pub requests: u64,
    /// Cycles from first send to last response.
    pub total_cycles: u64,
    /// Requests per simulated second.
    pub throughput_rps: f64,
    /// Median request latency in cycles.
    pub p50_cycles: u64,
    /// Tail request latency in cycles.
    pub p99_cycles: u64,
    /// NIC statistics summed over every node.
    pub nics: NicStats,
    /// Switch forwarding statistics.
    pub switch: SwitchStats,
    /// Doorbell VM exits per completed request.
    pub exits_per_request: f64,
    /// Doorbell hypercalls per completed request.
    pub hypercalls_per_request: f64,
    /// Receives whose payload hash matched no message in flight to that
    /// side: a frame the dataplane corrupted or delivered to the wrong node.
    pub payload_mismatches: u64,
}

/// Payload hashes in flight, with their multiplicity.
#[derive(Default)]
struct InFlight(BTreeMap<u64, u32>);

impl InFlight {
    fn put(&mut self, hash: u64) {
        *self.0.entry(hash).or_insert(0) += 1;
    }

    /// Removes one copy of `hash`; false if none is in flight.
    fn take(&mut self, hash: u64) -> bool {
        let Some(n) = self.0.get_mut(&hash) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.0.remove(&hash);
        }
        true
    }
}

/// One server + N client kernels sharing a machine and a host switch.
pub struct Cluster {
    /// The shared machine (one clock, one metrics registry).
    pub machine: Machine,
    /// Node kernels; `[0]` is the server, `1..` the clients.
    pub kernels: Vec<Kernel>,
    /// The vhost-style switch connecting every node.
    pub switch: HostSwitch,
}

impl Cluster {
    /// Boots `1 + clients` containers on `cfg.backend` and wires their NICs.
    pub fn build(cfg: &ServingConfig) -> Self {
        assert!(cfg.clients >= 1, "need at least one client");
        assert!(
            cfg.clients < NIC_QUEUE as usize,
            "queue must hold one in-flight frame per peer"
        );
        let nodes = cfg.clients + 1;
        let vm_bytes = 24 * 1024 * 1024u64;
        let mem_bytes = 128 * 1024 * 1024 + nodes as u64 * 32 * 1024 * 1024;
        let ext = if cfg.backend.needs_cki_hw() {
            HwExtensions::cki()
        } else {
            HwExtensions::baseline()
        };
        let mut machine = Machine::new(mem_bytes, ext);
        let mut kernels = Vec::with_capacity(nodes);
        let mut switch = HostSwitch::new(SWITCH_DEPTH);
        for i in 0..nodes {
            let stack_cfg = cki::StackConfig {
                mem_bytes,
                vm_bytes,
                vcpus: 1,
                pcid: Some(3 + i as u16),
                seg: None,
            };
            let platform = cfg.backend.build_platform(&mut machine, &stack_cfg);
            let mut kernel = Kernel::boot(platform, &mut machine);
            // Ring and buffer frames come from the node's own memory — for
            // CKI that is the delegated segment, so the descriptor table
            // holds real host-physical addresses (no gPA indirection).
            let mac = 0x0200_0000_0000 | (i as u64 + 1);
            let nic = kernel
                .attach_netif(&mut machine, NIC_QUEUE, mac, cfg.coalesce)
                .expect("NIC frames from the node's memory");
            switch.attach(nic);
            kernels.push(kernel);
        }
        Self {
            machine,
            kernels,
            switch,
        }
    }

    /// The server node's MAC.
    pub fn server_mac(&self) -> Mac {
        self.kernels[0].netif().expect("node has a NIC").mac
    }

    /// Switches the CPU onto `node`'s address space, paying the backend's
    /// real root-load cost (world switch, CR3 write, PCID tag …).
    pub fn enter(&mut self, node: usize) {
        let k = &mut self.kernels[node];
        let root = k.proc(k.current).aspace.root;
        self.machine.cpu.mode = Mode::Kernel;
        k.platform
            .load_root(&mut self.machine, root)
            .expect("node root loads");
        self.machine.cpu.mode = Mode::User;
    }

    /// Issues a syscall on `node` (caller must have [`Self::enter`]ed it).
    pub fn sys(&mut self, node: usize, sys: Sys<'_>) -> Result<u64, Errno> {
        self.kernels[node].syscall(&mut self.machine, sys)
    }

    /// One host service pass, in node order: the vhost worker drains
    /// every TX ring into the switch, then delivers every egress FIFO —
    /// polling the rings directly, with or without doorbells. Returns
    /// frames moved.
    pub fn service(&mut self) -> usize {
        let kernels = &mut self.kernels;
        let (mem, clock) = (&mut self.machine.mem, &mut self.machine.cpu.clock);
        let nics = |visit: &mut dyn FnMut(&mut netsim::VirtioNic)| {
            for k in kernels.iter_mut() {
                visit(k.netif_mut().expect("node has a NIC"));
            }
        };
        self.switch.service(mem, clock, nics, |_| {})
    }

    /// NIC statistics summed over every node.
    pub fn nic_totals(&self) -> NicStats {
        let mut t = NicStats::default();
        for k in &self.kernels {
            t += &k.netif().expect("node has a NIC").stats;
        }
        t
    }
}

/// Runs the closed-loop serving benchmark and reports what it measured.
pub fn run(cfg: &ServingConfig) -> ServingReport {
    let mut cl = Cluster::build(cfg);
    let server_mac = cl.server_mac();

    let latency = cl.machine.cpu.metrics.sketch("net.request_cycles");

    // One scratch page per node for payload staging.
    let mut bufs = vec![0u64; cfg.clients + 1];
    for (i, buf) in bufs.iter_mut().enumerate() {
        cl.enter(i);
        *buf = cl
            .sys(
                i,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scratch page");
    }

    cl.enter(0);
    let srv = cl.sys(0, Sys::NetSocket).expect("server socket") as Fd;
    cl.sys(
        0,
        Sys::NetListen {
            fd: srv,
            port: SERVICE_PORT,
        },
    )
    .expect("listen");

    let mut client_fds = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let node = c + 1;
        cl.enter(node);
        let fd = cl.sys(node, Sys::NetSocket).expect("client socket") as Fd;
        cl.sys(
            node,
            Sys::NetConnect {
                fd,
                mac: server_mac,
                port: SERVICE_PORT,
            },
        )
        .expect("connect");
        client_fds.push(fd);
    }

    let total = cfg.clients as u64 * cfg.requests_per_client;
    let mut sent_at: Vec<Option<u64>> = vec![None; cfg.clients];
    let mut remaining = vec![cfg.requests_per_client; cfg.clients];
    let mut done = 0u64;
    let (mut requests, mut replies) = (InFlight::default(), InFlight::default());
    let mut payload_mismatches = 0u64;
    let mark = cl.machine.cpu.clock.mark();
    let mut waves = 0u64;

    while done < total {
        waves += 1;
        assert!(
            waves <= 64 * total + 64,
            "serving loop failed to make progress"
        );

        // Clients: one request in flight each. No NetFlush — the doorbell
        // decision belongs to the coalescer; the poll-mode vhost pass
        // drains the ring either way.
        for c in 0..cfg.clients {
            if sent_at[c].is_some() || remaining[c] == 0 {
                continue;
            }
            let node = c + 1;
            cl.enter(node);
            match cl.sys(
                node,
                Sys::NetSend {
                    fd: client_fds[c],
                    buf: bufs[node],
                    len: REQUEST_BYTES,
                },
            ) {
                Ok(hash) => {
                    requests.put(hash);
                    sent_at[c] = Some(cl.machine.cpu.clock.cycles());
                    remaining[c] -= 1;
                }
                Err(Errno::WouldBlock) => {} // TX ring full: retry next wave
                Err(e) => panic!("client send failed: {e:?}"),
            }
        }
        cl.service();

        // Server: drain the backlog, answer each request in place. The
        // reply rides `last_from` back to whichever client sent last, so
        // recv/send must alternate strictly.
        cl.enter(0);
        loop {
            match cl.sys(
                0,
                Sys::NetRecv {
                    fd: srv,
                    buf: bufs[0],
                    len: 2048,
                },
            ) {
                Ok(hash) => {
                    payload_mismatches += u64::from(!requests.take(hash));
                    cl.machine
                        .cpu
                        .clock
                        .charge(Tag::Compute, cfg.kv_compute_cycles);
                    let reply = cl
                        .sys(
                            0,
                            Sys::NetSend {
                                fd: srv,
                                buf: bufs[0],
                                len: RESPONSE_BYTES,
                            },
                        )
                        .expect("server TX ring sized for one reply per peer");
                    replies.put(reply);
                }
                Err(Errno::WouldBlock) => break,
                Err(e) => panic!("server recv failed: {e:?}"),
            }
        }
        cl.service();

        // Clients: reap responses, record latency.
        for c in 0..cfg.clients {
            let Some(t0) = sent_at[c] else { continue };
            let node = c + 1;
            cl.enter(node);
            match cl.sys(
                node,
                Sys::NetRecv {
                    fd: client_fds[c],
                    buf: bufs[node],
                    len: 2048,
                },
            ) {
                Ok(hash) => {
                    payload_mismatches += u64::from(!replies.take(hash));
                    let lat = cl.machine.cpu.clock.cycles() - t0;
                    cl.machine.cpu.metrics.record(latency, lat);
                    sent_at[c] = None;
                    done += 1;
                }
                Err(Errno::WouldBlock) => {} // response still in flight
                Err(e) => panic!("client recv failed: {e:?}"),
            }
        }
    }

    let total_cycles = cl.machine.cpu.clock.cycles() - mark;
    let seconds = cost::cycles_to_ns(total_cycles) / 1e9;
    let nics = cl.nic_totals();
    let m = &cl.machine.cpu.metrics;
    ServingReport {
        backend: format!("{:?}", cfg.backend),
        clients: cfg.clients as u64,
        requests: done,
        total_cycles,
        throughput_rps: if seconds > 0.0 {
            done as f64 / seconds
        } else {
            0.0
        },
        p50_cycles: m.sketch_quantile(latency, 0.50),
        p99_cycles: m.sketch_quantile(latency, 0.99),
        exits_per_request: nics.kick_exits as f64 / done.max(1) as f64,
        hypercalls_per_request: nics.kick_hypercalls as f64 / done.max(1) as f64,
        payload_mismatches,
        nics,
        switch: cl.switch.stats.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(backend: Backend) -> ServingConfig {
        ServingConfig {
            backend,
            clients: 2,
            requests_per_client: 8,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn cki_serves_with_zero_exit_doorbells() {
        let r = run(&quick(Backend::Cki));
        assert_eq!(r.requests, 16);
        assert!(r.nics.kicks > 0, "doorbells were rung");
        assert_eq!(r.nics.kick_exits, 0, "CKI doorbells are shared-memory");
        assert_eq!(r.nics.kick_hypercalls, 0);
        assert!(r.p99_cycles >= r.p50_cycles);
        assert!(r.p50_cycles > 0);
        assert_eq!(r.switch.dropped_unknown_dst, 0);
        assert_eq!(r.switch.dropped_dead_port, 0);
        assert_eq!(r.payload_mismatches, 0);
    }

    #[test]
    fn hvm_pays_an_exit_per_uncoalesced_kick() {
        // One kick for each request and one for each reply, as on CKI: the
        // HVM nodes' rings are their own, not aliased through guest-physical
        // addresses that coincide across VMs.
        for (backend, exits_per_request) in [(Backend::HvmBm, 2.0), (Backend::Cki, 0.0)] {
            let mut cfg = quick(backend);
            cfg.coalesce.kick_batch = 1;
            let r = run(&cfg);
            assert_eq!(r.requests, 16);
            assert_eq!(r.nics.kicks, 2 * r.requests, "{backend:?}");
            assert_eq!(r.exits_per_request, exits_per_request, "{backend:?}");
            assert_eq!(r.payload_mismatches, 0, "{backend:?}");
        }
    }

    #[test]
    fn pvm_notifies_by_hypercall_not_exit() {
        let r = run(&quick(Backend::Pvm));
        assert_eq!(r.requests, 16);
        assert_eq!(r.nics.kick_exits, 0);
        assert!(r.nics.kick_hypercalls >= r.nics.kicks);
    }

    #[test]
    fn serving_throughput_orders_cki_pvm_hvm() {
        let cki = run(&quick(Backend::Cki));
        let pvm = run(&quick(Backend::Pvm));
        let hvm = run(&quick(Backend::HvmBm));
        assert!(
            cki.throughput_rps >= pvm.throughput_rps,
            "cki {} < pvm {}",
            cki.throughput_rps,
            pvm.throughput_rps
        );
        assert!(
            pvm.throughput_rps > hvm.throughput_rps,
            "pvm {} <= hvm {}",
            pvm.throughput_rps,
            hvm.throughput_rps
        );
    }

    #[test]
    fn raising_kick_batch_coalesces_doorbells() {
        let mut eager = quick(Backend::HvmBm);
        eager.coalesce.kick_batch = 1;
        let mut lazy = quick(Backend::HvmBm);
        lazy.coalesce.kick_batch = 8;
        let a = run(&eager);
        let b = run(&lazy);
        assert!(
            b.exits_per_request < a.exits_per_request,
            "batch=8 {} !< batch=1 {}",
            b.exits_per_request,
            a.exits_per_request
        );
        assert!(b.nics.coalesced_kicks > a.nics.coalesced_kicks);
    }
}
