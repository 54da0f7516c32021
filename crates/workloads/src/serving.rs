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
//! per-request latency lands in the machine's metrics registry — globally
//! (`net.request_cycles`), per NIC (`net.request_cycles{c<i>}`), and per
//! flow (`net.flow_cycles{c<i>->s}`).
//!
//! What the paper's serving comparison measures falls out of the doorbell
//! and interrupt *mechanism*, not tuned constants: clients never call
//! [`Sys::NetFlush`], so doorbells follow [`Coalesce::kick_batch`] and the
//! timer fallback, HVM pays a VM exit per uncoalesced kick, PVM a
//! hypercall, and CKI nothing at all.

use cki::Backend;
use guest_os::{Errno, Fd, Kernel, Sys};
use netsim::{deliver_rx, drain_tx, Coalesce, HostSwitch, Mac};
use netsim::{NicStats, PortId, SwitchStats};
use obs::SketchId;
use sim_hw::{HwExtensions, Machine, Mode, Tag};
use sim_mem::PAGE_SIZE;

/// Port the server container listens on.
pub const SERVICE_PORT: u16 = 80;

/// Serving-benchmark parameters.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Backend every node runs on.
    pub backend: Backend,
    /// Client containers (each keeps one request in flight).
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: u64,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// Virtqueue size per NIC.
    pub queue: u16,
    /// Switch egress FIFO depth.
    pub switch_depth: usize,
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
            request_bytes: 200,
            response_bytes: 600,
            queue: 32,
            switch_depth: 64,
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
}

/// One server + N client kernels sharing a machine and a host switch.
pub struct Cluster {
    /// The shared machine (one clock, one metrics registry).
    pub machine: Machine,
    /// Node kernels; `[0]` is the server, `1..` the clients.
    pub kernels: Vec<Kernel>,
    /// The vhost-style switch connecting every node.
    pub switch: HostSwitch,
    ports: Vec<PortId>,
    macs: Vec<Mac>,
}

impl Cluster {
    /// Boots `1 + clients` containers on `cfg.backend` and wires their NICs.
    pub fn build(cfg: &ServingConfig) -> Self {
        assert!(cfg.clients >= 1, "need at least one client");
        assert!(
            cfg.clients < cfg.queue as usize,
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
        let mut switch = HostSwitch::new(cfg.switch_depth);
        let mut ports = Vec::with_capacity(nodes);
        let mut macs = Vec::with_capacity(nodes);
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
            kernel
                .attach_netif(&mut machine, cfg.queue, mac, cfg.coalesce)
                .expect("NIC frames from the node's memory");
            ports.push(switch.attach(mac));
            macs.push(mac);
            kernels.push(kernel);
        }
        Self {
            machine,
            kernels,
            switch,
            ports,
            macs,
        }
    }

    /// The server node's MAC.
    pub fn server_mac(&self) -> Mac {
        self.macs[0]
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

    /// One host service pass: the vhost worker drains every TX ring into
    /// the switch, then delivers every egress FIFO — polling the rings
    /// directly, with or without doorbells. Returns frames moved.
    pub fn service(&mut self) -> usize {
        let mut moved = 0;
        for i in 0..self.kernels.len() {
            let port = self.ports[i];
            let nic = self.kernels[i].netif_mut().expect("node has a NIC");
            moved += drain_tx(
                &mut self.machine.mem,
                &mut self.machine.cpu.clock,
                nic,
                &mut self.switch,
                port,
            );
        }
        for i in 0..self.kernels.len() {
            let port = self.ports[i];
            let nic = self.kernels[i].netif_mut().expect("node has a NIC");
            moved += deliver_rx(
                &mut self.machine.mem,
                &mut self.machine.cpu.clock,
                nic,
                &mut self.switch,
                port,
            );
        }
        moved
    }

    /// NIC statistics summed over every node.
    pub fn nic_totals(&self) -> NicStats {
        let mut t = NicStats::default();
        for k in &self.kernels {
            let s = &k.netif().expect("node has a NIC").stats;
            t.tx_frames += s.tx_frames;
            t.rx_frames += s.rx_frames;
            t.tx_bytes += s.tx_bytes;
            t.rx_bytes += s.rx_bytes;
            t.kicks += s.kicks;
            t.coalesced_kicks += s.coalesced_kicks;
            t.kick_exits += s.kick_exits;
            t.kick_hypercalls += s.kick_hypercalls;
            t.irqs += s.irqs;
            t.coalesced_irqs += s.coalesced_irqs;
            t.ring_full += s.ring_full;
            t.decode_errors += s.decode_errors;
            t.bad_descs += s.bad_descs;
        }
        t
    }
}

struct Sketches {
    all: SketchId,
    per_nic: Vec<SketchId>,
    per_flow: Vec<SketchId>,
}

/// Runs the closed-loop serving benchmark and reports what it measured.
pub fn run(cfg: &ServingConfig) -> ServingReport {
    let mut cl = Cluster::build(cfg);
    let server_mac = cl.server_mac();

    let sketches = {
        let m = &mut cl.machine.cpu.metrics;
        Sketches {
            all: m.sketch("net.request_cycles"),
            per_nic: (0..cfg.clients)
                .map(|c| m.sketch_owned("net.request_cycles", format!("c{}", c + 1)))
                .collect(),
            per_flow: (0..cfg.clients)
                .map(|c| m.sketch_owned("net.flow_cycles", format!("c{}->s", c + 1)))
                .collect(),
        }
    };

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
                    len: cfg.request_bytes,
                },
            ) {
                Ok(_) => {
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
                Ok(_) => {
                    cl.machine
                        .cpu
                        .clock
                        .charge(Tag::Compute, cfg.kv_compute_cycles);
                    cl.sys(
                        0,
                        Sys::NetSend {
                            fd: srv,
                            buf: bufs[0],
                            len: cfg.response_bytes,
                        },
                    )
                    .expect("server TX ring sized for one reply per peer");
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
                Ok(_) => {
                    let lat = cl.machine.cpu.clock.cycles() - t0;
                    let m = &mut cl.machine.cpu.metrics;
                    m.record(sketches.all, lat);
                    m.record(sketches.per_nic[c], lat);
                    m.record(sketches.per_flow[c], lat);
                    sent_at[c] = None;
                    done += 1;
                }
                Err(Errno::WouldBlock) => {} // response still in flight
                Err(e) => panic!("client recv failed: {e:?}"),
            }
        }
    }

    let total_cycles = cl.machine.cpu.clock.cycles() - mark;
    let seconds = cl.machine.cpu.clock.model().cycles_to_ns(total_cycles) / 1e9;
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
        p50_cycles: m.sketch_quantile(sketches.all, 0.50),
        p99_cycles: m.sketch_quantile(sketches.all, 0.99),
        exits_per_request: nics.kick_exits as f64 / done.max(1) as f64,
        hypercalls_per_request: nics.kick_hypercalls as f64 / done.max(1) as f64,
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
