//! One server kernel under a host-side client fleet, over the virtqueue
//! dataplane (the harness behind the paper's Figures 5 and 16).
//!
//! [`ClientFleet::attach`] gives the server kernel a [`netsim::VirtioNic`]
//! (through [`guest_os::Kernel::attach_netif`], placed like every other
//! NIC) on a [`HostSwitch`] whose other port is the fleet: `clients`
//! closed-loop connections, one request in flight each, like the paper's
//! off-box memtier, wrk and netperf clients. The fleet lives in the host
//! and charges nothing to the server's clock. What the server pays —
//! syscalls, descriptor DMA, doorbells, RX interrupts — comes from the
//! same NIC model `net_serving` and the cloud control plane use, so a
//! notification costs what the backend's [`netsim::Doorbell`] and
//! [`netsim::IrqPath`] say and nothing else.
//!
//! The server's event loop calls [`ClientFleet::recv`] and
//! [`ClientFleet::send`]. When `NetRecv` returns `WouldBlock`, or
//! `NetSend` finds the TX ring full, they run one host service pass —
//! [`drain_tx`], then the fleet, then [`deliver_rx`] — and retry. A pass
//! that moves no frame means nothing can make progress (for example, no
//! clients), so the call returns `WouldBlock` instead of spinning.
//!
//! The fleet speaks by port:
//!
//! - client `i` sends `request_bytes` from port `CLIENT_PORT_BASE + i` to
//!   the server's [`SERVICE_PORT`], and sends its next request once
//!   `response_bytes` worth of frames came back to its port;
//! - each frame to [`UPSTREAM_PORT`] is one upstream request (a proxy's
//!   backend leg), answered with `upstream_bytes` to the sender's port;
//! - frames to any other port, such as [`DISCARD_PORT`], are sunk.
//!
//! Messages longer than [`MAX_PAYLOAD`] travel as consecutive
//! `MAX_PAYLOAD`-byte frames in both directions.

use std::collections::VecDeque;

use guest_os::{Env, Errno, Fd, Sys, SysResult};
use netsim::{deliver_rx, drain_tx, payload_pattern, Coalesce, HostSwitch};
use netsim::{Frame, Mac, PortId, MAX_PAYLOAD};
use sim_mem::Virt;

use crate::serving::SERVICE_PORT;

/// Port of the fleet's upstream (backend) server.
pub const UPSTREAM_PORT: u16 = 8080;
/// A port whose frames the fleet sinks (netperf's stream receiver).
pub const DISCARD_PORT: u16 = 9;
/// Source port of client 0; client `i` uses `CLIENT_PORT_BASE + i`.
const CLIENT_PORT_BASE: u16 = 32768;

/// Virtqueue size of the server's NIC.
const QUEUE: u16 = 128;
/// Switch egress FIFO depth, in frames.
const SWITCH_DEPTH: usize = 256;
/// Doorbell coalescing: the event loops flush every four replies.
const KICK_BATCH: u32 = 4;
const SERVER_MAC: Mac = 0x0200_0000_0001;
/// The fleet's MAC (where upstream and sink connections go).
pub const FLEET_MAC: Mac = 0x0200_0000_0002;

/// What the fleet sends and expects.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Closed-loop client connections (0: the server only ever blocks).
    pub clients: u32,
    /// Bytes of each request.
    pub request_bytes: usize,
    /// Bytes of the reply a client waits for before its next request.
    pub response_bytes: usize,
    /// Bytes the fleet answers each upstream request with.
    pub upstream_bytes: usize,
}

/// Frames a message of `bytes` bytes travels in.
fn frames_for(bytes: usize) -> u64 {
    bytes.div_ceil(MAX_PAYLOAD).max(1) as u64
}

/// The harness: the server's switch port, the fleet's port, and the
/// fleet's closed-loop state.
pub struct ClientFleet {
    cfg: Fleet,
    switch: HostSwitch,
    server_port: PortId,
    fleet_port: PortId,
    /// Reply frames each client still waits for.
    awaiting: Vec<u64>,
    /// Frames the switch refused; they go first on the next pass.
    outbox: VecDeque<Frame>,
    seq: u64,
    /// Requests answered in full.
    completed: u64,
}

impl ClientFleet {
    /// Attaches a NIC to the server kernel behind `env` and plugs it, and
    /// the fleet, into a fresh switch. Every
    /// client's first request is ready for the first service pass.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's platform has no frames left for the NIC, or
    /// if the clients would run out of port numbers.
    pub fn attach(env: &mut Env<'_>, cfg: Fleet) -> Self {
        assert!(
            cfg.clients <= (u16::MAX - CLIENT_PORT_BASE) as u32,
            "too many clients"
        );
        let coalesce = Coalesce {
            kick_batch: KICK_BATCH,
            ..Coalesce::default()
        };
        env.kernel
            .attach_netif(env.machine, QUEUE, SERVER_MAC, coalesce)
            .expect("NIC frames from the server's memory");
        let mut switch = HostSwitch::new(SWITCH_DEPTH);
        let server_port = switch.attach(SERVER_MAC);
        let fleet_port = switch.attach(FLEET_MAC);
        let mut fleet = Self {
            cfg,
            switch,
            server_port,
            fleet_port,
            awaiting: vec![0; cfg.clients as usize],
            outbox: VecDeque::new(),
            seq: 0,
            completed: 0,
        };
        for client in 0..cfg.clients as usize {
            fleet.request(client);
        }
        fleet
    }

    /// `NetRecv` on the server, running service passes while it blocks.
    pub fn recv(&mut self, env: &mut Env<'_>, fd: Fd, buf: Virt, len: usize) -> SysResult {
        self.retry(env, Sys::NetRecv { fd, buf, len })
    }

    /// `NetSend` on the server, running service passes while the TX ring
    /// is full.
    pub fn send(&mut self, env: &mut Env<'_>, fd: Fd, buf: Virt, len: usize) -> SysResult {
        self.retry(env, Sys::NetSend { fd, buf, len })
    }

    /// Receives the `bytes`-byte message arriving on `fd`, one frame per
    /// `NetRecv`.
    pub fn recv_msg(&mut self, env: &mut Env<'_>, fd: Fd, buf: Virt, bytes: usize) -> SysResult {
        let mut last = 0;
        for _ in 0..frames_for(bytes) {
            last = self.recv(env, fd, buf, bytes.min(MAX_PAYLOAD))?;
        }
        Ok(last)
    }

    fn retry(&mut self, env: &mut Env<'_>, sys: Sys<'_>) -> SysResult {
        loop {
            match env.sys(sys) {
                Err(Errno::WouldBlock) => {
                    if self.service(env) == 0 {
                        return Err(Errno::WouldBlock);
                    }
                }
                r => return r,
            }
        }
    }

    /// One host service pass: the server's TX ring into the switch, the
    /// fleet's replies back, the switch into the server's RX ring.
    /// Returns the frames moved to and from the server.
    fn service(&mut self, env: &mut Env<'_>) -> usize {
        let m = &mut *env.machine;
        let nic = env
            .kernel
            .netif_mut()
            .expect("attach gave the server a NIC");
        let (mem, clock) = (&mut m.mem, &mut m.cpu.clock);
        let drained = drain_tx(mem, clock, nic, &mut self.switch, self.server_port);
        while let Some(frame) = self.switch.egress_pop(self.fleet_port) {
            self.react(&frame);
        }
        while let Some(frame) = self.outbox.pop_front() {
            if let Err(frame) = self.switch.ingress(self.fleet_port, frame) {
                self.outbox.push_front(frame);
                break;
            }
        }
        drained + deliver_rx(mem, clock, nic, &mut self.switch, self.server_port)
    }

    /// The fleet's answer to one frame from the server.
    fn react(&mut self, frame: &Frame) {
        let client = frame.dst_port.wrapping_sub(CLIENT_PORT_BASE) as usize;
        if frame.dst_port == UPSTREAM_PORT {
            let (to, port) = (frame.src, frame.src_port);
            self.queue(to, port, UPSTREAM_PORT, self.cfg.upstream_bytes);
        } else if frame.dst_port >= CLIENT_PORT_BASE && client < self.awaiting.len() {
            // Never 0 here: a completed client asks again at once.
            self.awaiting[client] -= 1;
            if self.awaiting[client] == 0 {
                self.completed += 1;
                self.request(client);
            }
        }
    }

    fn request(&mut self, client: usize) {
        self.awaiting[client] = frames_for(self.cfg.response_bytes);
        let port = CLIENT_PORT_BASE + client as u16;
        self.queue(SERVER_MAC, SERVICE_PORT, port, self.cfg.request_bytes);
    }

    fn queue(&mut self, dst: Mac, dst_port: u16, src_port: u16, bytes: usize) {
        for i in 0..frames_for(bytes) as usize {
            self.seq += 1;
            self.outbox.push_back(Frame {
                dst,
                src: FLEET_MAC,
                dst_port,
                src_port,
                payload: payload_pattern(self.seq, (bytes - i * MAX_PAYLOAD).min(MAX_PAYLOAD)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cki::{Backend, Stack, StackConfig};

    fn server(stack: &mut Stack, cfg: Fleet) -> (ClientFleet, Fd, Virt) {
        let mut env = stack.env();
        let fleet = ClientFleet::attach(&mut env, cfg);
        let fd = env.sys(Sys::NetSocket).unwrap() as Fd;
        env.sys(Sys::NetListen {
            fd,
            port: SERVICE_PORT,
        })
        .unwrap();
        let buf = env.mmap(64 * 1024).unwrap();
        (fleet, fd, buf)
    }

    #[test]
    fn closed_loop_answers_multi_frame_replies() {
        let mut stack = Stack::new(Backend::Cki, StackConfig::default());
        let cfg = Fleet {
            clients: 3,
            request_bytes: 100,
            response_bytes: 3 * MAX_PAYLOAD + 1,
            upstream_bytes: 0,
        };
        let (mut fleet, fd, buf) = server(&mut stack, cfg);
        let mut env = stack.env();
        for _ in 0..30 {
            fleet.recv(&mut env, fd, buf, 100).unwrap();
            fleet.send(&mut env, fd, buf, cfg.response_bytes).unwrap();
        }
        fleet.service(&mut env);
        assert_eq!(
            fleet.completed, 30,
            "every 4-frame reply completes one request"
        );
        env.sys(Sys::NetAccept { fd }).unwrap(); // demultiplex what arrived
        let nic = &env.kernel.netif().unwrap().stats;
        assert_eq!(nic.tx_frames, 30 * 4);
        assert_eq!(
            nic.rx_frames,
            3 + 30,
            "each completed reply frees a request"
        );
    }

    #[test]
    fn upstream_requests_are_answered_on_the_senders_port() {
        let mut stack = Stack::new(Backend::Pvm, StackConfig::default());
        let cfg = Fleet {
            clients: 1,
            request_bytes: 200,
            response_bytes: 64,
            upstream_bytes: 8192,
        };
        let (mut fleet, fd, buf) = server(&mut stack, cfg);
        let mut env = stack.env();
        let up = env.sys(Sys::NetSocket).unwrap() as Fd;
        env.sys(Sys::NetConnect {
            fd: up,
            mac: FLEET_MAC,
            port: UPSTREAM_PORT,
        })
        .unwrap();
        fleet.recv(&mut env, fd, buf, 200).unwrap();
        fleet.send(&mut env, up, buf, 220).unwrap();
        fleet.recv_msg(&mut env, up, buf, 8192).unwrap();
        assert_eq!(
            fleet.recv(&mut env, up, buf, 8192),
            Err(Errno::WouldBlock),
            "the 8 KiB body was exactly five frames"
        );
        fleet.send(&mut env, fd, buf, 64).unwrap();
        fleet.service(&mut env);
        assert_eq!(fleet.completed, 1);
    }
}
