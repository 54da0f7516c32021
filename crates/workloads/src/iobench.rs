//! I/O-intensive server workloads (paper Figure 5): nginx (static and
//! proxy), httpd, and netperf (TX / RR).
//!
//! Like the KV servers, these run a request loop against a host-side
//! [`crate::fleet::ClientFleet`] on the server NIC's switch. Each server's
//! per-request kernel/engine profile follows the real application:
//!
//! - **nginx static**: receive → parse → `stat` + `pread` the file (page
//!   cache) → send 8 KiB.
//! - **nginx proxy**: the same front end, plus an upstream leg on a second
//!   socket connected to the fleet's upstream port: forward the request,
//!   receive the 8 KiB body, relay it.
//! - **httpd (Apache)**: heavier per-request engine work than nginx.
//! - **netperf TX**: bulk 16 KiB sends to a sink, flushed every four.
//! - **netperf RR**: 1-byte request/response latency-bound throughput.
//!
//! Sends longer than one frame leave as several frames (the kernel
//! segments them), so an 8 KiB reply costs five TX descriptors.

use guest_os::{Env, Errno, Fd, Sys};

use crate::fleet::{ClientFleet, Fleet, DISCARD_PORT, FLEET_MAC, UPSTREAM_PORT};
use crate::report::{Probe, Report};
use crate::serving::SERVICE_PORT;

/// Bytes of an HTTP request.
const HTTP_REQUEST: usize = 200;
/// Bytes of the served file (and of the proxied upstream body).
const FILE_BYTES: usize = 8192;
/// Bytes of one netperf TX send window.
const TX_WINDOW: usize = 16 * 1024;

/// One I/O server case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoCase {
    /// nginx serving a static file.
    NginxStatic,
    /// nginx as a reverse proxy.
    NginxProxy,
    /// Apache httpd serving a static file.
    Httpd,
    /// netperf bulk transmit.
    NetperfTx,
    /// netperf request/response.
    NetperfRr,
}

impl IoCase {
    /// The five cases in the figure's order.
    pub const ALL: [IoCase; 5] = [
        IoCase::NginxStatic,
        IoCase::NginxProxy,
        IoCase::Httpd,
        IoCase::NetperfTx,
        IoCase::NetperfRr,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            IoCase::NginxStatic => "nginx(static)",
            IoCase::NginxProxy => "nginx(proxy)",
            IoCase::Httpd => "httpd",
            IoCase::NetperfTx => "netperf(TX)",
            IoCase::NetperfRr => "netperf(RR)",
        }
    }
}

/// The I/O server workload.
pub struct IoWorkload {
    /// Which server.
    pub case: IoCase,
    /// Requests (or 16 KiB send windows for TX) to complete.
    pub requests: u64,
    /// Closed-loop client connections (netperf TX sends to a sink and
    /// needs none).
    pub clients: u32,
}

impl IoWorkload {
    /// Creates a run against `clients` connections.
    pub fn new(case: IoCase, requests: u64, clients: u32) -> Self {
        Self {
            case,
            requests,
            clients,
        }
    }

    /// What the fleet sends and expects for this case.
    fn fleet(&self) -> Fleet {
        let (request_bytes, response_bytes) = match self.case {
            IoCase::NetperfRr => (1, 1),
            _ => (HTTP_REQUEST, FILE_BYTES),
        };
        Fleet {
            clients: self.clients,
            request_bytes,
            response_bytes,
            upstream_bytes: FILE_BYTES,
        }
    }

    /// Attaches a NIC and the client fleet, then runs the server loop.
    pub fn run(&mut self, env: &mut Env<'_>) -> Result<Report, Errno> {
        let mut net = ClientFleet::attach(env, self.fleet());
        let sock = env.sys(Sys::NetSocket)? as Fd;
        if self.case == IoCase::NetperfTx {
            env.sys(Sys::NetConnect {
                fd: sock,
                mac: FLEET_MAC,
                port: DISCARD_PORT,
            })?;
        } else {
            env.sys(Sys::NetListen {
                fd: sock,
                port: SERVICE_PORT,
            })?;
        }
        let buf = env.mmap(64 * 1024)?;
        env.touch_range(buf, 64 * 1024, true)?;
        // The served file, warmed into the page cache.
        let file = env.sys(Sys::Open {
            path: "/www/index.html",
            create: true,
            trunc: true,
        })? as Fd;
        env.sys(Sys::Write {
            fd: file,
            buf,
            len: FILE_BYTES,
        })?;
        let upstream = if self.case == IoCase::NginxProxy {
            let fd = env.sys(Sys::NetSocket)? as Fd;
            env.sys(Sys::NetConnect {
                fd,
                mac: FLEET_MAC,
                port: UPSTREAM_PORT,
            })?;
            fd
        } else {
            sock
        };

        let probe = Probe::start(env);
        match self.case {
            IoCase::NginxStatic | IoCase::Httpd => {
                // httpd: per-request mpm + filter chain; nginx: parse + route.
                let engine = if self.case == IoCase::Httpd {
                    7800
                } else {
                    2200
                };
                for _ in 0..self.requests {
                    net.recv(env, sock, buf, HTTP_REQUEST)?;
                    env.compute(engine);
                    env.sys(Sys::Stat {
                        path: "/www/index.html",
                    })?;
                    env.sys(Sys::Pread {
                        fd: file,
                        buf,
                        len: FILE_BYTES,
                        offset: 0,
                    })?;
                    net.send(env, sock, buf, FILE_BYTES)?;
                }
            }
            IoCase::NginxProxy => {
                for _ in 0..self.requests {
                    net.recv(env, sock, buf, HTTP_REQUEST)?;
                    env.compute(2600);
                    // Upstream leg: send the request on, receive the body.
                    net.send(env, upstream, buf, 220)?;
                    net.recv_msg(env, upstream, buf, FILE_BYTES)?;
                    env.compute(900);
                    net.send(env, sock, buf, FILE_BYTES)?;
                }
            }
            IoCase::NetperfTx => {
                // Bulk streaming: one 16 KiB send per window, flush every 4.
                for i in 0..self.requests {
                    net.send(env, sock, buf, TX_WINDOW)?;
                    env.compute(300);
                    if i % 4 == 3 {
                        env.sys(Sys::NetFlush { fd: sock })?;
                    }
                }
            }
            IoCase::NetperfRr => {
                for _ in 0..self.requests {
                    net.recv(env, sock, buf, 1)?;
                    env.compute(120);
                    net.send(env, sock, buf, 1)?;
                }
            }
        }
        env.sys(Sys::NetFlush { fd: sock })?;
        Ok(probe.finish(env, self.case.name(), self.requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cki::{Backend, Stack, StackConfig};

    fn run_on(backend: Backend, case: IoCase, clients: u32) -> Report {
        let mut stack = Stack::new(backend, StackConfig::default());
        IoWorkload::new(case, 500, clients)
            .run(&mut stack.env())
            .unwrap()
    }

    fn run_on_pvm(case: IoCase) -> Report {
        run_on(Backend::Pvm, case, 16)
    }

    #[test]
    fn all_cases_complete() {
        for case in IoCase::ALL {
            let r = run_on_pvm(case);
            assert_eq!(r.ops, 500, "{}", case.name());
            assert!(r.ops_per_sec() > 0.0);
        }
    }

    #[test]
    fn nested_hvm_collapses_rr_throughput() {
        // netperf RR is a single request/response stream (1 client): every
        // transaction pays the full notification path, unamortized.
        let nst = run_on(Backend::HvmNested, IoCase::NetperfRr, 1);
        let pvm = run_on(Backend::PvmNested, IoCase::NetperfRr, 1);
        assert!(
            pvm.ops_per_sec() > 1.8 * nst.ops_per_sec(),
            "PVM {} vs HVM-NST {} (paper: 1.8×-4.3×)",
            pvm.ops_per_sec(),
            nst.ops_per_sec()
        );
    }

    #[test]
    fn proxy_slower_than_static() {
        let s = run_on_pvm(IoCase::NginxStatic);
        let p = run_on_pvm(IoCase::NginxProxy);
        assert!(p.ops_per_sec() < s.ops_per_sec());
    }
}
