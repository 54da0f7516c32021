//! `serve`: one KV-server container and [`CLIENTS`] client containers on
//! one machine, talking through virtqueue NICs and the vhost switch.
//!
//! The benchmark drives `workloads::serving::Cluster` itself, a closed
//! loop in waves: every idle client sends its next request (sizes drawn
//! from the seed, each fitting one frame), the host service pass moves the
//! frames, the server drains its backlog and answers each request after a
//! slab of KV compute, another service pass, then every waiting client
//! polls for its response. Each op is one request and its response. It
//! runs on CKI, then on HVM-BM, with `kick_batch` 1, so every HVM doorbell
//! is an MMIO exit and every CKI doorbell a shared-memory write.
//!
//! `workloads::serving::run` panics when the server's reply finds its TX
//! ring full ("server TX ring sized for one reply per peer"), which
//! happens on HVM-BM and nested HVM with 5 or more clients (for example
//! 5 × 128 requests, so full-scale `net_serving` at 8 × 128). This loop
//! instead counts such a reply as a failed op: the client stops waiting
//! for it after [`REPLY_TIMEOUT_WAVES`] waves. At 4 clients it does not
//! happen.

use std::collections::BTreeMap;
use std::time::Instant;

use cki::guest_os::{Errno, Fd, Sys};
use cki::netsim::{Coalesce, NicStats, MAX_PAYLOAD};
use cki::obs::rng::SmallRng;
use cki::sim_hw::Tag;
use cki::Backend;
use workloads::serving::{Cluster, ServingConfig, SERVICE_PORT};

use crate::round::{self, Digest, Phase, Round};
use crate::trace::Tracer;

/// Client containers; each keeps one request in flight.
pub const CLIENTS: usize = 4;
/// Requests per client per round on CKI.
pub const CKI_REQUESTS: usize = 6000;
/// Requests per client per round on HVM-BM (each costs several times the
/// host time of a CKI request).
pub const HVM_REQUESTS: usize = 1000;
/// Response payload bytes.
const RESPONSE_BYTES: usize = 600;
/// Smallest request payload.
const MIN_REQUEST: usize = 64;
/// Waves a client waits for a reply the server could not send.
pub const REPLY_TIMEOUT_WAVES: u64 = 64;
/// Spans of the server and of service passes carry the wave number with
/// this bit set in place of a request id.
const WAVE_OP: u64 = 1 << 63;

/// A cluster booted and connected, ready for its first request.
struct Ready {
    cl: Cluster,
    srv: Fd,
    fds: Vec<Fd>,
    bufs: Vec<u64>,
}

fn setup(backend: Backend) -> Ready {
    let cfg = ServingConfig {
        backend,
        clients: CLIENTS,
        coalesce: Coalesce {
            kick_batch: 1,
            ..Coalesce::default()
        },
        ..ServingConfig::default()
    };
    let mut cl = Cluster::build(&cfg);
    let server_mac = cl.server_mac();
    let mut bufs = Vec::with_capacity(CLIENTS + 1);
    for node in 0..=CLIENTS {
        cl.enter(node);
        let buf = cl
            .sys(
                node,
                Sys::Mmap {
                    len: 4096,
                    write: true,
                },
            )
            .expect("scratch page");
        bufs.push(buf);
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
    let mut fds = Vec::with_capacity(CLIENTS);
    for node in 1..=CLIENTS {
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
        fds.push(fd);
    }
    Ready { cl, srv, fds, bufs }
}

/// Payload hashes in flight, with their multiplicity.
type Pending = BTreeMap<u64, u32>;

fn put(pending: &mut Pending, v: u64) {
    *pending.entry(v).or_insert(0) += 1;
}

/// Removes one copy of `v` from `pending`; false if absent.
fn take(pending: &mut Pending, v: u64) -> bool {
    let Some(n) = pending.get_mut(&v) else {
        return false;
    };
    *n -= 1;
    if *n == 0 {
        pending.remove(&v);
    }
    true
}

#[derive(Default)]
struct Calls {
    recvs: u64,
    useful_recvs: u64,
    /// Payloads whose hash matches no request (at the server) or reply
    /// (at a client) in flight.
    mismatches: u64,
}

fn os_counts(cl: &Cluster) -> (u64, u64) {
    cl.kernels.iter().fold((0, 0), |(s, p), k| {
        let m = &k.metrics;
        (
            s + m.value_of("os.syscalls", None),
            p + m.value_of("os.pgfaults", None),
        )
    })
}

/// Runs `sizes[c]` requests for every client `c` and fills `r`'s layer
/// numbers for `b`.
fn measure(
    ready: &mut Ready,
    b: &'static str,
    sizes: &[Vec<usize>],
    tr: &mut Tracer,
    r: &mut Round,
) -> Phase {
    let Ready { cl, srv, fds, bufs } = ready;
    let srv = *srv;
    let mut ph = Phase::new(b);
    let mut digest = Digest::new();
    let mut calls = Calls::default();
    let tags0 = round::tags(&cl.machine.cpu.clock);
    let snap0 = cl.machine.cpu.metrics.snapshot();
    let nic0 = cl.nic_totals();
    let sw0 = cl.switch.stats.clone();
    let os0 = os_counts(cl);
    let mark = cl.machine.cpu.clock.mark();

    let total: usize = sizes.iter().map(Vec::len).sum();
    // Per client: index of the next request, and (wave, cycle) of the
    // one in flight.
    let mut next = [0usize; CLIENTS];
    let mut in_flight: [Option<(u64, u64)>; CLIENTS] = [None; CLIENTS];
    let mut requests = Pending::new();
    let mut replies = Pending::new();
    let mut expired = 0u64;
    let mut wave = 0u64;
    let busy = |next: &[usize], in_flight: &[Option<(u64, u64)>]| {
        next.iter().zip(sizes).any(|(n, s)| *n < s.len()) || in_flight.iter().any(Option::is_some)
    };
    while busy(&next, &in_flight) {
        wave += 1;
        if wave > 64 * total as u64 + 64 {
            r.check(false, || format!("serve {b}: loop made no progress"));
            break;
        }
        for c in 0..CLIENTS {
            if in_flight[c].is_some() || next[c] == sizes[c].len() {
                continue;
            }
            let node = c + 1;
            tr.set_op((c * sizes[c].len() + next[c]) as u64);
            let s = tr.begin("platform.enter");
            cl.enter(node);
            tr.end(s);
            let s = tr.begin("guest.sys.send");
            let sent = cl.sys(
                node,
                Sys::NetSend {
                    fd: fds[c],
                    buf: bufs[node],
                    len: sizes[c][next[c]],
                },
            );
            tr.end(s);
            match sent {
                Ok(h) => {
                    put(&mut requests, h);
                    in_flight[c] = Some((wave, cl.machine.cpu.clock.cycles()));
                    next[c] += 1;
                    ph.attempted += 1;
                }
                Err(Errno::WouldBlock) => {} // TX ring full: retry next wave
                Err(e) => {
                    r.check(false, || format!("serve {b}: client send: {e:?}"));
                    return ph;
                }
            }
        }
        tr.set_op(WAVE_OP | wave);
        let s = tr.begin("netsim.service");
        cl.service();
        tr.end(s);

        let s = tr.begin("platform.enter");
        cl.enter(0);
        tr.end(s);
        loop {
            calls.recvs += 1;
            let s = tr.begin("guest.sys.recv");
            let got = cl.sys(
                0,
                Sys::NetRecv {
                    fd: srv,
                    buf: bufs[0],
                    len: 2048,
                },
            );
            tr.end(s);
            match got {
                Ok(h) => {
                    calls.useful_recvs += 1;
                    // A payload no client sent is not an op of its own.
                    let genuine = take(&mut requests, h);
                    calls.mismatches += u64::from(!genuine);
                    cl.machine
                        .cpu
                        .clock
                        .charge(Tag::Compute, ServingConfig::default().kv_compute_cycles);
                    let s = tr.begin("guest.sys.send");
                    let sent = cl.sys(
                        0,
                        Sys::NetSend {
                            fd: srv,
                            buf: bufs[0],
                            len: RESPONSE_BYTES,
                        },
                    );
                    tr.end(s);
                    match sent {
                        Ok(h) => put(&mut replies, h),
                        // The reply cannot be sent: the op failed.
                        Err(Errno::WouldBlock) => ph.failed += u64::from(genuine),
                        Err(e) => {
                            r.check(false, || format!("serve {b}: server send: {e:?}"));
                            return ph;
                        }
                    }
                }
                Err(Errno::WouldBlock) => break,
                Err(e) => {
                    r.check(false, || format!("serve {b}: server recv: {e:?}"));
                    return ph;
                }
            }
        }
        let s = tr.begin("netsim.service");
        cl.service();
        tr.end(s);

        for c in 0..CLIENTS {
            let Some((sent_wave, t0)) = in_flight[c] else {
                continue;
            };
            let node = c + 1;
            tr.set_op((c * sizes[c].len() + next[c] - 1) as u64);
            let s = tr.begin("platform.enter");
            cl.enter(node);
            tr.end(s);
            calls.recvs += 1;
            let s = tr.begin("guest.sys.recv");
            let got = cl.sys(
                node,
                Sys::NetRecv {
                    fd: fds[c],
                    buf: bufs[node],
                    len: 2048,
                },
            );
            tr.end(s);
            match got {
                Ok(h) => {
                    calls.useful_recvs += 1;
                    calls.mismatches += u64::from(!take(&mut replies, h));
                    let lat = cl.machine.cpu.clock.cycles() - t0;
                    ph.lat.push(lat);
                    digest.push(lat);
                    digest.push(h);
                    in_flight[c] = None;
                }
                Err(Errno::WouldBlock) => {
                    // Stop waiting for a reply the server failed to send.
                    if wave - sent_wave > REPLY_TIMEOUT_WAVES && expired < ph.failed {
                        expired += 1;
                        in_flight[c] = None;
                    }
                }
                Err(e) => {
                    r.check(false, || format!("serve {b}: client recv: {e:?}"));
                    return ph;
                }
            }
        }
    }
    ph.op_cycles = cl.machine.cpu.clock.since(mark);
    ph.sim_cycles = ph.op_cycles;

    // Every request got its response, or the server failed its reply.
    r.check(ph.lat.len() as u64 + expired == ph.attempted, || {
        format!(
            "serve {b}: {} responses + {expired} given up != {} sent",
            ph.lat.len(),
            ph.attempted
        )
    });
    let d = cl.machine.cpu.metrics.snapshot().delta(&snap0);
    let tags1 = round::tags(&cl.machine.cpu.clock);
    round::machine_layers(r, b, &tags0, &tags1, &d);
    let os1 = os_counts(cl);
    round::os_layers(r, b, os1.0 - os0.0, os1.1 - os0.1);
    let nic = cl.nic_totals();
    let sw = &cl.switch.stats;
    let nic_delta = |f: fn(&NicStats) -> u64| (f(&nic) - f(&nic0)) as f64;
    let kicks = nic.kicks - nic0.kicks;
    let kick_exits = nic.kick_exits - nic0.kick_exits;
    r.set(format!("nic.kicks.{b}"), kicks as f64);
    r.set(format!("nic.kick_exits.{b}"), kick_exits as f64);
    r.set(format!("nic.irqs.{b}"), nic_delta(|s| s.irqs));
    r.set(format!("nic.ring_full.{b}"), nic_delta(|s| s.ring_full));
    r.set(
        format!("switch.forwarded.{b}"),
        (sw.forwarded - sw0.forwarded) as f64,
    );
    r.set(
        format!("switch.backpressured.{b}"),
        (sw.backpressured - sw0.backpressured) as f64,
    );
    r.set(
        format!("guest.recv.useful_ratio.{b}"),
        calls.useful_recvs as f64 / calls.recvs.max(1) as f64,
    );
    // Payload integrity. On HVM-BM it fails today: `Cluster::build` places
    // each node's NIC rings at frames from `Platform::alloc_frame`, which
    // on HVM are guest-physical addresses, and the device uses them as
    // host-physical ones, so every HVM node's rings share the same
    // machine frames. Reported as a count until that is fixed.
    r.set(
        format!("net.payload_mismatches.{b}"),
        calls.mismatches as f64,
    );
    if b == "cki" {
        r.check(calls.mismatches == 0, || {
            format!("serve cki: {} payloads failed their hash", calls.mismatches)
        });
    }
    // The paper's notification mechanism: CKI doorbells never exit, every
    // uncoalesced HVM doorbell is at least one VM exit.
    match b {
        "cki" => r.check(kick_exits == 0, || {
            format!("serve cki: {kick_exits} doorbell exits, expected 0")
        }),
        _ => r.check(kicks > 0 && kick_exits >= kicks, || {
            format!("serve {b}: {kick_exits} exits for {kicks} kicks")
        }),
    }
    digest.push(ph.failed);
    digest.push_counters(&d);
    for t in tags1 {
        digest.push(t);
    }
    ph.digest = digest.value();
    ph
}

pub fn round(seed: u64, tr: &mut Tracer, traced: bool) -> Round {
    let mut r = Round::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e_77e);
    let mut draw = |n: usize| -> Vec<Vec<usize>> {
        (0..CLIENTS)
            .map(|_| {
                (0..n)
                    .map(|_| rng.gen_range(MIN_REQUEST as u64..MAX_PAYLOAD as u64 + 1) as usize)
                    .collect()
            })
            .collect()
    };
    let cki_sizes = draw(CKI_REQUESTS);
    let hvm_sizes = draw(HVM_REQUESTS);

    let t0 = Instant::now();
    let cki_ready = setup(Backend::Cki);
    let hvm_ready = setup(Backend::HvmBm);
    r.setup_s = t0.elapsed().as_secs_f64();

    let mut host_s = 0.0;
    for (mut ready, b, sizes) in [
        (cki_ready, "cki", &cki_sizes),
        (hvm_ready, "hvm", &hvm_sizes),
    ] {
        tr.set_enabled(traced);
        tr.set_backend(b);
        let t = Instant::now();
        let ph = measure(&mut ready, b, sizes, tr, &mut r);
        host_s += t.elapsed().as_secs_f64();
        tr.set_enabled(false);
        r.phases.push(ph);
    }
    r.host_s = host_s;
    let rate = |ph: &Phase| ph.lat.len() as f64 / ph.op_cycles.max(1) as f64;
    r.check(rate(&r.phases[0]) >= rate(&r.phases[1]), || {
        "serve: CKI serves fewer requests per simulated second than HVM-BM".to_string()
    });
    r
}
