//! Cross-container serving throughput across backends (§7 serving).
//!
//! Three phases, all over the netsim dataplane:
//!
//! 1. **Backend comparison** — the closed-loop serving cluster
//!    ([`workloads::serving`]) at equal offered load on CKI, PVM, HVM
//!    bare-metal, and nested HVM, with uncoalesced doorbells
//!    (`kick_batch = 1`) so each backend pays its raw notification cost.
//!    Asserts the paper's ordering (CKI ≥ PVM > HVM > nested HVM), that
//!    HVM pays at least one VM exit per kick, and that CKI pays none.
//! 2. **Mitigation sweep** — the same HVM cluster at kick batch 1/4/16:
//!    NAPI-style coalescing must strictly reduce doorbell exits per
//!    request.
//! 3. **Cloud serving SLO** — two containers on a [`cki::CloudHost`]
//!    serve requests through the host switch while a `serving_p99`
//!    watchdog rule with a deliberately tight budget runs; the breach
//!    must produce an incident with a flight-recorder dump.
//!
//! Emits `results/BENCH_net_serving.json` (gated by `repro gate`).
//!
//! ```sh
//! CKI_BENCH_SCALE=quick cargo run --release -p cki-bench --bin repro -- net_serving
//! ```

use cki::{CloudHost, NetConfig, SloWatchdog, StartSpec};
use guest_os::{Fd, Sys};
use sim_mem::PAGE_SIZE;
use workloads::serving::{self, ServingConfig, ServingReport};

use crate::{Outcome, Scale};

const MIB: u64 = 1024 * 1024;

fn serve(backend: cki::Backend, clients: usize, requests: u64, kick_batch: u32) -> ServingReport {
    let mut cfg = ServingConfig {
        backend,
        clients,
        requests_per_client: requests,
        ..ServingConfig::default()
    };
    cfg.coalesce.kick_batch = kick_batch;
    serving::run(&cfg)
}

/// Runs the three phases and returns their scalars.
pub fn run(scale: Scale) -> Outcome {
    let (clients, requests, cloud_requests) = match scale {
        // At least as many clients as the sweep's largest kick batch, so
        // that many frames can be pending at once.
        Scale::Quick => (16usize, 8u64, 24u64),
        Scale::Full => (8, 128, 64u64),
    };

    // Phase 1 — backend comparison at equal offered load, uncoalesced.
    let cki = serve(cki::Backend::Cki, clients, requests, 1);
    let pvm = serve(cki::Backend::Pvm, clients, requests, 1);
    let hvm = serve(cki::Backend::HvmBm, clients, requests, 1);
    let nested = serve(cki::Backend::HvmNested, clients, requests, 1);

    assert!(
        cki.throughput_rps >= pvm.throughput_rps,
        "CKI must serve at least as fast as PVM ({} vs {})",
        cki.throughput_rps,
        pvm.throughput_rps
    );
    assert!(
        pvm.throughput_rps > hvm.throughput_rps,
        "PVM must outserve trap-based HVM ({} vs {})",
        pvm.throughput_rps,
        hvm.throughput_rps
    );
    assert!(
        hvm.throughput_rps > nested.throughput_rps,
        "bare-metal HVM must outserve nested HVM ({} vs {})",
        hvm.throughput_rps,
        nested.throughput_rps
    );
    assert_eq!(cki.nics.kick_exits, 0, "CKI doorbells are shared-memory");
    assert_eq!(pvm.nics.kick_exits, 0, "PVM doorbells are hypercalls");
    assert!(pvm.nics.kick_hypercalls >= pvm.nics.kicks);
    for r in [&hvm, &nested] {
        assert!(r.nics.kicks > 0);
        assert!(
            r.nics.kick_exits >= r.nics.kicks,
            "{}: every uncoalesced MMIO kick must cost >=1 VM exit",
            r.backend
        );
    }

    // Phase 2 — interrupt-mitigation sweep on the backend that pays the
    // most per doorbell exit.
    let sweep: Vec<(u32, ServingReport)> = [1u32, 4, 16]
        .into_iter()
        .map(|b| (b, serve(cki::Backend::HvmBm, clients, requests, b)))
        .collect();
    for pair in sweep.windows(2) {
        assert!(
            pair[1].1.exits_per_request < pair[0].1.exits_per_request,
            "raising kick_batch {} -> {} must reduce doorbell exits per request",
            pair[0].0,
            pair[1].0
        );
    }

    // Phase 3 — serving on the cloud control plane under a tight p99
    // budget: real request latency (container world switches included)
    // blows a 10k-cycle budget, so the watchdog must latch an incident.
    let mut host = CloudHost::new(1024 * MIB, 256 * MIB);
    host.enable_observability(
        64,
        SloWatchdog::new(1).with_rule(SloWatchdog::serving_p99(10_000)),
    );
    host.enable_networking(NetConfig::default());
    let spec = StartSpec::new(64 * MIB);
    let server = host.start(spec).unwrap();
    let client = host.start(spec).unwrap();
    let srv_mac = CloudHost::container_mac(server);
    let (sfd, sbuf) = host
        .enter(server, |env| {
            let buf = env.mmap(PAGE_SIZE).unwrap();
            let fd = env.sys(Sys::NetSocket).unwrap() as Fd;
            env.sys(Sys::NetListen { fd, port: 80 }).unwrap();
            (fd, buf)
        })
        .unwrap();
    let (cfd, cbuf) = host
        .enter(client, |env| {
            let buf = env.mmap(PAGE_SIZE).unwrap();
            let fd = env.sys(Sys::NetSocket).unwrap() as Fd;
            env.sys(Sys::NetConnect {
                fd,
                mac: srv_mac,
                port: 80,
            })
            .unwrap();
            (fd, buf)
        })
        .unwrap();
    let send = |fd, buf, len| Sys::NetSend { fd, buf, len };
    let recv = |fd, buf| Sys::NetRecv { fd, buf, len: 2048 };
    let mut accepted = false;
    for _ in 0..cloud_requests {
        let mark = host.machine.cpu.clock.mark();
        host.enter(client, |env| {
            env.sys(send(cfd, cbuf, 200)).unwrap();
            env.sys(Sys::NetFlush { fd: cfd }).unwrap();
        })
        .unwrap();
        host.net_service();
        host.enter(server, |env| {
            if !accepted {
                env.sys(Sys::NetAccept { fd: sfd }).unwrap();
                accepted = true;
            }
            env.sys(recv(sfd, sbuf)).unwrap();
            env.sys(send(sfd, sbuf, 600)).unwrap();
            env.sys(Sys::NetFlush { fd: sfd }).unwrap();
        })
        .unwrap();
        host.net_service();
        host.enter(client, |env| env.sys(recv(cfd, cbuf)).unwrap())
            .unwrap();
        let lat = host.machine.cpu.clock.since(mark);
        host.record_request(client, lat);
    }
    let metrics = &host.machine.cpu.metrics;
    let sketch = metrics
        .sketch_id_of("net.request_cycles", None)
        .expect("serving sketch registered");
    let cloud_p99 = metrics.sketch_quantile(sketch, 0.99);
    let incidents: Vec<_> = host
        .incidents()
        .iter()
        .filter(|i| i.rule == "serving_p99")
        .collect();
    let sw = host.switch_stats().expect("networking enabled").clone();
    assert!(
        !incidents.is_empty(),
        "tight p99 budget must latch a serving_p99 incident"
    );
    assert!(
        incidents[0].flight_dump.is_some(),
        "incident carries a flight-recorder dump"
    );
    assert_eq!(sw.dropped_unknown_dst, 0);
    assert_eq!(sw.dropped_dead_port, 0);

    let mut o = Outcome::default();
    o.push("clients", clients as u64);
    o.push("requests_per_client", requests);
    for (name, r) in [
        ("cki", &cki),
        ("pvm", &pvm),
        ("hvm_bm", &hvm),
        ("hvm_nested", &nested),
    ] {
        o.fixed(format!("{name}_throughput_rps"), r.throughput_rps, 1);
        o.push(format!("{name}_p50_cycles"), r.p50_cycles);
        o.push(format!("{name}_p99_cycles"), r.p99_cycles);
        o.push(format!("{name}_kicks"), r.nics.kicks);
        o.push(format!("{name}_kick_exits"), r.nics.kick_exits);
        o.push(format!("{name}_kick_hypercalls"), r.nics.kick_hypercalls);
        o.push(format!("{name}_irqs"), r.nics.irqs);
        o.fixed(format!("{name}_exits_per_request"), r.exits_per_request, 4);
    }
    for (batch, r) in &sweep {
        let key = format!("sweep_batch{batch}");
        o.fixed(format!("{key}_exits_per_request"), r.exits_per_request, 4);
        o.push(format!("{key}_coalesced_kicks"), r.nics.coalesced_kicks);
    }
    o.push("cloud_requests", cloud_requests);
    o.push("cloud_request_p99_cycles", cloud_p99);
    o.push("cloud_switch_forwarded", sw.forwarded);
    o.push("slo_serving_incidents", incidents.len() as u64);
    o
}
