//! Per-backend program executor.
//!
//! One [`Executor`] owns one booted [`Stack`] and interprets [`Op`]s
//! against it, tracking the program's resource universe (region slots,
//! pid rotation, the NIC fixture). The lockstep oracle drives one executor
//! per backend with the same op stream and compares what comes back.

use cki::{Backend, Stack, StackConfig};
use cki_core::CkiPlatform;
use guest_os::{Errno, Fd, Sys};
use netsim::{Coalesce, HostSwitch, MAX_PAYLOAD};
use sim_hw::{Access, Fault, Instr, Mode};
use sim_mem::Virt;

use crate::program::{Op, PATHS, REGION_SLOTS};

/// Result sentinel: op referenced an unmapped region slot.
pub const NO_REGION: i64 = -100;
/// Result sentinel: `ExitIfChild` ran while pid 1 was current.
pub const NOT_CHILD: i64 = -101;
/// Result sentinel: net op before `NetOpen`.
pub const NO_SOCKET: i64 = -102;
/// Result sentinel: probe not applicable on this backend (never compared).
pub const PROBE_SKIPPED: i64 = -200;

/// A deliberately planted divergence, for self-testing the oracle: the
/// named backend lies about `stat("/c")`. See `tests/planted_divergence.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// `Op::Stat(2)` returns a bogus size on this backend only.
    StatLies(Backend),
}

/// Executor configuration (uniform across the lockstep set).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecConfig {
    /// Planted divergence for oracle self-tests.
    pub planted_bug: Option<PlantedBug>,
}

/// Comparable functional state of one stack, captured after an op.
///
/// Everything here must be architecture-independent: the same program must
/// produce the same snapshot on all 9 backends. Cost-like state (clock,
/// TLB fill, trace volume) deliberately stays out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Live process count.
    pub nprocs: usize,
    /// Currently scheduled pid.
    pub current: u32,
    /// VFS namespace view: (path, size), sorted.
    pub vfs: Vec<(String, u64)>,
    /// Region slots: (base VA, length).
    pub regions: [Option<(u64, u64)>; REGION_SLOTS],
    /// Resident pages of the current process: (VA, is-COW), sorted by VA.
    pub resident: Vec<(u64, bool)>,
}

impl StateSnapshot {
    /// Field-by-field description of how `self` differs from `other`.
    pub fn diff(&self, other: &StateSnapshot) -> Vec<String> {
        let mut d = Vec::new();
        if self.nprocs != other.nprocs {
            d.push(format!("nprocs: {} vs {}", self.nprocs, other.nprocs));
        }
        if self.current != other.current {
            d.push(format!(
                "current pid: {} vs {}",
                self.current, other.current
            ));
        }
        if self.vfs != other.vfs {
            d.push(format!("vfs view: {:?} vs {:?}", self.vfs, other.vfs));
        }
        if self.regions != other.regions {
            d.push(format!(
                "regions: {:?} vs {:?}",
                self.regions, other.regions
            ));
        }
        if self.resident != other.resident {
            let first = self
                .resident
                .iter()
                .zip(other.resident.iter())
                .find(|(a, b)| a != b);
            d.push(format!(
                "resident pages: {} vs {} (first delta: {:?})",
                self.resident.len(),
                other.resident.len(),
                first
            ));
        }
        d
    }
}

/// Captures the comparable functional state of any guest kernel — also
/// usable outside an [`Executor`], e.g. to compare a snapshot-cloned
/// container against a cold-booted one. `regions` is the caller's view of
/// its mapped region slots (all-`None` when not driving [`Op`] programs).
pub fn snapshot_kernel(
    k: &guest_os::Kernel,
    regions: [Option<(u64, u64)>; REGION_SLOTS],
) -> StateSnapshot {
    let aspace = &k.proc(k.current).aspace;
    StateSnapshot {
        nprocs: k.nprocs(),
        current: k.current,
        vfs: k.vfs.entries(),
        regions,
        resident: aspace
            .pages
            .iter()
            .map(|(&va, info)| (va, info.cow))
            .collect(),
    }
}

/// Instruction set of the pkey attack probe (all Table 3 "blocked" rows
/// that execute without perturbing guest-visible state, or whose
/// perturbation the probe restores).
fn probe_instr(i: u8) -> Instr {
    match i % 4 {
        0 => Instr::Cli,
        1 => Instr::ReadCr { cr: 3 },
        2 => Instr::InPort { port: 0xcf8 },
        _ => Instr::Smsw,
    }
}

/// MAC of the packet fixture's NIC; the switch hairpins traffic to it.
const PKT_MAC: u64 = 0xAA;
/// Virtqueue size of the fixture NIC — small, so programs can fill it.
const PKT_QUEUE: u16 = 8;
/// Egress FIFO depth of the fixture switch — smaller than the ring, so a
/// burst of sends exercises backpressure before ring-full.
const PKT_SWITCH_DEPTH: usize = 2;

/// The net fixture: one virtqueue NIC hairpinned through
/// a depth-bounded host switch, plus a listener and a client socket.
struct PktFixture {
    switch: HostSwitch,
    listener: Fd,
    client: Fd,
}

/// One backend executing one program.
pub struct Executor {
    /// The booted stack.
    pub stack: Stack,
    regions: [Option<(u64, u64)>; REGION_SLOTS],
    pids: Vec<u32>,
    pkt: Option<PktFixture>,
    buf: Virt,
    planted: Option<PlantedBug>,
    /// Invariant violations recorded by probes/injections, drained by the
    /// oracle after every step.
    pub violations: Vec<String>,
}

impl Executor {
    /// Boots `backend` and prepares the shared I/O buffer.
    pub fn new(backend: Backend, cfg: &ExecConfig) -> Self {
        let mut stack = Stack::new(backend, StackConfig::default());
        // The span profiler feeds the obs self-time invariant.
        stack.set_profiling(true);
        stack.machine.cpu.enable_tracer();
        let buf = {
            let mut env = stack.env();
            let b = env.mmap(64 * 1024).expect("bootstrap buffer");
            env.touch_range(b, 64 * 1024, true)
                .expect("bootstrap touch");
            b
        };
        Self {
            stack,
            regions: [None; REGION_SLOTS],
            pids: vec![1],
            pkt: None,
            buf,
            planted: cfg.planted_bug,
            violations: Vec::new(),
        }
    }

    /// The backend this executor runs.
    pub fn backend(&self) -> Backend {
        self.stack.backend
    }

    /// Executes one op, returning its encoded result.
    ///
    /// Encoding: `Ok(v)` → `v as i64`; `Err(errno)` → `-(errno + 1)`;
    /// the `NO_*`/`PROBE_SKIPPED` sentinels for ops whose preconditions
    /// aren't met. The encoding is total — an executor never panics on any
    /// op sequence.
    pub fn step(&mut self, op: Op) -> i64 {
        let enc = |r: Result<u64, Errno>| match r {
            Ok(v) => v as i64,
            Err(e) => -(e as i64 + 1),
        };
        let buf = self.buf;
        match op {
            Op::Getpid => enc(self.stack.env().sys(Sys::Getpid)),
            Op::Open(i) => enc(self.stack.env().sys(Sys::Open {
                path: PATHS[i as usize % PATHS.len()],
                create: true,
                trunc: false,
            })),
            Op::CloseFd(fd) => enc(self.stack.env().sys(Sys::Close { fd: fd as Fd })),
            Op::WriteFd { fd, len } => enc(self.stack.env().sys(Sys::Write {
                fd: fd as Fd,
                buf,
                len: len as usize,
            })),
            Op::ReadFd { fd, len } => enc(self.stack.env().sys(Sys::Read {
                fd: fd as Fd,
                buf,
                len: len as usize,
            })),
            Op::PwriteFd { fd, len, off } => enc(self.stack.env().sys(Sys::Pwrite {
                fd: fd as Fd,
                buf,
                len: len as usize,
                offset: off as u64,
            })),
            Op::PreadFd { fd, len, off } => enc(self.stack.env().sys(Sys::Pread {
                fd: fd as Fd,
                buf,
                len: len as usize,
                offset: off as u64,
            })),
            Op::Stat(i) => {
                let r = enc(self.stack.env().sys(Sys::Stat {
                    path: PATHS[i as usize % PATHS.len()],
                }));
                // Oracle self-test hook: one backend lies about /c.
                if i % PATHS.len() as u8 == 2
                    && self.planted == Some(PlantedBug::StatLies(self.stack.backend))
                {
                    return r.wrapping_add(1);
                }
                r
            }
            Op::Fsync(fd) => enc(self.stack.env().sys(Sys::Fsync { fd: fd as Fd })),
            Op::Unlink(i) => enc(self.stack.env().sys(Sys::Unlink {
                path: PATHS[i as usize % PATHS.len()],
            })),
            Op::Mmap { pages, slot } => {
                let pages = pages.clamp(1, 16) as u64;
                let r = self.stack.env().sys(Sys::Mmap {
                    len: pages * 4096,
                    write: true,
                });
                if let Ok(base) = r {
                    self.regions[slot as usize % REGION_SLOTS] = Some((base, pages * 4096));
                }
                enc(r)
            }
            Op::TouchRegion {
                region,
                page,
                write,
            } => match self.regions[region as usize % REGION_SLOTS] {
                Some((base, len)) => {
                    let va = base + (page as u64 * 4096) % len;
                    enc(self.stack.env().touch(va, write).map(|_| 1))
                }
                None => NO_REGION,
            },
            Op::MunmapRegion(i) => match self.regions[i as usize % REGION_SLOTS].take() {
                Some((base, len)) => enc(self.stack.env().sys(Sys::Munmap { addr: base, len })),
                None => NO_REGION,
            },
            Op::Mprotect { region, write } => match self.regions[region as usize % REGION_SLOTS] {
                Some((base, len)) => enc(self.stack.env().sys(Sys::Mprotect {
                    addr: base,
                    len,
                    write,
                })),
                None => NO_REGION,
            },
            Op::Brk { incr } => enc(self.stack.env().sys(Sys::Brk { incr: incr as u64 })),
            Op::Pipe => enc(self.stack.env().sys(Sys::PipeCreate)),
            Op::SocketPair => enc(self.stack.env().sys(Sys::SocketPair)),
            Op::Fork => {
                let r = self.stack.env().sys(Sys::Fork);
                if let Ok(pid) = r {
                    self.pids.push(pid as u32);
                }
                enc(r)
            }
            Op::SwitchNext => {
                let cur = self.stack.kernel.current;
                let pos = self.pids.iter().position(|&p| p == cur).unwrap_or(0);
                let next = self.pids[(pos + 1) % self.pids.len()];
                let Stack {
                    machine, kernel, ..
                } = &mut self.stack;
                enc(kernel.context_switch(machine, next).map(|_| next as u64))
            }
            Op::ExitIfChild => {
                if self.stack.kernel.current == 1 {
                    NOT_CHILD
                } else {
                    let cur = self.stack.kernel.current;
                    self.pids.retain(|&p| p != cur);
                    let Stack {
                        machine, kernel, ..
                    } = &mut self.stack;
                    let r = kernel.syscall(machine, Sys::Exit { code: 0 });
                    kernel.context_switch(machine, 1).expect("switch to init");
                    let _ = kernel.syscall(machine, Sys::Wait);
                    enc(r)
                }
            }
            Op::Yield => enc(self.stack.env().sys(Sys::Yield)),
            Op::NetOpen => self.net_open(),
            Op::NetListen { port } => match &self.pkt {
                Some(p) => {
                    let fd = p.listener;
                    enc(self.stack.env().sys(Sys::NetListen {
                        fd,
                        port: 1000 + (port % 8) as u16,
                    }))
                }
                None => NO_SOCKET,
            },
            Op::NetConnect { port } => match &self.pkt {
                Some(p) => {
                    let fd = p.client;
                    enc(self.stack.env().sys(Sys::NetConnect {
                        fd,
                        mac: PKT_MAC,
                        port: 1000 + (port % 8) as u16,
                    }))
                }
                None => NO_SOCKET,
            },
            Op::NetSendTo { sock, len } => match &self.pkt {
                Some(p) => {
                    let fd = if sock == 0 { p.listener } else { p.client };
                    enc(self.stack.env().sys(Sys::NetSend {
                        fd,
                        buf,
                        len: (len as usize).clamp(1, 3 * MAX_PAYLOAD),
                    }))
                }
                None => NO_SOCKET,
            },
            Op::NetRecvFrom { sock } => match &self.pkt {
                Some(p) => {
                    let fd = if sock == 0 { p.listener } else { p.client };
                    enc(self.stack.env().sys(Sys::NetRecv { fd, buf, len: 2048 }))
                }
                None => NO_SOCKET,
            },
            Op::NetAccept => match &self.pkt {
                Some(p) => {
                    let fd = p.listener;
                    enc(self.stack.env().sys(Sys::NetAccept { fd }))
                }
                None => NO_SOCKET,
            },
            Op::NetService => match &mut self.pkt {
                Some(p) => {
                    let Stack {
                        machine, kernel, ..
                    } = &mut self.stack;
                    let nic = kernel.netif_mut().expect("fixture attached a NIC");
                    let (mem, clock) = (&mut machine.mem, &mut machine.cpu.clock);
                    p.switch.service(mem, clock, |visit| visit(nic), |_| {}) as i64
                }
                None => NO_SOCKET,
            },
            Op::EnablePreemption { quantum_us } => {
                let q = quantum_us.max(50) as f64 * 1000.0;
                self.stack.kernel.enable_preemption(&self.stack.machine, q);
                1
            }
            Op::PkProbe(i) => self.pk_probe(probe_instr(i)),
            Op::PtpWriteProbe => self.ptp_write_probe(),
        }
    }

    /// Executes one destructive privileged instruction from guest-kernel
    /// context. Returns 1 if the hardware blocked it, 0 if it executed.
    /// Guest-visible CPU state is saved and restored around the attempt, so
    /// the probe is functionally a no-op on every backend.
    fn pk_probe(&mut self, instr: Instr) -> i64 {
        let m = &mut self.stack.machine;
        let (mode, pkrs, rflags_if) = (m.cpu.mode, m.cpu.pkrs, m.cpu.rflags_if);
        m.cpu.mode = Mode::Kernel;
        if self.stack.backend.needs_cki_hw() {
            m.cpu.pkrs = cki_core::pkrs_guest();
        }
        let r = m.cpu.exec(&mut m.mem, instr);
        m.cpu.mode = mode;
        m.cpu.pkrs = pkrs;
        m.cpu.rflags_if = rflags_if;
        let blocked = matches!(r, Err(Fault::BlockedPrivileged { .. }));
        if self.stack.backend.needs_cki_hw() && !blocked {
            self.violations.push(format!(
                "pk probe: `{}` escaped the blocking extension on {} ({r:?})",
                instr.mnemonic(),
                self.stack.backend.name()
            ));
        }
        blocked as i64
    }

    /// Attempts a store to the current root's declared page-table page via
    /// the KSM physmap. CKI must kill it with a PK violation; on backends
    /// without a KSM the probe is skipped.
    fn ptp_write_probe(&mut self) -> i64 {
        let root = {
            let k = &self.stack.kernel;
            k.proc(k.current).aspace.root
        };
        let Some(p) = self
            .stack
            .kernel
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
        else {
            return PROBE_SKIPPED;
        };
        let ptp_va = p.ksm.physmap_va(root);
        let m = &mut self.stack.machine;
        let (mode, pkrs) = (m.cpu.mode, m.cpu.pkrs);
        m.cpu.mode = Mode::Kernel;
        m.cpu.pkrs = cki_core::pkrs_guest();
        let r = m.cpu.mem_access(&mut m.mem, ptp_va, Access::Write, None);
        m.cpu.mode = mode;
        m.cpu.pkrs = pkrs;
        let blocked = matches!(r, Err(Fault::PkViolation { .. }));
        if !blocked {
            self.violations.push(format!(
                "ptp probe: PTP store not PK-blocked on {} ({r:?})",
                self.stack.backend.name()
            ));
        }
        blocked as i64
    }

    /// Sets up the packet fixture (idempotent). Returns `lfd << 8 | cfd`,
    /// which is deterministic across backends (fd allocation is part of
    /// the compared kernel state).
    fn net_open(&mut self) -> i64 {
        if self.pkt.is_none() {
            let Stack {
                machine, kernel, ..
            } = &mut self.stack;
            let nic = kernel
                .attach_netif(machine, PKT_QUEUE, PKT_MAC, Coalesce::default())
                .expect("fixture NIC frames");
            let mut switch = HostSwitch::new(PKT_SWITCH_DEPTH);
            switch.attach(nic);
            let listener = self.stack.env().sys(Sys::NetSocket).expect("listener") as Fd;
            let client = self.stack.env().sys(Sys::NetSocket).expect("client") as Fd;
            self.pkt = Some(PktFixture {
                switch,
                listener,
                client,
            });
        }
        let p = self.pkt.as_ref().expect("fixture just built");
        ((p.listener as i64) << 8) | p.client as i64
    }

    /// Forwarding statistics of the packet fixture's switch, if set up.
    pub fn pkt_switch_stats(&self) -> Option<&netsim::SwitchStats> {
        self.pkt.as_ref().map(|p| &p.switch.stats)
    }

    /// Captures the comparable functional state.
    pub fn snapshot(&self) -> StateSnapshot {
        snapshot_kernel(&self.stack.kernel, self.regions)
    }

    /// Short trace tail for divergence reports (cost-free causality view).
    pub fn trace_tail(&self, n: usize) -> String {
        let freq = self.stack.machine.cpu.clock.model().freq_ghz;
        sim_hw::trace::render_tail(&self.stack.machine.cpu.tracer, n, freq)
    }

    /// The VA of one page within a region slot, if mapped (injection
    /// schedules use this for targeted TLB shootdowns).
    pub fn region_page(&self, region: u8, page: u8) -> Option<Virt> {
        self.regions[region as usize % REGION_SLOTS]
            .map(|(base, len)| base + (page as u64 * 4096) % len)
    }
}
