//! # CKI — Container Kernel Isolation
//!
//! A full-system reproduction of *"A Hardware-Software Co-Design for
//! Efficient Secure Containers"* (EuroSys '25): the CKI secure-container
//! architecture, the PKS hardware extensions it proposes (as a simulated
//! machine), the baselines it compares against (RunC, HVM bare-metal and
//! nested, PVM), and the workloads and harnesses that regenerate every
//! table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use cki::{Backend, Stack, StackConfig};
//! use cki::guest_os::Sys;
//!
//! // Boot a CKI secure container and run a program in it.
//! let mut stack = Stack::new(Backend::Cki, StackConfig::default());
//! let mut env = stack.env();
//! let pid = env.sys(Sys::Getpid).unwrap();
//! assert_eq!(pid, 1);
//!
//! // Touch memory: demand paging through the KSM's PTE-update gate.
//! let base = env.mmap(1 << 20).unwrap();
//! env.touch_range(base, 1 << 20, true).unwrap();
//! assert!(env.now_ns() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! - [`sim_hw`] / [`sim_mem`]: the simulated machine (CPU with PKS + the
//!   four CKI hardware extensions, MMU, PCID-tagged TLB, physical memory).
//! - [`guest_os`]: the para-virtualized guest kernel.
//! - [`vmm`]: the HVM and PVM baselines, VirtIO backends.
//! - [`cki_core`]: the paper's contribution — KSM, PKS gates, policy.
//! - This crate: [`Stack`] assembles machine + platform + kernel per
//!   backend so workloads and benchmarks can treat them uniformly.

pub mod cloud;
pub mod slo;

pub use cki_core;
pub use cloud::{
    CloudHost, CompactionReport, Container, ContainerId, HostError, StartSpec,
    CLONE_ACTIVATE_CYCLES, FLIGHT_RECORD_CYCLES, MIGRATE_FIXED_CYCLES, NIC_QUEUE, SWITCH_DEPTH,
    WATCHDOG_TICK_CYCLES,
};
pub use guest_os;
pub use netsim;
pub use obs;
pub use sim_hw;
pub use sim_mem;
pub use slo::{Budget, Incident, RuleKind, SloProbe, SloRule, SloWatchdog};
pub use vmm;

use cki_core::{CkiConfig, CkiPlatform};
use guest_os::{Env, Kernel, NativePlatform, Platform};
use sim_hw::{HwExtensions, Machine};
use sim_mem::Segment;
use vmm::{HvmPlatform, PvmPlatform};

/// Which container design to boot (the paper's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// OS-level container: native shared kernel (RunC).
    RunC,
    /// Hardware-assisted VM container, bare-metal cloud (Kata/HVM).
    HvmBm,
    /// HVM with 2 MiB EPT mappings (Figure 12's "2M" variant).
    HvmBm2M,
    /// HVM inside an L1 VM (nested cloud).
    HvmNested,
    /// Software-virtualized container (PVM), bare-metal.
    Pvm,
    /// PVM in a nested cloud.
    PvmNested,
    /// CKI, bare-metal.
    Cki,
    /// CKI in a nested cloud (identical costs — the design's point).
    CkiNested,
    /// CKI without OPT2 (adds page-table switches to syscalls, §7.1).
    CkiWoOpt2,
    /// CKI without OPT3 (gates `sysret`/`swapgs` through PKS switches).
    CkiWoOpt3,
    /// CKI with PTI/IBRS left on the KSM gate (side-channel ablation).
    CkiGateMitigated,
    /// gVisor-style userspace kernel (Systrap + Sentry, §2.4.3).
    Gvisor,
    /// Proc-like LibOS container (Nabla-style, §2.4.3).
    LibOs,
}

impl Backend {
    /// All the standard comparison set (no ablations).
    pub const COMPARISON: [Backend; 6] = [
        Backend::HvmNested,
        Backend::PvmNested,
        Backend::RunC,
        Backend::HvmBm,
        Backend::Pvm,
        Backend::Cki,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::RunC => "RunC",
            Backend::HvmBm => "HVM-BM",
            Backend::HvmBm2M => "HVM-BM-2M",
            Backend::HvmNested => "HVM-NST",
            Backend::Pvm => "PVM",
            Backend::PvmNested => "PVM-NST",
            Backend::Cki => "CKI",
            Backend::CkiNested => "CKI-NST",
            Backend::CkiWoOpt2 => "CKI-wo-OPT2",
            Backend::CkiWoOpt3 => "CKI-wo-OPT3",
            Backend::CkiGateMitigated => "CKI+PTI/IBRS",
            Backend::Gvisor => "gVisor",
            Backend::LibOs => "LibOS",
        }
    }

    /// Whether this backend needs the CKI hardware extensions.
    pub fn needs_cki_hw(&self) -> bool {
        matches!(
            self,
            Backend::Cki
                | Backend::CkiNested
                | Backend::CkiWoOpt2
                | Backend::CkiWoOpt3
                | Backend::CkiGateMitigated
        )
    }

    /// Builds this backend's platform on `machine` — the *single*
    /// construction path shared by [`Stack::new`], the cloud control plane
    /// ([`CloudHost`]), and the differential-testing executors.
    ///
    /// CKI backends honour the orchestration fields of [`StackConfig`]:
    /// `vcpus`, a `pcid` override, and an optional pre-delegated segment
    /// (`seg`); every other backend ignores them.
    ///
    /// # Panics
    ///
    /// Panics if the machine cannot back the platform (wrong hardware
    /// extensions, not enough contiguous memory, segment/size mismatch) —
    /// use [`Stack::try_new`] for preflight validation.
    pub fn build_platform(self, machine: &mut Machine, config: &StackConfig) -> Box<dyn Platform> {
        let cki_cfg = |base: CkiConfig| CkiConfig {
            seg_bytes: config.vm_bytes,
            vcpus: config.vcpus,
            pcid: config.pcid.unwrap_or(base.pcid),
            ..base
        };
        let build_cki = |machine: &mut Machine, cfg: CkiConfig| match config.seg {
            Some(seg) => CkiPlatform::new_with_segment(machine, cfg, seg),
            None => CkiPlatform::new(machine, cfg),
        };
        match self {
            Backend::RunC => Box::new(NativePlatform::new(1)),
            Backend::HvmBm => Box::new(HvmPlatform::new(machine, config.vm_bytes, false)),
            Backend::HvmBm2M => {
                Box::new(HvmPlatform::new(machine, config.vm_bytes, false).with_huge_ept(true))
            }
            Backend::HvmNested => Box::new(HvmPlatform::new(machine, config.vm_bytes, true)),
            Backend::Pvm => Box::new(PvmPlatform::new(machine, false)),
            Backend::PvmNested => Box::new(PvmPlatform::new(machine, true)),
            Backend::Cki | Backend::CkiNested => {
                let cfg = cki_cfg(CkiConfig {
                    nested: self == Backend::CkiNested,
                    ..CkiConfig::default()
                });
                Box::new(build_cki(machine, cfg))
            }
            Backend::CkiWoOpt2 => {
                let cfg = cki_cfg(CkiConfig {
                    opt2_no_pt_switch: false,
                    ..CkiConfig::default()
                });
                Box::new(build_cki(machine, cfg))
            }
            Backend::CkiWoOpt3 => {
                let cfg = cki_cfg(CkiConfig {
                    opt3_direct_sysret: false,
                    ..CkiConfig::default()
                });
                Box::new(build_cki(machine, cfg))
            }
            Backend::CkiGateMitigated => {
                let cfg = cki_cfg(CkiConfig {
                    gate_sidechannel_mitigation: true,
                    ..CkiConfig::default()
                });
                Box::new(build_cki(machine, cfg))
            }
            Backend::Gvisor => Box::new(vmm::GvisorPlatform::new(machine)),
            Backend::LibOs => Box::new(vmm::LibOsPlatform::new(machine)),
        }
    }
}

/// Why a stack (or cloud host) could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BootError {
    /// The machine's physical memory cannot back the requested VM /
    /// delegated-segment size plus host overhead.
    InsufficientMemory {
        /// Bytes the configuration needs (including host overhead).
        required: u64,
        /// Bytes the machine has.
        available: u64,
    },
    /// A configuration field is out of range.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::InsufficientMemory {
                required,
                available,
            } => write!(
                f,
                "insufficient memory: need {required} bytes, machine has {available}"
            ),
            BootError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for BootError {}

/// Stack sizing and orchestration configuration.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Machine physical memory.
    pub mem_bytes: u64,
    /// VM / delegated-segment size for virtualized backends.
    pub vm_bytes: u64,
    /// vCPUs for CKI backends (per-vCPU areas and root copies), 1 to
    /// [`cki_core::MAX_VCPUS`].
    pub vcpus: u32,
    /// PCID override for CKI backends (`None` = the default tag). Hosts
    /// multiplexing containers assign distinct tags per container.
    pub pcid: Option<u16>,
    /// Pre-delegated segment for CKI backends (`None` = carve from the
    /// machine's frame allocator). Must match `vm_bytes` in length. Set by
    /// orchestration layers that manage the segment pool themselves.
    pub seg: Option<Segment>,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            mem_bytes: 2 * 1024 * 1024 * 1024,
            vm_bytes: 512 * 1024 * 1024,
            vcpus: CkiConfig::default().vcpus,
            pcid: None,
            seg: None,
        }
    }
}

/// A booted container stack: machine + platform + guest kernel.
pub struct Stack {
    /// The simulated machine.
    pub machine: Machine,
    /// The guest kernel (with its platform inside).
    pub kernel: Kernel,
    /// Which backend this is.
    pub backend: Backend,
}

impl Stack {
    /// Boots `backend` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`Stack::try_new`]'s preflight
    /// validation (e.g. the machine cannot back the requested VM size).
    pub fn new(backend: Backend, config: StackConfig) -> Self {
        Self::try_new(backend, config).unwrap_or_else(|e| panic!("booting {}: {e}", backend.name()))
    }

    /// Boots `backend` with `config`, validating the configuration first.
    ///
    /// Returns [`BootError`] for configurations that cannot work: a VM /
    /// segment larger than the machine can back (including host overhead
    /// for page tables and monitor state), zero-sized fields, a CKI vCPU
    /// count above [`cki_core::MAX_VCPUS`], an out-of-range PCID, or a
    /// pre-delegated segment whose length disagrees with `vm_bytes`.
    pub fn try_new(backend: Backend, config: StackConfig) -> Result<Self, BootError> {
        // The machine itself reserves the first 16 MiB for firmware/host
        // text; virtualized backends additionally need frames for their
        // translation structures (~vm_bytes/128) and monitor state.
        const HOST_RESERVE: u64 = 16 * 1024 * 1024;
        const MONITOR_SLACK: u64 = 16 * 1024 * 1024;
        let uses_vm_carve = !matches!(backend, Backend::RunC | Backend::Gvisor | Backend::LibOs);
        if config.mem_bytes <= HOST_RESERVE {
            return Err(BootError::InsufficientMemory {
                required: HOST_RESERVE + 1,
                available: config.mem_bytes,
            });
        }
        if uses_vm_carve {
            if config.vm_bytes == 0 {
                return Err(BootError::InvalidConfig("vm_bytes must be non-zero"));
            }
            if config.seg.is_none() {
                let required =
                    config.vm_bytes + config.vm_bytes / 128 + HOST_RESERVE + MONITOR_SLACK;
                if required > config.mem_bytes {
                    return Err(BootError::InsufficientMemory {
                        required,
                        available: config.mem_bytes,
                    });
                }
            }
        }
        if backend.needs_cki_hw() {
            if !(1..=cki_core::MAX_VCPUS).contains(&config.vcpus) {
                return Err(BootError::InvalidConfig("vcpus must be in 1..=MAX_VCPUS"));
            }
            if let Some(p) = config.pcid {
                if p == 0 || p >= sim_hw::pcid::PCID_COUNT - 1 {
                    return Err(BootError::InvalidConfig("pcid out of range"));
                }
            }
            if let Some(seg) = config.seg {
                if seg.len() != config.vm_bytes {
                    return Err(BootError::InvalidConfig("seg length != vm_bytes"));
                }
            }
        }
        let ext = if backend.needs_cki_hw() {
            HwExtensions::cki()
        } else {
            HwExtensions::baseline()
        };
        let mut machine = Machine::new(config.mem_bytes, ext);
        let platform = backend.build_platform(&mut machine, &config);
        let kernel = Kernel::boot(platform, &mut machine);
        Ok(Self {
            machine,
            kernel,
            backend,
        })
    }

    /// The application environment for running workloads.
    pub fn env(&mut self) -> Env<'_> {
        Env::new(&mut self.kernel, &mut self.machine)
    }

    /// Elapsed simulated nanoseconds.
    pub fn ns(&self) -> f64 {
        self.machine.cpu.clock.ns()
    }

    /// Enables (or disables) the cycle-attributed span profiler. Recording
    /// is zero-cost while disabled.
    pub fn set_profiling(&mut self, on: bool) {
        self.machine.cpu.profiler.set_enabled(on);
    }

    /// The span profiler (aggregates, events, drop counts).
    pub fn profiler(&self) -> &obs::SpanProfiler {
        &self.machine.cpu.profiler
    }

    /// Chrome-trace JSON of the recorded spans — load the string (saved to
    /// a file) in `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> String {
        let freq = self.machine.cpu.clock.model().freq_ghz;
        obs::export::chrome_trace(&self.machine.cpu.profiler, freq)
    }

    /// Unified metrics snapshot: hardware + VMM + CKI counters from the
    /// machine's registry merged with the guest kernel's OS-level registry.
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        self.machine
            .cpu
            .metrics
            .snapshot()
            .merge(&self.kernel.metrics.snapshot())
    }
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("backend", &self.backend.name())
            .field("ns", &self.ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::Sys;

    #[test]
    fn every_backend_boots_and_syscalls() {
        for backend in [
            Backend::RunC,
            Backend::HvmBm,
            Backend::HvmBm2M,
            Backend::HvmNested,
            Backend::Pvm,
            Backend::PvmNested,
            Backend::Cki,
            Backend::CkiNested,
            Backend::CkiWoOpt2,
            Backend::CkiWoOpt3,
            Backend::CkiGateMitigated,
        ] {
            let mut s = Stack::new(backend, StackConfig::default());
            let mut env = s.env();
            assert_eq!(env.sys(Sys::Getpid).unwrap(), 1, "{}", backend.name());
            let base = env.mmap(64 * 1024).unwrap();
            env.touch_range(base, 64 * 1024, true).unwrap();
        }
    }

    #[test]
    fn try_new_validates_configuration() {
        let cfg = |mem: u64, vm: u64| StackConfig {
            mem_bytes: mem,
            vm_bytes: vm,
            ..StackConfig::default()
        };
        assert!(matches!(
            Stack::try_new(Backend::Cki, cfg(1 << 30, 4 << 30)),
            Err(BootError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            Stack::try_new(Backend::HvmBm, cfg(2 << 30, 0)),
            Err(BootError::InvalidConfig(_))
        ));
        assert!(matches!(
            Stack::try_new(
                Backend::Cki,
                StackConfig {
                    vcpus: 0,
                    ..StackConfig::default()
                }
            ),
            Err(BootError::InvalidConfig(_))
        ));
        assert!(matches!(
            Stack::try_new(
                Backend::Cki,
                StackConfig {
                    pcid: Some(0),
                    ..StackConfig::default()
                }
            ),
            Err(BootError::InvalidConfig(_))
        ));
        // RunC ignores vm sizing entirely.
        assert!(Stack::try_new(Backend::RunC, cfg(1 << 30, 0)).is_ok());
        // And a valid config still boots.
        let mut s = Stack::try_new(Backend::Cki, cfg(1 << 30, 128 << 20)).unwrap();
        assert_eq!(s.env().sys(Sys::Getpid).unwrap(), 1);
    }

    #[test]
    fn syscall_latency_ordering_matches_table2() {
        let lat = |b: Backend| {
            let mut s = Stack::new(b, StackConfig::default());
            let mut env = s.env();
            env.sys(Sys::Getpid).unwrap(); // warm
            let t0 = env.now_ns();
            for _ in 0..100 {
                env.sys(Sys::Getpid).unwrap();
            }
            (env.now_ns() - t0) / 100.0
        };
        let runc = lat(Backend::RunC);
        let hvm = lat(Backend::HvmBm);
        let cki = lat(Backend::Cki);
        let pvm = lat(Backend::Pvm);
        // Table 2 / Figure 10b: RunC ≈ HVM ≈ CKI ≈ 90 ns, PVM ≈ 336 ns.
        assert!((runc - cki).abs() < 10.0, "runc {runc} vs cki {cki}");
        assert!((runc - hvm).abs() < 10.0);
        assert!(pvm > 3.0 * runc, "pvm {pvm} vs runc {runc}");
    }
}
