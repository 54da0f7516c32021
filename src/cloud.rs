//! Container-host orchestration: the machine-level view of a CKI cloud.
//!
//! [`CloudHost`] owns one machine and manages the lifecycle of many secure
//! containers on it — start, run, stop — recycling each container's
//! delegated physical segment and PCID on shutdown. This is the
//! operational layer a serverless deployment scripts against, so it
//! carries the two mechanisms such deployments live and die by:
//!
//! - **Snapshot-clone cold starts**: the first start of a configuration
//!   boots a *template* container and runs its init warmup once; every
//!   subsequent start of that configuration clones the template's
//!   post-boot state — segment page image, guest page tables (rebased to
//!   the clone's physical range), KSM page descriptors, and kernel
//!   process/VFS state — instead of booting from scratch. The clone path
//!   is cycle-charged for the work it actually does (page copies + PTE
//!   rebases + activation), which is an order of magnitude less than a
//!   full boot.
//! - **Segment-pool compaction**: the pool allocator is best-fit, and when
//!   mixed-size churn still fragments the pool (the paper's §4.3
//!   limitation), an explicit [`CloudHost::compact`] pass migrates live
//!   containers toward the pool base — charging cycles for every page
//!   copied and every translation rewritten — so that a start that failed
//!   with [`HostError::OutOfContiguousMemory`] can be retried instead of
//!   failing permanently. Compaction is never run implicitly: the §4.3
//!   failure mode stays observable unless the operator opts in.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cki_core::CkiPlatform;
use guest_os::costs::copy_cycles;
use guest_os::{Env, Kernel, Sys};
use netsim::{Coalesce, HostSwitch, Mac, NicStats, PortId, SwitchStats};
use obs::FlightRecorder;
use sim_hw::{HwExtensions, Machine, Mode, PcidAllocator, Tag};
use sim_mem::{Segment, SegmentAllocator, PAGE_SIZE};

use crate::slo::{Incident, SloProbe, SloWatchdog};
use crate::{Backend, BootError, StackConfig};

/// Identifier of a running container.
pub type ContainerId = u32;

/// Template-registry key: the configuration a snapshot was taken for
/// (`seg_bytes`, `vcpus`, `warmup_pages`).
type TemplateKey = (u64, u32, u64);

/// Whose segment this is during a compaction pass: a running container
/// (by id) or a parked template (by key).
type SegmentOwner = (Option<ContainerId>, TemplateKey);

/// Fixed host-side cycles to activate a snapshot clone: registering the
/// restored image with the host MMU bookkeeping and faulting in the
/// monitor mappings. Independent of container size (the size-dependent
/// work — page copies, PTE rebases — is charged per unit).
pub const CLONE_ACTIVATE_CYCLES: u64 = 20_000;

/// Fixed host-side cycles per migrated container during compaction
/// (shootdown + allocator bookkeeping), on top of the per-page and
/// per-PTE charges.
pub const MIGRATE_FIXED_CYCLES: u64 = 2_000;

/// Simulated cycles charged per flight-recorder event when observability
/// is enabled (a stamped store into a pre-allocated ring).
pub const FLIGHT_RECORD_CYCLES: u64 = 3;

/// Simulated cycles charged per SLO-watchdog evaluation (reading a
/// handful of sketch quantiles and gauges).
pub const WATCHDOG_TICK_CYCLES: u64 = 400;

/// Retired containers whose flight recorders are kept for post-mortem
/// dumps (an incident can implicate a container that already stopped).
const RETIRED_FLIGHTS: usize = 8;

/// Errors from host operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostError {
    /// No contiguous segment of the requested size is free (possibly due
    /// to fragmentation even when total free memory suffices — §4.3).
    /// [`CloudHost::compact`] and retry.
    OutOfContiguousMemory,
    /// Unknown container id.
    NoSuchContainer,
    /// PCID space exhausted (4096 contexts minus host/reserved).
    OutOfPcids,
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::OutOfContiguousMemory => {
                write!(f, "no contiguous segment available (fragmentation?)")
            }
            HostError::NoSuchContainer => write!(f, "no such container"),
            HostError::OutOfPcids => write!(f, "PCID space exhausted"),
        }
    }
}

impl std::error::Error for HostError {}

/// How to start a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartSpec {
    /// Delegated-segment size in bytes.
    pub seg_bytes: u64,
    /// vCPUs (per-vCPU areas and root copies).
    pub vcpus: u32,
    /// Heap pages the init runtime touches during warmup (after `execve`).
    /// Zero skips warmup entirely.
    pub warmup_pages: u64,
    /// Start by cloning the configuration's template snapshot instead of
    /// a full boot. The first such start boots the template on demand.
    pub clone_from_template: bool,
}

impl StartSpec {
    /// A single-vCPU container of `seg_bytes` with the default warmup.
    pub fn new(seg_bytes: u64) -> Self {
        Self {
            seg_bytes,
            vcpus: 1,
            warmup_pages: 16,
            clone_from_template: false,
        }
    }

    /// Requests a snapshot-clone start.
    pub fn cloned(mut self) -> Self {
        self.clone_from_template = true;
        self
    }

    /// Sets the warmup size.
    pub fn with_warmup_pages(mut self, pages: u64) -> Self {
        self.warmup_pages = pages;
        self
    }

    fn template_key(&self) -> TemplateKey {
        (self.seg_bytes, self.vcpus, self.warmup_pages)
    }
}

/// Cluster-networking configuration for [`CloudHost::enable_networking`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Virtqueue depth of each container NIC.
    pub queue: u16,
    /// Per-port FIFO depth of the vhost switch (the backpressure
    /// threshold — a full port pushes back instead of dropping).
    pub switch_depth: usize,
    /// NAPI-style mitigation knobs applied to every NIC.
    pub coalesce: Coalesce,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            queue: 32,
            switch_depth: 64,
            coalesce: Coalesce::default(),
        }
    }
}

/// Host-side dataplane state: the vhost switch every container NIC plugs
/// into, plus the global serving-latency sketch the SLO rule watches.
struct NetPlane {
    switch: HostSwitch,
    cfg: NetConfig,
    request_sketch: obs::SketchId,
}

/// Dense ids of one container's NIC metric series, plus the last-synced
/// stats snapshot (registry counters are monotonic, so the NIC's running
/// totals are published as deltas).
struct NetSeries {
    tx: obs::CounterId,
    rx: obs::CounterId,
    coalesced: obs::CounterId,
    requests: obs::SketchId,
    last: NicStats,
}

/// One running secure container.
pub struct Container {
    /// Id on this host.
    pub id: ContainerId,
    /// The guest kernel (platform inside).
    pub kernel: Kernel,
    /// The delegated segment (returned to the host on stop).
    pub seg: Segment,
    /// The container's TLB tag (recycled on stop).
    pub pcid: u16,
    /// Black box of this container's recent events (disabled unless the
    /// host enabled observability before the start).
    pub flight: FlightRecorder,
    /// Per-container invoke counter (registered when observability is on,
    /// so the series can name this container in incident queries).
    invokes: Option<obs::CounterId>,
    /// Switch port of the container's NIC (networking on only).
    port: Option<PortId>,
    /// Per-container NIC metric series (networking on only).
    net: Option<NetSeries>,
}

/// What one [`CloudHost::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Containers (and templates) migrated.
    pub moved: u64,
    /// Resident pages copied to new physical locations.
    pub pages_migrated: u64,
    /// Page-table entries rewritten to the new locations.
    pub pte_rewrites: u64,
    /// Total cycles charged for the pass.
    pub cycles: u64,
}

/// Dense registry ids for the control plane's counters/histograms.
struct CloudIds {
    starts: obs::CounterId,
    cold_boots: obs::CounterId,
    clones: obs::CounterId,
    clone_pages_copied: obs::CounterId,
    compactions: obs::CounterId,
    pages_migrated: obs::CounterId,
    frag_failures: obs::CounterId,
    stall_recoveries: obs::CounterId,
    boot_cycles: obs::HistId,
    clone_cycles: obs::HistId,
    boot_sketch: obs::SketchId,
    clone_sketch: obs::SketchId,
    invoke_sketch: obs::SketchId,
    compact_sketch: obs::SketchId,
    stall_sketch: obs::SketchId,
}

/// A host machine running CKI secure containers.
pub struct CloudHost {
    /// The machine.
    pub machine: Machine,
    segments: SegmentAllocator,
    containers: HashMap<ContainerId, Container>,
    /// Booted template snapshots, keyed by configuration.
    templates: BTreeMap<TemplateKey, Container>,
    next_id: ContainerId,
    pcids: PcidAllocator,
    ids: CloudIds,
    /// Containers started over the host's lifetime.
    pub started: u64,
    /// Containers stopped.
    pub stopped: u64,
    /// Flight-ring capacity for new containers (0 = observability off).
    flight_capacity: usize,
    /// The SLO watchdog, when observability is on.
    watchdog: Option<SloWatchdog>,
    /// Worst observation per sketch in the current watchdog window, with
    /// the container it came from — how incidents name an offender.
    worst: HashMap<&'static str, (u64, ContainerId)>,
    /// Flight recorders of recently stopped containers (bounded).
    retired_flights: VecDeque<(ContainerId, FlightRecorder)>,
    /// Cycle stamp of the first start failure of the current
    /// fragmentation-stall episode (cleared by the next successful start).
    stall_begin: Option<u64>,
    /// Flight events recorded over the host's lifetime (the obs-overhead
    /// accounting benches report against total cycles).
    flight_records: u64,
    /// The cluster dataplane, when networking is on.
    net: Option<NetPlane>,
}

impl CloudHost {
    /// Boots a host with `mem_bytes` of physical memory, reserving
    /// `host_reserve_bytes` for the host kernel and KSM structures.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CloudHost::try_new`].
    pub fn new(mem_bytes: u64, host_reserve_bytes: u64) -> Self {
        Self::try_new(mem_bytes, host_reserve_bytes)
            .unwrap_or_else(|e| panic!("booting cloud host: {e}"))
    }

    /// Boots a host, validating the configuration first.
    pub fn try_new(mem_bytes: u64, host_reserve_bytes: u64) -> Result<Self, BootError> {
        const MACHINE_RESERVE: u64 = 16 * 1024 * 1024;
        if host_reserve_bytes >= mem_bytes {
            return Err(BootError::InvalidConfig(
                "host reserve must be smaller than machine memory",
            ));
        }
        let pool_frames = (mem_bytes - host_reserve_bytes) / PAGE_SIZE / 2;
        if mem_bytes <= MACHINE_RESERVE || pool_frames == 0 {
            return Err(BootError::InsufficientMemory {
                required: MACHINE_RESERVE + 2 * PAGE_SIZE,
                available: mem_bytes,
            });
        }
        let mut machine = Machine::new(mem_bytes, HwExtensions::cki());
        // Carve the delegatable pool; what remains in the machine allocator
        // serves host-side allocations (KSM pages, root copies, ...).
        let pool = machine
            .frames
            .alloc_contiguous(pool_frames)
            .expect("delegatable pool");
        let m = &mut machine.cpu.metrics;
        let ids = CloudIds {
            starts: m.counter("cloud.starts"),
            cold_boots: m.counter("cloud.cold_boots"),
            clones: m.counter("cloud.clones"),
            clone_pages_copied: m.counter("cloud.clone_pages_copied"),
            compactions: m.counter("cloud.compactions"),
            pages_migrated: m.counter("cloud.pages_migrated"),
            frag_failures: m.counter("cloud.frag_failures"),
            stall_recoveries: m.counter("cloud.stall_recoveries"),
            boot_cycles: m.histogram_labeled("cloud.start_cycles", Some("boot")),
            clone_cycles: m.histogram_labeled("cloud.start_cycles", Some("clone")),
            boot_sketch: m.sketch("cloud.boot_cycles"),
            clone_sketch: m.sketch("cloud.clone_cycles"),
            invoke_sketch: m.sketch("cloud.invoke_cycles"),
            compact_sketch: m.sketch("cloud.compact_cycles"),
            stall_sketch: m.sketch("cloud.stall_recovery_cycles"),
        };
        Ok(Self {
            machine,
            segments: SegmentAllocator::new(pool, pool + pool_frames * PAGE_SIZE),
            containers: HashMap::new(),
            templates: BTreeMap::new(),
            next_id: 1,
            pcids: PcidAllocator::new(3),
            ids,
            started: 0,
            stopped: 0,
            flight_capacity: 0,
            watchdog: None,
            worst: HashMap::new(),
            retired_flights: VecDeque::new(),
            stall_begin: None,
            flight_records: 0,
            net: None,
        })
    }

    /// Turns the cluster dataplane on: every container started from now on
    /// gets a CKI virtqueue NIC (rings and buffers in its own delegated
    /// segment, shared-memory doorbells) attached to the host's vhost
    /// switch, and completed request round trips reported through
    /// [`CloudHost::record_request`] feed the `net.request_cycles` sketch
    /// the serving SLO rule watches.
    pub fn enable_networking(&mut self, cfg: NetConfig) {
        if self.net.is_some() {
            return;
        }
        let request_sketch = self.machine.cpu.metrics.sketch("net.request_cycles");
        self.net = Some(NetPlane {
            switch: HostSwitch::new(cfg.switch_depth),
            cfg,
            request_sketch,
        });
    }

    /// Whether the cluster dataplane is on.
    pub fn networking_enabled(&self) -> bool {
        self.net.is_some()
    }

    /// The vhost switch's counters (`None` while networking is off).
    pub fn switch_stats(&self) -> Option<&SwitchStats> {
        self.net.as_ref().map(|n| &n.switch.stats)
    }

    /// The MAC address of container `id`'s NIC (locally administered,
    /// derived from the id so peers can address each other by id).
    pub fn container_mac(id: ContainerId) -> Mac {
        0x0200_0000_0000 | id as u64
    }

    /// Turns production observability on: every container started from
    /// now on carries a flight recorder of `flight_capacity` events, and
    /// `watchdog` is evaluated on its deterministic tick at operation
    /// boundaries. Flight records and watchdog evaluations are charged to
    /// the simulated clock ([`FLIGHT_RECORD_CYCLES`],
    /// [`WATCHDOG_TICK_CYCLES`]), so enabling this costs visible — and
    /// bounded — simulated time.
    pub fn enable_observability(&mut self, flight_capacity: usize, watchdog: SloWatchdog) {
        self.flight_capacity = flight_capacity;
        self.watchdog = Some(watchdog);
    }

    /// Whether flight recording is on.
    pub fn observability_enabled(&self) -> bool {
        self.flight_capacity > 0
    }

    /// The watchdog, if observability is on.
    pub fn watchdog(&self) -> Option<&SloWatchdog> {
        self.watchdog.as_ref()
    }

    /// Incidents the watchdog has emitted so far (empty if off).
    pub fn incidents(&self) -> &[Incident] {
        self.watchdog.as_ref().map_or(&[], |w| w.incidents())
    }

    /// Flight events recorded over the host's lifetime.
    pub fn flight_records(&self) -> u64 {
        self.flight_records
    }

    /// The simulated cycles observability has charged so far — what the
    /// <5% overhead budget in `cloud_churn` is measured against.
    pub fn obs_overhead_cycles(&self) -> u64 {
        let ticks = self.watchdog.as_ref().map_or(0, |w| w.ticks());
        self.flight_records * FLIGHT_RECORD_CYCLES + ticks * WATCHDOG_TICK_CYCLES
    }

    /// Starts a secure container with a `seg_bytes` delegated segment
    /// (full cold boot; see [`CloudHost::start`] for snapshot clones).
    pub fn start_container(&mut self, seg_bytes: u64) -> Result<ContainerId, HostError> {
        self.start(StartSpec::new(seg_bytes))
    }

    /// Starts a container per `spec` — cold boot or snapshot clone.
    pub fn start(&mut self, spec: StartSpec) -> Result<ContainerId, HostError> {
        let result = if spec.clone_from_template {
            self.ensure_template(&spec)
                .and_then(|()| self.start_clone(&spec))
        } else {
            self.start_cold(&spec, true)
        };
        match result {
            Ok(id) => {
                self.machine.cpu.metrics.inc(self.ids.starts);
                self.started += 1;
                self.note_stall_recovered(id);
                self.tick_watchdog();
                Ok(id)
            }
            Err(e) => {
                // The watchdog still gets its tick: capacity gauges
                // (PCIDs, pool fragmentation) are exactly what a failed
                // start implicates.
                self.tick_watchdog();
                Err(e)
            }
        }
    }

    /// Creates the flight recorder for a new container.
    fn new_flight(&self) -> FlightRecorder {
        if self.flight_capacity > 0 {
            FlightRecorder::new(self.flight_capacity)
        } else {
            FlightRecorder::disabled()
        }
    }

    /// Records one cycle-stamped event on a container's flight ring,
    /// charging [`FLIGHT_RECORD_CYCLES`]. No-op while observability is off.
    fn flight_note(&mut self, id: ContainerId, name: &'static str, value: u64) {
        if self.flight_capacity == 0 {
            return;
        }
        let now = self.machine.cpu.clock.cycles();
        if let Some(c) = self.containers.get_mut(&id) {
            c.flight.record(now, name, value);
            self.flight_records += 1;
            self.machine
                .cpu
                .clock
                .charge(Tag::Handler, FLIGHT_RECORD_CYCLES);
        }
    }

    /// Tracks the worst observation per sketch in the current watchdog
    /// window, with the container responsible — incident attribution.
    fn note_worst(&mut self, sketch: &'static str, value: u64, id: ContainerId) {
        if self.watchdog.is_none() {
            return;
        }
        let e = self.worst.entry(sketch).or_insert((value, id));
        if value >= e.0 {
            *e = (value, id);
        }
    }

    /// Closes a fragmentation-stall episode: the first successful start
    /// after a [`HostError::OutOfContiguousMemory`] failure is the
    /// recovery point, and its elapsed cycles are the stall's cost.
    fn note_stall_recovered(&mut self, id: ContainerId) {
        let Some(t0) = self.stall_begin.take() else {
            return;
        };
        let recovery = self.machine.cpu.clock.cycles() - t0;
        self.machine.cpu.metrics.inc(self.ids.stall_recoveries);
        self.machine
            .cpu
            .metrics
            .record(self.ids.stall_sketch, recovery);
        self.note_worst("cloud.stall_recovery_cycles", recovery, id);
        self.flight_note(id, "stall.recovered", recovery);
    }

    /// Runs the watchdog if its tick is due, then resets the per-window
    /// worst tracking and charges the evaluation's cycles.
    fn tick_watchdog(&mut self) {
        let Some(mut wd) = self.watchdog.take() else {
            return;
        };
        let now = self.machine.cpu.clock.cycles();
        if wd.due(now) && wd.tick(now, &*self) {
            self.worst.clear();
            self.machine
                .cpu
                .clock
                .charge(Tag::Handler, WATCHDOG_TICK_CYCLES);
        }
        self.watchdog = Some(wd);
    }

    /// Boots the template snapshot for `spec`'s configuration if it does
    /// not exist yet. Idempotent; called implicitly by clone starts.
    pub fn ensure_template(&mut self, spec: &StartSpec) -> Result<(), HostError> {
        let key = spec.template_key();
        if self.templates.contains_key(&key) {
            return Ok(());
        }
        // Boot it as a regular container (so warmup can run inside it),
        // then retire it into the template registry. Templates never
        // serve, so they get no NIC — clones attach their own.
        let id = self.start_cold(spec, false)?;
        let c = self.containers.remove(&id).expect("template container");
        self.templates.insert(key, c);
        Ok(())
    }

    /// Drops all template snapshots, returning their segments and PCIDs
    /// to the pool (e.g. before a final compaction).
    pub fn retire_templates(&mut self) {
        // Ascending key order: the PCID and frame free lists are LIFO, so
        // the release order decides later allocations.
        for mut c in std::mem::take(&mut self.templates).into_values() {
            self.machine.cpu.tlb.flush_pcid(c.pcid);
            if let Some(p) = c.kernel.platform.as_any_mut().downcast_mut::<CkiPlatform>() {
                p.teardown(&mut self.machine);
            }
            self.pcids.release(c.pcid);
            self.segments.free(c.seg);
        }
    }

    /// Allocates the segment + PCID pair for a start, undoing the segment
    /// on PCID exhaustion.
    fn alloc_resources(&mut self, seg_bytes: u64) -> Result<(Segment, u16), HostError> {
        let seg = self.segments.alloc(seg_bytes).ok_or_else(|| {
            self.machine.cpu.metrics.inc(self.ids.frag_failures);
            // Open a stall episode: the next successful start closes it
            // and reports the recovery time to the SLO watchdog.
            if self.stall_begin.is_none() {
                self.stall_begin = Some(self.machine.cpu.clock.cycles());
            }
            HostError::OutOfContiguousMemory
        })?;
        let Some(pcid) = self.pcids.alloc() else {
            self.segments.free(seg);
            return Err(HostError::OutOfPcids);
        };
        // Recycled tag: flush any stale translations of the previous owner
        // before the new container can populate the TLB under it.
        self.machine.cpu.tlb.flush_pcid(pcid);
        Ok((seg, pcid))
    }

    /// Full cold boot: platform construction (charged: the host maps the
    /// whole delegated segment into the container's physmap), kernel boot,
    /// and init warmup. `with_nic` is false only for template boots.
    fn start_cold(&mut self, spec: &StartSpec, with_nic: bool) -> Result<ContainerId, HostError> {
        let (seg, pcid) = self.alloc_resources(spec.seg_bytes)?;
        let sp = self.machine.cpu.span_enter("cloud.boot");
        let mark = self.machine.cpu.clock.mark();

        let cfg = self.stack_config(spec, seg, pcid);
        let platform = Backend::Cki.build_platform(&mut self.machine, &cfg);
        // Charge the physmap construction the host just performed: one PTE
        // per segment page plus the backing table frames.
        let model = self.machine.cpu.clock.model();
        let pages = seg.len() / PAGE_SIZE;
        let physmap =
            pages * model.pte_write + (pages / 512 + 3) * (model.frame_alloc + model.zero_page);
        self.machine.cpu.clock.charge(Tag::Mmu, physmap);
        let mut kernel = Kernel::boot(platform, &mut self.machine);

        let id = self.next_id;
        self.next_id += 1;
        let (port, net) = if with_nic {
            self.attach_nic(id, &mut kernel)
        } else {
            (None, None)
        };
        let flight = self.new_flight();
        let invokes = self.register_container_series(id);
        self.containers.insert(
            id,
            Container {
                id,
                kernel,
                seg,
                pcid,
                flight,
                invokes,
                port,
                net,
            },
        );
        self.warmup(id, spec.warmup_pages)?;

        let cycles = self.machine.cpu.clock.since(mark);
        self.machine.cpu.span_exit(sp);
        self.machine.cpu.metrics.inc(self.ids.cold_boots);
        self.machine
            .cpu
            .metrics
            .observe(self.ids.boot_cycles, cycles);
        self.machine
            .cpu
            .metrics
            .record(self.ids.boot_sketch, cycles);
        self.label_start_cycles(id, "boot", cycles);
        self.note_worst("cloud.boot_cycles", cycles, id);
        self.flight_note(id, "start.boot", cycles);
        Ok(id)
    }

    /// Registers the per-container metric series for a new container
    /// (observability on only): the invoke counter whose id is cached on
    /// the [`Container`], so hot-path bumps stay an array index.
    fn register_container_series(&mut self, id: ContainerId) -> Option<obs::CounterId> {
        if self.flight_capacity == 0 {
            return None;
        }
        Some(
            self.machine
                .cpu
                .metrics
                .counter_owned("cloud.invokes_per_container", format!("c{id}")),
        )
    }

    /// Gives a new container its NIC: ring and buffer frames allocated
    /// from the container's own delegated segment, a CKI shared-memory
    /// doorbell (zero-exit — the vhost worker reads the avail index
    /// through its KSM-owned mapping), and a port on the vhost switch.
    /// Also registers the per-container NIC series (owned-label API) so
    /// incident flight dumps and metric snapshots can name the
    /// container's net state. No-op while networking is off.
    fn attach_nic(
        &mut self,
        id: ContainerId,
        kernel: &mut Kernel,
    ) -> (Option<PortId>, Option<NetSeries>) {
        let Some(net) = self.net.as_mut() else {
            return (None, None);
        };
        let mac = Self::container_mac(id);
        kernel
            .attach_netif(&mut self.machine, net.cfg.queue, mac, net.cfg.coalesce)
            .expect("NIC ring frames from the delegated segment");
        let port = net.switch.attach(mac);
        let m = &mut self.machine.cpu.metrics;
        let series = NetSeries {
            tx: m.counter_owned("net.tx_frames", format!("c{id}")),
            rx: m.counter_owned("net.rx_frames", format!("c{id}")),
            coalesced: m.counter_owned("net.coalesced_kicks", format!("c{id}")),
            requests: m.sketch_owned("net.request_cycles", format!("c{id}")),
            last: NicStats::default(),
        };
        (Some(port), Some(series))
    }

    /// One vhost service pass over every networked container, in container
    /// id order: phase A drains each NIC's TX ring into the switch
    /// (learning source MACs, backpressuring on full port FIFOs instead of
    /// dropping), phase B delivers each port's queued frames into its
    /// owner's RX ring and flushes the coalesced interrupt. Returns the
    /// number of frames moved; the per-container NIC counters are synced
    /// afterwards so a snapshot taken between passes is current.
    pub fn net_service(&mut self) -> u64 {
        let Some(net) = self.net.as_mut() else {
            return 0;
        };
        let mut ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        ids.sort_unstable();
        let mut moved = 0u64;
        for &id in &ids {
            let c = self.containers.get_mut(&id).expect("listed container");
            let (Some(port), Some(nic)) = (c.port, c.kernel.netif_mut()) else {
                continue;
            };
            moved += netsim::drain_tx(
                &mut self.machine.mem,
                &mut self.machine.cpu.clock,
                nic,
                &mut net.switch,
                port,
            ) as u64;
        }
        for &id in &ids {
            let c = self.containers.get_mut(&id).expect("listed container");
            let (Some(port), Some(nic)) = (c.port, c.kernel.netif_mut()) else {
                continue;
            };
            moved += netsim::deliver_rx(
                &mut self.machine.mem,
                &mut self.machine.cpu.clock,
                nic,
                &mut net.switch,
                port,
            ) as u64;
        }
        self.sync_net_counters();
        moved
    }

    /// Publishes each networked container's NIC statistics into its
    /// per-container counters as deltas since the last sync.
    fn sync_net_counters(&mut self) {
        let metrics = &mut self.machine.cpu.metrics;
        for c in self.containers.values_mut() {
            let Some(series) = c.net.as_mut() else {
                continue;
            };
            let Some(nic) = c.kernel.netif() else {
                continue;
            };
            let s = nic.stats.clone();
            metrics.add(series.tx, s.tx_frames - series.last.tx_frames);
            metrics.add(series.rx, s.rx_frames - series.last.rx_frames);
            metrics.add(
                series.coalesced,
                s.coalesced_kicks - series.last.coalesced_kicks,
            );
            series.last = s;
        }
    }

    /// Records one completed request/response round trip served by
    /// container `id`: the global `net.request_cycles` sketch (what the
    /// serving SLO rule watches), the container's own request sketch,
    /// worst-offender tracking for incident attribution, and the
    /// container's flight ring. Ticks the watchdog.
    pub fn record_request(&mut self, id: ContainerId, cycles: u64) {
        let Some(net) = self.net.as_ref() else {
            return;
        };
        let global = net.request_sketch;
        self.machine.cpu.metrics.record(global, cycles);
        if let Some(sk) = self
            .containers
            .get(&id)
            .and_then(|c| c.net.as_ref())
            .map(|n| n.requests)
        {
            self.machine.cpu.metrics.record(sk, cycles);
        }
        self.note_worst("net.request_cycles", cycles, id);
        self.flight_note(id, "net.request", cycles);
        self.tick_watchdog();
    }

    /// Attributes a start's cycle cost to its container as an owned-label
    /// series (`cloud.start_cycles_per_container{c7:boot}`) so incident
    /// queries can rank containers by the cost they induced.
    fn label_start_cycles(&mut self, id: ContainerId, how: &str, cycles: u64) {
        if self.flight_capacity == 0 {
            return;
        }
        let ctr = self
            .machine
            .cpu
            .metrics
            .counter_owned("cloud.start_cycles_per_container", format!("c{id}:{how}"));
        self.machine.cpu.metrics.add(ctr, cycles);
    }

    /// Snapshot clone: construct the container's monitor state, restore
    /// the template's segment image and translations into the new range,
    /// and clone the guest kernel's functional state.
    fn start_clone(&mut self, spec: &StartSpec) -> Result<ContainerId, HostError> {
        let key = spec.template_key();
        let (seg, pcid) = self.alloc_resources(spec.seg_bytes)?;
        let sp = self.machine.cpu.span_enter("cloud.clone");
        let mark = self.machine.cpu.clock.mark();

        let cfg = self.stack_config(spec, seg, pcid);
        let mut platform = Backend::Cki.build_platform(&mut self.machine, &cfg);
        let cki = platform
            .as_any_mut()
            .downcast_mut::<CkiPlatform>()
            .expect("CKI platform");
        let tmpl = self.templates.get(&key).expect("template ensured");
        let tmpl_cki = tmpl
            .kernel
            .platform
            .as_any()
            .downcast_ref::<CkiPlatform>()
            .expect("CKI template platform");
        let report = cki.adopt_from(&mut self.machine, tmpl_cki);
        let old_start = tmpl.seg.start;
        let new_start = seg.start;
        let mut kernel = tmpl
            .kernel
            .clone_with_platform(platform, move |pa| new_start + (pa - old_start));

        // The clone's cost model: fixed activation + the copies and
        // rebases actually performed. The template's own physmap/boot cost
        // was paid once, when the template booted.
        let pte_write = self.machine.cpu.clock.model().pte_write;
        let cycles = CLONE_ACTIVATE_CYCLES
            + report.pages_copied * copy_cycles(PAGE_SIZE)
            + report.pte_rewrites * pte_write;
        self.machine.cpu.clock.charge(Tag::Mmu, cycles);

        let id = self.next_id;
        self.next_id += 1;
        // The template has no NIC (its rings would be snapshotted at stale
        // physical addresses); each clone attaches a fresh one here, after
        // the frame-allocator cursor was adopted from the template.
        let (port, net) = self.attach_nic(id, &mut kernel);
        let flight = self.new_flight();
        let invokes = self.register_container_series(id);
        self.containers.insert(
            id,
            Container {
                id,
                kernel,
                seg,
                pcid,
                flight,
                invokes,
                port,
                net,
            },
        );

        let cycles = self.machine.cpu.clock.since(mark);
        self.machine.cpu.span_exit(sp);
        self.machine.cpu.metrics.inc(self.ids.clones);
        self.machine
            .cpu
            .metrics
            .add(self.ids.clone_pages_copied, report.pages_copied);
        self.machine
            .cpu
            .metrics
            .observe(self.ids.clone_cycles, cycles);
        self.machine
            .cpu
            .metrics
            .record(self.ids.clone_sketch, cycles);
        self.label_start_cycles(id, "clone", cycles);
        self.note_worst("cloud.clone_cycles", cycles, id);
        self.flight_note(id, "start.clone", cycles);
        Ok(id)
    }

    fn stack_config(&self, spec: &StartSpec, seg: Segment, pcid: u16) -> StackConfig {
        StackConfig {
            mem_bytes: self.machine.mem.size(),
            vm_bytes: spec.seg_bytes,
            vcpus: spec.vcpus,
            pcid: Some(pcid),
            seg: Some(seg),
        }
    }

    /// Init warmup: exec the runtime and touch its working set, so both
    /// cold boots and the template snapshot reach the same "ready to
    /// serve" state.
    fn warmup(&mut self, id: ContainerId, pages: u64) -> Result<(), HostError> {
        if pages == 0 {
            return Ok(());
        }
        self.enter_inner(id, |env| {
            env.sys(Sys::Execve).expect("warmup execve");
            let len = pages * PAGE_SIZE;
            let base = env.mmap(len).expect("warmup mmap");
            env.touch_range(base, len, true).expect("warmup touch");
        })
    }

    /// Stops a container, reclaiming its segment, PCID, and every host
    /// frame its monitor state occupied.
    pub fn stop_container(&mut self, id: ContainerId) -> Result<(), HostError> {
        if self.containers.contains_key(&id) {
            // Final sync so the container's NIC totals survive its NIC.
            self.sync_net_counters();
        }
        let mut c = self
            .containers
            .remove(&id)
            .ok_or(HostError::NoSuchContainer)?;
        // Unplug the dataplane first: the NIC's rings live in the segment
        // being reclaimed, and the switch must stop forwarding to the port
        // (queued frames for it are counted as dropped_dead_port).
        c.kernel.take_netif();
        if let (Some(port), Some(net)) = (c.port, self.net.as_mut()) {
            net.switch.detach(port);
        }
        self.machine.cpu.tlb.flush_pcid(c.pcid);
        if let Some(p) = c.kernel.platform.as_any_mut().downcast_mut::<CkiPlatform>() {
            p.teardown(&mut self.machine);
        }
        self.pcids.release(c.pcid);
        self.segments.free(c.seg);
        self.stopped += 1;
        // Keep the black box of recently stopped containers: a breach can
        // implicate a container that is already gone.
        if c.flight.enabled() {
            self.retired_flights.push_back((id, c.flight));
            while self.retired_flights.len() > RETIRED_FLIGHTS {
                self.retired_flights.pop_front();
            }
        }
        self.tick_watchdog();
        Ok(())
    }

    /// Migrates live containers (and templates) toward the pool base so
    /// all free memory forms one contiguous extent.
    ///
    /// Explicitly invoked — typically after a start failed with
    /// [`HostError::OutOfContiguousMemory`] while [`CloudHost::free_bytes`]
    /// showed enough total memory. Every resident page copy and PTE
    /// rewrite is cycle-charged; the report says how much work was done.
    pub fn compact(&mut self) -> CompactionReport {
        let sp = self.machine.cpu.span_enter("cloud.compact");
        let mark = self.machine.cpu.clock.mark();
        // Owners in a stable order, matched to the allocator's plan by
        // old segment start address.
        let mut owners: Vec<SegmentOwner> = Vec::new();
        let mut segs: Vec<Segment> = Vec::new();
        let mut migrated: Vec<(ContainerId, u64)> = Vec::new();
        for (&id, c) in &self.containers {
            owners.push((Some(id), (0, 0, 0)));
            segs.push(c.seg);
        }
        for (&key, t) in &self.templates {
            owners.push((None, key));
            segs.push(t.seg);
        }
        let by_start: HashMap<u64, SegmentOwner> = segs
            .iter()
            .zip(&owners)
            .map(|(s, o)| (s.start, *o))
            .collect();
        let moves = self.segments.compact(&mut segs);

        let mut report = CompactionReport::default();
        let pte_write = self.machine.cpu.clock.model().pte_write;
        for (old, new) in moves {
            let owner = by_start.get(&old.start).expect("planned segment");
            // Migrate the page image first (the ascending copy handles the
            // overlapping slide-left case), then rebase translations.
            let resident = self.machine.mem.copy_range(old.start, new.start, old.len());
            let c = match owner {
                (Some(id), _) => self.containers.get_mut(id).expect("live container"),
                (None, key) => self.templates.get_mut(key).expect("live template"),
            };
            let cki = c
                .kernel
                .platform
                .as_any_mut()
                .downcast_mut::<CkiPlatform>()
                .expect("CKI platform");
            let rewrites = cki.ksm.rebase(&mut self.machine, new);
            cki.rebase_guest_frames(new.start);
            let (old_start, new_start) = (old.start, new.start);
            c.kernel
                .rebase_frames(move |pa| new_start + (pa - old_start));
            // The NIC's rings, posted descriptors, and buffer slots moved
            // with the segment.
            c.kernel.rebase_netif(
                &mut self.machine.mem,
                &mut self.machine.cpu.clock,
                new_start as i64 - old_start as i64,
            );
            c.seg = new;

            let cycles =
                MIGRATE_FIXED_CYCLES + resident * copy_cycles(PAGE_SIZE) + rewrites * pte_write;
            self.machine.cpu.clock.charge(Tag::Mmu, cycles);
            report.moved += 1;
            report.pages_migrated += resident;
            report.pte_rewrites += rewrites;
            if let (Some(id), _) = owner {
                migrated.push((*id, resident));
            }
        }
        report.cycles = self.machine.cpu.clock.since(mark);
        self.machine.cpu.span_exit(sp);
        self.machine.cpu.metrics.inc(self.ids.compactions);
        self.machine
            .cpu
            .metrics
            .add(self.ids.pages_migrated, report.pages_migrated);
        self.machine
            .cpu
            .metrics
            .record(self.ids.compact_sketch, report.cycles);
        if self.flight_capacity > 0 {
            for (id, resident) in migrated {
                let ctr = self
                    .machine
                    .cpu
                    .metrics
                    .counter_owned("cloud.pages_migrated_per_container", format!("c{id}"));
                self.machine.cpu.metrics.add(ctr, resident);
                self.flight_note(id, "compact.moved", resident);
            }
        }
        self.tick_watchdog();
        report
    }

    /// Runs `f` inside container `id` (switching the CPU to it first),
    /// recording the invocation's cycle cost into the invoke sketch, the
    /// container's flight ring, and its per-container invoke series.
    pub fn enter<R>(
        &mut self,
        id: ContainerId,
        f: impl FnOnce(&mut Env<'_>) -> R,
    ) -> Result<R, HostError> {
        let mark = self.machine.cpu.clock.mark();
        let r = self.enter_inner(id, f)?;
        let cycles = self.machine.cpu.clock.since(mark);
        self.machine
            .cpu
            .metrics
            .record(self.ids.invoke_sketch, cycles);
        if let Some(ctr) = self.containers.get(&id).and_then(|c| c.invokes) {
            self.machine.cpu.metrics.inc(ctr);
        }
        self.note_worst("cloud.invoke_cycles", cycles, id);
        self.flight_note(id, "invoke", cycles);
        self.tick_watchdog();
        Ok(r)
    }

    /// The raw container switch + run, with no invoke accounting — the
    /// warmup path, so template warmups don't pollute the invoke sketch
    /// the SLO rules are defined against.
    fn enter_inner<R>(
        &mut self,
        id: ContainerId,
        f: impl FnOnce(&mut Env<'_>) -> R,
    ) -> Result<R, HostError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(HostError::NoSuchContainer)?;
        let root = c.kernel.proc(c.kernel.current).aspace.root;
        self.machine.cpu.mode = Mode::Kernel;
        c.kernel
            .platform
            .load_root(&mut self.machine, root)
            .map_err(|_| HostError::NoSuchContainer)?;
        self.machine.cpu.mode = Mode::User;
        let mut env = Env::new(&mut c.kernel, &mut self.machine);
        Ok(f(&mut env))
    }

    /// Flight dump for a live, templated, or recently stopped container.
    pub fn flight_dump(&self, id: ContainerId) -> Option<String> {
        let who = format!("c{id}");
        if let Some(c) = self.containers.get(&id) {
            return Some(c.flight.dump_jsonl(&who));
        }
        self.retired_flights
            .iter()
            .rev()
            .find(|(rid, _)| *rid == id)
            .map(|(_, f)| f.dump_jsonl(&who))
    }

    /// Number of running containers (templates not included).
    pub fn running(&self) -> usize {
        self.containers.len()
    }

    /// Borrows a running container (e.g. to inspect its kernel state).
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Free delegatable bytes (across all extents).
    pub fn free_bytes(&self) -> u64 {
        self.segments.free_bytes()
    }

    /// Largest startable container size right now.
    pub fn largest_startable(&self) -> u64 {
        self.segments.largest_extent()
    }

    /// External fragmentation of the delegatable pool (§4.3's limitation).
    pub fn fragmentation(&self) -> f64 {
        self.segments.fragmentation()
    }

    /// PCIDs currently assigned (containers + templates).
    pub fn pcids_in_use(&self) -> usize {
        self.pcids.in_use()
    }
}

impl SloProbe for CloudHost {
    fn quantile(&self, sketch: &'static str, q: f64) -> Option<u64> {
        let m = &self.machine.cpu.metrics;
        let id = m.sketch_id_of(sketch, None)?;
        Some(m.sketch_quantile(id, q))
    }

    fn samples(&self, sketch: &'static str) -> u64 {
        let m = &self.machine.cpu.metrics;
        m.sketch_id_of(sketch, None)
            .map_or(0, |id| m.sketch_count(id))
    }

    fn gauge(&self, gauge: &'static str) -> Option<u64> {
        match gauge {
            "cloud.pcid_free" => Some(self.pcids.available() as u64),
            "cloud.free_bytes" => Some(self.free_bytes()),
            "cloud.largest_startable" => Some(self.largest_startable()),
            "cloud.running" => Some(self.running() as u64),
            _ => None,
        }
    }

    fn worst(&self, sketch: &'static str) -> Option<(u64, u32)> {
        self.worst.get(sketch).copied()
    }

    fn flight_dump(&self, container: u32) -> Option<String> {
        CloudHost::flight_dump(self, container)
    }
}

impl std::fmt::Debug for CloudHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudHost")
            .field("running", &self.containers.len())
            .field("templates", &self.templates.len())
            .field("free_bytes", &self.free_bytes())
            .field("fragmentation", &self.fragmentation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::Sys;

    const MIB: u64 = 1024 * 1024;

    fn host() -> CloudHost {
        CloudHost::new(4096 * MIB, 512 * MIB)
    }

    #[test]
    fn start_run_stop_cycle() {
        let mut h = host();
        let id = h.start_container(64 * MIB).unwrap();
        assert_eq!(h.running(), 1);
        let pid = h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
        assert_eq!(pid, 1);
        let free_before = h.free_bytes();
        h.stop_container(id).unwrap();
        assert_eq!(h.running(), 0);
        assert_eq!(h.free_bytes(), free_before + 64 * MIB);
        assert_eq!(h.stop_container(id), Err(HostError::NoSuchContainer));
    }

    #[test]
    fn many_containers_and_isolation() {
        let mut h = host();
        let ids: Vec<_> = (0..6)
            .map(|_| h.start_container(64 * MIB).unwrap())
            .collect();
        // Each container does private work.
        for (i, &id) in ids.iter().enumerate() {
            h.enter(id, |env| {
                let base = env.mmap(64 * 1024).unwrap();
                env.touch_range(base, 64 * 1024, true).unwrap();
                assert!(env.kernel.stats().pgfaults >= 16, "container {i}");
            })
            .unwrap();
        }
        // Stop half; the rest keep working.
        for &id in ids.iter().step_by(2) {
            h.stop_container(id).unwrap();
        }
        assert_eq!(h.running(), 3);
        for &id in ids.iter().skip(1).step_by(2) {
            let pid = h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
            assert_eq!(pid, 1);
        }
    }

    #[test]
    fn fragmentation_blocks_large_container() {
        let mut h = CloudHost::new(4096 * MIB, 512 * MIB);
        let pool = h.free_bytes();
        // Fill the pool with small containers...
        let small = 128 * MIB;
        let mut ids = Vec::new();
        while h.free_bytes() >= small {
            match h.start_container(small) {
                Ok(id) => ids.push(id),
                Err(_) => break,
            }
        }
        assert!(ids.len() >= 8, "filled with {} containers", ids.len());
        // ...stop every other one: plenty of free memory, all fragmented.
        for &id in ids.iter().step_by(2) {
            h.stop_container(id).unwrap();
        }
        let free = h.free_bytes();
        assert!(free >= pool / 3);
        assert!(
            h.fragmentation() > 0.4,
            "fragmentation {}",
            h.fragmentation()
        );
        // A container needing a contiguous chunk larger than any extent
        // cannot start despite sufficient total free memory — §4.3.
        assert!(free > 256 * MIB);
        assert_eq!(
            h.start_container(h.largest_startable() + small),
            Err(HostError::OutOfContiguousMemory)
        );
        // But a small one still can.
        assert!(h.start_container(small).is_ok());
    }

    #[test]
    fn compaction_recovers_fragmented_pool() {
        let mut h = CloudHost::new(4096 * MIB, 512 * MIB);
        let small = 128 * MIB;
        let mut ids = Vec::new();
        while h.free_bytes() >= small {
            match h.start_container(small) {
                Ok(id) => ids.push(id),
                Err(_) => break,
            }
        }
        for &id in ids.iter().step_by(2) {
            h.stop_container(id).unwrap();
        }
        let big = h.largest_startable() + small;
        assert_eq!(
            h.start_container(big),
            Err(HostError::OutOfContiguousMemory)
        );
        // Explicit compaction makes the same start succeed.
        let report = h.compact();
        assert!(report.moved > 0);
        assert!(report.pages_migrated > 0);
        assert!(report.cycles > 0);
        assert_eq!(h.fragmentation(), 0.0);
        let id = h.start_container(big).unwrap();
        // Survivors and the new container still work after migration.
        for &i in ids.iter().skip(1).step_by(2).chain([&id]) {
            let pid = h.enter(i, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
            assert_eq!(pid, 1);
        }
    }

    #[test]
    fn clone_start_is_much_cheaper_than_boot() {
        let mut h = host();
        let spec = StartSpec::new(64 * MIB).with_warmup_pages(64);
        // Template boots once (not measured).
        h.ensure_template(&spec).unwrap();

        let mark = h.machine.cpu.clock.mark();
        let cold = h.start(spec).unwrap();
        let boot_cycles = h.machine.cpu.clock.since(mark);

        let mark = h.machine.cpu.clock.mark();
        let cloned = h.start(spec.cloned()).unwrap();
        let clone_cycles = h.machine.cpu.clock.since(mark);

        assert!(
            boot_cycles >= 5 * clone_cycles,
            "boot {boot_cycles} vs clone {clone_cycles} cycles"
        );
        // Both are live and functional.
        for id in [cold, cloned] {
            let pid = h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
            assert_eq!(pid, 1);
        }
    }

    #[test]
    fn observability_records_flight_and_sketches() {
        let mut h = host();
        h.enable_observability(64, crate::slo::SloWatchdog::cloud_default(100_000));
        let spec = StartSpec::new(64 * MIB);
        let id = h.start(spec).unwrap();
        for _ in 0..3 {
            h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
        }
        let dump = h.flight_dump(id).expect("flight dump");
        assert!(dump.contains("\"event\":\"start.boot\""));
        assert_eq!(dump.matches("\"event\":\"invoke\"").count(), 3);
        let m = &h.machine.cpu.metrics;
        let sk = m.sketch_id_of("cloud.invoke_cycles", None).unwrap();
        assert_eq!(m.sketch_count(sk), 3, "warmup not counted as invoke");
        assert_eq!(
            m.value_of("cloud.invokes_per_container", Some(&format!("c{id}"))),
            3
        );
        assert!(h.flight_records() >= 4);
        assert!(h.obs_overhead_cycles() > 0);
        // Retired containers keep their black box.
        h.stop_container(id).unwrap();
        assert!(h.flight_dump(id).is_some());
    }

    #[test]
    fn observability_off_is_chargeless_and_flightless() {
        let mut h = host();
        let id = h.start_container(64 * MIB).unwrap();
        h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
        assert_eq!(h.flight_records(), 0);
        assert_eq!(h.obs_overhead_cycles(), 0);
        assert!(!h.containers[&id].flight.enabled());
        assert!(h.incidents().is_empty());
    }

    #[test]
    fn watchdog_fires_on_pcid_exhaustion() {
        use crate::slo::{RuleKind, SloRule, SloWatchdog};
        let mut h = host();
        // Tiny tick so the breach is observed at the next op boundary.
        h.enable_observability(
            16,
            SloWatchdog::new(1).with_rule(SloRule {
                name: "pcid_free",
                kind: RuleKind::GaugeAtLeast {
                    gauge: "cloud.pcid_free",
                    min: 4092, // the whole pool: any live container breaches
                },
            }),
        );
        let id = h.start_container(64 * MIB).unwrap();
        h.enter(id, |env| env.sys(Sys::Getpid).unwrap()).unwrap();
        let incidents = h.incidents();
        assert!(!incidents.is_empty(), "gauge rule should have fired");
        assert_eq!(incidents[0].rule, "pcid_free");
        assert!(incidents[0].observed < 4092);
    }

    /// Drives one request/response round trip from `client` to a server
    /// socket on `server`, returning the request's payload hash as seen on
    /// both ends.
    fn roundtrip(h: &mut CloudHost, server: ContainerId, client: ContainerId) -> (u64, u64) {
        use guest_os::Fd;
        let srv_mac = CloudHost::container_mac(server);
        let (sfd, sbuf) = h
            .enter(server, |env| {
                let buf = env.mmap(PAGE_SIZE).unwrap();
                let fd = env.sys(Sys::NetSocket).unwrap() as Fd;
                env.sys(Sys::NetListen { fd, port: 80 }).unwrap();
                (fd, buf)
            })
            .unwrap();
        let (cfd, cbuf) = h
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
        let sent = h
            .enter(client, |env| {
                let hash = env
                    .sys(Sys::NetSend {
                        fd: cfd,
                        buf: cbuf,
                        len: 200,
                    })
                    .unwrap();
                env.sys(Sys::NetFlush { fd: cfd }).unwrap();
                hash
            })
            .unwrap();
        assert!(h.net_service() >= 1, "request crosses the switch");
        let got = h
            .enter(server, |env| {
                let who = env.sys(Sys::NetAccept { fd: sfd }).unwrap();
                assert_eq!(who & 0xffff, 49152, "client's first ephemeral port");
                let got = env
                    .sys(Sys::NetRecv {
                        fd: sfd,
                        buf: sbuf,
                        len: 2048,
                    })
                    .unwrap();
                env.sys(Sys::NetSend {
                    fd: sfd,
                    buf: sbuf,
                    len: 64,
                })
                .unwrap();
                env.sys(Sys::NetFlush { fd: sfd }).unwrap();
                got
            })
            .unwrap();
        h.net_service();
        let resp = h
            .enter(client, |env| {
                env.sys(Sys::NetRecv {
                    fd: cfd,
                    buf: cbuf,
                    len: 2048,
                })
                .unwrap()
            })
            .unwrap();
        assert_ne!(resp, 0, "response payload hash");
        (sent, got)
    }

    #[test]
    fn cross_container_serving_roundtrip() {
        let mut h = host();
        h.enable_observability(64, crate::slo::SloWatchdog::cloud_default(100_000));
        h.enable_networking(NetConfig::default());
        let server = h.start_container(64 * MIB).unwrap();
        let client = h.start_container(64 * MIB).unwrap();

        let mark = h.machine.cpu.clock.mark();
        let (sent, got) = roundtrip(&mut h, server, client);
        assert_eq!(sent, got, "payload hash survives the dataplane");
        let cycles = h.machine.cpu.clock.since(mark);
        h.record_request(server, cycles);

        let m = &h.machine.cpu.metrics;
        assert!(m.value_of("net.tx_frames", Some(&format!("c{client}"))) >= 1);
        assert!(m.value_of("net.rx_frames", Some(&format!("c{server}"))) >= 1);
        let sk = m.sketch_id_of("net.request_cycles", None).unwrap();
        assert_eq!(m.sketch_count(sk), 1);
        let sw = h.switch_stats().unwrap();
        assert!(sw.forwarded >= 2, "request + response forwarded");
        assert_eq!(sw.dropped_unknown_dst + sw.dropped_dead_port, 0);
    }

    #[test]
    fn serving_slo_rule_fires_on_budget_breach() {
        use crate::slo::SloWatchdog;
        let mut h = host();
        let wd = SloWatchdog::new(1).with_rule(SloWatchdog::serving_p99(10_000));
        h.enable_observability(16, wd);
        h.enable_networking(NetConfig::default());
        let id = h.start_container(64 * MIB).unwrap();
        for _ in 0..20 {
            h.record_request(id, 50_000);
        }
        let incidents = h.incidents();
        assert!(!incidents.is_empty(), "p99 over budget must breach");
        assert_eq!(incidents[0].rule, "serving_p99");
        assert_eq!(incidents[0].container, Some(id));
        assert!(incidents[0].flight_dump.is_some());
    }

    #[test]
    fn nics_survive_compaction_and_stop_detaches_port() {
        let mut h = CloudHost::new(4096 * MIB, 512 * MIB);
        h.enable_networking(NetConfig::default());
        let small = 128 * MIB;
        let mut ids = Vec::new();
        while h.free_bytes() >= small {
            match h.start_container(small) {
                Ok(id) => ids.push(id),
                Err(_) => break,
            }
        }
        assert!(ids.len() >= 4);
        for &id in ids.iter().step_by(2) {
            h.stop_container(id).unwrap();
        }
        let report = h.compact();
        assert!(report.moved > 0);
        // Survivors' NIC rings moved with their segments; a full
        // request/response round trip still works between two of them.
        let (sent, got) = roundtrip(&mut h, ids[1], ids[3]);
        assert_eq!(sent, got, "dataplane intact after migration");
    }

    #[test]
    fn pcids_recycle_across_stop_start() {
        let mut h = host();
        let a = h.start_container(64 * MIB).unwrap();
        let pcid_a = h.containers[&a].pcid;
        h.stop_container(a).unwrap();
        let b = h.start_container(64 * MIB).unwrap();
        assert_eq!(h.containers[&b].pcid, pcid_a, "released tag is reused");
        assert_eq!(h.pcids_in_use(), 1);
    }
}
