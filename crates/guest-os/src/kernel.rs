//! The guest kernel: process management, demand paging, VFS dispatch,
//! pipes, sockets, and scheduling.
//!
//! This is the same kernel for every backend — only the [`Platform`] behind
//! it changes, mirroring the paper's setup where one para-virtualized Linux
//! runs under RunC/HVM/PVM/CKI.

use std::collections::BTreeMap;

use obs::{CounterId, MetricsRegistry};

use sim_hw::{Clock, Machine, Tag};
use sim_mem::addr::{page_align_down, page_align_up};
use sim_mem::{MapFlags, PfnMap, Phys, PhysMem, Virt, PAGE_SIZE};

use crate::costs;
use crate::platform::Platform;
use crate::process::{layout, AddressSpace, Fd, FileDesc, Pid, ProcState, Process, Vma, VmaKind};
use crate::syscall::{Errno, Sys, SysResult};
use crate::vfs::TmpFs;

/// An in-kernel pipe (also backs AF_UNIX stream pairs).
#[derive(Debug, Default, Clone)]
struct Pipe {
    /// Bytes currently buffered.
    buffered: u64,
    /// Capacity (64 KiB, like Linux).
    capacity: u64,
    /// AF_UNIX (heavier per-op cost) vs plain pipe.
    unix: bool,
}

/// A network socket bound to a port on the container's virtqueue NIC.
///
/// `NetSocket` creates the socket unbound; `NetListen`/`NetConnect` bind
/// it. Every data-path call (`NetRecv`, `NetSend`, `NetFlush`,
/// `NetAccept`) on an unbound socket returns [`Errno::Inval`]. A send
/// longer than [`netsim::MAX_PAYLOAD`] goes out as consecutive
/// `MAX_PAYLOAD`-byte frames, all queued or none; a receive returns one
/// frame.
#[derive(Debug, Default, Clone)]
struct NetSock {
    /// Local port (listen port, or the ephemeral port of a connect).
    port: u16,
    /// Connected peer (set by `NetConnect`).
    peer: Option<(netsim::Mac, u16)>,
    /// Source of the most recently received frame — where a listening
    /// socket's replies go (last-caller semantics, enough for closed-loop
    /// request/response).
    last_from: Option<(netsim::Mac, u16)>,
    /// Send sequence number; seeds the deterministic payload pattern.
    seq: u64,
    /// Frames demultiplexed to this socket, not yet received, each with
    /// its payload hash. [`Kernel::net_demux`] computes the hash from the
    /// bytes the NIC read out of guest memory, never from the sender's.
    rxq: std::collections::VecDeque<(netsim::Frame, u64)>,
}

/// The guest kernel.
pub struct Kernel {
    /// The platform providing privileged operations.
    pub platform: Box<dyn Platform>,
    /// Process table in pid order; [`Kernel::touch`] reads it on every
    /// access.
    procs: BTreeMap<Pid, Process>,
    next_pid: Pid,
    /// The currently running process.
    pub current: Pid,
    /// The tmpfs root filesystem.
    pub vfs: TmpFs,
    pipes: Vec<Pipe>,
    /// Sockets by id; `None` until bound by `NetListen`/`NetConnect`.
    socks: Vec<Option<NetSock>>,
    /// The container's virtqueue NIC, when the host attached one
    /// ([`Kernel::attach_netif`]). Owned by the kernel so syscalls reach it
    /// without host mediation; the host's service pass
    /// ([`netsim::HostSwitch::service`]) borrows it.
    netif: Option<netsim::VirtioNic>,
    /// Next ephemeral port for `NetConnect` (49152..).
    next_eph: u16,
    /// Mapping counts of the user frames mapped more than once (shared
    /// after a fork), by frame address. Every other user frame is mapped
    /// once, so a demand fault adds nothing here.
    frame_refs: PfnMap<Phys, u32>,
    /// Preemption timer: quantum in cycles and the next-tick deadline.
    timer: Option<(u64, u64)>,
    /// Timer ticks delivered.
    pub timer_ticks: u64,
    /// Per-container metrics (kernels may share a machine, so OS-level
    /// counters live here rather than on the CPU's registry).
    pub metrics: MetricsRegistry,
    ids: OsCounterIds,
}

/// Dense ids for the kernel's hot-path counters.
struct OsCounterIds {
    syscalls: CounterId,
    pgfaults: CounterId,
    cow_breaks: CounterId,
    ctx_switches: CounterId,
    forks: CounterId,
    /// `os.syscall{<name>}` by [`Sys::nr`], each registered on its first
    /// use, so registration order follows the syscalls made.
    syscall: [Option<CounterId>; Sys::KINDS],
}

impl OsCounterIds {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        Self {
            syscalls: metrics.counter("os.syscalls"),
            pgfaults: metrics.counter("os.pgfaults"),
            cow_breaks: metrics.counter("os.cow_breaks"),
            ctx_switches: metrics.counter("os.ctx_switches"),
            forks: metrics.counter("os.forks"),
            syscall: [None; Sys::KINDS],
        }
    }
}

impl Kernel {
    /// Boots the kernel on `platform` and creates the init process (pid 1).
    ///
    /// # Panics
    ///
    /// Panics if the platform cannot allocate the first address space.
    pub fn boot(platform: Box<dyn Platform>, m: &mut Machine) -> Self {
        let mut metrics = MetricsRegistry::new();
        let ids = OsCounterIds::register(&mut metrics);
        let mut k = Self {
            platform,
            procs: BTreeMap::new(),
            next_pid: 1,
            current: 0,
            vfs: TmpFs::new(),
            pipes: Vec::new(),
            socks: Vec::new(),
            netif: None,
            next_eph: 49152,
            frame_refs: PfnMap::default(),
            timer: None,
            timer_ticks: 0,
            metrics,
            ids,
        };
        m.cpu.mode = sim_hw::Mode::Kernel;
        let pid = k.create_process(m, 0).expect("boot: init process");
        k.current = pid;
        let root = k.procs[&pid].aspace.root;
        k.platform.load_root(m, root).expect("boot: load init root");
        m.cpu.mode = sim_hw::Mode::User;
        k
    }

    /// The process table size (diagnostics).
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Clones this kernel's functional state onto `platform`, whose
    /// backing memory is a byte-for-byte copy of this kernel's at the
    /// physical locations given by `relocate` (snapshot-clone cold start).
    ///
    /// Process tables, address spaces, file descriptors, the tmpfs, pipes,
    /// and sockets carry over; every physical address in the bookkeeping
    /// (address-space roots, page frames, frame refcounts) is passed
    /// through `relocate`. The clone gets a fresh metrics registry — its
    /// counters restart from zero — and the preemption timer is off until
    /// re-armed, since deadlines are absolute machine times.
    pub fn clone_with_platform(
        &self,
        platform: Box<dyn Platform>,
        relocate: impl Fn(Phys) -> Phys,
    ) -> Kernel {
        let mut metrics = MetricsRegistry::new();
        let ids = OsCounterIds::register(&mut metrics);
        let procs = self
            .procs
            .iter()
            .map(|(&pid, p)| {
                let mut p = p.clone();
                p.aspace.root = relocate(p.aspace.root);
                for info in p.aspace.pages.values_mut() {
                    info.pa = relocate(info.pa);
                }
                (pid, p)
            })
            .collect();
        Kernel {
            platform,
            procs,
            next_pid: self.next_pid,
            current: self.current,
            vfs: self.vfs.clone(),
            pipes: self.pipes.clone(),
            socks: self.socks.clone(),
            // The NIC's rings live at parent physical addresses; the host
            // attaches a fresh NIC to the clone after activation.
            netif: None,
            next_eph: self.next_eph,
            frame_refs: self
                .frame_refs
                .iter()
                .map(|(&pa, &n)| (relocate(pa), n))
                .collect(),
            timer: None,
            timer_ticks: 0,
            metrics,
            ids,
        }
    }

    /// Rewrites every physical address in the kernel's bookkeeping through
    /// `relocate` — the kernel-side half of an in-place segment migration
    /// (the platform rebases the page tables themselves).
    pub fn rebase_frames(&mut self, relocate: impl Fn(Phys) -> Phys) {
        for p in self.procs.values_mut() {
            p.aspace.root = relocate(p.aspace.root);
            for info in p.aspace.pages.values_mut() {
                info.pa = relocate(info.pa);
            }
        }
        self.frame_refs = self
            .frame_refs
            .drain()
            .map(|(pa, n)| (relocate(pa), n))
            .collect();
    }

    /// Builds a virtqueue NIC of `queue` descriptors and attaches it, so
    /// the socket syscalls become available. The rings and buffers live in
    /// [`netsim::NicLayout::frames_needed`] frames taken from this kernel's
    /// platform (for CKI, the delegated segment), and the doorbell and
    /// interrupt path follow [`Platform::device_kind`]. The host half
    /// addresses the rings by host-physical address, so each frame goes
    /// through [`Platform::gpa_to_hpa`]. Returns the NIC, for the host to
    /// attach to its switch, or [`Errno::NoMem`], with every frame given
    /// back, if the platform runs out of frames.
    pub fn attach_netif(
        &mut self,
        m: &mut Machine,
        queue: u16,
        mac: netsim::Mac,
        coalesce: netsim::Coalesce,
    ) -> Result<&mut netsim::VirtioNic, Errno> {
        let need = netsim::NicLayout::frames_needed(queue);
        let mut frames = Vec::with_capacity(need);
        for _ in 0..need {
            match self.platform.alloc_frame(m) {
                Some(pa) => frames.push(pa),
                None => {
                    for pa in frames {
                        self.platform.free_frame(m, pa);
                    }
                    return Err(Errno::NoMem);
                }
            }
        }
        let hpas: Vec<Phys> = frames
            .iter()
            .map(|&gpa| self.platform.gpa_to_hpa(m, gpa))
            .collect();
        let kind = self.platform.device_kind();
        let nic = netsim::VirtioNic::for_backend(
            &mut m.mem,
            &mut m.cpu.clock,
            netsim::NicLayout::from_frames(queue, &hpas),
            mac,
            kind,
            coalesce,
        );
        Ok(self.netif.insert(nic))
    }

    /// The attached NIC, if any.
    pub fn netif(&self) -> Option<&netsim::VirtioNic> {
        self.netif.as_ref()
    }

    /// Mutable access to the NIC — the host attaches it to its switch and
    /// hands it to [`netsim::HostSwitch::service`].
    pub fn netif_mut(&mut self) -> Option<&mut netsim::VirtioNic> {
        self.netif.as_mut()
    }

    /// Detaches and returns the NIC (container stop).
    pub fn take_netif(&mut self) -> Option<netsim::VirtioNic> {
        self.netif.take()
    }

    /// Shifts the NIC's ring, descriptor, and buffer addresses by `delta`
    /// — the NIC half of an in-place segment migration (pair with
    /// [`Kernel::rebase_frames`], after the page image was copied).
    pub fn rebase_netif(&mut self, mem: &mut PhysMem, clock: &mut Clock, delta: i64) {
        if let Some(nic) = &mut self.netif {
            nic.rebase(mem, clock, delta);
        }
    }

    /// Enables the preemption timer with the given quantum. Every quantum
    /// of simulated time, a timer interrupt is delivered through the
    /// platform's interrupt path (native IDT, VM exit, PVM redirection, or
    /// CKI's interrupt gate) and the scheduler runs.
    pub fn enable_preemption(&mut self, m: &Machine, quantum_ns: f64) {
        let q = m.cpu.clock.model().ns_to_cycles(quantum_ns).max(1);
        self.timer = Some((q, m.cpu.clock.cycles() + q));
    }

    fn maybe_timer_tick(&mut self, m: &mut Machine) {
        let Some((quantum, next)) = self.timer else {
            return;
        };
        if m.cpu.clock.cycles() < next {
            return;
        }
        self.timer_ticks += 1;
        self.platform.timer_tick(m);
        m.cpu.clock.charge(Tag::Sched, costs::SCHED_PICK);
        self.timer = Some((quantum, m.cpu.clock.cycles() + quantum));
    }

    /// Immutable access to a process.
    pub fn proc(&self, pid: Pid) -> &Process {
        &self.procs[&pid]
    }

    /// Creates a fresh process with the standard VMA layout.
    pub fn create_process(&mut self, m: &mut Machine, parent: Pid) -> Result<Pid, Errno> {
        let root = self.platform.new_root(m).map_err(|_| Errno::NoMem)?;
        let mut aspace = AddressSpace::new(root);
        aspace.insert_vma(Vma {
            start: layout::TEXT_BASE,
            end: layout::TEXT_BASE + layout::TEXT_PAGES * PAGE_SIZE,
            write: false,
            kind: VmaKind::Text,
        });
        aspace.insert_vma(Vma {
            start: layout::STACK_TOP - layout::STACK_PAGES * PAGE_SIZE,
            end: layout::STACK_TOP,
            write: true,
            kind: VmaKind::Stack,
        });
        let pid = self.next_pid;
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid, parent, aspace));
        Ok(pid)
    }

    // --- Memory access ---------------------------------------------------------

    /// Performs one user memory access at `va`, handling demand paging.
    ///
    /// Returns `Err(Errno::Fault)` on an access the VMAs do not permit
    /// (the SIGSEGV case lmbench's `protfault` measures).
    pub fn touch(&mut self, m: &mut Machine, va: Virt, write: bool) -> Result<(), Errno> {
        self.maybe_timer_tick(m);
        loop {
            let root = self.procs[&self.current].aspace.root;
            match self.platform.user_access(m, root, va, write) {
                Ok(()) => return Ok(()),
                Err(sim_hw::Fault::PageFault { .. }) | Err(sim_hw::Fault::PkViolation { .. }) => {
                    self.handle_fault(m, va, write)?;
                }
                Err(_) => return Err(Errno::Fault),
            }
        }
    }

    /// Touches every page in `[va, va + len)` (optionally writing).
    pub fn touch_range(
        &mut self,
        m: &mut Machine,
        va: Virt,
        len: u64,
        write: bool,
    ) -> Result<(), Errno> {
        let mut page = page_align_down(va);
        let end = va + len;
        while page < end {
            self.touch(m, page, write)?;
            page += PAGE_SIZE;
        }
        Ok(())
    }

    /// The guest page-fault handler (demand paging + COW).
    pub fn handle_fault(&mut self, m: &mut Machine, va: Virt, write: bool) -> Result<(), Errno> {
        self.metrics.inc(self.ids.pgfaults);
        let sp = m.cpu.span_enter("os.pgfault");
        let trap = m.cpu.span_enter("os.trap");
        self.platform.fault_entry(m);
        m.cpu.span_exit(trap);
        let vma_cost = m.cpu.clock.model().vma_lookup;
        m.cpu.clock.charge(Tag::Handler, vma_cost + costs::PF_SOFT);

        let page = page_align_down(va);
        let pid = self.current;
        let root = self.procs[&pid].aspace.root;

        let existing = self.procs[&pid].aspace.pages.get(&page).copied();
        let result = if let Some(info) = existing {
            if write && info.cow {
                self.break_cow(m, root, page, info.pa, info.vma_write)
            } else {
                // Present and not COW: a genuine protection violation.
                Err(Errno::Fault)
            }
        } else {
            let vma = self.procs[&pid].aspace.find_vma(va).copied();
            match vma {
                None => Err(Errno::Fault),
                Some(v) if write && !v.write => Err(Errno::Fault),
                Some(v) => self.demand_map(m, root, page, &v),
            }
        };

        if result.is_err() {
            // Signal delivery path (SIGSEGV bookkeeping).
            m.cpu.clock.charge(Tag::Handler, 600);
        }
        let iret = m.cpu.span_enter("os.iret");
        self.platform.fault_exit(m);
        m.cpu.span_exit(iret);
        m.cpu.span_exit(sp);
        result
    }

    fn demand_map(
        &mut self,
        m: &mut Machine,
        root: Phys,
        page: Virt,
        vma: &Vma,
    ) -> Result<(), Errno> {
        let frame = self.platform.alloc_frame(m).ok_or(Errno::NoMem)?;
        let zero_cost = m.cpu.clock.model().zero_page;
        m.cpu.clock.charge(Tag::Handler, zero_cost);
        if let VmaKind::File { inode, offset } = vma.kind {
            // Fill from the page cache.
            let file_off = offset + (page - vma.start);
            let n = self.vfs.read(inode, file_off, PAGE_SIZE as usize);
            let copy = m.cpu.clock.model().copy_cycles(n as u64);
            m.cpu.clock.charge(Tag::Handler, costs::PAGE_CACHE + copy);
        }
        let flags = MapFlags::user_rw().with_write(vma.write);
        self.platform
            .map_page(m, root, page, frame, flags)
            .map_err(|_| Errno::NoMem)?;
        self.procs
            .get_mut(&self.current)
            .expect("current proc")
            .aspace
            .pages
            .insert(
                page,
                crate::process::PageInfo {
                    pa: frame,
                    cow: false,
                    vma_write: vma.write,
                },
            );
        Ok(())
    }

    fn break_cow(
        &mut self,
        m: &mut Machine,
        root: Phys,
        page: Virt,
        old_pa: Phys,
        vma_write: bool,
    ) -> Result<(), Errno> {
        self.metrics.inc(self.ids.cow_breaks);
        let refs = self.frame_refs.get(&old_pa).copied().unwrap_or(1);
        if refs <= 1 {
            // Sole owner: just restore write permission.
            self.platform
                .protect_page(m, root, page, MapFlags::user_rw().with_write(vma_write))
                .map_err(|_| Errno::Fault)?;
            let info = self
                .procs
                .get_mut(&self.current)
                .expect("current proc")
                .aspace
                .pages
                .get_mut(&page)
                .expect("cow page");
            info.cow = false;
            return Ok(());
        }
        // Shared: copy to a fresh frame.
        let new_pa = self.platform.alloc_frame(m).ok_or(Errno::NoMem)?;
        let model = m.cpu.clock.model();
        let cycles = model.frame_alloc + model.copy_cycles(PAGE_SIZE);
        m.cpu.clock.charge(Tag::Handler, cycles);
        self.platform
            .unmap_page(m, root, page)
            .map_err(|_| Errno::Fault)?;
        self.platform
            .map_page(
                m,
                root,
                page,
                new_pa,
                MapFlags::user_rw().with_write(vma_write),
            )
            .map_err(|_| Errno::NoMem)?;
        self.unshare(old_pa);
        let info = self
            .procs
            .get_mut(&self.current)
            .expect("current proc")
            .aspace
            .pages
            .get_mut(&page)
            .expect("cow page");
        info.pa = new_pa;
        info.cow = false;
        Ok(())
    }

    /// Copies `len` bytes between kernel and a user buffer at `buf`,
    /// faulting pages in as needed and charging the copy.
    fn copy_user(
        &mut self,
        m: &mut Machine,
        buf: Virt,
        len: usize,
        write_to_user: bool,
    ) -> Result<(), Errno> {
        if len == 0 {
            return Ok(());
        }
        self.touch_range(m, buf, len as u64, write_to_user)?;
        let copy = m.cpu.clock.model().copy_cycles(len as u64);
        m.cpu.clock.charge(Tag::Compute, copy);
        Ok(())
    }

    // --- Scheduling -------------------------------------------------------------

    /// Switches to process `to` (context switch with CR3 load).
    pub fn context_switch(&mut self, m: &mut Machine, to: Pid) -> Result<(), Errno> {
        if to == self.current {
            return Ok(());
        }
        if !self.procs.contains_key(&to) {
            return Err(Errno::Inval);
        }
        self.metrics.inc(self.ids.ctx_switches);
        let sp = m.cpu.span_enter("os.ctxsw");
        m.cpu
            .clock
            .charge(Tag::Sched, costs::SCHED_PICK + costs::CTX_REGS);
        // Context switches run in kernel context (the scheduler is entered
        // from a syscall or a timer interrupt).
        let prev_mode = m.cpu.mode;
        m.cpu.mode = sim_hw::Mode::Kernel;
        let root = self.procs[&to].aspace.root;
        let r = self.platform.load_root(m, root).map_err(|_| Errno::Fault);
        m.cpu.mode = prev_mode;
        m.cpu.span_exit(sp);
        r?;
        self.current = to;
        Ok(())
    }

    // --- Syscalls ---------------------------------------------------------------

    /// Dispatches one syscall for the current process, charging the full
    /// platform entry/exit path.
    pub fn syscall(&mut self, m: &mut Machine, sys: Sys<'_>) -> SysResult {
        self.metrics.inc(self.ids.syscalls);
        let per = *self.ids.syscall[sys.nr()]
            .get_or_insert_with(|| self.metrics.counter_labeled("os.syscall", Some(sys.name())));
        self.metrics.inc(per);
        self.maybe_timer_tick(m);
        let sp = m.cpu.span_enter("os.syscall");
        self.platform.syscall_entry(m);
        m.cpu.clock.charge(Tag::Handler, costs::DISPATCH);
        let r = self.dispatch(m, sys);
        self.platform.syscall_exit(m);
        m.cpu.span_exit(sp);
        r
    }

    fn dispatch(&mut self, m: &mut Machine, sys: Sys<'_>) -> SysResult {
        match sys {
            Sys::Getpid => Ok(self.current as u64),
            Sys::Read { fd, buf, len } => self.sys_read(m, fd, buf, len, None),
            Sys::Write { fd, buf, len } => self.sys_write(m, fd, buf, len, None),
            Sys::Pread {
                fd,
                buf,
                len,
                offset,
            } => self.sys_read(m, fd, buf, len, Some(offset)),
            Sys::Pwrite {
                fd,
                buf,
                len,
                offset,
            } => self.sys_write(m, fd, buf, len, Some(offset)),
            Sys::Open {
                path,
                create,
                trunc,
            } => self.sys_open(m, path, create, trunc),
            Sys::Close { fd } => self.sys_close(fd),
            Sys::Stat { path } => self.sys_stat(m, path),
            Sys::Fsync { fd } => self.sys_fsync(m, fd),
            Sys::Unlink { path } => self.sys_unlink(m, path),
            Sys::Mmap { len, write } => self.sys_mmap(m, len, write),
            Sys::Munmap { addr, len } => self.sys_munmap(m, addr, len),
            Sys::Mprotect { addr, len, write } => self.sys_mprotect(m, addr, len, write),
            Sys::Brk { incr } => self.sys_brk(m, incr),
            Sys::Fork => self.sys_fork(m),
            Sys::Execve => self.sys_execve(m),
            Sys::Exit { code } => self.sys_exit(m, code),
            Sys::Wait => self.sys_wait(m),
            Sys::PipeCreate => self.sys_pipe(false),
            Sys::SocketPair => self.sys_pipe(true),
            Sys::NetSocket => self.sys_net_socket(),
            Sys::NetListen { fd, port } => self.sys_net_listen(m, fd, port),
            Sys::NetConnect { fd, mac, port } => self.sys_net_connect(m, fd, mac, port),
            Sys::NetAccept { fd } => self.sys_net_accept(m, fd),
            Sys::NetRecv { fd, buf, len } => self.sys_net_recv(m, fd, buf, len),
            Sys::NetSend { fd, buf, len } => self.sys_net_send(m, fd, buf, len),
            Sys::NetFlush { fd } => self.sys_net_flush(m, fd),
            Sys::Yield => {
                m.cpu.clock.charge(Tag::Sched, costs::SCHED_PICK);
                Ok(0)
            }
        }
    }

    fn fd_of(&self, fd: Fd) -> Result<FileDesc, Errno> {
        self.procs[&self.current]
            .fds
            .get(&fd)
            .copied()
            .ok_or(Errno::BadF)
    }

    fn sys_read(
        &mut self,
        m: &mut Machine,
        fd: Fd,
        buf: Virt,
        len: usize,
        at: Option<u64>,
    ) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::FD_LOOKUP);
        match self.fd_of(fd)? {
            FileDesc::File { inode, offset } => {
                let off = at.unwrap_or(offset);
                m.cpu.clock.charge(Tag::Handler, costs::PAGE_CACHE);
                let n = self.vfs.read(inode, off, len);
                self.copy_user(m, buf, n, true)?;
                if at.is_none() {
                    if let Some(FileDesc::File { offset, .. }) = self
                        .procs
                        .get_mut(&self.current)
                        .expect("cur")
                        .fds
                        .get_mut(&fd)
                    {
                        *offset += n as u64;
                    }
                }
                Ok(n as u64)
            }
            FileDesc::PipeRead { pipe } => {
                let p = &mut self.pipes[pipe];
                let op = if p.unix {
                    costs::SOCK_OP
                } else {
                    costs::PIPE_OP
                };
                m.cpu.clock.charge(Tag::Handler, op);
                if p.buffered == 0 {
                    return Err(Errno::WouldBlock);
                }
                let n = (len as u64).min(p.buffered);
                p.buffered -= n;
                self.copy_user(m, buf, n as usize, true)?;
                Ok(n)
            }
            FileDesc::PipeWrite { .. } => Err(Errno::BadF),
            FileDesc::Socket { .. } => self.sys_net_recv(m, fd, buf, len),
        }
    }

    fn sys_write(
        &mut self,
        m: &mut Machine,
        fd: Fd,
        buf: Virt,
        len: usize,
        at: Option<u64>,
    ) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::FD_LOOKUP);
        match self.fd_of(fd)? {
            FileDesc::File { inode, offset } => {
                let off = at.unwrap_or(offset);
                m.cpu.clock.charge(Tag::Handler, costs::PAGE_CACHE);
                self.copy_user(m, buf, len, false)?;
                let n = self.vfs.write(inode, off, len);
                if at.is_none() {
                    if let Some(FileDesc::File { offset, .. }) = self
                        .procs
                        .get_mut(&self.current)
                        .expect("cur")
                        .fds
                        .get_mut(&fd)
                    {
                        *offset += n as u64;
                    }
                }
                Ok(n as u64)
            }
            FileDesc::PipeWrite { pipe } => {
                let p = &mut self.pipes[pipe];
                let op = if p.unix {
                    costs::SOCK_OP
                } else {
                    costs::PIPE_OP
                };
                m.cpu.clock.charge(Tag::Handler, op);
                if p.buffered + len as u64 > p.capacity {
                    return Err(Errno::WouldBlock);
                }
                p.buffered += len as u64;
                self.copy_user(m, buf, len, false)?;
                Ok(len as u64)
            }
            FileDesc::PipeRead { .. } => Err(Errno::BadF),
            FileDesc::Socket { .. } => self.sys_net_send(m, fd, buf, len),
        }
    }

    fn sys_open(&mut self, m: &mut Machine, path: &str, create: bool, trunc: bool) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::PATH_LOOKUP);
        let inode = if create {
            self.vfs.create(path, trunc).map_err(|_| Errno::NoEnt)?
        } else {
            self.vfs.lookup(path).map_err(|_| Errno::NoEnt)?
        };
        let fd = self
            .procs
            .get_mut(&self.current)
            .expect("cur")
            .install_fd(FileDesc::File { inode, offset: 0 });
        Ok(fd as u64)
    }

    fn sys_close(&mut self, fd: Fd) -> SysResult {
        self.procs
            .get_mut(&self.current)
            .expect("cur")
            .fds
            .remove(&fd)
            .map(|_| 0)
            .ok_or(Errno::BadF)
    }

    fn sys_stat(&mut self, m: &mut Machine, path: &str) -> SysResult {
        m.cpu
            .clock
            .charge(Tag::Handler, costs::PATH_LOOKUP + costs::STAT_FILL);
        let ino = self.vfs.lookup(path).map_err(|_| Errno::NoEnt)?;
        Ok(self.vfs.size(ino))
    }

    fn sys_fsync(&mut self, m: &mut Machine, fd: Fd) -> SysResult {
        m.cpu
            .clock
            .charge(Tag::Handler, costs::FD_LOOKUP + costs::FSYNC_TMPFS);
        match self.fd_of(fd)? {
            FileDesc::File { .. } => Ok(0),
            _ => Err(Errno::Inval),
        }
    }

    fn sys_unlink(&mut self, m: &mut Machine, path: &str) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::PATH_LOOKUP);
        self.vfs.unlink(path).map(|_| 0).map_err(|_| Errno::NoEnt)
    }

    fn sys_mmap(&mut self, m: &mut Machine, len: u64, write: bool) -> SysResult {
        if len == 0 {
            return Err(Errno::Inval);
        }
        m.cpu.clock.charge(Tag::Handler, costs::VMA_OP);
        let len = page_align_up(len);
        let aspace = &mut self.procs.get_mut(&self.current).expect("cur").aspace;
        let base = aspace.alloc_mmap(len);
        aspace.insert_vma(Vma {
            start: base,
            end: base + len,
            write,
            kind: VmaKind::Anon,
        });
        Ok(base)
    }

    fn sys_munmap(&mut self, m: &mut Machine, addr: Virt, len: u64) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::VMA_OP);
        let len = page_align_up(len);
        let pid = self.current;
        let root = self.procs[&pid].aspace.root;
        let vma = self
            .procs
            .get_mut(&pid)
            .expect("cur")
            .aspace
            .remove_vma(addr, addr + len)
            .ok_or(Errno::Inval)?;
        // Unmap and free present pages.
        let mut page = vma.start;
        while page < vma.end {
            let info = self
                .procs
                .get_mut(&pid)
                .expect("cur")
                .aspace
                .pages
                .remove(&page);
            if let Some(info) = info {
                self.platform
                    .unmap_page(m, root, page)
                    .map_err(|_| Errno::Fault)?;
                self.drop_frame_ref(m, info.pa);
            }
            page += PAGE_SIZE;
        }
        Ok(0)
    }

    fn sys_mprotect(&mut self, m: &mut Machine, addr: Virt, len: u64, write: bool) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::VMA_OP);
        let len = page_align_up(len);
        let pid = self.current;
        let root = self.procs[&pid].aspace.root;
        // Update the VMA permission.
        {
            let aspace = &mut self.procs.get_mut(&pid).expect("cur").aspace;
            let vma = aspace
                .vmas
                .iter_mut()
                .find(|v| v.start <= addr && addr + len <= v.end)
                .ok_or(Errno::Inval)?;
            vma.write = write;
        }
        // Update present leaf PTEs.
        let mut page = page_align_down(addr);
        while page < addr + len {
            let present = self.procs[&pid].aspace.pages.get(&page).copied();
            if let Some(mut info) = present {
                m.cpu.clock.charge(Tag::Handler, costs::MPROTECT_PER_PAGE);
                let eff_write = write && !info.cow;
                self.platform
                    .protect_page(m, root, page, MapFlags::user_rw().with_write(eff_write))
                    .map_err(|_| Errno::Fault)?;
                info.vma_write = write;
                self.procs
                    .get_mut(&pid)
                    .expect("cur")
                    .aspace
                    .pages
                    .insert(page, info);
            }
            page += PAGE_SIZE;
        }
        Ok(0)
    }

    fn sys_brk(&mut self, m: &mut Machine, incr: u64) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::VMA_OP);
        let aspace = &mut self.procs.get_mut(&self.current).expect("cur").aspace;
        let old = aspace.brk;
        let new = page_align_up(old + incr);
        if incr > 0 {
            aspace.insert_vma(Vma {
                start: old,
                end: new,
                write: true,
                kind: VmaKind::Heap,
            });
            aspace.brk = new;
        }
        Ok(aspace.brk)
    }

    fn sys_fork(&mut self, m: &mut Machine) -> SysResult {
        if !self.platform.supports_fork() {
            return Err(Errno::NoSys);
        }
        self.metrics.inc(self.ids.forks);
        let parent = self.current;
        m.cpu.clock.charge(Tag::Handler, costs::FORK_TASK);
        let child = self.create_process(m, parent)?;

        // Clone VMAs, fds, brk/mmap cursors.
        let (vmas, fds, brk, mmap_cursor) = {
            let p = &self.procs[&parent];
            (
                p.aspace.vmas.clone(),
                p.fds.clone(),
                p.aspace.brk,
                p.aspace.mmap_cursor,
            )
        };
        m.cpu
            .clock
            .charge(Tag::Handler, costs::FORK_PER_VMA * vmas.len() as u64);
        {
            let c = self.procs.get_mut(&child).expect("child");
            c.aspace.vmas = vmas;
            c.fds = fds;
            c.aspace.brk = brk;
            c.aspace.mmap_cursor = mmap_cursor;
        }

        // COW-share every present page. Child mappings go through the
        // platform's batch interface (one KSM gate under CKI).
        let parent_root = self.procs[&parent].aspace.root;
        let child_root = self.procs[&child].aspace.root;
        let pages: Vec<(Virt, crate::process::PageInfo)> = self.procs[&parent]
            .aspace
            .pages
            .iter()
            .map(|(va, info)| (*va, *info))
            .collect();
        let mut child_batch = Vec::with_capacity(pages.len());
        for (va, mut info) in pages {
            if !info.cow && info.vma_write {
                // Write-protect the parent mapping.
                self.platform
                    .protect_page(m, parent_root, va, MapFlags::user_rw().with_write(false))
                    .map_err(|_| Errno::NoMem)?;
                info.cow = true;
                self.procs
                    .get_mut(&parent)
                    .expect("par")
                    .aspace
                    .pages
                    .insert(va, info);
            }
            child_batch.push((va, info.pa, MapFlags::user_rw().with_write(false)));
            *self.frame_refs.entry(info.pa).or_insert(1) += 1;
            self.procs
                .get_mut(&child)
                .expect("child")
                .aspace
                .pages
                .insert(va, info);
        }
        self.platform
            .map_pages(m, child_root, &child_batch)
            .map_err(|_| Errno::NoMem)?;
        Ok(child as u64)
    }

    fn sys_execve(&mut self, m: &mut Machine) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::EXEC_SETUP);
        let pid = self.current;
        self.teardown_user_memory(m, pid)?;
        // Fresh layout.
        {
            let p = self.procs.get_mut(&pid).expect("cur");
            let root = p.aspace.root;
            p.aspace = AddressSpace::new(root);
            p.aspace.insert_vma(Vma {
                start: layout::TEXT_BASE,
                end: layout::TEXT_BASE + layout::TEXT_PAGES * PAGE_SIZE,
                write: false,
                kind: VmaKind::Text,
            });
            p.aspace.insert_vma(Vma {
                start: layout::STACK_TOP - layout::STACK_PAGES * PAGE_SIZE,
                end: layout::STACK_TOP,
                write: true,
                kind: VmaKind::Stack,
            });
        }
        // Fault in the first text pages and a stack page, as a real exec does.
        for i in 0..4 {
            self.touch(m, layout::TEXT_BASE + i * PAGE_SIZE, false)
                .map_err(|_| Errno::NoMem)?;
        }
        self.touch(m, layout::STACK_TOP - PAGE_SIZE, true)
            .map_err(|_| Errno::NoMem)?;
        Ok(0)
    }

    fn sys_exit(&mut self, m: &mut Machine, code: i32) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::EXIT_TASK);
        let pid = self.current;
        self.teardown_user_memory(m, pid)?;
        let p = self.procs.get_mut(&pid).expect("cur");
        p.state = ProcState::Zombie;
        p.exit_code = code;
        p.fds.clear();
        Ok(0)
    }

    fn sys_wait(&mut self, m: &mut Machine) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::WAIT_REAP);
        let me = self.current;
        let zombie = self
            .procs
            .values()
            .find(|p| p.parent == me && p.state == ProcState::Zombie)
            .map(|p| p.pid);
        match zombie {
            Some(pid) => {
                let root = self.procs[&pid].aspace.root;
                self.platform.destroy_root(m, root);
                self.procs.remove(&pid);
                Ok(pid as u64)
            }
            None => Err(Errno::Child),
        }
    }

    fn sys_pipe(&mut self, unix: bool) -> SysResult {
        let id = self.pipes.len();
        self.pipes.push(Pipe {
            buffered: 0,
            capacity: 64 * 1024,
            unix,
        });
        let p = self.procs.get_mut(&self.current).expect("cur");
        let rfd = p.install_fd(FileDesc::PipeRead { pipe: id });
        let wfd = p.install_fd(FileDesc::PipeWrite { pipe: id });
        Ok(((rfd as u64) << 32) | wfd as u64)
    }

    fn sys_net_socket(&mut self) -> SysResult {
        let id = self.socks.len();
        self.socks.push(None);
        let fd = self
            .procs
            .get_mut(&self.current)
            .expect("cur")
            .install_fd(FileDesc::Socket { sock: id });
        Ok(fd as u64)
    }

    fn sock_of(&self, fd: Fd) -> Result<usize, Errno> {
        match self.fd_of(fd)? {
            FileDesc::Socket { sock } => Ok(sock),
            _ => Err(Errno::BadF),
        }
    }

    /// The bound socket behind `fd`; `Inval` if it was never bound.
    fn bound_sock(&mut self, fd: Fd) -> Result<&mut NetSock, Errno> {
        let sock = self.sock_of(fd)?;
        self.socks[sock].as_mut().ok_or(Errno::Inval)
    }

    fn sys_net_listen(&mut self, m: &mut Machine, fd: Fd, port: u16) -> SysResult {
        m.cpu
            .clock
            .charge(Tag::Handler, costs::FD_LOOKUP + costs::SOCK_OP);
        if self.netif.is_none() {
            return Err(Errno::NoSys);
        }
        let sock = self.sock_of(fd)?;
        if self.socks.iter().flatten().any(|n| n.port == port) {
            return Err(Errno::Inval); // EADDRINUSE stand-in
        }
        self.socks[sock] = Some(NetSock {
            port,
            ..NetSock::default()
        });
        Ok(0)
    }

    fn sys_net_connect(&mut self, m: &mut Machine, fd: Fd, mac: u64, port: u16) -> SysResult {
        m.cpu.clock.charge(
            Tag::Handler,
            costs::FD_LOOKUP + costs::SOCK_OP + costs::TCP_STACK,
        );
        if self.netif.is_none() {
            return Err(Errno::NoSys);
        }
        let sock = self.sock_of(fd)?;
        let eph = self.next_eph;
        self.next_eph = self.next_eph.checked_add(1).ok_or(Errno::NoMem)?;
        self.socks[sock] = Some(NetSock {
            port: eph,
            peer: Some((mac, port)),
            ..NetSock::default()
        });
        Ok(eph as u64)
    }

    fn sys_net_accept(&mut self, m: &mut Machine, fd: Fd) -> SysResult {
        m.cpu
            .clock
            .charge(Tag::Handler, costs::FD_LOOKUP + costs::SOCK_OP);
        self.bound_sock(fd)?;
        self.net_demux(m);
        match self.bound_sock(fd)?.rxq.front() {
            Some((f, _)) => Ok((f.src << 16) | f.src_port as u64),
            None => Err(Errno::WouldBlock),
        }
    }

    /// Drains the NIC's RX ring, hashes the drained payloads as one batch
    /// ([`netsim::hash_payloads`]), and demultiplexes the frames into bound
    /// sockets by destination port. Frames to unbound ports are dropped, as
    /// a real stack would drop to a closed port.
    fn net_demux(&mut self, m: &mut Machine) {
        let Some(nic) = &mut self.netif else { return };
        let mut batch = Vec::new();
        while let Some(f) = nic.recv(&mut m.mem, &mut m.cpu.clock) {
            batch.push(f);
        }
        let hashes = netsim::hash_payloads(&batch);
        for (f, hash) in batch.into_iter().zip(hashes) {
            let target = self
                .socks
                .iter_mut()
                .flatten()
                .find(|n| n.port == f.dst_port);
            if let Some(n) = target {
                n.rxq.push_back((f, hash));
            }
        }
    }

    /// Receive: pop one frame from this socket's demux queue, recording
    /// the sender for reply routing. Returns the payload hash (the
    /// cross-container integrity token) that [`Kernel::net_demux`] stored
    /// with it. An empty queue flushes pending TX (the doorbell the event
    /// loop owes) and returns `WouldBlock`.
    fn sys_net_recv(&mut self, m: &mut Machine, fd: Fd, buf: Virt, len: usize) -> SysResult {
        m.cpu.clock.charge(Tag::Handler, costs::FD_LOOKUP);
        self.bound_sock(fd)?;
        self.net_demux(m);
        let net = self.bound_sock(fd)?;
        match net.rxq.pop_front() {
            Some((f, hash)) => {
                net.last_from = Some((f.src, f.src_port));
                m.cpu.clock.charge(Tag::Handler, costs::TCP_STACK);
                let n = f.payload.len().min(len);
                self.copy_user(m, buf, n, true)?;
                Ok(hash)
            }
            None => {
                if let Some(nic) = &mut self.netif {
                    nic.flush(&mut m.cpu.clock);
                }
                Err(Errno::WouldBlock)
            }
        }
    }

    /// Send: materialize `len` deterministic payload bytes as
    /// `MAX_PAYLOAD`-byte frames and queue them all on the TX ring
    /// (doorbells per the NIC's coalescing policy). Returns the hash of the
    /// whole payload — for a one-frame send, that frame's payload hash —
    /// folded in while the bytes are generated, one running state across
    /// the segments.
    /// A full ring surfaces as `WouldBlock` with nothing queued; a send
    /// needing more frames than the ring holds is `Inval`.
    fn sys_net_send(&mut self, m: &mut Machine, fd: Fd, buf: Virt, len: usize) -> SysResult {
        m.cpu
            .clock
            .charge(Tag::Handler, costs::FD_LOOKUP + costs::TCP_STACK);
        self.bound_sock(fd)?;
        self.copy_user(m, buf, len, false)?;
        let sock = self.sock_of(fd)?;
        let (Some(nic), Some(net)) = (self.netif.as_mut(), self.socks[sock].as_mut()) else {
            return Err(Errno::NoSys);
        };
        let (dst, dst_port) = net.peer.or(net.last_from).ok_or(Errno::Pipe)?;
        let segments = len.div_ceil(netsim::MAX_PAYLOAD).max(1);
        if segments > nic.queue() as usize {
            return Err(Errno::Inval);
        }
        let mut hash = netsim::FNV_OFFSET;
        let frames: Vec<netsim::Frame> = (0..segments)
            .map(|i| {
                let seed = ((net.port as u64) << 32) | (net.seq + i as u64);
                let bytes = (len - i * netsim::MAX_PAYLOAD).min(netsim::MAX_PAYLOAD);
                let (payload, h) = netsim::payload_pattern_hashed(seed, bytes, hash);
                hash = h;
                netsim::Frame {
                    dst,
                    src: nic.mac,
                    dst_port,
                    src_port: net.port,
                    payload,
                }
            })
            .collect();
        match nic.send(&mut m.mem, &mut m.cpu.clock, &frames) {
            Ok(()) => {
                net.seq += segments as u64;
                Ok(netsim::finish_hash(hash))
            }
            Err(netsim::NetError::RingFull) => Err(Errno::WouldBlock),
            Err(_) => Err(Errno::Pipe),
        }
    }

    fn sys_net_flush(&mut self, m: &mut Machine, fd: Fd) -> SysResult {
        self.bound_sock(fd)?;
        let nic = self.netif.as_mut().ok_or(Errno::NoSys)?;
        nic.flush(&mut m.cpu.clock);
        Ok(0)
    }

    // --- Teardown helpers -------------------------------------------------------

    /// Drops one mapping of the shared frame `pa`.
    fn unshare(&mut self, pa: Phys) {
        match self.frame_refs.get_mut(&pa) {
            Some(refs) if *refs > 2 => *refs -= 1,
            _ => {
                self.frame_refs.remove(&pa);
            }
        }
    }

    /// Drops one mapping of the user frame `pa`, freeing it with its last.
    fn drop_frame_ref(&mut self, m: &mut Machine, pa: Phys) {
        if self.frame_refs.contains_key(&pa) {
            self.unshare(pa);
        } else {
            self.platform.free_frame(m, pa);
        }
    }

    fn teardown_user_memory(&mut self, m: &mut Machine, pid: Pid) -> Result<(), Errno> {
        let root = self.procs[&pid].aspace.root;
        let pages: Vec<(Virt, Phys)> = self.procs[&pid]
            .aspace
            .pages
            .iter()
            .map(|(va, i)| (*va, i.pa))
            .collect();
        for (va, pa) in pages {
            // Batched teardown is cheaper than individual unmaps; charge a
            // fraction of the PTE write cost.
            m.cpu.clock.charge(Tag::Handler, 25);
            self.platform
                .unmap_page(m, root, va)
                .map_err(|_| Errno::Fault)?;
            self.drop_frame_ref(m, pa);
        }
        self.procs.get_mut(&pid).expect("proc").aspace.pages.clear();
        self.procs.get_mut(&pid).expect("proc").aspace.vmas.clear();
        Ok(())
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("platform", &self.platform.name())
            .field("nprocs", &self.procs.len())
            .field("current", &self.current)
            .field("syscalls", &self.metrics.get(self.ids.syscalls))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::NativePlatform;
    use sim_hw::HwExtensions;

    fn boot() -> (Kernel, Machine) {
        let mut m = Machine::new(512 * 1024 * 1024, HwExtensions::baseline());
        let k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        (k, m)
    }

    #[test]
    fn getpid_costs_about_90ns() {
        let (mut k, mut m) = boot();
        let mark = m.cpu.clock.mark();
        let pid = k.syscall(&mut m, Sys::Getpid).unwrap();
        assert_eq!(pid, 1);
        let ns = m.cpu.clock.since_ns(mark);
        assert!((80.0..110.0).contains(&ns), "native getpid = {ns} ns");
    }

    #[test]
    fn demand_paging_via_mmap() {
        let (mut k, mut m) = boot();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 64 * 1024,
                    write: true,
                },
            )
            .unwrap();
        assert_eq!(k.metrics.value_of("os.pgfaults", None), 0);
        k.touch_range(&mut m, base, 64 * 1024, true).unwrap();
        assert_eq!(k.metrics.value_of("os.pgfaults", None), 16);
        // Second pass: no more faults.
        k.touch_range(&mut m, base, 64 * 1024, true).unwrap();
        assert_eq!(k.metrics.value_of("os.pgfaults", None), 16);
    }

    #[test]
    fn native_pgfault_costs_about_1us() {
        let (mut k, mut m) = boot();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 1024 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let mark = m.cpu.clock.mark();
        k.touch_range(&mut m, base, 1024 * PAGE_SIZE, true).unwrap();
        let per_fault = m.cpu.clock.since_ns(mark) / 1024.0;
        assert!(
            (800.0..1300.0).contains(&per_fault),
            "native pgfault = {per_fault} ns"
        );
    }

    #[test]
    fn segv_outside_vma() {
        let (mut k, mut m) = boot();
        assert_eq!(k.touch(&mut m, 0xdead_0000, true), Err(Errno::Fault));
    }

    #[test]
    fn mprotect_write_fault() {
        let (mut k, mut m) = boot();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch(&mut m, base, true).unwrap();
        k.syscall(
            &mut m,
            Sys::Mprotect {
                addr: base,
                len: PAGE_SIZE,
                write: false,
            },
        )
        .unwrap();
        assert_eq!(k.touch(&mut m, base, true), Err(Errno::Fault));
        assert!(k.touch(&mut m, base, false).is_ok());
    }

    #[test]
    fn file_read_write_offsets() {
        let (mut k, mut m) = boot();
        let buf = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 16 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let fd = k
            .syscall(
                &mut m,
                Sys::Open {
                    path: "/t",
                    create: true,
                    trunc: false,
                },
            )
            .unwrap() as Fd;
        assert_eq!(
            k.syscall(&mut m, Sys::Write { fd, buf, len: 5000 })
                .unwrap(),
            5000
        );
        assert_eq!(k.syscall(&mut m, Sys::Stat { path: "/t" }).unwrap(), 5000);
        // Offset advanced; read hits EOF.
        assert_eq!(
            k.syscall(&mut m, Sys::Read { fd, buf, len: 100 }).unwrap(),
            0
        );
        assert_eq!(
            k.syscall(
                &mut m,
                Sys::Pread {
                    fd,
                    buf,
                    len: 100,
                    offset: 0
                }
            )
            .unwrap(),
            100
        );
        k.syscall(&mut m, Sys::Close { fd }).unwrap();
        assert_eq!(
            k.syscall(&mut m, Sys::Read { fd, buf, len: 1 }),
            Err(Errno::BadF)
        );
    }

    #[test]
    fn fork_cow_semantics() {
        let (mut k, mut m) = boot();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 4 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut m, base, 4 * PAGE_SIZE, true).unwrap();
        let child = k.syscall(&mut m, Sys::Fork).unwrap() as Pid;
        assert_ne!(child, k.current);

        // Parent write breaks COW (copy, since the child shares).
        let faults_before = k.metrics.value_of("os.pgfaults", None);
        k.touch(&mut m, base, true).unwrap();
        assert_eq!(k.metrics.value_of("os.pgfaults", None), faults_before + 1);
        assert_eq!(k.metrics.value_of("os.cow_breaks", None), 1);

        // Child still reads its own copy.
        k.context_switch(&mut m, child).unwrap();
        k.touch(&mut m, base, false).unwrap();

        // Child exits; parent waits.
        k.syscall(&mut m, Sys::Exit { code: 0 }).unwrap();
        k.context_switch(&mut m, 1).unwrap();
        assert_eq!(k.syscall(&mut m, Sys::Wait).unwrap(), child as u64);
    }

    #[test]
    fn fork_exec_wait_cycle() {
        let (mut k, mut m) = boot();
        let child = k.syscall(&mut m, Sys::Fork).unwrap() as Pid;
        k.context_switch(&mut m, child).unwrap();
        k.syscall(&mut m, Sys::Execve).unwrap();
        assert!(
            k.proc(child).aspace.resident() >= 5,
            "exec faulted in text+stack"
        );
        k.syscall(&mut m, Sys::Exit { code: 7 }).unwrap();
        k.context_switch(&mut m, 1).unwrap();
        assert_eq!(k.syscall(&mut m, Sys::Wait).unwrap(), child as u64);
        assert_eq!(k.syscall(&mut m, Sys::Wait), Err(Errno::Child));
    }

    #[test]
    fn pipe_roundtrip() {
        let (mut k, mut m) = boot();
        let buf = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let fds = k.syscall(&mut m, Sys::PipeCreate).unwrap();
        let (rfd, wfd) = ((fds >> 32) as Fd, (fds & 0xffff_ffff) as Fd);
        assert_eq!(
            k.syscall(
                &mut m,
                Sys::Read {
                    fd: rfd,
                    buf,
                    len: 10
                }
            ),
            Err(Errno::WouldBlock)
        );
        k.syscall(
            &mut m,
            Sys::Write {
                fd: wfd,
                buf,
                len: 10,
            },
        )
        .unwrap();
        assert_eq!(
            k.syscall(
                &mut m,
                Sys::Read {
                    fd: rfd,
                    buf,
                    len: 10
                }
            )
            .unwrap(),
            10
        );
    }

    #[test]
    fn munmap_returns_frames() {
        let (mut k, mut m) = boot();
        let in_use_before = m.frames.in_use();
        let base = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 8 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        k.touch_range(&mut m, base, 8 * PAGE_SIZE, true).unwrap();
        assert!(m.frames.in_use() > in_use_before);
        k.syscall(
            &mut m,
            Sys::Munmap {
                addr: base,
                len: 8 * PAGE_SIZE,
            },
        )
        .unwrap();
        // Data frames returned (intermediate PTPs may remain cached).
        assert!(m.frames.in_use() <= in_use_before + 4);
    }

    #[test]
    fn net_listen_without_nic_is_nosys() {
        let (mut k, mut m) = boot();
        let fd = k.syscall(&mut m, Sys::NetSocket).unwrap() as Fd;
        assert_eq!(
            k.syscall(&mut m, Sys::NetListen { fd, port: 80 }),
            Err(Errno::NoSys)
        );
    }

    #[test]
    fn brk_grows_heap() {
        let (mut k, mut m) = boot();
        let brk = k.syscall(&mut m, Sys::Brk { incr: 64 * 1024 }).unwrap();
        assert!(brk >= layout::HEAP_BASE + 64 * 1024);
        k.touch(&mut m, layout::HEAP_BASE, true).unwrap();
    }
}
