//! Software-side cycle costs of guest-kernel operations.
//!
//! These are costs of kernel *code*, identical across platforms (the same
//! guest kernel runs everywhere); platform-dependent costs live in the
//! [`crate::platform::Platform`] implementations and `sim_hw::CostModel`.
//! Values are cycles at 2.4 GHz, sized so native (RunC) composite paths
//! match lmbench-class numbers on the paper's testbed.

/// Syscall dispatch + common entry bookkeeping (getpid ≈ dispatch only, so
/// native getpid = entry(60) + 2×swapgs(16) + dispatch(90) + sysret(50)
/// ≈ 216 cycles = 90 ns, Table 2).
pub const DISPATCH: u64 = 90;

/// File-descriptor table lookup.
pub const FD_LOOKUP: u64 = 55;

/// Path resolution per component set (tmpfs dentry hash).
pub const PATH_LOOKUP: u64 = 330;

/// Page-cache lookup per page.
pub const PAGE_CACHE: u64 = 120;

/// stat() attribute marshalling.
pub const STAT_FILL: u64 = 180;

/// Scheduler pick-next + runqueue maintenance.
pub const SCHED_PICK: u64 = 240;

/// Register save/restore on a context switch (FPU excluded, lazy).
pub const CTX_REGS: u64 = 180;

/// Process-descriptor allocation and copy at fork.
pub const FORK_TASK: u64 = 46_000;

/// Per-VMA copy cost at fork.
pub const FORK_PER_VMA: u64 = 160;

/// execve image setup (ELF-ish parse and map).
pub const EXEC_SETUP: u64 = 58_000;

/// Process teardown fixed cost at exit.
pub const EXIT_TASK: u64 = 22_000;

/// wait() reaping.
pub const WAIT_REAP: u64 = 350;

/// Pipe buffer bookkeeping per operation.
pub const PIPE_OP: u64 = 210;

/// Socket (AF_UNIX) bookkeeping per operation — heavier than a pipe.
pub const SOCK_OP: u64 = 420;

/// TCP/IP-over-VirtIO protocol processing per packet (guest side).
pub const TCP_STACK: u64 = 1450;

/// VMA tree insert/remove.
pub const VMA_OP: u64 = 300;

/// mprotect per-page PTE visit overhead beyond the platform PTE write.
pub const MPROTECT_PER_PAGE: u64 = 45;

/// Page-fault handler software path (beyond the platform delivery cost and
/// the allocation/zero/map charges): VMA lookup is charged separately via
/// `CostModel::vma_lookup`.
pub const PF_SOFT: u64 = 220;

/// fsync on tmpfs (no device, just dirtying bookkeeping).
pub const FSYNC_TMPFS: u64 = 260;
