//! The para-virtualized guest kernel.
//!
//! One kernel, four platforms: the same process/memory/VFS/network code
//! runs natively (RunC), under hardware virtualization (HVM), under
//! software virtualization (PVM), and under CKI's PKS-based third privilege
//! level — the comparison structure of the paper's evaluation (§7).
//!
//! The privileged-operation boundary is the [`platform::Platform`] trait;
//! everything above it is platform-independent guest-kernel code.

pub mod blockfs;
pub mod costs;
pub mod env;
pub mod flows;
pub mod kernel;
#[cfg(test)]
mod kernel_tests;
pub mod platform;
pub mod process;
pub mod syscall;
pub mod vfs;

pub use blockfs::BlockFs;
pub use env::Env;
pub use kernel::{Kernel, Stats};
pub use platform::{Hypercall, MapFault, NativePlatform, Platform};
pub use process::{Fd, Pid, Process, Vma, VmaKind};
pub use syscall::{Errno, Sys, SysResult};
pub use vfs::TmpFs;
