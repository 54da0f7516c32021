//! Syscall interface of the guest kernel.
//!
//! Syscalls are modelled as a typed enum rather than a byte-level ABI; the
//! *path* a syscall takes (entry trap, dispatch, handler, exit) is charged
//! architecturally per platform, which is what the paper measures.

use sim_mem::Virt;

use crate::process::Fd;

/// Errors returned by syscalls (errno subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// No such file or directory.
    NoEnt,
    /// Bad file descriptor.
    BadF,
    /// Bad address / access violation (SIGSEGV stand-in).
    Fault,
    /// Out of memory.
    NoMem,
    /// No child processes.
    Child,
    /// Invalid argument.
    Inval,
    /// Broken pipe.
    Pipe,
    /// Operation would block.
    WouldBlock,
    /// Not implemented.
    NoSys,
}

/// Result of a syscall.
pub type SysResult = Result<u64, Errno>;

/// The syscall set (what the workload suite needs of Linux).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sys<'a> {
    /// getpid(2) — the paper's empty-syscall microbenchmark (Table 2).
    Getpid,
    /// read(2) from the current offset into `buf`.
    Read {
        /// Descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Bytes requested.
        len: usize,
    },
    /// write(2) at the current offset from `buf`.
    Write {
        /// Descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Bytes to write.
        len: usize,
    },
    /// pread(2).
    Pread {
        /// Descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Bytes requested.
        len: usize,
        /// File offset.
        offset: u64,
    },
    /// pwrite(2).
    Pwrite {
        /// Descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Bytes to write.
        len: usize,
        /// File offset.
        offset: u64,
    },
    /// open(2).
    Open {
        /// Path.
        path: &'a str,
        /// O_CREAT.
        create: bool,
        /// O_TRUNC.
        trunc: bool,
    },
    /// close(2).
    Close {
        /// Descriptor.
        fd: Fd,
    },
    /// stat(2).
    Stat {
        /// Path.
        path: &'a str,
    },
    /// fsync(2).
    Fsync {
        /// Descriptor.
        fd: Fd,
    },
    /// unlink(2).
    Unlink {
        /// Path.
        path: &'a str,
    },
    /// mmap(2) of anonymous memory; returns the base VA.
    Mmap {
        /// Length in bytes.
        len: u64,
        /// PROT_WRITE.
        write: bool,
    },
    /// munmap(2).
    Munmap {
        /// Base VA (must match an mmap return).
        addr: Virt,
        /// Length.
        len: u64,
    },
    /// mprotect(2) over an mmap'd region.
    Mprotect {
        /// Base VA.
        addr: Virt,
        /// Length.
        len: u64,
        /// PROT_WRITE.
        write: bool,
    },
    /// brk(2) extension; returns the new brk.
    Brk {
        /// Bytes to grow by.
        incr: u64,
    },
    /// fork(2); returns the child pid.
    Fork,
    /// execve(2) — replaces the current image with a fresh one.
    Execve,
    /// _exit(2).
    Exit {
        /// Exit code.
        code: i32,
    },
    /// waitpid(2) for any zombie child; returns its pid.
    Wait,
    /// pipe(2); returns `read_fd << 32 | write_fd`.
    PipeCreate,
    /// socketpair(AF_UNIX); returns `fd_a << 32 | fd_b`.
    SocketPair,
    /// Creates an unbound network socket; returns the fd. Data-path calls
    /// on it return `Inval` until `NetListen` or `NetConnect` binds it.
    NetSocket,
    /// Binds the socket to `port` and marks it listening. Requires a NIC
    /// (`Kernel::attach_netif`); returns `NoSys` otherwise.
    NetListen {
        /// Socket descriptor.
        fd: Fd,
        /// Port to listen on.
        port: u16,
    },
    /// Connects the socket to `mac`:`port`, assigning an ephemeral local
    /// port. Requires a NIC.
    NetConnect {
        /// Socket descriptor.
        fd: Fd,
        /// Destination MAC (another container's NIC).
        mac: u64,
        /// Destination port.
        port: u16,
    },
    /// Accepts the next peer on a listening socket; returns
    /// `src_mac << 16 | src_port` without consuming the queued frame.
    NetAccept {
        /// Socket descriptor.
        fd: Fd,
    },
    /// Receives one frame on a bound socket; returns its payload hash.
    /// `WouldBlock` (after ringing any pending doorbell) when none queued.
    NetRecv {
        /// Socket descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Buffer length.
        len: usize,
    },
    /// Sends `len` bytes to the socket's peer (or to the sender of the
    /// last received frame) as `MAX_PAYLOAD`-byte frames, all queued or
    /// none; returns the payload hash. `WouldBlock` when the TX ring is
    /// full.
    NetSend {
        /// Socket descriptor.
        fd: Fd,
        /// User buffer VA.
        buf: Virt,
        /// Bytes to send.
        len: usize,
    },
    /// Rings the doorbell for TX frames the coalescing policy is still
    /// holding back — end of an event-loop batch.
    NetFlush {
        /// Socket descriptor.
        fd: Fd,
    },
    /// sched_yield(2).
    Yield,
}

impl Sys<'_> {
    /// Number of syscall kinds; [`Sys::nr`] is below it.
    pub const KINDS: usize = 28;

    /// Dense number of the syscall's kind, in declaration order (for
    /// per-kind tables such as the kernel's per-syscall counter ids).
    pub fn nr(&self) -> usize {
        match self {
            Sys::Getpid => 0,
            Sys::Read { .. } => 1,
            Sys::Write { .. } => 2,
            Sys::Pread { .. } => 3,
            Sys::Pwrite { .. } => 4,
            Sys::Open { .. } => 5,
            Sys::Close { .. } => 6,
            Sys::Stat { .. } => 7,
            Sys::Fsync { .. } => 8,
            Sys::Unlink { .. } => 9,
            Sys::Mmap { .. } => 10,
            Sys::Munmap { .. } => 11,
            Sys::Mprotect { .. } => 12,
            Sys::Brk { .. } => 13,
            Sys::Fork => 14,
            Sys::Execve => 15,
            Sys::Exit { .. } => 16,
            Sys::Wait => 17,
            Sys::PipeCreate => 18,
            Sys::SocketPair => 19,
            Sys::NetSocket => 20,
            Sys::NetListen { .. } => 21,
            Sys::NetConnect { .. } => 22,
            Sys::NetAccept { .. } => 23,
            Sys::NetRecv { .. } => 24,
            Sys::NetSend { .. } => 25,
            Sys::NetFlush { .. } => 26,
            Sys::Yield => 27,
        }
    }

    /// Short name for tracing and per-syscall statistics.
    pub fn name(&self) -> &'static str {
        NAMES[self.nr()]
    }
}

/// [`Sys::name`] by [`Sys::nr`].
const NAMES: [&str; Sys::KINDS] = [
    "getpid",
    "read",
    "write",
    "pread",
    "pwrite",
    "open",
    "close",
    "stat",
    "fsync",
    "unlink",
    "mmap",
    "munmap",
    "mprotect",
    "brk",
    "fork",
    "execve",
    "exit",
    "wait",
    "pipe",
    "socketpair",
    "socket",
    "listen",
    "connect",
    "accept",
    "recv",
    "send",
    "flush",
    "yield",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        for (i, a) in NAMES.iter().enumerate() {
            assert!(!NAMES[..i].contains(a), "{a} twice");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Sys::Getpid.name(), "getpid");
        assert_eq!(Sys::Fork.name(), "fork");
        assert_eq!(
            Sys::NetRecv {
                fd: 3,
                buf: 0,
                len: 0
            }
            .name(),
            "recv"
        );
    }
}
