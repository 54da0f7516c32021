//! Composite benchmark flows over the kernel API (lmbench-style).
//!
//! These procedures orchestrate multiple processes deterministically,
//! exercising exactly the kernel paths lmbench measures (Figure 11):
//! context switches, pipe and AF_UNIX latency, fork/exit, fork/execve.

use sim_hw::Machine;

use crate::kernel::Kernel;
use crate::process::Fd;
use crate::syscall::{Errno, Sys};

/// Result of one flow: iterations and simulated duration.
#[derive(Debug, Clone, Copy)]
pub struct FlowResult {
    /// Iterations completed.
    pub iters: u64,
    /// Total simulated nanoseconds.
    pub total_ns: f64,
}

impl FlowResult {
    /// Nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.total_ns / self.iters as f64
        }
    }
}

/// lmbench `lat_ctx 2p/0k`: two processes ping-pong via a pair of pipes;
/// each hop is a syscall pair plus a full context switch.
pub fn ctxsw_2p(k: &mut Kernel, m: &mut Machine, iters: u64) -> Result<FlowResult, Errno> {
    let buf = k.syscall(
        m,
        Sys::Mmap {
            len: 4096,
            write: true,
        },
    )?;
    k.touch(m, buf, true)?;
    let fds_ab = k.syscall(m, Sys::PipeCreate)?;
    let fds_ba = k.syscall(m, Sys::PipeCreate)?;
    let (r_ab, w_ab) = ((fds_ab >> 32) as Fd, (fds_ab & 0xffff_ffff) as Fd);
    let (r_ba, w_ba) = ((fds_ba >> 32) as Fd, (fds_ba & 0xffff_ffff) as Fd);
    let a = k.current;
    let b = k.syscall(m, Sys::Fork)? as u32;

    let start = m.cpu.clock.mark();
    for _ in 0..iters {
        // A writes a token, blocks reading the return pipe; switch to B.
        k.syscall(
            m,
            Sys::Write {
                fd: w_ab,
                buf,
                len: 1,
            },
        )?;
        let r = k.syscall(
            m,
            Sys::Read {
                fd: r_ba,
                buf,
                len: 1,
            },
        );
        debug_assert_eq!(r, Err(Errno::WouldBlock));
        k.context_switch(m, b)?;
        // B reads the token, writes back, blocks; switch to A.
        k.syscall(
            m,
            Sys::Read {
                fd: r_ab,
                buf,
                len: 1,
            },
        )?;
        k.syscall(
            m,
            Sys::Write {
                fd: w_ba,
                buf,
                len: 1,
            },
        )?;
        k.context_switch(m, a)?;
        k.syscall(
            m,
            Sys::Read {
                fd: r_ba,
                buf,
                len: 1,
            },
        )?;
    }
    let total_ns = m.cpu.clock.since_ns(start);
    // One iteration contains two context switches; lmbench reports one.
    Ok(FlowResult {
        iters: iters * 2,
        total_ns,
    })
}

/// lmbench `lat_pipe` / `lat_unix`: round-trip latency of a 1-byte token
/// between two processes over a pipe or an AF_UNIX socket pair.
pub fn pingpong(
    k: &mut Kernel,
    m: &mut Machine,
    iters: u64,
    unix_socket: bool,
    payload: usize,
) -> Result<FlowResult, Errno> {
    let buf = k.syscall(
        m,
        Sys::Mmap {
            len: 64 * 1024,
            write: true,
        },
    )?;
    k.touch_range(m, buf, payload.max(1) as u64, true)?;
    let mk = if unix_socket {
        Sys::SocketPair
    } else {
        Sys::PipeCreate
    };
    let fds_ab = k.syscall(m, mk)?;
    let fds_ba = k.syscall(m, mk)?;
    let (r_ab, w_ab) = ((fds_ab >> 32) as Fd, (fds_ab & 0xffff_ffff) as Fd);
    let (r_ba, w_ba) = ((fds_ba >> 32) as Fd, (fds_ba & 0xffff_ffff) as Fd);
    let a = k.current;
    let b = k.syscall(m, Sys::Fork)? as u32;

    let start = m.cpu.clock.mark();
    for _ in 0..iters {
        k.syscall(
            m,
            Sys::Write {
                fd: w_ab,
                buf,
                len: payload,
            },
        )?;
        k.context_switch(m, b)?;
        k.syscall(
            m,
            Sys::Read {
                fd: r_ab,
                buf,
                len: payload,
            },
        )?;
        k.syscall(
            m,
            Sys::Write {
                fd: w_ba,
                buf,
                len: payload,
            },
        )?;
        k.context_switch(m, a)?;
        k.syscall(
            m,
            Sys::Read {
                fd: r_ba,
                buf,
                len: payload,
            },
        )?;
    }
    let total_ns = m.cpu.clock.since_ns(start);
    Ok(FlowResult { iters, total_ns })
}

/// lmbench `lat_proc fork`: fork a child that exits immediately; wait.
pub fn fork_exit(k: &mut Kernel, m: &mut Machine, iters: u64) -> Result<FlowResult, Errno> {
    let parent = k.current;
    // Give the parent a working set so fork has page tables to copy.
    let base = k.syscall(
        m,
        Sys::Mmap {
            len: 256 * 4096,
            write: true,
        },
    )?;
    k.touch_range(m, base, 256 * 4096, true)?;

    let start = m.cpu.clock.mark();
    for _ in 0..iters {
        let child = k.syscall(m, Sys::Fork)? as u32;
        k.context_switch(m, child)?;
        k.syscall(m, Sys::Exit { code: 0 })?;
        k.context_switch(m, parent)?;
        k.syscall(m, Sys::Wait)?;
    }
    let total_ns = m.cpu.clock.since_ns(start);
    Ok(FlowResult { iters, total_ns })
}

/// lmbench `lat_proc exec`: fork + execve + exit + wait.
pub fn fork_execve(k: &mut Kernel, m: &mut Machine, iters: u64) -> Result<FlowResult, Errno> {
    let parent = k.current;
    let base = k.syscall(
        m,
        Sys::Mmap {
            len: 256 * 4096,
            write: true,
        },
    )?;
    k.touch_range(m, base, 256 * 4096, true)?;

    let start = m.cpu.clock.mark();
    for _ in 0..iters {
        let child = k.syscall(m, Sys::Fork)? as u32;
        k.context_switch(m, child)?;
        k.syscall(m, Sys::Execve)?;
        k.syscall(m, Sys::Exit { code: 0 })?;
        k.context_switch(m, parent)?;
        k.syscall(m, Sys::Wait)?;
    }
    let total_ns = m.cpu.clock.since_ns(start);
    Ok(FlowResult { iters, total_ns })
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
    fn ctxsw_flow_runs() {
        let (mut k, mut m) = boot();
        let r = ctxsw_2p(&mut k, &mut m, 100).unwrap();
        assert_eq!(r.iters, 200);
        // Native 2p/0k context switch is on the order of a microsecond.
        assert!(
            (300.0..4000.0).contains(&r.ns_per_iter()),
            "{}",
            r.ns_per_iter()
        );
        assert!(k.metrics.value_of("os.ctx_switches", None) >= 200);
    }

    #[test]
    fn pipe_vs_unix_latency_ordering() {
        let (mut k, mut m) = boot();
        let pipe = pingpong(&mut k, &mut m, 100, false, 1).unwrap();
        let (mut k2, mut m2) = boot();
        let unix = pingpong(&mut k2, &mut m2, 100, true, 1).unwrap();
        assert!(
            unix.ns_per_iter() > pipe.ns_per_iter(),
            "AF_UNIX ({}) should cost more than a pipe ({})",
            unix.ns_per_iter(),
            pipe.ns_per_iter()
        );
    }

    #[test]
    fn fork_flows_complete_and_cleanup() {
        let (mut k, mut m) = boot();
        let r = fork_exit(&mut k, &mut m, 10).unwrap();
        assert!(
            r.ns_per_iter() > 10_000.0,
            "fork/exit is tens of µs: {}",
            r.ns_per_iter()
        );
        assert_eq!(k.nprocs(), 1, "children reaped");
        let r2 = fork_execve(&mut k, &mut m, 10).unwrap();
        assert!(r2.ns_per_iter() > r.ns_per_iter(), "execve adds cost");
        assert_eq!(k.nprocs(), 1);
    }
}
