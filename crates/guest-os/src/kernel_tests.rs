//! Edge-case tests for the guest kernel (error paths, resource accounting,
//! lifecycle corner cases).

use crate::kernel::Kernel;
use crate::platform::NativePlatform;
use crate::process::{layout, Fd};
use crate::syscall::{Errno, Sys};
use sim_hw::{HwExtensions, Machine};
use sim_mem::PAGE_SIZE;

fn boot() -> (Kernel, Machine) {
    let mut m = Machine::new(512 * 1024 * 1024, HwExtensions::baseline());
    let k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
    (k, m)
}

#[test]
fn bad_descriptors() {
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
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Read {
                fd: 99,
                buf,
                len: 1
            }
        ),
        Err(Errno::BadF)
    );
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Write {
                fd: -1,
                buf,
                len: 1
            }
        ),
        Err(Errno::BadF)
    );
    assert_eq!(k.syscall(&mut m, Sys::Close { fd: 42 }), Err(Errno::BadF));
    assert_eq!(k.syscall(&mut m, Sys::Fsync { fd: 7 }), Err(Errno::BadF));
    // Double close.
    let fd = k
        .syscall(
            &mut m,
            Sys::Open {
                path: "/x",
                create: true,
                trunc: false,
            },
        )
        .unwrap() as Fd;
    k.syscall(&mut m, Sys::Close { fd }).unwrap();
    assert_eq!(k.syscall(&mut m, Sys::Close { fd }), Err(Errno::BadF));
}

#[test]
fn pipe_direction_enforced() {
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
            Sys::Write {
                fd: rfd,
                buf,
                len: 1
            }
        ),
        Err(Errno::BadF)
    );
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Read {
                fd: wfd,
                buf,
                len: 1
            }
        ),
        Err(Errno::BadF)
    );
}

#[test]
fn pipe_capacity_blocks_writer() {
    let (mut k, mut m) = boot();
    let buf = k
        .syscall(
            &mut m,
            Sys::Mmap {
                len: 128 * 1024,
                write: true,
            },
        )
        .unwrap();
    k.touch_range(&mut m, buf, 128 * 1024, true).unwrap();
    let fds = k.syscall(&mut m, Sys::PipeCreate).unwrap();
    let (rfd, wfd) = ((fds >> 32) as Fd, (fds & 0xffff_ffff) as Fd);
    // Fill to capacity (64 KiB).
    k.syscall(
        &mut m,
        Sys::Write {
            fd: wfd,
            buf,
            len: 64 * 1024,
        },
    )
    .unwrap();
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Write {
                fd: wfd,
                buf,
                len: 1
            }
        ),
        Err(Errno::WouldBlock)
    );
    // Drain, then write again.
    k.syscall(
        &mut m,
        Sys::Read {
            fd: rfd,
            buf,
            len: 64 * 1024,
        },
    )
    .unwrap();
    k.syscall(
        &mut m,
        Sys::Write {
            fd: wfd,
            buf,
            len: 1,
        },
    )
    .unwrap();
}

#[test]
fn mmap_zero_and_bad_munmap() {
    let (mut k, mut m) = boot();
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Mmap {
                len: 0,
                write: true
            }
        ),
        Err(Errno::Inval)
    );
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Munmap {
                addr: 0xdead_0000,
                len: PAGE_SIZE
            }
        ),
        Err(Errno::Inval)
    );
    // Partial munmap of a region is rejected (exact ranges only).
    let base = k
        .syscall(
            &mut m,
            Sys::Mmap {
                len: 4 * PAGE_SIZE,
                write: true,
            },
        )
        .unwrap();
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Munmap {
                addr: base,
                len: PAGE_SIZE
            }
        ),
        Err(Errno::Inval)
    );
}

#[test]
fn wait_semantics() {
    let (mut k, mut m) = boot();
    // No children at all.
    assert_eq!(k.syscall(&mut m, Sys::Wait), Err(Errno::Child));
    // A live (non-zombie) child is not reaped.
    let child = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    assert_eq!(k.syscall(&mut m, Sys::Wait), Err(Errno::Child));
    k.context_switch(&mut m, child).unwrap();
    k.syscall(&mut m, Sys::Exit { code: 5 }).unwrap();
    k.context_switch(&mut m, 1).unwrap();
    assert_eq!(k.syscall(&mut m, Sys::Wait).unwrap(), child as u64);
}

#[test]
fn grandchildren_are_reaped_by_their_parent() {
    let (mut k, mut m) = boot();
    let child = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    k.context_switch(&mut m, child).unwrap();
    let grandchild = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    k.context_switch(&mut m, grandchild).unwrap();
    k.syscall(&mut m, Sys::Exit { code: 0 }).unwrap();
    // Init (pid 1) cannot reap the grandchild; its parent can.
    k.context_switch(&mut m, 1).unwrap();
    assert_eq!(k.syscall(&mut m, Sys::Wait), Err(Errno::Child));
    k.context_switch(&mut m, child).unwrap();
    assert_eq!(k.syscall(&mut m, Sys::Wait).unwrap(), grandchild as u64);
}

#[test]
fn deep_cow_chain() {
    // fork → fork → writes at every level keep data independent.
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
    let c1 = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    k.context_switch(&mut m, c1).unwrap();
    let c2 = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    // Every process writes the shared page; each write breaks a COW link.
    for &pid in &[c2, c1, 1u32] {
        k.context_switch(&mut m, pid).unwrap();
        k.touch(&mut m, base, true).unwrap();
    }
    assert!(k.stats().cow_breaks >= 2, "{}", k.stats().cow_breaks);
}

#[test]
fn frames_fully_reclaimed_after_process_tree_exits() {
    let (mut k, mut m) = boot();
    let baseline = m.frames.in_use();
    // Build a little process tree with working sets, then tear it down.
    let base = k
        .syscall(
            &mut m,
            Sys::Mmap {
                len: 64 * PAGE_SIZE,
                write: true,
            },
        )
        .unwrap();
    k.touch_range(&mut m, base, 64 * PAGE_SIZE, true).unwrap();
    let child = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    k.context_switch(&mut m, child).unwrap();
    k.touch_range(&mut m, base, 32 * PAGE_SIZE, true).unwrap(); // COW copies
    k.syscall(&mut m, Sys::Exit { code: 0 }).unwrap();
    k.context_switch(&mut m, 1).unwrap();
    k.syscall(&mut m, Sys::Wait).unwrap();
    k.syscall(
        &mut m,
        Sys::Munmap {
            addr: base,
            len: 64 * PAGE_SIZE,
        },
    )
    .unwrap();
    // Everything except page-table pages cached by the allocator is back.
    let leaked = m.frames.in_use().saturating_sub(baseline);
    assert!(leaked <= 8, "leaked {leaked} frames");
}

#[test]
fn stack_grows_on_demand_and_guard_faults() {
    let (mut k, mut m) = boot();
    // Touch deep into the stack region: demand-paged.
    k.touch(&mut m, layout::STACK_TOP - 10 * PAGE_SIZE, true)
        .unwrap();
    // Below the stack VMA: segfault.
    let below = layout::STACK_TOP - (layout::STACK_PAGES + 2) * PAGE_SIZE;
    assert_eq!(k.touch(&mut m, below, true), Err(Errno::Fault));
}

#[test]
fn text_is_not_writable() {
    let (mut k, mut m) = boot();
    assert!(k.touch(&mut m, layout::TEXT_BASE, false).is_ok());
    assert_eq!(k.touch(&mut m, layout::TEXT_BASE, true), Err(Errno::Fault));
}

#[test]
fn execve_resets_address_space() {
    let (mut k, mut m) = boot();
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
    let resident_before = k.proc(1).aspace.resident();
    k.syscall(&mut m, Sys::Execve).unwrap();
    // Old mappings are gone; the fresh image is small.
    assert!(k.proc(1).aspace.resident() < resident_before);
    assert_eq!(
        k.touch(&mut m, base, false),
        Err(Errno::Fault),
        "old mmap unmapped"
    );
}

#[test]
fn unlinked_open_file_still_readable() {
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
    let fd = k
        .syscall(
            &mut m,
            Sys::Open {
                path: "/u",
                create: true,
                trunc: false,
            },
        )
        .unwrap() as Fd;
    k.syscall(&mut m, Sys::Write { fd, buf, len: 100 }).unwrap();
    k.syscall(&mut m, Sys::Unlink { path: "/u" }).unwrap();
    assert_eq!(
        k.syscall(&mut m, Sys::Stat { path: "/u" }),
        Err(Errno::NoEnt)
    );
    // The open descriptor still works (unlink-while-open).
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
}

#[test]
fn fds_are_inherited_across_fork() {
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
    let fd = k
        .syscall(
            &mut m,
            Sys::Open {
                path: "/h",
                create: true,
                trunc: false,
            },
        )
        .unwrap() as Fd;
    k.syscall(&mut m, Sys::Write { fd, buf, len: 64 }).unwrap();
    let child = k.syscall(&mut m, Sys::Fork).unwrap() as u32;
    k.context_switch(&mut m, child).unwrap();
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::Pread {
                fd,
                buf,
                len: 64,
                offset: 0
            }
        )
        .unwrap(),
        64,
        "child sees the parent's descriptor"
    );
}

#[test]
fn per_syscall_stats_accumulate() {
    let (mut k, mut m) = boot();
    for _ in 0..5 {
        k.syscall(&mut m, Sys::Getpid).unwrap();
    }
    k.syscall(&mut m, Sys::Stat { path: "/nope" }).unwrap_err();
    assert_eq!(k.stats().per_syscall["getpid"], 5);
    assert_eq!(k.stats().per_syscall["stat"], 1);
    assert_eq!(k.stats().syscalls, 6);
}

/// A kernel with an 8-descriptor NIC and a socket connected to a peer
/// (ephemeral port 49152), plus a user buffer.
fn connected() -> (Kernel, Machine, Fd, u64) {
    let (mut k, mut m) = boot();
    k.attach_netif(&mut m, 8, 0xAA, netsim::Coalesce::default())
        .unwrap();
    let buf = k
        .syscall(
            &mut m,
            Sys::Mmap {
                len: 4 * PAGE_SIZE,
                write: true,
            },
        )
        .unwrap();
    let fd = k.syscall(&mut m, Sys::NetSocket).unwrap() as Fd;
    let port = k
        .syscall(
            &mut m,
            Sys::NetConnect {
                fd,
                mac: 0xBB,
                port: 80,
            },
        )
        .unwrap();
    assert_eq!(port, 49152);
    (k, m, fd, buf)
}

#[test]
fn long_send_is_segmented_into_max_payload_frames() {
    let (mut k, mut m, fd, buf) = connected();
    let len = 3 * netsim::MAX_PAYLOAD + 1;
    let hash = k.syscall(&mut m, Sys::NetSend { fd, buf, len }).unwrap();
    let stats = &k.netif().unwrap().stats;
    assert_eq!(stats.tx_frames, 4, "three full frames and one byte");
    assert_eq!(
        stats.tx_bytes,
        (len + 4 * netsim::frame::HEADER_BYTES) as u64,
        "every payload byte goes out, once"
    );
    let segments: Vec<netsim::Frame> = (0..4u64)
        .map(|i| netsim::Frame {
            dst: 0xBB,
            src: 0xAA,
            dst_port: 80,
            src_port: 49152,
            payload: netsim::payload_pattern(
                (49152 << 32) | i,
                if i < 3 { netsim::MAX_PAYLOAD } else { 1 },
            ),
        })
        .collect();
    assert_eq!(hash, netsim::message_hash(&segments));
    // The next send continues the sequence after the four segments.
    let next = k
        .syscall(&mut m, Sys::NetSend { fd, buf, len: 10 })
        .unwrap();
    assert_eq!(
        next,
        netsim::message_hash(&[netsim::Frame {
            payload: netsim::payload_pattern((49152 << 32) | 4, 10),
            ..segments[0].clone()
        }])
    );
}

#[test]
fn one_frame_send_hash_is_unchanged() {
    let (mut k, mut m, fd, buf) = connected();
    let hash = k
        .syscall(&mut m, Sys::NetSend { fd, buf, len: 100 })
        .unwrap();
    // The hash this send returned before sends were segmented.
    assert_eq!(hash, 0x04b3_255c_79bd_d0b7);
    assert_eq!(k.netif().unwrap().stats.tx_frames, 1);
}

#[test]
fn segmented_send_is_all_or_nothing() {
    let (mut k, mut m, fd, buf) = connected();
    let five = 5 * netsim::MAX_PAYLOAD;
    k.syscall(&mut m, Sys::NetSend { fd, buf, len: five })
        .unwrap();
    assert_eq!(
        k.syscall(&mut m, Sys::NetSend { fd, buf, len: five }),
        Err(Errno::WouldBlock),
        "3 of 8 descriptors free: nothing is queued"
    );
    assert_eq!(k.netif().unwrap().stats.tx_frames, 5);
    assert_eq!(
        k.syscall(
            &mut m,
            Sys::NetSend {
                fd,
                buf,
                len: 8 * netsim::MAX_PAYLOAD + 1
            }
        ),
        Err(Errno::Inval),
        "nine frames never fit an 8-descriptor ring"
    );
}

#[test]
fn unbound_socket_data_calls_are_inval() {
    for with_nic in [false, true] {
        let (mut k, mut m) = boot();
        if with_nic {
            k.attach_netif(&mut m, 8, 0xAA, netsim::Coalesce::default())
                .unwrap();
        }
        let buf = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let fd = k.syscall(&mut m, Sys::NetSocket).unwrap() as Fd;
        for sys in [
            Sys::NetRecv { fd, buf, len: 64 },
            Sys::NetSend { fd, buf, len: 64 },
            Sys::NetFlush { fd },
            Sys::NetAccept { fd },
        ] {
            assert_eq!(k.syscall(&mut m, sys), Err(Errno::Inval), "{sys:?}");
        }
    }
}

/// A kernel whose NIC (MAC 0xAA) loops back through a switch, a listener
/// on port 80 and a client connected to it, plus a user buffer and the
/// host service pass.
struct Loopback {
    k: Kernel,
    m: Machine,
    sw: netsim::HostSwitch,
    srv: Fd,
    cli: Fd,
    buf: u64,
}

impl Loopback {
    fn new() -> Self {
        let (mut k, mut m) = boot();
        let mut sw = netsim::HostSwitch::new(8);
        sw.attach(
            k.attach_netif(&mut m, 8, 0xAA, netsim::Coalesce::default())
                .unwrap(),
        );
        let buf = k
            .syscall(
                &mut m,
                Sys::Mmap {
                    len: 4 * PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        let srv = k.syscall(&mut m, Sys::NetSocket).unwrap() as Fd;
        k.syscall(&mut m, Sys::NetListen { fd: srv, port: 80 })
            .unwrap();
        let cli = k.syscall(&mut m, Sys::NetSocket).unwrap() as Fd;
        k.syscall(
            &mut m,
            Sys::NetConnect {
                fd: cli,
                mac: 0xAA,
                port: 80,
            },
        )
        .unwrap();
        Self {
            k,
            m,
            sw,
            srv,
            cli,
            buf,
        }
    }

    fn send(&mut self, len: usize) -> u64 {
        let (fd, buf) = (self.cli, self.buf);
        self.k
            .syscall(&mut self.m, Sys::NetSend { fd, buf, len })
            .unwrap()
    }

    fn service(&mut self) {
        let nic = self.k.netif_mut().expect("nic");
        let (mem, clock) = (&mut self.m.mem, &mut self.m.cpu.clock);
        self.sw.service(mem, clock, |visit| visit(nic), |_| {});
    }

    fn recv(&mut self) -> Result<u64, Errno> {
        let (fd, buf) = (self.srv, self.buf);
        self.k
            .syscall(&mut self.m, Sys::NetRecv { fd, buf, len: 2048 })
    }
}

/// A request crosses the switch loopback to the listener, and the response
/// rides `last_from` back to the client's ephemeral port.
#[test]
fn packet_sockets_loopback_roundtrip() {
    let mut lo = Loopback::new();
    let req = lo.send(100);
    lo.service();
    let (srv, cli, buf) = (lo.srv, lo.cli, lo.buf);
    let who = lo.k.syscall(&mut lo.m, Sys::NetAccept { fd: srv });
    assert_eq!(who, Ok((0xAA << 16) | 49152));
    assert_eq!(lo.recv(), Ok(req), "payload hash survives the dataplane");

    let resp = lo.k.syscall(
        &mut lo.m,
        Sys::NetSend {
            fd: srv,
            buf,
            len: 64,
        },
    );
    lo.service();
    let at_client = |lo: &mut Loopback| {
        let fd = cli;
        lo.k.syscall(&mut lo.m, Sys::NetRecv { fd, buf, len: 2048 })
    };
    assert_eq!(at_client(&mut lo), resp);
    assert_eq!(at_client(&mut lo), Err(Errno::WouldBlock));
    // A socket with no NIC-bound port still errors cleanly.
    let plain = lo.k.syscall(&mut lo.m, Sys::NetSocket).unwrap() as Fd;
    let accept = lo.k.syscall(&mut lo.m, Sys::NetAccept { fd: plain });
    assert_eq!(accept, Err(Errno::Inval));
}

/// `NetSend` and `NetRecv` return values as the byte-serial payload path
/// produced them: a one-frame send, then a four-frame send whose receives
/// return one hash per frame.
#[test]
fn net_send_and_recv_return_values_are_pinned() {
    let mut lo = Loopback::new();
    assert_eq!(lo.send(600), 0x0978_2298_a8b2_2952);
    lo.service();
    assert_eq!(lo.recv(), Ok(0x0978_2298_a8b2_2952));
    assert_eq!(lo.send(3 * netsim::MAX_PAYLOAD + 1), 0x5e06_582d_e206_a962);
    lo.service();
    let got: Vec<u64> = (0..4).map(|_| lo.recv().unwrap()).collect();
    assert_eq!(
        got,
        [
            0x6566_c2ad_5e32_3327,
            0x6387_6e9e_5fae_bc46,
            0x654e_1cb6_2477_f11c,
            0x2f63_de4c_8601_eff2
        ]
    );
    assert_eq!(lo.recv(), Err(Errno::WouldBlock));
}

/// Flips one payload byte of the frame in the buffer slot at `slot` and
/// returns the hash of the corrupted payload (`len` bytes).
fn corrupt_slot(m: &mut Machine, slot: u64, len: usize) -> u64 {
    let at = slot + netsim::frame::HEADER_BYTES as u64 + 5;
    let b = m.mem.read_u8(at);
    m.mem.write_u8(at, b ^ 0x40);
    let mut payload = vec![0; len];
    m.mem
        .read_bytes(slot + netsim::frame::HEADER_BYTES as u64, &mut payload);
    netsim::finish_hash(netsim::frame::fnv1a(&payload))
}

/// The hash `NetRecv` returns is computed from the bytes in the RX slot,
/// not carried over from the sender: a byte flipped there after delivery
/// changes it.
#[test]
fn recv_hash_reads_the_rx_slot() {
    let mut lo = Loopback::new();
    let sent = lo.send(600);
    lo.service();
    let slot = lo.k.netif().unwrap().rx_slots()[0];
    let corrupted = corrupt_slot(&mut lo.m, slot, 600);
    let got = lo.recv().unwrap();
    assert_ne!(got, sent);
    assert_eq!(got, corrupted);
}

/// A byte flipped in the TX slot before the host's service pass reaches
/// the receiver: the host reads the frame out of guest memory too.
#[test]
fn recv_hash_follows_a_tx_slot_flipped_before_service() {
    let mut lo = Loopback::new();
    let sent = lo.send(600);
    let slot = lo.k.netif().unwrap().tx_slots()[0];
    let corrupted = corrupt_slot(&mut lo.m, slot, 600);
    lo.service();
    let got = lo.recv().unwrap();
    assert_ne!(got, sent);
    assert_eq!(got, corrupted);
}
