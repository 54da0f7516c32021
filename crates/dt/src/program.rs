//! The workload-program IR shared by the fuzzer, the lockstep oracle, the
//! shrinker and the corpus.
//!
//! A [`Program`] is a flat list of [`Op`]s plus the seed it was generated
//! from. Ops are *closed over a small resource universe* (4 file paths,
//! 4 mmap regions, 8 fd slots, one NIC with two sockets) so any op sequence is
//! executable from any prefix — the property the delta-debugging shrinker
//! relies on. Programs serialize to a line-oriented text format so minimal
//! reproducers can live under `tests/corpus/` and replay byte-for-byte.

use obs::rng::SmallRng;

/// The file paths every program operates on.
pub const PATHS: [&str; 4] = ["/a", "/b", "/c", "/d"];

/// Number of mmap region slots a program addresses.
pub const REGION_SLOTS: usize = 4;

/// One scripted operation against a container stack.
///
/// Every operand is a small index into the program's resource universe,
/// never a raw address — the executor owns the mapping from slots to VAs
/// and fds, which is what keeps one program meaningful on 8 different
/// backends at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// getpid(2).
    Getpid,
    /// open(2) with O_CREAT on `PATHS[i]`.
    Open(u8),
    /// close(2) on fd slot.
    CloseFd(u8),
    /// write(2) at the current offset.
    WriteFd {
        /// Fd slot.
        fd: u8,
        /// Byte count.
        len: u16,
    },
    /// read(2) at the current offset.
    ReadFd {
        /// Fd slot.
        fd: u8,
        /// Byte count.
        len: u16,
    },
    /// pwrite(2).
    PwriteFd {
        /// Fd slot.
        fd: u8,
        /// Byte count.
        len: u16,
        /// File offset.
        off: u16,
    },
    /// pread(2).
    PreadFd {
        /// Fd slot.
        fd: u8,
        /// Byte count.
        len: u16,
        /// File offset.
        off: u16,
    },
    /// stat(2) on `PATHS[i]`.
    Stat(u8),
    /// fsync(2) on fd slot.
    Fsync(u8),
    /// unlink(2) on `PATHS[i]`.
    Unlink(u8),
    /// Anonymous mmap of `pages` pages, recorded in region `slot`.
    Mmap {
        /// Page count (1..=16).
        pages: u8,
        /// Which region slot records the mapping.
        slot: u8,
    },
    /// User access to one page of a region (faults demand-map it).
    TouchRegion {
        /// Region slot.
        region: u8,
        /// Page index within the region (mod its length).
        page: u8,
        /// Write (true) or read access.
        write: bool,
    },
    /// munmap(2) of a whole region slot.
    MunmapRegion(u8),
    /// mprotect(2) over a whole region slot.
    Mprotect {
        /// Region slot.
        region: u8,
        /// PROT_WRITE.
        write: bool,
    },
    /// brk(2) growth.
    Brk {
        /// Bytes to grow by.
        incr: u16,
    },
    /// pipe(2).
    Pipe,
    /// socketpair(AF_UNIX).
    SocketPair,
    /// fork(2); the child joins the scheduling rotation.
    Fork,
    /// Context-switch to the next live pid (multi-container switch path).
    SwitchNext,
    /// If running in a child: exit, reap from pid 1.
    ExitIfChild,
    /// sched_yield(2).
    Yield,
    /// Set up the net fixture: a virtqueue NIC on the
    /// stack's guest memory, a depth-bounded host switch, and two sockets
    /// (a listener and a client). Idempotent; returns `lfd << 8 | cfd`.
    NetOpen,
    /// Listen on the fixture's listener socket (port `1000 + p % 8`).
    NetListen {
        /// Port selector.
        port: u8,
    },
    /// Connect the fixture's client socket to the stack's own MAC (the
    /// switch hairpins it), port `1000 + p % 8`.
    NetConnect {
        /// Port selector.
        port: u8,
    },
    /// Send on a fixture socket (longer than one frame: several frames,
    /// all or none); returns the payload hash.
    NetSendTo {
        /// Socket selector: 0 = listener (reply path), else client.
        sock: u8,
        /// Payload bytes.
        len: u16,
    },
    /// Receive one frame from a fixture socket; returns the payload hash.
    NetRecvFrom {
        /// Socket selector: 0 = listener, else client.
        sock: u8,
    },
    /// Accept the next peer on the fixture's listener.
    NetAccept,
    /// One host service pass over the fixture switch (bounded FIFO —
    /// backpressured frames stay on the TX ring); returns frames moved.
    NetService,
    /// Arm the preemption timer (subsequent ops run under tick pressure).
    EnablePreemption {
        /// Quantum in microseconds.
        quantum_us: u16,
    },
    /// Pkey/blocked-instruction attack probe: executes one destructive
    /// privileged instruction from guest-kernel context. Functionally a
    /// no-op on every backend; not comparable (the whole point is that
    /// only CKI hardware blocks it — an invariant checker asserts that).
    PkProbe(u8),
    /// KSM attack probe: attempts a store to the current root's declared
    /// page-table page. Must die on a PK violation under CKI; skipped (and
    /// not compared) elsewhere.
    PtpWriteProbe,
}

impl Op {
    /// Whether the op's result is architecture-independent and participates
    /// in the lockstep fingerprint comparison. Attack probes intentionally
    /// behave differently on CKI vs baseline hardware, so they are checked
    /// by invariants instead.
    pub fn is_comparable(&self) -> bool {
        !matches!(self, Op::PkProbe(_) | Op::PtpWriteProbe)
    }

    /// One-line serialization (inverse of [`Op::parse_line`]).
    pub fn to_line(&self) -> String {
        match *self {
            Op::Getpid => "getpid".into(),
            Op::Open(i) => format!("open {i}"),
            Op::CloseFd(fd) => format!("close {fd}"),
            Op::WriteFd { fd, len } => format!("write {fd} {len}"),
            Op::ReadFd { fd, len } => format!("read {fd} {len}"),
            Op::PwriteFd { fd, len, off } => format!("pwrite {fd} {len} {off}"),
            Op::PreadFd { fd, len, off } => format!("pread {fd} {len} {off}"),
            Op::Stat(i) => format!("stat {i}"),
            Op::Fsync(fd) => format!("fsync {fd}"),
            Op::Unlink(i) => format!("unlink {i}"),
            Op::Mmap { pages, slot } => format!("mmap {pages} {slot}"),
            Op::TouchRegion {
                region,
                page,
                write,
            } => format!("touch {region} {page} {}", write as u8),
            Op::MunmapRegion(i) => format!("munmap {i}"),
            Op::Mprotect { region, write } => format!("mprotect {region} {}", write as u8),
            Op::Brk { incr } => format!("brk {incr}"),
            Op::Pipe => "pipe".into(),
            Op::SocketPair => "socketpair".into(),
            Op::Fork => "fork".into(),
            Op::SwitchNext => "switch".into(),
            Op::ExitIfChild => "exit-if-child".into(),
            Op::Yield => "yield".into(),
            Op::NetOpen => "netopen".into(),
            Op::NetListen { port } => format!("netlisten {port}"),
            Op::NetConnect { port } => format!("netconnect {port}"),
            Op::NetSendTo { sock, len } => format!("netsendto {sock} {len}"),
            Op::NetRecvFrom { sock } => format!("netrecvfrom {sock}"),
            Op::NetAccept => "netaccept".into(),
            Op::NetService => "netservice".into(),
            Op::EnablePreemption { quantum_us } => format!("preempt {quantum_us}"),
            Op::PkProbe(i) => format!("pkprobe {i}"),
            Op::PtpWriteProbe => "ptpwrite".into(),
        }
    }

    /// Parses one serialized op line.
    pub fn parse_line(line: &str) -> Result<Op, String> {
        let mut t = line.split_whitespace();
        let word = t.next().ok_or("empty op line")?;
        let mut num = |what: &str| -> Result<u64, String> {
            t.next()
                .ok_or(format!("{word}: missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("{word}: bad {what}: {e}"))
        };
        let op = match word {
            "getpid" => Op::Getpid,
            "open" => Op::Open(num("path")? as u8),
            "close" => Op::CloseFd(num("fd")? as u8),
            "write" => Op::WriteFd {
                fd: num("fd")? as u8,
                len: num("len")? as u16,
            },
            "read" => Op::ReadFd {
                fd: num("fd")? as u8,
                len: num("len")? as u16,
            },
            "pwrite" => Op::PwriteFd {
                fd: num("fd")? as u8,
                len: num("len")? as u16,
                off: num("off")? as u16,
            },
            "pread" => Op::PreadFd {
                fd: num("fd")? as u8,
                len: num("len")? as u16,
                off: num("off")? as u16,
            },
            "stat" => Op::Stat(num("path")? as u8),
            "fsync" => Op::Fsync(num("fd")? as u8),
            "unlink" => Op::Unlink(num("path")? as u8),
            "mmap" => Op::Mmap {
                pages: num("pages")? as u8,
                slot: num("slot")? as u8,
            },
            "touch" => Op::TouchRegion {
                region: num("region")? as u8,
                page: num("page")? as u8,
                write: num("write")? != 0,
            },
            "munmap" => Op::MunmapRegion(num("region")? as u8),
            "mprotect" => Op::Mprotect {
                region: num("region")? as u8,
                write: num("write")? != 0,
            },
            "brk" => Op::Brk {
                incr: num("incr")? as u16,
            },
            "pipe" => Op::Pipe,
            "socketpair" => Op::SocketPair,
            "fork" => Op::Fork,
            "switch" => Op::SwitchNext,
            "exit-if-child" => Op::ExitIfChild,
            "yield" => Op::Yield,
            "netopen" => Op::NetOpen,
            "netlisten" => Op::NetListen {
                port: num("port")? as u8,
            },
            "netconnect" => Op::NetConnect {
                port: num("port")? as u8,
            },
            "netsendto" => Op::NetSendTo {
                sock: num("sock")? as u8,
                len: num("len")? as u16,
            },
            "netrecvfrom" => Op::NetRecvFrom {
                sock: num("sock")? as u8,
            },
            "netaccept" => Op::NetAccept,
            "netservice" => Op::NetService,
            "preempt" => Op::EnablePreemption {
                quantum_us: num("quantum")? as u16,
            },
            "pkprobe" => Op::PkProbe(num("instr")? as u8),
            "ptpwrite" => Op::PtpWriteProbe,
            other => return Err(format!("unknown op '{other}'")),
        };
        if let Some(junk) = t.next() {
            return Err(format!("{word}: trailing token '{junk}'"));
        }
        Ok(op)
    }
}

/// Draws one random op. Attack probes and timer arming are deliberately
/// rare so most of a program is comparable work.
pub fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..40) {
        0 => Op::Getpid,
        1 => Op::Open(rng.gen_range(0u8..4)),
        2 => Op::CloseFd(rng.gen_range(0u8..8)),
        3 | 4 => Op::WriteFd {
            fd: rng.gen_range(0u8..8),
            len: rng.gen_range(1u16..5000),
        },
        5 | 6 => Op::ReadFd {
            fd: rng.gen_range(0u8..8),
            len: rng.gen_range(1u16..5000),
        },
        7 => Op::PwriteFd {
            fd: rng.gen_range(0u8..8),
            len: rng.gen_range(1u16..3000),
            off: rng.gen_range(0u16..8192),
        },
        8 => Op::PreadFd {
            fd: rng.gen_range(0u8..8),
            len: rng.gen_range(1u16..3000),
            off: rng.gen_range(0u16..8192),
        },
        9 => Op::Stat(rng.gen_range(0u8..4)),
        10 => Op::Fsync(rng.gen_range(0u8..8)),
        11 => Op::Unlink(rng.gen_range(0u8..4)),
        12 | 13 => Op::Mmap {
            pages: rng.gen_range(1u8..16),
            slot: rng.gen_range(0u8..REGION_SLOTS as u8),
        },
        14..=16 => Op::TouchRegion {
            region: rng.gen_range(0u8..4),
            page: rng.gen_range(0u8..16),
            write: rng.gen(),
        },
        17 => Op::MunmapRegion(rng.gen_range(0u8..4)),
        18 => Op::Mprotect {
            region: rng.gen_range(0u8..4),
            write: rng.gen(),
        },
        19 => Op::Brk {
            incr: rng.gen_range(1u16..16384),
        },
        20 => Op::Pipe,
        21 => Op::SocketPair,
        22 => Op::Fork,
        23 => Op::SwitchNext,
        24 => Op::ExitIfChild,
        25 => Op::Yield,
        26 => Op::NetOpen,
        27 | 28 => Op::NetSendTo {
            sock: rng.gen_range(0u8..2),
            len: rng.gen_range(1u16..5000),
        },
        29 => Op::NetRecvFrom {
            sock: rng.gen_range(0u8..2),
        },
        30 => {
            if rng.gen_bool(0.25) {
                Op::EnablePreemption {
                    quantum_us: rng.gen_range(50u16..2000),
                }
            } else {
                Op::Getpid
            }
        }
        31 => {
            if rng.gen_bool(0.5) {
                Op::PkProbe(rng.gen_range(0u8..4))
            } else {
                Op::PtpWriteProbe
            }
        }
        32 => Op::NetOpen,
        33 => Op::NetListen {
            port: rng.gen_range(0u8..8),
        },
        34 => Op::NetConnect {
            port: rng.gen_range(0u8..8),
        },
        35 | 36 => Op::NetSendTo {
            sock: rng.gen_range(0u8..2),
            len: rng.gen_range(1u16..1600),
        },
        37 => Op::NetRecvFrom {
            sock: rng.gen_range(0u8..2),
        },
        38 => Op::NetAccept,
        _ => Op::NetService,
    }
}

/// A seeded workload program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The generator seed (0 for hand-written or parsed programs without a
    /// header). Always printed in failure reports so any divergence can be
    /// replayed from the seed alone.
    pub seed: u64,
    /// The op sequence.
    pub ops: Vec<Op>,
}

impl Program {
    /// Generates the program for `seed` with at most `max_len` ops.
    pub fn generate(seed: u64, max_len: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..max_len.max(2));
        Self {
            seed,
            ops: (0..len).map(|_| random_op(&mut rng)).collect(),
        }
    }

    /// Serializes to the corpus text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# dt program v1\n");
        s.push_str(&format!("seed {:#x}\n", self.seed));
        for op in &self.ops {
            s.push_str(&op.to_line());
            s.push('\n');
        }
        s
    }

    /// Parses the corpus text format (inverse of [`Program::to_text`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut seed = 0u64;
        let mut ops = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("seed ") {
                let rest = rest.trim();
                seed = if let Some(hex) = rest.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    rest.parse()
                }
                .map_err(|e| format!("line {}: bad seed: {e}", n + 1))?;
                continue;
            }
            ops.push(Op::parse_line(line).map_err(|e| format!("line {}: {e}", n + 1))?);
        }
        if ops.is_empty() {
            return Err("program has no ops".into());
        }
        Ok(Self { seed, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Program::generate(42, 40), Program::generate(42, 40));
        assert_ne!(Program::generate(42, 40).ops, Program::generate(43, 40).ops);
    }

    #[test]
    fn text_roundtrip_every_variant() {
        let all = vec![
            Op::Getpid,
            Op::Open(3),
            Op::CloseFd(7),
            Op::WriteFd { fd: 1, len: 4999 },
            Op::ReadFd { fd: 0, len: 1 },
            Op::PwriteFd {
                fd: 2,
                len: 10,
                off: 8000,
            },
            Op::PreadFd {
                fd: 2,
                len: 10,
                off: 0,
            },
            Op::Stat(0),
            Op::Fsync(4),
            Op::Unlink(2),
            Op::Mmap { pages: 15, slot: 3 },
            Op::TouchRegion {
                region: 1,
                page: 9,
                write: true,
            },
            Op::MunmapRegion(2),
            Op::Mprotect {
                region: 0,
                write: false,
            },
            Op::Brk { incr: 12345 },
            Op::Pipe,
            Op::SocketPair,
            Op::Fork,
            Op::SwitchNext,
            Op::ExitIfChild,
            Op::Yield,
            Op::NetOpen,
            Op::NetListen { port: 5 },
            Op::NetConnect { port: 5 },
            Op::NetSendTo { sock: 1, len: 900 },
            Op::NetRecvFrom { sock: 0 },
            Op::NetAccept,
            Op::NetService,
            Op::EnablePreemption { quantum_us: 100 },
            Op::PkProbe(3),
            Op::PtpWriteProbe,
        ];
        let p = Program {
            seed: 0xDEAD_BEEF,
            ops: all,
        };
        let parsed = Program::parse(&p.to_text()).expect("parse");
        assert_eq!(parsed, p);
    }

    #[test]
    fn generated_programs_roundtrip() {
        for seed in 0..50u64 {
            let p = Program::generate(seed, 40);
            assert_eq!(Program::parse(&p.to_text()).unwrap(), p, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Program::parse("florble 3").is_err());
        assert!(Program::parse("getpid 3").is_err(), "trailing token");
        assert!(Program::parse("# only comments\n").is_err(), "no ops");
        assert!(Op::parse_line("write 1").is_err(), "missing operand");
    }

    #[test]
    fn probes_are_not_comparable() {
        assert!(!Op::PkProbe(0).is_comparable());
        assert!(!Op::PtpWriteProbe.is_comparable());
        assert!(Op::Getpid.is_comparable());
        assert!(Op::NetRecvFrom { sock: 0 }.is_comparable());
    }
}
