//! sqlite-bench on tmpfs (paper Figures 5, 14, 15).
//!
//! Models the LevelDB `db_bench_sqlite3` cases the paper runs. The database
//! file lives on tmpfs, so there is no virtualized I/O — what varies across
//! backends is pure *syscall* cost, and "the syscall redirection overhead of
//! PVM is correlated with syscall frequency" (§7.3). The model therefore
//! gets the per-operation syscall counts right:
//!
//! - Non-batched writes run in auto-commit: every INSERT journals
//!   (create/write/fsync/delete the rollback journal) plus the db-page
//!   write — the syscall-heavy cases of Figure 14.
//! - Batched writes amortize the journal over 1 000-row transactions.
//! - Reads are served mostly from SQLite's page cache, with occasional
//!   `pread` — the syscall-light cases where all backends converge.

use guest_os::{Env, Errno, Fd, Sys};
use obs::rng::SmallRng;

use crate::report::{Probe, Report};

/// One sqlite-bench case (Figure 14's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqliteCase {
    /// Sequential inserts, auto-commit.
    FillSeq,
    /// Sequential inserts, 1000-row transactions.
    FillSeqBatch,
    /// Random inserts, auto-commit.
    FillRandom,
    /// Random inserts, batched.
    FillRandBatch,
    /// Random overwrites, batched.
    OverwriteBatch,
    /// Sequential scans.
    ReadSeq,
    /// Random point reads.
    ReadRandom,
}

impl SqliteCase {
    /// The seven cases in figure order.
    pub const ALL: [SqliteCase; 7] = [
        SqliteCase::FillSeq,
        SqliteCase::FillSeqBatch,
        SqliteCase::FillRandom,
        SqliteCase::FillRandBatch,
        SqliteCase::OverwriteBatch,
        SqliteCase::ReadSeq,
        SqliteCase::ReadRandom,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SqliteCase::FillSeq => "fillseq",
            SqliteCase::FillSeqBatch => "fillseqbatch",
            SqliteCase::FillRandom => "fillrandom",
            SqliteCase::FillRandBatch => "fillrandbatch",
            SqliteCase::OverwriteBatch => "overwritebatch",
            SqliteCase::ReadSeq => "readseq",
            SqliteCase::ReadRandom => "readrandom",
        }
    }

    fn is_write(&self) -> bool {
        !matches!(self, SqliteCase::ReadSeq | SqliteCase::ReadRandom)
    }

    /// Whether the case wraps rows in 1000-row transactions.
    pub fn is_batched(&self) -> bool {
        matches!(
            self,
            SqliteCase::FillSeqBatch | SqliteCase::FillRandBatch | SqliteCase::OverwriteBatch
        )
    }
}

/// The sqlite-bench workload.
pub struct SqliteWorkload {
    /// Operations per case.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
}

/// SQLite's in-engine compute per row operation, in cycles: SQL parse
/// (prepared), B-tree descent, record encode. ~1.4 µs.
const ROW_COMPUTE: u64 = 5200;

/// Extra engine work per commit (journal bookkeeping).
const COMMIT_COMPUTE: u64 = 2600;

impl SqliteWorkload {
    /// Creates a workload issuing `ops` operations per case.
    pub fn new(ops: u64) -> Self {
        Self { ops, seed: 17 }
    }

    /// Runs one case, including a database fill for the read cases.
    pub fn run(&mut self, env: &mut Env<'_>, case: SqliteCase) -> Result<Report, Errno> {
        let buf = env.mmap(64 * 1024)?;
        env.touch_range(buf, 64 * 1024, true)?;
        let db = env.sys(Sys::Open {
            path: "/db/bench.sqlite",
            create: true,
            trunc: true,
        })? as Fd;

        if !case.is_write() {
            // Pre-populate with a batched fill so reads have data.
            self.fill(env, db, buf, self.ops, true, false)?;
        }

        let probe = Probe::start(env);
        match case {
            SqliteCase::FillSeq => self.fill(env, db, buf, self.ops, false, false)?,
            SqliteCase::FillSeqBatch => self.fill(env, db, buf, self.ops, true, false)?,
            SqliteCase::FillRandom => self.fill(env, db, buf, self.ops, false, true)?,
            SqliteCase::FillRandBatch => self.fill(env, db, buf, self.ops, true, true)?,
            SqliteCase::OverwriteBatch => self.fill(env, db, buf, self.ops, true, true)?,
            SqliteCase::ReadSeq => self.read(env, db, buf, self.ops, false)?,
            SqliteCase::ReadRandom => self.read(env, db, buf, self.ops, true)?,
        }
        let report = probe.finish(env, case.name(), self.ops);
        env.sys(Sys::Close { fd: db })?;
        Ok(report)
    }

    /// INSERT loop. Auto-commit journals per row; batches journal per 1000.
    fn fill(
        &mut self,
        env: &mut Env<'_>,
        db: Fd,
        buf: u64,
        ops: u64,
        batched: bool,
        random: bool,
    ) -> Result<(), Errno> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let batch = if batched { 1000 } else { 1 };
        let page = 4096usize;
        let mut row: u64 = 0;
        // journal_mode=PERSIST: the journal file is opened once and its
        // header invalidated per commit instead of create/unlink cycles.
        let j = env.sys(Sys::Open {
            path: "/db/bench.sqlite-journal",
            create: true,
            trunc: true,
        })? as Fd;
        while row < ops {
            // BEGIN: write the journal header.
            env.sys(Sys::Pwrite {
                fd: j,
                buf,
                len: 512,
                offset: 0,
            })?;
            let this_batch = batch.min(ops - row);
            let mut dirty_pages = 0u64;
            for i in 0..this_batch {
                let key = if random { rng.gen::<u64>() } else { row + i };
                env.compute(ROW_COMPUTE + (key % 7) * 10);
                // A dirty B-tree page every ~14 rows in a batch (116-byte
                // rows, 4 KiB pages, plus interior updates); in auto-commit
                // every row dirties its page.
                if !batched || i % 14 == 0 {
                    // Journal the original page, then update in cache.
                    env.sys(Sys::Pwrite {
                        fd: j,
                        buf,
                        len: page,
                        offset: 512 + dirty_pages * page as u64,
                    })?;
                    dirty_pages += 1;
                }
            }
            // COMMIT: flush journal, write db pages, fsync, invalidate the
            // journal header (PERSIST mode).
            env.sys(Sys::Fsync { fd: j })?;
            for p in 0..dirty_pages {
                env.sys(Sys::Pwrite {
                    fd: db,
                    buf,
                    len: page,
                    offset: p * page as u64,
                })?;
            }
            env.sys(Sys::Fsync { fd: db })?;
            env.compute(COMMIT_COMPUTE);
            row += this_batch;
        }
        env.sys(Sys::Close { fd: j })?;
        Ok(())
    }

    /// SELECT loop: mostly page-cache hits inside the engine.
    fn read(
        &mut self,
        env: &mut Env<'_>,
        db: Fd,
        buf: u64,
        ops: u64,
        random: bool,
    ) -> Result<(), Errno> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        for i in 0..ops {
            env.compute(ROW_COMPUTE * 2 / 3);
            let miss = if random {
                // Point reads miss the engine cache occasionally.
                rng.gen_ratio(1, 8)
            } else {
                // Scans cross a page boundary every ~35 rows.
                i % 35 == 0
            };
            if miss {
                let offset = if random {
                    rng.gen_range(0..256) * 4096
                } else {
                    (i / 35) * 4096
                };
                env.sys(Sys::Pread {
                    fd: db,
                    buf,
                    len: 4096,
                    offset,
                })?;
            }
        }
        Ok(())
    }
}

/// SQLite over the VirtIO block device (the `sqlite_blk` ablation): every
/// buffer-cache miss and every journal/db flush is a device request, so
/// the exit-class cost of the hosting design multiplies with I/O.
pub struct SqliteBlkWorkload {
    /// Operations per case.
    pub ops: u64,
    /// Buffer-cache blocks (small enough that reads miss sometimes).
    pub cache_blocks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SqliteBlkWorkload {
    /// Creates a block-device-backed run.
    pub fn new(ops: u64) -> Self {
        Self {
            ops,
            cache_blocks: 64,
            seed: 29,
        }
    }

    /// Runs one case against a freshly formatted block filesystem.
    pub fn run(&mut self, env: &mut Env<'_>, case: SqliteCase) -> Result<Report, Errno> {
        use guest_os::blockfs::{BlockFs, BLOCK_SIZE};
        let mut fs = BlockFs::format(env, 64 * 1024, self.cache_blocks);
        fs.create(env, "/db")?;
        fs.create(env, "/journal")?;
        let mut rng = SmallRng::seed_from_u64(self.seed);

        if !case.is_write() {
            // Pre-populate 1024 pages.
            for p in 0..1024u64 {
                fs.write(env, "/db", p * BLOCK_SIZE as u64, BLOCK_SIZE)?;
            }
            fs.sync(env)?;
        }

        let probe = Probe::start(env);
        let batch = if case.is_batched() { 1000 } else { 1 };
        let mut row = 0u64;
        match case {
            SqliteCase::ReadSeq | SqliteCase::ReadRandom => {
                for i in 0..self.ops {
                    env.compute(ROW_COMPUTE * 2 / 3);
                    let page = if case == SqliteCase::ReadRandom {
                        rng.gen_range(0..1024u64)
                    } else {
                        (i / 35) % 1024
                    };
                    fs.read(env, "/db", page * BLOCK_SIZE as u64, BLOCK_SIZE)?;
                }
            }
            _ => {
                while row < self.ops {
                    let this_batch = batch.min(self.ops - row);
                    let mut dirty = 0u64;
                    for i in 0..this_batch {
                        env.compute(ROW_COMPUTE);
                        if !case.is_batched() || i % 14 == 0 {
                            fs.write(env, "/journal", dirty * BLOCK_SIZE as u64, BLOCK_SIZE)?;
                            dirty += 1;
                        }
                    }
                    fs.sync(env)?;
                    for p in 0..dirty {
                        let page =
                            if case == SqliteCase::FillSeq || case == SqliteCase::FillSeqBatch {
                                (row / 14 + p) % 16 * 1024
                            } else {
                                rng.gen_range(0..1024u64)
                            };
                        fs.write(env, "/db", page % 1024 * BLOCK_SIZE as u64, BLOCK_SIZE)?;
                    }
                    fs.sync(env)?;
                    env.compute(COMMIT_COMPUTE);
                    row += this_batch;
                }
            }
        }
        Ok(probe.finish(env, case.name(), self.ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::{Kernel, NativePlatform};
    use sim_hw::{HwExtensions, Machine};

    fn run(case: SqliteCase, ops: u64) -> Report {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        SqliteWorkload::new(ops).run(&mut env, case).unwrap()
    }

    #[test]
    fn write_cases_are_syscall_heavy() {
        let fillseq = run(SqliteCase::FillSeq, 500);
        let fillbatch = run(SqliteCase::FillSeqBatch, 500);
        let per_op_seq = fillseq.syscalls as f64 / fillseq.ops as f64;
        let per_op_batch = fillbatch.syscalls as f64 / fillbatch.ops as f64;
        assert!(
            per_op_seq > 5.0,
            "auto-commit journals per row: {per_op_seq}"
        );
        assert!(per_op_batch < 0.5, "batched amortizes: {per_op_batch}");
    }

    #[test]
    fn read_cases_are_syscall_light() {
        let readrand = run(SqliteCase::ReadRandom, 500);
        let per_op = readrand.syscalls as f64 / readrand.ops as f64;
        assert!(per_op < 0.5, "engine cache absorbs reads: {per_op}");
    }

    #[test]
    fn batched_writes_are_faster() {
        // On tmpfs (cheap fsync) batching gains come from fewer journal
        // writes, not from avoiding device flushes — modest but real.
        let seq = run(SqliteCase::FillSeq, 300);
        let batch = run(SqliteCase::FillSeqBatch, 300);
        assert!(batch.ops_per_sec() > 1.3 * seq.ops_per_sec());
    }

    #[test]
    fn blockdev_variant_is_device_bound() {
        let mut m = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        let mut env = Env::new(&mut k, &mut m);
        let blk = SqliteBlkWorkload::new(200)
            .run(&mut env, SqliteCase::FillSeq)
            .unwrap();
        let mut m2 = Machine::new(1024 * 1024 * 1024, HwExtensions::baseline());
        let mut k2 = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m2);
        let mut env2 = Env::new(&mut k2, &mut m2);
        let tmp = SqliteWorkload::new(200)
            .run(&mut env2, SqliteCase::FillSeq)
            .unwrap();
        assert!(
            blk.ns_per_op() > 3.0 * tmp.ns_per_op(),
            "device latency dominates: blk {} vs tmpfs {}",
            blk.ns_per_op(),
            tmp.ns_per_op()
        );
    }

    #[test]
    fn all_cases_complete() {
        for case in SqliteCase::ALL {
            let r = run(case, 120);
            assert_eq!(r.ops, 120, "{}", case.name());
        }
    }
}
