//! A block-device filesystem over VirtIO-blk.
//!
//! The paper's SQLite evaluation deliberately uses tmpfs so that "the
//! evaluation does not involve virtualized I/O" (§7.3). This module is the
//! other half of that story: a simple block-allocated filesystem whose
//! every cache miss is a request to a [`netsim::VirtioBlk`] — the
//! platform's device notification (the same doorbell and interrupt path
//! its NIC pays) plus device latency — so storage-bound workloads can be
//! compared across container designs too (the `sqlite_blk` ablation).
//!
//! Design: fixed 4 KiB blocks, per-file block lists, and a write-back
//! buffer cache with LRU-ish eviction. Metadata is kept guest-side (the
//! interesting costs are the device crossings, not the on-disk format).
//! Device reads, device writes and cache hits are counted on the guest
//! kernel's registry as `os.blk.dev_reads`, `os.blk.dev_writes` and
//! `os.blk.cache_hits`.

use std::collections::BTreeMap;

use netsim::VirtioBlk;
use obs::CounterId;
use sim_hw::cost;

use crate::env::Env;
use crate::syscall::Errno;

/// Filesystem block size.
pub const BLOCK_SIZE: u32 = 4096;

/// One cached block.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    dirty: bool,
    stamp: u64,
}

/// The filesystem.
pub struct BlockFs {
    dev: VirtioBlk,
    files: BTreeMap<String, Vec<u32>>,
    next_block: u32,
    total_blocks: u32,
    free: Vec<u32>,
    cache: BTreeMap<u32, CacheEntry>,
    cache_cap: usize,
    tick: u64,
    dev_reads: CounterId,
    dev_writes: CounterId,
    cache_hits: CounterId,
}

impl BlockFs {
    /// Formats a filesystem over a device of `blocks` blocks, notified
    /// the way `env`'s platform notifies its devices, with a buffer cache
    /// of `cache_blocks` blocks. Registers the `os.blk.*` counters on the
    /// kernel's registry.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn format(env: &mut Env<'_>, blocks: u32, cache_blocks: usize) -> Self {
        assert!(blocks > 0 && cache_blocks > 0, "degenerate filesystem");
        let kind = env.kernel.platform.device_kind();
        let metrics = &mut env.kernel.metrics;
        Self {
            dev: VirtioBlk::for_backend(kind),
            files: BTreeMap::new(),
            next_block: 1, // block 0: superblock
            total_blocks: blocks,
            free: Vec::new(),
            cache: BTreeMap::new(),
            cache_cap: cache_blocks,
            tick: 0,
            dev_reads: metrics.counter("os.blk.dev_reads"),
            dev_writes: metrics.counter("os.blk.dev_writes"),
            cache_hits: metrics.counter("os.blk.cache_hits"),
        }
    }

    /// Creates (or truncates) a file.
    pub fn create(&mut self, env: &mut Env<'_>, path: &str) -> Result<(), Errno> {
        env.compute(600); // directory + inode update
        if let Some(blocks) = self.files.insert(path.to_owned(), Vec::new()) {
            for b in blocks {
                self.cache.remove(&b);
                self.free.push(b);
            }
        }
        Ok(())
    }

    /// File size in bytes.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files
            .get(path)
            .map(|b| b.len() as u64 * BLOCK_SIZE as u64)
    }

    /// Sends one block-sized device request and waits for it, counting it
    /// under `counter`.
    fn dev_io(&self, env: &mut Env<'_>, counter: CounterId) {
        env.kernel.metrics.inc(counter);
        let sp = env.machine.cpu.span_enter("os.blk.submit");
        self.dev.submit(&mut env.machine.cpu.clock, BLOCK_SIZE);
        env.machine.cpu.span_exit(sp);
    }

    fn alloc_block(&mut self) -> Result<u32, Errno> {
        if let Some(b) = self.free.pop() {
            return Ok(b);
        }
        if self.next_block >= self.total_blocks {
            return Err(Errno::NoMem);
        }
        let b = self.next_block;
        self.next_block += 1;
        Ok(b)
    }

    /// Brings `block` into the cache (issuing a device read on a miss when
    /// `read_from_dev`), evicting as needed. Marks dirty if `dirty`.
    fn touch_block(
        &mut self,
        env: &mut Env<'_>,
        block: u32,
        dirty: bool,
        read_from_dev: bool,
    ) -> Result<(), Errno> {
        self.tick += 1;
        if let Some(e) = self.cache.get_mut(&block) {
            e.stamp = self.tick;
            e.dirty |= dirty;
            env.kernel.metrics.inc(self.cache_hits);
            env.compute(120); // cache lookup
            return Ok(());
        }
        // Miss: make room, then fetch.
        while self.cache.len() >= self.cache_cap {
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(b, e)| (*b, e.dirty))
                .expect("non-empty cache");
            self.cache.remove(&victim.0);
            if victim.1 {
                self.dev_io(env, self.dev_writes);
            }
        }
        if read_from_dev {
            self.dev_io(env, self.dev_reads);
        }
        let tick = self.tick;
        self.cache.insert(block, CacheEntry { dirty, stamp: tick });
        Ok(())
    }

    /// Writes `len` bytes at `offset`, allocating blocks as needed.
    pub fn write(
        &mut self,
        env: &mut Env<'_>,
        path: &str,
        offset: u64,
        len: u32,
    ) -> Result<(), Errno> {
        let copy = cost::copy_cycles(len as u64);
        env.compute(300 + copy); // copy + inode update
        let end_block = ((offset + len as u64).div_ceil(BLOCK_SIZE as u64)) as usize;
        // Extend the file.
        while self.files.get(path).ok_or(Errno::NoEnt)?.len() < end_block {
            let b = self.alloc_block()?;
            self.files.get_mut(path).expect("file").push(b);
            // Fresh blocks need no device read.
            self.touch_block(env, b, true, false)?;
        }
        let first = (offset / BLOCK_SIZE as u64) as usize;
        let blocks: Vec<u32> = self.files.get(path).expect("file")[first..end_block].to_vec();
        for (i, b) in blocks.into_iter().enumerate() {
            // A partial first/last block must be read before modification.
            let partial = (i == 0 && !offset.is_multiple_of(BLOCK_SIZE as u64))
                || !(offset + len as u64).is_multiple_of(BLOCK_SIZE as u64);
            self.touch_block(env, b, true, partial)?;
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(
        &mut self,
        env: &mut Env<'_>,
        path: &str,
        offset: u64,
        len: u32,
    ) -> Result<u32, Errno> {
        let copy = cost::copy_cycles(len as u64);
        env.compute(300 + copy);
        let file = self.files.get(path).ok_or(Errno::NoEnt)?;
        let file_len = file.len() as u64 * BLOCK_SIZE as u64;
        if offset >= file_len {
            return Ok(0);
        }
        let len = len.min((file_len - offset) as u32);
        let first = (offset / BLOCK_SIZE as u64) as usize;
        let last = ((offset + len as u64).div_ceil(BLOCK_SIZE as u64)) as usize;
        let blocks: Vec<u32> = file[first..last].to_vec();
        for b in blocks {
            self.touch_block(env, b, false, true)?;
        }
        Ok(len)
    }

    /// Flushes all dirty cached blocks to the device (fsync).
    pub fn sync(&mut self, env: &mut Env<'_>) -> Result<(), Errno> {
        let dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(b, _)| *b)
            .collect();
        for b in dirty {
            self.dev_io(env, self.dev_writes);
            if let Some(e) = self.cache.get_mut(&b) {
                e.dirty = false;
            }
        }
        env.compute(400); // barrier bookkeeping
        Ok(())
    }
}

impl std::fmt::Debug for BlockFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockFs")
            .field("files", &self.files.len())
            .field(
                "used_blocks",
                &(self.next_block - 1 - self.free.len() as u32),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::platform::NativePlatform;
    use sim_hw::{HwExtensions, Machine};

    fn blk(env: &Env<'_>, name: &str) -> u64 {
        env.kernel.metrics.value_of(name, None)
    }

    fn boot() -> (Kernel, Machine) {
        let mut m = Machine::new(512 << 20, HwExtensions::baseline());
        let k = Kernel::boot(Box::new(NativePlatform::new(1)), &mut m);
        (k, m)
    }

    #[test]
    fn write_read_roundtrip_with_device_traffic() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut fs = BlockFs::format(&mut env, 1024, 16);
        fs.create(&mut env, "/db").unwrap();
        fs.write(&mut env, "/db", 0, 3 * BLOCK_SIZE).unwrap();
        assert_eq!(fs.size("/db"), Some(3 * BLOCK_SIZE as u64));
        // Fresh writes need no reads.
        assert_eq!(blk(&env, "os.blk.dev_reads"), 0);
        fs.sync(&mut env).unwrap();
        assert_eq!(blk(&env, "os.blk.dev_writes"), 3);
        // Cached read: no device traffic.
        assert_eq!(fs.read(&mut env, "/db", 0, BLOCK_SIZE).unwrap(), BLOCK_SIZE);
        assert_eq!(blk(&env, "os.blk.dev_reads"), 0);
        assert!(blk(&env, "os.blk.cache_hits") > 0);
    }

    #[test]
    fn cache_eviction_writes_back_and_rereads() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut fs = BlockFs::format(&mut env, 1024, 4); // tiny cache
        fs.create(&mut env, "/big").unwrap();
        fs.write(&mut env, "/big", 0, 16 * BLOCK_SIZE).unwrap();
        // 16 dirty blocks through a 4-block cache: at least 12 evictions.
        assert!(
            blk(&env, "os.blk.dev_writes") >= 12,
            "{}",
            blk(&env, "os.blk.dev_writes")
        );
        // Reading the start again must hit the device.
        let before = blk(&env, "os.blk.dev_reads");
        fs.read(&mut env, "/big", 0, BLOCK_SIZE).unwrap();
        assert_eq!(blk(&env, "os.blk.dev_reads"), before + 1);
    }

    #[test]
    fn device_latency_dominates_cold_io() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut fs = BlockFs::format(&mut env, 1024, 4);
        fs.create(&mut env, "/f").unwrap();
        fs.write(&mut env, "/f", 0, 8 * BLOCK_SIZE).unwrap();
        fs.sync(&mut env).unwrap();
        let t0 = env.now_ns();
        // 8 cold reads through a 4-block cache.
        fs.read(&mut env, "/f", 0, 8 * BLOCK_SIZE).unwrap();
        let per_read = (env.now_ns() - t0) / 8.0;
        // NVMe-class device latency (~20 µs) dominates.
        assert!(per_read > 15_000.0, "{per_read} ns");
    }

    #[test]
    fn out_of_space() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut fs = BlockFs::format(&mut env, 4, 4);
        fs.create(&mut env, "/f").unwrap();
        let r = fs.write(&mut env, "/f", 0, 16 * BLOCK_SIZE);
        assert_eq!(r, Err(Errno::NoMem));
        // Truncating the file frees its blocks for reuse.
        fs.create(&mut env, "/f").unwrap();
        assert!(fs.write(&mut env, "/f", 0, 2 * BLOCK_SIZE).is_ok());
    }

    #[test]
    fn missing_file() {
        let (mut k, mut m) = boot();
        let mut env = Env::new(&mut k, &mut m);
        let mut fs = BlockFs::format(&mut env, 64, 4);
        assert_eq!(fs.read(&mut env, "/nope", 0, 64), Err(Errno::NoEnt));
        assert_eq!(fs.write(&mut env, "/nope", 0, 64), Err(Errno::NoEnt));
        assert_eq!(fs.size("/nope"), None);
    }
}
