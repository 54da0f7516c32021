//! A tmpfs: in-memory filesystem with a page-cache cost model.
//!
//! File contents are held host-side (`Vec<u8>`); what the simulation charges
//! is the kernel work — path lookup, page-cache lookup, and the per-byte
//! copy to/from user buffers. This matches the paper's SQLite setup, which
//! stores the database on tmpfs precisely so that "the evaluation does not
//! involve virtualized I/O" (§7.3) — making syscall overhead the variable.

use std::collections::BTreeMap;

/// Filesystem errors (a subset of errno).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// File already exists (exclusive create).
    Exists,
}

/// One tmpfs inode.
#[derive(Debug, Default, Clone)]
pub struct Inode {
    /// File contents.
    pub data: Vec<u8>,
    /// Link count (0 = unlinked but possibly still open).
    pub nlink: u32,
}

/// The tmpfs.
#[derive(Debug, Default, Clone)]
pub struct TmpFs {
    inodes: Vec<Inode>,
    names: BTreeMap<String, usize>,
    lookups: u64,
}

impl TmpFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `path` to an inode number.
    pub fn lookup(&mut self, path: &str) -> Result<usize, FsError> {
        self.lookups += 1;
        self.names.get(path).copied().ok_or(FsError::NotFound)
    }

    /// Creates (or truncates, if `trunc`) the file at `path`.
    pub fn create(&mut self, path: &str, trunc: bool) -> Result<usize, FsError> {
        self.lookups += 1;
        if let Some(&ino) = self.names.get(path) {
            if trunc {
                self.inodes[ino].data.clear();
            }
            return Ok(ino);
        }
        let ino = self.inodes.len();
        self.inodes.push(Inode {
            data: Vec::new(),
            nlink: 1,
        });
        self.names.insert(path.to_owned(), ino);
        Ok(ino)
    }

    /// Removes the name; the inode survives while open descriptors exist
    /// (we keep it, matching unlink-while-open semantics).
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let ino = self.names.remove(path).ok_or(FsError::NotFound)?;
        self.inodes[ino].nlink = self.inodes[ino].nlink.saturating_sub(1);
        Ok(())
    }

    /// File size in bytes.
    pub fn size(&self, inode: usize) -> u64 {
        self.inodes[inode].data.len() as u64
    }

    /// Reads up to `len` bytes at `offset`; returns bytes read.
    pub fn read(&self, inode: usize, offset: u64, len: usize) -> usize {
        let data = &self.inodes[inode].data;
        if offset >= data.len() as u64 {
            return 0;
        }
        usize::min(len, data.len() - offset as usize)
    }

    /// Copies file bytes out (for consumers that need real content).
    pub fn read_into(&self, inode: usize, offset: u64, buf: &mut [u8]) -> usize {
        let data = &self.inodes[inode].data;
        if offset >= data.len() as u64 {
            return 0;
        }
        let n = usize::min(buf.len(), data.len() - offset as usize);
        buf[..n].copy_from_slice(&data[offset as usize..offset as usize + n]);
        n
    }

    /// Writes `len` bytes at `offset`, extending the file with the given
    /// fill byte (content is length-dominant in the cost model).
    pub fn write(&mut self, inode: usize, offset: u64, len: usize) -> usize {
        let data = &mut self.inodes[inode].data;
        let end = offset as usize + len;
        if end > data.len() {
            data.resize(end, 0);
        }
        len
    }

    /// Writes real bytes at `offset`.
    pub fn write_bytes(&mut self, inode: usize, offset: u64, bytes: &[u8]) {
        let data = &mut self.inodes[inode].data;
        let end = offset as usize + bytes.len();
        if end > data.len() {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
    }

    /// Snapshot of the namespace: `(path, size)` pairs sorted by path.
    /// Cost-free (no lookup charge) — used by differential-testing probes
    /// to compare the VFS view across backends.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .names
            .iter()
            .map(|(p, &ino)| (p.clone(), self.inodes[ino].data.len() as u64))
            .collect();
        v.sort();
        v
    }

    /// Number of path lookups performed (cost instrumentation).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut fs = TmpFs::new();
        let ino = fs.create("/db/test.sqlite", false).unwrap();
        assert_eq!(fs.write(ino, 0, 4096), 4096);
        assert_eq!(fs.size(ino), 4096);
        assert_eq!(fs.read(ino, 0, 8192), 4096);
        assert_eq!(fs.read(ino, 4096, 10), 0);
        assert_eq!(fs.read(ino, 4000, 1000), 96);
    }

    #[test]
    fn lookup_and_unlink() {
        let mut fs = TmpFs::new();
        fs.create("/a", false).unwrap();
        assert!(fs.lookup("/a").is_ok());
        fs.unlink("/a").unwrap();
        assert_eq!(fs.lookup("/a"), Err(FsError::NotFound));
        assert_eq!(fs.unlink("/a"), Err(FsError::NotFound));
    }

    #[test]
    fn trunc_on_create() {
        let mut fs = TmpFs::new();
        let ino = fs.create("/t", false).unwrap();
        fs.write(ino, 0, 100);
        let ino2 = fs.create("/t", true).unwrap();
        assert_eq!(ino, ino2);
        assert_eq!(fs.size(ino), 0);
    }

    #[test]
    fn real_content_roundtrip() {
        let mut fs = TmpFs::new();
        let ino = fs.create("/kv", false).unwrap();
        fs.write_bytes(ino, 8, b"hello");
        let mut buf = [0u8; 5];
        assert_eq!(fs.read_into(ino, 8, &mut buf), 5);
        assert_eq!(&buf, b"hello");
    }
}
