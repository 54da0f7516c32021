//! Simulated physical memory and page-table primitives.
//!
//! This crate is the lowest layer of the CKI reproduction stack. It provides:
//!
//! - [`PhysMem`]: a sparse simulated physical memory addressed by host
//!   physical addresses (hPA), organized in 4 KiB frames.
//! - [`FrameAllocator`]: a free-list allocator for single frames.
//! - [`SegmentAllocator`]: a contiguous-segment allocator used by the CKI
//!   host kernel to delegate physical memory ranges to guest kernels
//!   (paper §3.3/§4.3).
//! - [`pte`]: x86-64 page-table-entry bit encoding, including the four
//!   protection-key bits (62:59) used by PKS/PKU.
//! - [`PageTables`]: an editor that builds and walks real 4-level page
//!   tables stored *inside* the simulated physical memory, so that every
//!   architectural walk performed by the CPU model touches genuine PTEs.

pub mod addr;
pub mod frame;
pub mod phys;
pub mod pte;
pub mod ptedit;
pub mod segment;

pub use addr::{Phys, Virt, PAGE_SHIFT, PAGE_SIZE};
pub use frame::FrameAllocator;
pub use phys::{PfnHasher, PhysMem};
pub use ptedit::{MapFlags, PageTables, WalkError, WalkResult};
pub use segment::{Segment, SegmentAllocator};
