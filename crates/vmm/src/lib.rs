//! Host-kernel substrate and the paper's baseline virtualization stacks.
//!
//! - [`hvm`]: hardware-assisted virtualization (Kata-style): VMCS world
//!   switches, a real EPT walked as a second translation stage, VM exits;
//!   `nested` mode adds L0-mediated exit redirection and shadow-EPT
//!   emulation (§2.4.1).
//! - [`pvm`]: software-based virtualization (PVM, SOSP '23): the guest
//!   kernel deprivileged to user mode, syscall redirection through the host,
//!   and shadow page tables (§2.4.2).
//!
//! The exit-class cost table ([`netsim::ExitCosts`]: what one guest↔host
//! roundtrip costs under each design, Table 2's hypercall row) lives in
//! `netsim`, which derives every backend's doorbell and interrupt costs
//! from it, for the NIC and the block device alike. These platforms hold
//! no device: each names its notification mechanism
//! ([`guest_os::Platform::device_kind`]) and the guest kernel's devices
//! price themselves from that.

pub mod designspace;
pub mod ept;
pub mod hvm;
pub mod pvm;

pub use designspace::{GvisorPlatform, LibOsPlatform};
pub use ept::Ept;
pub use hvm::HvmPlatform;
pub use pvm::PvmPlatform;
