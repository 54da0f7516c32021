//! The cluster networking dataplane.
//!
//! Packets really cross container boundaries here: each container gets a
//! [`VirtioNic`] whose split rings (descriptor table, avail/used indices)
//! live in *guest physical memory* and are accessed through charged
//! per-descriptor DMA, and a vhost-style [`HostSwitch`] moves frames
//! between NICs with MAC learning, bounded per-port FIFOs, and
//! backpressure instead of silent drops.
//!
//! The per-backend asymmetry the paper measures on the serving path falls
//! out of the *mechanism*, not hand-tuned constants:
//!
//! - **CKI** posts its avail index with a shared-memory write the host's
//!   vhost worker reads through its KSM-owned mapping — a zero-exit
//!   doorbell ([`DoorbellPath::SharedMem`]).
//! - **HVM** notifies through a trapped MMIO write: every uncoalesced kick
//!   is a VM exit plus instruction emulation ([`DoorbellPath::Mmio`]).
//! - **PVM** replaces the trap with a paravirtual hypercall — cheaper than
//!   VMX but still a world switch ([`DoorbellPath::Hypercall`]).
//!
//! Interrupt mitigation is NAPI-shaped: the guest coalesces doorbells with
//! a configurable kick batch plus a sim-clock timer fallback, and the host
//! coalesces RX interrupts per delivery batch ([`Coalesce`]).
//!
//! The crate also owns the single model of legacy kick/poll costs
//! ([`NetBackend`], [`LoadGen`], [`ExitCosts`]); every platform imports
//! them from here, so there is exactly one place exit-class I/O pricing
//! lives.

pub mod backend;
pub mod exits;
pub mod frame;
pub mod loadgen;
pub mod nic;
pub mod ring;
pub mod switch;

pub use backend::{NetBackend, NetStats};
pub use exits::ExitCosts;
pub use frame::{payload_pattern, Frame, Mac, BUF_SIZE, MAX_PAYLOAD};
pub use loadgen::LoadGen;
pub use nic::{
    Coalesce, Doorbell, DoorbellPath, IrqPath, NetError, NicBackendKind, NicLayout, NicStats,
    VirtioNic,
};
pub use ring::{RingDesc, SplitRing};
pub use switch::{deliver_rx, drain_tx, HostSwitch, PortId, SwitchStats};
