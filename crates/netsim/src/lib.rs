//! The cluster networking dataplane and the virtio device model.
//!
//! Packets really cross container boundaries here: each container gets a
//! [`VirtioNic`] whose split rings (descriptor table, avail/used indices)
//! live in *guest physical memory* and are accessed through charged
//! per-descriptor DMA, and a vhost-style [`HostSwitch`] moves frames
//! between NICs with port security (a port sends only from the MAC it
//! was attached with), bounded per-port FIFOs, and backpressure instead
//! of silent drops.
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
//!   VMX but still a world switch ([`DoorbellPath::Paravirt`]).
//!
//! Interrupt mitigation is NAPI-shaped: the guest coalesces doorbells with
//! a configurable kick batch plus a sim-clock timer fallback, and the host
//! coalesces RX interrupts per delivery batch ([`Coalesce`]).
//!
//! This is the only model of what a device notification costs. Every
//! workload that moves packets — the cluster serving benchmark, the
//! single-server harness behind the paper's KV and I/O figures, the cloud
//! control plane and the differential tester — goes through a
//! [`VirtioNic`], and every block request through a [`VirtioBlk`]. Both
//! ring a [`Doorbell`] and take completions through an [`IrqPath`], derived
//! from the backend's [`ExitCosts`] by its [`NicBackendKind`], which each
//! guest platform names. Platforms import [`ExitCosts`] from here for
//! their other exit-class pricing.
//!
//! The vhost half treats the rings as guest-controlled input: a descriptor
//! whose id is outside the queue, whose address is not the buffer slot
//! registered for its id, or whose length the frame does not fit is
//! consumed and counted ([`NicStats::bad_descs`]), never read or written.

pub mod blk;
pub mod exits;
pub mod frame;
pub mod nic;
pub mod ring;
pub mod switch;

pub use blk::VirtioBlk;
pub use exits::ExitCosts;
pub use frame::{
    finish_hash, hash_payloads, message_hash, payload_pattern, payload_pattern_hashed, Frame, Mac,
    BUF_SIZE, FNV_OFFSET, MAX_PAYLOAD,
};
pub use nic::{
    Coalesce, Doorbell, DoorbellPath, IrqPath, NetError, NicBackendKind, NicLayout, NicStats,
    VirtioNic, KICK_TIMER_CYCLES,
};
pub use ring::{RingDesc, SplitRing};
pub use switch::{HostSwitch, PortId, SwitchStats};
