//! Cross-layer, cycle-attributed observability.
//!
//! Every layer of the stack — `sim-hw`, `guest-os`, `vmm`, `cki-core` —
//! spends *simulated* cycles. This crate provides the shared substrate for
//! attributing them:
//!
//! - [`SpanProfiler`]: nestable enter/exit scopes stamped with simulated
//!   cycle counts, so a CKI page fault decomposes into
//!   trap → handler → KSM gate → PTE-verify → iret with exact per-stage
//!   cycles ([`span`]).
//! - [`MetricsRegistry`]: named counters (optionally labeled per backend
//!   or per syscall) and streaming quantile sketches, with
//!   snapshot/delta/merge ([`metrics`]).
//! - [`QuantileSketch`]: deterministic log-linear p50/p90/p99/p999
//!   estimation ([`quantile`]).
//! - [`Ring`]: the one fixed-capacity, overwrite-oldest ring, allocated
//!   once. A [`FlightRecorder`] is a ring of cycle-stamped control-plane
//!   events, dumpable as a JSONL incident report; the CPU's architectural
//!   tracer and the host's retired recorders are rings too ([`flight`]).
//! - [`export`]: a Chrome-trace (`chrome://tracing`) dump of spans and a
//!   JSON rendering of a metrics snapshot.
//!
//! The crate sits below `sim-mem` in the dependency order and touches no
//! simulator types: timestamps are plain cycle counts supplied by the
//! caller (in practice `Clock::cycles()`), so it can be unit-tested — and
//! reused — in isolation.
//!
//! **Cheap on the hot path**: the profiler checks an `enabled` flag and a
//! disabled ring holds no slots, so each costs one predictable branch when
//! observability is off; registry updates are an array index through an
//! id handed out at registration.

pub mod export;
pub mod flight;
pub mod metrics;
pub mod quantile;
pub mod rng;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder, Ring};
pub use metrics::{CounterId, MetricsRegistry, MetricsSnapshot, SketchId};
pub use quantile::{QuantileSketch, SketchSnapshot};
pub use span::{SpanEvent, SpanId, SpanProfiler, SpanStat};
