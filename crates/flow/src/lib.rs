//! # marnet-flow — flow-level fluid network tier
//!
//! The packet engine in `marnet-sim` resolves every serialization and
//! queue decision and tops out around thousands of endpoints per
//! wall-clock minute. The paper's framing, however, is metro-scale: one
//! cell is interesting at packet fidelity, but it sits inside a city of
//! 10⁵–10⁶ MAR users whose only observable effect on that cell is *load*.
//! This crate models that surrounding load as a fluid: flows receive
//! max-min fair rates on a capacitated link graph, and only flow
//! start / finish / rate-change events are simulated (DESIGN §13).
//!
//! Two layers:
//!
//! * [`maxmin`] — the pure allocator: progressive filling over *flow
//!   classes* (homogeneous flows sharing a route and per-flow cap), so
//!   one class of 100 000 identical clients costs the same as one flow.
//! * [`fluid`] — [`fluid::FluidNetwork`], an [`marnet_sim::engine::Actor`]
//!   that owns the fluid link graph, advances processor-sharing service
//!   counters between events, and schedules completion timers into the
//!   ordinary sim event loop. A coupled class
//!   ([`fluid::FluidNetwork::couple_class`]) hands its allocation to a
//!   packet-level boundary link ([`marnet_sim::link::RateUpdate`]), so a
//!   focus region keeps full engine semantics inside fluid load.
//!
//! City-scale client populations are driven by [`workload::BackgroundWorkload`],
//! a single actor that multiplexes N think/transfer renewal processes.
//!
//! # Determinism
//!
//! Everything here runs inside the single-threaded sim event loop. The
//! only randomness is the workload's ChaCha12 substream derived from the
//! simulation seed ([`marnet_sim::rng::derive_rng`]); the allocator and
//! service accounting are sequential `f64` arithmetic over `Vec`s in
//! creation order, so identical seeds give bit-identical artifacts at any
//! `--threads` (threading in `marnet-lab` only shards whole trials).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fluid;
pub mod maxmin;
pub mod workload;

/// Convenience re-exports of the types most scenarios need.
pub mod prelude {
    pub use crate::fluid::{ClassId, FlowDone, FluidLinkId, FluidNetwork, FluidStats, StartFlow};
    pub use crate::maxmin::{max_min_rates, ClassDemand};
    pub use crate::workload::{BackgroundWorkload, WorkloadConfig, WorkloadStats};
}
