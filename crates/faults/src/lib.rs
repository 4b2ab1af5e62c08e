//! # marnet-faults — deterministic fault injection
//!
//! The paper's central claim is that MAR transport must *degrade gracefully
//! instead of stalling* when the network misbehaves. This crate supplies the
//! misbehaviour E16 (`sweep_faults`) and the trainer's fault member measure,
//! driven through the simulator: scripted link outages and edge-server
//! crash/restart with configurable state loss. Random link dynamics live
//! elsewhere: `marnet-radio`'s coverage renewal process (E12) and rate
//! processes (X3), and the link layer's loss models.
//!
//! Determinism contract (the same invariant as `marnet-lab`): a
//! [`FaultSpec`] compiles into a [`FaultSchedule`] as a pure function of
//! the spec and the horizon, with no random draws, so the schedule — and
//! therefore every experiment artifact built on it — is byte-identical at
//! any `--threads`. Nothing in this crate may touch wall-clock time or
//! ambient randomness: `marnet-lint`'s determinism rules audit this
//! crate, and the vendored `rand` has no entropy source to draw from.
//!
//! * [`schedule`] — fault taxonomy, the spec builder and the compiler;
//! * [`inject`] — the [`FaultInjector`] actor that walks a schedule and
//!   applies it to a running simulation, emitting flight-recorder events
//!   for every transition.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inject;
pub mod schedule;

pub use inject::{EdgeFault, FaultInjector};
pub use schedule::{FaultAction, FaultEvent, FaultKind, FaultPhase, FaultSchedule, FaultSpec};
