//! # marnet-edge — edge datacenters and edge-server distribution
//!
//! §VI-E and §VI-F of the paper push offloading beyond a single cloud
//! server: distribute the work over nearby machines, and place edge
//! datacenters so every user's `P_offloading` fits the deadline. This crate
//! implements:
//!
//! * [`placement`] — the §VI-F optimisation: minimise the number of edge
//!   datacenters subject to every user's offload deadline, with a greedy
//!   set-cover solver, an exact branch-and-bound for small instances, and
//!   lower bounds;
//! * [`session`] — crash/restart wrappers for edge servers: downtime
//!   windows, state loss and session re-establishment under the
//!   `marnet-faults` injection subsystem.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod placement;
pub mod session;

pub use placement::{PlacementProblem, PlacementSolution};
pub use session::RestartableServer;
