//! # marnet-sim — deterministic discrete-event network simulator
//!
//! This crate is the substrate on which every experiment in the marnet suite
//! runs. The paper being reproduced ("Future Networking Challenges: The Case
//! of Mobile Augmented Reality", ICDCS 2017) evaluates on real WiFi/LTE
//! networks and real cloud servers; here those are replaced by a packet-level
//! simulator whose links are calibrated to the numbers the paper reports.
//!
//! The simulator is:
//!
//! * **Deterministic** — single threaded, virtual time, every source of
//!   randomness is a [`rand_chacha::ChaCha12Rng`] derived from an experiment
//!   seed plus a textual label (see [`rng::derive_rng`]). Identical seeds
//!   produce bit-identical traces, which the property tests rely on.
//! * **Packet level** — links serialize packets at a configurable rate,
//!   apply propagation delay, jitter and loss, and queue excess traffic in a
//!   pluggable queueing discipline ([`queue::Queue`]): DropTail, CoDel,
//!   FQ-CoDel and strict priority are provided, matching §VI-H of the paper.
//! * **Actor based** — protocol endpoints, traffic sources and middleboxes
//!   implement [`engine::Actor`] and exchange [`packet::Packet`]s over
//!   [`link::LinkParams`]-configured links, or direct zero-copy messages for co-located components.
//! * **Observable** — an optional flight recorder
//!   ([`engine::Simulator::enable_flight_recorder`]) from
//!   [`marnet_telemetry`] (re-exported as [`telemetry`]) captures
//!   per-packet queue events, and [`engine::Simulator::enable_metrics`]
//!   keeps a queue-delay series per link for the post-run metrics; both
//!   are off by default and cost one predictable branch per hook when
//!   disabled.
//!
//! # Example
//!
//! ```
//! use marnet_sim::prelude::*;
//!
//! // An actor that echoes every packet back to its sender.
//! struct Echo { out: LinkId }
//! impl Actor for Echo {
//!     fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
//!         if let Event::Packet { packet, .. } = ev {
//!             ctx.transmit(self.out, packet);
//!         }
//!     }
//! }
//!
//! struct Pinger { out: LinkId, rtt: Option<SimDuration> }
//! impl Actor for Pinger {
//!     fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
//!         match ev {
//!             Event::Start => {
//!                 let pkt = Packet::new(ctx.next_packet_id(), 0, 100, ctx.now());
//!                 ctx.transmit(self.out, pkt);
//!             }
//!             Event::Packet { packet, .. } => {
//!                 self.rtt = Some(ctx.now() - packet.created);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let ping = sim.reserve_actor();
//! let echo = sim.reserve_actor();
//! let params = LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(5));
//! let fwd = sim.add_link(ping, echo, params.clone());
//! let rev = sim.add_link(echo, ping, params);
//! sim.install_actor(ping, Pinger { out: fwd, rtt: None });
//! sim.install_actor(echo, Echo { out: rev });
//! sim.run_until(SimTime::from_secs(1));
//! # let _ = (ping, echo);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
mod eventq;
pub mod hash;
pub use marnet_telemetry as telemetry;
pub mod link;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timers;

/// Convenience re-exports of the types needed by almost every simulation.
pub mod prelude {
    pub use crate::config::TieBreak;
    pub use crate::engine::{Actor, ActorId, Event, SimCtx, Simulator, TimerHandle};
    pub use crate::link::{Bandwidth, Jitter, LinkId, LinkParams, LossModel, RateUpdate};
    pub use crate::packet::{Packet, Payload};
    pub use crate::queue::{
        CoDelQueue, DropTailQueue, FqCoDelQueue, QueueConfig, StrictPriorityQueue,
    };
    pub use crate::rng::derive_rng;
    pub use crate::stats::{Histogram, OnlineStats, RateMeter, TimeSeries};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timers::TimerBank;
}
