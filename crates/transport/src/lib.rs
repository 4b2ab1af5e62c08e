//! # marnet-transport — baseline transport protocols over the simulator
//!
//! §V of the paper surveys existing transport protocols and concludes none
//! fits MAR offloading; §IV-D and Fig. 3 show how loss-based TCP interacts
//! pathologically with asymmetric access links. To reproduce those dynamics
//! (and to give the AR protocol of `marnet-core` baselines to compete with),
//! this crate implements:
//!
//! * [`tcp`] — a packet-level TCP with slow start, congestion avoidance,
//!   fast retransmit/recovery (NewReno-style), RFC 6298 RTO, delayed ACKs,
//!   and pluggable congestion control: Reno, and Vegas (the delay-based
//!   scheme whose fairness §VI-B worries about, measured by E14);
//! * [`nic`] — a simple flow-demultiplexing NIC actor so many endpoints can
//!   share one access link (needed for the antiparallel-TCP experiments);
//! * [`udp`] — constant-bit-rate datagram source and counting sink;
//! * [`probe`] — request/response RTT probes used to regenerate Table II.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod nic;
pub mod probe;
pub mod tcp;
pub mod udp;

pub use nic::{Nic, TxPath};
pub use tcp::{TcpConfig, TcpFlowStats, TcpReceiver, TcpSender};
