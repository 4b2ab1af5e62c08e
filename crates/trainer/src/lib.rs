//! # marnet-trainer — automated search over the degradation policy space
//!
//! The paper (§VI) fixes the *architecture* of the MAR transport —
//! graceful degradation, delay-first congestion control, deadline-gated
//! recovery, cost-aware multipath — but every constant in the
//! implementation was hand-picked. This crate closes the loop from
//! simulator to policy learning: it searches the
//! [`marnet_core::policy::PolicyParams`] space against a deterministic
//! evaluation harness and emits a Pareto front over the three axes the
//! paper trades off:
//!
//! * **QoE** — frames delivered within the latency budget (maximize);
//! * **fairness to TCP** — Jain's index of the AR flow vs competing Reno
//!   flows on a shared bottleneck (maximize);
//! * **overhead** — redundant bytes on the wire (FEC parity, duplication,
//!   retransmissions) plus metered cellular usage (minimize).
//!
//! The split mirrors a FlowForge-style trainer/evaluator design: this
//! crate owns the *outer loop* (parameter space, candidate sampling,
//! distribution updates, Pareto bookkeeping, artifacts) and is generic
//! over the *inner loop* — a population-evaluation closure that the
//! caller (in practice `marnet-lab train`) implements with its
//! multi-threaded Monte-Carlo runner. Determinism is preserved end to
//! end: candidate `c` of generation `g` is sampled from the ChaCha12
//! substream `train/{g}/{c}`, and the evaluator is required to be a pure
//! function of `(generation, population)`, so the whole search — and the
//! JSON artifact serialized from it — is byte-identical at any thread
//! count.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod engine;
pub mod objective;
pub mod space;

pub use artifact::{ComparisonRow, FrontArtifact, FrontEntry, SCHEMA_VERSION};
pub use engine::{run_search, select_tuned, Evaluated, TrainConfig, TrainResult};
pub use objective::{pareto_front, Evaluation, Objectives};
pub use space::{DimKind, Dimension, PolicyPoint, PolicySpace};
