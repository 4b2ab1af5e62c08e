//! # marnet-telemetry — deterministic observability for the marnet suite
//!
//! The simulator is deterministic, so its observability layer can be too:
//! every trace is a pure function of the experiment seed, which turns
//! determinism from a test assertion into a debugging tool (`marnet-trace
//! diff` localizes the first divergent event between two runs).
//!
//! Three pieces, all zero-overhead when disabled:
//!
//! * **Flight recorder** ([`TraceSink`]) — a fixed-capacity ring buffer of
//!   compact 32-byte binary [`TraceEvent`]s (packet enqueue/drop/dequeue,
//!   link busy/idle, class admit/degrade, FEC repair, path switch, offload
//!   dispatch) stamped with sim time and a component id. The disabled sink
//!   costs one predictable branch per hook. A record is written only if no
//!   earlier record implies it: a packet that finds its link idle and
//!   empty is one [`TraceKind::PacketSendIdle`] record, not an enqueue, a
//!   zero-delay dequeue and a busy transition. Every reader looks at a
//!   trace through [`expand()`], which restores those three, so what it
//!   sees is what a recorder that never folds would have written.
//! * **Metrics** ([`MetricsSnapshot`]) — named counters, gauges and
//!   sim-time-bucketed series, written once after the run from the stats
//!   the actors keep (a sampled series is an owned [`TimeBuckets`]);
//!   `marnet-lab` flushes them into schema-v2 artifacts.
//! * **Trace files** ([`mod@file`]) — a small binary container
//!   (`MARTRC01` magic + fixed-size records) read by the `marnet-trace`
//!   CLI, which expands a trace, then dumps/filters it, reconstructs
//!   per-flow timelines, computes queue-delay distributions (the
//!   bufferbloat view) and diffs two traces.
//!
//! This crate sits below `marnet-sim`: times are raw nanoseconds and
//! components are raw `u32` ids (see [`event::component`]), so every layer
//! of the stack can record without a dependency cycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod event;
pub mod file;
pub mod metrics;
pub mod recorder;
pub mod usage;

pub use diff::{first_divergence, TraceDiff};
pub use event::{component, expand, DropReason, TraceEvent, TraceKind};
pub use metrics::{MetricsSnapshot, TimeBucket, TimeBuckets};
pub use recorder::TraceSink;
pub use usage::ClassUsage;

/// Default flight-recorder ring capacity used by CLI `--trace` flags:
/// 2^20 events = 32 MiB, enough to hold every event of the stock
/// experiment binaries without wrapping.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// What a scenario should capture, threaded from CLI flags down to the
/// simulator. Both knobs default to off so instrumented code paths are
/// byte-identical to the uninstrumented ones unless explicitly asked.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOptions {
    /// Flight-recorder ring capacity in events; `None` disables tracing.
    pub trace_capacity: Option<usize>,
    /// Whether to write a metrics snapshot after the run.
    pub metrics: bool,
}

impl TelemetryOptions {
    /// Everything off — the default for existing callers.
    pub fn disabled() -> Self {
        TelemetryOptions::default()
    }

    /// Tracing on with the given ring capacity, metrics on.
    pub fn full(trace_capacity: usize) -> Self {
        TelemetryOptions { trace_capacity: Some(trace_capacity), metrics: true }
    }
}

/// What an instrumented scenario run captured.
#[derive(Debug, Clone, Default)]
pub struct TelemetryCapture {
    /// Recorded trace events in chronological order (empty when disabled).
    pub events: Vec<TraceEvent>,
    /// Metrics snapshot, when metrics were requested.
    pub metrics: Option<MetricsSnapshot>,
}
