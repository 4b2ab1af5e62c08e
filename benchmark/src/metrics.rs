//! The metrics this benchmark declares: names, units, directions and —
//! for end-to-end metrics — the bound by which a value may worsen before
//! it counts as a regression. `BENCHMARK.json` repeats these lists for the
//! driver; a test holds the two in step.

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` if larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric.
///
/// * `setup_s` — host seconds the body's calls spend before virtual time
///   0 (each call repeated with horizon 0), summed over the body, at the
///   reference machine speed (measured seconds × kernel Mops/s ÷
///   `calib::REF_MOPS`), lower quartile over samples; on `lab-sweep`, the
///   time to `experiments::build` every spec.
/// * `work_per_mcalop` — work items per 10⁶ calibration-kernel ops:
///   simulator events on the six simulator workloads, lab trials at
///   `threads=1` on `lab-sweep`; upper quartile over repetitions.
/// * `peak_heap_bytes` — high-water live bytes of one scenario call (or of
///   the `threads=1` lab pass) under the counting allocator.
/// * `in_budget_pct` — *simulated*: frames, MAR packets or probes that
///   arrived within the 75 ms budget, % of offered, mean over the body.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "work_per_mcalop", unit: "1/Mcalop", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_heap_bytes", unit: "bytes", higher_is_better: false, bound: 0.02 },
    EndToEnd { name: "in_budget_pct", unit: "%", higher_is_better: true, bound: 0.05 },
];

/// A per-layer metric: no bound; `higher_is_better` documents direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` if larger values are better.
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

/// Every workload reports every per-layer metric; one that does not apply
/// to a workload (fluid counts on a packet-only workload, lab stages on a
/// simulator workload) reads 0 there. Drives (`*ns_per_*`, `*_mbps`,
/// `xor_gbps`, `take_s`) do not depend on the workload and are reported
/// calibrated to the reference machine speed (see `calib::REF_MOPS`).
pub const PER_LAYER: [PerLayer; 83] = [
    down("sim.engine.events", "count"),
    down("sim.engine.ns_per_event_shallow", "ns"),
    down("sim.engine.ns_per_event_deep", "ns"),
    down("sim.engine.ns_per_cancel", "ns"),
    down("sim.link.pkts_enqueued", "count"),
    up("sim.link.pkts_delivered", "count"),
    down("sim.link.pkts_dropped", "count"),
    down("sim.link.ns_per_pkt", "ns"),
    down("sim.queue.drop_share", "ratio"),
    down("sim.queue.droptail_ns_per_pkt", "ns"),
    down("sim.queue.codel_ns_per_pkt", "ns"),
    down("sim.queue.fqcodel_ns_per_pkt", "ns"),
    down("sim.queue.prio_ns_per_pkt", "ns"),
    down("sim.packet.pool_ns_per_prepare", "ns"),
    down("sim.stats.hist_ns_per_record", "ns"),
    down("sim.stats.hist_merge_ns", "ns"),
    down("sim.outcome.mar_p95_ms", "ms"),
    down("sim.outcome.paper_rtt_err_pct", "%"),
    up("sim.outcome.delivered_pct", "%"),
    down("transport.udp.ns_per_pkt", "ns"),
    down("transport.tcp.ns_per_segment", "ns"),
    down("transport.nic.routes", "count"),
    up("core.fec.repairs", "count"),
    up("core.fec.xor_gbps", "Gb/s"),
    down("core.fec.tracker_ns_per_pkt", "ns"),
    down("core.recovery.overhead_pct", "%"),
    down("core.recovery.rtxbuf_ns_per_op", "ns"),
    down("core.degradation.sheds", "count"),
    up("core.degradation.class_admits", "count"),
    down("core.degradation.ns_per_msg", "ns"),
    down("core.multipath.ns_per_select", "ns"),
    down("core.congestion.ns_per_feedback", "ns"),
    up("flow.fluid.flow_starts", "count"),
    up("flow.fluid.flow_finishes", "count"),
    down("flow.fluid.rate_updates", "count"),
    down("flow.maxmin.recomputes", "count"),
    down("flow.maxmin.ns_per_recompute_c2", "ns"),
    down("flow.maxmin.ns_per_recompute_c64", "ns"),
    down("telemetry.recorder.events_recorded", "count"),
    down("telemetry.recorder.ns_per_emit_chunked", "ns"),
    down("telemetry.recorder.ns_per_emit_off", "ns"),
    down("telemetry.recorder.take_s", "s"),
    down("telemetry.recorder.tax_pct", "%"),
    up("telemetry.file.encode_mbps", "MB/s"),
    up("telemetry.file.decode_mbps", "MB/s"),
    up("lab.runner.trials", "count"),
    down("lab.runner.failures", "count"),
    down("lab.runner.run_s_t1", "s"),
    down("lab.runner.run_s_tn", "s"),
    up("lab.runner.parallel_eff", "ratio"),
    up("lab.runner.trials_per_mcalop_tn", "1/Mcalop"),
    down("lab.runner.ns_per_noop_trial_t1", "ns"),
    down("lab.runner.ns_per_noop_trial_tn", "ns"),
    down("lab.agg.ns_per_trial", "ns"),
    down("lab.agg.aggregate_s", "s"),
    down("lab.artifact.bytes", "bytes"),
    down("lab.artifact.to_json_s", "s"),
    up("lab.artifact.to_json_mbps", "MB/s"),
    down("lab.artifact.load_diff_s", "s"),
    down("lab.train.run_s", "s"),
    down("trainer.engine.evaluations", "count"),
    down("trainer.engine.ns_per_candidate", "ns"),
    down("alloc.allocs_per_event", "1/event"),
    down("alloc.bytes_per_event", "bytes/event"),
    down("span.build_s", "s"),
    down("span.run_s", "s"),
    down("span.collect_s", "s"),
    down("span.encode_s", "s"),
    down("span.verify_s", "s"),
    down("span.trace_overhead_pct", "%"),
    down("share.sim.engine", "ratio"),
    down("share.sim.link_queue", "ratio"),
    down("share.core.fec_recovery", "ratio"),
    down("share.flow.maxmin", "ratio"),
    down("share.telemetry", "ratio"),
    down("share.residual_actor", "ratio"),
    up("host.events_per_s_med", "1/s"),
    up("host.events_per_s_best", "1/s"),
    up("host.calib_mops_med", "Mops/s"),
    down("host.rep_wall_s_med", "s"),
    up("host.reps", "count"),
    up("host.threads", "count"),
    down("host.traced_reps", "count"),
];
