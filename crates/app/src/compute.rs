//! The execution-time models of §III-B (Eqs. 1-3).
//!
//! The paper formalises when a MAR application `a` with frame rate `f(a)`
//! and per-frame processing requirement `p(a)` is viable:
//!
//! * `P_local(R_m, f, p) < δ_a` — pure local execution;
//! * `P_local+externalDB(R_m, f, p, d, o, b_mc, l_mc, x) < δ_a` — local
//!   compute, remote object database, with `x` the locally cached share;
//! * `P_offloading(R_m, R_c, f, p, d, o, b_mc, l_mc, x, y) < δ_a` —
//!   computation split between device and cloud, `x` the local share of
//!   the computation and `y` whether data and compute share a surrogate.
//!
//! `δ_a` defaults to one frame interval (`1/f`) — the paper's "minimum
//! frame generation rate" reading — optionally tightened to the 75 ms
//! interactive budget.

use crate::device::DeviceSpec;
use marnet_sim::link::Bandwidth;
use marnet_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-frame processing requirement `p(a)`, decomposed by pipeline stage.
///
/// The stage split is what offloading strategies cut at: CloudRidAR runs
/// extraction locally and matching remotely; Glimpse runs tracking locally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameWork {
    /// Feature extraction cost in GFLOP per frame.
    pub extraction_gflop: f64,
    /// Feature matching / recognition cost in GFLOP per frame.
    pub matching_gflop: f64,
    /// Object tracking cost in GFLOP per frame (cheap, local in Glimpse).
    pub tracking_gflop: f64,
    /// Pose estimation + rendering preparation in GFLOP per frame.
    pub rendering_gflop: f64,
}

impl FrameWork {
    /// A vision-based MAR workload calibrated so a 2017 smartphone
    /// (~15 GFLOPS) cannot run it at 30 FPS but a server can — the paper's
    /// premise that "vision-based applications are almost impossible to run
    /// on wearables, and very challenging on smartphones".
    pub fn vision_pipeline() -> Self {
        FrameWork {
            extraction_gflop: 0.40,
            matching_gflop: 0.90,
            tracking_gflop: 0.05,
            rendering_gflop: 0.15,
        }
    }

    /// Total GFLOP per frame.
    pub fn total_gflop(&self) -> f64 {
        self.extraction_gflop + self.matching_gflop + self.tracking_gflop + self.rendering_gflop
    }
}

/// Database access pattern: `d(a)` requests per frame of `o(a)`-byte
/// virtual objects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbAccess {
    /// Requests per frame, `d(a)`.
    pub requests_per_frame: f64,
    /// Virtual-object size in bytes, `o(a)`.
    pub object_bytes: u64,
}

impl DbAccess {
    /// A browser-style workload: a couple of object lookups per frame.
    pub fn browser() -> Self {
        DbAccess { requests_per_frame: 2.0, object_bytes: 50_000 }
    }
}

/// Network parameters of the device↔cloud link `n_mc`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetParams {
    /// Uplink bandwidth `b_mc` (device → cloud).
    pub uplink: Bandwidth,
    /// Downlink bandwidth (cloud → device).
    pub downlink: Bandwidth,
    /// Round-trip latency `l_mc`.
    pub rtt: SimDuration,
}

/// What an execution-model evaluation concluded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionEstimate {
    /// Estimated per-frame completion time.
    pub per_frame: SimDuration,
    /// The deadline `δ_a` it was checked against.
    pub deadline: SimDuration,
}

impl ExecutionEstimate {
    /// Eq. 1-3's verdict: `P(...) < δ_a`.
    pub fn feasible(&self) -> bool {
        self.per_frame < self.deadline
    }
}

/// Evaluates the paper's three execution models for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    /// Frame generation rate `f(a)` in frames per second.
    pub fps: f64,
    /// Per-frame processing requirement `p(a)`.
    pub work: FrameWork,
    /// Database access pattern, if the application uses a remote DB.
    pub db: Option<DbAccess>,
    /// Deadline `δ_a`; defaults to one frame interval.
    pub deadline: SimDuration,
}

impl ComputeModel {
    /// A model with `δ_a = 1/f` (sustained frame-rate reading of Eq. 1).
    pub fn new(fps: f64, work: FrameWork) -> Self {
        assert!(fps > 0.0, "frame rate must be positive");
        ComputeModel { fps, work, db: None, deadline: SimDuration::from_secs_f64(1.0 / fps) }
    }

    /// Attaches a database access pattern, builder style.
    #[must_use]
    pub fn with_db(mut self, db: DbAccess) -> Self {
        self.db = Some(db);
        self
    }

    /// Overrides the deadline (e.g. the 75 ms interactive budget),
    /// builder style.
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    fn compute_time(gflop: f64, gflops: f64) -> SimDuration {
        SimDuration::from_secs_f64(gflop / gflops.max(1e-9))
    }

    /// `P_local`: everything on the device.
    pub fn p_local(&self, device: &DeviceSpec) -> ExecutionEstimate {
        let per_frame = Self::compute_time(self.work.total_gflop(), device.compute_gflops);
        ExecutionEstimate { per_frame, deadline: self.deadline }
    }

    /// `P_local+externalDB`: local compute, remote object database; `x` is
    /// the fraction of objects served from the local cache (Eq. 2's `x`).
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]` or no DB pattern is configured.
    pub fn p_local_external_db(
        &self,
        device: &DeviceSpec,
        net: &NetParams,
        x_cached: f64,
    ) -> ExecutionEstimate {
        assert!((0.0..=1.0).contains(&x_cached), "cache share out of range");
        let db = self.db.expect("DB access pattern required for P_local+externalDB");
        let mut per_frame = Self::compute_time(self.work.total_gflop(), device.compute_gflops);
        let misses = db.requests_per_frame * (1.0 - x_cached);
        if misses > 0.0 {
            let fetch_bits = db.object_bytes as f64 * 8.0;
            let transfer =
                SimDuration::from_secs_f64(fetch_bits / net.downlink.as_bps().max(1) as f64);
            per_frame += (net.rtt + transfer).mul_f64(misses);
        }
        ExecutionEstimate { per_frame, deadline: self.deadline }
    }

    /// `P_offloading`: computation split between device and cloud.
    ///
    /// `x_local` is the fraction of the per-frame computation kept on the
    /// device; `uplink_bytes`/`downlink_bytes` are the per-frame payloads
    /// the chosen strategy moves; `y_colocated` is Eq. 3's `y`: when data
    /// and computation live on different surrogates, each DB miss pays an
    /// extra inter-server round trip.
    ///
    /// # Panics
    ///
    /// Panics if `x_local` is outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn p_offloading(
        &self,
        device: &DeviceSpec,
        cloud: &DeviceSpec,
        net: &NetParams,
        x_local: f64,
        uplink_bytes: u64,
        downlink_bytes: u64,
        y_colocated: bool,
        x_cached: f64,
    ) -> ExecutionEstimate {
        assert!((0.0..=1.0).contains(&x_local), "local share out of range");
        let total = self.work.total_gflop();
        let local = Self::compute_time(total * x_local, device.compute_gflops);
        let remote = Self::compute_time(total * (1.0 - x_local), cloud.compute_gflops);
        let up = SimDuration::from_secs_f64(
            uplink_bytes as f64 * 8.0 / net.uplink.as_bps().max(1) as f64,
        );
        let down = SimDuration::from_secs_f64(
            downlink_bytes as f64 * 8.0 / net.downlink.as_bps().max(1) as f64,
        );
        let mut per_frame = local + remote + up + down + net.rtt;
        if let Some(db) = self.db {
            let misses = db.requests_per_frame * (1.0 - x_cached.clamp(0.0, 1.0));
            if misses > 0.0 && !y_colocated {
                // Data on a different surrogate: inter-server RTT per miss
                // (we charge half the access RTT as a datacenter-to-
                // datacenter round trip).
                per_frame += net.rtt.mul_f64(0.5 * misses);
            }
        }
        ExecutionEstimate { per_frame, deadline: self.deadline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;

    fn net(up_mbps: f64, down_mbps: f64, rtt_ms: u64) -> NetParams {
        NetParams {
            uplink: Bandwidth::from_mbps(up_mbps),
            downlink: Bandwidth::from_mbps(down_mbps),
            rtt: SimDuration::from_millis(rtt_ms),
        }
    }

    #[test]
    fn vision_pipeline_infeasible_on_wearables_feasible_on_cloud() {
        // The paper's premise (§III-B): vision workloads are impossible on
        // wearables, challenging on smartphones, fine on servers.
        let model = ComputeModel::new(30.0, FrameWork::vision_pipeline());
        let glasses = model.p_local(&DeviceClass::SmartGlasses.spec());
        assert!(!glasses.feasible(), "glasses must fail: {:?}", glasses);
        let phone = model.p_local(&DeviceClass::Smartphone.spec());
        assert!(!phone.feasible(), "a 2017 phone must fail 30 FPS vision");
        let desktop = model.p_local(&DeviceClass::Desktop.spec());
        assert!(desktop.feasible());
        let cloud = model.p_local(&DeviceClass::Cloud.spec());
        assert!(cloud.feasible());
        assert!(cloud.per_frame < desktop.per_frame);
    }

    #[test]
    fn tracking_only_runs_on_phone() {
        // Glimpse's insight: tracking alone is cheap enough for the device.
        let tracking_only = FrameWork {
            extraction_gflop: 0.0,
            matching_gflop: 0.0,
            tracking_gflop: 0.05,
            rendering_gflop: 0.15,
        };
        let model = ComputeModel::new(30.0, tracking_only);
        assert!(model.p_local(&DeviceClass::Smartphone.spec()).feasible());
    }

    #[test]
    fn external_db_cost_scales_with_cache_misses() {
        let model =
            ComputeModel::new(30.0, FrameWork::vision_pipeline()).with_db(DbAccess::browser());
        let phone = DeviceClass::Smartphone.spec();
        let n = net(8.0, 20.0, 40);
        let all_cached = model.p_local_external_db(&phone, &n, 1.0);
        let none_cached = model.p_local_external_db(&phone, &n, 0.0);
        assert!(none_cached.per_frame > all_cached.per_frame);
        // Fully cached equals pure local.
        assert_eq!(all_cached.per_frame, model.p_local(&phone).per_frame);
        // Two misses/frame × (40 ms + 20 ms transfer) dominates.
        assert!(none_cached.per_frame > SimDuration::from_millis(100));
    }

    #[test]
    fn offloading_beats_local_when_network_is_good() {
        let model = ComputeModel::new(30.0, FrameWork::vision_pipeline())
            .with_deadline(SimDuration::from_millis(75));
        let phone = DeviceClass::Smartphone.spec();
        let cloud = DeviceClass::Cloud.spec();
        // Good WiFi to a nearby edge: 16 ms RTT (between Table II's
        // local-server and cloud-over-WiFi scenarios).
        let good = net(20.0, 20.0, 16);
        // CloudRidAR split: extraction local (x = extraction share),
        // features uplinked (~40 KB), pose downlinked (~1 KB).
        let x = model.work.extraction_gflop / model.work.total_gflop();
        let est = model.p_offloading(&phone, &cloud, &good, x, 16_000, 1_000, true, 0.0);
        assert!(est.feasible(), "offload must fit 75 ms: {:?}", est.per_frame);
        assert!(est.per_frame < model.p_local(&phone).per_frame);
    }

    #[test]
    fn offloading_fails_on_lte_rtt() {
        // Table II scenario 4: LTE at 120 ms RTT — "definitely not
        // suitable for AR applications".
        let model = ComputeModel::new(30.0, FrameWork::vision_pipeline())
            .with_deadline(SimDuration::from_millis(75));
        let phone = DeviceClass::Smartphone.spec();
        let cloud = DeviceClass::Cloud.spec();
        let lte = net(5.0, 12.0, 120);
        let est = model.p_offloading(&phone, &cloud, &lte, 0.0, 25_000, 1_000, true, 0.0);
        assert!(!est.feasible());
    }

    #[test]
    fn split_surrogates_cost_more() {
        let model =
            ComputeModel::new(30.0, FrameWork::vision_pipeline()).with_db(DbAccess::browser());
        let phone = DeviceClass::Smartphone.spec();
        let cloud = DeviceClass::Cloud.spec();
        let n = net(10.0, 20.0, 40);
        let colocated = model.p_offloading(&phone, &cloud, &n, 0.0, 25_000, 1_000, true, 0.0);
        let split = model.p_offloading(&phone, &cloud, &n, 0.0, 25_000, 1_000, false, 0.0);
        assert!(split.per_frame > colocated.per_frame, "Eq. 3: y matters");
    }

    #[test]
    fn headroom_math() {
        // Feasible means strictly positive headroom under the deadline.
        let deadline = SimDuration::from_millis(75);
        let e = ExecutionEstimate { per_frame: SimDuration::from_millis(25), deadline };
        assert!(e.feasible());
        assert!(!ExecutionEstimate { per_frame: deadline, deadline }.feasible());
    }

    #[test]
    fn deadline_defaults_to_frame_interval() {
        let m = ComputeModel::new(25.0, FrameWork::vision_pipeline());
        assert_eq!(m.deadline, SimDuration::from_millis(40));
    }

    #[test]
    #[should_panic]
    fn db_model_requires_db_pattern() {
        let m = ComputeModel::new(30.0, FrameWork::vision_pipeline());
        let _ = m.p_local_external_db(&DeviceClass::Smartphone.spec(), &net(10.0, 10.0, 10), 0.5);
    }
}
