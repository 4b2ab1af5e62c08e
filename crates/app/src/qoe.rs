//! Quality-of-experience accounting (§III-B, §IV).
//!
//! The paper's budgets: 75 ms maximum tolerable round-trip latency for a
//! seamless experience (with 20 ms the Abrash target and ~7 ms the "holy
//! grail"), and at 30 FPS a maximum jitter of 30 ms "in order not to skip a
//! frame". [`QoeRecorder`] turns per-frame latencies into those metrics.

use marnet_sim::stats::{Histogram, OnlineStats};
use marnet_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The paper's maximum tolerable round-trip latency for seamless MAR.
pub const MAX_LATENCY: SimDuration = SimDuration::from_millis(75);

/// The Abrash AR/VR latency target.
pub const ABRASH_TARGET: SimDuration = SimDuration::from_millis(20);

/// Maximum frame-to-frame jitter at 30 FPS before a frame is skipped.
pub const MAX_JITTER_30FPS: SimDuration = SimDuration::from_millis(30);

/// Aggregated QoE verdict for a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeReport {
    /// Frames whose motion-to-photon latency was recorded.
    pub frames: u64,
    /// Mean motion-to-photon latency, ms.
    pub mean_latency_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_latency_ms: f64,
    /// Share of frames within the 75 ms budget.
    pub within_budget: f64,
    /// Share of frames within the 20 ms Abrash target.
    pub within_abrash: f64,
    /// Share of inter-delivery gaps exceeding the 30 ms jitter bound
    /// (skipped frames at 30 FPS).
    pub skip_ratio: f64,
    /// Frames the pipeline never delivered (lost/abandoned), as a share of
    /// frames offered.
    pub loss_ratio: f64,
}

impl QoeReport {
    /// A coarse 0-100 experience score: budget compliance penalised by
    /// skips and losses.
    pub fn score(&self) -> f64 {
        (self.within_budget * 100.0 - self.skip_ratio * 30.0 - self.loss_ratio * 50.0)
            .clamp(0.0, 100.0)
    }
}

/// Streaming recorder of per-frame delivery events.
#[derive(Debug)]
pub struct QoeRecorder {
    latency: Histogram,
    stats: OnlineStats,
    within_budget: u64,
    within_abrash: u64,
    last_delivery: Option<SimTime>,
    gaps_over: u64,
    gaps_total: u64,
    offered: u64,
    delivered: u64,
}

impl QoeRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        QoeRecorder {
            latency: Histogram::new(),
            stats: OnlineStats::new(),
            within_budget: 0,
            within_abrash: 0,
            last_delivery: None,
            gaps_over: 0,
            gaps_total: 0,
            offered: 0,
            delivered: 0,
        }
    }

    /// Notes that a frame was generated (offered to the pipeline).
    pub fn frame_offered(&mut self) {
        self.offered += 1;
    }

    /// Records a frame delivery: `created` when the camera produced it,
    /// `now` when its result reached the display path.
    pub fn frame_delivered(&mut self, created: SimTime, now: SimTime) {
        let latency = now.saturating_since(created);
        self.delivered += 1;
        self.latency.record(latency.as_millis_f64());
        self.stats.record(latency.as_millis_f64());
        if latency <= MAX_LATENCY {
            self.within_budget += 1;
        }
        if latency <= ABRASH_TARGET {
            self.within_abrash += 1;
        }
        if let Some(prev) = self.last_delivery {
            self.gaps_total += 1;
            if now.saturating_since(prev) > MAX_JITTER_30FPS + SimDuration::from_millis(33) {
                self.gaps_over += 1;
            }
        }
        self.last_delivery = Some(now);
    }

    /// Frames delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Produces the aggregated report.
    pub fn report(&mut self) -> QoeReport {
        let frames = self.delivered;
        let ratio = |n: u64| if frames == 0 { 0.0 } else { n as f64 / frames as f64 };
        QoeReport {
            frames,
            mean_latency_ms: self.stats.mean(),
            p95_latency_ms: self.latency.p95().unwrap_or(0.0),
            within_budget: ratio(self.within_budget),
            within_abrash: ratio(self.within_abrash),
            skip_ratio: if self.gaps_total == 0 {
                0.0
            } else {
                self.gaps_over as f64 / self.gaps_total as f64
            },
            loss_ratio: if self.offered == 0 {
                0.0
            } else {
                1.0 - (self.delivered as f64 / self.offered as f64).min(1.0)
            },
        }
    }
}

impl Default for QoeRecorder {
    fn default() -> Self {
        QoeRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_stream_scores_high() {
        let mut q = QoeRecorder::new();
        for i in 0..100u64 {
            q.frame_offered();
            let t = SimTime::from_millis(i * 33);
            q.frame_delivered(t, t + SimDuration::from_millis(15));
        }
        let r = q.report();
        assert_eq!(r.frames, 100);
        assert_eq!(r.within_budget, 1.0);
        assert_eq!(r.within_abrash, 1.0);
        assert_eq!(r.skip_ratio, 0.0);
        assert_eq!(r.loss_ratio, 0.0);
        assert!(r.score() > 99.0);
        assert!((r.mean_latency_ms - 15.0).abs() < 1e-9);
    }

    #[test]
    fn late_frames_fail_the_budget() {
        let mut q = QoeRecorder::new();
        for i in 0..10u64 {
            q.frame_offered();
            let t = SimTime::from_millis(i * 33);
            let latency = if i % 2 == 0 { 50 } else { 120 };
            q.frame_delivered(t, t + SimDuration::from_millis(latency));
        }
        let r = q.report();
        assert!((r.within_budget - 0.5).abs() < 1e-9);
        assert_eq!(r.within_abrash, 0.0);
    }

    #[test]
    fn gaps_count_as_skips() {
        let mut q = QoeRecorder::new();
        q.frame_offered();
        q.frame_delivered(SimTime::ZERO, SimTime::from_millis(10));
        // Next delivery 200 ms later: a skip at 30 FPS.
        q.frame_offered();
        q.frame_delivered(SimTime::from_millis(167), SimTime::from_millis(210));
        let r = q.report();
        assert!(r.skip_ratio > 0.99);
    }

    #[test]
    fn losses_tracked_against_offered() {
        let mut q = QoeRecorder::new();
        for _ in 0..10 {
            q.frame_offered();
        }
        for i in 0..7u64 {
            q.frame_delivered(SimTime::from_millis(i * 33), SimTime::from_millis(i * 33 + 20));
        }
        let r = q.report();
        assert!((r.loss_ratio - 0.3).abs() < 1e-9);
        assert!(r.score() < 90.0);
    }

    #[test]
    fn empty_recorder_reports_zeroes() {
        let mut q = QoeRecorder::new();
        let r = q.report();
        assert_eq!(r.frames, 0);
        assert_eq!(r.within_budget, 0.0);
        assert_eq!(r.score(), 0.0);
    }
}
