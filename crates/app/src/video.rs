//! Video bitrate arithmetic and frame generation (§III-B).
//!
//! The paper's bandwidth estimates: the human eye delivers ~6-10 Mb/s to
//! the brain from the foveal region; scaled to a smartphone camera's 60-70°
//! field of view that is ~9-12 Gb/s of raw information; an uncompressed 4K
//! 60 FPS 12 bpp stream is multi-Gb/s on the wire; lossy compression brings
//! it to 20-30 Mb/s; and ~10 Mb/s is the floor for a feed that still
//! supports advanced AR operations.

use marnet_sim::link::Bandwidth;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// The paper's minimal uplink bandwidth for AR-usable video, ~10 Mb/s.
pub const MIN_AR_VIDEO: Bandwidth = Bandwidth::from_bps(10_000_000);

/// Foveal data rate of the human eye (midpoint of the quoted 6-10 Mb/s).
pub const EYE_FOVEAL_RATE: Bandwidth = Bandwidth::from_bps(10_000_000);

/// Diameter of the accurate foveal region in degrees of visual field.
pub const FOVEA_DEG: f64 = 2.0;

/// The §III-B retina-scaling estimate: raw information rate of a camera
/// with the given field of view, extrapolated from the foveal rate by
/// solid-angle ratio `(fov/fovea)²`.
///
/// ```
/// use marnet_app::video::eye_scaled_rate;
/// // 60-70° FOV ⇒ the paper's "9 to 12 Gb/s" estimate.
/// assert!((eye_scaled_rate(60.0).as_bps() as f64 / 1e9 - 9.0).abs() < 0.1);
/// assert!((eye_scaled_rate(70.0).as_bps() as f64 / 1e9 - 12.25).abs() < 0.1);
/// ```
pub fn eye_scaled_rate(fov_deg: f64) -> Bandwidth {
    assert!(fov_deg > 0.0, "field of view must be positive");
    let ratio = (fov_deg / FOVEA_DEG).powi(2);
    Bandwidth::from_bps((EYE_FOVEAL_RATE.as_bps() as f64 * ratio) as u64)
}

/// A video feed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// Bits per pixel before compression.
    pub bits_per_pixel: f64,
    /// Compression factor (raw/compressed); 1.0 = uncompressed.
    pub compression: f64,
    /// Group-of-pictures length: one reference frame per `gop` frames.
    pub gop: u32,
    /// Size ratio of a reference frame to an interframe.
    pub ref_to_inter_ratio: f64,
}

impl VideoConfig {
    /// The paper's 4K example: 3840×2160, 60 FPS, 12 bpp.
    pub fn uhd_4k_60() -> Self {
        VideoConfig {
            width: 3840,
            height: 2160,
            fps: 60.0,
            bits_per_pixel: 12.0,
            compression: 1.0,
            gop: 30,
            ref_to_inter_ratio: 6.0,
        }
    }

    /// A 720p 30 FPS feed compressed to ~10 Mb/s — the minimal AR-usable
    /// stream of §III-B.
    pub fn ar_minimal() -> Self {
        VideoConfig {
            width: 1280,
            height: 720,
            fps: 30.0,
            bits_per_pixel: 12.0,
            compression: 33.0,
            gop: 10,
            ref_to_inter_ratio: 5.0,
        }
    }

    /// Sets the compression factor, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    #[must_use]
    pub fn with_compression(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "compression factor must be ≥ 1");
        self.compression = factor;
        self
    }

    /// Raw (uncompressed) bitrate.
    pub fn raw_bitrate(&self) -> Bandwidth {
        let bps = f64::from(self.width) * f64::from(self.height) * self.bits_per_pixel * self.fps;
        Bandwidth::from_bps(bps as u64)
    }

    /// Bitrate after compression.
    pub fn bitrate(&self) -> Bandwidth {
        Bandwidth::from_bps((self.raw_bitrate().as_bps() as f64 / self.compression) as u64)
    }

    /// Mean frame size in bytes after compression.
    pub fn mean_frame_bytes(&self) -> u32 {
        (self.bitrate().as_bps() as f64 / self.fps / 8.0) as u32
    }

    /// Sizes of the reference frame and interframes such that the GoP
    /// averages to the configured bitrate: `(ref_bytes, inter_bytes)`.
    pub fn gop_frame_sizes(&self) -> (u32, u32) {
        let mean = f64::from(self.mean_frame_bytes());
        let g = f64::from(self.gop);
        let r = self.ref_to_inter_ratio;
        // mean*g = r*s + (g-1)*s  ⇒  s = mean*g / (r + g - 1)
        let inter = mean * g / (r + g - 1.0);
        ((inter * r) as u32, inter as u32)
    }
}

/// One generated video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Frame index.
    pub index: u64,
    /// Whether it is a reference (key) frame.
    pub is_reference: bool,
    /// Encoded size in bytes.
    pub bytes: u32,
}

/// Deterministic GoP frame generator with optional size jitter.
#[derive(Debug)]
pub struct FrameSource {
    cfg: VideoConfig,
    index: u64,
    /// Relative size jitter (0.1 = ±10%), sampled uniformly.
    jitter: f64,
    rng: ChaCha12Rng,
    /// Quality scale applied to interframes (graceful degradation hook).
    quality: f64,
}

impl FrameSource {
    /// A generator over `cfg` with the given relative size jitter.
    pub fn new(cfg: VideoConfig, jitter: f64, rng: ChaCha12Rng) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        FrameSource { cfg, index: 0, jitter, rng, quality: 1.0 }
    }

    /// Current quality scale (1.0 = full quality).
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Adjusts interframe quality (clamped to `[0.05, 1]`); the graceful
    /// degradation QoS hook.
    pub fn set_quality(&mut self, quality: f64) {
        self.quality = quality.clamp(0.05, 1.0);
    }

    /// Produces the next frame.
    pub fn next_frame(&mut self) -> Frame {
        let (ref_bytes, inter_bytes) = self.cfg.gop_frame_sizes();
        let is_reference = self.index.is_multiple_of(u64::from(self.cfg.gop));
        let base =
            if is_reference { f64::from(ref_bytes) } else { f64::from(inter_bytes) * self.quality };
        let factor = if self.jitter > 0.0 {
            1.0 + self.rng.gen_range(-self.jitter..=self.jitter)
        } else {
            1.0
        };
        let frame =
            Frame { index: self.index, is_reference, bytes: (base * factor).max(64.0) as u32 };
        self.index += 1;
        frame
    }

    /// The interval between frames.
    pub fn frame_interval(&self) -> marnet_sim::time::SimDuration {
        marnet_sim::time::SimDuration::from_secs_f64(1.0 / self.cfg.fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marnet_sim::rng::derive_rng;

    #[test]
    fn raw_4k_is_multi_gbps() {
        let v = VideoConfig::uhd_4k_60();
        let gbps = v.raw_bitrate().as_bps() as f64 / 1e9;
        // 3840×2160×12×60 = 5.97 Gb/s. (The paper prints "711 Mb/s" for
        // this stream, which matches bytes rather than bits — the
        // discrepancy is recorded in EXPERIMENTS.md E15.)
        assert!((gbps - 5.97).abs() < 0.02, "raw 4k = {gbps} Gb/s");
    }

    #[test]
    fn compressed_4k_hits_the_quoted_20_30_mbps() {
        // Lossy compression around 200-300x brings 4K to 20-30 Mb/s (§III-B).
        let v = VideoConfig::uhd_4k_60().with_compression(240.0);
        let mbps = v.bitrate().as_mbps();
        assert!((20.0..31.0).contains(&mbps), "{mbps} Mb/s");
    }

    #[test]
    fn minimal_ar_feed_is_about_10_mbps() {
        let v = VideoConfig::ar_minimal();
        let mbps = v.bitrate().as_mbps();
        assert!((9.0..11.0).contains(&mbps), "{mbps} Mb/s");
    }

    #[test]
    fn retina_estimate_matches_paper_range() {
        let low = eye_scaled_rate(60.0).as_bps() as f64 / 1e9;
        let high = eye_scaled_rate(70.0).as_bps() as f64 / 1e9;
        assert!(low >= 8.9 && high <= 12.5, "{low}..{high} Gb/s");
    }

    #[test]
    fn gop_sizes_average_to_bitrate() {
        let v = VideoConfig::ar_minimal();
        let (r, i) = v.gop_frame_sizes();
        assert!(r > i);
        let gop_bytes = u64::from(r) + u64::from(i) * u64::from(v.gop - 1);
        let mean = gop_bytes as f64 / f64::from(v.gop);
        let expected = f64::from(v.mean_frame_bytes());
        assert!((mean - expected).abs() / expected < 0.01, "mean {mean} vs {expected}");
    }

    #[test]
    fn frame_source_produces_gop_pattern() {
        let v = VideoConfig::ar_minimal();
        let mut src = FrameSource::new(v, 0.0, derive_rng(1, "video"));
        let frames: Vec<Frame> = (0..20).map(|_| src.next_frame()).collect();
        assert!(frames[0].is_reference);
        assert!(frames[10].is_reference);
        assert!(!frames[1].is_reference && !frames[9].is_reference);
        assert!(frames[0].bytes > frames[1].bytes * 3);
        assert_eq!(src.frame_interval().as_millis_f64().round(), 33.0);
    }

    #[test]
    fn quality_scales_interframes_only() {
        let v = VideoConfig::ar_minimal();
        let mut src = FrameSource::new(v, 0.0, derive_rng(1, "video2"));
        let ref1 = src.next_frame();
        let inter_full = src.next_frame();
        src.set_quality(0.5);
        let inter_half = src.next_frame();
        assert!((f64::from(inter_half.bytes) / f64::from(inter_full.bytes) - 0.5).abs() < 0.02);
        // Next GoP's reference frame is unscaled.
        for _ in 0..7 {
            src.next_frame();
        }
        let ref2 = src.next_frame();
        assert!(ref2.is_reference);
        assert_eq!(ref1.bytes, ref2.bytes);
    }

    #[test]
    fn quality_clamps() {
        let v = VideoConfig::ar_minimal();
        let mut src = FrameSource::new(v, 0.0, derive_rng(1, "video3"));
        src.set_quality(3.0);
        assert_eq!(src.quality(), 1.0);
        src.set_quality(-1.0);
        assert_eq!(src.quality(), 0.05);
    }

    #[test]
    fn jitter_varies_sizes() {
        let v = VideoConfig::ar_minimal();
        let mut src = FrameSource::new(v, 0.2, derive_rng(1, "video4"));
        let sizes: Vec<u32> = (0..10)
            .map(|_| src.next_frame())
            .filter(|f| !f.is_reference)
            .map(|f| f.bytes)
            .collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "jitter must vary sizes: {sizes:?}");
    }
}
