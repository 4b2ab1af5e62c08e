//! The searchable policy space: typed, bounded dimensions with clamping,
//! and the compilation of a flat candidate vector into
//! [`PolicyParams`] (and from there into an `ArConfig`).
//!
//! Scattered knobs gathered here (one dimension each): the degradation
//! staleness horizon and backlog ladder (`core::degradation`), the
//! delay/jitter congestion thresholds, decrease factor and additive
//! increase (`core::congestion`), the FEC group size (`core::fec`), the
//! §VI-D multipath policy and recovery duplication (`core::multipath`),
//! and the ARQ stance (`core::recovery`).

use marnet_core::multipath::MultipathPolicy;
use marnet_core::policy::{ArqMode, PolicyParams};
use serde::{Deserialize, Serialize};

/// How a dimension's real line maps onto policy values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimKind {
    /// Any real value in `[lo, hi]`.
    Continuous,
    /// Integers in `[lo, hi]`; clamping rounds to the nearest.
    Integer,
    /// An index into a fixed choice list, `lo = 0`, `hi = choices - 1`;
    /// clamping rounds to the nearest index.
    Categorical,
}

/// One bounded dimension of the search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dimension {
    /// Stable name (also the artifact key).
    pub name: String,
    /// Lower bound, inclusive.
    pub lo: f64,
    /// Upper bound, inclusive.
    pub hi: f64,
    /// Value semantics.
    pub kind: DimKind,
}

impl Dimension {
    fn new(name: &str, lo: f64, hi: f64, kind: DimKind) -> Self {
        Dimension { name: name.to_string(), lo, hi, kind }
    }

    /// Clamps `v` into the dimension (non-finite values collapse to `lo`;
    /// integer/categorical dimensions round first).
    pub fn clamp(&self, v: f64) -> f64 {
        if !v.is_finite() {
            return self.lo;
        }
        match self.kind {
            DimKind::Continuous => v.clamp(self.lo, self.hi),
            DimKind::Integer | DimKind::Categorical => v.round().clamp(self.lo, self.hi),
        }
    }

    /// Whether `v` is a legal value for this dimension.
    pub fn contains(&self, v: f64) -> bool {
        v.is_finite() && v == self.clamp(v)
    }

    /// Maps a legal value into the normalized unit interval the engine
    /// samples in.
    pub fn normalize(&self, v: f64) -> f64 {
        (v - self.lo) / (self.hi - self.lo)
    }

    /// Maps a unit-interval coordinate back to a (clamped) legal value.
    pub fn denormalize(&self, n: f64) -> f64 {
        self.clamp(self.lo + n * (self.hi - self.lo))
    }
}

/// One candidate: a flat vector, one value per space dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyPoint {
    /// Dimension values, in [`PolicySpace::dims`] order.
    pub values: Vec<f64>,
}

/// The FEC group-size choice list behind the `fec_k` categorical
/// dimension; index 0 disables FEC.
pub const FEC_CHOICES: [Option<usize>; 5] = [None, Some(2), Some(4), Some(8), Some(16)];

/// The multipath-policy choice list behind the `multipath` categorical
/// dimension.
pub const MULTIPATH_CHOICES: [MultipathPolicy; 3] =
    [MultipathPolicy::WifiOnly, MultipathPolicy::WifiPreferred, MultipathPolicy::Aggregate];

/// Stable identifier of the AR degradation-policy space layout.
pub const AR_SPACE_ID: &str = "ar-policy-v1";

/// An ordered, serializable set of dimensions plus the identity of the
/// layout (which fixes how [`PolicySpace::compile`] interprets indices).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpace {
    /// Layout identifier; [`AR_SPACE_ID`] for the built-in AR space.
    pub id: String,
    /// The dimensions, in vector order.
    pub dims: Vec<Dimension>,
}

impl PolicySpace {
    /// The built-in space over the AR degradation controllers (ten
    /// dimensions; bounds chosen to bracket the paper defaults by roughly
    /// half an order of magnitude each way while staying physically
    /// meaningful — e.g. the staleness horizon stays above two pacing
    /// ticks and below the point where "stale" loses meaning for 30 FPS
    /// video).
    pub fn ar_default() -> Self {
        use DimKind::{Categorical, Continuous};
        PolicySpace {
            id: AR_SPACE_ID.to_string(),
            dims: vec![
                Dimension::new("stale_after_ms", 60.0, 400.0, Continuous),
                Dimension::new("backlog_ticks", 2.0, 16.0, Continuous),
                Dimension::new("latency_threshold_ms", 5.0, 60.0, Continuous),
                Dimension::new("jitter_threshold_ms", 10.0, 80.0, Continuous),
                Dimension::new("beta", 0.5, 0.95, Continuous),
                Dimension::new("increase_per_rtt", 2_000.0, 60_000.0, Continuous),
                Dimension::new("fec_k", 0.0, (FEC_CHOICES.len() - 1) as f64, Categorical),
                Dimension::new("multipath", 0.0, (MULTIPATH_CHOICES.len() - 1) as f64, Categorical),
                Dimension::new("duplicate_recovery", 0.0, 1.0, Categorical),
                Dimension::new("arq", 0.0, (ArqMode::ALL.len() - 1) as f64, Categorical),
            ],
        }
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Clamps every coordinate of `point` into its dimension.
    pub fn clamp(&self, point: &mut PolicyPoint) {
        assert_eq!(point.values.len(), self.dims.len(), "point/space arity mismatch");
        for (v, d) in point.values.iter_mut().zip(&self.dims) {
            *v = d.clamp(*v);
        }
    }

    /// Whether every coordinate is a legal value of its dimension.
    pub fn contains(&self, point: &PolicyPoint) -> bool {
        point.values.len() == self.dims.len()
            && point.values.iter().zip(&self.dims).all(|(v, d)| d.contains(*v))
    }

    /// Compiles a (clamped) candidate into [`PolicyParams`].
    ///
    /// # Panics
    ///
    /// Panics if the space is not the [`AR_SPACE_ID`] layout or the point
    /// arity mismatches — both programming errors, not data errors.
    pub fn compile(&self, point: &PolicyPoint) -> PolicyParams {
        assert_eq!(self.id, AR_SPACE_ID, "unknown policy-space layout {:?}", self.id);
        assert_eq!(point.values.len(), self.dims.len(), "point/space arity mismatch");
        let v = &point.values;
        PolicyParams {
            stale_after_ms: v[0],
            backlog_ticks: v[1],
            latency_threshold_ms: v[2],
            jitter_threshold_ms: v[3],
            beta: v[4],
            increase_per_rtt: v[5],
            fec_group: FEC_CHOICES[v[6] as usize],
            multipath: MULTIPATH_CHOICES[v[7] as usize],
            duplicate_recovery: v[8] != 0.0,
            arq: ArqMode::ALL[v[9] as usize],
        }
    }

    /// Encodes a [`PolicyParams`] back into a candidate vector (inverse of
    /// [`PolicySpace::compile`] up to clamping). Used to seed the search
    /// with the paper-default incumbent.
    pub fn encode(&self, params: &PolicyParams) -> PolicyPoint {
        assert_eq!(self.id, AR_SPACE_ID, "unknown policy-space layout {:?}", self.id);
        let fec_idx = FEC_CHOICES
            .iter()
            .position(|c| *c == params.fec_group)
            .expect("fec_group not representable in the search space");
        let mp_idx =
            MULTIPATH_CHOICES.iter().position(|m| *m == params.multipath).expect("multipath");
        let arq_idx = ArqMode::ALL.iter().position(|a| *a == params.arq).expect("arq");
        let mut point = PolicyPoint {
            values: vec![
                params.stale_after_ms,
                params.backlog_ticks,
                params.latency_threshold_ms,
                params.jitter_threshold_ms,
                params.beta,
                params.increase_per_rtt,
                fec_idx as f64,
                mp_idx as f64,
                params.duplicate_recovery as u8 as f64,
                arq_idx as f64,
            ],
        };
        self.clamp(&mut point);
        point
    }

    /// The paper-default candidate (the incumbent every search starts
    /// from).
    pub fn default_point(&self) -> PolicyPoint {
        self.encode(&PolicyParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_point_compiles_to_default_params() {
        let space = PolicySpace::ar_default();
        let p = space.default_point();
        assert!(space.contains(&p));
        assert_eq!(space.compile(&p), PolicyParams::default());
    }

    #[test]
    fn clamping_brings_wild_vectors_in_bounds() {
        let space = PolicySpace::ar_default();
        let mut p = PolicyPoint { values: vec![f64::NAN; space.len()] };
        space.clamp(&mut p);
        assert!(space.contains(&p));
        let mut q =
            PolicyPoint { values: vec![1e9, -1e9, 30.0, 0.0, 0.7, 2_500.0, 3.7, -2.0, 0.4, 9.0] };
        space.clamp(&mut q);
        assert!(space.contains(&q));
        assert_eq!(q.values[6], 4.0); // rounded categorical
        assert_eq!(q.values[7], 0.0); // clamped categorical
        assert_eq!(q.values[8], 0.0); // rounded bool
        assert_eq!(q.values[9], 2.0);
    }

    #[test]
    fn encode_compile_round_trip() {
        let space = PolicySpace::ar_default();
        let params = PolicyParams {
            stale_after_ms: 200.0,
            fec_group: Some(16),
            multipath: MultipathPolicy::Aggregate,
            duplicate_recovery: true,
            arq: ArqMode::Off,
            ..PolicyParams::default()
        };
        assert_eq!(space.compile(&space.encode(&params)), params);
    }

    #[test]
    fn normalization_round_trips_on_continuous_dims() {
        let d = Dimension::new("x", 10.0, 20.0, DimKind::Continuous);
        for v in [10.0, 13.3, 20.0] {
            assert!((d.denormalize(d.normalize(v)) - v).abs() < 1e-12);
        }
        assert_eq!(d.denormalize(2.0), 20.0);
        assert_eq!(d.denormalize(-1.0), 10.0);
    }
}
