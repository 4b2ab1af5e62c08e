//! Experiment specifications: a named scenario, a base parameter set, a
//! cartesian sweep grid and a replicate count, all serde-serializable so a
//! spec can be stored next to the artifact it produced.
//!
//! The [`ScenarioSpec::spec_hash`] is computed over the canonical JSON
//! encoding (sorted keys, shortest-round-trip floats), so two specs hash
//! equal iff they describe the same experiment — the hash goes into the
//! artifact provenance and into every trial's seed derivation.

use marnet_sim::hash::{fnv1a, FNV_OFFSET_BASIS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One parameter value: the small scalar set experiments sweep over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// An integer parameter (counts, RTTs in ms, ...).
    Int(i64),
    /// A floating-point parameter (rates, probabilities, ...).
    Float(f64),
    /// A symbolic parameter (scenario / mechanism / device names).
    Str(String),
    /// A boolean toggle.
    Bool(bool),
}

impl ParamValue {
    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float value (`Int` coerces), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Str(s) => write!(f, "{s}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One axis of the sweep grid: a key and the values it takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridAxis {
    /// Parameter name the axis binds.
    pub key: String,
    /// The values swept, in declaration order.
    pub values: Vec<ParamValue>,
}

/// A full experiment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Experiment name (also the artifact's experiment id).
    pub name: String,
    /// Base seed; every trial derives its own substream from it.
    pub seed: u64,
    /// Replicates per grid point.
    pub replicates: u32,
    /// Parameters shared by every grid point.
    pub base: BTreeMap<String, ParamValue>,
    /// Sweep axes; the grid is their cartesian product, first axis outermost.
    pub grid: Vec<GridAxis>,
}

/// One expanded grid point: base parameters plus one value per axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Position in row-major expansion order.
    pub index: usize,
    /// The merged parameter assignment.
    pub params: BTreeMap<String, ParamValue>,
}

impl GridPoint {
    /// The parameter named `key`.
    ///
    /// # Panics
    ///
    /// Panics if the point has no such parameter — grid points are built
    /// by [`ScenarioSpec::expand_grid`], so a miss is a programming error
    /// in the experiment definition.
    pub fn param(&self, key: &str) -> &ParamValue {
        self.params
            .get(key)
            .unwrap_or_else(|| panic!("grid point {} has no parameter {key:?}", self.index))
    }
}

impl ScenarioSpec {
    /// A spec with no grid axes (a single point) and the given replicates.
    pub fn new(name: impl Into<String>, seed: u64, replicates: u32) -> Self {
        ScenarioSpec {
            name: name.into(),
            seed,
            replicates,
            base: BTreeMap::new(),
            grid: Vec::new(),
        }
    }

    /// Adds a base parameter shared by every point.
    pub fn with_param(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.base.insert(key.into(), value);
        self
    }

    /// Adds a sweep axis.
    pub fn with_axis(mut self, key: impl Into<String>, values: Vec<ParamValue>) -> Self {
        self.grid.push(GridAxis { key: key.into(), values });
        self
    }

    /// Number of grid points (product of axis lengths; 1 with no axes).
    pub fn point_count(&self) -> usize {
        self.grid.iter().map(|a| a.values.len()).product()
    }

    /// Total trials the spec describes (`points × replicates`).
    pub fn trial_count(&self) -> usize {
        self.point_count() * self.replicates as usize
    }

    /// Expands the grid into concrete points, row-major (first axis
    /// outermost), base parameters merged in; axis values override base
    /// values of the same key.
    pub fn expand_grid(&self) -> Vec<GridPoint> {
        let n = self.point_count();
        let mut points = Vec::with_capacity(n);
        for index in 0..n {
            let mut params = self.base.clone();
            // Decompose the row-major index into per-axis positions.
            let mut stride = n;
            for axis in &self.grid {
                stride /= axis.values.len();
                let pos = index / stride % axis.values.len();
                params.insert(axis.key.clone(), axis.values[pos].clone());
            }
            points.push(GridPoint { index, params });
        }
        points
    }

    /// FNV-1a hash of the canonical JSON encoding of the spec.
    ///
    /// The vendored `serde` sorts map keys and `serde_json` prints
    /// shortest-round-trip floats, so the encoding — and therefore this
    /// hash — is stable across runs, platforms and thread counts.
    pub fn spec_hash(&self) -> u64 {
        let canonical = serde_json::to_string(self).expect("spec serializes");
        fnv1a(canonical.as_bytes(), FNV_OFFSET_BASIS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("demo", 7, 3)
            .with_param("loss", ParamValue::Float(0.03))
            .with_axis("mechanism", vec![ParamValue::Str("a".into()), ParamValue::Str("b".into())])
            .with_axis(
                "rtt_ms",
                vec![ParamValue::Int(20), ParamValue::Int(60), ParamValue::Int(120)],
            )
    }

    #[test]
    fn grid_expansion_is_row_major_and_complete() {
        let s = spec();
        assert_eq!(s.point_count(), 6);
        assert_eq!(s.trial_count(), 18);
        let points = s.expand_grid();
        assert_eq!(points.len(), 6);
        // First axis outermost: mechanism a for indices 0..3.
        assert_eq!(points[0].param("mechanism").as_str(), Some("a"));
        assert_eq!(points[2].param("mechanism").as_str(), Some("a"));
        assert_eq!(points[3].param("mechanism").as_str(), Some("b"));
        // Second axis cycles within.
        assert_eq!(points[0].param("rtt_ms").as_int(), Some(20));
        assert_eq!(points[1].param("rtt_ms").as_int(), Some(60));
        assert_eq!(points[5].param("rtt_ms").as_int(), Some(120));
        // Base params are merged into every point.
        assert_eq!(points[4].param("loss").as_float(), Some(0.03));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn spec_without_axes_is_a_single_point() {
        let s = ScenarioSpec::new("solo", 1, 5).with_param("x", ParamValue::Bool(true));
        let points = s.expand_grid();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].params.len(), 1);
    }

    #[test]
    fn spec_hash_is_stable_and_discriminating() {
        let a = spec();
        let b = spec();
        assert_eq!(a.spec_hash(), b.spec_hash());
        let mut c = spec();
        c.seed = 8;
        assert_ne!(a.spec_hash(), c.spec_hash());
        let mut d = spec();
        d.grid[1].values.pop();
        assert_ne!(a.spec_hash(), d.spec_hash());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let a = spec();
        let json = serde_json::to_string(&a).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.spec_hash(), back.spec_hash());
    }
}
