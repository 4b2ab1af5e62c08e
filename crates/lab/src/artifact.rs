//! Versioned, reproducible experiment artifacts.
//!
//! An [`Artifact`] is the JSON file a lab run leaves behind: schema
//! version, full provenance (spec, spec hash, base seed, replicate count,
//! failure count) and the per-point aggregates. Nothing time- or
//! machine-dependent goes in, so the same spec at any thread count
//! produces a byte-identical file — which is what makes
//! [`Artifact::diff`] against a stored baseline meaningful.

use crate::agg::{aggregate_run, PointSummary};
use crate::runner::ExperimentRun;
use crate::spec::ScenarioSpec;
use marnet_telemetry::MetricsSnapshot;
use serde::{object_get, Deserialize, Error, Serialize, Value};
use std::fs;
use std::io;
use std::path::Path;

/// Base artifact schema version (no metrics section).
pub const SCHEMA_VERSION: u32 = 1;

/// Schema version written when the optional `metrics` section is present.
pub const SCHEMA_VERSION_METRICS: u32 = 2;

/// A complete, versioned experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Artifact schema version: [`SCHEMA_VERSION`], or
    /// [`SCHEMA_VERSION_METRICS`] when `metrics` is present.
    pub schema_version: u32,
    /// Experiment name (mirrors `spec.name`).
    pub experiment: String,
    /// Base seed the run used (mirrors `spec.seed`).
    pub seed: u64,
    /// Replicates per point (mirrors `spec.replicates`).
    pub replicates: u32,
    /// Hex [`ScenarioSpec::spec_hash`] of `spec`.
    pub spec_hash: String,
    /// Total replicates that panicked across all points.
    pub failed_trials: u32,
    /// The full spec, for re-running the experiment from the artifact.
    pub spec: ScenarioSpec,
    /// Per-point aggregates, in grid order.
    pub points: Vec<PointSummary>,
    /// Schema-v2 section: one merged metrics snapshot per point, in grid
    /// order (counters summed, series concatenated across replicates).
    /// `None` for runs without `--metrics` — the field is then omitted from
    /// the JSON entirely, keeping v1 artifacts byte-identical.
    pub metrics: Option<Vec<MetricsSnapshot>>,
}

// Hand-written (de)serialization: the vendored serde derive always writes
// every field (an absent `Option` would appear as `"metrics": null`), but
// v1 artifacts must stay byte-identical, so `metrics` is emitted only when
// present and tolerated as missing on load.
impl Serialize for Artifact {
    fn serialize_value(&self) -> Value {
        let mut pairs = vec![
            ("schema_version".to_string(), self.schema_version.serialize_value()),
            ("experiment".to_string(), self.experiment.serialize_value()),
            ("seed".to_string(), self.seed.serialize_value()),
            ("replicates".to_string(), self.replicates.serialize_value()),
            ("spec_hash".to_string(), self.spec_hash.serialize_value()),
            ("failed_trials".to_string(), self.failed_trials.serialize_value()),
            ("spec".to_string(), self.spec.serialize_value()),
            ("points".to_string(), self.points.serialize_value()),
        ];
        if let Some(metrics) = &self.metrics {
            pairs.push(("metrics".to_string(), metrics.serialize_value()));
        }
        Value::Object(pairs)
    }
}

impl Deserialize for Artifact {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let pairs = v.as_object().ok_or_else(|| Error::new("expected artifact object"))?;
        let metrics = match object_get(pairs, "metrics") {
            Ok(val) => Some(Vec::<MetricsSnapshot>::deserialize_value(val)?),
            Err(_) => None,
        };
        Ok(Artifact {
            schema_version: u32::deserialize_value(object_get(pairs, "schema_version")?)?,
            experiment: String::deserialize_value(object_get(pairs, "experiment")?)?,
            seed: u64::deserialize_value(object_get(pairs, "seed")?)?,
            replicates: u32::deserialize_value(object_get(pairs, "replicates")?)?,
            spec_hash: String::deserialize_value(object_get(pairs, "spec_hash")?)?,
            failed_trials: u32::deserialize_value(object_get(pairs, "failed_trials")?)?,
            spec: ScenarioSpec::deserialize_value(object_get(pairs, "spec")?)?,
            points: Vec::<PointSummary>::deserialize_value(object_get(pairs, "points")?)?,
            metrics,
        })
    }
}

impl Artifact {
    /// Builds the artifact for a finished run. The metrics section is
    /// present iff at least one trial captured metrics; per point, the
    /// replicate snapshots merge in replicate order.
    pub fn from_run(run: &ExperimentRun) -> Self {
        let any_metrics = run.reports.iter().flatten().flatten().any(|r| r.metrics.is_some());
        let metrics = any_metrics.then(|| {
            run.reports
                .iter()
                .map(|replicates| {
                    let mut merged = MetricsSnapshot::default();
                    for report in replicates.iter().flatten() {
                        if let Some(snap) = &report.metrics {
                            merged.merge(snap);
                        }
                    }
                    merged
                })
                .collect::<Vec<_>>()
        });
        Artifact {
            schema_version: if metrics.is_some() { SCHEMA_VERSION_METRICS } else { SCHEMA_VERSION },
            experiment: run.spec.name.clone(),
            seed: run.spec.seed,
            replicates: run.spec.replicates,
            spec_hash: format!("{:016x}", run.spec_hash),
            failed_trials: run.failures.len() as u32,
            spec: run.spec.clone(),
            points: aggregate_run(run),
            metrics,
        }
    }

    /// The canonical pretty-printed JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Writes the artifact atomically
    /// ([`marnet_telemetry::file::write_atomic`]), so readers never observe
    /// a half-written artifact.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        marnet_telemetry::file::write_atomic(path, self.to_json().as_bytes())
    }

    /// Loads an artifact, refusing schemas newer than this library knows.
    pub fn load(path: &Path) -> io::Result<Artifact> {
        let body = fs::read_to_string(path)?;
        let artifact: Artifact = serde_json::from_str(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e:?}")))?;
        if artifact.schema_version > SCHEMA_VERSION_METRICS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{path:?}: schema v{} is newer than supported v{SCHEMA_VERSION_METRICS}",
                    artifact.schema_version
                ),
            ));
        }
        Ok(artifact)
    }

    /// Compares this artifact (the current run) against a `baseline`:
    /// every shared point/metric pair whose means differ by more than the
    /// sum of the two 95% half-widths *and* by more than 1% relatively is
    /// flagged. Points are matched by parameter assignment, not index, so
    /// re-ordered grids still diff correctly.
    pub fn diff(&self, baseline: &Artifact) -> Vec<MetricDrift> {
        let mut drifts = Vec::new();
        for point in &self.points {
            let Some(base_point) = baseline.points.iter().find(|p| p.params == point.params) else {
                continue;
            };
            for (metric, cur) in &point.scalars {
                let Some(base) = base_point.scalars.get(metric) else { continue };
                let delta = cur.mean - base.mean;
                let ci_span = cur.ci95 + base.ci95;
                let rel = if base.mean.abs() > f64::EPSILON {
                    delta.abs() / base.mean.abs()
                } else if delta.abs() > f64::EPSILON {
                    f64::INFINITY
                } else {
                    0.0
                };
                if delta.abs() > ci_span && rel > 0.01 {
                    drifts.push(MetricDrift {
                        point: point
                            .params
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                        metric: metric.clone(),
                        baseline_mean: base.mean,
                        current_mean: cur.mean,
                        relative_change: if rel.is_finite() { rel } else { f64::NAN },
                    });
                }
            }
        }
        drifts
    }
}

/// One metric that moved outside the joint confidence band of its baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricDrift {
    /// Human-readable parameter assignment of the drifted point.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Baseline mean.
    pub baseline_mean: f64,
    /// Current mean.
    pub current_mean: f64,
    /// `|Δ| / |baseline|` (NaN when the baseline mean is zero).
    pub relative_change: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, TrialReport};
    use crate::spec::{ParamValue, ScenarioSpec};

    fn artifact_for(offset: f64) -> Artifact {
        let spec = ScenarioSpec::new("artifact-demo", 3, 4)
            .with_axis("x", vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let run = run_experiment(&spec, 2, |point, ctx| {
            let mut r = TrialReport::new();
            let x = point.param("x").as_int().unwrap() as f64;
            r.scalar("metric", x * 10.0 + offset + ctx.replicate as f64 * 0.01);
            r
        });
        Artifact::from_run(&run)
    }

    #[test]
    fn artifact_round_trips_and_is_versioned() {
        let a = artifact_for(0.0);
        assert_eq!(a.schema_version, SCHEMA_VERSION);
        assert_eq!(a.points.len(), 2);
        assert_eq!(a.spec_hash.len(), 16);
        // v1 artifacts carry no metrics key at all.
        assert!(a.metrics.is_none());
        assert!(!a.to_json().contains("\"metrics\""));
        let dir = std::env::temp_dir().join(format!("marnet_lab_art_{}", std::process::id()));
        let path = dir.join("a.json");
        a.write(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(a, back);
        // Atomicity: no temp file left behind.
        assert!(!dir.join(".a.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_section_bumps_schema_and_round_trips() {
        let spec = ScenarioSpec::new("artifact-metrics", 3, 2)
            .with_axis("x", vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let run = run_experiment(&spec, 2, |point, ctx| {
            let mut r = TrialReport::new();
            r.scalar("m", 1.0);
            let mut snap = marnet_telemetry::MetricsSnapshot::default();
            snap.count("c", point.index as u64 + 1 + u64::from(ctx.replicate));
            r.metrics = Some(snap);
            r
        });
        let a = Artifact::from_run(&run);
        assert_eq!(a.schema_version, SCHEMA_VERSION_METRICS);
        let merged = a.metrics.as_ref().unwrap();
        assert_eq!(merged.len(), 2);
        // Counters sum across the point's replicates: 1+2 and 2+3.
        assert_eq!(merged[0].counters["c"], 3);
        assert_eq!(merged[1].counters["c"], 5);
        let dir = std::env::temp_dir().join(format!("marnet_lab_art3_{}", std::process::id()));
        let path = dir.join("m.json");
        a.write(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(a, back);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A metric that does not exist for a trial (here: NaN in two of four
    /// replicates, and in every replicate of one point) is omitted from
    /// the report, so the artifact stays loadable and diffable.
    #[test]
    fn nan_scalars_are_omitted_and_the_artifact_round_trips() {
        let spec = ScenarioSpec::new("artifact-nan", 3, 4)
            .with_axis("x", vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let run = run_experiment(&spec, 2, |point, ctx| {
            let mut r = TrialReport::new();
            r.scalar("always", f64::from(ctx.replicate));
            let exists = point.index == 0 && ctx.replicate % 2 == 0;
            r.scalar("sometimes", if exists { 5.0 } else { f64::NAN });
            r.scalar_opt("never", None);
            r
        });
        let a = Artifact::from_run(&run);
        let sometimes = &a.points[0].scalars["sometimes"];
        assert_eq!((sometimes.count, sometimes.mean), (2, 5.0), "replicates that reported it");
        assert!(!a.points[1].scalars.contains_key("sometimes"));
        assert_eq!(a.points[1].scalars["always"].count, 4);
        assert!(!a.to_json().contains("null"), "no non-finite number reaches the JSON");

        let dir = std::env::temp_dir().join(format!("marnet_lab_art4_{}", std::process::id()));
        let path = dir.join("nan.json");
        a.write(&path).unwrap();
        let back = Artifact::load(&path).expect("an artifact with absent metrics loads");
        assert_eq!(a, back);
        assert!(back.diff(&a).is_empty(), "no drift against itself");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_future_schema() {
        let mut a = artifact_for(0.0);
        a.schema_version = SCHEMA_VERSION_METRICS + 1;
        let dir = std::env::temp_dir().join(format!("marnet_lab_art2_{}", std::process::id()));
        let path = dir.join("future.json");
        a.write(&path).unwrap();
        assert!(Artifact::load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_flags_real_drift_and_ignores_noise() {
        let base = artifact_for(0.0);
        // Same distribution: nothing drifts.
        assert!(artifact_for(0.0).diff(&base).is_empty());
        // A 20% shift far outside the tiny CIs: both points flagged.
        let drifted = artifact_for(3.0);
        let drifts = drifted.diff(&base);
        assert_eq!(drifts.len(), 2);
        assert_eq!(drifts[0].metric, "metric");
        assert!(drifts[0].relative_change > 0.01);
    }
}
