//! The versioned Pareto-front artifact.
//!
//! Schema v1: run provenance (seed, budget, the serialized space and the
//! FNV-1a `train_hash` over the full training spec), the
//! non-dominated front, the incumbent and tuned policies, and the
//! tuned-vs-default comparison table. The encoding is canonical JSON
//! (sorted map keys, shortest-round-trip floats), so a run's artifact is
//! byte-identical across thread counts and platforms; writes go through
//! a temp-file rename like the lab artifacts so readers never observe a
//! torn file.

use crate::objective::Objectives;
use crate::space::{PolicyPoint, PolicySpace};
use marnet_core::policy::PolicyParams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Current artifact schema version.
pub const SCHEMA_VERSION: u32 = 1;

/// One candidate as stored in the artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontEntry {
    /// Generation the candidate was sampled in.
    pub generation: u32,
    /// Candidate index within its generation.
    pub candidate: u32,
    /// The raw dimension vector.
    pub point: PolicyPoint,
    /// The compiled policy.
    pub params: PolicyParams,
    /// The measured fitness vector.
    pub objectives: Objectives,
    /// Per-scenario detail scalars (`qoe/…`, `overhead/…`).
    pub detail: BTreeMap<String, f64>,
    /// The scalarized fitness the engine ranked by.
    pub scalar: f64,
}

/// One row of the tuned-vs-default comparison table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Metric name (e.g. `qoe/recovery`).
    pub metric: String,
    /// The paper-default policy's value.
    pub default: f64,
    /// The tuned policy's value.
    pub tuned: f64,
}

/// The schema-v1 Pareto-front artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontArtifact {
    /// Schema version of this encoding.
    pub schema_version: u32,
    /// Artifact kind tag, always `"train"`.
    pub experiment: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Generations run.
    pub generations: u32,
    /// Population per generation.
    pub population: u32,
    /// Elite / parent count.
    pub elites: u32,
    /// Replicates per candidate per portfolio scenario.
    pub replicates: u32,
    /// Whether the run used the reduced CI smoke tier.
    pub smoke: bool,
    /// FNV-1a hash over the canonical training spec (space + search
    /// budget + portfolio), hex-encoded; pins the provenance like the
    /// lab's spec hash.
    pub train_hash: String,
    /// The searched space.
    pub space: PolicySpace,
    /// Total candidates evaluated.
    pub evaluations: u32,
    /// The non-dominated front, canonical order.
    pub front: Vec<FrontEntry>,
    /// The paper-default incumbent's measurement.
    pub default: FrontEntry,
    /// The recommended tuned policy (best scalarized fitness subject to
    /// the fairness band and a matched-or-beaten QoE scenario).
    pub tuned: FrontEntry,
    /// Per-metric tuned-vs-default comparison.
    pub comparison: Vec<ComparisonRow>,
}

impl FrontArtifact {
    /// The canonical pretty-printed JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("front artifact serializes")
    }

    /// Loads an artifact, rejecting encodings newer than this build
    /// understands.
    pub fn load(path: &Path) -> io::Result<Self> {
        let body = fs::read_to_string(path)?;
        let artifact: FrontArtifact = serde_json::from_str(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        if artifact.schema_version > SCHEMA_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "artifact schema v{} is newer than supported v{SCHEMA_VERSION}",
                    artifact.schema_version
                ),
            ));
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PolicySpace;
    use marnet_sim::hash::{fnv1a, FNV_OFFSET_BASIS};
    use marnet_telemetry::file::write_atomic;

    fn entry(scalar: f64) -> FrontEntry {
        let space = PolicySpace::ar_default();
        let point = space.default_point();
        FrontEntry {
            generation: 0,
            candidate: 0,
            params: space.compile(&point),
            point,
            objectives: Objectives { qoe: 90.0, fairness: 0.9, overhead: 12.5 },
            detail: BTreeMap::from([("qoe/recovery".to_string(), 91.0)]),
            scalar,
        }
    }

    fn artifact() -> FrontArtifact {
        FrontArtifact {
            schema_version: SCHEMA_VERSION,
            experiment: "train".to_string(),
            seed: 42,
            generations: 2,
            population: 4,
            elites: 2,
            replicates: 2,
            smoke: true,
            train_hash: format!("{:016x}", fnv1a(b"demo", FNV_OFFSET_BASIS)),
            space: PolicySpace::ar_default(),
            evaluations: 8,
            front: vec![entry(181.0)],
            default: entry(180.0),
            tuned: entry(181.0),
            comparison: vec![ComparisonRow {
                metric: "qoe/recovery".to_string(),
                default: 90.0,
                tuned: 91.0,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let a = artifact();
        let json = a.to_json();
        let back: FrontArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn write_is_atomic_and_load_checks_schema() {
        let dir = std::env::temp_dir();
        let path = dir.join("trainer_artifact_test.json");
        let a = artifact();
        write_atomic(&path, a.to_json().as_bytes()).unwrap();
        assert!(!dir.join(".trainer_artifact_test.json.tmp").exists());
        assert_eq!(FrontArtifact::load(&path).unwrap(), a);

        let mut newer = artifact();
        newer.schema_version = SCHEMA_VERSION + 1;
        let path2 = dir.join("trainer_artifact_newer.json");
        write_atomic(&path2, newer.to_json().as_bytes()).unwrap();
        assert!(FrontArtifact::load(&path2).is_err());
    }

    #[test]
    fn keys_this_build_no_longer_writes_are_ignored_on_load() {
        // Older v1 artifacts carry an `engine` label and a map of scalars
        // this build dropped; the loader skips unknown keys, so they still
        // load and the schema version did not move.
        let a = artifact();
        let json = a.to_json().replacen(
            "{\n",
            "{\n  \"dropped\": {\"cityscale/events\": 1.0},\n  \"engine\": \"cem\",\n",
            1,
        );
        let path = std::env::temp_dir().join("trainer_artifact_dropped_keys.json");
        write_atomic(&path, json.as_bytes()).unwrap();
        assert_eq!(FrontArtifact::load(&path).unwrap(), a);
    }

    #[test]
    fn fnv1a_matches_the_workspace_convention() {
        // Offset basis of the empty input.
        assert_eq!(fnv1a(b"", FNV_OFFSET_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a", FNV_OFFSET_BASIS), fnv1a(b"b", FNV_OFFSET_BASIS));
    }
}
