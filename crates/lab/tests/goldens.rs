//! Golden spec-hash fixtures: the `spec_hash` recorded in lab artifacts is
//! part of their byte-identical contract, so the hashes of the built-in
//! experiments are pinned here. A failure means either the canonical JSON
//! encoding or an experiment's spec changed — both invalidate previously
//! published artifacts and should be deliberate, with the goldens updated
//! in the same change.

use marnet_lab::artifact::Artifact;
use marnet_lab::experiments;
use marnet_lab::runner::run_experiment;
use marnet_lab::TrialReport;
use marnet_telemetry::TelemetryOptions;
use std::path::Path;

/// `(name, spec_hash)` for every built-in experiment at `--replicates 8
/// --seed 42`, the CLI defaults and the configuration most committed
/// reference artifacts use (Table II's is committed at `--replicates 2`
/// and the six other seed-independent experiments' at 1, so those files
/// record other hashes; the test below rebuilds each at its own
/// replicates).
const GOLDEN_SPEC_HASHES: [(&str, u64); 22] = [
    ("table1_devices", 0x356d_8404_8356_4e75),
    ("table2_rtt", 0x157f_f182_3e33_b013),
    ("fig2_anomaly", 0x2efa_dbaf_0c21_05d8),
    ("fig3_asymmetry", 0xa585_50c9_31f7_27fa),
    ("fig4_degradation", 0x6280_c79e_098b_5612),
    ("fig5_distribution", 0x3bfc_2fe7_2c55_21d3),
    ("table_wireless", 0xf82b_d566_d334_f9c8),
    ("table_asymmetry", 0x87f4_5e86_a23b_4b3c),
    ("sweep_offload", 0xddde_06b2_685f_01d0),
    ("sweep_placement", 0x0540_c54d_8c0e_43c8),
    ("sweep_recovery", 0xcc61_0c13_0853_e855),
    ("sweep_multipath", 0xbdcc_e9e4_c612_e318),
    ("sweep_queueing", 0xf544_2988_416c_c8b2),
    ("sweep_fairness", 0x526e_1d04_290c_8250),
    ("table_bitrates", 0x0adc_b023_af2c_481c),
    ("sweep_faults", 0xbd12_7632_99a1_e71f),
    ("sweep_cityscale", 0x4512_7ec1_5412_aefc),
    ("ablation_degradation", 0xf56f_445d_6f70_1c4b),
    ("table_privacy", 0xce76_96a8_7ee9_4512),
    ("sweep_variance", 0x3901_10a3_5332_d23d),
    ("sweep_5g", 0x5404_713d_889c_5782),
    ("sweep_caching", 0xef03_1808_88d4_9ead),
];

#[test]
fn builtin_experiment_spec_hashes_match_goldens() {
    for (name, golden) in GOLDEN_SPEC_HASHES {
        let exp = experiments::build(name, 8, 42, &TelemetryOptions::disabled())
            .expect("built-in experiment");
        assert_eq!(
            exp.spec.spec_hash(),
            golden,
            "spec hash drifted for {name}: artifacts keyed by the old hash \
             no longer correspond to this spec"
        );
    }
}

/// Every committed reference artifact loads and records the hash of the
/// spec the current code builds at the artifact's own `(replicates, seed)`
/// — so `--baseline results/lab_<name>.json` compares like with like.
#[test]
fn committed_artifacts_match_their_rebuilt_spec_hashes() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in experiments::NAMES {
        let path = results.join(format!("lab_{name}.json"));
        let artifact = Artifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let exp = experiments::build(
            name,
            artifact.replicates,
            artifact.seed,
            &TelemetryOptions::disabled(),
        )
        .expect("built-in experiment");
        assert_eq!(artifact.spec_hash, format!("{:016x}", exp.spec.spec_hash()), "{name}");
        assert_eq!(artifact.failed_trials, 0, "{name}");
    }
}

#[test]
fn every_builtin_experiment_has_a_golden() {
    assert_eq!(experiments::NAMES.len(), GOLDEN_SPEC_HASHES.len());
    for name in experiments::NAMES {
        assert!(GOLDEN_SPEC_HASHES.iter().any(|(n, _)| *n == name), "no golden for {name}");
    }
}

/// The artifact records the hash as fixed-width lower-case hex; that string
/// is what external tooling joins on, so pin the exact formatting too.
#[test]
fn artifact_spec_hash_is_fixed_width_hex_of_spec_hash() {
    let exp = experiments::build("table2_rtt", 8, 42, &TelemetryOptions::disabled())
        .expect("built-in experiment");
    let run = run_experiment(&exp.spec, 1, |_, _| TrialReport::new());
    let artifact = Artifact::from_run(&run);
    assert_eq!(artifact.spec_hash, "157ff1823e33b013");
    assert_eq!(artifact.spec_hash, format!("{:016x}", exp.spec.spec_hash()));
}
