//! Checks that hold the benchmark's declarations, its manifest and
//! `BENCHMARK.json` in step.

use super::*;
use serde::object_get;

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

fn contract() -> Value {
    serde_json::from_str(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    let pairs = v.as_object().expect("object");
    object_get(pairs, key).expect(key).as_array().expect("array")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    object_get(v.as_object().expect("object"), key).expect(key)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("string")
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

#[test]
fn contract_declares_exactly_what_the_benchmark_reports() {
    let c = contract();
    let workloads: Vec<(&str, &str)> =
        list(&c, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, ours);

    let declared: Vec<(&str, &str, &str, f64)> = list(&c, "end_to_end")
        .iter()
        .map(|m| {
            let bound = field(m, "bound").as_f64().expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let ours: Vec<(&str, &str, &str, f64)> =
        END_TO_END.iter().map(|m| (m.name, m.unit, better(m.higher_is_better), m.bound)).collect();
    assert_eq!(declared, ours);

    let declared: Vec<(&str, &str, &str)> = list(&c, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let ours: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, better(m.higher_is_better))).collect();
    assert_eq!(declared, ours);
}

#[test]
fn contract_stays_inside_the_driver_limits() {
    let c = contract();
    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|ch: char| ch.is_ascii_alphanumeric())
            && s.chars().all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
    };
    let ok_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch))
    };
    let mut names = Vec::new();
    for w in WORKLOADS {
        assert!(ok_name(w.name) && w.why.chars().count() <= 200 && !w.why.contains('\n'), "{w:?}");
        names.push(w.name);
    }
    for m in END_TO_END {
        assert!(ok_name(m.name) && ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{m:?}");
        names.push(m.name);
    }
    for m in PER_LAYER {
        assert!(ok_name(m.name) && ok_unit(m.unit), "{m:?}");
        names.push(m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s takes the largest bound");
    let seconds = field(&c, "run_seconds").as_u64().expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    assert_eq!(
        list(&c, "paths").iter().map(|p| p.as_str()).collect::<Vec<_>>(),
        [Some("benchmark")]
    );
    assert!(read("../BENCHMARK.json").len() <= 64 * 1024);
}

#[test]
fn result_line_carries_exactly_the_declared_metrics() {
    let rep = Rep {
        work: 1_000,
        run_s: 0.5,
        calib: 2e7,
        setup_s: vec![0.001, 0.002, 0.003],
        peak_bytes: 4_096,
        ..Rep::default()
    };
    let values = end_to_end_values(&rep, &[rep.clone(), rep.clone()]);
    let tally = Tally { attempted: 3, failed: 0, reference: Vec::new() };
    let line: Value = serde_json::from_str(&result_json(&tally, &values)).expect("JSON");
    let keys: Vec<&str> =
        line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = field(&line, "metrics").as_object().expect("metrics");
    let printed: Vec<(&str, &str)> =
        metrics.iter().map(|(k, v)| (k.as_str(), text(v, "unit"))).collect();
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, declared);
    // calib 2e7 ops/s is the reference speed, so set-up seconds pass through.
    assert_eq!(field(&metrics[0].1, "value").as_f64(), Some(0.001));
    assert_eq!(field(&metrics[1].1, "value").as_f64(), Some(1_000.0 / 0.5 / 2e7 * 1e6));
}

#[test]
fn every_declared_per_layer_metric_has_a_producer() {
    // A drive or a `layers.set` names each metric as a string literal.
    let sources = [read("src/main.rs"), read("src/surface.rs")].concat();
    for m in PER_LAYER {
        assert!(sources.contains(&format!("\"{}\"", m.name)), "{} is never produced", m.name);
    }
}

#[test]
#[should_panic(expected = "undeclared per-layer metric")]
fn an_undeclared_per_layer_metric_cannot_be_printed() {
    Layers::default().set("sim.engine.made_up", 1.0);
}

#[test]
fn usage_errors_are_reported() {
    let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
    assert!(parse("--workload dense-cell --seed 3 --seconds 2 --trace 1").is_ok_and(|a| {
        a.is_some_and(|a| a.workload == "dense-cell" && a.seed == 3 && a.trace && a.seconds == 2.0)
    }));
    assert!(parse("--list").is_ok_and(|a| a.is_none()));
    for bad in ["", "--workload nope", "--workload recorded --trace 2", "--seed", "--frobnicate"] {
        assert!(parse(bad).is_err(), "{bad:?} must be refused");
    }
}

/// The measured code must be the shipped code: same release profile as
/// the root manifest.
#[test]
fn release_profile_equals_the_root_manifest() {
    let profile = |manifest: &str| -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
            .filter(|l| !l.is_empty())
            .collect()
    };
    let root = profile(&read("../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a release profile");
    assert_eq!(profile(&read("Cargo.toml")), root);
}
