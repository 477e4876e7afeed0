//! A small-size pass of every workload: each named metric is emitted
//! with its unit, every output check passes, and the set-up digest is
//! the same across two runs of one seed.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["steady_rounds_1k", "service_churn_1k"];

/// `(name, unit)` of every metric in one section of BENCHMARK.json
/// (`end_to_end` or `per_layer`), which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"end_to_end\"", "\"per_layer\"", "\"workloads\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(n), Some(u)) = (field(line, "name"), field(line, "unit")) {
                out.push((n, u));
            }
        }
    }
    assert!(!out.is_empty(), "no {section} metrics declared");
    out
}

struct Output {
    last: String,
    digest: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_m2m-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--nodes",
            "100",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("output").to_string();
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("digest line")
        .to_string();
    Output { last, digest }
}

/// `(name, value)` of every metric in a result line.
fn emitted(last: &str) -> Vec<(String, String)> {
    let key = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = last;
    while let Some(at) = rest.find(key) {
        let name_start = rest[..at].rfind('"').expect("quoted name") + 1;
        let value = &rest[at + key.len()..];
        let value = &value[..value.find(',').expect("value ends")];
        out.push((rest[name_start..at].to_string(), value.to_string()));
        rest = &rest[at + key.len()..];
    }
    out
}

fn value(out: &Output, name: &str) -> Option<String> {
    emitted(&out.last)
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

fn check(workload: &str) {
    let first = run(workload, 3, 0);
    let second = run(workload, 3, 0);
    let traced = run(workload, 3, 1);
    let traced_again = run(workload, 3, 1);
    for out in [&first, &traced] {
        assert!(out.last.starts_with("{\"correct\": true,"), "{}", out.last);
        assert!(out.last.contains("\"failed\": 0,"), "{}", out.last);
    }
    for (out, section) in [(&first, "end_to_end"), (&traced, "per_layer")] {
        let names: Vec<String> = emitted(&out.last).into_iter().map(|(n, _)| n).collect();
        let want: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, want, "{section} metrics differ from BENCHMARK.json");
        for (name, unit) in declared(section) {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = out
                .last
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &out.last[at + entry.len()..];
            assert!(!rest.starts_with("null"), "{name} is not a number");
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            let end = rest.find('}').expect("metric object closes") + 1;
            assert!(
                rest[..end].ends_with(&unit_field),
                "{name} unit is not {unit}"
            );
        }
    }
    assert_eq!(first.digest, second.digest, "digest differs between runs");
    assert_eq!(first.digest, traced.digest, "tracing changed the outputs");
    // Deterministic metrics repeat exactly: energy and coverage, and the
    // per-layer work counts.
    for name in ["round_energy_mj", "delivered_fraction"] {
        assert_eq!(value(&first, name), value(&second, name), "{name} differs");
    }
    for (name, unit) in declared("per_layer") {
        if ["count", "bytes"].contains(&unit.as_str()) || name.ends_with("_ratio") {
            let (a, b) = (value(&traced, &name), value(&traced_again, &name));
            assert_eq!(a, b, "{name} differs between traced runs");
        }
    }
    // The traced per-round executor time agrees with the untraced
    // compiled round rate to within a few times.
    let num = |out: &Output, name: &str| -> f64 {
        value(out, name)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} is not a number"))
    };
    let round_us = num(&traced, "exec.round_us");
    let rate_us = 1e6 / num(&first, "compiled_rounds_per_s");
    assert!(
        round_us > rate_us / 5.0 && round_us < rate_us * 5.0,
        "exec.round_us {round_us} vs {rate_us} us per compiled round"
    );
}

#[test]
fn steady_rounds_small() {
    check(WORKLOADS[0]);
}

#[test]
fn service_churn_small() {
    check(WORKLOADS[1]);
}

#[test]
fn bad_arguments_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_m2m-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
