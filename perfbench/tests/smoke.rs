//! Smoke mode: every workload, untraced and traced, at a tiny scale. Each
//! run must emit every registered metric with its unit and fail nothing,
//! and the registry must match `BENCHMARK.json`.

use laf_perfbench::common::Scale;
use laf_perfbench::report::{result_line, Report, END_TO_END, PER_LAYER};
use laf_perfbench::Workload;

#[test]
fn every_workload_emits_every_metric_with_no_errors() {
    for trace in [false, true] {
        for workload in Workload::ALL {
            let report = workload.run(&Scale::smoke(), 7, trace);
            let human = report.human();
            assert!(report.attempted() > 0, "{human}");
            assert_eq!(report.failed(), 0, "{human}");
            assert_eq!(report.error_rate(), 0.0);
            let line = result_line(std::slice::from_ref(&report), trace);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            for (name, unit) in Report::registry(trace) {
                let value = report.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert!(value.is_finite(), "{name} = {value}");
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(human.contains(&format!(" {unit}\n")), "{name} unit {unit}");
            }
        }
    }
}

/// `(name, unit)` of every entry in the `section` array of `BENCHMARK.json`,
/// whose entries start `{"name": "..", "unit": ".."`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
    // `serve` runs (and is smoke-tested above) but is not listed: its
    // run-to-run spread is wider than the benchmark's bounds allow.
    let workloads: Vec<String> = section(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, ["cluster", "serve-mutable"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}
