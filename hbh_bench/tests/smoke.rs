//! Drives the built `hbh_bench` the way its users do: all six workloads
//! through the child-process driver in both passes at `--smoke` size,
//! and one workload the way the benchmark contract calls it.

use hbh_bench_harness::json::Json;
use hbh_bench_harness::metrics::Catalog;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hbh_bench");

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("running hbh_bench");
    assert!(
        out.status.success(),
        "hbh_bench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn read(path: &PathBuf) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("report written")).expect("report parses")
}

/// `doc.workloads.<workload>.<section>.<metric>` as numbers.
fn samples(doc: &Json, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .unwrap_or_else(|| panic!("{workload}.{section}.{metric} missing"))
        .as_arr()
        .iter()
        .map(|v| v.as_f64().expect("a number"))
        .collect()
}

#[test]
fn all_workloads_both_passes_print_every_metric_and_repeat_exactly() {
    let catalog = Catalog::load();
    let (a, b) = (tmp("smoke_a.json"), tmp("smoke_b.json"));
    let spans = tmp("smoke_spans_");
    let driver = |out: &PathBuf| {
        run(&[
            "--smoke",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
            "--out",
            out.to_str().unwrap(),
            "--trace-out",
            spans.to_str().unwrap(),
        ])
    };
    let text = driver(&a);
    driver(&b);

    // Every name of BENCHMARK.json is printed, with its unit, once per
    // workload.
    for def in catalog.end_to_end.iter().chain(&catalog.per_layer) {
        let printed = text
            .lines()
            .filter(|l| {
                let mut f = l.split_whitespace();
                f.next() == Some(def.name.as_str())
                    && f.next()
                        .is_some_and(|v| v.parse::<f64>().is_ok_and(f64::is_finite))
                    && f.next() == Some(def.unit.as_str())
            })
            .count();
        assert_eq!(
            printed,
            catalog.workloads.len(),
            "{} [{}]",
            def.name,
            def.unit
        );
    }

    let (a, b) = (read(&a), read(&b));
    for w in &catalog.workloads {
        for def in &catalog.end_to_end {
            let (sa, sb) = (
                samples(&a, w, "samples", &def.name),
                samples(&b, w, "samples", &def.name),
            );
            assert!(
                !sa.is_empty() && sa.iter().all(|v| v.is_finite() && *v > 0.0),
                "{w}.{}",
                def.name
            );
            // Simulated metrics are exactly repeatable, within a run and
            // between runs.
            if def.name.starts_with("hbh_") {
                assert!(
                    sa.iter().chain(&sb).all(|v| *v == sa[0]),
                    "{w}.{}: {sa:?} vs {sb:?}",
                    def.name
                );
            }
        }
        for def in &catalog.per_layer {
            let s = samples(&a, w, "layers", &def.name);
            assert!(
                !s.is_empty() && s.iter().all(|v| v.is_finite()),
                "{w}.{}",
                def.name
            );
        }
        let failed = a
            .get("workloads")
            .and_then(|x| x.get(w))
            .and_then(|x| x.get("failed"));
        assert_eq!(
            failed.and_then(Json::as_f64),
            Some(0.0),
            "{w}: every receiver served"
        );
        let span_file = tmp(&format!("smoke_spans_{w}.jsonl"));
        let spans = std::fs::read_to_string(&span_file).expect("span file written");
        assert!(spans.lines().count() > 5, "{w}: spans recorded");
        Json::parse(spans.lines().next().unwrap()).expect("span lines are JSON");
    }
}

#[test]
fn compare_accepts_a_report_against_itself() {
    let out = tmp("smoke_self.json");
    run(&[
        "--smoke",
        "1",
        "--seconds",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    let table = run(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(!table.contains("worse"), "{table}");
    let rows = table
        .lines()
        .filter(|l| l.ends_with("ok") || l.ends_with("unresolved"))
        .count();
    let catalog = Catalog::load();
    assert_eq!(
        rows,
        catalog.workloads.len() * (1 + catalog.end_to_end.len())
    );
}

#[test]
fn contract_mode_prints_exactly_the_declared_metrics() {
    let catalog = Catalog::load();
    for (trace, defs) in [("0", &catalog.end_to_end), ("1", &catalog.per_layer)] {
        let text = run(&[
            "--workload",
            "zap_churn",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
            "1",
        ]);
        let result =
            Json::parse(text.lines().last().expect("a result line")).expect("result is JSON");
        let keys: Vec<&str> = result
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        let mut want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        want.sort_unstable();
        assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
        for def in defs {
            let m = &metrics[&def.name];
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit.as_str()),
                "{}",
                def.name
            );
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "x"],
        &["--bogus", "1"],
        &["compare", "only-one"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("running hbh_bench");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
