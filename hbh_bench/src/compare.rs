//! `hbh_bench compare A.json B.json`: per workload × end-to-end metric,
//! both reported values (what a `--workload` run of the same passes
//! prints: [`reported`]) with the median and quartiles of their passes,
//! the relative difference (base = A), the catalogue's bound, and a
//! verdict.

use crate::json::Json;
use crate::metrics::{median, quartiles, reported, Catalog, MetricDef};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is no worse than A's by more than the bound.
    Ok,
    /// B's value is worse than A's by more than the bound.
    Worse,
    /// The pass-to-pass spread is wider than the bound, so the values
    /// cannot say either way.
    Unresolved,
}

/// ISSUE 11 bounds `setup_s` by max(25%, 50 ms): most workloads set up in
/// a millisecond or less, where a quarter either way is timer noise and
/// nothing a user waits for. `BENCHMARK.json` can only state the share;
/// the 50 ms live here.
const SETUP_SLACK_S: f64 = 0.05;

/// How much larger than A's value `a` a value of `def` may be.
fn allowed(def: &MetricDef, a: f64) -> f64 {
    let share = def.bound.unwrap_or(0.0) * a.abs();
    if def.name == "setup_s" {
        share.max(SETUP_SLACK_S)
    } else {
        share
    }
}

/// Judges one metric (lower is better, as every end-to-end metric is)
/// from its per-pass samples on both sides.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (va, vb) = (reported(&def.name, a), reported(&def.name, b));
    let allowed = allowed(def, va);
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    if iqr(a).max(iqr(b)) > allowed {
        // Too noisy to say — unless every pass of B reads better than
        // every pass of A.
        let best_a = a.iter().copied().fold(f64::INFINITY, f64::min);
        let worst_b = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if worst_b < best_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if vb - va > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `doc.workloads.<workload>.<key>`.
fn entry<'a>(doc: &'a Json, workload: &str, key: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)?.get(key)
}

fn samples_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    entry(doc, workload, "samples")
        .and_then(|s| s.get(metric))
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn count_of(doc: &Json, workload: &str, key: &str) -> f64 {
    entry(doc, workload, key)
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Renders the comparison table of two `--out` files; the flag says
/// whether any row came out [`Verdict::Worse`] (more failed receivers in
/// B than in A counts as worse too).
pub fn compare(catalog: &Catalog, a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for w in &catalog.workloads {
        let (fa, fb) = (count_of(a, w, "failed"), count_of(b, w, "failed"));
        let (ta, tb) = (count_of(a, w, "attempted"), count_of(b, w, "attempted"));
        let failures_ok = fb / tb <= fa / ta;
        any_worse |= !failures_ok;
        writeln!(
            out,
            "{w}: unserved {fa}/{ta} -> {fb}/{tb}  {}",
            if failures_ok { "ok" } else { "worse" }
        )
        .expect("String write");
        for def in &catalog.end_to_end {
            let (sa, sb) = (samples_of(a, w, &def.name), samples_of(b, w, &def.name));
            if sa.is_empty() || sb.is_empty() {
                any_worse = true;
                writeln!(out, "  {:<20} missing from one side  worse", def.name)
                    .expect("String write");
                continue;
            }
            let verdict = judge(def, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            let (va, vb) = (reported(&def.name, &sa), reported(&def.name, &sb));
            let side = |v: f64, s: &[f64]| {
                let (q1, q3) = quartiles(s);
                format!(
                    "{v:.6} (median {:.6} [{q1:.6}, {q3:.6}] n={})",
                    median(s),
                    s.len()
                )
            };
            writeln!(
                out,
                "  {:<20} A {}  B {}  {:+.2}% of A  bound {:.0}%{}  {}",
                def.name,
                side(va, &sa),
                side(vb, &sb),
                (vb - va) / va * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                if def.name == "setup_s" {
                    format!(" or {:.0} ms", SETUP_SLACK_S * 1e3)
                } else {
                    String::new()
                },
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            )
            .expect("String write");
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64) -> MetricDef {
        MetricDef {
            name: "wall_s".into(),
            unit: "s".into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 1.00, 0.99, 1.01];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let noisy = [0.8, 1.3, 1.0, 0.7, 1.4];
        let faster = [0.5, 0.51, 0.49, 0.5, 0.52];
        assert_eq!(judge(&def(0.10), &a, &same), Verdict::Ok);
        assert_eq!(judge(&def(0.10), &a, &slower), Verdict::Worse);
        assert_eq!(judge(&def(0.10), &a, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&def(0.10), &noisy, &faster), Verdict::Ok);
        // A millisecond of set-up may double: ISSUE 11's 50 ms.
        let setup = MetricDef {
            name: "setup_s".into(),
            ..def(0.25)
        };
        assert_eq!(
            judge(&setup, &[0.001, 0.002, 0.001], &[0.002, 0.004, 0.003]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&setup, &[0.20, 0.21, 0.20], &[0.30, 0.31, 0.30]),
            Verdict::Worse
        );
        // Exactly repeatable metrics: zero spread, any bound resolves.
        assert_eq!(judge(&def(0.05), &[42.0; 3], &[42.0; 3]), Verdict::Ok);
        assert_eq!(judge(&def(0.05), &[42.0; 3], &[45.0; 3]), Verdict::Worse);
    }
}
