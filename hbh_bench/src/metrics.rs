//! From passes to named numbers: the end-to-end metrics of an untraced
//! pass, the per-layer metrics of a traced one, and the catalogue
//! (`BENCHMARK.json`, compiled in) that says which names exist, in which
//! unit, and by how much each may worsen.

use crate::json::Json;
use crate::probes;
use crate::study::{arm_label, ARM_LABELS};
use crate::timed::{HandlerStats, Kind, KINDS};
use crate::workloads::{ArmTotals, Inputs, Pass, Spec};
use std::collections::BTreeMap;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the baseline value the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
pub struct Catalog {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// The catalogue this binary was built against.
    pub fn load() -> Catalog {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        // `compare` reads "worse" as "larger": true of every end-to-end
        // metric there is.
        let lower_is_better = |m: &Json| m.get("better").and_then(Json::as_str) == Some("lower");
        assert!(
            doc.get("end_to_end")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .all(lower_is_better),
            "every end-to-end metric is lower-is-better"
        );
        let defs = |key: &str| {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                    MetricDef {
                        name: field("name").to_string(),
                        unit: field("unit").to_string(),
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect::<Vec<_>>()
        };
        Catalog {
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json has run_seconds"),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host times a run reports as the fastest of its passes.
const HOST_TIMES: [&str; 2] = ["setup_s", "wall_s"];

/// The one number a run reports for metric `name`, given one sample per
/// pass: the median — except for the two host times, which are the
/// **minimum**, the fastest whole pass.
///
/// The passes of a run do identical work, and the box this was written on
/// runs at one of two speeds a quarter apart, switching every few seconds
/// to minutes: over ten runs the medians of whole passes spread by 11–21%,
/// their minima by 5–9% (`README.md`). The number of passes follows from
/// `--seconds` alone (`run::measure`), so a faster commit gets no more
/// tries at a quiet moment than a slower one. `compare` judges this same
/// number.
pub fn reported(name: &str, samples: &[f64]) -> f64 {
    if HOST_TIMES.contains(&name) {
        samples.iter().copied().fold(f64::NAN, f64::min)
    } else {
        median(samples)
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method), so the spreads printed here
/// are the ones the acceptance check computes. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let q = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics one pass gives a sample of: its two host times
/// and the simulated results of the headline arm.
pub fn end_to_end(spec: &Spec, pass: &Pass) -> Values {
    let zero = ArmTotals::default();
    let a = pass.sim.get(arm_label(spec.headline)).unwrap_or(&zero);
    let draws = a.draws.max(1) as f64;
    [
        ("setup_s", pass.setup_s()),
        ("wall_s", pass.wall_s()),
        ("hbh_tree_cost", a.cost as f64 / draws),
        ("hbh_rx_delay", a.delay / draws),
        ("hbh_control_copies", a.control_copies as f64),
        ("hbh_settle_time", a.settle as f64 / draws),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Per-layer numbers of one traced pass. `untraced_wall_s` is the reported
/// wall of the untraced passes of the same process.
pub fn per_layer(pass: &Pass, untraced_wall_s: f64) -> Values {
    let tr = &pass.tracer;
    let mut m = Values::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    put("topo.template_s", tr.secs("topo.template"));

    let r = &pass.routes;
    put("routing.rows_computed", r.stats.computed as f64);
    put("routing.lookups", (r.stats.hits + r.stats.misses) as f64);
    put("routing.hit_rate", r.stats.hit_rate());
    put("routing.rows_evicted", r.stats.evicted as f64);
    put("routing.peak_rows", r.peak_rows as f64);
    put("routing.route_mb", r.peak_bytes as f64 / (1024.0 * 1024.0));

    let mut all = HandlerStats::default();
    for h in pass.handlers.values() {
        all.merge(h);
    }
    let events: u64 = pass.sim.values().map(|a| a.events).sum();
    let loop_s = tr.secs("converge") + tr.secs("probe");
    let loop_self_s = (loop_s - all.handlers().secs()).max(0.0);
    put("sim-core.kernel_build_s", tr.secs("kernel_build"));
    put("sim-core.events", events as f64);
    put("sim-core.loop_s", loop_s);
    put("sim-core.events_per_s", events as f64 / loop_s.max(1e-9));
    put("sim-core.loop_self_s", loop_self_s);
    put(
        "sim-core.loop_self_ns_per_event",
        loop_self_s * 1e9 / events.max(1) as f64,
    );
    put("sim-core.ops_send_s", all.send.secs());
    put("sim-core.ops_send_calls", all.send.calls as f64);
    put("sim-core.ops_timer_s", all.timer.secs());
    put("sim-core.ops_timer_calls", all.timer.calls as f64);
    put(
        "sim-core.pending_timers_end",
        pass.sim.values().map(|a| a.pending_timers).sum::<u64>() as f64,
    );

    put("proto-base.script_actions", pass.script_actions as f64);

    // Arms a workload does not run report zeros, so every workload prints
    // every name.
    let none = (ArmTotals::default(), HandlerStats::default());
    for arm in ARM_LABELS {
        let sim = pass.sim.get(arm).unwrap_or(&none.0);
        let h = pass.handlers.get(arm).unwrap_or(&none.1);
        put(&format!("{arm}.arm_s"), tr.arm_secs("arm", arm));
        put(&format!("{arm}.handler_s"), h.handlers().secs());
        put(&format!("{arm}.handler_self_s"), h.handler_self_secs());
        put(&format!("{arm}.events"), sim.events as f64);
        put(&format!("{arm}.control_copies"), sim.control_copies as f64);
        put(&format!("{arm}.state_max_b"), sim.state_max_b as f64);
        if arm == "hbh.soft" || arm == "hbh.agg" {
            for (kind, c) in KINDS.iter().zip(h.by_kind).take(Kind::Other as usize) {
                put(&format!("{arm}.on_{kind}_s"), c.secs());
                put(&format!("{arm}.on_{kind}_calls"), c.calls as f64);
            }
        }
    }

    put("experiments.scenario_build_s", tr.secs("scenario_build"));
    put("experiments.converge_s", tr.secs("converge"));
    put("experiments.probe_s", tr.secs("probe"));
    put("experiments.readout_s", tr.secs("readout"));
    put(
        "experiments.converge_rounds",
        pass.sim.values().map(|a| a.converge_rounds).sum::<u64>() as f64,
    );

    put(
        "bench.trace_overhead",
        pass.wall_s() / untraced_wall_s.max(1e-9),
    );
    // Wall not inside any named child span: the harness's own loop and
    // bookkeeping between the calls it clocks.
    put(
        "bench.unattributed_s",
        tr.self_secs("sim") + tr.self_secs("arm"),
    );
    m
}

/// The per-layer numbers that come from direct probes on the workload's
/// own graph, plus the estimates derived from them. `layers` are the
/// medians of [`per_layer`]; `untraced_wall_s` as there.
pub fn probe_layer(spec: &Spec, pass: &Pass, layers: &Values, untraced_wall_s: f64) -> Values {
    let g = pass
        .probe_graph
        .as_ref()
        .expect("a traced pass keeps draw 0's graph");
    let spf_row_us = probes::spf_row_us(g);
    let spf_est_s = layers["routing.rows_computed"] * spf_row_us / 1e6;
    let eager = matches!(spec.inputs, Inputs::PaperFigs { .. });
    [
        ("topo.nodes", g.node_count() as f64),
        ("topo.directed_edges", g.directed_edge_count() as f64),
        ("topo.cost_draw_s", probes::cost_draw_s(g)),
        ("topo.csr_build_us", probes::csr_build_us(g)),
        ("routing.spf_row_us", spf_row_us),
        ("routing.hot_lookup_ns", probes::hot_lookup_ns(g)),
        // Only the paper-figure scenarios build eager tables; their rows
        // are computed during set-up, so they cost the wall nothing.
        (
            "routing.eager_tables_us",
            if eager {
                probes::eager_tables_us(g)
            } else {
                0.0
            },
        ),
        ("routing.spf_est_s", if eager { 0.0 } else { spf_est_s }),
        (
            "routing.spf_share",
            if eager {
                0.0
            } else {
                spf_est_s / untraced_wall_s.max(1e-9)
            },
        ),
        ("sim-core.timer_storm_ns", probes::timer_storm_ns()),
        ("proto-base.plan_s", probes::plan_s(g, &spec.workload())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn catalogue_is_well_formed() {
        let c = Catalog::load();
        assert_eq!(c.workloads, crate::workloads::WORKLOADS);
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
