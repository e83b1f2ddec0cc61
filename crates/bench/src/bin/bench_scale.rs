//! Internet-scale sweep benchmark: hierarchical AS/POP/access topologies
//! driven through the on-demand routing service, reporting route-cache
//! behaviour (rows computed, hit rate, resident bytes) against the
//! hypothetical all-pairs footprint, plus simulator throughput and peak
//! RSS.
//!
//! ```text
//! # the acceptance-scale sweep: 5,020 routers, 100k hosts
//! cargo run --release -p hbh-bench --bin bench_scale -- --out /tmp/bench_scale.json
//!
//! # CI smoke: tiny hierarchy, same code path, gated on a tolerance sheet
//! cargo run --release -p hbh-bench --bin bench_scale -- \
//!     --smoke 1 --out /tmp/bench_scale_ci.json --check ci/scale_tolerance.txt
//! ```
//!
//! `--out` names a `history` array of run records, oldest first; this
//! run's record is appended to it (the file is created if absent). The
//! default is the committed `BENCH_scale.json`, so pass a scratch path
//! unless the run is meant to join the committed trajectory.
//!
//! The tolerance sheet is plain text, `#` comments, one rule per line:
//!
//! ```text
//! min_memory_ratio 4.0    # cache must beat all-pairs by this factor
//! min_hit_rate 0.5        # paired arms share warm rows
//! max_incomplete 0        # every receiver served, every arm, every run
//! max_unconverged 0
//! ```

use std::process::ExitCode;
use std::time::Instant;

use hbh_experiments::report::Args;
use hbh_experiments::scale::{run_scale, ScaleConfig, ScaleReport};
use hbh_topo::hier::TierSpec;

/// Peak resident set of this process in kB, from `/proc/self/status`
/// (`VmHWM`). Linux-only; 0 where the file or field is missing.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Checks `report` against the rules of a tolerance sheet. Returns the
/// violated rules, empty when everything passes.
fn check_tolerances(sheet: &str, report: &ScaleReport) -> Vec<String> {
    let mut violations = Vec::new();
    for line in sheet.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["min_memory_ratio", bound] => {
                let bound: f64 = bound.parse().expect("min_memory_ratio bound");
                if report.memory_ratio() < bound {
                    violations.push(format!(
                        "memory ratio {:.2} below bound {bound} \
                         (route cache {} B vs all-pairs {} B)",
                        report.memory_ratio(),
                        report.route_bytes,
                        report.all_pairs_bytes,
                    ));
                }
            }
            ["min_hit_rate", bound] => {
                let bound: f64 = bound.parse().expect("min_hit_rate bound");
                if report.hit_rate() < bound {
                    violations.push(format!(
                        "cache hit rate {:.3} below bound {bound} ({} hits / {} misses)",
                        report.hit_rate(),
                        report.route_stats.hits,
                        report.route_stats.misses,
                    ));
                }
            }
            ["max_incomplete", bound] => {
                let bound: u64 = bound.parse().expect("max_incomplete bound");
                if report.incomplete() > bound {
                    violations.push(format!(
                        "{} incomplete runs exceed bound {bound}",
                        report.incomplete(),
                    ));
                }
            }
            ["max_unconverged", bound] => {
                let bound: u64 = bound.parse().expect("max_unconverged bound");
                let unconverged: u64 = report.per_protocol.iter().map(|a| a.unconverged).sum();
                if unconverged > bound {
                    violations.push(format!(
                        "{unconverged} unconverged runs exceed bound {bound}"
                    ));
                }
            }
            other => panic!("unrecognised tolerance rule: {other:?}"),
        }
    }
    violations
}

fn render_json(report: &ScaleReport, cfg: &ScaleConfig, base_seed: u64, peak_kb: u64) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"topology\": {{\"ases\": {}, \"pops_per_as\": {}, \"access_per_pop\": {}, \
         \"routers\": {}, \"hosts\": {}, \"directed_edges\": {}}},\n",
        cfg.spec.ases,
        cfg.spec.pops_per_as,
        cfg.spec.access_per_pop,
        report.routers,
        report.hosts,
        report.directed_edges,
    ));
    json.push_str(&format!(
        "  \"sweep\": {{\"runs\": {}, \"group_size\": {}, \"base_seed\": {base_seed}}},\n",
        report.runs, report.group_size,
    ));
    json.push_str("  \"protocols\": [\n");
    for (i, arm) in report.per_protocol.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cost_mean\": {:.3}, \"delay_mean\": {:.3}, \
             \"incomplete\": {}, \"unconverged\": {}, \"events\": {}}}{}\n",
            arm.kind.name(),
            arm.cost_mean,
            arm.delay_mean,
            arm.incomplete,
            arm.unconverged,
            arm.events,
            if i + 1 < report.per_protocol.len() {
                ","
            } else {
                ""
            },
        ));
    }
    json.push_str("  ],\n");
    let s = &report.route_stats;
    json.push_str(&format!(
        "  \"routes\": {{\"cache_rows\": {}, \"computed\": {}, \"hits\": {}, \"misses\": {}, \
         \"evicted\": {}, \"invalidated\": {}, \"peak_cached_rows\": {}, \
         \"cache_hit_rate\": {:.4}}},\n",
        report.cache_rows,
        s.computed,
        s.hits,
        s.misses,
        s.evicted,
        s.invalidated,
        s.cached_rows,
        report.hit_rate(),
    ));
    json.push_str(&format!(
        "  \"memory\": {{\"route_bytes\": {}, \"bytes_per_router\": {:.1}, \
         \"all_pairs_bytes\": {}, \"memory_ratio\": {:.2}, \"structure_bytes\": {}, \
         \"peak_rss_kb\": {peak_kb}}},\n",
        report.route_bytes,
        report.route_bytes as f64 / report.routers as f64,
        report.all_pairs_bytes,
        report.memory_ratio(),
        report.structure_bytes,
    ));
    json.push_str(&format!(
        "  \"throughput\": {{\"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.1}}}\n",
        report.wall_secs * 1e3,
        report.events,
        report.events_per_sec,
    ));
    json.push_str("}\n");
    json
}

fn main() -> ExitCode {
    let args = Args::parse(&[
        "ases", "pops", "access", "hosts", "group", "runs", "seed", "cache", "out", "smoke",
        "check",
    ]);
    let smoke: usize = args.get_parse("smoke", 0);
    let mut cfg = if smoke != 0 {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::full()
    };
    cfg.spec = TierSpec {
        ases: args.get_parse("ases", cfg.spec.ases),
        pops_per_as: args.get_parse("pops", cfg.spec.pops_per_as),
        access_per_pop: args.get_parse("access", cfg.spec.access_per_pop),
    };
    cfg.hosts = args.get_parse("hosts", cfg.hosts);
    cfg.group_size = args.get_parse("group", cfg.group_size);
    cfg.runs = args.get_parse("runs", cfg.runs);
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = args.get_parse("cache", cfg.cache_rows);
    let out_path = args.get("out").unwrap_or("BENCH_scale.json").to_string();

    eprintln!(
        "scale sweep: {} routers, {} hosts, {} runs x {} protocols, cache {} rows",
        cfg.router_count(),
        cfg.hosts,
        cfg.runs,
        cfg.protocols.len(),
        cfg.cache_rows,
    );
    let start = Instant::now();
    let report = run_scale(&cfg);
    let peak_kb = peak_rss_kb();
    eprintln!(
        "done in {:.1}s: {} events ({:.0}/s), {} SPF rows computed, hit rate {:.1}%, \
         route cache {} B vs all-pairs {} B ({:.1}x), peak RSS {} kB",
        start.elapsed().as_secs_f64(),
        report.events,
        report.events_per_sec,
        report.route_stats.computed,
        report.hit_rate() * 100.0,
        report.route_bytes,
        report.all_pairs_bytes,
        report.memory_ratio(),
        peak_kb,
    );

    let json = render_json(&report, &cfg, cfg.base_seed, peak_kb);
    hbh_bench::append_history(&out_path, &json).expect("appending to the benchmark history");
    print!("{json}");

    if let Some(sheet_path) = args.get("check") {
        let sheet = std::fs::read_to_string(sheet_path).expect("reading tolerance sheet");
        let violations = check_tolerances(&sheet, &report);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("TOLERANCE VIOLATION: {v}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("tolerances OK ({sheet_path})");
    }
    ExitCode::SUCCESS
}
