//! Membership-scale benchmark: the three [`Workload`] shapes (flash
//! crowd, Zipf lineup, IPTV zapping) paired across the membership arms,
//! plus the HBH-AGG flash-crowd storm sweep to 10⁵ receivers, reporting
//! control volume, settle latency, and per-router state split by role
//! (interior tree state vs. access-router member summaries).
//!
//! ```text
//! # the acceptance-scale sweep: 5,020 routers, 120k hosts, 10⁵-join storm
//! # (about ten minutes)
//! cargo run --release -p hbh-bench --bin bench_membership -- --out /tmp/bench_membership.json
//!
//! # CI smoke: tiny hierarchy, same code path, gated on a tolerance sheet
//! cargo run --release -p hbh-bench --bin bench_membership -- \
//!     --smoke 1 --out /tmp/bench_membership_ci.json --check ci/membership_tolerance.txt
//! ```
//!
//! `--out` names a `history` array of run records, oldest first; this
//! run's record is appended to it (the file is created if absent). The
//! default is the committed `BENCH_membership.json`, so pass a scratch
//! path unless the run is meant to join the committed trajectory.
//!
//! The tolerance sheet is plain text, `#` comments, one rule per line:
//!
//! ```text
//! max_incomplete 0             # every expected receiver served, every cell
//! max_unconverged 0            # every cell quiesced before probing
//! max_storm_state_exponent 0.5 # interior state sublinear in receivers
//! max_agg_control_ratio 0.6    # aggregation must beat plain HBH's storm
//! ```

use std::process::ExitCode;
use std::time::Instant;

use hbh_experiments::membership::{run_membership, MembershipConfig, MembershipReport};
use hbh_experiments::report::Args;
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
fn check_tolerances(sheet: &str, report: &MembershipReport) -> Vec<String> {
    let mut violations = Vec::new();
    for line in sheet.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["max_incomplete", bound] => {
                let bound: u64 = bound.parse().expect("max_incomplete bound");
                if report.incomplete() > bound {
                    violations.push(format!(
                        "{} incomplete cells exceed bound {bound}",
                        report.incomplete(),
                    ));
                }
            }
            ["max_unconverged", bound] => {
                let bound: u64 = bound.parse().expect("max_unconverged bound");
                if report.unconverged() > bound {
                    violations.push(format!(
                        "{} unconverged cells exceed bound {bound}",
                        report.unconverged(),
                    ));
                }
            }
            ["max_storm_state_exponent", bound] => {
                let bound: f64 = bound.parse().expect("max_storm_state_exponent bound");
                if report.storm_state_exponent() > bound {
                    violations.push(format!(
                        "interior-state growth exponent {:.3} above bound {bound} \
                         (must stay sublinear in receivers)",
                        report.storm_state_exponent(),
                    ));
                }
            }
            ["max_agg_control_ratio", bound] => {
                let bound: f64 = bound.parse().expect("max_agg_control_ratio bound");
                let ratio = report.agg_control_ratio();
                if ratio.is_nan() || ratio > bound {
                    violations.push(format!(
                        "HBH-AGG/HBH flash-crowd control ratio {ratio:.3} above bound {bound}"
                    ));
                }
            }
            other => panic!("unrecognised tolerance rule: {other:?}"),
        }
    }
    violations
}

fn render_json(
    report: &MembershipReport,
    cfg: &MembershipConfig,
    base_seed: u64,
    peak_kb: u64,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"topology\": {{\"ases\": {}, \"pops_per_as\": {}, \"access_per_pop\": {}, \
         \"routers\": {}, \"hosts\": {}}},\n",
        cfg.spec.ases, cfg.spec.pops_per_as, cfg.spec.access_per_pop, report.routers, report.hosts,
    ));
    json.push_str(&format!(
        "  \"sweep\": {{\"group_size\": {}, \"channels\": {}, \"zipf_exponent\": {}, \
         \"zaps\": {}, \"base_seed\": {base_seed}}},\n",
        report.group_size, report.channels, cfg.zipf_exponent, cfg.zaps,
    ));
    json.push_str("  \"comparison\": [\n");
    for (i, arm) in report.comparison.iter().enumerate() {
        let o = &arm.outcome;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"protocol\": \"{}\", \"expected\": {}, \
             \"served\": {}, \"converged\": {}, \"settle_latency\": {}, \
             \"control_copies\": {}, \"control_per_receiver\": {:.2}, \
             \"interior_state_max\": {}, \"interior_state_mean\": {:.1}, \
             \"access_state_max\": {}}}{}\n",
            arm.workload,
            arm.kind.name(),
            o.expected,
            o.served,
            o.converged,
            o.settle_latency.map_or(-1i64, |l| l as i64),
            o.control_copies,
            o.control_per_receiver(),
            o.interior_state_max,
            o.interior_state_mean,
            o.access_state_max,
            if i + 1 < report.comparison.len() {
                ","
            } else {
                ""
            },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"storm\": [\n");
    for (i, p) in report.storm.iter().enumerate() {
        let o = &p.outcome;
        json.push_str(&format!(
            "    {{\"receivers\": {}, \"served\": {}, \"converged\": {}, \
             \"settle_latency\": {}, \"control_copies\": {}, \"control_per_receiver\": {:.2}, \
             \"interior_state_max\": {}, \"interior_state_mean\": {:.1}, \
             \"access_state_max\": {}}}{}\n",
            p.receivers,
            o.served,
            o.converged,
            o.settle_latency.map_or(-1i64, |l| l as i64),
            o.control_copies,
            o.control_per_receiver(),
            o.interior_state_max,
            o.interior_state_mean,
            o.access_state_max,
            if i + 1 < report.storm.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"acceptance\": {{\"incomplete\": {}, \"unconverged\": {}, \
         \"storm_state_exponent\": {:.4}, \"agg_control_ratio\": {:.4}}},\n",
        report.incomplete(),
        report.unconverged(),
        report.storm_state_exponent(),
        report.agg_control_ratio(),
    ));
    json.push_str(&format!(
        "  \"throughput\": {{\"wall_ms\": {:.1}, \"events\": {}, \"peak_rss_kb\": {peak_kb}}}\n",
        report.wall_secs * 1e3,
        report.events,
    ));
    json.push_str("}\n");
    json
}

fn main() -> ExitCode {
    let args = Args::parse(&[
        "ases", "pops", "access", "hosts", "group", "channels", "zaps", "seed", "cache", "out",
        "smoke", "check",
    ]);
    let smoke: usize = args.get_parse("smoke", 0);
    let mut cfg = if smoke != 0 {
        MembershipConfig::smoke()
    } else {
        MembershipConfig::full()
    };
    cfg.spec = TierSpec {
        ases: args.get_parse("ases", cfg.spec.ases),
        pops_per_as: args.get_parse("pops", cfg.spec.pops_per_as),
        access_per_pop: args.get_parse("access", cfg.spec.access_per_pop),
    };
    cfg.hosts = args.get_parse("hosts", cfg.hosts);
    cfg.group_size = args.get_parse("group", cfg.group_size);
    cfg.channels = args.get_parse("channels", cfg.channels);
    cfg.zaps = args.get_parse("zaps", cfg.zaps);
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = args.get_parse("cache", cfg.cache_rows);
    let out_path = args
        .get("out")
        .unwrap_or("BENCH_membership.json")
        .to_string();

    eprintln!(
        "membership sweep: {} routers, {} hosts, {} workloads x {} arms, storm to {} receivers",
        cfg.router_count(),
        cfg.hosts,
        cfg.workloads().len(),
        cfg.protocols.len(),
        cfg.storm_sizes.last().copied().unwrap_or(0),
    );
    let start = Instant::now();
    let report = run_membership(&cfg);
    let peak_kb = peak_rss_kb();
    eprintln!(
        "done in {:.1}s: {} events, {} incomplete, {} unconverged, \
         storm exponent {:.3}, agg/plain control ratio {:.3}, peak RSS {} kB",
        start.elapsed().as_secs_f64(),
        report.events,
        report.incomplete(),
        report.unconverged(),
        report.storm_state_exponent(),
        report.agg_control_ratio(),
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
