//! Membership-scale study: how control traffic and per-router state
//! respond to internet-scale group dynamics.
//!
//! Three workloads drive the hierarchy topology through the [`Workload`]
//! API, paired across protocol arms by the figure sweeps' own
//! [`figures::sweep`](crate::figures::sweep):
//!
//! * **flash crowd** — every receiver joins inside one tree period, the
//!   worst-case join storm (a popular event going live);
//! * **zipf** — receivers spread over channels with Zipf(α) popularity,
//!   the steady-state load of a channel lineup;
//! * **zapping** — IPTV viewers hopping between channels, a sustained
//!   join/leave churn on every channel at once.
//!
//! Per arm we report the control-message volume, the *settle latency*
//! (how long after the schedule until a probe reaches every expected
//! receiver), and per-router state. State is split by role: **interior**
//! routers (no member hosts attached) hold only tree state, which the
//! aggregated HBH variant keeps O(interfaces); **access** routers
//! additionally hold the compressed per-member summary (12 bytes per
//! live host), the irreducible membership record. The storm sweep drives
//! HBH-AGG alone to 10⁵ receivers and fits the growth exponent of the
//! interior maximum — the sublinearity acceptance number.

use crate::figures::sweep::{point, Count, Point};
use crate::protocols::{ProtocolKind, Study};
use crate::runner::{converge, probe_tolerant, probe_window, RunConfig};
use crate::scenario::{hierarchy, hierarchy_draw, Scenario};
use hbh_proto_base::{Channel, Cmd, Timing, Workload};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::hier::TierSpec;
use std::collections::BTreeSet;
use std::time::Instant;

/// Zipf popularity exponent of the zipf workload.
const ZIPF_EXPONENT: f64 = 1.0;

/// One membership sweep: topology shape and workload knobs. Every
/// comparison workload runs the arms of [`ProtocolKind::MEMBERSHIP_ARMS`]
/// under the default [`Timing`].
#[derive(Clone, Debug)]
pub struct MembershipConfig {
    /// Routers per tier (see [`TierSpec`]).
    pub spec: TierSpec,
    /// End hosts attached round-robin to the access tier.
    pub hosts: usize,
    /// Receivers (flash crowd) / viewers (zipf, zapping) in the
    /// protocol-comparison workloads.
    pub group_size: usize,
    /// Channel lineup size for the multi-channel workloads.
    pub channels: u32,
    /// Channel switches per viewer in the zapping workload.
    pub zaps: usize,
    /// Flash-crowd sizes for the HBH-AGG storm sweep (ascending).
    pub storm_sizes: Vec<usize>,
    pub base_seed: u64,
    /// LRU capacity of the on-demand route cache, in SPF rows.
    pub cache_rows: usize,
}

impl MembershipConfig {
    /// CI-sized configuration: the full code path (hierarchy, workloads,
    /// storm sweep, state split) in seconds.
    pub fn smoke() -> Self {
        MembershipConfig {
            spec: TierSpec {
                ases: 2,
                pops_per_as: 3,
                access_per_pop: 2,
            },
            hosts: 240,
            group_size: 24,
            channels: 4,
            zaps: 2,
            storm_sizes: vec![40, 160],
            base_seed: 7,
            cache_rows: 256,
        }
    }

    /// The acceptance-scale configuration: 5,020 routers, 120k hosts,
    /// storm sweep over three decades, to 10⁵ receivers inside one tree
    /// period, with a route cache that holds a row for every router: the
    /// storms cycle through the whole core every join period, and a
    /// smaller cache recomputes most of it each time (≈ 40 s and 390 MB
    /// in all; see EXPERIMENTS.md "Membership sweep").
    pub fn full() -> Self {
        let spec = TierSpec {
            ases: 20,
            pops_per_as: 10,
            access_per_pop: 24,
        };
        MembershipConfig {
            spec,
            hosts: 120_000,
            group_size: 256,
            channels: 8,
            zaps: 3,
            storm_sizes: vec![1_000, 10_000, 100_000],
            base_seed: 7,
            cache_rows: spec.router_count(),
        }
    }

    /// Total routers this configuration builds.
    pub fn router_count(&self) -> usize {
        self.spec.router_count()
    }

    /// The three comparison workloads, by name, the flash crowd first.
    pub fn workloads(&self) -> Vec<(&'static str, Workload)> {
        vec![
            (
                "flash_crowd",
                Workload::flash_crowd(self.group_size, Time(0)),
            ),
            (
                "zipf",
                Workload::zipf(self.group_size, self.channels, ZIPF_EXPONENT),
            ),
            (
                "zapping",
                Workload::zapping(self.group_size, self.channels, self.zaps),
            ),
        ]
    }
}

/// What one kernel run of a membership workload measured.
#[derive(Clone, Debug)]
pub struct MembershipOutcome {
    /// Expected primary-channel members once the schedule played out.
    pub expected: usize,
    /// How many of them the final probe reached.
    pub served: usize,
    /// Whether structural changes quiesced before probing.
    pub converged: bool,
    /// Time from the end of convergence until a probe reached everyone
    /// (`None` = never within the deadline).
    pub settle_latency: Option<u64>,
    /// Control-plane copies over the whole run.
    pub control_copies: u64,
    /// Kernel events dispatched.
    pub events: u64,
    /// Max state bytes over routers with no member hosts attached
    /// (pure tree state — the sublinearity claim lives here).
    pub interior_state_max: usize,
    /// Mean state bytes over interior routers.
    pub interior_state_mean: f64,
    /// Max state bytes over the member-facing access routers (includes
    /// the local member set, irreducibly O(local members)).
    pub access_state_max: usize,
}

impl MembershipOutcome {
    /// True when every expected receiver was served.
    pub fn complete(&self) -> bool {
        self.served == self.expected
    }

    /// Control copies per expected receiver.
    pub fn control_per_receiver(&self) -> f64 {
        self.control_copies as f64 / self.expected.max(1) as f64
    }
}

/// The membership study: converge, settle-probe, then split per-router
/// state by role.
pub struct MembershipStudy;

impl Study for MembershipStudy {
    type Out = MembershipOutcome;

    fn run<P>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> MembershipOutcome
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: hbh_proto_base::StateInventory,
    {
        // Script-driven workloads (zapping) stretch past the join window;
        // converge over whichever horizon is longer.
        let horizon = scenario.join_window.max(scenario.script.duration().0);
        let converged = converge(&mut k, timing, horizon);

        // Settle loop: probe once per tree period until every expected
        // receiver is served (tolerant — trees mid-decay may duplicate).
        let window = probe_window(k.network());
        let settle_start = k.now();
        let deadline = settle_start + timing.repair_deadline();
        let mut settle_latency = None;
        let mut served;
        let mut tag = 100;
        loop {
            let (delays, _) = probe_tolerant(&mut k, ch, tag, window);
            tag += 1;
            served = scenario
                .receivers
                .iter()
                .filter(|r| delays.contains_key(r))
                .count();
            if served == scenario.receivers.len() {
                settle_latency = Some(k.now().0.saturating_sub(settle_start.0));
                break;
            }
            if k.now() > deadline {
                break;
            }
            let next = k.now() + timing.tree_period;
            k.run_until(next);
        }

        use hbh_proto_base::StateInventory;
        let g = k.network().graph();
        let member_access: BTreeSet<NodeId> = scenario
            .receivers
            .iter()
            .map(|&r| g.host_router(r))
            .collect();
        let mut interior_max = 0usize;
        let mut interior_sum = 0usize;
        let mut interior_count = 0usize;
        let mut access_max = 0usize;
        for r in g.routers() {
            let bytes = k.state(r).state_bytes(ch);
            if member_access.contains(&r) {
                access_max = access_max.max(bytes);
            } else {
                interior_max = interior_max.max(bytes);
                interior_sum += bytes;
                interior_count += 1;
            }
        }

        MembershipOutcome {
            expected: scenario.receivers.len(),
            served,
            converged,
            settle_latency,
            control_copies: k.stats().control_copies(),
            events: k.stats().events,
            interior_state_max: interior_max,
            interior_state_mean: interior_sum as f64 / interior_count.max(1) as f64,
            access_state_max: access_max,
        }
    }
}

/// Cells where not every expected receiver was served.
const INCOMPLETE: Count<MembershipOutcome> = ("incomplete", |o| !o.complete());
/// Cells that failed to quiesce before probing.
const UNCONVERGED: Count<MembershipOutcome> = ("unconverged", |o| !o.converged);

/// Result of a membership sweep, ready for JSON serialization.
pub struct MembershipReport {
    /// Draw `i` is workload `i` of [`MembershipConfig::workloads`], run by
    /// every arm of [`ProtocolKind::MEMBERSHIP_ARMS`].
    pub comparison: Point<MembershipOutcome>,
    /// HBH-AGG alone; draw `i` is a flash crowd of the `i`-th storm size.
    pub storm: Point<MembershipOutcome>,
    pub wall_secs: f64,
}

impl MembershipReport {
    /// Cells of both sweeps where not every receiver was served.
    pub fn incomplete(&self) -> u64 {
        self.comparison.total(INCOMPLETE) + self.storm.total(INCOMPLETE)
    }

    /// Cells of both sweeps that failed to quiesce before probing.
    pub fn unconverged(&self) -> u64 {
        self.comparison.total(UNCONVERGED) + self.storm.total(UNCONVERGED)
    }

    /// Growth exponent of the interior state maximum across the storm
    /// sweep: `ln(state ratio) / ln(receiver ratio)` between the first
    /// and last points. 1.0 = linear in receivers, 0.0 = flat; the
    /// summary path must stay well below 1.
    pub fn storm_state_exponent(&self) -> f64 {
        let storm = self.storm.of(ProtocolKind::HbhAgg);
        let (Some(first), Some(last)) = (storm.first(), storm.last()) else {
            return 0.0;
        };
        if first.expected >= last.expected {
            return 0.0;
        }
        let state_ratio =
            last.interior_state_max.max(1) as f64 / first.interior_state_max.max(1) as f64;
        let rx_ratio = last.expected as f64 / first.expected as f64;
        state_ratio.ln() / rx_ratio.ln()
    }

    /// HBH-AGG vs plain HBH control copies on the flash-crowd workload,
    /// draw 0 (aggregation must strictly reduce the join-storm control
    /// volume).
    pub fn agg_control_ratio(&self) -> f64 {
        let copies = |kind| self.comparison.of(kind).first().map(|o| o.control_copies);
        match (copies(ProtocolKind::HbhAgg), copies(ProtocolKind::Hbh)) {
            (Some(agg), Some(plain)) => agg as f64 / plain.max(1) as f64,
            _ => f64::NAN,
        }
    }

    /// One record of the `BENCH_membership.json` history: the sweep `cfg`
    /// described, what it measured, and the process's peak RSS.
    pub fn to_json(&self, cfg: &MembershipConfig, peak_rss_kb: u64) -> String {
        // The fields both arrays' objects end with, from `served` on.
        fn cell(o: &MembershipOutcome) -> String {
            format!(
                "\"served\": {}, \"converged\": {}, \"settle_latency\": {}, \
                 \"control_copies\": {}, \"control_per_receiver\": {:.2}, \
                 \"interior_state_max\": {}, \"interior_state_mean\": {:.1}, \
                 \"access_state_max\": {}",
                o.served,
                o.converged,
                o.settle_latency.map_or(-1i64, |l| l as i64),
                o.control_copies,
                o.control_per_receiver(),
                o.interior_state_max,
                o.interior_state_mean,
                o.access_state_max,
            )
        }
        // Workload-major: every arm's cell of draw 0, then of draw 1, ….
        let workloads = cfg.workloads();
        let arms = &self.comparison.arms;
        let comparison: Vec<String> = workloads
            .iter()
            .enumerate()
            .flat_map(|(i, (name, _))| {
                arms.iter().map(move |(kind, draws)| {
                    format!(
                        "    {{\"workload\": \"{name}\", \"protocol\": \"{}\", \"expected\": {}, {}}}",
                        kind.name(),
                        draws[i].expected,
                        cell(&draws[i]),
                    )
                })
            })
            .collect();
        let storm: Vec<String> = self
            .storm
            .of(ProtocolKind::HbhAgg)
            .iter()
            .map(|o| format!("    {{\"receivers\": {}, {}}}", o.expected, cell(o)))
            .collect();
        let cells = arms
            .iter()
            .chain(&self.storm.arms)
            .flat_map(|(_, draws)| draws);
        let events: u64 = cells.map(|o| o.events).sum();
        format!(
            "{{\n  \"topology\": {{\"ases\": {}, \"pops_per_as\": {}, \"access_per_pop\": {}, \
             \"routers\": {}, \"hosts\": {}}},\n  \
             \"sweep\": {{\"group_size\": {}, \"channels\": {}, \"zipf_exponent\": {}, \
             \"zaps\": {}, \"base_seed\": {}}},\n  \
             \"comparison\": [\n{}\n  ],\n  \
             \"storm\": [\n{}\n  ],\n  \
             \"acceptance\": {{\"incomplete\": {}, \"unconverged\": {}, \
             \"storm_state_exponent\": {:.4}, \"agg_control_ratio\": {:.4}}},\n  \
             \"throughput\": {{\"wall_ms\": {:.1}, \"events\": {}, \
             \"peak_rss_kb\": {peak_rss_kb}}}\n}}\n",
            cfg.spec.ases,
            cfg.spec.pops_per_as,
            cfg.spec.access_per_pop,
            cfg.router_count(),
            cfg.hosts,
            cfg.group_size,
            cfg.channels,
            ZIPF_EXPONENT,
            cfg.zaps,
            cfg.base_seed,
            comparison.join(",\n"),
            storm.join(",\n"),
            self.incomplete(),
            self.unconverged(),
            self.storm_state_exponent(),
            self.agg_control_ratio(),
            self.wall_secs * 1e3,
            events,
        )
    }
}

/// Builds the frozen topology of `cfg` (same scheme as the scale sweep,
/// different seed salt so the sweeps don't alias).
pub fn build_membership_graph(cfg: &MembershipConfig) -> Graph {
    hierarchy(&cfg.spec, cfg.hosts, cfg.base_seed ^ 0xAE3B_0000)
}

/// Builds scenario `run` of the sweep: per-run cost draw and source over
/// the shared frozen `template`, then the workload's membership plan.
pub fn build_membership_scenario(
    cfg: &MembershipConfig,
    template: &Graph,
    workload: &Workload,
    run: usize,
) -> Scenario {
    let run_seed = cfg.base_seed ^ ((run as u64) << 40) ^ 0xAE3B_E125;
    let (graph, source, _) = hierarchy_draw(template, run_seed);
    let network = Network::on_demand(graph, cfg.cache_rows);
    Scenario::from_parts(network, source, Vec::new(), Vec::new(), 0, run_seed)
        .with_workload(workload, &Timing::default())
}

/// Runs the sweep on one worker, a draw at a time: each comparison
/// workload paired across every arm, then the HBH-AGG storm sweep over
/// `cfg.storm_sizes`.
pub fn run_membership(cfg: &MembershipConfig) -> MembershipReport {
    let template = build_membership_graph(cfg);
    let start = Instant::now();
    let workloads = cfg.workloads();
    let arms = ProtocolKind::MEMBERSHIP_ARMS.to_vec();
    let one_worker = RunConfig {
        workers: 1,
        ..RunConfig::default()
    };
    let run = one_worker.clone().runs(workloads.len()).protocols(arms);
    let comparison = point(&run, |i| {
        let sc = build_membership_scenario(cfg, &template, &workloads[i].1, i);
        Some((sc, MembershipStudy))
    });
    let sizes = &cfg.storm_sizes;
    let run = one_worker
        .runs(sizes.len())
        .protocols(vec![ProtocolKind::HbhAgg]);
    let storm = point(&run, |i| {
        let crowd = Workload::flash_crowd(sizes[i], Time(0));
        let sc = build_membership_scenario(cfg, &template, &crowd, 100 + i);
        Some((sc, MembershipStudy))
    });
    MembershipReport {
        comparison,
        storm,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke record up to its wall-clock-bearing `throughput` object:
    /// every number the sweep simulates or counts.
    const SMOKE_RECORD: &str = r#"{
  "topology": {"ases": 2, "pops_per_as": 3, "access_per_pop": 2, "routers": 20, "hosts": 240},
  "sweep": {"group_size": 24, "channels": 4, "zipf_exponent": 1, "zaps": 2, "base_seed": 7},
  "comparison": [
    {"workload": "flash_crowd", "protocol": "PIM-SS", "expected": 24, "served": 24, "converged": true, "settle_latency": 49, "control_copies": 2022, "control_per_receiver": 84.25, "interior_state_max": 72, "interior_state_mean": 48.0, "access_state_max": 96},
    {"workload": "flash_crowd", "protocol": "REUNITE", "expected": 24, "served": 24, "converged": true, "settle_latency": 43, "control_copies": 11512, "control_per_receiver": 479.67, "interior_state_max": 216, "interior_state_mean": 78.7, "access_state_max": 120},
    {"workload": "flash_crowd", "protocol": "HBH", "expected": 24, "served": 24, "converged": true, "settle_latency": 43, "control_copies": 16402, "control_per_receiver": 683.42, "interior_state_max": 96, "interior_state_mean": 50.7, "access_state_max": 96},
    {"workload": "flash_crowd", "protocol": "HBH-HARD", "expected": 24, "served": 24, "converged": true, "settle_latency": 43, "control_copies": 15670, "control_per_receiver": 652.92, "interior_state_max": 4386, "interior_state_mean": 2279.9, "access_state_max": 4555},
    {"workload": "flash_crowd", "protocol": "HBH-AGG", "expected": 24, "served": 24, "converged": true, "settle_latency": 43, "control_copies": 6339, "control_per_receiver": 264.12, "interior_state_max": 96, "interior_state_mean": 48.0, "access_state_max": 48},
    {"workload": "zipf", "protocol": "PIM-SS", "expected": 11, "served": 11, "converged": true, "settle_latency": 49, "control_copies": 3798, "control_per_receiver": 345.27, "interior_state_max": 72, "interior_state_mean": 25.8, "access_state_max": 72},
    {"workload": "zipf", "protocol": "REUNITE", "expected": 11, "served": 11, "converged": true, "settle_latency": 42, "control_copies": 9383, "control_per_receiver": 853.00, "interior_state_max": 60, "interior_state_mean": 24.9, "access_state_max": 72},
    {"workload": "zipf", "protocol": "HBH", "expected": 11, "served": 11, "converged": true, "settle_latency": 42, "control_copies": 24571, "control_per_receiver": 2233.73, "interior_state_max": 72, "interior_state_mean": 32.3, "access_state_max": 72},
    {"workload": "zipf", "protocol": "HBH-HARD", "expected": 11, "served": 11, "converged": true, "settle_latency": 42, "control_copies": 26611, "control_per_receiver": 2419.18, "interior_state_max": 10026, "interior_state_mean": 3146.5, "access_state_max": 2743},
    {"workload": "zipf", "protocol": "HBH-AGG", "expected": 11, "served": 11, "converged": true, "settle_latency": 42, "control_copies": 15905, "control_per_receiver": 1445.91, "interior_state_max": 72, "interior_state_mean": 30.5, "access_state_max": 36},
    {"workload": "zapping", "protocol": "PIM-SS", "expected": 6, "served": 6, "converged": true, "settle_latency": 57, "control_copies": 4312, "control_per_receiver": 718.67, "interior_state_max": 48, "interior_state_mean": 10.5, "access_state_max": 72},
    {"workload": "zapping", "protocol": "REUNITE", "expected": 6, "served": 6, "converged": true, "settle_latency": 57, "control_copies": 11080, "control_per_receiver": 1846.67, "interior_state_max": 24, "interior_state_mean": 6.8, "access_state_max": 48},
    {"workload": "zapping", "protocol": "HBH", "expected": 6, "served": 6, "converged": true, "settle_latency": 57, "control_copies": 32018, "control_per_receiver": 5336.33, "interior_state_max": 48, "interior_state_mean": 10.5, "access_state_max": 72},
    {"workload": "zapping", "protocol": "HBH-HARD", "expected": 6, "served": 6, "converged": true, "settle_latency": 57, "control_copies": 42954, "control_per_receiver": 7159.00, "interior_state_max": 11788, "interior_state_mean": 2948.1, "access_state_max": 12417},
    {"workload": "zapping", "protocol": "HBH-AGG", "expected": 6, "served": 6, "converged": true, "settle_latency": 57, "control_copies": 15552, "control_per_receiver": 2592.00, "interior_state_max": 48, "interior_state_mean": 10.5, "access_state_max": 48}
  ],
  "storm": [
    {"receivers": 40, "served": 40, "converged": true, "settle_latency": 41, "control_copies": 7218, "control_per_receiver": 180.45, "interior_state_max": 96, "interior_state_mean": 54.0, "access_state_max": 72},
    {"receivers": 160, "served": 160, "converged": true, "settle_latency": 45, "control_copies": 12047, "control_per_receiver": 75.29, "interior_state_max": 96, "interior_state_mean": 52.5, "access_state_max": 204}
  ],
  "acceptance": {"incomplete": 0, "unconverged": 0, "storm_state_exponent": 0.0000, "agg_control_ratio": 0.3865},
"#;

    #[test]
    fn smoke_sweep_serves_everyone_and_stays_sublinear() {
        let cfg = MembershipConfig::smoke();
        let report = run_membership(&cfg);
        assert_eq!(report.incomplete(), 0, "every expected receiver served");
        assert_eq!(report.unconverged(), 0);
        let cells = |p: &Point<_>| p.arms.iter().map(|(_, draws)| draws.len()).sum::<usize>();
        assert_eq!(cells(&report.comparison), 3 * 5);
        assert_eq!(cells(&report.storm), 2);
        let alpha = report.storm_state_exponent();
        assert!(
            alpha < 0.5,
            "interior state must be sublinear in receivers (exponent {alpha:.2})"
        );
        let ratio = report.agg_control_ratio();
        assert!(
            ratio <= 0.6,
            "aggregation must clearly beat plain HBH's flash-crowd control volume (ratio {ratio:.2})"
        );
        let record = report.to_json(&cfg, 0);
        let simulated = record.split("  \"throughput\"").next().unwrap();
        assert_eq!(simulated, SMOKE_RECORD);
    }

    #[test]
    fn full_sweep_caches_a_row_for_every_router() {
        let cfg = MembershipConfig::full();
        assert!(cfg.cache_rows >= cfg.router_count());
    }

    #[test]
    #[ignore = "the full sweep: about 30 s and 390 MB in release, as CI runs it"]
    fn full_sweep_matches_the_last_committed_record() {
        let cfg = MembershipConfig::full();
        let record = run_membership(&cfg).to_json(&cfg, 0);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_membership.json");
        let history = std::fs::read_to_string(path).unwrap();
        let last = &history[history.rfind("{\n  \"topology\"").expect("a record")..];
        let simulated = |r: &str| r.split("  \"throughput\"").next().unwrap().to_owned();
        assert_eq!(simulated(&record), simulated(last));
    }

    #[test]
    fn scenarios_are_reproducible_per_seed() {
        let cfg = MembershipConfig::smoke();
        let template = build_membership_graph(&cfg);
        let w = Workload::flash_crowd(cfg.group_size, Time(0));
        let a = build_membership_scenario(&cfg, &template, &w, 0);
        let b = build_membership_scenario(&cfg, &template, &w, 0);
        assert_eq!(a.source, b.source);
        assert_eq!(a.receivers, b.receivers);
        assert_eq!(a.join_times, b.join_times);
        let c = build_membership_scenario(&cfg, &template, &w, 1);
        assert!(a.source != c.source || a.receivers != c.receivers);
    }

    #[test]
    fn zapping_scenario_carries_its_script() {
        let cfg = MembershipConfig::smoke();
        let template = build_membership_graph(&cfg);
        let w = Workload::zapping(cfg.group_size, cfg.channels, cfg.zaps);
        let sc = build_membership_scenario(&cfg, &template, &w, 2);
        assert!(sc.join_times.is_empty());
        assert!(!sc.script.is_empty());
        assert!(sc.receivers.len() <= cfg.group_size);
    }
}
