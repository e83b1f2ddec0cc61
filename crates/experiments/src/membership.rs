//! Membership-scale study: how control traffic and per-router state
//! respond to internet-scale group dynamics.
//!
//! Three workloads drive the hierarchy topology through the [`Workload`]
//! API, paired across protocol arms exactly like the figure sweeps:
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

use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::runner::{converge, probe_tolerant, probe_window};
use crate::scenario::Scenario;
use hbh_proto_base::{Channel, Cmd, Timing, Workload};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::costs;
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::hier::{attach_hosts, hierarchical, TierSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// One membership sweep: topology shape, workload knobs, and arms.
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
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Channel switches per viewer in the zapping workload.
    pub zaps: usize,
    /// Flash-crowd sizes for the HBH-AGG storm sweep (ascending).
    pub storm_sizes: Vec<usize>,
    pub base_seed: u64,
    /// LRU capacity of the on-demand route cache, in SPF rows.
    pub cache_rows: usize,
    pub timing: Timing,
    /// Protocol arms for the comparison workloads.
    pub protocols: Vec<ProtocolKind>,
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
            zipf_exponent: 1.0,
            zaps: 2,
            storm_sizes: vec![40, 160],
            base_seed: 7,
            cache_rows: 256,
            timing: Timing::default(),
            protocols: ProtocolKind::MEMBERSHIP_ARMS.to_vec(),
        }
    }

    /// The acceptance-scale configuration: 5,020 routers, 120k hosts,
    /// storm sweep over three decades, to 10⁵ receivers inside one tree
    /// period (≈ 9 min in all, 7 of them the 10⁵ point; see
    /// EXPERIMENTS.md "Membership sweep").
    pub fn full() -> Self {
        MembershipConfig {
            spec: TierSpec {
                ases: 20,
                pops_per_as: 10,
                access_per_pop: 24,
            },
            hosts: 120_000,
            group_size: 256,
            channels: 8,
            zipf_exponent: 1.0,
            zaps: 3,
            storm_sizes: vec![1_000, 10_000, 100_000],
            base_seed: 7,
            cache_rows: 4096,
            timing: Timing::default(),
            protocols: ProtocolKind::MEMBERSHIP_ARMS.to_vec(),
        }
    }

    /// Total routers this configuration builds.
    pub fn router_count(&self) -> usize {
        self.spec.router_count()
    }

    /// The three comparison workloads, by name.
    pub fn workloads(&self) -> Vec<(&'static str, Workload)> {
        vec![
            (
                "flash_crowd",
                Workload::flash_crowd(self.group_size, Time(0)),
            ),
            (
                "zipf",
                Workload::zipf(self.group_size, self.channels, self.zipf_exponent),
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
    /// the per-member summary, irreducibly O(local members)).
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
        let deadline = settle_start + 8 * timing.t2 + 8 * timing.tree_period;
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

/// One (workload, protocol) cell of the comparison matrix.
#[derive(Clone, Debug)]
pub struct WorkloadArm {
    pub workload: &'static str,
    pub kind: ProtocolKind,
    pub outcome: MembershipOutcome,
}

/// One point of the HBH-AGG flash-crowd storm sweep.
#[derive(Clone, Debug)]
pub struct StormPoint {
    pub receivers: usize,
    pub outcome: MembershipOutcome,
}

/// Result of a membership sweep, ready for JSON serialization.
#[derive(Clone, Debug)]
pub struct MembershipReport {
    pub routers: usize,
    pub hosts: usize,
    pub group_size: usize,
    pub channels: u32,
    pub comparison: Vec<WorkloadArm>,
    pub storm: Vec<StormPoint>,
    pub wall_secs: f64,
    pub events: u64,
}

impl MembershipReport {
    /// Comparison cells where not every receiver was served.
    pub fn incomplete(&self) -> u64 {
        self.comparison
            .iter()
            .filter(|a| !a.outcome.complete())
            .count() as u64
            + self.storm.iter().filter(|p| !p.outcome.complete()).count() as u64
    }

    /// Cells that failed to quiesce before probing.
    pub fn unconverged(&self) -> u64 {
        self.comparison
            .iter()
            .filter(|a| !a.outcome.converged)
            .count() as u64
            + self.storm.iter().filter(|p| !p.outcome.converged).count() as u64
    }

    /// Growth exponent of the interior state maximum across the storm
    /// sweep: `ln(state ratio) / ln(receiver ratio)` between the first
    /// and last points. 1.0 = linear in receivers, 0.0 = flat; the
    /// summary path must stay well below 1.
    pub fn storm_state_exponent(&self) -> f64 {
        let (Some(first), Some(last)) = (self.storm.first(), self.storm.last()) else {
            return 0.0;
        };
        if first.receivers >= last.receivers {
            return 0.0;
        }
        let state_ratio = last.outcome.interior_state_max.max(1) as f64
            / first.outcome.interior_state_max.max(1) as f64;
        let rx_ratio = last.receivers as f64 / first.receivers as f64;
        state_ratio.ln() / rx_ratio.ln()
    }

    /// HBH-AGG vs plain HBH control copies on the flash-crowd workload
    /// (aggregation must strictly reduce the join-storm control volume).
    pub fn agg_control_ratio(&self) -> f64 {
        let copies = |kind: ProtocolKind| {
            self.comparison
                .iter()
                .find(|a| a.workload == "flash_crowd" && a.kind == kind)
                .map(|a| a.outcome.control_copies)
        };
        match (copies(ProtocolKind::HbhAgg), copies(ProtocolKind::Hbh)) {
            (Some(agg), Some(plain)) => agg as f64 / plain.max(1) as f64,
            _ => f64::NAN,
        }
    }

    /// One record of the `BENCH_membership.json` history: the sweep `cfg`
    /// described, what it measured, and the process's peak RSS.
    pub fn to_json(&self, cfg: &MembershipConfig, peak_rss_kb: u64) -> String {
        // The fields both arrays' objects end with, from `served` on.
        let cell = |o: &MembershipOutcome| {
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
        };
        let comparison: Vec<String> = self
            .comparison
            .iter()
            .map(|arm| {
                format!(
                    "    {{\"workload\": \"{}\", \"protocol\": \"{}\", \"expected\": {}, {}}}",
                    arm.workload,
                    arm.kind.name(),
                    arm.outcome.expected,
                    cell(&arm.outcome),
                )
            })
            .collect();
        let storm: Vec<String> = self
            .storm
            .iter()
            .map(|p| {
                format!(
                    "    {{\"receivers\": {}, {}}}",
                    p.receivers,
                    cell(&p.outcome)
                )
            })
            .collect();
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
            self.routers,
            self.hosts,
            self.group_size,
            self.channels,
            cfg.zipf_exponent,
            cfg.zaps,
            cfg.base_seed,
            comparison.join(",\n"),
            storm.join(",\n"),
            self.incomplete(),
            self.unconverged(),
            self.storm_state_exponent(),
            self.agg_control_ratio(),
            self.wall_secs * 1e3,
            self.events,
        )
    }
}

/// Builds the frozen topology of `cfg` (same scheme as the scale sweep,
/// different seed salt so the sweeps don't alias).
pub fn build_membership_graph(cfg: &MembershipConfig) -> Graph {
    let shape = (cfg.spec.ases as u64) << 32
        | (cfg.spec.pops_per_as as u64) << 16
        | cfg.spec.access_per_pop as u64;
    let mut rng = StdRng::seed_from_u64(cfg.base_seed ^ 0xAE3B_0000 ^ shape);
    let mut topo = hierarchical(&cfg.spec, &mut rng);
    attach_hosts(&mut topo, cfg.hosts, &mut rng);
    topo.graph
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
    let mut rng = StdRng::seed_from_u64(run_seed);
    let mut graph = template.clone();
    costs::assign_paper_costs(&mut graph, &mut rng);
    let hosts: Vec<NodeId> = graph.hosts().collect();
    let source = hosts[rng.random_range(0..hosts.len())];
    let network = Network::on_demand(graph, cfg.cache_rows);
    Scenario::from_parts(network, source, Vec::new(), Vec::new(), 0, run_seed)
        .with_workload(workload, &cfg.timing)
}

/// Runs the sweep: each comparison workload paired across every arm, then
/// the HBH-AGG storm sweep over `cfg.storm_sizes`.
pub fn run_membership(cfg: &MembershipConfig) -> MembershipReport {
    let template = build_membership_graph(cfg);
    let start = Instant::now();
    let mut comparison = Vec::new();
    for (run, (name, workload)) in cfg.workloads().into_iter().enumerate() {
        let sc = build_membership_scenario(cfg, &template, &workload, run);
        for &kind in &cfg.protocols {
            let outcome = dispatch(kind, &sc, &cfg.timing, &MembershipStudy);
            eprintln!(
                "{name}/{}: served {}/{}, control {}, interior max {} B",
                kind.name(),
                outcome.served,
                outcome.expected,
                outcome.control_copies,
                outcome.interior_state_max,
            );
            comparison.push(WorkloadArm {
                workload: name,
                kind,
                outcome,
            });
        }
    }

    let mut storm = Vec::new();
    for (i, &n) in cfg.storm_sizes.iter().enumerate() {
        let workload = Workload::flash_crowd(n, Time(0));
        let sc = build_membership_scenario(cfg, &template, &workload, 100 + i);
        let outcome = dispatch(ProtocolKind::HbhAgg, &sc, &cfg.timing, &MembershipStudy);
        eprintln!(
            "storm {n}: served {}/{}, control/receiver {:.1}, interior max {} B, access max {} B",
            outcome.served,
            outcome.expected,
            outcome.control_per_receiver(),
            outcome.interior_state_max,
            outcome.access_state_max,
        );
        storm.push(StormPoint {
            receivers: n,
            outcome,
        });
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let events = comparison
        .iter()
        .map(|a| a.outcome.events)
        .chain(storm.iter().map(|p| p.outcome.events))
        .sum();
    MembershipReport {
        routers: cfg.router_count(),
        hosts: cfg.hosts,
        group_size: cfg.group_size,
        channels: cfg.channels,
        comparison,
        storm,
        wall_secs,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_serves_everyone_and_stays_sublinear() {
        let report = run_membership(&MembershipConfig::smoke());
        assert_eq!(report.incomplete(), 0, "every expected receiver served");
        assert_eq!(report.unconverged(), 0);
        assert_eq!(report.comparison.len(), 3 * 5);
        assert_eq!(report.storm.len(), 2);
        let alpha = report.storm_state_exponent();
        assert!(
            alpha < 0.5,
            "interior state must be sublinear in receivers (exponent {alpha:.2})"
        );
        let ratio = report.agg_control_ratio();
        assert!(
            ratio < 1.0,
            "aggregation must reduce flash-crowd control volume (ratio {ratio:.2})"
        );
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
