//! Tree-stability study (the paper's Figure 4 argument, quantified):
//! after a member departs, how much does each protocol's tree state churn,
//! and do the *remaining* receivers keep their routes?
//!
//! The paper argues (§3, Figure 4) that HBH's departures have minimal
//! impact — the departing receiver's entry lives at the branching node
//! nearest it — while REUNITE's reconfiguration can change other
//! receivers' routes (Figure 2: r2's route changes when r1 leaves). This
//! study measures both effects: structural-change count during the
//! reconfiguration window, and the number of surviving receivers whose
//! delivery delay changed between a probe before and after the departure.

use crate::datapath::probe_transits;
use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Kernel, Protocol};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Outcome of one departure experiment.
#[derive(Clone, Debug)]
pub struct DepartureOutcome {
    /// Structural table changes during the reconfiguration window.
    pub churn: u64,
    /// Surviving receivers whose *data path* (exact node sequence, not
    /// just its delay) changed.
    pub route_changes: usize,
    /// All survivors still served after reconfiguration?
    pub survivors_served: bool,
}

struct DepartureStudy;

impl Study for DepartureStudy {
    type Out = DepartureOutcome;

    fn run<P: Protocol<Command = Cmd>>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> DepartureOutcome {
        converge(&mut k, timing, scenario.join_window);
        let before = probe_transits(&mut k, ch, 1);

        // Depart a random member (seeded by the scenario).
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xDEAD);
        let leaver = scenario.receivers[rng.random_range(0..scenario.receivers.len())];
        let t_leave = k.now();
        k.command_at(leaver, Cmd::Leave(ch), t_leave);
        let churn_before = k.stats().structural_changes;
        // Reconfiguration window: everything the departure will ever cause
        // happens within a few t2 periods.
        k.run_until(t_leave + 4 * timing.t2 + 4 * timing.tree_period);
        converge(&mut k, timing, 0);
        let churn = k.stats().structural_changes - churn_before;

        let after = probe_transits(&mut k, ch, 2);
        let survivors: Vec<_> = scenario
            .receivers
            .iter()
            .copied()
            .filter(|&r| r != leaver)
            .collect();
        let survivors_served = survivors.iter().all(|r| after.delivered.contains_key(r));
        let route_changes = survivors
            .iter()
            .filter(|&&r| before.path_to(r) != after.path_to(r))
            .count();
        DepartureOutcome {
            churn,
            route_changes,
            survivors_served,
        }
    }
}

/// Runs the departure study for one protocol on one scenario.
pub fn run_departure(kind: ProtocolKind, scenario: &Scenario, timing: &Timing) -> DepartureOutcome {
    dispatch(kind, scenario, timing, &DepartureStudy)
}

/// Aggregates over runs.
#[derive(Clone, Debug, Default)]
pub struct StabilityPoint {
    pub churn: Summary,
    pub route_changes: Summary,
    pub failures: u64,
}

pub struct StabilityConfig {
    pub run: RunConfig,
    /// Receivers per group (the paper's Figure 4 discussion: 8).
    pub group_size: usize,
}

pub fn evaluate(cfg: &StabilityConfig) -> Vec<StabilityPoint> {
    let StabilityConfig { run, group_size } = cfg;
    let per_run = crate::parallel::map_runs(run.runs, |i| {
        let sc = build(
            run.topo,
            *group_size,
            run.base_seed ^ ((i as u64) << 16),
            &run.timing,
            &ScenarioOptions::default(),
        );
        run.protocols
            .iter()
            .map(|&kind| run_departure(kind, &sc, &run.timing))
            .collect::<Vec<_>>()
    });
    let mut acc = vec![StabilityPoint::default(); run.protocols.len()];
    for outcomes in per_run {
        for (a, o) in acc.iter_mut().zip(outcomes) {
            a.churn.add(o.churn as f64);
            a.route_changes.add(o.route_changes as f64);
            if !o.survivors_served {
                a.failures += 1;
            }
        }
    }
    acc
}

pub fn render(cfg: &StabilityConfig, points: &[StabilityPoint]) -> Table {
    let names: Vec<&str> = cfg.run.protocols.iter().map(|p| p.name()).collect();
    let mut t = Table::new(
        format!(
            "Reconfiguration after one departure — {} topology, {} receivers, {} runs",
            cfg.run.topo.name(),
            cfg.group_size,
            cfg.run.runs
        ),
        "metric",
        &names,
    );
    t.summary_row("state churn", points, |p| &p.churn);
    t.summary_row("survivor route changes", points, |p| &p.route_changes);
    t.count_row("failed runs", points, |p| p.failures);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(runs: usize, protocols: Vec<ProtocolKind>) -> StabilityConfig {
        StabilityConfig {
            run: RunConfig::default().runs(runs).protocols(protocols),
            group_size: 8,
        }
    }

    #[test]
    fn departures_never_break_survivors() {
        let cfg = cfg(3, ProtocolKind::ALL.to_vec());
        let points = evaluate(&cfg);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                p.failures,
                0,
                "{} broke survivors",
                cfg.run.protocols[i].name()
            );
        }
    }

    #[test]
    fn hbh_survivor_routes_are_stable() {
        // §3's claim: member departure never changes other receivers'
        // routes in HBH. (REUNITE's number may be nonzero — Figure 2.)
        let points = evaluate(&cfg(5, vec![ProtocolKind::Hbh]));
        assert_eq!(
            points[0].route_changes.mean(),
            0.0,
            "HBH changed survivor routes on departure"
        );
    }

    #[test]
    fn pim_ss_is_also_departure_stable() {
        // Reverse SPT branches are per-receiver independent: a departure
        // must not reroute anyone.
        let points = evaluate(&cfg(3, vec![ProtocolKind::PimSs]));
        assert_eq!(points[0].route_changes.mean(), 0.0);
    }
}
