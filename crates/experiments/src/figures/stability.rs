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
use crate::figures::sweep::{point, table_by_metric, Column, Count, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::scenario::Scenario;
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

pub const CHURN: Column<DepartureOutcome> = ("state churn", |o| Some(o.churn as f64));
pub const ROUTE_CHANGES: Column<DepartureOutcome> =
    ("survivor route changes", |o| Some(o.route_changes as f64));
/// Draws after which some survivor was no longer served (must stay 0).
pub const FAILED: Count<DepartureOutcome> = ("failed runs", |o| !o.survivors_served);

/// One departure per draw at `group_size` receivers (the paper's Figure 4
/// discussion: 8).
pub fn evaluate(run: &RunConfig, group_size: usize) -> Point<DepartureOutcome> {
    let draw = |i| run.draw(group_size, run.base_seed ^ ((i as u64) << 16));
    point(run, |i| Some((draw(i), DepartureStudy)))
}

pub fn render(run: &RunConfig, group_size: usize, point: &Point<DepartureOutcome>) -> Table {
    let title = run.title("Reconfiguration after one departure", Some(group_size));
    table_by_metric(title, point, &[CHURN, ROUTE_CHANGES], &[FAILED])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;

    fn departures(runs: usize, protocols: Vec<ProtocolKind>) -> Point<DepartureOutcome> {
        evaluate(&RunConfig::default().runs(runs).protocols(protocols), 8)
    }

    #[test]
    fn departures_never_break_survivors() {
        let point = departures(3, ProtocolKind::ALL.to_vec());
        for kind in ProtocolKind::ALL {
            assert_eq!(
                point.count(kind, FAILED),
                0,
                "{} broke survivors",
                kind.name()
            );
        }
    }

    #[test]
    fn hbh_survivor_routes_are_stable() {
        // §3's claim: member departure never changes other receivers'
        // routes in HBH. (REUNITE's number may be nonzero — Figure 2.)
        let point = departures(5, vec![ProtocolKind::Hbh]);
        assert_eq!(
            point.summary(ProtocolKind::Hbh, ROUTE_CHANGES).mean(),
            0.0,
            "HBH changed survivor routes on departure"
        );
    }

    #[test]
    fn pim_ss_is_also_departure_stable() {
        // Reverse SPT branches are per-receiver independent: a departure
        // must not reroute anyone.
        let point = departures(3, vec![ProtocolKind::PimSs]);
        assert_eq!(
            point.summary(ProtocolKind::PimSs, ROUTE_CHANGES).mean(),
            0.0
        );
    }
}
