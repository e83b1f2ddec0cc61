//! State-footprint study — quantifying REUNITE's founding observation
//! (§2.1): "in typical multicast trees, the majority of routers simply
//! forward packets … nevertheless, all multicast protocols keep per group
//! information in all routers of the multicast tree."
//!
//! For each protocol we count, over the converged tree:
//!
//! * routers holding **forwarding** state (MFT / PIM oif entries) and the
//!   total number of such entries;
//! * routers holding **control-plane-only** state (MCT entries), which is
//!   cheap state kept off the forwarding path.
//!
//! Expected shape: PIM needs forwarding state at *every* on-tree router;
//! the recursive-unicast protocols concentrate it at branching nodes.

use crate::figures::sweep::{sweep, table_by_x, Column, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::scenario::Scenario;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_sim_core::{Kernel, Protocol};

/// State counts over all *routers* (host agents excluded) at convergence.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StateCounts {
    /// Routers with ≥ 1 forwarding entry.
    pub fwd_routers: usize,
    /// Total forwarding entries across routers.
    pub fwd_entries: usize,
    /// Routers with control-plane-only state.
    pub ctl_routers: usize,
}

struct StateStudy;

impl Study for StateStudy {
    type Out = StateCounts;

    fn run<P>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> StateCounts
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: StateInventory,
    {
        converge(&mut k, timing, scenario.join_window);
        let mut out = StateCounts::default();
        let routers: Vec<_> = k.network().graph().routers().collect();
        for r in routers {
            let st = k.state(r);
            let fwd = st.forwarding_entries(ch);
            let ctl = st.control_entries(ch);
            if fwd > 0 {
                out.fwd_routers += 1;
                out.fwd_entries += fwd;
            }
            if ctl > 0 && fwd == 0 {
                out.ctl_routers += 1;
            }
        }
        out
    }
}

/// The two plotted columns (control-only routers are asserted on by the
/// tests, not plotted).
const COLUMNS: [Column<StateCounts>; 2] = [
    ("fwd-routers", |c| Some(c.fwd_routers as f64)),
    ("fwd-entries", |c| Some(c.fwd_entries as f64)),
];

pub fn evaluate(run: &RunConfig, sizes: &[usize]) -> Vec<Point<StateCounts>> {
    sweep(run, sizes, usize::to_string, |&m, i| {
        let seed = run.base_seed ^ (m as u64) << 40 ^ i as u64;
        Some((run.draw(m, seed), StateStudy))
    })
}

pub fn render(run: &RunConfig, points: &[Point<StateCounts>]) -> Table {
    let title = run.title("Forwarding-state footprint", None) + "/point";
    table_by_x(title, "receivers", &run.protocols, &COLUMNS, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{dispatch, ProtocolKind};

    fn counts(kind: ProtocolKind, m: usize, seed: u64) -> StateCounts {
        let run = RunConfig::default();
        dispatch(kind, &run.draw(m, seed), &run.timing, &StateStudy)
    }

    #[test]
    fn pim_ss_keeps_forwarding_state_at_every_on_tree_router() {
        // Reverse-SPT routers all hold oif state; with 8 receivers on 18
        // routers the tree covers most of the backbone.
        let c = counts(ProtocolKind::PimSs, 8, 5);
        assert!(c.fwd_routers >= 6, "{c:?}");
        assert_eq!(c.ctl_routers, 0, "PIM has no control-only state");
    }

    #[test]
    fn recursive_unicast_concentrates_forwarding_state() {
        for seed in [5, 6, 7] {
            let hbh = counts(ProtocolKind::Hbh, 8, seed);
            let ss = counts(ProtocolKind::PimSs, 8, seed);
            assert!(
                hbh.fwd_routers <= ss.fwd_routers,
                "seed {seed}: HBH {hbh:?} vs PIM-SS {ss:?}"
            );
            assert!(hbh.ctl_routers > 0, "non-branching tree routers keep MCTs");
        }
    }

    #[test]
    fn reunite_also_concentrates_forwarding_state() {
        let reunite = counts(ProtocolKind::Reunite, 8, 5);
        let ss = counts(ProtocolKind::PimSs, 8, 5);
        assert!(
            reunite.fwd_routers <= ss.fwd_routers,
            "{reunite:?} vs {ss:?}"
        );
    }
}
