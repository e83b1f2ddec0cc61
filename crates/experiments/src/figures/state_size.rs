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

use crate::figures::eval::EvalConfig;
use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::report::Table;
use crate::runner::converge;
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
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
    /// Total control entries across routers.
    pub ctl_entries: usize,
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
            out.ctl_entries += ctl;
        }
        out
    }
}

/// Measures the converged state footprint of one protocol on one scenario.
pub fn measure(kind: ProtocolKind, scenario: &Scenario, timing: &Timing) -> StateCounts {
    dispatch(kind, scenario, timing, &StateStudy)
}

#[derive(Clone, Debug, Default)]
pub struct StateSizePoint {
    pub fwd_routers: Summary,
    pub fwd_entries: Summary,
    pub ctl_routers: Summary,
}

pub fn evaluate(cfg: &EvalConfig) -> Vec<(usize, Vec<StateSizePoint>)> {
    let run = &cfg.run;
    cfg.sizes
        .iter()
        .map(|&m| {
            let mut acc = vec![StateSizePoint::default(); run.protocols.len()];
            for i in 0..run.runs {
                let sc = build(
                    run.topo,
                    m,
                    run.base_seed ^ (m as u64) << 40 ^ i as u64,
                    &run.timing,
                    &ScenarioOptions::default(),
                );
                for (a, &kind) in acc.iter_mut().zip(&run.protocols) {
                    let c = measure(kind, &sc, &run.timing);
                    a.fwd_routers.add(c.fwd_routers as f64);
                    a.fwd_entries.add(c.fwd_entries as f64);
                    a.ctl_routers.add(c.ctl_routers as f64);
                }
            }
            (m, acc)
        })
        .collect()
}

pub fn render(cfg: &EvalConfig, rows: &[(usize, Vec<StateSizePoint>)]) -> Table {
    let mut cols = Vec::new();
    for p in &cfg.run.protocols {
        cols.push(format!("{} fwd-routers", p.name()));
        cols.push(format!("{} fwd-entries", p.name()));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Forwarding-state footprint — {} topology, {} runs/point",
            cfg.run.topo.name(),
            cfg.run.runs
        ),
        "receivers",
        &col_refs,
    );
    for (m, points) in rows {
        let mut cells = Vec::new();
        for p in points {
            cells.push(Table::cell(p.fwd_routers.mean(), p.fwd_routers.ci95()));
            cells.push(Table::cell(p.fwd_entries.mean(), p.fwd_entries.ci95()));
        }
        t.row(m.to_string(), cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologyKind;

    fn counts(kind: ProtocolKind, m: usize, seed: u64) -> StateCounts {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            m,
            seed,
            &timing,
            &ScenarioOptions::default(),
        );
        measure(kind, &sc, &timing)
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
