//! Multi-group scaling study — the concern §1 of the paper opens with:
//! "multicast forwarding state is difficult to aggregate". Many channels
//! share one network; we measure how total forwarding state and control
//! traffic scale with the number of concurrent groups, per protocol, and
//! verify that every channel keeps delivering exactly-once with all the
//! soft-state machinery interleaved.

use crate::datapath::probe_transits;
use crate::figures::sweep::{sweep, table_by_x, Column, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{control_per_period, converge, RunConfig};
use crate::scenario::Scenario;
use hbh_proto_base::workload::{join_schedule, sample_receivers};
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::NodeId;
use hbh_topo::{costs, isp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The study of one concurrent-channels draw: its channels, each with its
/// own source host and receiver set.
pub struct GroupsStudy {
    pub channels: Vec<(Channel, Vec<NodeId>)>,
}

/// One concurrent-channels draw on the ISP topology: `groups` channels on
/// one cost draw. The first channel is the scenario's own (source,
/// receivers, join times); the others ride in [`Scenario::script`], in
/// channel order, so any kernel built on the scenario starts them all.
pub fn build_multi(
    groups: usize,
    receivers_per_group: usize,
    seed: u64,
    timing: &Timing,
) -> (Scenario, GroupsStudy) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6800);
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut rng);
    let hosts: Vec<NodeId> = g.hosts().collect();
    assert!(groups <= hosts.len(), "one distinct source host per group");
    let sources = sample_receivers(&hosts, groups, &mut rng);
    let channels: Vec<(Channel, Vec<NodeId>)> = sources
        .iter()
        .map(|&s| {
            let pool: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != s).collect();
            let rx = sample_receivers(&pool, receivers_per_group, &mut rng);
            (Channel::primary(s), rx)
        })
        .collect();

    let join_window = 10 * timing.tree_period;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6801);
    let mut joins = |rx: &[NodeId]| join_schedule(rx, Time::ZERO, join_window, &mut rng);
    let ((first, first_rx), rest) = channels.split_first().expect("at least one group");
    let mut sc = Scenario::from_parts(
        Network::new(g),
        first.source,
        first_rx.clone(),
        joins(first_rx),
        join_window,
        seed,
    );
    for (ch, rx) in rest {
        sc.script = sc.script.start_source(Time::ZERO, *ch);
        for (r, t) in joins(rx) {
            sc.script = sc.script.join(t, r, *ch);
        }
    }
    (sc, GroupsStudy { channels })
}

/// Outcome for one protocol on one multi-group scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiGroupOutcome {
    /// Total forwarding entries over all routers and channels.
    pub fwd_entries: usize,
    /// Total control transmissions per refresh period (steady state).
    pub control_per_period: f64,
    /// Channels in which every receiver was served exactly once.
    pub complete_channels: usize,
}

impl Study for GroupsStudy {
    type Out = MultiGroupOutcome;

    fn run<P>(
        &self,
        mut k: Kernel<P>,
        _first: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> MultiGroupOutcome
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: StateInventory,
    {
        converge(&mut k, timing, scenario.join_window);

        let control_per_period = control_per_period(&mut k, timing, 10);

        // Aggregate state inventory.
        let mut fwd_entries = 0;
        let routers: Vec<NodeId> = k.network().graph().routers().collect();
        for &r in &routers {
            for (ch, _) in &self.channels {
                fwd_entries += k.state(r).forwarding_entries(*ch);
            }
        }

        // Probe every channel.
        let mut complete = 0;
        for (i, (ch, receivers)) in self.channels.iter().enumerate() {
            let tag = 1000 + i as u64;
            let served = probe_transits(&mut k, *ch, tag).delivered;
            let count = k.stats().deliveries_tagged(tag).count();
            if count == receivers.len() && served.len() == count {
                complete += 1;
            }
        }
        MultiGroupOutcome {
            fwd_entries,
            control_per_period,
            complete_channels: complete,
        }
    }
}

const COLUMNS: [Column<MultiGroupOutcome>; 2] = [
    ("fwd-entries", |o| Some(o.fwd_entries as f64)),
    ("ctl/period", |o| Some(o.control_per_period)),
];

/// Every arm of `run` on the ISP topology (whatever `run.topo` says) at
/// every concurrent-group count of `group_counts`, `receivers_per_group`
/// receivers each.
pub fn evaluate(
    run: &RunConfig,
    group_counts: &[usize],
    receivers_per_group: usize,
) -> Vec<Point<MultiGroupOutcome>> {
    sweep(run, group_counts, usize::to_string, |&g, i| {
        let seed = (run.base_seed ^ ((g as u64) << 28)) ^ i as u64;
        Some(build_multi(g, receivers_per_group, seed, &run.timing))
    })
}

pub fn render(
    run: &RunConfig,
    receivers_per_group: usize,
    points: &[Point<MultiGroupOutcome>],
) -> Table {
    let title = format!(
        "Concurrent groups scaling — ISP topology, {receivers_per_group} receivers/group, {} runs/point",
        run.runs
    );
    table_by_x(title, "groups", &run.protocols, &COLUMNS, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::dispatch;
    use crate::protocols::ProtocolKind;

    fn outcome(kind: ProtocolKind, groups: usize, seed: u64) -> MultiGroupOutcome {
        let timing = Timing::default();
        let (sc, study) = build_multi(groups, 4, seed, &timing);
        dispatch(kind, &sc, &timing, &study)
    }

    #[test]
    fn concurrent_groups_all_deliver() {
        for kind in ProtocolKind::SOURCE_SPECIFIC {
            let o = outcome(kind, 6, 3);
            assert_eq!(o.complete_channels, 6, "{} dropped a channel", kind.name());
            assert!(o.fwd_entries > 0);
        }
    }

    #[test]
    fn state_scales_with_group_count() {
        let small = outcome(ProtocolKind::Hbh, 2, 5);
        let large = outcome(ProtocolKind::Hbh, 8, 5);
        assert!(
            large.fwd_entries > 2 * small.fwd_entries,
            "8 groups ({}) should hold far more state than 2 ({})",
            large.fwd_entries,
            small.fwd_entries
        );
    }

    #[test]
    fn sources_are_distinct() {
        let (_, study) = build_multi(10, 3, 7, &Timing::default());
        let mut sources: Vec<NodeId> = study.channels.iter().map(|(c, _)| c.source).collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources.len(), 10);
    }

    #[test]
    fn extra_channels_ride_in_the_script_in_channel_order() {
        let (sc, study) = build_multi(3, 4, 7, &Timing::default());
        let (first, receivers) = &study.channels[0];
        assert_eq!((sc.source, &sc.receivers), (first.source, receivers));
        assert_eq!(sc.join_times.len(), 4);
        // Per extra channel: its source start, then its four joins.
        assert_eq!(sc.script.entries().len(), 2 * (1 + 4));
        let started: Vec<Channel> = (sc.script.entries().iter())
            .filter_map(|&(_, action)| match action {
                hbh_proto_base::ScriptAction::Command(_, Cmd::StartSource(ch)) => Some(ch),
                _ => None,
            })
            .collect();
        assert_eq!(started, [study.channels[1].0, study.channels[2].0]);
    }
}
