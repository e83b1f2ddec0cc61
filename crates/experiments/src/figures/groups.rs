//! Multi-group scaling study — the concern §1 of the paper opens with:
//! "multicast forwarding state is difficult to aggregate". Many channels
//! share one network; we measure how total forwarding state and control
//! traffic scale with the number of concurrent groups, per protocol, and
//! verify that every channel keeps delivering exactly-once with all the
//! soft-state machinery interleaved.

use crate::datapath::probe_transits;
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::stats::Summary;
use hbh_pim::Pim;
use hbh_proto::Hbh;
use hbh_proto_base::workload::sample_receivers;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::NodeId;
use hbh_topo::{costs, isp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One concurrent-channels scenario: `groups` channels, each with its own
/// source host and receiver set, on one cost draw.
#[derive(Clone, Debug)]
pub struct MultiGroupScenario {
    pub net: Network,
    pub channels: Vec<(Channel, Vec<NodeId>)>,
    pub seed: u64,
}

pub fn build_multi(groups: usize, receivers_per_group: usize, seed: u64) -> MultiGroupScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6800);
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut rng);
    let hosts: Vec<NodeId> = g.hosts().collect();
    assert!(groups <= hosts.len(), "one distinct source host per group");
    let sources = sample_receivers(&hosts, groups, &mut rng);
    let channels = sources
        .iter()
        .map(|&s| {
            let pool: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != s).collect();
            let rx = sample_receivers(&pool, receivers_per_group, &mut rng);
            (Channel::primary(s), rx)
        })
        .collect();
    MultiGroupScenario {
        net: Network::new(g),
        channels,
        seed,
    }
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

fn run_multi<P>(proto: P, sc: &MultiGroupScenario, timing: &Timing) -> MultiGroupOutcome
where
    P: Protocol<Command = Cmd>,
    P::NodeState: StateInventory,
{
    let mut k = Kernel::new(sc.net.clone(), proto, sc.seed);
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x6801);
    for (ch, receivers) in &sc.channels {
        k.command_at(ch.source, Cmd::StartSource(*ch), Time::ZERO);
        let sched = hbh_proto_base::workload::join_schedule(
            receivers,
            Time::ZERO,
            10 * timing.join_period,
            &mut rng,
        );
        for (r, t) in sched {
            k.command_at(r, Cmd::Join(*ch), t);
        }
    }
    converge(&mut k, timing, 10 * timing.join_period);

    // Steady-state control rate over a 10-period window.
    let c0 = k.stats().control_copies();
    let t0 = k.now();
    let periods = 10;
    k.run_until(t0 + periods * timing.tree_period);
    let control_per_period = (k.stats().control_copies() - c0) as f64 / periods as f64;

    // Aggregate state inventory.
    let mut fwd_entries = 0;
    let routers: Vec<NodeId> = k.network().graph().routers().collect();
    for &r in &routers {
        for (ch, _) in &sc.channels {
            fwd_entries += k.state(r).forwarding_entries(*ch);
        }
    }

    // Probe every channel.
    let mut complete = 0;
    for (i, (ch, receivers)) in sc.channels.iter().enumerate() {
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

/// The shared run knobs (the topology is always the ISP one and the three
/// arms are fixed: [`GROUPS_PROTOCOLS`]) plus the concurrent-group counts
/// to visit and the receivers per group.
pub struct GroupsConfig {
    pub run: RunConfig,
    pub group_counts: Vec<usize>,
    pub receivers_per_group: usize,
}

pub const GROUPS_PROTOCOLS: [&str; 3] = ["HBH", "REUNITE", "PIM-SS"];

#[derive(Clone, Debug, Default)]
pub struct GroupsPoint {
    pub fwd_entries: Summary,
    pub control: Summary,
    pub incomplete: u64,
}

pub fn evaluate(cfg: &GroupsConfig) -> Vec<(usize, Vec<GroupsPoint>)> {
    let (run, timing) = (&cfg.run, &cfg.run.timing);
    cfg.group_counts
        .iter()
        .map(|&g| {
            let per_run = crate::parallel::map_runs(run.runs, |i| {
                let sc = build_multi(
                    g,
                    cfg.receivers_per_group,
                    (run.base_seed ^ ((g as u64) << 28)) ^ i as u64,
                );
                [
                    run_multi(Hbh::new(*timing), &sc, timing),
                    run_multi(Reunite::new(*timing), &sc, timing),
                    run_multi(Pim::source_specific(*timing), &sc, timing),
                ]
            });
            let mut acc = vec![GroupsPoint::default(); 3];
            for outs in per_run {
                for (p, o) in acc.iter_mut().zip(outs) {
                    p.fwd_entries.add(o.fwd_entries as f64);
                    p.control.add(o.control_per_period);
                    p.incomplete += (g - o.complete_channels) as u64;
                }
            }
            (g, acc)
        })
        .collect()
}

pub fn render(cfg: &GroupsConfig, rows: &[(usize, Vec<GroupsPoint>)]) -> Table {
    let mut cols = Vec::new();
    for p in GROUPS_PROTOCOLS {
        cols.push(format!("{p} fwd-entries"));
        cols.push(format!("{p} ctl/period"));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Concurrent groups scaling — ISP topology, {} receivers/group, {} runs/point",
            cfg.receivers_per_group, cfg.run.runs
        ),
        "groups",
        &col_refs,
    );
    for (g, points) in rows {
        let mut cells = Vec::new();
        for p in points {
            cells.push(Table::cell(p.fwd_entries.mean(), p.fwd_entries.ci95()));
            cells.push(Table::cell(p.control.mean(), p.control.ci95()));
        }
        t.row(g.to_string(), cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_groups_all_deliver() {
        let sc = build_multi(6, 4, 3);
        let timing = Timing::default();
        for (name, o) in [
            ("HBH", run_multi(Hbh::new(timing), &sc, &timing)),
            ("REUNITE", run_multi(Reunite::new(timing), &sc, &timing)),
            (
                "PIM-SS",
                run_multi(Pim::source_specific(timing), &sc, &timing),
            ),
        ] {
            assert_eq!(o.complete_channels, 6, "{name} dropped a channel");
            assert!(o.fwd_entries > 0);
        }
    }

    #[test]
    fn state_scales_with_group_count() {
        let timing = Timing::default();
        let small = run_multi(Hbh::new(timing), &build_multi(2, 4, 5), &timing);
        let large = run_multi(Hbh::new(timing), &build_multi(8, 4, 5), &timing);
        assert!(
            large.fwd_entries > 2 * small.fwd_entries,
            "8 groups ({}) should hold far more state than 2 ({})",
            large.fwd_entries,
            small.fwd_entries
        );
    }

    #[test]
    fn sources_are_distinct() {
        let sc = build_multi(10, 3, 7);
        let mut sources: Vec<NodeId> = sc.channels.iter().map(|(c, _)| c.source).collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources.len(), 10);
    }
}
