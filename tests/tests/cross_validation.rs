//! Cross-validation of the message-driven protocol engines against the
//! analytic tree constructions in `hbh-routing::paths`: the converged
//! engines must produce exactly the trees the theory predicts, on both
//! evaluation topologies, across seeds.

use hbh_experiments::datapath::{probe_transits, DataTransits};
use hbh_experiments::protocols::{pick_rp, run_protocol, ProtocolKind};
use hbh_experiments::runner::{build_kernel, converge};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;
use hbh_reunite::Reunite;
use hbh_routing::paths::{forward_spt, reverse_spt};
use hbh_routing::{RouteProvider, RoutingTables};
use hbh_sim_core::trace::TraceKind;
use hbh_sim_core::PacketClass;

fn scenario(topo: TopologyKind, m: usize, seed: u64) -> (Scenario, Timing) {
    let timing = Timing::default();
    (
        build(topo, m, seed, &timing, &ScenarioOptions::default()),
        timing,
    )
}

#[test]
fn pim_ss_realizes_the_analytic_reverse_spt() {
    for (topo, m) in [(TopologyKind::Isp, 8), (TopologyKind::Rand50, 12)] {
        for seed in [21, 22] {
            let (sc, timing) = scenario(topo, m, seed);
            let o = run_protocol(ProtocolKind::PimSs, &sc, &timing);
            let tables = RoutingTables::compute(sc.graph());
            let tree = reverse_spt(&tables, sc.source, &sc.receivers);
            assert_eq!(
                o.cost as usize,
                tree.cost(),
                "{topo:?} seed {seed}: engine cost vs analytic link count"
            );
            for (&r, &d) in &o.delays {
                assert_eq!(
                    Some(d),
                    tree.delay_to(sc.graph(), r),
                    "{topo:?} receiver {r}"
                );
            }
        }
    }
}

#[test]
fn hbh_realizes_the_forward_spt_delays() {
    for (topo, m) in [(TopologyKind::Isp, 10), (TopologyKind::Rand50, 15)] {
        for seed in [31, 32] {
            let (sc, timing) = scenario(topo, m, seed);
            let o = run_protocol(ProtocolKind::Hbh, &sc, &timing);
            let tables = RoutingTables::compute(sc.graph());
            assert!(o.complete(), "{topo:?} seed {seed}");
            for (&r, &d) in &o.delays {
                assert_eq!(
                    Some(d),
                    tables.dist(sc.source, r),
                    "{topo:?} seed {seed}: receiver {r} off its shortest path"
                );
            }
        }
    }
}

#[test]
fn hbh_cost_is_bracketed_by_spt_and_unicast_star() {
    // Lower bound: the forward SPT's link count (cannot deliver on
    // shortest paths with fewer transmissions). Upper bound: one
    // independent unicast per receiver.
    for seed in [41, 42, 43] {
        let (sc, timing) = scenario(TopologyKind::Isp, 10, seed);
        let o = run_protocol(ProtocolKind::Hbh, &sc, &timing);
        let tables = RoutingTables::compute(sc.graph());
        let spt = forward_spt(&tables, sc.source, &sc.receivers);
        let star: usize = sc
            .receivers
            .iter()
            .map(|&r| tables.path(sc.source, r).unwrap().len() - 1)
            .sum();
        assert!(
            (o.cost as usize) >= spt.cost(),
            "seed {seed}: cost {} below SPT bound {}",
            o.cost,
            spt.cost()
        );
        assert!(
            (o.cost as usize) <= star,
            "seed {seed}: cost {} above unicast star {}",
            o.cost,
            star
        );
    }
}

#[test]
fn hbh_cost_is_usually_exactly_the_spt() {
    // With all routers multicast-capable the converged HBH tree should
    // realize the forward SPT with one copy per link in the vast majority
    // of draws (ties between equal-cost paths can cost an extra copy).
    let mut exact = 0;
    let total = 10;
    for seed in 0..total {
        let (sc, timing) = scenario(TopologyKind::Isp, 8, 100 + seed);
        let o = run_protocol(ProtocolKind::Hbh, &sc, &timing);
        let tables = RoutingTables::compute(sc.graph());
        let spt = forward_spt(&tables, sc.source, &sc.receivers);
        if o.cost as usize == spt.cost() {
            exact += 1;
        }
    }
    assert!(
        exact >= 8,
        "only {exact}/{total} runs realized the exact SPT"
    );
}

#[test]
fn pim_sm_delay_decomposes_through_the_rp() {
    for seed in [51, 52] {
        let (sc, timing) = scenario(TopologyKind::Isp, 8, seed);
        let rp = pick_rp(&sc);
        let o = run_protocol(ProtocolKind::PimSm, &sc, &timing);
        let tables = RoutingTables::compute(sc.graph());
        let shared = reverse_spt(&tables, rp, &sc.receivers);
        let register = tables.dist(sc.source, rp).unwrap();
        for (&r, &d) in &o.delays {
            assert_eq!(
                d,
                register + shared.delay_to(sc.graph(), r).unwrap(),
                "seed {seed}: receiver {r}: delay ≠ d(S,RP) + shared-tree delay"
            );
        }
        // Cost: register path hops + shared tree links.
        let register_hops = tables.path(sc.source, rp).unwrap().len() - 1;
        assert_eq!(
            o.cost as usize,
            register_hops + shared.cost(),
            "seed {seed}"
        );
    }
}

#[test]
fn reunite_cost_never_beats_pim_ss_by_more_than_ties() {
    // RPF guarantees one copy per link of the reverse SPT; REUNITE serves
    // the same receivers with unicast copies, so it can only match or
    // exceed that cost.
    for seed in [61, 62, 63] {
        let (sc, timing) = scenario(TopologyKind::Isp, 10, seed);
        let reunite = run_protocol(ProtocolKind::Reunite, &sc, &timing);
        let ss = run_protocol(ProtocolKind::PimSs, &sc, &timing);
        assert!(
            reunite.cost + 1 >= ss.cost,
            "seed {seed}: REUNITE {} vs PIM-SS {}",
            reunite.cost,
            ss.cost
        );
    }
}

#[test]
fn paired_runs_share_the_same_draw() {
    // The evaluation is paired: the same scenario object must give every
    // protocol identical receiver sets and identical unicast routing.
    let (sc, timing) = scenario(TopologyKind::Isp, 6, 71);
    let a = run_protocol(ProtocolKind::Hbh, &sc, &timing);
    let b = run_protocol(ProtocolKind::PimSs, &sc, &timing);
    let ra: Vec<_> = a.delays.keys().collect();
    let rb: Vec<_> = b.delays.keys().collect();
    assert_eq!(ra, rb, "same receivers served");
}

#[test]
fn stats_read_out_of_a_probe_equals_the_packet_trace() {
    // The figures read a probe's link multiset and delivery times off
    // `Stats`; the packet trace is the independent record of the same run.
    // REUNITE, because its trees put several copies on one link.
    let (sc, timing) = scenario(TopologyKind::Isp, 8, 5);
    let (mut k, ch) = build_kernel(Reunite::new(timing), &sc);
    converge(&mut k, &timing, sc.join_window);
    k.enable_trace();
    let from_stats = probe_transits(&mut k, ch, 1);
    let mut traced = DataTransits::default();
    for rec in k.take_trace() {
        match rec.what {
            TraceKind::Sent { to, pkt } if pkt.class == PacketClass::Data && pkt.tag == 1 => {
                *traced.links.entry((rec.node, to)).or_insert(0) += 1;
            }
            TraceKind::Delivered { tag: 1 } => {
                traced.delivered.insert(rec.node, rec.at);
            }
            _ => {}
        }
    }
    assert_eq!(traced.delivered.len(), sc.receivers.len());
    assert_eq!(from_stats, traced);
}
