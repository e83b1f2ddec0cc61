//! A census of what receivers see while soft trees converge: soft HBH and
//! HBH-AGG on 360 paper draws — the ISP, rand50 and waxman30 topologies,
//! each at its paper group sizes, seeds 0–14 — probed from the end of the
//! join window every 11 ticks for 30 tree periods. A probe counts its
//! duplicate deliveries and the receivers it misses; duplicates are also
//! counted apart once the first ten tree periods have passed, where a
//! converged tree must deliver each copy exactly once.
//!
//! Ignored: it is a diagnostic, ≈ 5 s in release, for sizing a change to
//! the fusion rules (EXPERIMENTS.md "Without subsumption"). Run it with
//! `cargo test --release -p hbh-integration-tests --test convergence_window
//! -- --ignored --nocapture`.

use hbh_experiments::runner::{build_kernel, probe_tolerant, probe_window};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto::Hbh;
use hbh_proto_base::{Cmd, Timing};
use hbh_sim_core::{Protocol, Time};

/// Probe spacing, in ticks.
const STEP: u64 = 11;
/// How long the census probes, in tree periods.
const PERIODS: u64 = 30;
/// Duplicates after this many tree periods are counted apart.
const SETTLED: u64 = 10;

/// One arm's counts, summed over draws.
#[derive(Default)]
struct Census {
    duplicates: u64,
    misses: u64,
    settled_duplicates: u64,
}

/// Runs `proto` on `sc` to the end of its join window, then probes it
/// every [`STEP`] ticks for [`PERIODS`] tree periods.
fn census<P: Protocol<Command = Cmd>>(proto: P, sc: &Scenario, timing: &Timing, into: &mut Census) {
    let (mut k, ch) = build_kernel(proto, sc);
    k.run_until(Time(sc.join_window));
    let window = probe_window(k.network());
    let start = k.now().0;
    let settled = start + SETTLED * timing.tree_period;
    let mut tag = 0;
    for at in (start..start + PERIODS * timing.tree_period).step_by(STEP as usize) {
        if k.now().0 < at {
            k.run_until(Time(at));
        }
        tag += 1;
        let (delays, duplicates) = probe_tolerant(&mut k, ch, tag, window);
        into.duplicates += duplicates;
        into.misses += (sc.receivers.len() - delays.len()) as u64;
        if at >= settled {
            into.settled_duplicates += duplicates;
        }
    }
}

#[test]
#[ignore = "diagnostic census, ≈ 5 s in release"]
fn convergence_window_census() {
    let timing = Timing::default();
    let (mut hbh, mut agg) = (Census::default(), Census::default());
    let mut draws = 0;
    for topo in [
        TopologyKind::Isp,
        TopologyKind::Rand50,
        TopologyKind::Waxman30,
    ] {
        for group in topo.paper_group_sizes() {
            for seed in 0..15 {
                let sc = build(topo, group, seed, &timing, &ScenarioOptions::default());
                census(Hbh::new(timing), &sc, &timing, &mut hbh);
                census(Hbh::aggregated(timing), &sc, &timing, &mut agg);
                draws += 1;
            }
        }
    }
    println!("{draws} draws, duplicates / misses / duplicates after {SETTLED} periods:");
    for (arm, c) in [("HBH", &hbh), ("HBH-AGG", &agg)] {
        println!(
            "{arm:>8}: {} / {} / {}",
            c.duplicates, c.misses, c.settled_duplicates
        );
    }
    assert_eq!(
        (hbh.settled_duplicates, agg.settled_duplicates),
        (0, 0),
        "a converged tree duplicates"
    );
}
