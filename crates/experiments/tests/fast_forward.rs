//! Fast-forward is exact. A paper draw converged through
//! `runner::converge`, which skips the windows a converged run repeats
//! (`Kernel::fast_forward`), leaves every arm's kernel exactly where
//! converging it with plain `run_until` leaves it: the same `Stats`, clock,
//! node states and live timers, the same route cache, and the same probe
//! afterwards. Draws run on eager tables or on an on-demand store of a
//! random capacity, some too small for the rows a run reads.

use hbh_experiments::figures::timers::scaled_timing;
use hbh_experiments::protocols::{pick_rp, ProtocolKind};
use hbh_experiments::runner::{build_kernel, converge, probe_tolerant, probe_window};
use hbh_experiments::scale::{build_scale_graph, build_scale_scenario, ScaleConfig};
use hbh_experiments::scenario::{draw, Scenario, ScenarioOptions, TopologyKind};
use hbh_pim::Pim;
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Network, Protocol, SteadyState, Time};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `runner::converge` as it reads without fast-forward.
fn converge_plain<P: Protocol>(k: &mut Kernel<P>, timing: &Timing, join_window: u64) -> bool {
    k.run_until(Time(timing.convergence_horizon(join_window)));
    for _ in 0..8 {
        let before = k.stats().structural_changes;
        let until = k.now() + 2 * timing.t2;
        k.run_until(until);
        if k.stats().structural_changes == before {
            return true;
        }
    }
    false
}

/// Everything a caller can read off the two kernels is equal, their route
/// stores included. Node states are compared with `==`, which leaves out
/// only what they keep to answer faster. A hard state never repeats: a
/// hard kernel must have skipped nothing, so it dispatched what the plain
/// one did.
fn same<P: Protocol>(ff: &Kernel<P>, plain: &Kernel<P>, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(ff.now(), plain.now(), "{at}: clock");
    prop_assert!(ff.stats() == plain.stats(), "{at}: stats differ");
    let (net, plain_net) = (ff.network(), plain.network());
    prop_assert_eq!(
        net.routes().route_stats(),
        plain_net.routes().route_stats(),
        "{at}: route stats"
    );
    prop_assert_eq!(
        net.cached_sources(),
        plain_net.cached_sources(),
        "{at}: resident rows"
    );
    prop_assert_eq!(
        ff.pending_timer_count(),
        plain.pending_timer_count(),
        "{at}: live timers"
    );
    if !P::NodeState::MAY_REPEAT {
        prop_assert_eq!(ff.skipped_windows(), 0, "{at}: a hard kernel skipped");
    }
    for n in plain.network().graph().nodes() {
        prop_assert!(
            ff.state(n) == plain.state(n),
            "{at}: node {n}'s state differs"
        );
    }
    Ok(())
}

/// Converges, probes and runs two kernels of `proto`, one on `sc` with
/// fast-forward and one on `twin` without, comparing them after each step.
/// `twin` is `sc` over a network of its own: kernels on clones of one
/// network would share its route cache, and so could not tell whether a
/// skip moved it right.
fn check<P>(proto: P, sc: &Scenario, twin: &Scenario, timing: &Timing) -> Result<(), TestCaseError>
where
    P: Protocol<Command = Cmd> + Clone,
{
    let (mut ff, ch) = build_kernel(proto.clone(), sc);
    let (mut plain, _) = build_kernel(proto, twin);
    let converged = converge(&mut ff, timing, sc.join_window);
    prop_assert_eq!(
        converged,
        converge_plain(&mut plain, timing, sc.join_window)
    );
    same(&ff, &plain, "converged")?;
    let window = probe_window(plain.network());
    let probe = probe_tolerant(&mut ff, ch, 1, window);
    prop_assert_eq!(probe, probe_tolerant(&mut plain, ch, 1, window));
    same(&ff, &plain, "probed")?;
    // The probe was an input from outside: the next stretch must find the
    // repeat again before it skips.
    let later = plain.now() + 20 * timing.tree_period;
    ff.fast_forward(later, 2 * timing.tree_period);
    plain.run_until(later);
    same(&ff, &plain, "after the probe")
}

/// Every arm, HBH-AGG and HBH-HARD included.
const ARMS: [ProtocolKind; 6] = [
    ProtocolKind::PimSm,
    ProtocolKind::PimSs,
    ProtocolKind::Reunite,
    ProtocolKind::Hbh,
    ProtocolKind::HbhAgg,
    ProtocolKind::HbhHard,
];

/// Arm `arm` on draw `seed` at `group` receivers (folded into the
/// topology's pool) of topology `topo` under timing `timing` (the default,
/// or A3's with `t2` doubled or quadrupled), routed by eager tables for a
/// `store` below [`EAGER`], else by an on-demand store of
/// `store − EAGER + 1` rows: one row up to more than the 18-router ISP core
/// holds, so some draws evict.
fn equivalent(
    (topo, group, seed, timing, arm, store): (usize, usize, u64, usize, usize, usize),
) -> Result<(), TestCaseError> {
    let topo = [
        TopologyKind::Isp,
        TopologyKind::Rand50,
        TopologyKind::Waxman30,
    ][topo];
    let t = [Timing::default(), scaled_timing(2.0), scaled_timing(4.0)][timing];
    let group = 1 + group % topo.receiver_pool();
    let d = draw(topo, group, seed, &t, &ScenarioOptions::default());
    let route = |g| match store.checked_sub(EAGER) {
        None => Network::new(g),
        Some(rows) => Network::on_demand(g, rows + 1),
    };
    let (sc, twin) = (d.clone().routed(route), d.routed(route));
    let kind = ARMS[arm];
    let checked = match kind {
        ProtocolKind::Hbh => check(Hbh::new(t), &sc, &twin, &t),
        ProtocolKind::HbhAgg => check(Hbh::aggregated(t), &sc, &twin, &t),
        ProtocolKind::HbhHard => check(HbhHard::new(t), &sc, &twin, &t),
        ProtocolKind::Reunite => check(Reunite::new(t), &sc, &twin, &t),
        ProtocolKind::PimSs => check(Pim::source_specific(t), &sc, &twin, &t),
        ProtocolKind::PimSm => {
            // Placing the RP reads routes: on both networks, then.
            let rp = pick_rp(&sc);
            prop_assert_eq!(rp, pick_rp(&twin));
            check(Pim::sparse_shared(rp, t), &sc, &twin, &t)
        }
    };
    let routes = match store.checked_sub(EAGER) {
        None => "eager tables".to_owned(),
        Some(rows) => format!("{} cached rows", rows + 1),
    };
    let what = format!(
        "{} on {} group {group} seed {seed} over {routes}",
        kind.name(),
        topo.name()
    );
    checked.map_err(|e| TestCaseError(format!("{what}, t2 {}: {e}", t.t2)))
}

/// `store` values below it route by eager tables: half the draws.
const EAGER: usize = 24;

fn draws() -> impl Strategy<Value = (usize, usize, u64, usize, usize, usize)> {
    (
        0usize..3,
        0usize..64,
        any::<u64>(),
        0usize..3,
        0usize..ARMS.len(),
        0usize..2 * EAGER,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_forward_matches_plain_runs(draw in draws()) {
        equivalent(draw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn fast_forward_matches_plain_runs_at_length(draw in draws()) {
        equivalent(draw)?;
    }
}

/// The scale sweep's smoke draw, whose routes are on demand: the soft
/// arms that run at scale skip their repeated windows there and end where
/// plain runs end, route cache included.
#[test]
fn soft_arms_skip_on_the_scale_smoke_draw() {
    let cfg = ScaleConfig::smoke();
    let template = build_scale_graph(&cfg);
    let t = cfg.timing;
    fn converged<P: Protocol<Command = Cmd> + Clone>(
        proto: P,
        cfg: &ScaleConfig,
        template: &hbh_topo::graph::Graph,
    ) -> u64 {
        let (sc, twin) = (
            build_scale_scenario(cfg, template, 0),
            build_scale_scenario(cfg, template, 0),
        );
        let (mut ff, _) = build_kernel(proto.clone(), &sc);
        let (mut plain, _) = build_kernel(proto, &twin);
        assert!(converge(&mut ff, &cfg.timing, sc.join_window));
        assert!(converge_plain(&mut plain, &cfg.timing, sc.join_window));
        same(&ff, &plain, "converged").unwrap();
        ff.skipped_windows()
    }
    for (arm, skipped) in [
        ("HBH", converged(Hbh::new(t), &cfg, &template)),
        ("REUNITE", converged(Reunite::new(t), &cfg, &template)),
        (
            "PIM-SS",
            converged(Pim::source_specific(t), &cfg, &template),
        ),
    ] {
        assert!(skipped > 0, "{arm} skipped nothing");
    }
}
