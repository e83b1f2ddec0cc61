//! ROADMAP 3(b)'s precondition: a converged tree is refreshed at the one
//! `Timing` period, so the control copies an arm sends per tree period are
//! a constant that a closed form of the tree can predict. REUNITE, HBH and
//! HBH-AGG send the same count in every period; PIM-SM and PIM-SS the
//! same count over every two, because a join is suppressed for half a join
//! period. HBH-HARD stays out until ROADMAP item 2 is settled: it does not
//! converge on every paper draw. The same draws pin how many converged
//! runs `Kernel::fast_forward` found repeating, which is what it skips.

use hbh_experiments::protocols::{dispatch, ProtocolKind, Study};
use hbh_experiments::runner::converge;
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_sim_core::{Kernel, Protocol};
use std::collections::BTreeMap;

const PERIODS: usize = 8;

/// Converges the kernel, then counts its control copies in each of the
/// next [`PERIODS`] tree periods; `None` if it did not converge. With the
/// counts, whether `converge` skipped a repeated window on the way.
struct PeriodCounts;

impl Study for PeriodCounts {
    type Out = Option<([u64; PERIODS], bool)>;

    fn run<P>(&self, mut k: Kernel<P>, _: Channel, sc: &Scenario, timing: &Timing) -> Self::Out
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: StateInventory,
    {
        converge(&mut k, timing, sc.join_window).then(|| {
            let skipped = k.skipped_windows() > 0;
            let counts = [0; PERIODS].map(|_| {
                let before = k.stats().control_copies();
                let until = k.now() + timing.tree_period;
                k.run_until(until);
                k.stats().control_copies() - before
            });
            (counts, skipped)
        })
    }
}

#[test]
fn converged_trees_repeat_their_control_count_every_period_or_every_two() {
    use ProtocolKind::{Hbh, HbhAgg, PimSm, PimSs, Reunite};
    let timing = Timing::default();
    // Per arm: draws whose count repeats every period, and draws whose
    // count repeats only every two.
    let mut repeats: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
    // Per arm: converged draws on which `converge` skipped a window.
    let mut skipping: BTreeMap<&str, u32> = BTreeMap::new();
    for topo in [TopologyKind::Isp, TopologyKind::Rand50] {
        for seed in 0..40 {
            let sc = build(topo, 8, seed, &timing, &ScenarioOptions::default());
            for kind in [PimSm, PimSs, Reunite, Hbh, HbhAgg] {
                let what = format!("{} on {} seed {seed}", kind.name(), topo.name());
                let counts = dispatch(kind, &sc, &timing, &PeriodCounts);
                let (c, skipped) = counts.unwrap_or_else(|| panic!("{what} did not converge"));
                *skipping.entry(kind.name()).or_default() += u32::from(skipped);
                let tally = repeats.entry(kind.name()).or_default();
                if c.windows(2).all(|w| w[0] == w[1]) {
                    tally.0 += 1;
                } else {
                    let pim = matches!(kind, PimSm | PimSs);
                    assert!(pim, "{what}: {c:?} is not one count per period");
                    let every_two = c.windows(3).all(|w| w[0] == w[2]);
                    assert!(
                        every_two,
                        "{what}: {c:?} repeats neither every period nor every two"
                    );
                    tally.1 += 1;
                }
            }
        }
    }
    let expected = BTreeMap::from([
        ("HBH", (80, 0)),
        ("HBH-AGG", (80, 0)),
        ("PIM-SM", (66, 14)),
        ("PIM-SS", (55, 25)),
        ("REUNITE", (80, 0)),
    ]);
    assert_eq!(repeats, expected);
    // Fast-forward finds those repeats: a later change that made some
    // state compare unequal would cost the speed-up with no output moving.
    let expected_skipping = BTreeMap::from([
        ("HBH", 80),
        ("HBH-AGG", 80),
        ("PIM-SM", 80),
        ("PIM-SS", 80),
        ("REUNITE", 80),
    ]);
    assert_eq!(skipping, expected_skipping);
}
