//! Pins what the HBH arms simulate on a flash crowd wide enough to nest
//! fusions. The numbers were recorded from the build *before* the MFTs
//! moved onto the indexed coverage core (`hbh_proto::claims`), so a
//! table change that drifts semantically fails `cargo test` rather than
//! only the benchmark's bit-identity check; the HBH and HBH-AGG tuples
//! were re-recorded when the soft table stopped ignoring fusions covered
//! by a broader sender, and the HBH tuple again when an installed claim
//! stopped marking the narrower senders it contains (HBH-AGG and HBH-HARD
//! did not move). The scenario nests: of the soft arm's ≈ 14.2k
//! fusions 91% repeat an installed claim on an unchanged table, 2% change
//! nothing otherwise and 7% change the table; the hard arm, which still
//! ignores a covered fusion, ignores 1,030 of its 2,511.

use hbh_experiments::membership::{
    build_membership_graph, build_membership_scenario, MembershipConfig,
};
use hbh_experiments::protocols::{dispatch, ProtocolKind, Study};
use hbh_experiments::runner::{converge, probe_tolerant, probe_window};
use hbh_experiments::scenario::Scenario;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing, Workload};
use hbh_sim_core::{Kernel, Protocol, Time};

/// `(events, control copies, tree cost, delay sum, receivers served,
/// interior_state_max)` — the delay is kept as an integer sum so the
/// comparison is exact.
type Pinned = (u64, u64, u64, u64, usize, usize);

struct PinnedStudy;

impl Study for PinnedStudy {
    type Out = Pinned;

    fn run<P>(&self, mut k: Kernel<P>, ch: Channel, sc: &Scenario, timing: &Timing) -> Pinned
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: StateInventory,
    {
        assert!(converge(&mut k, timing, sc.join_window), "converged");
        let control = k.stats().control_copies();
        let window = probe_window(k.network());
        let (delays, duplicates) = probe_tolerant(&mut k, ch, 1, window);
        assert_eq!(duplicates, 0, "steady-state trees never duplicate");
        let g = k.network().graph();
        let interior_state_max = g
            .routers()
            .filter(|&r| sc.receivers.iter().all(|&h| g.host_router(h) != r))
            .map(|r| k.state(r).state_bytes(ch))
            .max()
            .unwrap_or(0);
        (
            k.stats().events,
            control,
            k.stats().data_copies_tagged(1),
            delays.values().sum(),
            delays.len(),
            interior_state_max,
        )
    }
}

#[test]
fn flash_crowd_of_160_simulates_exactly_as_recorded() {
    let cfg = MembershipConfig::smoke();
    let template = build_membership_graph(&cfg);
    let workload = Workload::flash_crowd(160, Time(0));
    let sc = build_membership_scenario(&cfg, &template, &workload, 0);
    assert_eq!(sc.receivers.len(), 160);
    for (kind, want) in [
        (ProtocolKind::Hbh, (107_002, 98_600, 180, 4_625, 160, 96)),
        (ProtocolKind::HbhAgg, (20_309, 12_205, 181, 4_625, 160, 96)),
        (
            ProtocolKind::HbhHard,
            (121_579, 82_098, 180, 4_625, 160, 15_062),
        ),
    ] {
        let got = dispatch(kind, &sc, &Timing::default(), &PinnedStudy);
        assert_eq!(got, want, "{}", kind.name());
    }
}
