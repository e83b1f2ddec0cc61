//! The loop-freedom invariant of ROADMAP item 1, written once for both
//! HBH engines and shared by the integration tests that check it.
//!
//! For every live MFT entry `t` at node `b` on channel `<S,G>`,
//! `d(S, b) < d(S, t)` must hold under the kernel's current unicast
//! routes. An HBH entry names a node whose tree messages cross `b` on
//! their way from `S`, so on the forward SPT it lies strictly farther from
//! the source. Distance cannot strictly increase all the way around a
//! cycle, so a forwarding loop breaks the invariant at one of its entries:
//! the check names the entry the period a loop forms, before any storm.

use hbh_proto::{HardNodeState, HbhNodeState};
use hbh_proto_base::Channel;
use hbh_sim_core::{Kernel, Protocol, Time};
use hbh_topo::graph::{NodeId, PathCost};
use std::fmt;

/// Per-node state that keeps an MFT per channel.
pub trait LiveMft {
    /// The live entries of this node's MFT for `ch` at `now`.
    fn live_mft(&self, ch: Channel, now: Time) -> Vec<NodeId>;
}

impl LiveMft for HbhNodeState {
    fn live_mft(&self, ch: Channel, now: Time) -> Vec<NodeId> {
        self.mft(ch).map_or(Vec::new(), |m| m.live(now).collect())
    }
}

impl LiveMft for HardNodeState {
    fn live_mft(&self, ch: Channel, _now: Time) -> Vec<NodeId> {
        self.mft(ch).map_or(Vec::new(), |m| m.live().collect())
    }
}

/// An MFT entry that breaks the invariant: `entry` sits in the MFT of
/// `at`, yet is no farther from the source than `at`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    pub at: NodeId,
    pub entry: NodeId,
    pub d_at: PathCost,
    pub d_entry: PathCost,
}

impl fmt::Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} (d {} vs {})",
            self.at, self.entry, self.d_at, self.d_entry
        )
    }
}

/// Every live MFT entry on `ch` that breaks the invariant, in node order.
/// An entry or node the source cannot reach (a crashed router, or state
/// that names one) is skipped: it is dead state, not a loop.
pub fn loop_violations<P: Protocol>(k: &Kernel<P>, ch: Channel) -> Vec<Violation>
where
    P::NodeState: LiveMft,
{
    let d = |n: NodeId| k.network().dist(ch.source, n);
    let mut found = Vec::new();
    for at in k.network().graph().nodes() {
        for entry in k.state(at).live_mft(ch, k.now()) {
            if let (Some(d_at), Some(d_entry)) = (d(at), d(entry)) {
                if d_at >= d_entry {
                    found.push(Violation {
                        at,
                        entry,
                        d_at,
                        d_entry,
                    });
                }
            }
        }
    }
    found
}
