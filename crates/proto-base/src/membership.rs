//! Group-membership churn.
//!
//! [`churn_schedule`] is the Poisson join/leave process of the
//! group-dynamics ablation (`DESIGN.md` A4). The paper's own membership
//! model (§4.1: *"A variable number of randomly chosen receivers join the
//! channel"*) — uniform sampling without replacement and join-time
//! scheduling — lives in [`crate::workload`] behind the
//! [`crate::Workload`] builder.

use crate::{Channel, Script};
use hbh_sim_core::Time;
use hbh_topo::graph::NodeId;
use rand::rngs::StdRng;
use rand::RngExt;

/// Generates a Poisson churn process on `ch` over `horizon`: events arrive
/// with exponential inter-arrival times of mean `mean_gap`; each event
/// toggles a uniformly chosen host between member and non-member.
///
/// Returns a [`Script`] of `join`/`leave` entries in time order. The
/// initial membership is empty; a `leave` is only ever scheduled for a
/// current member.
pub fn churn_schedule(
    pool: &[NodeId],
    ch: Channel,
    mean_gap: f64,
    start: Time,
    horizon: u64,
    rng: &mut StdRng,
) -> Script {
    assert!(!pool.is_empty() && mean_gap > 0.0);
    let mut member = vec![false; pool.len()];
    let mut script = Script::new();
    let mut t = start.0 as f64;
    let end = start.0 + horizon;
    loop {
        // Exponential inter-arrival via inverse CDF; clamp u away from 0.
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() * mean_gap;
        if t as u64 > end {
            break;
        }
        let i = rng.random_range(0..pool.len());
        member[i] = !member[i];
        script = if member[i] {
            script.join(Time(t as u64), pool[i], ch)
        } else {
            script.leave(Time(t as u64), pool[i], ch)
        };
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmd, ScriptAction};
    use rand::SeedableRng;

    fn pool(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn churn_alternates_join_leave_per_node() {
        let p = pool(4);
        let ch = Channel::primary(NodeId(9));
        let script = churn_schedule(&p, ch, 10.0, Time(0), 10_000, &mut rng(6));
        assert!(!script.is_empty());
        let mut member = std::collections::HashSet::new();
        for &(_, action) in script.entries() {
            match action {
                ScriptAction::Command(n, Cmd::Join(c)) if c == ch => {
                    assert!(member.insert(n), "joined while member")
                }
                ScriptAction::Command(n, Cmd::Leave(c)) if c == ch => {
                    assert!(member.remove(&n), "left while not member")
                }
                other => panic!("not a join or leave on {ch:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn churn_is_time_ordered_and_bounded() {
        let p = pool(4);
        let ch = Channel::primary(NodeId(9));
        let script = churn_schedule(&p, ch, 5.0, Time(100), 1000, &mut rng(7));
        let mut prev = Time(0);
        for &(t, _) in script.entries() {
            assert!(t >= prev);
            assert!(t.0 <= 1100);
            prev = t;
        }
    }
}
