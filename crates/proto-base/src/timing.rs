//! Protocol timing parameters: one refresh period and one lifetime.
//!
//! The paper describes the timer *structure* (periodic joins from
//! receivers, periodic trees from the source, per-entry t1/t2) but — as is
//! usual for NS studies — does not publish the constants. Two numbers set
//! them all:
//!
//! * `tree_period` — every periodic message refreshes on it: the source's
//!   `tree`s and the receivers' `join`s alike. The largest one-way path in
//!   any experiment is well under 100 time units (≤ ~10 hops × cost ≤ 10),
//!   so the default of 100 keeps every refresh round-trip inside one
//!   period;
//! * `t2` — an entry's lifetime from its last refresh. Its stale timer is
//!   derived, `t1 = t2 / 2`: the paper's two-stage decay, stale long
//!   enough for reconfiguration to happen (Figure 2's walk-through), then
//!   gone. The default `t2 = 520` puts `t1` at 2.6 periods, which
//!   tolerates two lost or interleaved refresh rounds (the 0.6 slack keeps
//!   a refresh that lands exactly on a period boundary from racing its own
//!   expiry).
//!
//! The steady-state *tree shapes* the paper measures are insensitive to
//! these constants (they only change how fast convergence happens); the
//! timer-sensitivity ablation (`DESIGN.md` A3) scales `t2` explicitly.

/// Timer and period configuration shared by all protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Period between two periodic refreshes: the source's `tree`s and
    /// every receiver's `join`s.
    pub tree_period: u64,
    /// Entry destruction timeout (from last refresh).
    pub t2: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            tree_period: 100,
            t2: 520,
        }
    }
}

impl Timing {
    /// Entry staleness timeout (from last refresh): half the lifetime.
    pub fn t1(&self) -> u64 {
        self.t2 / 2
    }

    /// How long an experiment should run for a group of `n` receivers to
    /// be safely converged: every receiver has joined, fusions have
    /// propagated, superseded entries have died (one full t2), plus slack.
    ///
    /// Convergence is *verified* by the experiment runner (quiescence of
    /// structural changes), this is only the horizon it waits within.
    pub fn convergence_horizon(&self, join_window: u64) -> u64 {
        join_window + 4 * self.t2 + 10 * self.tree_period
    }

    /// How long after a disturbance (a failure, the end of a join window)
    /// a run waits for every receiver to be served again: long enough for
    /// orphaned branches to decay and re-grow over a few t2 rounds.
    pub fn repair_deadline(&self) -> u64 {
        8 * self.t2 + 8 * self.tree_period
    }

    /// Sanity-checks the invariants the protocols rely on.
    pub fn validate(&self) {
        assert!(self.tree_period > 0, "periods must be positive");
        assert!(
            self.t1() > self.tree_period,
            "t1 must exceed the refresh period or entries flap"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Timing::default().validate();
    }

    #[test]
    fn defaults_have_paper_structure() {
        let t = Timing::default();
        assert!(t.t1() > 2 * t.tree_period, "survives two lost refreshes");
        assert_eq!(t.t2, 2 * t.t1());
    }

    #[test]
    #[should_panic(expected = "t1 must exceed")]
    fn flappy_t1_rejected() {
        Timing {
            tree_period: 100,
            t2: 100,
        }
        .validate();
    }

    #[test]
    fn horizon_covers_join_window_and_decay() {
        let t = Timing::default();
        let h = t.convergence_horizon(500);
        assert!(h >= 500 + 4 * t.t2);
    }
}
