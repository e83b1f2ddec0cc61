//! Unified membership-workload construction.
//!
//! Before this module, each experiment composed its own membership: the
//! figure sweeps passed group-size/join-window pairs through
//! `scenario::build`, the scale sweeps re-derived the same sampling
//! inline, and anything fancier (multi-channel load, churn storms) was
//! hand-rolled per binary. A [`Workload`] describes the membership
//! pattern once — *who joins what, when* — and [`WorkloadGen::plan`]
//! turns it into a [`WorkloadPlan`]: a receiver set, a primary-channel
//! join schedule, and a [`Script`] of any further actions (extra
//! channels, zap switches), all drawn deterministically from a caller
//! seeded RNG.
//!
//! The paper's §4.1 workload is [`Workload::paper_figure`]; it consumes
//! the RNG in exactly the historical order (receiver sample, then join
//! schedule), so sweeps that migrate to it reproduce their outputs
//! byte for byte. The membership-scale workloads are
//! [`Workload::flash_crowd`] (a join storm inside one tree period),
//! [`Workload::zipf`] (channel popularity following a Zipf law) and
//! [`Workload::zapping`] (IPTV viewers hopping between channels).

use crate::channel::{Channel, GroupAddr};
use crate::script::Script;
use crate::timing::Timing;
use hbh_sim_core::Time;
use hbh_topo::graph::NodeId;
use rand::rngs::StdRng;
use rand::RngExt;

/// Samples `m` distinct receivers uniformly from `pool` (partial
/// Fisher–Yates; order is the sampling order).
///
/// # Panics
/// Panics if `m > pool.len()`.
pub fn sample_receivers(pool: &[NodeId], m: usize, rng: &mut StdRng) -> Vec<NodeId> {
    assert!(
        m <= pool.len(),
        "cannot sample {m} receivers from a pool of {}",
        pool.len()
    );
    let mut pool = pool.to_vec();
    for i in 0..m {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(m);
    pool
}

/// Assigns each receiver a join time uniform in `[start, start + window]`.
pub fn join_schedule(
    receivers: &[NodeId],
    start: Time,
    window: u64,
    rng: &mut StdRng,
) -> Vec<(NodeId, Time)> {
    receivers
        .iter()
        .map(|&r| (r, start + rng.random_range(0..=window)))
        .collect()
}

/// A fully drawn membership schedule, ready to wire into a kernel.
#[derive(Clone, Debug, Default)]
pub struct WorkloadPlan {
    /// Hosts expected to be members of the *primary* channel once the
    /// schedule has fully played out — the set a converged probe should
    /// reach.
    pub receivers: Vec<NodeId>,
    /// Primary-channel join commands `(host, time)`. Empty for fully
    /// script-driven workloads (zapping), whose joins live in `script`.
    pub join_times: Vec<(NodeId, Time)>,
    /// Window over which the initial joins spread (feeds the convergence
    /// horizon).
    pub join_window: u64,
    /// Everything beyond the primary-channel joins: extra channels'
    /// sources and joins, zap switches. Empty for single-channel
    /// join-only workloads.
    pub script: Script,
}

/// Membership-pattern generators: turn a description of *who joins what,
/// when* into a concrete [`WorkloadPlan`] over a host pool.
pub trait WorkloadGen {
    /// Draws the plan. `pool` is the candidate receiver set (the source
    /// host already excluded), `primary` the channel the standard probe
    /// machinery measures, `timing` supplies the period units, and all
    /// randomness comes from `rng` (so equal seeds give equal plans).
    fn plan(
        &self,
        pool: &[NodeId],
        primary: Channel,
        timing: &Timing,
        rng: &mut StdRng,
    ) -> WorkloadPlan;
}

#[derive(Clone, Debug)]
enum Kind {
    PaperFigure {
        group_size: usize,
    },
    FlashCrowd {
        receivers: usize,
        start: Time,
    },
    Zipf {
        receivers: usize,
        channels: u32,
        exponent: f64,
    },
    Zapping {
        viewers: usize,
        channels: u32,
        zaps: usize,
        exponent: f64,
    },
}

/// Zapping dwell between switches, in join periods.
const ZAP_DWELL_PERIODS: u64 = 4;

/// A declarative membership workload; build with the constructors,
/// realize with [`WorkloadGen::plan`].
#[derive(Clone, Debug)]
pub struct Workload {
    kind: Kind,
    /// Initial-join window, in join periods.
    window_periods: u64,
}

impl Workload {
    fn with_kind(kind: Kind) -> Self {
        Workload {
            kind,
            window_periods: 20,
        }
    }

    /// The paper's §4.1 workload: `group_size` receivers sampled
    /// uniformly, joins staggered over `window_periods` join periods.
    /// Consumes the RNG in the historical order (sample, then schedule),
    /// so existing sweeps migrate without changing a byte of output.
    pub fn paper_figure(group_size: usize, window_periods: u64) -> Self {
        let mut w = Workload::with_kind(Kind::PaperFigure { group_size });
        w.window_periods = window_periods;
        w
    }

    /// A flash-crowd storm: `receivers` hosts all join the primary
    /// channel within **one tree period** of `start` — the membership
    /// regime the ROADMAP's 10⁶-receiver milestone targets.
    pub fn flash_crowd(receivers: usize, start: Time) -> Self {
        Workload::with_kind(Kind::FlashCrowd { receivers, start })
    }

    /// Zipf channel popularity: `receivers` hosts each join exactly one
    /// of `channels` channels, channel rank `k` drawn with probability
    /// ∝ `1/k^exponent` (rank 1 is the primary channel). Joins stagger
    /// over the window.
    pub fn zipf(receivers: usize, channels: u32, exponent: f64) -> Self {
        assert!(channels >= 1 && exponent > 0.0);
        Workload::with_kind(Kind::Zipf {
            receivers,
            channels,
            exponent,
        })
    }

    /// IPTV zapping: `viewers` hosts tune into a Zipf-popular channel,
    /// then switch (`leave` + `join`) to a different channel `zaps`
    /// times, dwelling four join periods between switches. Requires at
    /// least two channels to switch between.
    pub fn zapping(viewers: usize, channels: u32, zaps: usize) -> Self {
        assert!(channels >= 2, "zapping needs at least two channels");
        Workload::with_kind(Kind::Zapping {
            viewers,
            channels,
            zaps,
            exponent: 1.0,
        })
    }
}

/// The `k`-th channel (1-based rank) of `primary`'s source. Rank 1 *is*
/// the primary channel.
fn ranked_channel(primary: Channel, rank: u32) -> Channel {
    if rank == 1 {
        primary
    } else {
        Channel::new(primary.source, GroupAddr(primary.group.0 + rank - 1))
    }
}

/// Cumulative Zipf distribution over ranks `1..=n` with the given
/// exponent (normalized; last entry is exactly 1.0).
fn zipf_cdf(n: u32, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-exponent);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Draws a 1-based rank from the cumulative distribution.
fn zipf_draw(cdf: &[f64], rng: &mut StdRng) -> u32 {
    let u: f64 = rng.random();
    (cdf.partition_point(|&c| c < u) as u32 + 1).min(cdf.len() as u32)
}

impl WorkloadGen for Workload {
    fn plan(
        &self,
        pool: &[NodeId],
        primary: Channel,
        timing: &Timing,
        rng: &mut StdRng,
    ) -> WorkloadPlan {
        match self.kind {
            Kind::PaperFigure { group_size } => {
                let receivers = sample_receivers(pool, group_size, rng);
                let join_window = self.window_periods * timing.tree_period;
                let join_times = join_schedule(&receivers, Time(0), join_window, rng);
                WorkloadPlan {
                    receivers,
                    join_times,
                    join_window,
                    script: Script::new(),
                }
            }
            Kind::FlashCrowd { receivers, start } => {
                let sampled = sample_receivers(pool, receivers, rng);
                let join_window = timing.tree_period;
                let join_times = join_schedule(&sampled, start, join_window, rng);
                WorkloadPlan {
                    receivers: sampled,
                    join_times,
                    join_window,
                    script: Script::new(),
                }
            }
            Kind::Zipf {
                receivers,
                channels,
                exponent,
            } => {
                let sampled = sample_receivers(pool, receivers, rng);
                let cdf = zipf_cdf(channels, exponent);
                let join_window = self.window_periods * timing.tree_period;
                let mut primary_joins = Vec::new();
                let mut primary_members = Vec::new();
                let mut script = Script::new();
                let mut used = vec![false; channels as usize];
                let picks: Vec<(NodeId, u32, Time)> = sampled
                    .iter()
                    .map(|&h| {
                        let rank = zipf_draw(&cdf, rng);
                        let at = Time(rng.random_range(0..=join_window));
                        (h, rank, at)
                    })
                    .collect();
                for &(_, rank, _) in &picks {
                    used[(rank - 1) as usize] = true;
                }
                // Non-primary channels start their sources up front (the
                // primary's source is wired by the kernel builder).
                for rank in 2..=channels {
                    if used[(rank - 1) as usize] {
                        script = script.start_source(Time(0), ranked_channel(primary, rank));
                    }
                }
                for (h, rank, at) in picks {
                    if rank == 1 {
                        primary_members.push(h);
                        primary_joins.push((h, at));
                    } else {
                        script = script.join(at, h, ranked_channel(primary, rank));
                    }
                }
                WorkloadPlan {
                    receivers: primary_members,
                    join_times: primary_joins,
                    join_window,
                    script,
                }
            }
            Kind::Zapping {
                viewers,
                channels,
                zaps,
                exponent,
            } => {
                let sampled = sample_receivers(pool, viewers, rng);
                let cdf = zipf_cdf(channels, exponent);
                let join_window = self.window_periods * timing.tree_period;
                let dwell = ZAP_DWELL_PERIODS * timing.tree_period;
                let mut script = Script::new();
                // Every channel may be visited; start all sources.
                for rank in 2..=channels {
                    script = script.start_source(Time(0), ranked_channel(primary, rank));
                }
                let mut final_primary = Vec::new();
                let mut last_action = 0u64;
                for &h in &sampled {
                    let mut rank = zipf_draw(&cdf, rng);
                    let mut t = rng.random_range(0..=join_window);
                    script = script.join(Time(t), h, ranked_channel(primary, rank));
                    for _ in 0..zaps {
                        let mut next = zipf_draw(&cdf, rng);
                        while next == rank {
                            next = zipf_draw(&cdf, rng);
                        }
                        t += dwell;
                        script = script.leave(Time(t), h, ranked_channel(primary, rank));
                        script = script.join(Time(t), h, ranked_channel(primary, next));
                        rank = next;
                    }
                    last_action = last_action.max(t);
                    if rank == 1 {
                        final_primary.push(h);
                    }
                }
                WorkloadPlan {
                    receivers: final_primary,
                    join_times: Vec::new(),
                    join_window: last_action,
                    script,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Cmd;
    use rand::SeedableRng;

    fn pool(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn primary() -> Channel {
        Channel::primary(NodeId(99))
    }

    #[test]
    fn sample_is_distinct_and_from_pool() {
        let p = pool(20);
        let s = sample_receivers(&p, 8, &mut rng(1));
        assert_eq!(s.len(), 8);
        let mut sorted = s.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "duplicates in sample");
        assert!(s.iter().all(|r| p.contains(r)));
    }

    #[test]
    fn sample_full_pool_is_permutation() {
        let p = pool(5);
        let mut s = sample_receivers(&p, 5, &mut rng(2));
        s.sort();
        assert_eq!(s, p);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Each of 10 hosts should appear ~500 times over 1000 draws of 5.
        let p = pool(10);
        let mut counts = [0u32; 10];
        let mut r = rng(4);
        for _ in 0..1000 {
            for n in sample_receivers(&p, 5, &mut r) {
                counts[n.0 as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((400..=600).contains(&c), "host {i} drawn {c} times");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_rejected() {
        sample_receivers(&pool(3), 4, &mut rng(0));
    }

    #[test]
    fn join_schedule_within_window() {
        let p = pool(10);
        let sched = join_schedule(&p, Time(50), 200, &mut rng(5));
        assert_eq!(sched.len(), 10);
        for &(_, t) in &sched {
            assert!(t >= Time(50) && t <= Time(250));
        }
    }

    #[test]
    fn paper_figure_matches_historical_rng_order() {
        // The migration guarantee: the workload draws exactly what the
        // historical sample-then-schedule sequence drew.
        let p = pool(30);
        let t = Timing::default();
        let plan = Workload::paper_figure(8, 20).plan(&p, primary(), &t, &mut rng(7));
        let mut reference = rng(7);
        let receivers = sample_receivers(&p, 8, &mut reference);
        let join_times = join_schedule(&receivers, Time(0), 20 * t.tree_period, &mut reference);
        assert_eq!(plan.receivers, receivers);
        assert_eq!(plan.join_times, join_times);
        assert_eq!(plan.join_window, 20 * t.tree_period);
        assert!(plan.script.is_empty());
    }

    #[test]
    fn flash_crowd_fits_inside_one_tree_period() {
        let p = pool(500);
        let t = Timing::default();
        let plan = Workload::flash_crowd(400, Time(1000)).plan(&p, primary(), &t, &mut rng(3));
        assert_eq!(plan.receivers.len(), 400);
        assert_eq!(plan.join_window, t.tree_period);
        for &(_, at) in &plan.join_times {
            assert!(at >= Time(1000) && at <= Time(1000 + t.tree_period));
        }
        assert!(plan.script.is_empty());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_scripts_other_channels() {
        let p = pool(400);
        let t = Timing::default();
        let plan = Workload::zipf(300, 10, 1.2).plan(&p, primary(), &t, &mut rng(11));
        let scripted_joins = plan
            .script
            .entries()
            .iter()
            .filter(|(_, a)| matches!(a, crate::script::ScriptAction::Command(_, Cmd::Join(_))))
            .count();
        assert_eq!(plan.receivers.len() + scripted_joins, 300);
        assert!(
            plan.receivers.len() > 300 / 10,
            "rank 1 must be the most popular channel ({} members)",
            plan.receivers.len()
        );
        assert_eq!(plan.receivers.len(), plan.join_times.len());
    }

    #[test]
    fn zapping_tracks_final_channel_membership() {
        let p = pool(100);
        let t = Timing::default();
        let plan = Workload::zapping(40, 5, 3).plan(&p, primary(), &t, &mut rng(13));
        assert!(plan.join_times.is_empty(), "zapping is fully script-driven");
        // Replay the script: the receivers field must equal the set of
        // viewers whose last action joined the primary channel.
        let mut member = std::collections::BTreeMap::new();
        for &(at, action) in plan.script.sorted_entries().iter() {
            if let crate::script::ScriptAction::Command(n, Cmd::Join(ch)) = action {
                member.insert(n, (at, ch));
            }
        }
        let mut on_primary: Vec<NodeId> = member
            .iter()
            .filter(|(_, &(_, ch))| ch == primary())
            .map(|(&n, _)| n)
            .collect();
        on_primary.sort();
        let mut got = plan.receivers.clone();
        got.sort();
        assert_eq!(got, on_primary);
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let p = pool(200);
        let t = Timing::default();
        for w in [
            Workload::paper_figure(12, 20),
            Workload::flash_crowd(50, Time(0)),
            Workload::zipf(60, 6, 1.0),
            Workload::zapping(30, 4, 2),
        ] {
            let a = w.clone().plan(&p, primary(), &t, &mut rng(42));
            let b = w.plan(&p, primary(), &t, &mut rng(42));
            assert_eq!(a.receivers, b.receivers);
            assert_eq!(a.join_times, b.join_times);
            assert_eq!(a.script.entries(), b.script.entries());
        }
    }
}
