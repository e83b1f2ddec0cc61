//! Generic experiment runner: build a kernel, converge (verified), inject
//! a tagged probe, read the paper's metrics off the accounting — plus
//! [`RunConfig`], the one bundle of run knobs every experiment shares.

use crate::protocols::ProtocolKind;
use crate::report::Args;
use crate::scenario::{draw, Draw, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::NodeId;
use std::collections::BTreeMap;

/// The run knobs every experiment shares — topology, run count, base
/// seed, timing, protocol set, worker count — held once: every figure is
/// `evaluate(&RunConfig, <its own sweep arguments>)`, and every `hbh-exp`
/// row builds it from argv with [`RunConfig::from_args`], so a bad value is
/// the same usage error everywhere:
///
/// ```no_run
/// use hbh_experiments::report::Args;
/// use hbh_experiments::runner::RunConfig;
///
/// let args = Args::parse(&["topo", "runs", "seed", "threads"]);
/// let run = RunConfig::from_args(&args, 100);
/// ```
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Topology family scenarios are drawn from.
    pub topo: TopologyKind,
    /// Independent scenario draws per figure point.
    pub runs: usize,
    /// Base of the per-run seed stream (see `figures::eval::run_seed`).
    pub base_seed: u64,
    /// Protocol timer configuration.
    pub timing: Timing,
    /// Protocols under test, in legend order.
    pub protocols: Vec<ProtocolKind>,
    /// Threads a sweep spreads its draws over. Outcomes come back in draw
    /// order whatever the count, so no report depends on it.
    pub workers: usize,
}

impl Default for RunConfig {
    /// The paper's setup: ISP topology, seed 1, all four protocols — at
    /// 100 runs, on every available core.
    fn default() -> Self {
        RunConfig {
            topo: TopologyKind::Isp,
            runs: 100,
            base_seed: 1,
            timing: Timing::default(),
            protocols: ProtocolKind::ALL.to_vec(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl RunConfig {
    /// Reads `--topo --runs --seed --threads` from parsed argv — whichever
    /// of them the row allows — with `default_runs` as the `--runs`
    /// fallback. An unknown topology, an unparsable number, `--runs 0` or
    /// `--threads 0` is a usage error (exit 2), never a panic.
    pub fn from_args(args: &Args, default_runs: usize) -> Self {
        let topo = args.get("topo").unwrap_or("isp");
        let topo = TopologyKind::parse(topo).unwrap_or_else(|| {
            args.die(&format!(
                "--topo must be isp, rand50 or waxman30, got {topo}"
            ))
        });
        let runs = args.get_parse("runs", default_runs);
        if runs == 0 {
            args.die("--runs must be at least 1");
        }
        let default = RunConfig::default();
        let workers = args.get_parse("threads", default.workers);
        if workers == 0 {
            args.die("--threads must be at least 1");
        }
        RunConfig {
            topo,
            runs,
            base_seed: args.get_parse("seed", 1),
            workers,
            ..default
        }
    }

    /// Sets the number of independent runs.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the protocol list.
    pub fn protocols(mut self, protocols: Vec<ProtocolKind>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Draw `seed` of the paper's scenario at `group_size` receivers, on
    /// this run's topology and timing.
    pub fn draw(&self, group_size: usize, seed: u64) -> Scenario {
        self.unrouted(group_size, seed).routed(Network::new)
    }

    /// [`RunConfig::draw`] before its routes are computed.
    pub fn unrouted(&self, group_size: usize, seed: u64) -> Draw {
        let opts = ScenarioOptions::default();
        draw(self.topo, group_size, seed, &self.timing, &opts)
    }

    /// How a figure titles itself: `what — isp topology, 8 receivers, 100
    /// runs`, the receivers only where the figure fixes a `group_size`.
    pub fn title(&self, what: &str, group_size: Option<usize>) -> String {
        let group = group_size.map_or(String::new(), |g| format!(", {g} receivers"));
        let (topo, runs) = (self.topo.name(), self.runs);
        format!("{what} — {topo} topology{group}, {runs} runs")
    }
}

/// Result of one converged probe.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeOutcome {
    /// Tree cost: data copies transmitted across links for one packet.
    pub cost: u64,
    /// Per-receiver delay (time units).
    pub delays: BTreeMap<NodeId, u64>,
    /// Receivers that should have been served.
    pub expected: usize,
    /// `true` if structural changes quiesced before the probe.
    pub converged: bool,
    /// Simulated time of the last structural change before the probe
    /// (convergence time).
    pub converged_at: u64,
    /// Structural changes observed since kernel start (stability metric).
    pub structural_changes: u64,
    /// Control-plane link transmissions since kernel start.
    pub control_copies: u64,
    /// Kernel drops (should be 0 in steady state).
    pub drops: u64,
    /// Scheduler events dispatched over the whole run (throughput metric
    /// for the bench harness).
    pub events: u64,
}

impl ProbeOutcome {
    /// Did every expected receiver get exactly one copy?
    pub fn complete(&self) -> bool {
        self.delays.len() == self.expected
    }

    /// Mean receiver delay (the Figure 8 metric).
    pub fn avg_delay(&self) -> f64 {
        if self.delays.is_empty() {
            return 0.0;
        }
        self.delays.values().sum::<u64>() as f64 / self.delays.len() as f64
    }
}

/// Builds a kernel for `scenario`, wiring the source and all joins. The
/// kernel runs over the scenario's shared [`Network`] — an `Arc` bump, so
/// the four kernels of a paired comparison reuse one routing computation.
pub fn build_kernel<P: Protocol<Command = Cmd>>(
    proto: P,
    scenario: &Scenario,
) -> (Kernel<P>, Channel) {
    let mut k = Kernel::new(scenario.network().clone(), proto, scenario.seed);
    let ch = Channel::primary(scenario.source);
    k.command_at(scenario.source, Cmd::StartSource(ch), Time::ZERO);
    for &(r, t) in &scenario.join_times {
        k.command_at(r, Cmd::Join(ch), t);
    }
    scenario.script.schedule(&mut k);
    (k, ch)
}

/// The window a converged run repeats: two tree periods, because PIM's
/// join suppression makes its refreshes repeat every two
/// (`tests/tests/control_periodicity.rs`); every other arm repeats every
/// one, so every two as well.
fn steady_window(timing: &Timing) -> u64 {
    2 * timing.tree_period
}

/// Runs to the convergence horizon, then extends in `2·t2` windows until
/// structural changes quiesce (bounded retries). Returns `true` if
/// quiescence was reached.
///
/// Both stretches run through [`Kernel::fast_forward`] over two tree
/// periods: once a converged tree repeats its refreshes window for window,
/// the repeats are skipped, and the kernel ends each stretch exactly as
/// plain `run_until` would have.
pub fn converge<P: Protocol<Command = Cmd>>(
    k: &mut Kernel<P>,
    timing: &Timing,
    join_window: u64,
) -> bool {
    let window = steady_window(timing);
    k.fast_forward(Time(timing.convergence_horizon(join_window)), window);
    for _ in 0..8 {
        let before = k.stats().structural_changes;
        let until = k.now() + 2 * timing.t2;
        k.fast_forward(until, window);
        if k.stats().structural_changes == before {
            return true;
        }
    }
    false
}

/// Steady-state control transmissions per tree period, measured over the
/// next `periods` of them — through [`Kernel::fast_forward`], which counts
/// a skipped window's control copies as if it had sent them.
pub fn control_per_period<P: Protocol<Command = Cmd>>(
    k: &mut Kernel<P>,
    timing: &Timing,
    periods: u64,
) -> f64 {
    let (c0, t0) = (k.stats().control_copies(), k.now());
    k.fast_forward(t0 + periods * timing.tree_period, steady_window(timing));
    (k.stats().control_copies() - c0) as f64 / periods as f64
}

/// How long to let a probe propagate before reading deliveries.
///
/// Invariant: the window must dominate the longest delivery path any
/// protocol can take. Recursive-unicast delivery (REUNITE/HBH before the
/// tree settles) can relay a probe through every node, and each hop costs
/// at most the topology's largest link cost — so `nodes × 2 × worst hop`
/// bounds even a pathological there-and-back traversal, plus fixed slack
/// for host access links and staged retransmissions. Derived from the
/// graph's actual costs: the paper's `[1, 10]` draw gives the historical
/// `n · 20 + 200`, and topologies with other cost ranges stay covered
/// instead of silently truncating deliveries.
pub fn probe_window(net: &Network) -> u64 {
    let worst_hop = u64::from(net.graph().max_link_cost().max(1));
    net.node_count() as u64 * 2 * worst_hop + 200
}

/// Injects a tagged data packet and returns each receiver's *first*
/// delivery delay plus the count of duplicate deliveries. Steady-state
/// trees never duplicate (that is what [`run_probe`] asserts), but a tree
/// *mid-repair* legitimately can — e.g. REUNITE
/// re-joining through a new branching node while stale state still
/// forwards — which is precisely what the churn experiment measures.
pub fn probe_tolerant<P: Protocol<Command = Cmd>>(
    k: &mut Kernel<P>,
    ch: Channel,
    tag: u64,
    window: u64,
) -> (BTreeMap<NodeId, u64>, u64) {
    let at = k.now();
    k.command_at(ch.source, Cmd::SendData { ch, tag }, at);
    let deadline = at + window;
    // The window bounds the *worst-case* propagation; the wave itself dies
    // out far sooner. Once the injected packet has fanned out and no
    // data-class arrival remains scheduled, no further copy, delivery or
    // data drop can happen (forwarding is strictly arrival-driven), so the
    // remaining window would simulate nothing but steady-state control
    // refreshes — skip it. Identical cost/delay results, a fraction of the
    // events.
    let mut wave_started = false;
    while let Some(t) = k.peek_next() {
        if t > deadline {
            break;
        }
        k.step();
        if k.pending_data_arrivals() > 0 {
            wave_started = true;
        } else if wave_started {
            break;
        }
    }
    let mut delays = BTreeMap::new();
    let mut duplicates = 0u64;
    for d in k.stats().deliveries_tagged(tag) {
        match delays.entry(d.node) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(d.delay());
            }
            std::collections::btree_map::Entry::Occupied(_) => duplicates += 1,
        }
    }
    (delays, duplicates)
}

/// The standard experiment on a built kernel: converge, then probe once.
/// `protocols::run_protocol` dispatches it to any [`ProtocolKind`].
pub fn run_probe<P: Protocol<Command = Cmd>>(
    mut k: Kernel<P>,
    ch: Channel,
    scenario: &Scenario,
    timing: &Timing,
) -> ProbeOutcome {
    let converged = converge(&mut k, timing, scenario.join_window);
    let control_copies = k.stats().control_copies();
    let structural_changes = k.stats().structural_changes;
    let converged_at = k.stats().last_structural_change.0;
    let window = probe_window(k.network());
    let (delays, duplicates) = probe_tolerant(&mut k, ch, 1, window);
    assert!(
        duplicates == 0,
        "duplicate delivery of the probe ({duplicates} extra copies)"
    );
    ProbeOutcome {
        cost: k.stats().data_copies_tagged(1),
        delays,
        expected: scenario.receivers.len(),
        converged,
        converged_at,
        structural_changes,
        control_copies,
        drops: k.stats().drops,
        events: k.stats().events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::run_protocol;
    use crate::scenario::{build, ScenarioOptions, TopologyKind};

    fn outcome(seed: u64) -> ProbeOutcome {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            6,
            seed,
            &timing,
            &ScenarioOptions::default(),
        );
        run_protocol(ProtocolKind::Hbh, &sc, &timing)
    }

    #[test]
    fn hbh_probe_on_isp_is_complete_and_converged() {
        let o = outcome(3);
        assert!(o.converged);
        assert!(o.complete(), "served {}/{}", o.delays.len(), o.expected);
        assert!(o.cost > 0);
        assert_eq!(o.drops, 0);
    }

    #[test]
    fn probe_is_deterministic() {
        assert_eq!(outcome(4), outcome(4));
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (outcome(1), outcome(2));
        assert!(a.cost != b.cost || a.delays != b.delays);
    }

    #[test]
    fn probe_window_derives_from_actual_max_cost() {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            4,
            1,
            &timing,
            &ScenarioOptions::default(),
        );
        let net = sc.network();
        let max = u64::from(net.graph().max_link_cost());
        assert!((1..=10).contains(&max), "paper draws costs from [1, 10]");
        assert_eq!(probe_window(net), net.node_count() as u64 * 2 * max + 200);
        // With the paper's cost draw the bound never exceeds the historical
        // fixed-constant window (n · 20 + 200), so horizons only tighten.
        assert!(probe_window(net) <= net.node_count() as u64 * 20 + 200);
    }

    #[test]
    fn avg_delay_reflects_receivers() {
        let o = outcome(5);
        let lo = *o.delays.values().min().unwrap() as f64;
        let hi = *o.delays.values().max().unwrap() as f64;
        assert!(o.avg_delay() >= lo && o.avg_delay() <= hi);
    }
}
