//! The one experiment every workload runs, so every workload reports
//! every metric: build the kernel, converge over the membership
//! schedule, probe once per tree period until every expected receiver is
//! served (or the deadline passes), read the accounting out.
//!
//! Built only from public pieces (`runner::build_kernel`,
//! `runner::converge`, `probe_tolerant`, `Kernel::stats`); with a first
//! probe that serves everyone it is step for step
//! `protocols::run_protocol`, which `tests/equivalence.rs` pins.

use crate::timed::{HandlerStats, Kind, Timed};
use crate::trace::Tracer;
use hbh_experiments::protocols::pick_rp;
use hbh_experiments::runner::{build_kernel, converge, probe_tolerant, probe_window};
use hbh_experiments::{ProtocolKind, Scenario};
use hbh_pim::messages::{PimMsg, PimTimer};
use hbh_pim::Pim;
use hbh_proto::{Hbh, HbhHard, HbhMsg, HbhTimer};
use hbh_proto_base::{Cmd, StateInventory, Timing};
use hbh_reunite::messages::{ReuniteMsg, ReuniteTimer};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Protocol};
use hbh_topo::graph::NodeId;
use std::collections::BTreeMap;

/// What one arm measured on one scenario draw. Everything except
/// `handlers` is simulated, hence exactly repeatable.
#[derive(Clone, Debug)]
pub struct ArmOutcome {
    /// Receivers the schedule leaves on the primary channel.
    pub expected: usize,
    /// Of those, how many the final probe reached exactly once.
    pub served_once: usize,
    /// Structural changes quiesced before the first probe.
    pub converged: bool,
    /// Data copies of the final probe (paper Fig. 7).
    pub cost: u64,
    /// First-delivery delay of the final probe per served receiver
    /// (paper Fig. 8).
    pub delays: BTreeMap<NodeId, u64>,
    /// Control copies when convergence ended — what
    /// `ProbeOutcome::control_copies` reports.
    pub control_at_probe: u64,
    /// Control copies over the whole run.
    pub control_copies: u64,
    /// Kernel events dispatched over the whole run.
    pub events: u64,
    /// Simulated time from the end of the membership schedule until the
    /// tree stood: the last structural change when the first probe
    /// already served everyone, else the first probe that did (else the
    /// deadline).
    pub settle: u64,
    /// `2·t2` quiescence windows `converge` ran past its horizon.
    pub converge_rounds: u64,
    /// Largest per-router state for the primary channel, bytes.
    pub state_max_b: usize,
    /// Live timers when the run ended.
    pub pending_timers: usize,
    /// Handler and kernel-op clocks (traced pass only).
    pub handlers: Option<HandlerStats>,
}

impl ArmOutcome {
    /// Receivers counted as failed: everyone when the arm never
    /// converged, else those not served exactly once.
    pub fn failed(&self) -> usize {
        if self.converged {
            self.expected - self.served_once
        } else {
            self.expected
        }
    }

    /// Mean receiver delay of the final probe.
    pub fn mean_delay(&self) -> f64 {
        self.delays.values().sum::<u64>() as f64 / self.delays.len().max(1) as f64
    }
}

/// Metric-name prefix of each arm.
pub fn arm_label(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::PimSm => "pim.sm",
        ProtocolKind::PimSs => "pim.ss",
        ProtocolKind::Reunite => "reunite",
        ProtocolKind::Hbh => "hbh.soft",
        ProtocolKind::HbhHard => "hbh.hard",
        ProtocolKind::HbhAgg => "hbh.agg",
    }
}

/// Every arm label, in report order.
pub const ARM_LABELS: [&str; 6] = [
    "pim.sm", "pim.ss", "reunite", "hbh.soft", "hbh.hard", "hbh.agg",
];

fn hbh_msg_kind(m: &HbhMsg) -> Kind {
    match m {
        HbhMsg::Join { .. } => Kind::Join,
        HbhMsg::Tree { .. } => Kind::Tree,
        HbhMsg::Fusion { .. } => Kind::Fusion,
        HbhMsg::Data { .. } => Kind::Data,
    }
}

fn hbh_timer_kind(t: &HbhTimer) -> Kind {
    match t {
        HbhTimer::JoinRefresh(_) => Kind::TJoin,
        HbhTimer::TreeRefresh(_) => Kind::TTree,
        HbhTimer::Sweep(_) => Kind::TSweep,
        HbhTimer::AggFlush(_) => Kind::TFlush,
    }
}

fn reunite_msg_kind(m: &ReuniteMsg) -> Kind {
    match m {
        ReuniteMsg::Join { .. } => Kind::Join,
        ReuniteMsg::Tree { .. } => Kind::Tree,
        ReuniteMsg::Data { .. } => Kind::Data,
    }
}

fn reunite_timer_kind(t: &ReuniteTimer) -> Kind {
    match t {
        ReuniteTimer::JoinRefresh(_) => Kind::TJoin,
        ReuniteTimer::TreeRefresh(_) => Kind::TTree,
        ReuniteTimer::Sweep(_) => Kind::TSweep,
    }
}

fn pim_msg_kind(m: &PimMsg) -> Kind {
    match m {
        PimMsg::Join { .. } => Kind::Join,
        PimMsg::Data { .. } => Kind::Data,
    }
}

fn pim_timer_kind(t: &PimTimer) -> Kind {
    match t {
        PimTimer::JoinRefresh(_) => Kind::TJoin,
        PimTimer::Sweep(_) => Kind::TSweep,
    }
}

/// Where and how one arm runs.
pub struct ArmRun<'a> {
    pub scenario: &'a Scenario,
    pub timing: &'a Timing,
    /// Wrap the engine in [`Timed`] (the traced pass).
    pub timed: bool,
    /// Receives the spans, traced or not.
    pub tr: &'a mut Tracer,
}

/// Runs the study for `kind`.
pub fn run_arm(kind: ProtocolKind, run: ArmRun<'_>) -> ArmOutcome {
    let t = *run.timing;
    match kind {
        ProtocolKind::Hbh => either(Hbh::new(t), hbh_msg_kind, hbh_timer_kind, run),
        ProtocolKind::HbhAgg => either(Hbh::aggregated(t), hbh_msg_kind, hbh_timer_kind, run),
        // The hard engine's sequenced control messages have no soft-HBH
        // analogue worth a by-kind split; only its arm totals are reported.
        ProtocolKind::HbhHard => either(HbhHard::new(t), |_| Kind::Other, |_| Kind::Other, run),
        ProtocolKind::Reunite => either(Reunite::new(t), reunite_msg_kind, reunite_timer_kind, run),
        ProtocolKind::PimSs => either(Pim::source_specific(t), pim_msg_kind, pim_timer_kind, run),
        ProtocolKind::PimSm => {
            // RP placement scans the scenario's routes: part of this
            // arm's kernel build as far as the time split is concerned.
            let rp = run.tr.span("kernel_build", |_| pick_rp(run.scenario));
            either(Pim::sparse_shared(rp, t), pim_msg_kind, pim_timer_kind, run)
        }
    }
}

fn either<P>(
    proto: P,
    msg_kind: fn(&P::Msg) -> Kind,
    timer_kind: fn(&P::Timer) -> Kind,
    run: ArmRun<'_>,
) -> ArmOutcome
where
    P: Protocol<Command = Cmd>,
    P::NodeState: StateInventory,
{
    if run.timed {
        let wrapped = Timed::new(proto, msg_kind, timer_kind);
        study(wrapped, run, |t| Some(t.stats()))
    } else {
        study(proto, run, |_| None)
    }
}

/// The study proper, generic over the engine (bare or [`Timed`]).
pub fn study<P>(
    proto: P,
    run: ArmRun<'_>,
    handlers_of: impl FnOnce(&P) -> Option<HandlerStats>,
) -> ArmOutcome
where
    P: Protocol<Command = Cmd>,
    P::NodeState: StateInventory,
{
    let ArmRun {
        scenario,
        timing,
        tr,
        ..
    } = run;
    let (mut k, ch) = tr.span("kernel_build", |_| build_kernel(proto, scenario));

    // Script-driven workloads (zapping) stretch past the join window;
    // converge over whichever is longer.
    let schedule_end = scenario.join_window.max(scenario.script.duration().0);
    let converged = tr.span("converge", |_| converge(&mut k, timing, schedule_end));
    let converged_at = k.now();
    let control_at_probe = k.stats().control_copies();

    let expected = scenario.receivers.len();
    let window = probe_window(k.network());
    let deadline = converged_at + 8 * timing.t2 + 8 * timing.tree_period;
    // How often each receiver got the probe tagged `tag`, with the delay
    // of its first copy.
    let deliveries = |k: &Kernel<P>, tag: u64| {
        let mut by_node: BTreeMap<NodeId, (u64, u32)> = BTreeMap::new();
        for d in k.stats().deliveries_tagged(tag) {
            by_node.entry(d.node).or_insert((d.delay(), 0)).1 += 1;
        }
        by_node
    };
    let mut tag = 1;
    let (served_once, full_probe_at) = tr.span("probe", |_| loop {
        let at = k.now();
        probe_tolerant(&mut k, ch, tag, window);
        let got = deliveries(&k, tag);
        let served_once = scenario
            .receivers
            .iter()
            .filter(|r| got.get(r).is_some_and(|&(_, copies)| copies == 1))
            .count();
        if served_once == expected {
            break (served_once, Some(at));
        }
        if k.now() > deadline {
            break (served_once, None);
        }
        tag += 1;
        let next = k.now() + timing.tree_period;
        k.run_until(next);
    });

    tr.span("readout", |_| {
        let stats = k.stats();
        let stood_at = match full_probe_at {
            Some(at) if at == converged_at => stats.last_structural_change.0,
            Some(at) => at.0,
            None => k.now().0,
        };
        let got = deliveries(&k, tag);
        let g = k.network().graph();
        ArmOutcome {
            expected,
            served_once,
            converged,
            cost: stats.data_copies_tagged(tag),
            delays: scenario
                .receivers
                .iter()
                .filter_map(|r| got.get(r).map(|&(delay, _)| (*r, delay)))
                .collect(),
            control_at_probe,
            control_copies: stats.control_copies(),
            events: stats.events,
            settle: stood_at.saturating_sub(schedule_end),
            converge_rounds: (converged_at.0 - timing.convergence_horizon(schedule_end))
                / (2 * timing.t2),
            state_max_b: g
                .routers()
                .map(|r| k.state(r).state_bytes(ch))
                .max()
                .unwrap_or(0),
            pending_timers: k.pending_timer_count(),
            handlers: handlers_of(k.protocol()),
        }
    })
}
