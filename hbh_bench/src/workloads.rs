//! The six workloads: what each one builds (through the crates' public
//! scenario builders only) and one measured pass over it.
//!
//! A pass is: build the frozen template topology, then for every draw
//! build the scenario (`setup_s`) and run the study for every arm on it
//! (`wall_s`). Sizes are fixed here; why each workload exists, and how
//! its size was chosen, is in `README.md` and `BENCHMARK.json`.

use crate::study::{arm_label, run_arm, ArmOutcome, ArmRun};
use crate::timed::HandlerStats;
use crate::trace::Tracer;
use hbh_experiments::figures::eval::run_seed;
use hbh_experiments::membership::{
    build_membership_graph, build_membership_scenario, MembershipConfig,
};
use hbh_experiments::scale::{build_scale_graph, build_scale_scenario, ScaleConfig, SCALE_ARMS};
use hbh_experiments::scenario::{build, ScenarioOptions};
use hbh_experiments::{ProtocolKind, Scenario, TopologyKind};
use hbh_proto_base::{Timing, Workload};
use hbh_routing::RouteStats;
use hbh_sim_core::Time;
use hbh_topo::graph::Graph;
use hbh_topo::hier::TierSpec;
use std::collections::BTreeMap;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 6] = [
    "paper_figs",
    "scale_spf",
    "route_pressure",
    "big_group",
    "zap_churn",
    "host_storm",
];

/// Where a workload's scenarios come from.
pub enum Inputs {
    /// `scenario::build` over the paper's group sizes on both of its
    /// topologies, eager all-pairs tables.
    PaperFigs {
        base_seed: u64,
        /// `(topology, group size, run)` per draw.
        points: Vec<(TopologyKind, usize, usize)>,
    },
    /// `scale::build_scale_scenario`: hierarchy + on-demand routes,
    /// `cfg.runs` draws.
    Scale(ScaleConfig),
    /// `membership::build_membership_scenario` for one `Workload`, one
    /// draw.
    Membership {
        cfg: MembershipConfig,
        workload: Workload,
    },
}

/// Seed of the five hierarchy workloads. Each is a fixed scenario, as the
/// ISP backbone is in the paper: the topology wiring, link costs, source
/// and membership plan come from the public builders at this seed under
/// every `--seed`, which reaches only the kernel's own RNG
/// ([`Spec::scenario`]).
///
/// Why: these workloads are one or two large draws. Where the source sits
/// in the hierarchy moves a draw's work by ±40%; with that fixed, who
/// joins and when still moves `hbh_control_copies` by 6–15% and
/// `hbh_settle_time` by up to 20% over ten seeds, heavy-tailed
/// (`README.md`, "What `--seed` varies") — more than any bound could
/// cover — and a pass cannot afford the hundreds of draws that average it
/// out on `paper_figs`.
const FROZEN_SEED: u64 = 1;

/// Spreads `--seed` over the whole word, so that neighbouring seeds give
/// unrelated draws (`run_seed` only XORs the run number into it).
fn mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One workload, fully sized.
pub struct Spec {
    seed: u64,
    /// The arm the `hbh_*` end-to-end metrics are read from.
    pub headline: ProtocolKind,
    /// Every arm, run in this order on each draw.
    pub arms: Vec<ProtocolKind>,
    pub inputs: Inputs,
    pub timing: Timing,
    /// Seconds one pass took on the box the workloads were sized on. A run
    /// makes `--seconds / pass_s` passes: the repeat count follows from
    /// the flags alone, never from how fast the code under test is.
    pub pass_s: f64,
}

fn tiers(ases: usize, pops_per_as: usize, access_per_pop: usize) -> TierSpec {
    TierSpec {
        ases,
        pops_per_as,
        access_per_pop,
    }
}

fn scale(
    spec: TierSpec,
    hosts: usize,
    group_size: usize,
    runs: usize,
    cache_rows: usize,
) -> Inputs {
    Inputs::Scale(ScaleConfig {
        spec,
        hosts,
        group_size,
        runs,
        base_seed: FROZEN_SEED,
        cache_rows,
        timing: Timing::default(),
        protocols: SCALE_ARMS.to_vec(),
    })
}

fn membership(spec: TierSpec, hosts: usize, cache_rows: usize, workload: Workload) -> Inputs {
    Inputs::Membership {
        cfg: MembershipConfig {
            spec,
            hosts,
            base_seed: FROZEN_SEED,
            cache_rows,
            // The workload is passed to the scenario builder directly; the
            // config's own workload knobs are not read on that path.
            ..MembershipConfig::smoke()
        },
        workload,
    }
}

impl Spec {
    /// The workload called `name` under `seed`. `smoke` shrinks it to a
    /// sub-second pass over the same code path (the untimed warm-up and
    /// the tests use that).
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Spec> {
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        let small_hier = tiers(2, 3, 2);
        let mid_hier = if smoke { small_hier } else { tiers(4, 4, 6) };
        let (headline, arms, inputs, pass_s) = match name {
            "paper_figs" => {
                let mut points = Vec::new();
                for (topo, draws) in [
                    (TopologyKind::Isp, pick(60, 1)),
                    (TopologyKind::Rand50, pick(15, 1)),
                ] {
                    for size in topo.paper_group_sizes() {
                        points.extend((0..draws).map(|run| (topo, size, run)));
                    }
                }
                (
                    ProtocolKind::Hbh,
                    ProtocolKind::ALL.to_vec(),
                    Inputs::PaperFigs {
                        base_seed: mix(seed),
                        points,
                    },
                    2.0,
                )
            }
            "scale_spf" => (
                ProtocolKind::Hbh,
                SCALE_ARMS.to_vec(),
                if smoke {
                    scale(small_hier, 120, 12, 1, 256)
                } else {
                    scale(tiers(16, 8, 20), 50_000, 64, 1, 4096)
                },
                1.1,
            ),
            "route_pressure" => (
                ProtocolKind::Hbh,
                SCALE_ARMS.to_vec(),
                if smoke {
                    scale(small_hier, 120, 12, 1, 16)
                } else {
                    scale(mid_hier, 1_200, 64, 2, 100)
                },
                2.0,
            ),
            "big_group" => (
                ProtocolKind::Hbh,
                ProtocolKind::MEMBERSHIP_ARMS.to_vec(),
                membership(
                    mid_hier,
                    pick(6_000, 240),
                    4096,
                    Workload::flash_crowd(pick(250, 24), Time(0)),
                ),
                2.0,
            ),
            "zap_churn" => (
                ProtocolKind::Hbh,
                ProtocolKind::MEMBERSHIP_ARMS.to_vec(),
                membership(
                    mid_hier,
                    pick(6_000, 240),
                    4096,
                    if smoke {
                        Workload::zapping(24, 4, 2)
                    } else {
                        Workload::zapping(250, 8, 3)
                    },
                ),
                1.6,
            ),
            "host_storm" => (
                ProtocolKind::HbhAgg,
                vec![ProtocolKind::PimSs, ProtocolKind::HbhAgg],
                membership(
                    mid_hier,
                    pick(6_000, 240),
                    8192,
                    Workload::flash_crowd(pick(2_000, 80), Time(0)),
                ),
                0.9,
            ),
            _ => return None,
        };
        Some(Spec {
            seed,
            headline,
            arms,
            inputs,
            timing: Timing::default(),
            pass_s,
        })
    }

    /// Scenario draws per pass.
    pub fn draws(&self) -> usize {
        match &self.inputs {
            Inputs::PaperFigs { points, .. } => points.len(),
            Inputs::Scale(cfg) => cfg.runs,
            Inputs::Membership { .. } => 1,
        }
    }

    /// The frozen topology every draw starts from (the paper topologies
    /// are rebuilt inside `scenario::build`, so they have none).
    pub fn template(&self) -> Option<Graph> {
        match &self.inputs {
            Inputs::PaperFigs { .. } => None,
            Inputs::Scale(cfg) => Some(build_scale_graph(cfg)),
            Inputs::Membership { cfg, .. } => Some(build_membership_graph(cfg)),
        }
    }

    /// Scenario number `draw`, straight from the public builders. The
    /// paper sweep draws everything from `--seed`; a hierarchy scenario is
    /// the builder's own at [`FROZEN_SEED`] and takes only its kernel seed
    /// from `--seed`.
    pub fn scenario(&self, template: Option<&Graph>, draw: usize) -> Scenario {
        let template = || template.expect("hierarchy workloads have a template");
        let mut frozen = match &self.inputs {
            Inputs::PaperFigs { base_seed, points } => {
                let (topo, size, run) = points[draw];
                return build(
                    topo,
                    size,
                    run_seed(*base_seed, size, run),
                    &self.timing,
                    &ScenarioOptions::default(),
                );
            }
            Inputs::Scale(cfg) => build_scale_scenario(cfg, template(), draw),
            Inputs::Membership { cfg, workload } => {
                build_membership_scenario(cfg, template(), workload, draw)
            }
        };
        frozen.seed = mix(self.seed) ^ ((draw as u64) << 40);
        frozen
    }

    /// The membership workload a draw plays, at its full member count
    /// (for the paper sweep: the largest group on draw 0's topology).
    pub fn workload(&self) -> Workload {
        match &self.inputs {
            Inputs::PaperFigs { points, .. } => {
                let on_first = points.iter().filter(|p| p.0 == points[0].0);
                Workload::paper_figure(on_first.map(|p| p.1).max().unwrap_or(1), 20)
            }
            Inputs::Scale(cfg) => Workload::paper_figure(cfg.group_size, 20),
            Inputs::Membership { workload, .. } => workload.clone(),
        }
    }
}

/// Simulated results of one arm, summed over the draws of a pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArmTotals {
    pub draws: u64,
    pub expected: u64,
    pub failed: u64,
    pub cost: u64,
    /// Σ over draws of the mean receiver delay.
    pub delay: f64,
    pub control_copies: u64,
    pub events: u64,
    pub settle: u64,
    pub converge_rounds: u64,
    pub state_max_b: u64,
    pub pending_timers: u64,
}

impl ArmTotals {
    fn add(&mut self, o: &ArmOutcome) {
        self.draws += 1;
        self.expected += o.expected as u64;
        self.failed += o.failed() as u64;
        self.cost += o.cost;
        self.delay += o.mean_delay();
        self.control_copies += o.control_copies;
        self.events += o.events;
        self.settle += o.settle;
        self.converge_rounds += o.converge_rounds;
        self.state_max_b = self.state_max_b.max(o.state_max_b as u64);
        self.pending_timers += o.pending_timers as u64;
    }
}

/// Route-provider counters over the draws of a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouteTotals {
    pub stats: RouteStats,
    /// Most rows resident / bytes pinned in any one draw.
    pub peak_rows: usize,
    pub peak_bytes: usize,
}

/// Everything one pass produced.
pub struct Pass {
    pub tracer: Tracer,
    /// Simulated totals per arm label — exactly repeatable, compared
    /// across passes.
    pub sim: BTreeMap<&'static str, ArmTotals>,
    pub routes: RouteTotals,
    /// Handler clocks per arm label (traced pass only).
    pub handlers: BTreeMap<&'static str, HandlerStats>,
    /// Commands the scenarios scheduled (joins + script entries).
    pub script_actions: u64,
    /// Draw 0's costed graph, for the direct probes (traced pass only).
    pub probe_graph: Option<Graph>,
}

impl Pass {
    /// Template build plus every scenario build.
    pub fn setup_s(&self) -> f64 {
        self.tracer.secs("topo.template") + self.tracer.secs("scenario_build")
    }

    /// Simulation time over all draws and arms.
    pub fn wall_s(&self) -> f64 {
        self.tracer.secs("sim")
    }

    pub fn attempted(&self) -> u64 {
        self.sim.values().map(|a| a.expected).sum()
    }

    pub fn failed(&self) -> u64 {
        self.sim.values().map(|a| a.failed).sum()
    }
}

/// Runs one pass of `spec`; `traced` wraps the engines in `Timed` and
/// keeps the individual spans.
pub fn run_pass(spec: &Spec, traced: bool) -> Pass {
    let mut tr = Tracer::new(traced);
    let mut sim: BTreeMap<&'static str, ArmTotals> = BTreeMap::new();
    let mut handlers: BTreeMap<&'static str, HandlerStats> = BTreeMap::new();
    let mut routes = RouteTotals::default();
    let mut script_actions = 0;
    let mut probe_graph = None;

    let template = tr.span("topo.template", |_| spec.template());
    for draw in 0..spec.draws() {
        tr.draw = draw as u32;
        let sc = tr.span("scenario_build", |_| spec.scenario(template.as_ref(), draw));
        script_actions += (sc.join_times.len() + sc.script.entries().len()) as u64;
        tr.span("sim", |tr| {
            for &kind in &spec.arms {
                let label = arm_label(kind);
                tr.arm = label;
                let outcome = tr.span("arm", |tr| {
                    let run = ArmRun {
                        scenario: &sc,
                        timing: &spec.timing,
                        timed: traced,
                        tr,
                    };
                    run_arm(kind, run)
                });
                tr.arm = "";
                sim.entry(label).or_default().add(&outcome);
                if let Some(h) = &outcome.handlers {
                    handlers.entry(label).or_default().merge(h);
                }
            }
        });
        let provider = sc.network().routes();
        let s = provider.route_stats();
        routes.stats.computed += s.computed;
        routes.stats.hits += s.hits;
        routes.stats.misses += s.misses;
        routes.stats.evicted += s.evicted;
        routes.peak_rows = routes.peak_rows.max(s.cached_rows);
        routes.peak_bytes = routes.peak_bytes.max(provider.state_bytes());
        if traced && draw == 0 {
            probe_graph = Some(sc.graph().clone());
        }
    }
    Pass {
        tracer: tr,
        sim,
        routes,
        handlers,
        script_actions,
        probe_graph,
    }
}
