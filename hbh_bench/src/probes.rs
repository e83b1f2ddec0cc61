//! Direct probes: public functions of single layers, clocked on the
//! workload's own graph. They give the unit costs (µs per SPF row, ns per
//! far timer) that the counts measured during a pass are multiplied by.

use hbh_proto_base::workload::WorkloadGen;
use hbh_proto_base::{Channel, Timing, Workload};
use hbh_routing::{OnDemandRoutes, RouteProvider, RoutingTables};
use hbh_sim_core::{Ctx, Kernel, Network, Packet, Protocol, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::{costs, Csr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` takes, best of three (a probe wants the cost of the
/// operation, not of whatever else the box was doing).
fn best_of_3<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `topo.csr_build_us`: packing `g` into its CSR view.
pub fn csr_build_us(g: &Graph) -> f64 {
    best_of_3(|| Csr::from_graph(g)) * 1e6
}

/// `topo.cost_draw_s`: one per-draw cost assignment, graph clone included.
pub fn cost_draw_s(g: &Graph) -> f64 {
    best_of_3(|| {
        let mut g = g.clone();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(1));
        g
    })
}

/// `routing.spf_row_us`: mean cost of a cold on-demand row, from sources
/// spread across the node range (routers and hosts both originate
/// lookups in the workloads). Computes at least 64 rows and goes on for a
/// quarter of a second, so that on small graphs the rows outgrow the CPU
/// caches as they do in a run.
pub fn spf_row_us(g: &Graph) -> f64 {
    const MIN_ROWS: usize = 64;
    const MIN_SECS: f64 = 0.25;
    let n = g.node_count();
    let batch = n.min(1024);
    let mut routes = OnDemandRoutes::new(g, batch);
    let mut rows = 0;
    let start = Instant::now();
    while rows < MIN_ROWS || start.elapsed().as_secs_f64() < MIN_SECS {
        let i = rows % batch;
        if i == 0 && rows > 0 {
            // The sources wrapped: a fresh provider keeps every row a miss.
            routes = OnDemandRoutes::new(g, batch);
        }
        black_box(routes.dist(NodeId((i * n / batch) as u32), NodeId(0)));
        rows += 1;
    }
    start.elapsed().as_secs_f64() / rows as f64 * 1e6
}

/// `routing.hot_lookup_ns`: a next-hop lookup served from a warm row.
pub fn hot_lookup_ns(g: &Graph) -> f64 {
    const LOOKUPS: usize = 200_000;
    let n = g.node_count();
    let warm = 8.min(n);
    let routes = OnDemandRoutes::new(g, warm);
    for s in 0..warm {
        routes.dist(NodeId(s as u32), NodeId(0));
    }
    best_of_3(|| {
        for i in 0..LOOKUPS {
            black_box(routes.next_hop(NodeId((i % warm) as u32), NodeId((i % n) as u32)));
        }
    }) / LOOKUPS as f64
        * 1e9
}

/// `routing.eager_tables_us`: the all-pairs tables `scenario::build`
/// computes per paper-figure draw.
pub fn eager_tables_us(g: &Graph) -> f64 {
    best_of_3(|| RoutingTables::compute(g)) * 1e6
}

/// `proto-base.plan_s`: drawing one membership plan over `g`'s hosts.
pub fn plan_s(g: &Graph, workload: &Workload) -> f64 {
    let hosts: Vec<NodeId> = g.hosts().collect();
    let (source, pool) = hosts.split_first().expect("workload graphs have hosts");
    let timing = Timing::default();
    best_of_3(|| {
        workload.plan(
            pool,
            Channel::primary(*source),
            &timing,
            &mut StdRng::seed_from_u64(1),
        )
    })
}

/// A protocol that only arms timers: `Arm(n)` arms `n` far timers in one
/// batch; expiries do nothing.
struct TimerStorm;

impl Protocol for TimerStorm {
    type Msg = ();
    type Timer = u32;
    type Command = u32;
    type NodeState = ();

    fn on_packet(&self, _: &mut (), _: Packet<()>, _: &mut Ctx<'_, (), u32>) {}
    fn on_timer(&self, _: &mut (), _: u32, _: &mut Ctx<'_, (), u32>) {}
    fn on_command(&self, _: &mut (), n: u32, ctx: &mut Ctx<'_, (), u32>) {
        // Delays past the near calendar band, spread over many far-wheel
        // slots — the refresh-timer population of a membership storm.
        ctx.set_timers((0..n).map(|i| (i, 1_000 + u64::from(i % 4_096))));
    }
}

/// `sim-core.timer_storm_ns`: per-timer cost of arming 10⁵ far timers
/// through the batch API and running them to expiry.
pub fn timer_storm_ns() -> f64 {
    const TIMERS: u32 = 100_000;
    let mut g = Graph::new();
    let r = g.add_router();
    g.add_host(r, 1, 1);
    let net = Network::new(g);
    best_of_3(|| {
        let mut k = Kernel::new(net.clone(), TimerStorm, 1);
        k.command_at(r, TIMERS, Time::ZERO);
        k.run_until(Time(10_000));
        assert_eq!(k.pending_timer_count(), 0, "every storm timer expired");
        k.stats().events
    }) / f64::from(TIMERS)
        * 1e9
}
