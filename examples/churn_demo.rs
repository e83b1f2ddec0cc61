//! Group dynamics: receivers join and leave in a Poisson process while
//! the source keeps probing; compare how much tree state HBH and REUNITE
//! rebuild (the quantified version of the paper's Figure 4 argument).
//!
//! ```text
//! cargo run -p hbh-examples --bin churn_demo
//! ```

use hbh_proto::Hbh;
use hbh_proto_base::membership::{churn_schedule, ChurnEvent};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::{costs, isp};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run<P: Protocol<Command = Cmd>>(name: &str, proto: P, seed: u64) {
    let timing = Timing::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut rng);
    let pool = isp::receiver_pool(&g);
    let source = isp::SOURCE_HOST;
    let ch = Channel::primary(source);

    let horizon = 6000;
    let events = churn_schedule(&pool, 100.0, Time(0), horizon, &mut rng);
    let joins = events
        .iter()
        .filter(|(_, e)| matches!(e, ChurnEvent::Join(_)))
        .count();
    let leaves = events.len() - joins;

    let mut k = Kernel::new(Network::new(g), proto, seed);
    k.command_at(source, Cmd::StartSource(ch), Time::ZERO);
    let mut members = std::collections::HashSet::new();
    for (t, ev) in &events {
        match ev {
            ChurnEvent::Join(n) => {
                members.insert(*n);
                k.command_at(*n, Cmd::Join(ch), *t);
            }
            ChurnEvent::Leave(n) => {
                members.remove(n);
                k.command_at(*n, Cmd::Leave(ch), *t);
            }
        }
    }
    k.run_until(Time(horizon));
    let churn_during = k.stats().structural_changes;
    k.run_until(Time(
        horizon + timing.convergence_horizon(0) + 4 * timing.t2,
    ));

    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 1500);
    let served = k.stats().deliveries_tagged(1).count();

    println!(
        "{name:<8}  {joins:>3} joins / {leaves:>3} leaves  →  {churn_during:>4} table changes \
         during churn; final members {}, served {served}",
        members.len()
    );
    assert_eq!(served, members.len(), "{name} lost or duplicated members");
}

fn main() {
    println!("Poisson churn on the ISP topology (mean inter-event gap 100 time units):\n");
    for seed in [3, 4, 5] {
        run("HBH", Hbh::new(Timing::default()), seed);
        run("REUNITE", Reunite::new(Timing::default()), seed);
        println!();
    }
    println!(
        "(table changes = structural MCT/MFT mutations across all routers — \n\
              the stability metric of the `stability` experiment binary)"
    );
}
