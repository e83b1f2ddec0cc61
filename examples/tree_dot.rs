//! Renders the Figure-3 scenario as Graphviz: the topology, REUNITE's
//! data tree (with its duplicated link highlighted in red), and HBH's.
//!
//! ```text
//! cargo run -p hbh-examples --bin tree_dot > fig3.dot
//! dot -Tpng -O fig3.dot        # if graphviz is installed
//! ```

use hbh_experiments::datapath::{probe_transits, DataTransits};
use hbh_proto::Hbh;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::{dot, scenarios};

fn probe_tree<P: Protocol<Command = Cmd>>(proto: P) -> DataTransits {
    let g = scenarios::fig3();
    let s = g.node_by_label("S").unwrap();
    let (r1, r2) = (
        g.node_by_label("r1").unwrap(),
        g.node_by_label("r2").unwrap(),
    );
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(Network::new(g), proto, 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(400));
    k.run_until(Time(timing.convergence_horizon(400) + 4 * timing.t2));
    probe_transits(&mut k, ch, 1)
}

fn main() {
    let g = scenarios::fig3();
    println!("// --- Figure 3 topology (costs a→b / b→a) ---");
    println!("{}", dot::topology(&g));

    for (name, transits) in [
        ("REUNITE", probe_tree(Reunite::new(Timing::default()))),
        ("HBH", probe_tree(Hbh::new(Timing::default()))),
    ] {
        let links: Vec<_> = transits.links.iter().map(|(&l, &c)| (l, c)).collect();
        println!(
            "// --- {name} data tree ({} copies) ---",
            transits.total_copies()
        );
        println!("{}", dot::tree(&g, &links));
    }
}
