//! HBH on a real network: every node of the Figure-2 topology becomes a
//! thread with its own loopback UDP socket; the exact protocol code that
//! reproduces the paper's figures in the simulator builds its tree with
//! real datagrams and delivers real packets.
//!
//! ```text
//! cargo run -p hbh-examples --bin live_udp
//! ```

use hbh_live::{Cluster, LIVE_TIMING};
use hbh_proto::Hbh;
use hbh_proto_base::{Channel, Cmd};
use hbh_topo::scenarios;
use std::time::Duration;

fn main() {
    let graph = scenarios::fig2();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, r1, r2, r3) = (n("S"), n("r1"), n("r2"), n("r3"));
    let labels = graph.clone();

    let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).expect("bind sockets");
    println!("nodes bound to loopback UDP:");
    let mut addrs: Vec<_> = cluster.addresses.iter().collect();
    addrs.sort_by_key(|(n, _)| **n);
    for (node, addr) in addrs {
        println!(
            "  {:>3} ({})  {addr}",
            node.to_string(),
            labels.label(*node).unwrap_or("-")
        );
    }

    let ch = Channel::primary(s);
    cluster.command(s, Cmd::StartSource(ch));
    for r in [r1, r2, r3] {
        cluster.command(r, Cmd::Join(ch));
        std::thread::sleep(Duration::from_millis(80));
    }
    println!("\nwaiting for the soft-state tree to converge…");
    std::thread::sleep(Duration::from_millis(LIVE_TIMING.convergence_horizon(200)));

    println!("sending one data packet on {ch}:");
    cluster.command(s, Cmd::SendData { ch, tag: 1 });
    for d in cluster.wait_deliveries(3, Duration::from_secs(3)) {
        println!(
            "  delivered at {} ({})",
            d.node,
            labels.label(d.node).unwrap_or("-")
        );
    }
    cluster.shutdown();
    println!("\n(same engine, zero simulator involvement — see crates/live)");
}
