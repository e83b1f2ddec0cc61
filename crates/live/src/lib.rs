#![warn(missing_docs)]

//! # hbh-live — the protocol engines on real sockets
//!
//! Everything in `hbh-proto` / `hbh-reunite` is written against the
//! [`hbh_sim_core::KernelOps`] capability trait, not against the simulator.
//! This crate provides the other implementation of that trait: one OS
//! thread per node ([`node`]) and a harness that launches them
//! ([`cluster`]) — a real `UdpSocket` per node, wall-clock timers (1
//! simulated time unit = 1 ms). What it sends is `hbh-wire`'s: a node
//! encodes and decodes whole datagrams there, so this crate holds no byte
//! of the format. What it does with an arrival is sim-core's: the
//! kernel's own [`hbh_sim_core::arrival`] rule, and transit through the
//! node's [`hbh_sim_core::KernelOps::forward`]. The *identical protocol
//! code* that reproduces the paper's figures in the simulator runs here
//! over loopback UDP — recursive unicast on an actual unicast network.
//!
//! ```no_run
//! use hbh_live::{Cluster, LIVE_TIMING};
//! use hbh_proto::Hbh;
//! use hbh_proto_base::{Channel, Cmd};
//! use hbh_topo::scenarios;
//!
//! let graph = scenarios::fig2();
//! let source = graph.node_by_label("S").unwrap();
//! let r1 = graph.node_by_label("r1").unwrap();
//! let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).unwrap();
//! let ch = Channel::primary(source);
//! cluster.command(source, Cmd::StartSource(ch));
//! cluster.command(r1, Cmd::Join(ch));
//! std::thread::sleep(std::time::Duration::from_millis(1500));
//! cluster.command(source, Cmd::SendData { ch, tag: 1 });
//! let d = cluster.wait_delivery(std::time::Duration::from_secs(2)).unwrap();
//! assert_eq!(d.node, r1);
//! cluster.shutdown();
//! ```
//!
//! ## Scope
//!
//! This is a demonstration runtime, not a production daemon: every node is
//! given the same frozen [`hbh_sim_core::Network`] as its routing view
//! (the moral equivalent of a converged link-state domain), there is no
//! config reload, and all nodes live in one process. What it proves is the
//! part that matters for the paper's deployment story — the protocol state
//! machines need nothing from the simulator.

pub mod cluster;
pub mod node;

pub use cluster::Cluster;
pub use node::LIVE_TIMING;
