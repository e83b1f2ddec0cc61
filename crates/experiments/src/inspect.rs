//! `hbh-exp inspect`: converge HBH on one scenario, dump the per-node
//! forwarding state and the data-plane trace of a probe.
//!
//! ```text
//! cargo run -p hbh-experiments --bin hbh-exp -- inspect --topo isp --group 6 --seed 3
//! ```

use crate::datapath::probe_transits;
use crate::runner::{build_kernel, converge};
use crate::scenario::{build, ScenarioOptions, TopologyKind};
use hbh_proto::Hbh;
use hbh_proto_base::Timing;
use hbh_sim_core::trace::TraceKind;
use hbh_sim_core::PacketClass;
use std::fmt::Write as _;

/// The dump for draw `seed` of `topo` with `group` receivers.
pub fn dump(topo: TopologyKind, group: usize, seed: u64) -> String {
    let timing = Timing::default();
    let sc = build(topo, group, seed, &timing, &ScenarioOptions::default());
    let mut out = String::new();
    let _ = writeln!(out, "source: {}  receivers: {:?}", sc.source, sc.receivers);

    let (mut k, ch) = build_kernel(Hbh::new(timing), &sc);
    let ok = converge(&mut k, &timing, sc.join_window);
    let _ = writeln!(
        out,
        "converged: {ok} at {} (changes: {})",
        k.now(),
        k.stats().structural_changes
    );

    let now = k.now();
    for node in k.network().graph().nodes() {
        let st = k.state(node);
        if let Some(mft) = st.mft(ch) {
            let data: Vec<_> = mft.data_targets(now).collect();
            let tree: Vec<_> = mft.tree_targets(now).collect();
            let live: Vec<String> = mft
                .live(now)
                .map(|n| {
                    format!(
                        "{n}{}{}",
                        if mft.is_marked(n, now) { "[m]" } else { "" },
                        if mft.is_stale(n, now) { "[s]" } else { "" }
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{node}: MFT live={live:?} data->{data:?} tree->{tree:?}"
            );
        } else if let Some(mct) = st.mct(ch) {
            let _ = writeln!(out, "{node}: MCT {} ({:?})", mct.node(), mct.phase(now));
        }
    }

    k.enable_trace();
    probe_transits(&mut k, ch, 1);
    for rec in k.take_trace() {
        match &rec.what {
            TraceKind::Sent { to, pkt } if pkt.class == PacketClass::Data => {
                let _ = writeln!(
                    out,
                    "[{}] {} --data--> {} (dst {})",
                    rec.at, rec.node, to, pkt.dst
                );
            }
            TraceKind::Delivered { tag } => {
                let _ = writeln!(out, "[{}] {} DELIVER tag={tag}", rec.at, rec.node);
            }
            _ => {}
        }
    }
    out
}
