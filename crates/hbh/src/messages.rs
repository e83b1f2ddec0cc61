//! HBH wire messages and node timers.

use hbh_proto_base::Channel;
use hbh_topo::graph::NodeId;
use std::sync::Arc;

/// HBH packet payloads (the three control messages of §3.1 plus channel
/// data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HbhMsg {
    /// `join(S, R)`: unicast toward the source. `who` is the joining
    /// entity — a receiver, or a branching router joining on behalf of its
    /// subtree. `initial` flags a receiver's very first join, which is
    /// never intercepted ("the first join issued by a receiver is never
    /// intercepted, reaching the source" — §3.1).
    Join {
        /// The channel being joined.
        ch: Channel,
        /// The joining entity (receiver or branching router).
        who: NodeId,
        /// Set on a receiver's very first join (never intercepted).
        initial: bool,
    },
    /// `tree(S, R)`: unicast toward `target`, periodically multicast by
    /// the source and fanned out at branching nodes; refreshes the tree's
    /// soft state and drives branching-point discovery.
    Tree {
        /// The channel being refreshed.
        ch: Channel,
        /// The node this tree message is addressed to.
        target: NodeId,
    },
    /// `fusion(S, R₁…Rₙ)` from `from`: sent toward the source; processed
    /// by the first upstream branching node holding any of `nodes`.
    Fusion {
        /// The channel concerned.
        ch: Channel,
        /// The candidate branching node announcing itself.
        from: NodeId,
        /// Every live MFT node of the sender, in its table's order: one
        /// list per calm stretch of the sender's table, shared by every
        /// fusion it sends in that stretch and by the row that installs it.
        nodes: Arc<[NodeId]>,
    },
    /// Channel data, addressed to the next branching node (or receiver).
    Data {
        /// The channel the payload belongs to.
        ch: Channel,
    },
}

impl HbhMsg {
    /// The channel this message belongs to.
    pub fn channel(&self) -> Channel {
        match self {
            HbhMsg::Join { ch, .. }
            | HbhMsg::Tree { ch, .. }
            | HbhMsg::Fusion { ch, .. }
            | HbhMsg::Data { ch } => *ch,
        }
    }
}

/// Node-local timers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HbhTimer {
    /// Receiver agent: periodic `join` refresh.
    JoinRefresh(Channel),
    /// Source agent: periodic `tree` emission + source-table sweep.
    TreeRefresh(Channel),
    /// Router: reap dead MCT/MFT state.
    Sweep(Channel),
    /// Access router (HBH-AGG only): decay the aggregated local-member
    /// table and refresh the channel's upstream join on behalf of every
    /// live local receiver with a single message.
    AggFlush(Channel),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_accessor_covers_variants() {
        let ch = Channel::primary(NodeId(3));
        assert_eq!(HbhMsg::Data { ch }.channel(), ch);
        assert_eq!(
            HbhMsg::Join {
                ch,
                who: NodeId(1),
                initial: true
            }
            .channel(),
            ch
        );
        assert_eq!(
            HbhMsg::Tree {
                ch,
                target: NodeId(1)
            }
            .channel(),
            ch
        );
        assert_eq!(
            HbhMsg::Fusion {
                ch,
                from: NodeId(1),
                nodes: Arc::new([NodeId(2)])
            }
            .channel(),
            ch
        );
    }
}
