//! HBH's per-channel tables.
//!
//! Compared to REUNITE's tables (see `hbh-reunite::tables`):
//!
//! * the MCT holds a **single** entry ("MCT<S> has one single entry" —
//!   §3.1);
//! * the MFT has **no `dst`** — data arriving at a branching node is
//!   addressed to the node itself — and its entries carry the **marked**
//!   flag used by the fusion mechanism.
//!
//! Entry semantics at time `now` (Appendix A, with the tree-eligibility
//! completion marked `*` — see the note on [`HbhMft::tree_targets`]):
//!
//! | phase  | marked | forwards data | receives `tree` emissions |
//! |--------|--------|---------------|---------------------------|
//! | fresh  | no     | ✓             | ✓                         |
//! | fresh  | yes    | ✗             | ✓                         |
//! | stale  | no     | ✓             | ✓ `*` (paper says ✗)      |
//! | stale  | yes    | ✗             | ✗                         |
//! | dead   | —      | ✗             | ✗                         |

//! ### Nested-fusion disambiguation (implementation decision)
//!
//! Appendix A does not say what happens when *two* branching nodes on the
//! same downstream path both send fusions for overlapping target sets and
//! asymmetric routing makes the deeper node's fusion bypass the shallower
//! one: naively the upstream MFT would install **both** as data targets
//! and the shared receivers would get duplicate copies. Because all
//! fusion senders covering a given target sit on that target's single
//! forward path, their coverage sets are totally ordered by inclusion, so
//! the resolution is unambiguous: each MFT entry remembers the target set
//! its sender last claimed (`covers`), a fusion whose set is contained in
//! a live entry's coverage is ignored, and installing a broader fusion
//! marks the senders it subsumes. `DESIGN.md` §5 records this as the one
//! place we had to complete the paper's specification.

use crate::bits::{reach_fixpoint, Mask, Seed};
use hbh_proto_base::{EntryPhase, SoftEntry, Timing};
use hbh_sim_core::Time;
use hbh_topo::graph::NodeId;

/// Single-entry Multicast Control Table.
#[derive(Clone, Copy, Debug)]
pub struct HbhMct {
    node: NodeId,
    entry: SoftEntry,
}

impl HbhMct {
    /// A fresh MCT tracking `node`, created at `now`.
    pub fn new(node: NodeId, now: Time, timing: &Timing) -> Self {
        HbhMct {
            node,
            entry: SoftEntry::new(now, timing),
        }
    }

    /// The node whose tree messages flow through here.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Full refresh of the single entry.
    pub fn refresh(&mut self, now: Time, timing: &Timing) {
        self.entry.refresh(now, timing);
    }

    /// Replaces the entry (rule 7: a *stale* MCT is overwritten by the next
    /// tree message instead of promoting the router to a branching node).
    pub fn replace(&mut self, node: NodeId, now: Time, timing: &Timing) {
        self.node = node;
        self.entry = SoftEntry::new(now, timing);
    }

    /// Lifecycle phase at `now`.
    pub fn phase(&self, now: Time) -> EntryPhase {
        self.entry.phase(now)
    }

    /// True while t1 has expired but t2 has not.
    pub fn is_stale(&self, now: Time) -> bool {
        self.entry.is_stale(now)
    }

    /// True once t2 has expired.
    pub fn is_dead(&self, now: Time) -> bool {
        self.entry.is_dead(now)
    }
}

/// One MFT row: the downstream node, its soft entry, and — for fusion
/// senders — the target set claimed by its last accepted fusion.
#[derive(Clone, Debug)]
struct MftEntry {
    node: NodeId,
    entry: SoftEntry,
    /// Targets this node's last fusion claimed (empty for plain
    /// receivers/joiners). See the nested-fusion note in the module docs.
    covers: Vec<NodeId>,
}

/// Multicast Forwarding Table: per-downstream-node soft entries with the
/// marked flag. Insertion-ordered for deterministic fan-out.
#[derive(Clone, Debug, Default)]
pub struct HbhMft {
    entries: Vec<MftEntry>,
}

impl HbhMft {
    /// Live-entry lookup (dead entries are treated as absent everywhere).
    fn get(&self, n: NodeId, now: Time) -> Option<&MftEntry> {
        self.entries
            .iter()
            .find(|e| e.node == n && !e.entry.is_dead(now))
    }

    fn get_mut(&mut self, n: NodeId, now: Time) -> Option<&mut MftEntry> {
        self.entries
            .iter_mut()
            .find(|e| e.node == n && !e.entry.is_dead(now))
    }

    /// Is `n` a (live) member of the table?
    pub fn contains(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some()
    }

    /// True if `n` is live and marked (tree-only).
    pub fn is_marked(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some_and(|e| e.entry.marked)
    }

    /// True if `n` is live and stale (t1 expired).
    pub fn is_stale(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some_and(|e| e.entry.is_stale(now))
    }

    /// Full refresh of `n` (join interception / rule 3 of tree
    /// processing); inserts fresh and unmarked if absent. Returns `true`
    /// if the entry is new.
    pub fn refresh_or_insert(&mut self, n: NodeId, now: Time, timing: &Timing) -> bool {
        if let Some(e) = self.get_mut(n, now) {
            e.entry.refresh(now, timing);
            return false;
        }
        self.purge(n);
        self.entries.push(MftEntry {
            node: n,
            entry: SoftEntry::new(now, timing),
            covers: Vec::new(),
        });
        true
    }

    /// Marks `n` (fusion rule 2). Timers are untouched: a marked entry
    /// survives only as long as something (joins, fusions via transit
    /// trees) keeps refreshing it. Returns `true` if newly marked.
    pub fn mark(&mut self, n: NodeId, now: Time) -> bool {
        match self.get_mut(n, now) {
            Some(e) if !e.entry.marked => {
                e.entry.marked = true;
                true
            }
            _ => false,
        }
    }

    /// Clears `n`'s mark (join-time self-repair; see the engine's
    /// `repair_orphaned_mark`). Returns `true` if it was marked.
    pub fn unmark(&mut self, n: NodeId, now: Time) -> bool {
        match self.get_mut(n, now) {
            Some(e) if e.entry.marked => {
                e.entry.marked = false;
                true
            }
            _ => false,
        }
    }

    /// Per-entry flag: does this entry's subtree currently receive data
    /// through *this* table? Least fixpoint of: every live unmarked entry
    /// is reachable (we fan data out to it directly), and a live *marked*
    /// entry is reachable if an already-reachable entry's coverage claims
    /// it (data flows to the coverer, which forwards it onward). Coverage
    /// chains can nest, so the propagation runs to a fixpoint (see
    /// [`crate::bits::reach_fixpoint`]). Bit `i` of the result corresponds
    /// to `entries[i]`; table width is unbounded — the internet-scale
    /// sweeps route hundreds of receivers through single access routers.
    fn data_reachable(&self, now: Time) -> Mask {
        reach_fixpoint(
            self.entries.len(),
            |i| {
                let e = &self.entries[i];
                if e.entry.is_dead(now) {
                    Seed::Skip
                } else if e.entry.marked {
                    Seed::Pending // reachable only via a coverer
                } else {
                    Seed::Reach
                }
            },
            |j, i| {
                let covers = &self.entries[j].covers;
                !covers.is_empty() && covers.contains(&self.entries[i].node)
            },
        )
    }

    /// Is `n` claimed by the coverage of a live, data-reachable entry
    /// other than itself — i.e. does some branching node that actually
    /// receives data currently serve `n`? A claimant that is itself
    /// marked counts only if its own coverer chain bottoms out at a live
    /// unmarked entry (see [`Self::data_reachable`]); an orphaned marked
    /// claimant receives nothing and therefore serves nobody.
    pub fn served_by_other(&self, n: NodeId, now: Time) -> bool {
        // Fast path: no live entry claims `n` at all (the common case at
        // routers with no fusion activity) — skip the fixpoint entirely.
        if !self
            .entries
            .iter()
            .any(|e| !e.entry.is_dead(now) && e.node != n && e.covers.contains(&n))
        {
            return false;
        }
        let reach = self.data_reachable(now);
        self.entries
            .iter()
            .enumerate()
            .any(|(i, e)| reach.test(i) && e.node != n && e.covers.contains(&n))
    }

    /// Is `nodes` contained in the coverage of a live, data-reachable
    /// entry other than `sender`? If so, an incoming fusion from `sender`
    /// is subsumed by an already-installed branching node and must be
    /// ignored (see the nested-fusion note in the module docs). An
    /// orphaned marked coverer receives no data and serves nobody — it
    /// cannot veto a fusion from a node that is asking to serve the
    /// subtree itself.
    pub fn covered_by_other(&self, nodes: &[NodeId], sender: NodeId, now: Time) -> bool {
        // Fast path: no live entry other than `sender` even claims the
        // whole set — skip the fixpoint.
        if !self.entries.iter().any(|e| {
            !e.entry.is_dead(now)
                && e.node != sender
                && !e.covers.is_empty()
                && nodes.iter().all(|n| e.covers.contains(n))
        }) {
            return false;
        }
        let reach = self.data_reachable(now);
        self.entries.iter().enumerate().any(|(i, e)| {
            reach.test(i)
                && e.node != sender
                && !e.covers.is_empty()
                && nodes.iter().all(|n| e.covers.contains(n))
        })
    }

    /// Installs the fusion sender `Bp` claiming `covers`: stale from birth
    /// (fusion rule 3) — used for data, never for tree emission — or, if
    /// present, refreshes its t2 while keeping t1 expired (rule 4) and
    /// updates the claim. Existing fusion senders whose claims are
    /// contained in `covers` are subsumed: marked, so they stop receiving
    /// data (their subtrees are now served through `Bp`). Returns `true`
    /// on insert or newly subsumed entries (structural change).
    pub fn install_fusion_sender(
        &mut self,
        bp: NodeId,
        covers: &[NodeId],
        now: Time,
        timing: &Timing,
    ) -> bool {
        let mut structural = false;
        // Subsume narrower senders (they sit deeper on the same paths).
        for e in &mut self.entries {
            if e.node != bp
                && !e.entry.is_dead(now)
                && !e.covers.is_empty()
                && !e.entry.marked
                && e.covers.iter().all(|n| covers.contains(n))
            {
                e.entry.marked = true;
                structural = true;
            }
        }
        if let Some(e) = self.get_mut(bp, now) {
            e.entry.refresh_t2_keep_stale(now, timing);
            // In-place copy: refreshes repeat the same claim far more often
            // than they change it, so reuse the existing allocation.
            e.covers.clear();
            e.covers.extend_from_slice(covers);
            return structural;
        }
        self.purge(bp);
        let mut entry = SoftEntry::new(now, timing);
        entry.force_stale(now);
        self.entries.push(MftEntry {
            node: bp,
            entry,
            covers: covers.to_vec(),
        });
        true
    }

    /// Data fan-out set: live, unmarked entries.
    pub fn data_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| !e.entry.is_dead(now) && !e.entry.marked)
            .map(|e| e.node)
    }

    /// Tree fan-out set: fresh entries (marked or not), plus *unmarked*
    /// stale entries.
    ///
    /// The paper says a stale entry "produces no downstream tree message";
    /// applied to fusion-installed branching children (which rule (4)
    /// keeps permanently stale) that starves them of self-addressed trees,
    /// so they never fan out as emitters, never hear fusions from deeper
    /// branching nodes, and keep duplicating data toward targets those
    /// deeper nodes already serve — visible as duplicate deliveries the
    /// first time three branching nodes stack on one path. Emitting trees
    /// to live unmarked entries (the data fan-out set) closes the hole
    /// while keeping the rule's purpose: *marked* entries still stop
    /// emitting the moment they go stale, so decayed branches wind down.
    /// `DESIGN.md` §5 records this as a specification completion.
    pub fn tree_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.entry.is_fresh(now) || (!e.entry.is_dead(now) && !e.entry.marked))
            .map(|e| e.node)
    }

    /// Live members of `nodes` (fusion relevance test).
    pub fn intersect<'a>(
        &'a self,
        nodes: &'a [NodeId],
        now: Time,
    ) -> impl Iterator<Item = NodeId> + 'a {
        nodes
            .iter()
            .copied()
            .filter(move |&n| self.contains(n, now))
    }

    /// All live members (fusion payloads: "all the nodes that B maintains
    /// in its MFT").
    pub fn live(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| !e.entry.is_dead(now))
            .map(|e| e.node)
    }

    /// Removes dead entries; returns how many.
    pub fn reap(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.entry.is_dead(now));
        before - self.entries.len()
    }

    /// No live entries left?
    pub fn is_effectively_empty(&self, now: Time) -> bool {
        self.entries.iter().all(|e| e.entry.is_dead(now))
    }

    /// Raw entry count (dead-but-unreaped included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops a dead duplicate before re-insertion.
    fn purge(&mut self, n: NodeId) {
        self.entries.retain(|e| e.node != n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> Timing {
        Timing::default()
    }

    #[test]
    fn mct_single_entry_lifecycle() {
        let t = tm();
        let mut m = HbhMct::new(NodeId(1), Time(0), &t);
        assert_eq!(m.node(), NodeId(1));
        assert!(!m.is_stale(Time(0)));
        assert!(m.is_stale(Time(t.t1)));
        m.refresh(Time(t.t1), &t);
        assert!(!m.is_stale(Time(t.t1)));
        assert!(m.is_dead(Time(t.t1 + t.t2)));
    }

    #[test]
    fn mct_replace_swaps_node_and_restarts() {
        let t = tm();
        let mut m = HbhMct::new(NodeId(1), Time(0), &t);
        m.replace(NodeId(2), Time(t.t1), &t);
        assert_eq!(m.node(), NodeId(2));
        assert!(!m.is_stale(Time(t.t1)));
    }

    #[test]
    fn mft_insert_and_membership() {
        let t = tm();
        let mut m = HbhMft::default();
        assert!(m.refresh_or_insert(NodeId(1), Time(0), &t));
        assert!(!m.refresh_or_insert(NodeId(1), Time(5), &t));
        assert!(m.contains(NodeId(1), Time(5)));
        assert!(!m.contains(NodeId(2), Time(5)));
    }

    #[test]
    fn dead_entries_count_as_absent() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        assert!(!m.contains(NodeId(1), Time(t.t2)));
        // Re-inserting a dead node works and reports "new".
        assert!(m.refresh_or_insert(NodeId(1), Time(t.t2), &t));
        assert_eq!(m.len(), 1, "dead duplicate purged");
    }

    #[test]
    fn marked_entries_tree_only() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        assert!(m.mark(NodeId(1), Time(0)));
        assert!(!m.mark(NodeId(1), Time(0)), "already marked");
        assert_eq!(m.data_targets(Time(1)).count(), 0);
        assert_eq!(m.tree_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn fusion_senders_get_data_and_self_addressed_trees() {
        // Stale-but-unmarked: data-eligible, and (spec completion, see the
        // tree_targets docs) still receives self-addressed tree messages so
        // it can fan out as an emitter.
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(9), &[], Time(0), &t);
        assert_eq!(m.data_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(9)]);
        assert_eq!(m.tree_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(9)]);
    }

    #[test]
    fn marked_stale_entries_emit_nothing() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.mark(NodeId(1), Time(0));
        let stale_at = Time(t.t1 + 1);
        assert!(m.contains(NodeId(1), stale_at));
        assert_eq!(m.data_targets(stale_at).count(), 0);
        assert_eq!(
            m.tree_targets(stale_at).count(),
            0,
            "marked+stale: fully silent"
        );
    }

    #[test]
    fn fusion_sender_survives_via_t2_refreshes_but_stays_stale() {
        let t = tm();
        let mut m = HbhMft::default();
        assert!(m.install_fusion_sender(NodeId(9), &[], Time(0), &t));
        // Refresh before death: still alive, still stale.
        assert!(!m.install_fusion_sender(NodeId(9), &[], Time(t.t2 - 10), &t));
        let later = Time(t.t2 + 10);
        assert!(m.contains(NodeId(9), later));
        assert!(m.is_stale(NodeId(9), later));
    }

    #[test]
    fn subsumption_marks_narrower_fusion_senders() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t); // the shared target
        m.install_fusion_sender(NodeId(2), &[NodeId(7)], Time(0), &t);
        // A broader claim covering {7, 8} subsumes sender 2.
        m.install_fusion_sender(NodeId(3), &[NodeId(7), NodeId(8)], Time(1), &t);
        assert!(m.is_marked(NodeId(2), Time(2)), "narrow sender subsumed");
        assert!(!m.is_marked(NodeId(3), Time(2)));
        assert_eq!(
            m.data_targets(Time(2)).collect::<Vec<_>>(),
            vec![NodeId(7), NodeId(3)]
        );
    }

    #[test]
    fn covered_by_other_detects_nested_claims() {
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(3), &[NodeId(7), NodeId(8)], Time(0), &t);
        assert!(m.covered_by_other(&[NodeId(7)], NodeId(9), Time(1)));
        assert!(
            !m.covered_by_other(&[NodeId(7)], NodeId(3), Time(1)),
            "sender excluded"
        );
        assert!(!m.covered_by_other(&[NodeId(7), NodeId(9)], NodeId(5), Time(1)));
    }

    #[test]
    fn join_refresh_unstales_a_fusion_sender() {
        // A downstream branching node that *does* receive its receivers'
        // joins sends join(S, B) upstream; the interception refresh turns
        // its stale entry fresh, making it tree-eligible (Figure 5's H3
        // entry at H1).
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(9), &[], Time(0), &t);
        m.refresh_or_insert(NodeId(9), Time(10), &t);
        assert_eq!(
            m.tree_targets(Time(11)).collect::<Vec<_>>(),
            vec![NodeId(9)]
        );
    }

    #[test]
    fn served_by_other_requires_data_reachable_claimant() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t);
        assert!(!m.served_by_other(NodeId(7), Time(1)), "no claimant at all");
        m.install_fusion_sender(NodeId(2), &[NodeId(7)], Time(0), &t);
        assert!(m.served_by_other(NodeId(7), Time(1)));
        // An orphaned marked claimant receives no data, so it serves nobody.
        m.mark(NodeId(2), Time(1));
        assert!(!m.served_by_other(NodeId(7), Time(1)));
        // A dead claimant serves nobody either.
        let mut m2 = HbhMft::default();
        m2.refresh_or_insert(NodeId(7), Time(0), &t);
        m2.install_fusion_sender(NodeId(2), &[NodeId(7)], Time(0), &t);
        assert!(!m2.served_by_other(NodeId(7), Time(t.t2 + 1)));
    }

    #[test]
    fn served_by_other_follows_coverage_chains() {
        // 3 (unmarked) covers 2; 2 (marked) covers 7. Data reaches 2
        // through 3, so 2 still serves 7 — 7 must stay marked.
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t);
        m.install_fusion_sender(NodeId(2), &[NodeId(7)], Time(0), &t);
        m.install_fusion_sender(NodeId(3), &[NodeId(2)], Time(0), &t);
        m.mark(NodeId(2), Time(0));
        assert!(
            m.served_by_other(NodeId(7), Time(1)),
            "chain 3→2→7 delivers"
        );
        // Break the chain: 3 dies, nothing reaches 2, so nothing serves 7.
        let late = Time(t.t2 + 1);
        m.install_fusion_sender(NodeId(2), &[NodeId(7)], late, &t);
        m.refresh_or_insert(NodeId(7), late, &t);
        m.mark(NodeId(2), late);
        assert!(
            !m.served_by_other(NodeId(7), late),
            "orphaned chain serves nobody"
        );
    }

    #[test]
    fn covered_by_other_ignores_orphaned_marked_coverers() {
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(3), &[NodeId(7), NodeId(8)], Time(0), &t);
        m.mark(NodeId(3), Time(0));
        // 3 is marked with no coverer of its own: it receives no data and
        // cannot veto a fusion from a node offering to serve {7}.
        assert!(!m.covered_by_other(&[NodeId(7)], NodeId(9), Time(1)));
        // Give 3 a live coverer and its claim counts again.
        m.install_fusion_sender(NodeId(4), &[NodeId(3)], Time(1), &t);
        assert!(m.covered_by_other(&[NodeId(7)], NodeId(9), Time(2)));
    }

    #[test]
    fn unmark_restores_data_eligibility() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.mark(NodeId(1), Time(0));
        assert_eq!(m.data_targets(Time(1)).count(), 0);
        assert!(m.unmark(NodeId(1), Time(1)));
        assert!(!m.unmark(NodeId(1), Time(1)), "already unmarked");
        assert_eq!(m.data_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn refresh_keeps_mark() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.mark(NodeId(1), Time(0));
        m.refresh_or_insert(NodeId(1), Time(50), &t);
        assert!(
            m.is_marked(NodeId(1), Time(50)),
            "joins refresh but do not unmark"
        );
    }

    #[test]
    fn marked_entry_dies_without_refresh() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.mark(NodeId(1), Time(0));
        assert!(!m.contains(NodeId(1), Time(t.t2)));
        assert_eq!(m.reap(Time(t.t2)), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn intersect_ignores_dead_and_missing() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.refresh_or_insert(NodeId(2), Time(400), &t);
        let now = Time(t.t2); // entry 1 dead
        let hits: Vec<_> = m
            .intersect(&[NodeId(1), NodeId(2), NodeId(3)], now)
            .collect();
        assert_eq!(hits, vec![NodeId(2)]);
    }

    #[test]
    fn fan_out_order_is_insertion_order() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(5), Time(0), &t);
        m.refresh_or_insert(NodeId(2), Time(0), &t);
        m.refresh_or_insert(NodeId(8), Time(0), &t);
        let order: Vec<_> = m.data_targets(Time(1)).collect();
        assert_eq!(order, vec![NodeId(5), NodeId(2), NodeId(8)]);
    }

    #[test]
    fn claims_come_and_go_with_their_claimant() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t);
        // A plain receiver claims nobody.
        assert!(!m.served_by_other(NodeId(7), Time(1)));
        m.install_fusion_sender(NodeId(2), &[NodeId(7)], Time(0), &t);
        assert!(m.served_by_other(NodeId(7), Time(1)));
        // Reaping the dead claimant takes its claim with it.
        assert_eq!(m.reap(Time(t.t2)), 2);
        m.refresh_or_insert(NodeId(7), Time(t.t2), &t);
        assert!(!m.served_by_other(NodeId(7), Time(t.t2 + 1)));
    }

    #[test]
    fn effectively_empty_tracks_liveness() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        assert!(!m.is_effectively_empty(Time(10)));
        assert!(m.is_effectively_empty(Time(t.t2)));
    }
}
