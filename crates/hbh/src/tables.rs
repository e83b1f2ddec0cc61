//! HBH's per-channel tables.
//!
//! Compared to REUNITE's tables (see `hbh-reunite::tables`):
//!
//! * the MCT holds a **single** entry ("`MCT<S>` has one single entry" —
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

//! ### Nested fusions (implementation decision)
//!
//! Appendix A does not say what happens when *two* branching nodes on the
//! same downstream path both send fusions for overlapping target sets and
//! asymmetric routing makes the deeper node's fusion bypass the shallower
//! one. Every fusion takes Figure 9(b)'s rules as they stand: a narrower
//! sender is installed like any other and stays data-eligible until a
//! fusion lists it or its t2 runs out. `DESIGN.md` §5b.1 records what the
//! two completions this table once had — a veto of covered fusions, and
//! marking the narrower senders a broader claim contains — cost and
//! bought; the hard table ([`crate::hard::HardMft`]) keeps the veto.

use crate::claims::ClaimTable;
use hbh_proto_base::{EntryPhase, SoftEntry, Timing};
use hbh_sim_core::{SteadyState, Time};
use hbh_topo::graph::NodeId;
use std::sync::Arc;

/// Single-entry Multicast Control Table.
#[derive(Clone, Copy, Debug, PartialEq)]
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

impl SteadyState for HbhMct {
    fn advance(&mut self, by: u64) {
        self.entry.advance(by);
    }
}

/// Multicast Forwarding Table: per-downstream-node soft entries with the
/// marked flag. Insertion-ordered for deterministic fan-out. The rows,
/// their fusion claims and every coverage question live in the shared
/// `ClaimTable`; this type adds the two-timer lifecycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HbhMft {
    core: ClaimTable,
}

impl HbhMft {
    /// Is `n` a (live) member of the table?
    pub fn contains(&self, n: NodeId, now: Time) -> bool {
        self.core.contains(n, now)
    }

    /// True if `n` is live and marked (tree-only).
    pub fn is_marked(&self, n: NodeId, now: Time) -> bool {
        self.core.is_marked(n, now)
    }

    /// True if `n` is live and stale (t1 expired).
    pub fn is_stale(&self, n: NodeId, now: Time) -> bool {
        self.core.get(n, now).is_some_and(|e| e.is_stale(now))
    }

    /// Full refresh of `n` (join interception / rule 3 of tree
    /// processing); inserts fresh and unmarked if absent. Returns `true`
    /// if the entry is new.
    pub fn refresh_or_insert(&mut self, n: NodeId, now: Time, timing: &Timing) -> bool {
        let (t1, t2) = (now + timing.t1(), now + timing.t2);
        if self.core.touch(n, now, t1, t2) {
            return false;
        }
        self.core.insert(n, t1, t2);
        true
    }

    /// Marks `n` (fusion rule 2). Timers are untouched: a marked entry
    /// survives only as long as something (joins, fusions via transit
    /// trees) keeps refreshing it. Returns `true` if newly marked.
    pub fn mark(&mut self, n: NodeId, now: Time) -> bool {
        self.core.set_mark(n, true, now)
    }

    /// Clears `n`'s mark (join-time self-repair; see
    /// [`Self::repair_orphaned_mark`]). Returns `true` if it was marked.
    pub fn unmark(&mut self, n: NodeId, now: Time) -> bool {
        self.core.set_mark(n, false, now)
    }

    /// Is `n` claimed by the coverage of a live, data-reachable entry
    /// other than itself — i.e. does some branching node that actually
    /// receives data currently serve `n`? See `ClaimTable::server_of`.
    pub fn served_by_other(&mut self, n: NodeId, now: Time) -> bool {
        self.core.server_of(n, now).is_some()
    }

    /// Join-time mark repair (spec completion, `DESIGN.md` §5): a marked
    /// entry is only serviceable while some live unmarked fusion sender
    /// claims it in its coverage. If that sender decays — its own tables
    /// lost to control loss, say — the mark would starve the subtree
    /// *forever*, because the very joins that keep the marked entry alive
    /// are intercepted at this table and never reach anyone who could
    /// help. The periodic join therefore re-validates the coverage and
    /// clears an orphaned mark, restoring direct service; a later fusion
    /// from a recovered branching node simply re-marks it. Returns `true`
    /// if it cleared `who`'s mark.
    pub fn repair_orphaned_mark(&mut self, who: NodeId, now: Time) -> bool {
        self.is_marked(who, now) && !self.served_by_other(who, now) && self.unmark(who, now)
    }

    /// Installs the fusion sender `Bp` claiming `covers`: stale from birth
    /// (fusion rule 3) — used for data, never for tree emission — or, if
    /// present, refreshes its t2 while keeping t1 expired (rule 4) and
    /// updates the claim, keeping a shared list by handle. Returns `true`
    /// on insert (structural change).
    pub fn install_fusion_sender(
        &mut self,
        bp: NodeId,
        covers: impl AsRef<[NodeId]> + Into<Arc<[NodeId]>>,
        now: Time,
        timing: &Timing,
    ) -> bool {
        // Rules (3) and (4) alike: t1 expired on the spot, t2 restarted.
        let stale = (now, now + timing.t2);
        self.core.install(bp, covers, now, stale).0
    }

    /// Everything a fusion from `bp` listing `nodes` does to the table it
    /// is addressed to: Figure 9(b)'s rules (2)–(4) and nothing else;
    /// returns the number of structural changes it made. `bp`'s own mark
    /// is left as it stands — an orphaned one is cleared by the next join
    /// from `bp` ([`Self::repair_orphaned_mark`]). A shared `nodes` is what
    /// `bp`'s row keeps as its claim.
    pub fn fusion(
        &mut self,
        bp: NodeId,
        nodes: impl AsRef<[NodeId]> + Into<Arc<[NodeId]>>,
        now: Time,
        timing: &Timing,
    ) -> usize {
        // Rule (2): mark the listed entries — they will keep receiving
        // tree messages but no data. We emitted the tree messages that
        // triggered this fusion, so the listed nodes should be ours; if
        // none is, the fusion outlived the entries it names.
        let Some(marked) = self.core.mark_listed(nodes.as_ref(), None, now) else {
            return 0;
        };
        // Rules (3)/(4): install Bp stale (data-only), or refresh its t2
        // keeping t1 expired.
        marked + usize::from(self.install_fusion_sender(bp, nodes, now, timing))
    }

    /// Data fan-out set: live, unmarked entries.
    pub fn data_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.core.live(now).filter(|e| !e.marked).map(|e| e.node)
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
        self.core
            .live(now)
            .filter(move |e| e.is_fresh(now) || !e.marked)
            .map(|e| e.node)
    }

    /// All live members, in insertion order.
    pub fn live(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.core.live(now).map(|e| e.node)
    }

    /// The live members as a fusion payload ("all the nodes that B
    /// maintains in its MFT"): one list per calm stretch of the table,
    /// shared by every fusion sent inside it (see `ClaimTable::listed`).
    pub fn fusion_list(&mut self, now: Time) -> Arc<[NodeId]> {
        self.core.listed(now)
    }

    /// Removes dead entries; returns how many.
    pub fn reap(&mut self, now: Time) -> usize {
        self.core.reap(now)
    }

    /// Raw entry count (dead-but-unreaped included).
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }
}

impl SteadyState for HbhMft {
    fn advance(&mut self, by: u64) {
        self.core.advance(by);
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
        assert!(m.is_stale(Time(t.t1())));
        m.refresh(Time(t.t1()), &t);
        assert!(!m.is_stale(Time(t.t1())));
        assert!(m.is_dead(Time(t.t1() + t.t2)));
    }

    #[test]
    fn mct_replace_swaps_node_and_restarts() {
        let t = tm();
        let mut m = HbhMct::new(NodeId(1), Time(0), &t);
        m.replace(NodeId(2), Time(t.t1()), &t);
        assert_eq!(m.node(), NodeId(2));
        assert!(!m.is_stale(Time(t.t1())));
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
        m.install_fusion_sender(NodeId(9), [], Time(0), &t);
        assert_eq!(m.data_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(9)]);
        assert_eq!(m.tree_targets(Time(1)).collect::<Vec<_>>(), vec![NodeId(9)]);
    }

    #[test]
    fn marked_stale_entries_emit_nothing() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.mark(NodeId(1), Time(0));
        let stale_at = Time(t.t1() + 1);
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
        assert!(m.install_fusion_sender(NodeId(9), [], Time(0), &t));
        // Refresh before death: still alive, still stale.
        assert!(!m.install_fusion_sender(NodeId(9), [], Time(t.t2 - 10), &t));
        let later = Time(t.t2 + 10);
        assert!(m.contains(NodeId(9), later));
        assert!(m.is_stale(NodeId(9), later));
    }

    #[test]
    fn a_broader_claim_leaves_the_narrower_sender_data_eligible() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t); // the shared target
        m.install_fusion_sender(NodeId(2), [NodeId(7)], Time(0), &t);
        // A broader claim covering {7, 8} installs sender 3 and leaves 2
        // as it was: Figure 9(b) marks only the nodes a fusion lists.
        assert!(m.install_fusion_sender(NodeId(3), [NodeId(7), NodeId(8)], Time(1), &t));
        assert!(!m.is_marked(NodeId(2), Time(2)), "narrow sender unmarked");
        assert_eq!(
            m.data_targets(Time(2)).collect::<Vec<_>>(),
            vec![NodeId(7), NodeId(2), NodeId(3)]
        );
        // 2 serves data until its t2 runs out.
        let served: Vec<_> = m.data_targets(Time(t.t2 - 1)).collect();
        assert_eq!(served, vec![NodeId(7), NodeId(2), NodeId(3)]);
        assert_eq!(
            m.data_targets(Time(t.t2)).collect::<Vec<_>>(),
            vec![NodeId(3)]
        );
    }

    #[test]
    fn a_covered_fusion_is_installed_until_a_fusion_lists_its_sender() {
        let t = tm();
        let mut m = HbhMft::default();
        for n in [7, 8] {
            m.refresh_or_insert(NodeId(n), Time(0), &t);
        }
        let broad = [NodeId(7), NodeId(8)];
        assert_eq!(m.fusion(NodeId(3), broad, Time(0), &t), 3);
        // 2's claim {7} is inside 3's: Figure 9(b) installs it all the same.
        assert_eq!(m.fusion(NodeId(2), [NodeId(7)], Time(1), &t), 1);
        let served: Vec<_> = m.data_targets(Time(2)).collect();
        assert_eq!(served, vec![NodeId(3), NodeId(2)]);
        // 3's next fusion lists what it listed before: 2 keeps its data.
        assert_eq!(m.fusion(NodeId(3), broad, Time(100), &t), 0);
        let served: Vec<_> = m.data_targets(Time(101)).collect();
        assert_eq!(served, vec![NodeId(3), NodeId(2)]);
        // A fusion that lists 2 marks it (rule 2).
        let wider = [NodeId(7), NodeId(8), NodeId(2)];
        assert_eq!(m.fusion(NodeId(3), wider, Time(200), &t), 1);
        let served: Vec<_> = m.data_targets(Time(201)).collect();
        assert_eq!(served, vec![NodeId(3)]);
    }

    #[test]
    fn join_refresh_unstales_a_fusion_sender() {
        // A downstream branching node that *does* receive its receivers'
        // joins sends join(S, B) upstream; the interception refresh turns
        // its stale entry fresh, making it tree-eligible (Figure 5's H3
        // entry at H1).
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(9), [], Time(0), &t);
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
        m.install_fusion_sender(NodeId(2), [NodeId(7)], Time(0), &t);
        assert!(m.served_by_other(NodeId(7), Time(1)));
        // An orphaned marked claimant receives no data, so it serves nobody.
        m.mark(NodeId(2), Time(1));
        assert!(!m.served_by_other(NodeId(7), Time(1)));
        // A dead claimant serves nobody either.
        let mut m2 = HbhMft::default();
        m2.refresh_or_insert(NodeId(7), Time(0), &t);
        m2.install_fusion_sender(NodeId(2), [NodeId(7)], Time(0), &t);
        assert!(!m2.served_by_other(NodeId(7), Time(t.t2 + 1)));
    }

    #[test]
    fn served_by_other_follows_coverage_chains() {
        // 3 (unmarked) covers 2; 2 (marked) covers 7. Data reaches 2
        // through 3, so 2 still serves 7 — 7 must stay marked.
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(7), Time(0), &t);
        m.install_fusion_sender(NodeId(2), [NodeId(7)], Time(0), &t);
        m.install_fusion_sender(NodeId(3), [NodeId(2)], Time(0), &t);
        m.mark(NodeId(2), Time(0));
        assert!(
            m.served_by_other(NodeId(7), Time(1)),
            "chain 3→2→7 delivers"
        );
        // Break the chain: 3 dies, nothing reaches 2, so nothing serves 7.
        let late = Time(t.t2 + 1);
        m.install_fusion_sender(NodeId(2), [NodeId(7)], late, &t);
        m.refresh_or_insert(NodeId(7), late, &t);
        m.mark(NodeId(2), late);
        assert!(
            !m.served_by_other(NodeId(7), late),
            "orphaned chain serves nobody"
        );
    }

    #[test]
    fn served_by_other_follows_chains_three_deep() {
        // 4 (unmarked) claims 3; 3 (marked) claims 2; 2 (marked) claims 1.
        // Data reaches 2 only through 3, which it reaches only through 4,
        // so a rule that looks one claim deep finds nobody serving 1.
        let t = tm();
        let mut m = HbhMft::default();
        m.install_fusion_sender(NodeId(4), [NodeId(3)], Time(0), &t);
        let later = Time(t.t2 / 2);
        m.refresh_or_insert(NodeId(1), later, &t);
        m.install_fusion_sender(NodeId(2), [NodeId(1)], later, &t);
        m.install_fusion_sender(NodeId(3), [NodeId(2)], later, &t);
        for n in [3, 2, 1] {
            m.mark(NodeId(n), later);
        }
        assert!(
            m.served_by_other(NodeId(1), later),
            "chain 4→3→2→1 delivers"
        );
        // 4 dies at its t2 while the rest live on: the chain is orphaned.
        let dead = Time(t.t2);
        assert!(!m.contains(NodeId(4), dead) && m.is_marked(NodeId(3), dead));
        assert!(!m.served_by_other(NodeId(1), dead), "no root, no service");
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
        m.install_fusion_sender(NodeId(2), [NodeId(7)], Time(0), &t);
        assert!(m.served_by_other(NodeId(7), Time(1)));
        // Reaping the dead claimant takes its claim with it.
        assert_eq!(m.reap(Time(t.t2)), 2);
        m.refresh_or_insert(NodeId(7), Time(t.t2), &t);
        assert!(!m.served_by_other(NodeId(7), Time(t.t2 + 1)));
    }

    // --- the shared fusion list (`ClaimTable::listed`) --------------------

    fn ids(ns: &[u32]) -> Vec<NodeId> {
        ns.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn fusions_of_one_calm_stretch_share_their_list() {
        let t = tm();
        let mut m = HbhMft::default();
        for n in [5, 2, 8] {
            m.refresh_or_insert(NodeId(n), Time(0), &t);
        }
        let first = m.fusion_list(Time(1));
        assert_eq!(first[..], ids(&[5, 2, 8]));
        // Refreshes that only push deadlines out leave the stretch open.
        for n in [8, 5, 2] {
            m.refresh_or_insert(NodeId(n), Time(100), &t);
        }
        let second = m.fusion_list(Time(t.t2 - 1));
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn each_change_to_the_live_rows_makes_a_new_list() {
        let t = tm();
        let mut m = HbhMft::default();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.refresh_or_insert(NodeId(2), Time(100), &t);
        let mut last = m.fusion_list(Time(100));
        let mut next = |m: &mut HbhMft, at: u64, want: &[u32]| {
            let list = m.fusion_list(Time(at));
            assert!(!Arc::ptr_eq(&last, &list), "a new list at {at}");
            assert_eq!(list[..], ids(want), "at {at}");
            last = list;
        };
        // An insert.
        m.refresh_or_insert(NodeId(3), Time(110), &t);
        next(&mut m, 110, &[1, 2, 3]);
        // A mark: the same nodes, but a new stretch.
        m.mark(NodeId(2), Time(120));
        next(&mut m, 120, &[1, 2, 3]);
        // A death by clock alone: 1's t2 passes with no call in between.
        next(&mut m, t.t2, &[2, 3]);
        // A reap of the dead row.
        assert_eq!(m.reap(Time(t.t2 + 1)), 1);
        next(&mut m, t.t2 + 1, &[2, 3]);
        // A refresh that pulls a death in, inside the open stretch: under a
        // hasty timing 3 is due at t2 + 62, before 2's death ends the
        // stretch at t2 + 100.
        let hasty = Timing { t2: 60, ..t };
        m.refresh_or_insert(NodeId(3), Time(t.t2 + 2), &hasty);
        next(&mut m, t.t2 + 62, &[2]);
    }

    #[test]
    fn the_receiving_row_holds_the_senders_list() {
        let t = tm();
        let (mut below, mut above) = (HbhMft::default(), HbhMft::default());
        for n in [7, 8] {
            below.refresh_or_insert(NodeId(n), Time(0), &t);
            above.refresh_or_insert(NodeId(n), Time(0), &t);
        }
        let sent = below.fusion_list(Time(1));
        assert_eq!(above.fusion(NodeId(3), Arc::clone(&sent), Time(1), &t), 3);
        let held = |m: &HbhMft| m.core.get(NodeId(3), Time(2)).unwrap().raw_claim().as_ptr();
        assert_eq!(held(&above), sent.as_ptr());
        // A copy with the same contents is the same claim: the row keeps
        // the list it holds.
        assert_eq!(above.fusion(NodeId(3), ids(&[7, 8]), Time(2), &t), 0);
        assert_eq!(held(&above), sent.as_ptr());
        // The same nodes in another order are another claim: the row takes
        // the new list (the hard engine's "changed" check reads the order).
        let reordered: Arc<[NodeId]> = ids(&[8, 7]).into();
        assert_eq!(
            above.fusion(NodeId(3), Arc::clone(&reordered), Time(3), &t),
            0
        );
        assert_eq!(held(&above), reordered.as_ptr());
    }

    // --- the note's hard half: `HardMft` ignores a covered fusion --------

    use crate::hard::HardMft;

    #[test]
    fn covered_by_other_detects_nested_claims() {
        let mut m = HardMft::default();
        m.install_fusion_sender(NodeId(3), &[NodeId(7), NodeId(8)]);
        assert!(m.covered_by_other(&[NodeId(7)], NodeId(9)));
        assert!(
            !m.covered_by_other(&[NodeId(7)], NodeId(3)),
            "sender excluded"
        );
        assert!(!m.covered_by_other(&[NodeId(7), NodeId(9)], NodeId(5)));
        // A covered fusion is ignored: 9 is not installed.
        assert_eq!(m.fusion(NodeId(9), &[NodeId(7)]), (false, false));
        assert!(!m.contains(NodeId(9)));
    }

    #[test]
    fn covered_by_other_ignores_orphaned_marked_coverers() {
        let mut m = HardMft::default();
        m.install_fusion_sender(NodeId(3), &[NodeId(7), NodeId(8)]);
        m.mark(NodeId(3));
        // 3 is marked with no coverer of its own: it receives no data and
        // cannot cover a fusion from a node offering to serve {7}.
        assert!(!m.covered_by_other(&[NodeId(7)], NodeId(9)));
        // Give 3 a live coverer and its claim counts again.
        m.install_fusion_sender(NodeId(4), &[NodeId(3)]);
        assert!(m.covered_by_other(&[NodeId(7)], NodeId(9)));
    }

    // --- a fusion's own sender keeps its mark (rules (2)–(4) alone) ------

    use crate::reference::{soft_diff, RefMft};

    const CLAIM: [NodeId; 2] = [NodeId(1), NodeId(2)];

    /// The indexed table and the scan-based reference side by side.
    struct Pair(HbhMft, RefMft);

    impl Pair {
        fn join(&mut self, n: u32, now: Time) {
            let (a, b) = (
                self.0.refresh_or_insert(NodeId(n), now, &tm()),
                self.1.refresh_or_insert(NodeId(n), now, &tm()),
            );
            assert_eq!(a, b);
        }

        /// One fusion on both tables: same outcome, same table after.
        fn fusion(&mut self, bp: u32, nodes: &[NodeId], now: Time) -> usize {
            let got = self.0.fusion(NodeId(bp), nodes, now, &tm());
            assert_eq!(got, self.1.fusion(NodeId(bp), nodes, now, &tm()));
            soft_diff(&mut self.0, &self.1, now).unwrap();
            got
        }

        /// The join-time repair of `who`'s mark on both tables.
        fn repair(&mut self, who: u32, now: Time) -> bool {
            let got = self.0.repair_orphaned_mark(NodeId(who), now);
            assert_eq!(got, self.1.repair_orphaned_mark(NodeId(who), now));
            soft_diff(&mut self.0, &self.1, now).unwrap();
            got
        }
    }

    /// Receivers 1, 2, 3; sender 9 claims {1, 2} and is itself marked and
    /// served only through sender 8, which claims {9, 3}.
    fn served_through_8() -> Pair {
        let mut p = Pair(HbhMft::default(), RefMft::default());
        for n in 1..=3 {
            p.join(n, Time(0));
        }
        assert_eq!(p.fusion(9, &CLAIM, Time(0)), 3, "two marks and 9 itself");
        assert_eq!(p.fusion(8, &[NodeId(9), NodeId(3)], Time(0)), 3);
        assert!(p.0.is_marked(NodeId(9), Time(0)) && p.0.served_by_other(NodeId(9), Time(0)));
        p
    }

    /// 9's mark is orphaned at `now`: a repeat of its claim refreshes its
    /// `t2` and leaves the mark standing; the join-time repair clears it.
    fn orphan_keeps_its_mark_until_it_joins(mut p: Pair, now: Time) {
        assert!(!p.0.served_by_other(NodeId(9), now), "orphaned");
        assert_eq!(p.fusion(9, &CLAIM, now), 0);
        assert!(
            p.0.is_marked(NodeId(9), now),
            "a fusion leaves its sender's mark alone"
        );
        let refreshed = now + (tm().t2 - 1);
        assert!(p.0.contains(NodeId(9), refreshed) && p.0.is_stale(NodeId(9), refreshed));
        assert!(p.repair(9, now));
        assert!(!p.0.is_marked(NodeId(9), now));
        assert!(
            p.0.data_targets(now).any(|n| n == NodeId(9)),
            "served again"
        );
    }

    #[test]
    fn a_fusion_keeps_its_senders_orphaned_mark_when_the_claim_goes() {
        let mut p = served_through_8();
        // 8 stops claiming 9: not structural, but 9 is now an orphan.
        assert_eq!(p.fusion(8, &[NodeId(3)], Time(20)), 0);
        orphan_keeps_its_mark_until_it_joins(p, Time(30));
    }

    #[test]
    fn a_fusion_keeps_its_senders_orphaned_mark_when_its_server_dies() {
        let mut p = served_through_8();
        // Everyone but 8 and 3 keeps refreshing; 8 dies at t2 by clock
        // alone.
        for n in [1, 2] {
            p.join(n, Time(300));
        }
        assert_eq!(p.fusion(9, &CLAIM, Time(300)), 0);
        let t2 = Time(tm().t2);
        assert!(!p.0.contains(NodeId(8), t2) && p.0.is_marked(NodeId(9), t2));
        orphan_keeps_its_mark_until_it_joins(p, t2);
    }
}
