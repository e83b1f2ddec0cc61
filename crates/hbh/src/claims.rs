//! The coverage core both forwarding tables hold.
//!
//! The soft MFT ([`crate::tables::HbhMft`]) and the hard one
//! ([`crate::hard::HardMft`]) answer the same questions about fusion
//! claims — who serves `n` and, for the hard table alone, is this claim
//! already covered — and differ only in how entries come and go: soft
//! entries carry the paper's `t1`/`t2` deadlines, hard ones never expire
//! ([`NEVER`]). [`ClaimTable`] is the one implementation:
//!
//! * entries stay in **insertion order** (fan-out order is observable),
//!   with a node → position index in front, so a lookup is one hash probe
//!   instead of a scan;
//! * each claim is kept twice: **as received** (what the footprint
//!   formulas count and what the next fusion is compared with, byte for
//!   byte) and **sorted and deduplicated**, so membership is one binary
//!   search;
//! * a **revision** counter moves with every change a coverage answer can
//!   depend on — insert, removal, reap, mark, unmark, claim change — and
//!   never with a refresh that only pushes deadlines out. Together with
//!   the earliest `t2` among the live entries it delimits a [`Calm`]
//!   stretch over which the set of live entries, their marks and their
//!   claims are all constant: the data-reach mask is computed once per
//!   stretch;
//! * the same stretch fixes the **list a fusion from this table carries**
//!   ([`ClaimTable::listed`]): the live nodes in insertion order cannot
//!   change inside it, so the list is built as an `Arc<[NodeId]>` on the
//!   stretch's first send and shared by every later fusion of the stretch
//!   and by the row that installs it. A node with `N` entries answers
//!   each of `N` transiting trees with a fusion of `N` nodes per period;
//!   sharing keeps one list, not `N` copies. Claims compare by pointer
//!   first and by contents second, so a content-equal copy (a list
//!   decoded off the wire) is still the same claim.

use crate::bits::Mask;
use hbh_sim_core::{FastMap, SteadyState, Time};
use hbh_topo::graph::NodeId;
use std::sync::Arc;

/// Deadline of an entry that never expires (hard state).
pub(crate) const NEVER: Time = Time(u64::MAX);

/// One table row: the downstream node, its mark, its two deadlines and —
/// for fusion senders — the target set its last accepted fusion claimed.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Entry {
    pub node: NodeId,
    /// Fusion rule (2): forwards tree messages, not data.
    pub marked: bool,
    /// Stale from here on.
    pub t1: Time,
    /// Dead (absent everywhere) from here on.
    pub t2: Time,
    /// The claim as received, order and duplicates kept: the sender's
    /// list itself when it came shared.
    raw: Arc<[NodeId]>,
    /// The same set, sorted and deduplicated.
    claim: Vec<NodeId>,
}

impl Entry {
    /// Expiry is inclusive, as in `hbh_proto_base::SoftEntry::phase`.
    pub fn is_dead(&self, now: Time) -> bool {
        now >= self.t2
    }

    pub fn is_stale(&self, now: Time) -> bool {
        !self.is_dead(now) && now >= self.t1
    }

    pub fn is_fresh(&self, now: Time) -> bool {
        !self.is_dead(now) && now < self.t1
    }

    /// The claim as its sender listed it.
    pub fn raw_claim(&self) -> &[NodeId] {
        &self.raw
    }

    fn claims(&self, n: NodeId) -> bool {
        self.claim.binary_search(&n).is_ok()
    }

    /// Live and marked: data reaches it only through a coverer.
    fn is_pending(&self, now: Time) -> bool {
        self.marked && !self.is_dead(now)
    }
}

/// Are `a` and `b` the same list? The same allocation is, without reading
/// it; otherwise the contents decide.
fn same_list(a: &[NodeId], b: &[NodeId]) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// A stretch `[since, until)` of one revision: no entry is inserted,
/// removed, marked, unmarked or re-claimed (the revision stands) and none
/// dies (every entry live at `since` has `t2 ≥ until`; refreshes only move
/// deadlines out, or move the revision), so every coverage answer is the
/// same anywhere inside it.
#[derive(Clone, Debug)]
struct Calm {
    rev: u64,
    since: Time,
    until: Time,
    /// [`ClaimTable::reach`] holds this stretch's mask: the first
    /// question that needs it fills it.
    reached: bool,
    /// The live nodes in insertion order, once a fusion needed them
    /// ([`ClaimTable::listed`]).
    listed: Option<Arc<[NodeId]>>,
}

/// Insertion-ordered entries with their fusion claims, indexed by node.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClaimTable {
    entries: Vec<Entry>,
    /// Position of each node's row (dead-but-unreaped rows included; a
    /// node has at most one row).
    index: FastMap<NodeId, usize>,
    rev: u64,
    calm: Option<Calm>,
    /// Bit `i` set iff `entries[i]` receives data through this table, in
    /// the calm stretch that filled it ([`Self::fill_reach`]).
    reach: Mask,
    /// The fill's worklist: reachable rows whose claims are still to walk.
    frontier: Vec<usize>,
}

impl ClaimTable {
    /// Raw row count (dead-but-unreaped included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live rows, in insertion order.
    pub fn live(&self, now: Time) -> impl Iterator<Item = &Entry> + '_ {
        self.entries.iter().filter(move |e| !e.is_dead(now))
    }

    fn pos(&self, n: NodeId, now: Time) -> Option<usize> {
        let &i = self.index.get(&n)?;
        (!self.entries[i].is_dead(now)).then_some(i)
    }

    /// Live-entry lookup (dead entries are treated as absent everywhere).
    pub fn get(&self, n: NodeId, now: Time) -> Option<&Entry> {
        self.pos(n, now).map(|i| &self.entries[i])
    }

    pub fn contains(&self, n: NodeId, now: Time) -> bool {
        self.pos(n, now).is_some()
    }

    pub fn is_marked(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some_and(|e| e.marked)
    }

    /// Appends a row for `n` (the caller found no live one), replacing a
    /// dead duplicate.
    pub fn insert(&mut self, n: NodeId, t1: Time, t2: Time) {
        self.remove(n);
        self.index.insert(n, self.entries.len());
        self.entries.push(Entry {
            node: n,
            marked: false,
            t1,
            t2,
            raw: Arc::default(),
            claim: Vec::new(),
        });
        self.rev += 1;
    }

    /// Restarts the deadlines of `n`'s live row; `false` if it has none.
    pub fn touch(&mut self, n: NodeId, now: Time, t1: Time, t2: Time) -> bool {
        let Some(i) = self.pos(n, now) else {
            return false;
        };
        let e = &mut self.entries[i];
        if t2 < e.t2 {
            self.rev += 1; // a death moved closer: no stretch may outlive it
        }
        (e.t1, e.t2) = (t1, t2);
        true
    }

    /// Sets `n`'s mark to `to`; `true` if that changed it.
    pub fn set_mark(&mut self, n: NodeId, to: bool, now: Time) -> bool {
        match self.pos(n, now) {
            Some(i) if self.entries[i].marked != to => {
                self.entries[i].marked = to;
                self.rev += 1;
                true
            }
            _ => false,
        }
    }

    /// Removes `n`'s row, dead or alive; `true` if there was one.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let Some(at) = self.index.remove(&n) else {
            return false;
        };
        self.entries.remove(at);
        for e in &self.entries[at..] {
            *self.index.get_mut(&e.node).expect("every row is indexed") -= 1;
        }
        self.rev += 1;
        true
    }

    /// Removes dead rows; returns how many.
    pub fn reap(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.is_dead(now));
        let reaped = before - self.entries.len();
        if reaped > 0 {
            self.index.clear();
            self.index
                .extend(self.entries.iter().enumerate().map(|(i, e)| (e.node, i)));
            self.rev += 1;
        }
        reaped
    }

    /// The calm stretch, if it belongs to the current revision: one that
    /// does not is never read again.
    fn current_calm(&self) -> Option<&Calm> {
        self.calm.as_ref().filter(|c| c.rev == self.rev)
    }

    fn calm_holds(&self, now: Time) -> bool {
        self.current_calm()
            .is_some_and(|c| c.since <= now && now < c.until)
    }

    /// The calm stretch around `now`, opened here if none holds.
    fn calm(&mut self, now: Time) -> &mut Calm {
        if !self.calm_holds(now) {
            let until = self.live(now).map(|e| e.t2).min().unwrap_or(NEVER);
            self.calm = Some(Calm {
                rev: self.rev,
                since: now,
                until,
                reached: false,
                listed: None,
            });
        }
        self.calm.as_mut().expect("just opened")
    }

    /// Per-entry flag: does this entry's subtree currently receive data
    /// through *this* table? Least fixpoint of: every live unmarked entry
    /// is reachable (we fan data out to it directly), and a live *marked*
    /// entry is reachable if an already-reachable entry's coverage claims
    /// it (data flows to the coverer, which forwards it onward). Coverage
    /// chains can nest — B3 serves B2 serves B1 — so reach propagates
    /// along claims: each newly reachable entry's sorted claim is walked
    /// once, every claimed node's row found through the index, and a
    /// pending (live, marked) row it names becomes reachable in turn. That
    /// is O(claims of the reachable coverers), whatever the table's width
    /// — the internet-scale sweeps route hundreds of receivers through
    /// single access routers. Bit `i` of [`Self::reach`] corresponds to
    /// `entries[i]`.
    ///
    /// Fills the calm stretch's mask if this is the first question to need
    /// it, in buffers the table keeps across stretches.
    fn fill_reach(&mut self, now: Time) {
        self.calm(now);
        let calm = self.calm.as_mut().expect("just opened");
        if calm.reached {
            return;
        }
        calm.reached = true;
        let (entries, index) = (&self.entries, &self.index);
        let (reach, frontier) = (&mut self.reach, &mut self.frontier);
        reach.reset(entries.len());
        frontier.clear();
        let mut pending = 0;
        for (i, e) in entries.iter().enumerate() {
            if e.is_pending(now) {
                pending += 1;
            } else if !e.is_dead(now) {
                reach.set(i);
                frontier.push(i);
            }
        }
        while pending > 0 {
            let Some(j) = frontier.pop() else { break };
            for n in &entries[j].claim {
                let Some(&i) = index.get(n) else { continue };
                if entries[i].is_pending(now) && !reach.test(i) {
                    reach.set(i);
                    frontier.push(i);
                    pending -= 1;
                }
            }
        }
    }

    /// The live, data-reachable entry other than `n` whose coverage claims
    /// `n`, if any — the branching node that actually serves `n`. A
    /// claimant that is itself marked counts only if its own coverer chain
    /// bottoms out at a live unmarked entry (see [`Self::fill_reach`]); an
    /// orphaned marked claimant receives nothing and serves nobody.
    pub fn server_of(&mut self, n: NodeId, now: Time) -> Option<NodeId> {
        self.fill_reach(now);
        let mut claimants = self.entries.iter().enumerate();
        claimants
            .find_map(|(i, e)| (self.reach.test(i) && e.node != n && e.claims(n)).then_some(e.node))
    }

    /// Is every node of `nodes` claimed by one live, data-reachable entry
    /// other than `sender`? The hard table ignores a fusion from `sender`
    /// if so (its nested-fusion veto, [`crate::hard::HardMft::fusion`]).
    /// An orphaned marked coverer receives no data and serves nobody — it
    /// cannot cover a fusion from a node that is asking to serve the
    /// subtree itself.
    pub fn covers(&mut self, sender: NodeId, nodes: &[NodeId], now: Time) -> bool {
        self.fill_reach(now);
        let mut coverers = self.entries.iter().enumerate();
        coverers.any(|(i, e)| {
            self.reach.test(i)
                && e.node != sender
                && !e.claim.is_empty()
                && nodes.iter().all(|&n| e.claims(n))
        })
    }

    /// Every live node in insertion order: the list a fusion from this
    /// table carries ("all the nodes that B maintains in its MFT"). Built
    /// on the first call inside a calm stretch, over which the live rows
    /// and their order are constant, and shared by every call after it in
    /// the same stretch.
    pub fn listed(&mut self, now: Time) -> Arc<[NodeId]> {
        self.calm(now);
        let entries = &self.entries;
        let calm = self.calm.as_mut().expect("just opened");
        let listed = calm.listed.get_or_insert_with(|| {
            // Allocated once at the table's width: collecting the
            // filtered rows would grow the list by doubling.
            let mut nodes = Vec::with_capacity(entries.len());
            nodes.extend(entries.iter().filter(|e| !e.is_dead(now)).map(|e| e.node));
            nodes.into()
        });
        Arc::clone(listed)
    }

    /// Fusion rule (2): marks every live entry `nodes` lists, `skip`
    /// excepted. `None` if it lists none (a stale fusion that outlived
    /// the entries it names), else how many marks are new.
    pub fn mark_listed(
        &mut self,
        nodes: &[NodeId],
        skip: Option<NodeId>,
        now: Time,
    ) -> Option<usize> {
        let (mut relevant, mut newly) = (false, 0);
        for &n in nodes {
            let Some(i) = self.pos(n, now).filter(|_| Some(n) != skip) else {
                continue;
            };
            relevant = true;
            if !self.entries[i].marked {
                self.entries[i].marked = true;
                newly += 1;
            }
        }
        self.rev += newly as u64;
        relevant.then_some(newly)
    }

    /// Fusion rules (3)/(4): installs `bp` as the sender of the claim it
    /// listed as `nodes`. `bp`'s live row gets its deadlines restarted at
    /// `(t1, t2)`, or a new row with them is appended; then, only if the
    /// list differs from the one the row holds, the row takes `nodes` as
    /// its claim — a shared list by handle, a slice by one copy — and
    /// sorts it. Returns `(row is new, claim differs from the installed
    /// one as a list)`.
    pub fn install(
        &mut self,
        bp: NodeId,
        nodes: impl AsRef<[NodeId]> + Into<Arc<[NodeId]>>,
        now: Time,
        (t1, t2): (Time, Time),
    ) -> (bool, bool) {
        let fresh = !self.touch(bp, now, t1, t2);
        if fresh {
            self.insert(bp, t1, t2);
        }
        let e = &mut self.entries[self.index[&bp]];
        let reclaimed = !same_list(&e.raw, nodes.as_ref());
        if reclaimed {
            // The sorted copy is rebuilt in place: refreshes repeat the
            // same claim far more often than they change it.
            e.claim.clear();
            e.claim.extend_from_slice(nodes.as_ref());
            e.claim.sort_unstable();
            e.claim.dedup();
            e.raw = nodes.into();
            self.rev += 1;
        }
        (fresh, reclaimed)
    }
}

/// `t` moved `by` later; [`NEVER`] stays never.
fn later(t: Time, by: u64) -> Time {
    if t == NEVER {
        t
    } else {
        t + by
    }
}

/// Row for row: the same nodes in the same order, each with the same mark,
/// deadlines and claim, as received (the hard engine's "changed" check
/// reads that order). Nothing else is compared: the calm stretch, the
/// revision it is stamped with and the reach mask only remember answers
/// that are functions of the rows (the mask is exact, `DESIGN.md` §5b),
/// so two tables with equal rows answer every question alike whatever
/// they remember (the stretch's fusion list is the live rows' nodes, a
/// function of them too). They must be left out: a calm stretch lasts
/// until the earliest `t2`, about five refresh periods, so it rarely sits
/// at the same offset at both ends of a fast-forward window (`DESIGN.md`
/// §6e). The index is a function of the rows; the frontier is scratch.
/// A claim compares by contents, so a row holding its sender's list
/// equals one holding a copy of it.
impl PartialEq for ClaimTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl SteadyState for ClaimTable {
    /// Moves the calm stretch with the rows, so that what it remembers
    /// stays true of them.
    fn advance(&mut self, by: u64) {
        for e in &mut self.entries {
            (e.t1, e.t2) = (later(e.t1, by), later(e.t2, by));
        }
        if let Some(c) = &mut self.calm {
            (c.since, c.until) = (later(c.since, by), later(c.until, by));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reach_fixpoint, Seed};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// One row of a random table: dead, live unmarked or live marked
    /// (`0..3`); its claim as a list of row numbers, any of which may be
    /// the row itself, repeated, or past the last row (a node the table
    /// does not hold); and whether it also claims the next row, twice,
    /// which strings long chains and cycles through the table.
    type Row = (u8, Vec<u8>, bool);

    const NOW: Time = Time(100);

    fn rows() -> impl Strategy<Value = Vec<Row>> {
        let claim = proptest::collection::vec(0u8..80, 0..6);
        proptest::collection::vec((0u8..3, claim, any::<bool>()), 0..72)
    }

    /// A table holding `rows`, row `i` for node `i`, marks and claims set
    /// directly.
    fn table(rows: &[Row]) -> ClaimTable {
        let mut t = ClaimTable::default();
        for (i, (state, claim, chain)) in rows.iter().enumerate() {
            let node = NodeId(i as u32);
            let t2 = if *state == 0 { Time(50) } else { NEVER };
            t.insert(node, t2, t2);
            let e = &mut t.entries[i];
            e.marked = *state == 2;
            let mut raw: Vec<NodeId> = claim.iter().map(|&c| NodeId(c.into())).collect();
            if *chain {
                raw.extend([NodeId(i as u32 + 1); 2]);
            }
            e.claim.clone_from(&raw);
            e.claim.sort_unstable();
            e.claim.dedup();
            e.raw = raw.into();
        }
        t
    }

    /// The table's mask against the pairwise fixpoint over the claims as
    /// received, scanned.
    fn reach_agrees(t: &mut ClaimTable) -> Result<(), TestCaseError> {
        t.fill_reach(NOW);
        let got: Vec<bool> = (0..t.len()).map(|i| t.reach.test(i)).collect();
        let entries = &t.entries;
        let want = reach_fixpoint(
            entries.len(),
            |i| match &entries[i] {
                e if e.is_dead(NOW) => Seed::Skip,
                e if e.marked => Seed::Pending,
                _ => Seed::Reach,
            },
            |j, i| entries[j].raw.contains(&entries[i].node),
        );
        prop_assert_eq!(got, want);
        Ok(())
    }

    /// Fills the mask, then flips every third row's mark and drops the
    /// first row, and fills it again in the same buffers. The vendored
    /// proptest does not shrink, so a failure names its input.
    fn claim_driven_reach(rows: Vec<Row>) -> Result<(), TestCaseError> {
        let named = |phase: &str, e| TestCaseError(format!("{e}\n{phase}, rows: {rows:?}"));
        let mut t = table(&rows);
        reach_agrees(&mut t).map_err(|e| named("as built", e))?;
        for (i, (state, ..)) in rows.iter().enumerate().step_by(3) {
            t.set_mark(NodeId(i as u32), *state != 2, NOW);
        }
        t.remove(NodeId(0));
        reach_agrees(&mut t).map_err(|e| named("after the flips", e))
    }

    #[test]
    fn equality_compares_rows_not_caches() {
        // Row 0 dies at t = 50; row 1 claims rows 3 and 2, in that order;
        // row 3 is marked, so data reaches it only through row 1.
        let rows: Vec<Row> = vec![
            (0, vec![], false),
            (1, vec![3, 2], false),
            (1, vec![], false),
            (2, vec![], false),
        ];
        let plain = table(&rows);
        let mut used = table(&rows);
        // One question inside row 0's lifetime, one after it: the clock
        // walks out of the first calm stretch into a second.
        assert_eq!(used.server_of(NodeId(3), Time(10)), Some(NodeId(1)));
        assert_eq!(used.server_of(NodeId(3), NOW), Some(NodeId(1)));
        // The table's owner sends a fusion: the stretch keeps its list.
        assert_eq!(*used.listed(NOW), [NodeId(1), NodeId(2), NodeId(3)]);
        let cached = |c: &Calm| c.since == NOW && c.reached && c.listed.is_some();
        assert!(used.calm.as_ref().is_some_and(cached));
        assert!(plain.calm.is_none());
        assert_eq!(used, plain);
        // The same claim listed in another order is another table: the hard
        // engine's "changed" check reads the order as received.
        let mut reordered = rows.clone();
        reordered[1].1 = vec![2, 3];
        assert_ne!(table(&reordered), plain);
    }

    /// `rows` with its caches filled at `now`: each row is asked who
    /// serves it. The same table moved `by` later answers every question
    /// at `now + by` as the original does at `now`.
    fn advance_keeps_answers(rows: Vec<Row>, early: bool, by: u64) -> Result<(), TestCaseError> {
        // Early, the rows that die at t = 50 are live and end the calm
        // stretch; at `NOW` they are dead and it ends at `NEVER`.
        let now = if early { Time(10) } else { NOW };
        let mut t = table(&rows);
        let listed: Vec<(NodeId, Vec<NodeId>)> =
            t.entries.iter().map(|e| (e.node, e.raw.to_vec())).collect();
        for (n, _) in &listed {
            t.server_of(*n, now);
        }
        let mut moved = t.clone();
        moved.advance(by);
        let stranger = (NodeId(rows.len() as u32), Vec::new());
        for (n, nodes) in listed.iter().chain([&stranger]) {
            let answers = |t: &mut ClaimTable, at: Time| {
                let served = t.server_of(*n, at);
                let listed = t.listed(at).to_vec();
                (served, t.covers(*n, nodes, at), listed)
            };
            let want = answers(&mut t, now);
            let got = answers(&mut moved, now + by);
            prop_assert_eq!(got, want, "{n}, early {early}, by {by}, rows: {rows:?}");
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn claim_driven_reach_matches_pairwise(rows in rows()) {
            claim_driven_reach(rows)?;
        }

        #[test]
        fn advance_keeps_every_answer(rows in rows(), early in any::<bool>(), by in 0u64..1_000_000) {
            advance_keeps_answers(rows, early, by)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

        #[test]
        #[ignore = "4,096 cases: CI runs it in release"]
        fn claim_driven_reach_matches_pairwise_at_length(rows in rows()) {
            claim_driven_reach(rows)?;
        }
    }
}
