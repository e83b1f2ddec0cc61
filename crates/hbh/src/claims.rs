//! The coverage core both forwarding tables hold.
//!
//! The soft MFT ([`crate::tables::HbhMft`]) and the hard one
//! ([`crate::hard::HardMft`]) answer the same questions about fusion
//! claims — who serves `n`, is this claim already covered, which narrower
//! senders does it subsume (the nested-fusion note in [`crate::tables`])
//! — and differ only in how entries come and go: soft entries carry the
//! paper's `t1`/`t2` deadlines, hard ones never expire ([`NEVER`]).
//! [`ClaimTable`] is the one implementation:
//!
//! * entries stay in **insertion order** (fan-out order is observable),
//!   with a node → position index in front, so a lookup is one hash probe
//!   instead of a scan;
//! * each claim is kept twice: **as received** (what the footprint
//!   formulas count and what the next fusion is compared with, byte for
//!   byte) and **sorted and deduplicated**, so `⊆` is one merge and
//!   membership one binary search;
//! * a **revision** counter moves with every change a coverage answer can
//!   depend on — insert, removal, reap, mark, unmark, claim change — and
//!   never with a refresh that only pushes deadlines out. Together with
//!   the earliest `t2` among the live entries it delimits a [`Calm`]
//!   stretch over which the set of live entries, their marks and their
//!   claims are all constant: the data-reach mask is computed once per
//!   stretch, and a fusion that repeats its sender's installed claim
//!   inside the stretch a full pass already left untouched is **replayed**
//!   ([`ClaimTable::replays`]) instead of re-derived. `DESIGN.md` §5b has
//!   the argument that the replay is exact.

use crate::bits::{reach_fixpoint, Mask, Seed};
use hbh_sim_core::{FastMap, Time};
use hbh_topo::graph::NodeId;

/// Deadline of an entry that never expires (hard state).
pub(crate) const NEVER: Time = Time(u64::MAX);

/// [`Entry::settled`] of a claim no fusion pass has vouched for.
const UNSETTLED: u64 = u64::MAX;

/// One table row: the downstream node, its mark, its two deadlines and —
/// for fusion senders — the target set its last accepted fusion claimed.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub node: NodeId,
    /// Fusion rule (2): forwards tree messages, not data.
    pub marked: bool,
    /// Stale from here on.
    pub t1: Time,
    /// Dead (absent everywhere) from here on.
    pub t2: Time,
    /// The claim as received: order and duplicates kept.
    raw: Vec<NodeId>,
    /// The same set, sorted and deduplicated.
    claim: Vec<NodeId>,
    /// The table revision at which a full fusion pass over `raw` was
    /// accepted and changed nothing but this entry's deadlines.
    settled: u64,
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
}

/// `a ⊆ b` for sorted, deduplicated slices: one merge.
fn is_subset(a: &[NodeId], b: &[NodeId]) -> bool {
    let mut b = b.iter();
    a.len() <= b.len() && a.iter().all(|x| b.find(|&y| y >= x) == Some(x))
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
    /// Bit `i` set iff `entries[i]` receives data through this table;
    /// filled by the first question that needs it.
    reach: Option<Mask>,
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
    /// The claim under consideration, sorted and deduplicated
    /// ([`Self::load_claim`]); reused across fusions.
    loaded: Vec<NodeId>,
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
            raw: Vec::new(),
            claim: Vec::new(),
            settled: UNSETTLED,
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

    fn calm_holds(&self, now: Time) -> bool {
        let calm = self.calm.as_ref();
        calm.is_some_and(|c| c.rev == self.rev && c.since <= now && now < c.until)
    }

    /// The calm stretch around `now`, opened here if none holds.
    fn calm(&mut self, now: Time) -> &mut Calm {
        if !self.calm_holds(now) {
            if self.calm.as_ref().is_some_and(|c| c.rev == self.rev) {
                // The clock walked out of this revision's stretch: entries
                // may have died with nobody looking, a change like any
                // other — whatever was settled before it is not settled
                // now.
                self.rev += 1;
            }
            let until = self.live(now).map(|e| e.t2).min().unwrap_or(NEVER);
            self.calm = Some(Calm {
                rev: self.rev,
                since: now,
                until,
                reach: None,
            });
        }
        self.calm.as_mut().expect("just opened")
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
    ///
    /// Fills the calm stretch's mask if this is the first question to need
    /// it; [`Self::known_reach`] then reads it next to the entries.
    fn fill_reach(&mut self, now: Time) {
        self.calm(now);
        let entries = &self.entries;
        let calm = self.calm.as_mut().expect("just opened");
        calm.reach.get_or_insert_with(|| {
            reach_fixpoint(
                entries.len(),
                |i| {
                    let e = &entries[i];
                    if e.is_dead(now) {
                        Seed::Skip
                    } else if e.marked {
                        Seed::Pending // reachable only via a coverer
                    } else {
                        Seed::Reach
                    }
                },
                |j, i| entries[j].claims(entries[i].node),
            )
        });
    }

    fn known_reach(&self) -> &Mask {
        let calm = self.calm.as_ref().expect("fill_reach opened it");
        calm.reach.as_ref().expect("fill_reach filled it")
    }

    /// The live, data-reachable entry other than `n` whose coverage claims
    /// `n`, if any — the branching node that actually serves `n`. A
    /// claimant that is itself marked counts only if its own coverer chain
    /// bottoms out at a live unmarked entry (see [`Self::fill_reach`]); an
    /// orphaned marked claimant receives nothing and serves nobody.
    pub fn server_of(&mut self, n: NodeId, now: Time) -> Option<NodeId> {
        // Fast path: no live entry claims `n` at all (the common case at
        // routers with no fusion activity) — skip the fixpoint entirely.
        if !self.live(now).any(|e| e.node != n && e.claims(n)) {
            return None;
        }
        self.fill_reach(now);
        let reach = self.known_reach();
        let mut claimants = self.entries.iter().enumerate();
        claimants.find_map(|(i, e)| (reach.test(i) && e.node != n && e.claims(n)).then_some(e.node))
    }

    /// Sorts and deduplicates `nodes` into the table's buffer, for the
    /// `*_loaded` questions below.
    pub fn load_claim(&mut self, nodes: &[NodeId]) {
        self.loaded.clear();
        self.loaded.extend_from_slice(nodes);
        self.loaded.sort_unstable();
        self.loaded.dedup();
    }

    /// Is the loaded claim contained in the coverage of a live,
    /// data-reachable entry other than `sender`? If so, an incoming fusion
    /// from `sender` is subsumed by an already-installed branching node
    /// and must be ignored (see the nested-fusion note in
    /// [`crate::tables`]). An orphaned marked coverer receives no data and
    /// serves nobody — it cannot veto a fusion from a node that is asking
    /// to serve the subtree itself.
    pub fn covers_loaded(&mut self, sender: NodeId, now: Time) -> bool {
        let covers = |e: &Entry, loaded: &[NodeId]| {
            e.node != sender && !e.claim.is_empty() && is_subset(loaded, &e.claim)
        };
        // Fast path: no live entry other than `sender` even claims the
        // whole set — skip the fixpoint.
        if !self.live(now).any(|e| covers(e, &self.loaded)) {
            return false;
        }
        self.fill_reach(now);
        let reach = self.known_reach();
        let mut coverers = self.entries.iter().enumerate();
        coverers.any(|(i, e)| reach.test(i) && covers(e, &self.loaded))
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

    /// Installs `bp` as the sender of the loaded claim, which it listed as
    /// `nodes`. Live unmarked senders other than `bp` whose claims are
    /// contained in it are subsumed — marked: they sit deeper on the same
    /// paths and their subtrees are now served through `bp`. `bp`'s live
    /// row gets its deadlines restarted at `(t1, t2)`, or a new row with
    /// them is appended; then the claim is recorded. Returns `(subsumed
    /// any, row is new, claim differs from the installed one as a list)`.
    pub fn install_loaded(
        &mut self,
        bp: NodeId,
        nodes: &[NodeId],
        now: Time,
        (t1, t2): (Time, Time),
    ) -> (bool, bool, bool) {
        let before = self.rev;
        for e in &mut self.entries {
            if e.node != bp
                && !e.is_dead(now)
                && !e.claim.is_empty()
                && !e.marked
                && is_subset(&e.claim, &self.loaded)
            {
                e.marked = true;
                self.rev += 1;
            }
        }
        let subsumed = self.rev != before;
        let fresh = !self.touch(bp, now, t1, t2);
        if fresh {
            self.insert(bp, t1, t2);
        }
        let e = &mut self.entries[self.index[&bp]];
        let reclaimed = e.raw != nodes;
        if reclaimed {
            // In-place copies: refreshes repeat the same claim far more
            // often than they change it, so reuse the existing allocations.
            e.raw.clear();
            e.raw.extend_from_slice(nodes);
            e.claim.clear();
            e.claim.extend_from_slice(&self.loaded);
            self.rev += 1;
        }
        (subsumed, fresh, reclaimed)
    }

    /// Opens a full fusion pass at `now`: makes sure a calm stretch holds
    /// around it and returns the revision, for [`Self::settle`].
    pub fn begin_pass(&mut self, now: Time) -> u64 {
        self.calm(now).rev
    }

    /// Closes a full pass from `bp` that [`Self::begin_pass`] opened at
    /// revision `began` and that accepted the claim: if it left the
    /// revision where it was, the next verbatim repeat inside the calm
    /// stretch may be replayed.
    pub fn settle(&mut self, bp: NodeId, began: u64, now: Time) {
        if self.rev != began {
            return;
        }
        if let Some(i) = self.pos(bp, now) {
            self.entries[i].settled = began;
        }
    }

    /// The exact replay rule: does `nodes` repeat `bp`'s installed claim
    /// byte for byte, at the very revision at which a full pass over that
    /// claim was accepted and changed nothing, with `now` still inside the
    /// calm stretch that pass ran in? Running the pass again would read
    /// the same rows, marks and claims and decide the same way, so the
    /// soft table applies the pass's one clock-dependent effect (rule (4)'s
    /// refresh) and skips the rest. The hard table has no replay: its
    /// fusions are sent on change, and every one takes the full pass.
    pub fn replays(&self, bp: NodeId, nodes: &[NodeId], now: Time) -> bool {
        self.calm_holds(now)
            && self
                .get(bp, now)
                .is_some_and(|e| e.settled == self.rev && e.raw == nodes)
    }
}
