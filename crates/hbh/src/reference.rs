//! The scan-based forwarding tables the coverage core ([`crate::claims`])
//! replaced, verbatim but for names, doc comments and the soft entries'
//! deadlines, mark and stale refresh, which live here now: the reference
//! model `table_proptests` drives side by side with the indexed tables.
//! Every coverage question here is the original
//! `entries.any(nodes.all(covers.contains))` scan plus a fresh reach
//! fixpoint, and `fusion` is the body each engine's `fusion_at_node` had
//! before it was lifted onto the tables, the soft one without the
//! nested-fusion veto the hard one keeps, and neither marking the
//! narrower senders a new claim contains. The fixpoint is the pairwise one
//! the tables ran before reach propagated along claims: no code is shared
//! with the table it witnesses.

use hbh_proto_base::Timing;
use hbh_sim_core::Time;
use hbh_topo::graph::NodeId;

/// How an entry seeds the reach fixpoint.
pub enum Seed {
    /// Not participating (dead entry).
    Skip,
    /// Directly served: data fans out to it from this table.
    Reach,
    /// Marked: reachable only if a reachable entry's coverage claims it.
    Pending,
}

/// Least fixpoint of coverage reachability over `len` entries. `seed`
/// classifies each entry; `claims(j, i)` answers whether entry `j`'s
/// coverage set claims entry `i`'s node. Frontier propagation in rounds:
/// only entries that became reachable in the previous round can newly
/// claim a pending one, so each round asks the frontier × pending pairs.
/// Coverage chains can nest — B3 serves B2 serves B1 — which is why one
/// hop is not enough.
pub fn reach_fixpoint(
    len: usize,
    seed: impl Fn(usize) -> Seed,
    claims: impl Fn(usize, usize) -> bool,
) -> Vec<bool> {
    let mut reach = vec![false; len];
    let mut pending = vec![false; len];
    for i in 0..len {
        match seed(i) {
            Seed::Skip => {}
            Seed::Reach => reach[i] = true,
            Seed::Pending => pending[i] = true,
        }
    }
    let mut frontier: Vec<usize> = (0..len).filter(|&i| reach[i]).collect();
    while !frontier.is_empty() {
        let newly: Vec<usize> = (0..len)
            .filter(|&i| pending[i] && frontier.iter().any(|&j| claims(j, i)))
            .collect();
        for &i in &newly {
            (reach[i], pending[i]) = (true, false);
        }
        frontier = newly;
    }
    reach
}

/// An entry with its own t1 and t2 deadlines; expiry is inclusive.
#[derive(Clone, Debug)]
struct RefEntry {
    node: NodeId,
    t1: Time,
    t2: Time,
    marked: bool,
    covers: Vec<NodeId>,
}

impl RefEntry {
    fn is_dead(&self, now: Time) -> bool {
        now >= self.t2
    }
}

#[derive(Clone, Debug, Default)]
pub struct RefMft {
    entries: Vec<RefEntry>,
}

impl RefMft {
    fn get(&self, n: NodeId, now: Time) -> Option<&RefEntry> {
        self.entries.iter().find(|e| e.node == n && !e.is_dead(now))
    }

    fn get_mut(&mut self, n: NodeId, now: Time) -> Option<&mut RefEntry> {
        self.entries
            .iter_mut()
            .find(|e| e.node == n && !e.is_dead(now))
    }

    pub fn contains(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some()
    }

    pub fn is_marked(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some_and(|e| e.marked)
    }

    pub fn is_stale(&self, n: NodeId, now: Time) -> bool {
        self.get(n, now).is_some_and(|e| now >= e.t1)
    }

    pub fn refresh_or_insert(&mut self, n: NodeId, now: Time, timing: &Timing) -> bool {
        if let Some(e) = self.get_mut(n, now) {
            (e.t1, e.t2) = (now + timing.t1(), now + timing.t2);
            return false;
        }
        self.purge(n);
        self.entries.push(RefEntry {
            node: n,
            t1: now + timing.t1(),
            t2: now + timing.t2,
            marked: false,
            covers: Vec::new(),
        });
        true
    }

    pub fn mark(&mut self, n: NodeId, now: Time) -> bool {
        match self.get_mut(n, now) {
            Some(e) if !e.marked => {
                e.marked = true;
                true
            }
            _ => false,
        }
    }

    pub fn unmark(&mut self, n: NodeId, now: Time) -> bool {
        match self.get_mut(n, now) {
            Some(e) if e.marked => {
                e.marked = false;
                true
            }
            _ => false,
        }
    }

    fn data_reachable(&self, now: Time) -> Vec<bool> {
        reach_fixpoint(
            self.entries.len(),
            |i| {
                let e = &self.entries[i];
                if e.is_dead(now) {
                    Seed::Skip
                } else if e.marked {
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

    pub fn served_by_other(&self, n: NodeId, now: Time) -> bool {
        // Fast path: no live entry claims `n` at all (the common case at
        // routers with no fusion activity) — skip the fixpoint entirely.
        if !self
            .entries
            .iter()
            .any(|e| !e.is_dead(now) && e.node != n && e.covers.contains(&n))
        {
            return false;
        }
        let reach = self.data_reachable(now);
        self.entries
            .iter()
            .enumerate()
            .any(|(i, e)| reach[i] && e.node != n && e.covers.contains(&n))
    }

    pub fn install_fusion_sender(
        &mut self,
        bp: NodeId,
        covers: &[NodeId],
        now: Time,
        timing: &Timing,
    ) -> bool {
        if let Some(e) = self.get_mut(bp, now) {
            // Fusion rules (3) and (4) in one: t1 expired on the spot, t2
            // restarted.
            (e.t1, e.t2) = (now, now + timing.t2);
            // In-place copy: refreshes repeat the same claim far more often
            // than they change it, so reuse the existing allocation.
            e.covers.clear();
            e.covers.extend_from_slice(covers);
            return false;
        }
        self.purge(bp);
        self.entries.push(RefEntry {
            node: bp,
            t1: now,
            t2: now + timing.t2,
            marked: false,
            covers: covers.to_vec(),
        });
        true
    }

    pub fn data_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| !e.is_dead(now) && !e.marked)
            .map(|e| e.node)
    }

    pub fn tree_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| !e.is_dead(now) && (now < e.t1 || !e.marked))
            .map(|e| e.node)
    }

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

    pub fn live(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |e| !e.is_dead(now))
            .map(|e| e.node)
    }

    pub fn reap(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.is_dead(now));
        before - self.entries.len()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn purge(&mut self, n: NodeId) {
        self.entries.retain(|e| e.node != n);
    }
}

impl RefMft {
    /// `Hbh::repair_orphaned_mark` without the kernel.
    pub fn repair_orphaned_mark(&mut self, who: NodeId, now: Time) -> bool {
        self.is_marked(who, now) && !self.served_by_other(who, now) && self.unmark(who, now)
    }

    /// `Hbh::fusion_at_node` without the kernel: how many times it called
    /// `structural_change`.
    pub fn fusion(&mut self, bp: NodeId, nodes: &[NodeId], now: Time, timing: &Timing) -> usize {
        let relevant: Vec<NodeId> = self.intersect(nodes, now).collect();
        if relevant.is_empty() {
            return 0;
        }
        let mut structural = 0;
        for n in relevant {
            structural += usize::from(self.mark(n, now));
        }
        structural + usize::from(self.install_fusion_sender(bp, nodes, now, timing))
    }
}

#[derive(Clone, Debug)]
struct RefHardEntry {
    node: NodeId,
    marked: bool,
    covers: Vec<NodeId>,
}

#[derive(Clone, Debug, Default)]
pub struct RefHardMft {
    entries: Vec<RefHardEntry>,
}

impl RefHardMft {
    fn get(&self, n: NodeId) -> Option<&RefHardEntry> {
        self.entries.iter().find(|e| e.node == n)
    }

    fn get_mut(&mut self, n: NodeId) -> Option<&mut RefHardEntry> {
        self.entries.iter_mut().find(|e| e.node == n)
    }

    pub fn contains(&self, n: NodeId) -> bool {
        self.get(n).is_some()
    }

    pub fn is_marked(&self, n: NodeId) -> bool {
        self.get(n).is_some_and(|e| e.marked)
    }

    pub fn insert(&mut self, n: NodeId) -> bool {
        if self.contains(n) {
            return false;
        }
        self.entries.push(RefHardEntry {
            node: n,
            marked: false,
            covers: Vec::new(),
        });
        true
    }

    pub fn remove(&mut self, n: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.node != n);
        before != self.entries.len()
    }

    pub fn mark(&mut self, n: NodeId) -> bool {
        match self.get_mut(n) {
            Some(e) if !e.marked => {
                e.marked = true;
                true
            }
            _ => false,
        }
    }

    pub fn unmark(&mut self, n: NodeId) -> bool {
        match self.get_mut(n) {
            Some(e) if e.marked => {
                e.marked = false;
                true
            }
            _ => false,
        }
    }

    fn data_reachable(&self) -> Vec<bool> {
        reach_fixpoint(
            self.entries.len(),
            |i| {
                if self.entries[i].marked {
                    Seed::Pending
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

    pub fn served_by_other(&self, n: NodeId) -> bool {
        self.server_of(n).is_some()
    }

    pub fn server_of(&self, n: NodeId) -> Option<NodeId> {
        if !self
            .entries
            .iter()
            .any(|e| e.node != n && e.covers.contains(&n))
        {
            return None;
        }
        let reach = self.data_reachable();
        self.entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| (reach[i] && e.node != n && e.covers.contains(&n)).then_some(e.node))
    }

    pub fn covered_by_other(&self, nodes: &[NodeId], sender: NodeId) -> bool {
        if !self.entries.iter().any(|e| {
            e.node != sender && !e.covers.is_empty() && nodes.iter().all(|n| e.covers.contains(n))
        }) {
            return false;
        }
        let reach = self.data_reachable();
        self.entries.iter().enumerate().any(|(i, e)| {
            reach[i]
                && e.node != sender
                && !e.covers.is_empty()
                && nodes.iter().all(|n| e.covers.contains(n))
        })
    }

    pub fn install_fusion_sender(&mut self, bp: NodeId, covers: &[NodeId]) -> bool {
        if let Some(e) = self.get_mut(bp) {
            if e.covers == covers {
                return false;
            }
            e.covers.clear();
            e.covers.extend_from_slice(covers);
            return true;
        }
        self.entries.push(RefHardEntry {
            node: bp,
            marked: false,
            covers: covers.to_vec(),
        });
        true
    }

    pub fn unmark_orphans(&mut self) -> Vec<NodeId> {
        let marked: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.marked)
            .map(|e| e.node)
            .collect();
        let mut orphans = Vec::new();
        for n in marked {
            if !self.served_by_other(n) {
                self.unmark(n);
                orphans.push(n);
            }
        }
        orphans
    }

    pub fn data_targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().filter(|e| !e.marked).map(|e| e.node)
    }

    pub fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn approx_bytes(&self) -> usize {
        self.entries.iter().map(|e| 5 + 4 * e.covers.len()).sum()
    }
}

impl RefHardMft {
    /// `HbhHard::fusion_at_node` without the kernel: `(changed,
    /// serve_from)`.
    pub fn fusion(&mut self, from: NodeId, nodes: &[NodeId]) -> (bool, bool) {
        let relevant: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&n| n != from && self.contains(n))
            .collect();
        if relevant.is_empty() {
            return (false, false);
        }
        if self.covered_by_other(nodes, from) {
            return (false, false);
        }
        let mut changed = false;
        for n in relevant {
            changed |= self.mark(n);
        }
        let had_from = self.contains(from);
        let was_marked = self.is_marked(from);
        changed |= self.install_fusion_sender(from, nodes);
        if self.is_marked(from) && !self.served_by_other(from) {
            self.unmark(from);
            changed = true;
        }
        (changed, !had_from || (was_marked && !self.is_marked(from)))
    }
}

/// Node ids the differential checks sweep: the tests draw table members
/// from `0..10` and claim members from the whole range, so `10..13` are
/// only ever claimed, never present.
pub const UNIVERSE: u32 = 13;

fn order(it: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    it.collect()
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, new: T, old: T) -> Result<(), String> {
    if new == old {
        return Ok(());
    }
    Err(format!("{what}: indexed {new:?}, reference {old:?}"))
}

/// Everything observable about a soft MFT at `now`, indexed table against
/// reference: membership, marks, phases, who serves whom, the **order** of
/// the three fan-out sets and of the fusion list, and the raw length.
pub fn soft_diff(new: &mut crate::tables::HbhMft, old: &RefMft, now: Time) -> Result<(), String> {
    same("len", new.len(), old.len())?;
    same("is_empty", new.is_empty(), old.is_empty())?;
    for n in (0..UNIVERSE).map(NodeId) {
        same(
            &format!("contains({n})"),
            new.contains(n, now),
            old.contains(n, now),
        )?;
        same(
            &format!("is_marked({n})"),
            new.is_marked(n, now),
            old.is_marked(n, now),
        )?;
        same(
            &format!("is_stale({n})"),
            new.is_stale(n, now),
            old.is_stale(n, now),
        )?;
        let (served, want) = (new.served_by_other(n, now), old.served_by_other(n, now));
        same(&format!("served_by_other({n})"), served, want)?;
    }
    same("live", order(new.live(now)), order(old.live(now)))?;
    let listed = new.fusion_list(now).to_vec();
    same("fusion_list", listed, order(old.live(now)))?;
    let (data, want) = (order(new.data_targets(now)), order(old.data_targets(now)));
    same("data_targets", data, want)?;
    let (tree, want) = (order(new.tree_targets(now)), order(old.tree_targets(now)));
    same("tree_targets", tree, want)
}

/// [`soft_diff`] for the hard table, plus its byte footprint.
pub fn hard_diff(new: &mut crate::hard::HardMft, old: &RefHardMft) -> Result<(), String> {
    same("len", new.len(), old.len())?;
    same("is_empty", new.is_empty(), old.is_empty())?;
    same("approx_bytes", new.approx_bytes(), old.approx_bytes())?;
    for n in (0..UNIVERSE).map(NodeId) {
        same(&format!("contains({n})"), new.contains(n), old.contains(n))?;
        same(
            &format!("is_marked({n})"),
            new.is_marked(n),
            old.is_marked(n),
        )?;
        same(
            &format!("server_of({n})"),
            new.server_of(n),
            old.server_of(n),
        )?;
        let (served, want) = (new.served_by_other(n), old.served_by_other(n));
        same(&format!("served_by_other({n})"), served, want)?;
    }
    same("live", order(new.live()), order(old.live()))?;
    same(
        "data_targets",
        order(new.data_targets()),
        order(old.data_targets()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixpoint_follows_nested_chains() {
        // 0 direct; 1 covered by 0; 2 covered by 1; 3 orphaned.
        let reach = reach_fixpoint(
            4,
            |i| if i == 0 { Seed::Reach } else { Seed::Pending },
            |j, i| matches!((j, i), (0, 1) | (1, 2)),
        );
        assert_eq!(reach, [true, true, true, false]);
    }

    #[test]
    fn fixpoint_scales_past_the_old_cap() {
        // A 200-entry chain: i covered by i-1, rooted at 0.
        let reach = reach_fixpoint(
            200,
            |i| if i == 0 { Seed::Reach } else { Seed::Pending },
            |j, i| i == j + 1,
        );
        assert!(reach.iter().all(|&r| r));
    }
}
