//! The priority queue of the core search: a monotone radix heap (Ahuja,
//! Mehlhorn, Orlin and Tarjan, *Faster algorithms for the shortest path
//! problem*, JACM 1990).
//!
//! Dijkstra's keys are monotone — nothing pushed is smaller than the last
//! key popped — and they are integer path costs. A radix heap uses both:
//! a key goes into one of 65 buckets by the highest bit in which it
//! differs from the last popped key (bucket 0: no bit, the key *is* the
//! last popped key). A push is one `Vec::push`. A pop takes from bucket 0;
//! when that is empty, the lowest non-empty bucket becomes the new minimum
//! and is redistributed around it, every element moving to a strictly
//! lower bucket, so each element moves at most 64 times over its life.
//!
//! Among equal keys the pop order is unspecified (bucket 0 is a stack).
//! The search does not depend on it; `dijkstra.rs` says why.

use hbh_topo::graph::PathCost;

/// Buckets: one for "equal to the last key", one per bit of a `u64`.
const BUCKETS: usize = PathCost::BITS as usize + 1;

/// A min-heap of `(key, value)` pairs for monotone keys. The buckets keep
/// their capacity across [`RadixHeap::clear`], so a heap reused from search
/// to search allocates only while it grows.
pub(crate) struct RadixHeap<V> {
    /// The last key popped (0 before the first pop).
    last: PathCost,
    buckets: [Vec<(PathCost, V)>; BUCKETS],
}

impl<V> Default for RadixHeap<V> {
    fn default() -> Self {
        RadixHeap {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl<V> RadixHeap<V> {
    /// The bucket of `key` relative to the last popped key.
    fn bucket(&self, key: PathCost) -> usize {
        (PathCost::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Adds `value` under `key`, which must be no smaller than the last key
    /// popped.
    pub(crate) fn push(&mut self, key: PathCost, value: V) {
        debug_assert!(key >= self.last, "radix heap key {key} < {}", self.last);
        let b = self.bucket(key);
        self.buckets[b].push((key, value));
    }

    /// Removes and returns an entry with the smallest key.
    pub(crate) fn pop(&mut self) -> Option<(PathCost, V)> {
        if self.buckets[0].is_empty() {
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut spill = std::mem::take(&mut self.buckets[i]);
            self.last = spill.iter().map(|&(key, _)| key).min().expect("non-empty");
            for (key, value) in spill.drain(..) {
                let b = self.bucket(key);
                self.buckets[b].push((key, value));
            }
            self.buckets[i] = spill;
        }
        self.buckets[0].pop()
    }

    /// Empties the heap and forgets the last key, keeping the buckets'
    /// capacity.
    pub(crate) fn clear(&mut self) {
        self.last = 0;
        self.buckets.iter_mut().for_each(Vec::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(h: &mut RadixHeap<u32>) -> Vec<(PathCost, u32)> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    #[test]
    fn pops_in_key_order() {
        let mut h = RadixHeap::default();
        for (k, v) in [(5, 0), (1, 1), (9, 2), (1 << 40, 3), (3, 4), (0, 5)] {
            h.push(k, v);
        }
        let keys: Vec<PathCost> = drain(&mut h).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [0, 1, 3, 5, 9, 1 << 40]);
        assert!(h.pop().is_none());
    }

    #[test]
    fn pushes_between_pops_may_equal_the_last_key() {
        let mut h = RadixHeap::default();
        h.push(4, 0);
        h.push(7, 1);
        assert_eq!(h.pop(), Some((4, 0)));
        h.push(4, 2);
        h.push(6, 3);
        assert_eq!(h.pop(), Some((4, 2)));
        assert_eq!(h.pop(), Some((6, 3)));
        h.push(PathCost::MAX, 4);
        assert_eq!(h.pop(), Some((7, 1)));
        assert_eq!(h.pop(), Some((PathCost::MAX, 4)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn equal_keys_all_come_out() {
        let mut h = RadixHeap::default();
        for v in 0..5 {
            h.push(1 << 20, v);
        }
        h.push(3, 9);
        let out = drain(&mut h);
        assert_eq!(out[0], (3, 9));
        assert!(out[1..].iter().all(|&(k, _)| k == 1 << 20));
        let mut rest: Vec<u32> = out[1..].iter().map(|&(_, v)| v).collect();
        rest.sort_unstable();
        assert_eq!(rest, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn clear_forgets_the_last_key() {
        let mut h = RadixHeap::default();
        h.push(100, 0);
        h.push(200, 1);
        assert_eq!(h.pop(), Some((100, 0)));
        h.clear();
        assert_eq!(h.pop(), None);
        h.push(2, 2);
        h.push(1, 3);
        assert_eq!(drain(&mut h), [(1, 3), (2, 2)]);
    }

    /// Drains both heaps: the same keys in the same order, and per key the
    /// same multiset of values over everything popped since `got` and
    /// `want` were last empty.
    fn drain_both(
        radix: &mut RadixHeap<u32>,
        model: &mut BinaryHeap<Reverse<(PathCost, u32)>>,
        got: &mut Vec<(PathCost, u32)>,
        want: &mut Vec<(PathCost, u32)>,
    ) -> Result<(), TestCaseError> {
        while let Some(Reverse(w)) = model.pop() {
            let g = radix.pop();
            prop_assert_eq!(g.map(|g| g.0), Some(w.0));
            got.push(g.unwrap());
            want.push(w);
        }
        prop_assert_eq!(radix.pop(), None);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(std::mem::take(got), std::mem::take(want));
        Ok(())
    }

    /// One monotone push/pop interleaving, run through a radix heap and a
    /// `BinaryHeap`. Each step pops, or pushes a key a random distance
    /// above the last pop — 0 (runs of equal keys), a few units, or up to
    /// 2^40, the reach of `qos::BLOCKED_COST` paths. `rounds - 1` times
    /// along the way both heaps are drained and compared, the radix heap
    /// is left holding stray entries, and both are cleared and reused.
    fn matches_binary_heap(seed: u64, steps: usize, rounds: usize) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut radix = RadixHeap::default();
        let mut model = BinaryHeap::new();
        let round = steps.div_ceil(rounds);
        let mut last = 0;
        // Every `(key, value)` popped since the last clear, both sides.
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for step in 0..steps {
            if step > 0 && step % round == 0 {
                drain_both(&mut radix, &mut model, &mut got, &mut want)?;
                radix.push(1 << 60, u32::MAX);
                radix.push(PathCost::MAX, u32::MAX);
                radix.clear();
                last = 0;
            } else if rng.random_range(0..3u32) == 0 {
                let (g, w) = (radix.pop(), model.pop().map(|Reverse(w)| w));
                prop_assert_eq!(g.map(|g| g.0), w.map(|w| w.0), "step {}", step);
                if let (Some(g), Some(w)) = (g, w) {
                    last = g.0;
                    got.push(g);
                    want.push(w);
                }
            } else {
                let key = last
                    + match rng.random_range(0..4u32) {
                        0 => 0,
                        1 => rng.random_range(1..16u64),
                        2 => rng.random_range(1..(1u64 << 20)),
                        _ => rng.random_range(1..(1u64 << 40)),
                    };
                radix.push(key, step as u32);
                model.push(Reverse((key, step as u32)));
            }
        }
        drain_both(&mut radix, &mut model, &mut got, &mut want)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        #[test]
        fn pops_like_a_binary_heap(seed in 0u64..1_000_000, steps in 1usize..400, rounds in 1usize..4) {
            matches_binary_heap(seed, steps, rounds)?;
        }
    }

    // 64× the cases: CI runs it with `cargo test --release -p hbh-routing
    // -- --ignored`.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

        #[test]
        #[ignore = "4,096 cases: CI runs it in release"]
        fn pops_like_a_binary_heap_at_length(
            seed in 0u64..1_000_000, steps in 1usize..400, rounds in 1usize..4,
        ) {
            matches_binary_heap(seed, steps, rounds)?;
        }
    }
}
