//! What the kernel needs of a node state to fast-forward through a run
//! that repeats itself ([`crate::Kernel::fast_forward`], `DESIGN.md` §6e).

use crate::time::Time;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// A node state whose stored times can all be moved, and that can tell
/// whether it repeats an earlier copy of itself.
///
/// The kernel copies every touched state at the start of a window, runs
/// the window, and asks each state whether it [`repeats`] its copy moved
/// by the window's length. The answer must be a behavioural equivalence:
/// two states it calls equal react to every later event alike, up to the
/// same shift of every time they store. So a counter whose only use is to
/// be compared for equality is compared by that relation, not by value,
/// and what a state keeps only to answer faster (a memo of an answer that
/// is a function of the rest) is left out. When unsure, answer `false`:
/// the kernel then dispatches the events as usual.
///
/// [`repeats`]: SteadyState::repeats
pub trait SteadyState: Clone {
    /// `false` for a state type that never repeats: the kernel then takes
    /// no copies to compare.
    const MAY_REPEAT: bool = true;

    /// Whether `self` is `earlier` with every stored time `by` later.
    fn repeats(&self, earlier: &Self, by: u64) -> bool;

    /// Moves every stored time `by` later.
    fn advance(&mut self, by: u64);
}

impl SteadyState for Time {
    fn repeats(&self, earlier: &Self, by: u64) -> bool {
        earlier.0.checked_add(by) == Some(self.0)
    }

    fn advance(&mut self, by: u64) {
        *self += by;
    }
}

/// A state with nothing in it repeats itself.
impl SteadyState for () {
    fn repeats(&self, (): &(), _: u64) -> bool {
        true
    }

    fn advance(&mut self, _: u64) {}
}

impl<T: SteadyState> SteadyState for Option<T> {
    fn repeats(&self, earlier: &Self, by: u64) -> bool {
        match (self, earlier) {
            (Some(a), Some(b)) => a.repeats(b, by),
            (None, None) => true,
            _ => false,
        }
    }

    fn advance(&mut self, by: u64) {
        if let Some(t) = self {
            t.advance(by);
        }
    }
}

/// Key for key, value repeating value. A handler that iterated the map
/// would make its layout observable; the engines only look keys up.
impl<K, V, S> SteadyState for HashMap<K, V, S>
where
    K: Eq + Hash + Clone,
    V: SteadyState,
    S: BuildHasher + Clone,
{
    fn repeats(&self, earlier: &Self, by: u64) -> bool {
        self.len() == earlier.len()
            && self
                .iter()
                .all(|(k, v)| earlier.get(k).is_some_and(|e| v.repeats(e, by)))
    }

    fn advance(&mut self, by: u64) {
        for v in self.values_mut() {
            v.advance(by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::FastMap;

    #[test]
    fn times_repeat_exactly_shifted() {
        assert!(Time(130).repeats(&Time(30), 100));
        assert!(!Time(131).repeats(&Time(30), 100));
        assert!(!Time(5).repeats(&Time(u64::MAX), 10), "no overflow");
        let mut t = Some(Time(30));
        t.advance(100);
        assert_eq!(t, Some(Time(130)));
        assert!(!Some(Time(1)).repeats(&None, 0));
    }

    #[test]
    fn maps_repeat_key_for_key() {
        let a: FastMap<u8, Time> = [(1, Time(10)), (2, Time(20))].into_iter().collect();
        let mut b = a.clone();
        b.advance(5);
        assert!(b.repeats(&a, 5));
        assert!(!b.repeats(&a, 4));
        b.insert(3, Time(0));
        assert!(!b.repeats(&a, 5), "an extra key");
    }
}
