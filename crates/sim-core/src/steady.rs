//! What the kernel needs of a node state to fast-forward through a run
//! that repeats itself ([`crate::Kernel::fast_forward`], `DESIGN.md` §6e).

use crate::time::Time;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// A node state whose stored times can all be moved.
///
/// The kernel copies every touched state at the start of a window, runs
/// the window, moves each copy by the window's length and compares it with
/// the live state using `==`. So `==` must be a behavioural equivalence:
/// two states it calls equal react to every later event alike. A derived
/// `PartialEq` is one; a type that keeps a memo of an answer that is a
/// function of the rest leaves the memo out of its `PartialEq` instead.
pub trait SteadyState: Clone + PartialEq {
    /// `false` for a state type that never repeats: the kernel then takes
    /// no copies to compare.
    const MAY_REPEAT: bool = true;

    /// Moves every stored time `by` later.
    fn advance(&mut self, by: u64);
}

impl SteadyState for Time {
    fn advance(&mut self, by: u64) {
        *self += by;
    }
}

/// A state with nothing in it repeats itself.
impl SteadyState for () {
    fn advance(&mut self, _: u64) {}
}

impl<T: SteadyState> SteadyState for Option<T> {
    fn advance(&mut self, by: u64) {
        if let Some(t) = self {
            t.advance(by);
        }
    }
}

/// A map's `==` is key for key, whatever its layout. A handler that
/// iterated the map would make the layout observable; the engines only
/// look keys up.
impl<K, V, S> SteadyState for HashMap<K, V, S>
where
    K: Eq + Hash + Clone,
    V: SteadyState,
    S: BuildHasher + Clone,
{
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
        let mut t = Time(30);
        t.advance(100);
        assert_eq!(t, Time(130));
        assert_ne!(t, Time(131));
        let mut t = Some(Time(30));
        t.advance(100);
        assert_eq!(t, Some(Time(130)));
        let mut none: Option<Time> = None;
        none.advance(100);
        assert_ne!(Some(Time(1)), none);
    }

    #[test]
    fn maps_repeat_key_for_key() {
        let a: FastMap<u8, Time> = [(1, Time(10)), (2, Time(20))].into_iter().collect();
        let mut b = a.clone();
        b.advance(5);
        let later: FastMap<u8, Time> = [(1, Time(15)), (2, Time(25))].into_iter().collect();
        assert_eq!(b, later);
        let mut short = a.clone();
        short.advance(4);
        assert_ne!(b, short);
        b.insert(3, Time(0));
        assert_ne!(b, later, "an extra key");
    }
}
