//! Arbitrary-width bitmasks for the coverage core's reach mask.
//!
//! The soft ([`crate::tables`]) and hard ([`crate::hard`]) forwarding
//! tables both need one flag per entry: does it currently receive data
//! (`ClaimTable::fill_reach`)? The original implementation ran on a stack
//! `u128`, which capped tables at 128 entries — comfortable at the paper's
//! group sizes (≤45) but not at the internet-scale sweeps, where hundreds
//! of receivers can funnel through one access router. [`Mask`] lifts the
//! cap; the table keeps one and re-sizes it in place, so a fill allocates
//! only when the table has grown past every earlier width.

/// A bitmask over entry indices `0..len`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Mask {
    words: Vec<u64>,
}

impl Mask {
    /// Clears every bit and makes room for `len`.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn test(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_over_128_entries() {
        let mut m = Mask::default();
        m.reset(300);
        let set = [0, 63, 64, 127, 128, 255, 299];
        for i in set {
            m.set(i);
        }
        assert_eq!(
            (0..300).filter(|&i| m.test(i)).collect::<Vec<_>>(),
            set.to_vec()
        );
        // Re-sized for a narrower table, nothing survives.
        m.reset(70);
        assert!((0..70).all(|i| !m.test(i)));
    }
}
