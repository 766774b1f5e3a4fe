//! A fixed-size set of node indices, iterated in ascending order, for
//! the network's activity bookkeeping: per-cycle phases visit only the
//! nodes that have work instead of sweeping the whole mesh.

/// A bitset over `0..len` node indices. Allocated once; membership
/// changes are bit operations.
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set able to hold indices `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        NodeSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    pub(crate) fn add(&mut self, node: usize) {
        self.words[node / 64] |= 1u64 << (node % 64);
    }

    pub(crate) fn remove(&mut self, node: usize) {
        self.words[node / 64] &= !(1u64 << (node % 64));
    }

    pub(crate) fn contains(&self, node: usize) -> bool {
        self.words[node / 64] & (1u64 << (node % 64)) != 0
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= from`. Iterating with
    /// `next_from(node + 1)` visits members in ascending order and sees
    /// removals (and insertions above the cursor) made along the way.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_members_in_ascending_order() {
        let mut set = NodeSet::new(130);
        for node in [129, 3, 64, 0, 63] {
            set.add(node);
        }
        let mut seen = Vec::new();
        let mut next = set.next_from(0);
        while let Some(node) = next {
            seen.push(node);
            next = set.next_from(node + 1);
        }
        assert_eq!(seen, vec![0, 3, 63, 64, 129]);
        assert_eq!(set.next_from(130), None);
    }

    #[test]
    fn remove_clears_membership() {
        let mut set = NodeSet::new(64);
        set.add(5);
        assert!(set.contains(5));
        set.remove(5);
        assert!(!set.contains(5));
        assert_eq!(set.next_from(0), None);
    }
}
