//! A dense bitset over [`EdgeId`]s.
//!
//! The hitting-set hot loop spends its time asking "does this failure set
//! contain edge e?" for every candidate × set pair. A dense `Vec<u64>`
//! answers that with one word load and turns set-overlap scoring into
//! popcounts, replacing the pointer-chasing `BTreeSet<EdgeId>` the seed
//! implementation used. Iteration order is ascending edge id — the same
//! order a `BTreeSet` yields — so greedy tie-breaking is bit-identical.

use crate::graph::EdgeId;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A set of [`EdgeId`]s stored as a dense bit vector.
///
/// Edge ids are small dense indices (the diagnosis graph numbers edges from
/// zero), so a `Vec<u64>` with one bit per possible edge is both compact
/// and fast. Trailing zero words are allowed and ignored by comparisons:
/// two sets with the same members are equal regardless of capacity.
#[derive(Clone, Debug, Default)]
pub struct EdgeBitSet {
    words: Vec<u64>,
}

impl EdgeBitSet {
    /// An empty set.
    pub fn new() -> Self {
        EdgeBitSet { words: Vec::new() }
    }

    /// An empty set with room for edges `0..n_edges` without reallocating.
    pub fn with_capacity(n_edges: usize) -> Self {
        EdgeBitSet {
            words: vec![0; n_edges.div_ceil(WORD_BITS)],
        }
    }

    /// The set of `edges`, allocated once at the length a sequence of
    /// [`insert`](Self::insert)s would reach (so `words()` — and the word
    /// counts scoring loops report — do not change).
    pub(crate) fn from_edges(edges: &[EdgeId]) -> Self {
        let len = edges.iter().map(|e| e.index() / WORD_BITS + 1).max();
        let mut words = vec![0; len.unwrap_or(0)];
        for e in edges {
            words[e.index() / WORD_BITS] |= 1 << (e.index() % WORD_BITS);
        }
        EdgeBitSet { words }
    }

    /// Adds an edge. Returns true if it was not already present.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        let (w, b) = (e.index() / WORD_BITS, e.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes an edge. Returns true if it was present.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        let (w, b) = (e.index() / WORD_BITS, e.index() % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test: one word load.
    // hot
    pub fn contains(&self, e: EdgeId) -> bool {
        let (w, b) = (e.index() / WORD_BITS, e.index() % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members (popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no edge is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// True when the two sets share at least one member.
    // hot
    pub fn intersects(&self, other: &EdgeBitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Keeps only the members for which `keep` returns true.
    // hot
    pub fn retain(&mut self, mut keep: impl FnMut(EdgeId) -> bool) {
        for w in 0..self.words.len() {
            let mut word = self.words[w];
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                let e = EdgeId((w * WORD_BITS + b) as u32);
                if !keep(e) {
                    self.words[w] &= !(1 << b);
                }
            }
        }
    }

    /// Iterates members in ascending edge-id order (the `BTreeSet` order).
    // hot
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(EdgeId((w * WORD_BITS + b) as u32))
            })
        })
    }

    /// The backing words (low edge ids first). Exposed so scoring loops can
    /// account for the words they touch (`hitting_set.words_scanned`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl PartialEq for EdgeBitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for EdgeBitSet {}

impl FromIterator<EdgeId> for EdgeBitSet {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        let mut s = EdgeBitSet::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl Extend<EdgeId> for EdgeBitSet {
    fn extend<I: IntoIterator<Item = EdgeId>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<'a> IntoIterator for &'a EdgeBitSet {
    type Item = EdgeId;
    type IntoIter = Box<dyn Iterator<Item = EdgeId> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl<const N: usize> From<[EdgeId; N]> for EdgeBitSet {
    fn from(edges: [EdgeId; N]) -> Self {
        edges.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = EdgeBitSet::new();
        assert!(s.insert(e(3)));
        assert!(!s.insert(e(3)));
        assert!(s.contains(e(3)));
        assert!(!s.contains(e(4)));
        assert!(s.remove(e(3)));
        assert!(!s.remove(e(3)));
        assert!(s.is_empty());
        // Out-of-capacity queries are just "absent".
        assert!(!s.contains(e(1000)));
        assert!(!s.remove(e(1000)));
    }

    #[test]
    fn iteration_is_ascending_like_btreeset() {
        use std::collections::BTreeSet;
        let ids = [77u32, 0, 64, 63, 5, 128];
        let bits: EdgeBitSet = ids.iter().map(|&i| e(i)).collect();
        let tree: BTreeSet<EdgeId> = ids.iter().map(|&i| e(i)).collect();
        assert_eq!(
            bits.iter().collect::<Vec<_>>(),
            tree.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(bits.len(), ids.len());
    }

    #[test]
    fn from_edges_matches_repeated_inserts_word_for_word() {
        for ids in [&[][..], &[3], &[200, 5, 64, 5], &[63, 0]] {
            let edges: Vec<EdgeId> = ids.iter().map(|&i| e(i)).collect();
            let inserted: EdgeBitSet = edges.iter().copied().collect();
            assert_eq!(EdgeBitSet::from_edges(&edges).words(), inserted.words());
        }
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a = EdgeBitSet::with_capacity(1000);
        let mut b = EdgeBitSet::new();
        a.insert(e(2));
        b.insert(e(2));
        assert_eq!(a, b);
        b.insert(e(999));
        assert_ne!(a, b);
    }

    #[test]
    fn retain_and_intersects() {
        let mut s: EdgeBitSet = (0..200).map(e).collect();
        s.retain(|edge| edge.0 % 3 == 0);
        assert_eq!(s.len(), 67);
        assert!(s.contains(e(198)) && !s.contains(e(199)));
        let other: EdgeBitSet = [e(198)].into();
        assert!(s.intersects(&other));
        let disjoint: EdgeBitSet = [e(1)].into();
        assert!(!s.intersects(&disjoint));
        assert!(!s.intersects(&EdgeBitSet::new()));
    }
}
