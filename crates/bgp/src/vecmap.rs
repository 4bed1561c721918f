//! Sorted-vector map used for per-router RIB state.
//!
//! The per-router tables are tiny (tens of entries) but are cloned and
//! dropped on every copy-on-write break of the failure/restore hot loop.
//! A `BTreeMap` pays one heap node per handful of entries for that clone;
//! a sorted `Vec` pays a single allocation and a memcpy, and lookups are
//! a binary search over contiguous memory. Iteration order is ascending
//! by key — identical to the `BTreeMap`s these replaced, so message
//! ordering (and therefore every observable) is unchanged.

use std::fmt;

/// A map backed by a `Vec<(K, V)>` kept sorted by key.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

// Manual impl: the derive would demand `K: Default + V: Default`.
impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Index of `k`, or the insertion point keeping the vector sorted.
    #[inline]
    fn search(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(ek, _)| ek.cmp(k))
    }

    /// The value stored under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.search(k).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        match self.search(k) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True when `k` is present.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.search(k).is_ok()
    }

    /// Inserts or replaces, returning the previous value.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.search(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// Removes and returns the value under `k`.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        match self.search(k) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value under `k`, inserting `V::default()` first when absent.
    pub fn entry_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.search(&k) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (k, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in ascending key order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Entries in ascending key order, values mutable.
    #[inline]
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in ascending order.
    #[inline]
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_stays_sorted_and_replaces() {
        let mut m: VecMap<u32, &str> = VecMap::default();
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "tri"), Some("three"));
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(m.get(&3), Some(&"tri"));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.len(), 2);
        assert!(!m.contains_key(&1));
        *m.entry_or_default(9) = "nine";
        assert_eq!(m.get(&9), Some(&"nine"));
    }
}
