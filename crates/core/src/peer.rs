use std::fmt;

/// Identifier of a peer: an index in `0..n`.
///
/// A thin newtype so that peer indices, facility indices and graph nodes
/// cannot be confused in signatures. Convert with [`PeerId::index`] /
/// [`PeerId::new`] or `From`.
///
/// # Example
///
/// ```
/// use sp_core::PeerId;
///
/// let p = PeerId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(usize::from(p), 3);
/// assert_eq!(PeerId::from(3usize), p);
/// assert_eq!(p.to_string(), "π3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeerId(usize);

impl PeerId {
    /// Wraps an index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        PeerId(index)
    }

    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for PeerId {
    fn from(i: usize) -> Self {
        PeerId(i)
    }
}

impl From<PeerId> for usize {
    fn from(p: PeerId) -> usize {
        p.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{}", self.0)
    }
}

/// A peer's strategy: the set of peers it maintains directed links to.
///
/// Stored sorted and deduplicated, so equality, hashing and iteration order
/// are canonical — profiles can be used directly as keys in cycle
/// detection.
///
/// # Example
///
/// ```
/// use sp_core::{LinkSet, PeerId};
///
/// let mut s: LinkSet = [2usize, 0, 2].into_iter().collect();
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(PeerId::new(0)));
/// s.insert(PeerId::new(1));
/// let targets: Vec<usize> = s.iter().map(PeerId::index).collect();
/// assert_eq!(targets, vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinkSet {
    links: Vec<PeerId>,
}

impl LinkSet {
    /// The empty strategy (no links).
    #[must_use]
    pub const fn new() -> Self {
        LinkSet { links: Vec::new() }
    }

    /// A strategy linking to every peer in `0..n` except `owner` — the
    /// maximal strategy with minimal stretches.
    #[must_use]
    pub fn all_except(n: usize, owner: PeerId) -> Self {
        LinkSet {
            links: (0..n)
                .filter(|&j| j != owner.index())
                .map(PeerId::new)
                .collect(),
        }
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the strategy has no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Returns `true` if `peer` is linked.
    #[must_use]
    pub fn contains(&self, peer: PeerId) -> bool {
        self.links.binary_search(&peer).is_ok()
    }

    /// Adds a link; returns `true` if it was not present.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        match self.links.binary_search(&peer) {
            Ok(_) => false,
            Err(pos) => {
                self.links.insert(pos, peer);
                true
            }
        }
    }

    /// Removes a link; returns `true` if it was present.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        match self.links.binary_search(&peer) {
            Ok(pos) => {
                self.links.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over linked peers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.links.iter().copied()
    }

    /// Returns a copy with `peer` added.
    #[must_use]
    pub fn with(&self, peer: PeerId) -> Self {
        let mut c = self.clone();
        c.insert(peer);
        c
    }

    /// Returns a copy with `peer` removed.
    #[must_use]
    pub fn without(&self, peer: PeerId) -> Self {
        let mut c = self.clone();
        c.remove(peer);
        c
    }
}

impl FromIterator<PeerId> for LinkSet {
    fn from_iter<I: IntoIterator<Item = PeerId>>(iter: I) -> Self {
        let mut links: Vec<PeerId> = iter.into_iter().collect();
        links.sort_unstable();
        links.dedup();
        LinkSet { links }
    }
}

impl FromIterator<usize> for LinkSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        iter.into_iter().map(PeerId::new).collect()
    }
}

impl Extend<PeerId> for LinkSet {
    fn extend<I: IntoIterator<Item = PeerId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for LinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.links.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ordering_and_dedup() {
        let a: LinkSet = [3usize, 1, 3, 2].into_iter().collect();
        let b: LinkSet = [1usize, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = LinkSet::new();
        assert!(s.is_empty());
        assert!(s.insert(PeerId::new(5)));
        assert!(!s.insert(PeerId::new(5)));
        assert!(s.contains(PeerId::new(5)));
        assert!(s.remove(PeerId::new(5)));
        assert!(!s.remove(PeerId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn with_without_are_non_destructive() {
        let s: LinkSet = [1usize].into_iter().collect();
        let w = s.with(PeerId::new(2));
        assert_eq!(s.len(), 1);
        assert_eq!(w.len(), 2);
        let wo = w.without(PeerId::new(1));
        assert_eq!(wo.iter().collect::<Vec<_>>(), vec![PeerId::new(2)]);
    }

    #[test]
    fn all_except_skips_owner() {
        let s = LinkSet::all_except(4, PeerId::new(2));
        let idx: Vec<usize> = s.iter().map(PeerId::index).collect();
        assert_eq!(idx, vec![0, 1, 3]);
    }

    #[test]
    fn hashes_of_equal_sets_agree() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a: LinkSet = [2usize, 0].into_iter().collect();
        let b: LinkSet = [0usize, 2, 2].into_iter().collect();
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_formats() {
        let s: LinkSet = [0usize, 2].into_iter().collect();
        assert_eq!(s.to_string(), "{π0, π2}");
        assert_eq!(LinkSet::new().to_string(), "{}");
        assert_eq!(PeerId::new(7).to_string(), "π7");
    }

    #[test]
    fn extend_merges() {
        let mut s: LinkSet = [0usize].into_iter().collect();
        s.extend([PeerId::new(2), PeerId::new(1), PeerId::new(0)]);
        assert_eq!(s.len(), 3);
    }
}
