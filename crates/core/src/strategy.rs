use std::fmt;

use crate::{CoreError, LinkSet, PeerId};

/// A full strategy profile: one [`LinkSet`] per peer.
///
/// The profile is the game state; it hashes and compares canonically (link
/// sets are kept sorted), which is what the dynamics engine's cycle
/// detection relies on.
///
/// # Example
///
/// ```
/// use sp_core::{StrategyProfile, PeerId};
///
/// let mut s = StrategyProfile::empty(3);
/// s.add_link(PeerId::new(0), PeerId::new(1)).unwrap();
/// s.add_link(PeerId::new(1), PeerId::new(2)).unwrap();
/// assert_eq!(s.link_count(), 2);
/// assert!(s.has_link(PeerId::new(0), PeerId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StrategyProfile {
    strategies: Vec<LinkSet>,
}

impl StrategyProfile {
    /// The empty profile on `n` peers (no links at all).
    #[must_use]
    pub fn empty(n: usize) -> Self {
        StrategyProfile {
            strategies: vec![LinkSet::new(); n],
        }
    }

    /// The complete profile on `n` peers: everyone links to everyone.
    #[must_use]
    pub fn complete(n: usize) -> Self {
        StrategyProfile {
            strategies: (0..n)
                .map(|i| LinkSet::all_except(n, PeerId::new(i)))
                .collect(),
        }
    }

    /// Builds a profile from explicit strategies.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SelfLink`] if a strategy links to its owner;
    /// * [`CoreError::PeerOutOfBounds`] if a link target exceeds the peer
    ///   count implied by `strategies.len()`.
    pub fn from_strategies(strategies: Vec<LinkSet>) -> Result<Self, CoreError> {
        let n = strategies.len();
        for (i, s) in strategies.iter().enumerate() {
            for p in s.iter() {
                if p.index() == i {
                    return Err(CoreError::SelfLink { peer: i });
                }
                if p.index() >= n {
                    return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
                }
            }
        }
        Ok(StrategyProfile { strategies })
    }

    /// Builds a profile from `(from, to)` link pairs on `n` peers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StrategyProfile::from_strategies`].
    pub fn from_links(n: usize, links: &[(usize, usize)]) -> Result<Self, CoreError> {
        let mut strategies = vec![LinkSet::new(); n];
        for &(u, v) in links {
            if u >= n {
                return Err(CoreError::PeerOutOfBounds { peer: u, n });
            }
            if v >= n {
                return Err(CoreError::PeerOutOfBounds { peer: v, n });
            }
            if u == v {
                return Err(CoreError::SelfLink { peer: u });
            }
            strategies[u].insert(PeerId::new(v));
        }
        Ok(StrategyProfile { strategies })
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.strategies.len()
    }

    /// The strategy of `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of bounds.
    #[must_use]
    pub fn strategy(&self, peer: PeerId) -> &LinkSet {
        &self.strategies[peer.index()]
    }

    /// Replaces the strategy of `peer`, returning the old one.
    ///
    /// # Errors
    ///
    /// * [`CoreError::PeerOutOfBounds`] if `peer` or a link target is out
    ///   of bounds;
    /// * [`CoreError::SelfLink`] if `links` contains `peer`.
    pub fn set_strategy(&mut self, peer: PeerId, links: LinkSet) -> Result<LinkSet, CoreError> {
        let n = self.n();
        if peer.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n,
            });
        }
        for p in links.iter() {
            if p == peer {
                return Err(CoreError::SelfLink { peer: peer.index() });
            }
            if p.index() >= n {
                return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
            }
        }
        Ok(std::mem::replace(&mut self.strategies[peer.index()], links))
    }

    /// Adds a single link; returns `true` if it was new.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StrategyProfile::set_strategy`].
    pub fn add_link(&mut self, from: PeerId, to: PeerId) -> Result<bool, CoreError> {
        let n = self.n();
        if from.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: from.index(),
                n,
            });
        }
        if to.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: to.index(),
                n,
            });
        }
        if from == to {
            return Err(CoreError::SelfLink { peer: from.index() });
        }
        Ok(self.strategies[from.index()].insert(to))
    }

    /// Returns `true` if the directed link `(from, to)` is present.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn has_link(&self, from: PeerId, to: PeerId) -> bool {
        self.strategies[from.index()].contains(to)
    }

    /// Total number of directed links, `|E|` in the paper's social cost.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.strategies.iter().map(LinkSet::len).sum()
    }

    /// Iterates over `(owner, strategy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &LinkSet)> + '_ {
        self.strategies
            .iter()
            .enumerate()
            .map(|(i, s)| (PeerId::new(i), s))
    }

    /// Iterates over all directed links as `(from, to)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (PeerId, PeerId)> + '_ {
        self.iter().flat_map(|(i, s)| s.iter().map(move |j| (i, j)))
    }

    /// Returns a copy where `peer` plays `links` instead — the unilateral
    /// deviation used throughout equilibrium analysis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StrategyProfile::set_strategy`].
    pub fn with_strategy(&self, peer: PeerId, links: LinkSet) -> Result<Self, CoreError> {
        let mut c = self.clone();
        c.set_strategy(peer, links)?;
        Ok(c)
    }
}

impl fmt::Display for StrategyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.strategies.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "π{i} -> {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_complete() {
        let e = StrategyProfile::empty(4);
        assert_eq!(e.link_count(), 0);
        let c = StrategyProfile::complete(4);
        assert_eq!(c.link_count(), 12);
        assert!(c.has_link(PeerId::new(0), PeerId::new(3)));
        assert!(!c.has_link(PeerId::new(0), PeerId::new(0)));
    }

    #[test]
    fn from_links_builds_and_validates() {
        let p = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (0, 1)]).unwrap();
        assert_eq!(p.link_count(), 2);
        assert!(matches!(
            StrategyProfile::from_links(3, &[(0, 3)]),
            Err(CoreError::PeerOutOfBounds { peer: 3, n: 3 })
        ));
        assert!(matches!(
            StrategyProfile::from_links(3, &[(1, 1)]),
            Err(CoreError::SelfLink { peer: 1 })
        ));
    }

    #[test]
    fn from_strategies_validates() {
        let bad = vec![
            [1usize].into_iter().collect(),
            [1usize].into_iter().collect(),
        ];
        assert!(matches!(
            StrategyProfile::from_strategies(bad),
            Err(CoreError::SelfLink { peer: 1 })
        ));
    }

    #[test]
    fn set_strategy_swaps_and_validates() {
        let mut p = StrategyProfile::empty(3);
        let s: LinkSet = [1usize, 2].into_iter().collect();
        let old = p.set_strategy(PeerId::new(0), s.clone()).unwrap();
        assert!(old.is_empty());
        assert_eq!(p.strategy(PeerId::new(0)), &s);
        assert!(p
            .set_strategy(PeerId::new(0), [0usize].into_iter().collect())
            .is_err());
        assert!(p.set_strategy(PeerId::new(9), LinkSet::new()).is_err());
    }

    #[test]
    fn add_links() {
        let mut p = StrategyProfile::empty(3);
        assert!(p.add_link(PeerId::new(0), PeerId::new(2)).unwrap());
        assert!(!p.add_link(PeerId::new(0), PeerId::new(2)).unwrap());
        assert!(p.add_link(PeerId::new(0), PeerId::new(0)).is_err());
    }

    #[test]
    fn with_strategy_is_non_destructive() {
        let p = StrategyProfile::empty(2);
        let q = p
            .with_strategy(PeerId::new(0), [1usize].into_iter().collect())
            .unwrap();
        assert_eq!(p.link_count(), 0);
        assert_eq!(q.link_count(), 1);
    }

    #[test]
    fn links_iterator_enumerates_pairs() {
        let p = StrategyProfile::from_links(3, &[(0, 1), (2, 0)]).unwrap();
        let mut links: Vec<(usize, usize)> =
            p.links().map(|(a, b)| (a.index(), b.index())).collect();
        links.sort_unstable();
        assert_eq!(links, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn profiles_hash_canonically() {
        use std::collections::HashSet;
        let a = StrategyProfile::from_links(3, &[(0, 1), (0, 2)]).unwrap();
        let b = StrategyProfile::from_links(3, &[(0, 2), (0, 1)]).unwrap();
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn display_lists_strategies() {
        let p = StrategyProfile::from_links(2, &[(0, 1)]).unwrap();
        let s = p.to_string();
        assert!(s.contains("π0 -> {π1}"));
        assert!(s.contains("π1 -> {}"));
    }
}
