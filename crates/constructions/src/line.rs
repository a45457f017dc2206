//! The Figure 1 lower-bound family (paper Section 4.2).
//!
//! Peers sit on a 1-D Euclidean line with exponentially increasing gaps:
//! using the paper's 1-based numbering, peer `i` is at `α^{i-1}/2` for odd
//! `i` and at `α^{i-1}` for even `i`. The equilibrium link structure is:
//!
//! * every peer links to its nearest left neighbour;
//! * every *odd* peer additionally links to the second-nearest peer on its
//!   right (two positions over).
//!
//! Lemma 4.2: for `α ≥ 3.4` this profile is a Nash equilibrium.
//! Lemma 4.3: its social cost is `Θ(αn²)`.
//! Theorem 4.4: since the bidirectional chain `G̃` costs `O(αn + n²)`,
//! the Price of Anarchy is `Θ(min(α, n))`.

use sp_core::{social_cost, CoreError, Game, SocialCost, StrategyProfile};
use sp_metric::LineSpace;

/// The smallest `α` for which Lemma 4.2 guarantees the construction is a
/// Nash equilibrium.
pub const NASH_ALPHA_THRESHOLD: f64 = 3.4;

/// Generator for the Figure 1 family.
///
/// # Example
///
/// ```
/// use sp_constructions::line::LineLowerBound;
/// use sp_core::{is_nash, NashTest};
///
/// let lb = LineLowerBound::new(8, 3.4).unwrap();
/// let game = lb.game();
/// let profile = lb.equilibrium_profile();
/// let report = is_nash(&game, &profile, &NashTest::exact()).unwrap();
/// assert!(report.is_nash()); // Lemma 4.2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LineLowerBound {
    n: usize,
    alpha: f64,
}

impl LineLowerBound {
    /// Creates the family member with `n` peers and parameter `α`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAlpha`] unless `α > 2` (the positions
    /// must strictly increase, which requires `α > 2`; the Nash property
    /// additionally needs `α ≥ 3.4` — construction is still allowed below
    /// that so experiments can probe where stability breaks).
    /// Returns [`CoreError::InstanceTooLarge`] when `α^{n-1}` overflows
    /// `f64`.
    pub fn new(n: usize, alpha: f64) -> Result<Self, CoreError> {
        if !alpha.is_finite() || alpha <= 2.0 {
            return Err(CoreError::InvalidAlpha { alpha });
        }
        if n >= 2 && alpha.powi(n as i32 - 1) > f64::MAX / 4.0 {
            let limit = (f64::MAX.log2() / alpha.log2()) as usize;
            return Err(CoreError::InstanceTooLarge { n, limit });
        }
        Ok(LineLowerBound { n, alpha })
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The parameter `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns `true` when Lemma 4.2 guarantees the equilibrium
    /// (`α ≥ 3.4`).
    #[must_use]
    pub fn nash_guaranteed(&self) -> bool {
        self.alpha >= NASH_ALPHA_THRESHOLD
    }

    /// Peer positions on the line, 0-indexed: peer `k` (paper's
    /// `i = k + 1`) sits at `α^k / 2` when `k` is even (paper-odd) and at
    /// `α^k` when `k` is odd (paper-even).
    #[must_use]
    pub fn positions(&self) -> Vec<f64> {
        (0..self.n)
            .map(|k| {
                let p = self.alpha.powi(k as i32);
                if k % 2 == 0 {
                    p / 2.0
                } else {
                    p
                }
            })
            .collect()
    }

    /// The metric space of the instance.
    ///
    /// # Panics
    ///
    /// Never panics for instances created through [`LineLowerBound::new`]
    /// (positions are strictly increasing and finite).
    #[must_use]
    pub fn space(&self) -> LineSpace {
        LineSpace::new(self.positions()).expect("positions are strictly increasing")
    }

    /// The game instance.
    #[must_use]
    pub fn game(&self) -> Game {
        Game::from_space(&self.space(), self.alpha).expect("valid by construction")
    }

    /// The paper's equilibrium profile `G`: peer `k` links left to `k-1`;
    /// paper-odd peers (`k` even) also link right to `k+2`.
    ///
    /// Boundary: right-links connect paper-odd peers to paper-odd peers,
    /// so for even `n` the figure's rule would leave the last peer with no
    /// in-link. When a paper-odd peer has exactly one peer to its right it
    /// links to that one instead ("second nearest" degrades to "nearest"),
    /// which keeps the topology strongly connected for every `n ≥ 2`.
    #[must_use]
    pub fn equilibrium_profile(&self) -> StrategyProfile {
        let mut links: Vec<(usize, usize)> = Vec::new();
        for k in 0..self.n {
            if k >= 1 {
                links.push((k, k - 1));
            }
            if k % 2 == 0 {
                if k + 2 < self.n {
                    links.push((k, k + 2));
                } else if k + 1 < self.n {
                    links.push((k, k + 1));
                }
            }
        }
        StrategyProfile::from_links(self.n, &links).expect("valid link indices")
    }

    /// The paper's reference topology `G̃`: the bidirectional chain, whose
    /// social cost `α·2(n−1) + n(n−1)` upper-bounds the optimum
    /// (Theorem 4.4 proof).
    fn reference_profile(&self) -> StrategyProfile {
        let mut links = Vec::new();
        for k in 0..self.n.saturating_sub(1) {
            links.push((k, k + 1));
            links.push((k + 1, k));
        }
        StrategyProfile::from_links(self.n, &links).expect("valid link indices")
    }

    /// Social cost of the equilibrium profile (Lemma 4.3: `Θ(αn²)`).
    #[must_use]
    pub fn equilibrium_cost(&self) -> SocialCost {
        social_cost(&self.game(), &self.equilibrium_profile()).expect("sizes match")
    }

    /// Social cost of the chain `G̃` (closed form
    /// `α·2(n−1) + n(n−1)` — all stretches on a line are 1).
    #[must_use]
    pub fn reference_cost(&self) -> SocialCost {
        social_cost(&self.game(), &self.reference_profile()).expect("sizes match")
    }

    /// The measured Price-of-Anarchy lower bound
    /// `C(G) / C(G̃) ≤ C(G)/OPT = PoA contribution of this instance`.
    ///
    /// Theorem 4.4 proves this is `Θ(min(α, n))`.
    #[must_use]
    pub fn poa_lower_bound(&self) -> f64 {
        self.equilibrium_cost().total() / self.reference_cost().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::topology;
    use sp_core::{is_nash, max_stretch, nash_gap, BestResponseMethod, NashTest};
    use sp_graph::is_strongly_connected;

    #[test]
    fn positions_match_paper_formula() {
        let lb = LineLowerBound::new(5, 4.0).unwrap();
        // k: 0 (paper 1, odd): 4^0/2 = 0.5; k=1 (paper 2): 4; k=2: 8;
        // k=3: 64; k=4: 128.
        assert_eq!(lb.positions(), vec![0.5, 4.0, 8.0, 64.0, 128.0]);
    }

    #[test]
    fn positions_strictly_increase() {
        for alpha in [2.1, 3.4, 10.0] {
            let lb = LineLowerBound::new(12, alpha).unwrap();
            let p = lb.positions();
            for w in p.windows(2) {
                assert!(w[0] < w[1], "alpha={alpha}: {} !< {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn construction_rejects_bad_parameters() {
        assert!(matches!(
            LineLowerBound::new(5, 2.0),
            Err(CoreError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            LineLowerBound::new(5, f64::NAN),
            Err(CoreError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            LineLowerBound::new(2000, 3.4),
            Err(CoreError::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn equilibrium_profile_shape() {
        let lb = LineLowerBound::new(6, 3.4).unwrap();
        let p = lb.equilibrium_profile();
        // Left links: 1..5 each link to predecessor = 5 links.
        // Right links from k = 0, 2, and the boundary link 4 -> 5.
        assert_eq!(p.link_count(), 5 + 3);
        assert!(p.has_link(3.into(), 2.into()));
        assert!(p.has_link(0.into(), 2.into()));
        assert!(p.has_link(2.into(), 4.into()));
        assert!(p.has_link(4.into(), 5.into()));
        assert!(!p.has_link(1.into(), 3.into()));
        // Odd n needs no boundary link: the rule is pure odd -> odd+2.
        let p7 = LineLowerBound::new(7, 3.4).unwrap().equilibrium_profile();
        assert_eq!(p7.link_count(), 6 + 3);
        assert!(!p7.has_link(5.into(), 6.into()));
        assert!(p7.has_link(4.into(), 6.into()));
    }

    #[test]
    fn equilibrium_topology_is_strongly_connected() {
        for n in [2, 3, 5, 8, 13] {
            let lb = LineLowerBound::new(n, 3.4).unwrap();
            let g = topology(&lb.game(), &lb.equilibrium_profile()).unwrap();
            assert!(is_strongly_connected(&g), "n={n}");
        }
    }

    #[test]
    fn lemma_4_2_nash_equilibrium_small_exact() {
        // Exact verification of Lemma 4.2 for a range of sizes at the
        // threshold and above.
        for n in 2..=10 {
            for alpha in [3.4, 4.0, 6.0] {
                let lb = LineLowerBound::new(n, alpha).unwrap();
                let report =
                    is_nash(&lb.game(), &lb.equilibrium_profile(), &NashTest::exact()).unwrap();
                assert!(
                    report.is_nash(),
                    "n={n}, α={alpha}: deviation {:?}",
                    report.best_deviation
                );
            }
        }
    }

    #[test]
    fn equilibrium_stretch_respects_theorem_4_1() {
        let lb = LineLowerBound::new(10, 3.4).unwrap();
        let ms = max_stretch(&lb.game(), &lb.equilibrium_profile()).unwrap();
        assert!(ms <= 3.4 + 1.0 + 1e-9, "max stretch {ms} exceeds α+1");
        // And it is genuinely large (≈ α/2 at least for far even pairs),
        // which is what drives the Θ(αn²) cost.
        assert!(
            ms >= 3.4 / 2.0,
            "max stretch {ms} too small for the lower bound"
        );
    }

    #[test]
    fn lemma_4_3_cost_is_theta_alpha_n_squared() {
        let alpha = 4.0;
        let mut ratios = Vec::new();
        for n in [6, 10, 14, 18] {
            let lb = LineLowerBound::new(n, alpha).unwrap();
            let c = lb.equilibrium_cost();
            assert!(c.is_connected());
            ratios.push(c.total() / (alpha * (n * n) as f64));
        }
        // Θ(αn²): the normalized ratios stay within a constant band.
        let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().copied().fold(0.0f64, f64::max);
        assert!(lo > 0.01, "ratio dropped too low: {ratios:?}");
        assert!(hi / lo < 4.0, "ratios not Θ-stable: {ratios:?}");
    }

    #[test]
    fn reference_chain_cost_closed_form() {
        let lb = LineLowerBound::new(9, 3.4).unwrap();
        let c = lb.reference_cost();
        let n = 9.0;
        assert!((c.link_cost - 3.4 * 2.0 * (n - 1.0)).abs() < 1e-9);
        assert!((c.stretch_cost - n * (n - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn theorem_4_4_poa_grows_with_alpha() {
        // For fixed n >> α, the PoA lower bound scales like min(α, n) = α
        // (up to the construction's constants, which small n obscures).
        let n = 101;
        let p1 = LineLowerBound::new(n, 12.5).unwrap().poa_lower_bound();
        let p2 = LineLowerBound::new(n, 50.0).unwrap().poa_lower_bound();
        assert!(p1 > 1.5, "PoA at α=12.5 should clearly exceed 1, got {p1}");
        assert!(p2 > p1 * 1.5, "PoA should grow with α: {p1} vs {p2}");
        // The paper's Θ(min(α, n)) with an explicit constant of 1/20.
        assert!(p2 >= 50.0 / 20.0, "PoA {p2} too small for min(α,n) = 50");
    }

    #[test]
    fn below_threshold_the_profile_eventually_destabilises() {
        // Lemma 4.2 needs α ≥ 3.4. Just above 2 the geometric series
        // argument fails and some peer wants to deviate (for large enough
        // n). Find any size ≤ 12 where a deviation exists.
        let mut found = false;
        for n in 4..=12 {
            let lb = LineLowerBound::new(n, 2.2).unwrap();
            let gap = nash_gap(
                &lb.game(),
                &lb.equilibrium_profile(),
                BestResponseMethod::Exact,
            )
            .unwrap();
            if gap > 1e-9 {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "expected instability somewhere below the α threshold"
        );
    }
}
