//! The Figure 2 instance `I_k` (paper Section 5): a 2-D Euclidean
//! placement with **no pure Nash equilibrium**.
//!
//! Five clusters of `k` peers each — bottom clusters `Π1`, `Π2` and top
//! clusters `Πa`, `Πb`, `Πc` — with `α = 0.6k`. The published figure pins
//! the construction's constants (`δ_1a = 0.04`, `δ_ab = 0.14`,
//! `d(Π1, Π2) = 1 − 2δ`, cluster diameter `ε/n`, `δ > 10ε`); the exact
//! cluster coordinates in our reproduction were fixed by a computational
//! search over placements consistent with the figure, and are **certified**
//! rather than trusted:
//!
//! * for `k = 1` an exhaustive scan over all `2^20` strategy profiles
//!   (see `sp-analysis::exhaustive`) proves no profile is a Nash
//!   equilibrium;
//! * round-robin exact best-response dynamics provably cycles
//!   (`Termination::Cycle`), reproducing the oscillation
//!   `1 → 3 → 4 → 2 → 1` of Figure 3.
//!
//! The six Figure 3 candidate topologies are exposed via
//! [`CandidateState`] and [`NoEquilibriumInstance::candidate_profile`].

use sp_core::{CoreError, Game, PeerId, StrategyProfile};
use sp_metric::{Euclidean2D, Point2};

/// The five clusters of the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cluster {
    /// Bottom-left cluster `Π1`.
    Bottom1,
    /// Bottom-right cluster `Π2`.
    Bottom2,
    /// Top cluster `Πa` (reachable economically from `Π1`).
    TopA,
    /// Top middle cluster `Πb`.
    TopB,
    /// Top right cluster `Πc`.
    TopC,
}

impl Cluster {
    /// All clusters in canonical order (`Π1`, `Π2`, `Πa`, `Πb`, `Πc`).
    pub const ALL: [Cluster; 5] = [
        Cluster::Bottom1,
        Cluster::Bottom2,
        Cluster::TopA,
        Cluster::TopB,
        Cluster::TopC,
    ];

    /// Position in the canonical order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Cluster::Bottom1 => 0,
            Cluster::Bottom2 => 1,
            Cluster::TopA => 2,
            Cluster::TopB => 3,
            Cluster::TopC => 4,
        }
    }

    /// Short label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Cluster::Bottom1 => "Π1",
            Cluster::Bottom2 => "Π2",
            Cluster::TopA => "Πa",
            Cluster::TopB => "Πb",
            Cluster::TopC => "Πc",
        }
    }
}

/// The six candidate equilibrium topologies of Figure 3.
///
/// Beyond the backbone every candidate has `Π1 → Πa`; the candidates vary
/// in `Π1`'s optional second top-link (none / `Πb` / `Πc`) and `Π2`'s
/// single top-link (`Πb` / `Πc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateState {
    /// `Π1 → {Πa}`, `Π2 → Πb` (Figure 3, case 1).
    S1,
    /// `Π1 → {Πa}`, `Π2 → Πc` (case 2).
    S2,
    /// `Π1 → {Πa, Πb}`, `Π2 → Πb` (case 3).
    S3,
    /// `Π1 → {Πa, Πb}`, `Π2 → Πc` (case 4).
    S4,
    /// `Π1 → {Πa, Πc}`, `Π2 → Πb` (case 5).
    S5,
    /// `Π1 → {Πa, Πc}`, `Π2 → Πc` (case 6).
    S6,
}

impl CandidateState {
    /// All six candidates.
    pub const ALL: [CandidateState; 6] = [
        CandidateState::S1,
        CandidateState::S2,
        CandidateState::S3,
        CandidateState::S4,
        CandidateState::S5,
        CandidateState::S6,
    ];

    /// `Π1`'s optional second top-cluster link.
    #[must_use]
    pub fn pi1_extra(self) -> Option<Cluster> {
        match self {
            CandidateState::S1 | CandidateState::S2 => None,
            CandidateState::S3 | CandidateState::S4 => Some(Cluster::TopB),
            CandidateState::S5 | CandidateState::S6 => Some(Cluster::TopC),
        }
    }

    /// `Π2`'s top-cluster link.
    #[must_use]
    pub fn pi2_link(self) -> Cluster {
        match self {
            CandidateState::S1 | CandidateState::S3 | CandidateState::S5 => Cluster::TopB,
            CandidateState::S2 | CandidateState::S4 | CandidateState::S6 => Cluster::TopC,
        }
    }

    /// The case number as printed in Figure 3.
    #[must_use]
    pub fn case_number(self) -> usize {
        match self {
            CandidateState::S1 => 1,
            CandidateState::S2 => 2,
            CandidateState::S3 => 3,
            CandidateState::S4 => 4,
            CandidateState::S5 => 5,
            CandidateState::S6 => 6,
        }
    }
}

/// Geometry and game parameters of the instance.
///
/// Defaults are the certified constants (see module docs); override fields
/// to explore the neighbourhood of the construction.
#[derive(Debug, Clone, PartialEq)]
pub struct NoNeParams {
    /// Peers per cluster (`n = 5k`, `α = alpha_factor · k`).
    pub k: usize,
    /// `α = alpha_factor · k`; the paper fixes 0.6.
    pub alpha_factor: f64,
    /// Cluster diameter is `eps / n` with `eps = epsilon`.
    pub epsilon: f64,
    /// Cluster centres in canonical order (`Π1`, `Π2`, `Πa`, `Πb`, `Πc`).
    pub centers: [Point2; 5],
}

impl NoNeParams {
    /// The certified parameters reproducing the paper's construction.
    #[must_use]
    pub fn paper(k: usize) -> Self {
        NoNeParams {
            k,
            alpha_factor: 0.6,
            epsilon: 1e-4,
            // Certified by computational search (the `certify_no_ne` and
            // `search_no_ne_wide` tools): for k = 1 an exhaustive scan of
            // all 2^20 profiles proves no pure Nash equilibrium exists,
            // and round-robin best-response dynamics cycles for
            // k = 1, 2, 3. Geometry matches the figure qualitatively:
            // bottom clusters 1−2δ apart (δ = 0.01), top clusters Πa, Πb,
            // Πc laid out left to right with Πa up-left of Π1 and Πc far
            // right.
            centers: [
                Point2::new(0.0, 0.0),  // Π1
                Point2::new(0.98, 0.0), // Π2
                Point2::new(-0.8, 1.6), // Πa
                Point2::new(0.6, 2.0),  // Πb
                Point2::new(3.3, 2.0),  // Πc
            ],
        }
    }
}

/// The instance `I_k` itself.
///
/// Peer indexing: cluster `c` (canonical order) owns peers
/// `c·k .. (c+1)·k`.
#[derive(Debug, Clone, PartialEq)]
pub struct NoEquilibriumInstance {
    params: NoNeParams,
    space: Euclidean2D,
    game: Game,
}

impl NoEquilibriumInstance {
    /// Builds the instance from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when `k = 0`, the derived `α` is invalid, or
    /// the geometry degenerates (coincident points).
    pub fn new(params: NoNeParams) -> Result<Self, CoreError> {
        if params.k == 0 {
            return Err(CoreError::InstanceTooLarge { n: 0, limit: 5 });
        }
        let n = 5 * params.k;
        let alpha = params.alpha_factor * params.k as f64;
        let diameter = params.epsilon / n as f64;
        let mut points = Vec::with_capacity(n);
        for center in &params.centers {
            // k peers equidistant on a tiny horizontal segment.
            for j in 0..params.k {
                let off = if params.k == 1 {
                    0.0
                } else {
                    diameter * (j as f64 / (params.k - 1) as f64 - 0.5)
                };
                points.push(Point2::new(center.x + off, center.y));
            }
        }
        let space = Euclidean2D::new(points)?;
        let game = Game::from_space(&space, alpha)?;
        Ok(NoEquilibriumInstance {
            params,
            space,
            game,
        })
    }

    /// The paper instance with `k` peers per cluster.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn paper(k: usize) -> Self {
        NoEquilibriumInstance::new(NoNeParams::paper(k)).expect("paper parameters are valid")
    }

    /// The parameters used.
    #[must_use]
    pub fn params(&self) -> &NoNeParams {
        &self.params
    }

    /// The underlying plane placement.
    #[must_use]
    pub fn space(&self) -> &Euclidean2D {
        &self.space
    }

    /// The game (`n = 5k` peers, `α = 0.6k` by default).
    #[must_use]
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        5 * self.params.k
    }

    /// The cluster of a peer.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of bounds.
    #[must_use]
    pub fn cluster_of(&self, peer: PeerId) -> Cluster {
        assert!(peer.index() < self.n(), "peer {peer} out of bounds");
        Cluster::ALL[peer.index() / self.params.k]
    }

    /// The first (representative) peer of a cluster.
    #[must_use]
    pub fn representative(&self, cluster: Cluster) -> PeerId {
        PeerId::new(cluster.index() * self.params.k)
    }

    /// The backbone links shared by every Figure 3 candidate — the
    /// structure the structural lemmas pin down in any near-equilibrium,
    /// and exactly what unconstrained best-response dynamics settles on
    /// in the cycling regime of this instance:
    ///
    /// * a bidirectional path inside each cluster (intra-cluster
    ///   connectivity);
    /// * the bottom pair `Π1 ↔ Π2`;
    /// * top-cluster chain `Πa ↔ Πb ↔ Πc` (representative links);
    /// * down-links `Πa → Π1`, `Πb → Π2`, `Πc → Π2` (each top cluster
    ///   reaches the bottom via its cheapest bottom cluster);
    /// * the mandatory `Π1 → Πa` link (Lemma 5.2 ii).
    ///
    /// The candidates then differ only in `Π1`'s optional second
    /// top-link and `Π2`'s top-link — the two degrees of freedom that
    /// oscillate forever.
    fn backbone_links(&self) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        let k = self.params.k;
        // Intra-cluster bidirectional paths.
        for c in Cluster::ALL {
            let base = c.index() * k;
            for j in 0..k.saturating_sub(1) {
                links.push((base + j, base + j + 1));
                links.push((base + j + 1, base + j));
            }
        }
        let rep = |c: Cluster| self.representative(c).index();
        // Bottom pair and top chain.
        for (x, y) in [
            (Cluster::Bottom1, Cluster::Bottom2),
            (Cluster::TopA, Cluster::TopB),
            (Cluster::TopB, Cluster::TopC),
        ] {
            links.push((rep(x), rep(y)));
            links.push((rep(y), rep(x)));
        }
        // Down-links: every top cluster reaches the bottom directly.
        links.push((rep(Cluster::TopA), rep(Cluster::Bottom1)));
        links.push((rep(Cluster::TopB), rep(Cluster::Bottom2)));
        links.push((rep(Cluster::TopC), rep(Cluster::Bottom2)));
        // Π1 -> Πa (Lemma 5.2 ii).
        links.push((rep(Cluster::Bottom1), rep(Cluster::TopA)));
        links
    }

    /// The full profile of a Figure 3 candidate state: backbone plus the
    /// state's `Π1`/`Π2` top-links.
    #[must_use]
    pub fn candidate_profile(&self, state: CandidateState) -> StrategyProfile {
        let mut links = self.backbone_links();
        let rep = |c: Cluster| self.representative(c).index();
        if let Some(extra) = state.pi1_extra() {
            links.push((rep(Cluster::Bottom1), rep(extra)));
        }
        links.push((rep(Cluster::Bottom2), rep(state.pi2_link())));
        StrategyProfile::from_links(self.n(), &links).expect("valid link indices")
    }

    /// Identifies which candidate state a profile corresponds to by its
    /// `Π1`/`Π2` top-links (`None` when outside the six-state family).
    #[must_use]
    pub fn classify(&self, profile: &StrategyProfile) -> Option<CandidateState> {
        CandidateState::ALL
            .into_iter()
            .find(|&s| &self.candidate_profile(s) == profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::validate_metric;

    #[test]
    fn geometry_is_valid_and_scaled() {
        for k in [1, 2, 3] {
            let inst = NoEquilibriumInstance::paper(k);
            assert_eq!(inst.n(), 5 * k);
            assert!((inst.game().alpha() - 0.6 * k as f64).abs() < 1e-12);
            assert!(validate_metric(inst.space(), 1e-9).is_ok());
        }
    }

    #[test]
    fn clusters_are_tiny_compared_to_gaps() {
        let inst = NoEquilibriumInstance::paper(3);
        let k = 3;
        // Max intra-cluster distance is eps/n; min inter-cluster distance
        // is about 0.98.
        for c in Cluster::ALL {
            let base = inst.representative(c).index();
            let peers: Vec<PeerId> = (base..base + k).map(PeerId::new).collect();
            assert!(peers.iter().all(|&p| inst.cluster_of(p) == c));
            for &a in &peers {
                for &b in &peers {
                    if a != b {
                        let d = inst.game().distance(a.index(), b.index());
                        assert!(d <= 1e-4, "intra-cluster distance {d} too large");
                    }
                }
            }
        }
        let d12 = inst.game().distance(
            inst.representative(Cluster::Bottom1).index(),
            inst.representative(Cluster::Bottom2).index(),
        );
        assert!((d12 - 0.98).abs() < 1e-3);
    }

    #[test]
    fn cluster_bookkeeping() {
        let inst = NoEquilibriumInstance::paper(2);
        assert_eq!(inst.cluster_of(PeerId::new(0)), Cluster::Bottom1);
        assert_eq!(inst.cluster_of(PeerId::new(3)), Cluster::Bottom2);
        assert_eq!(inst.cluster_of(PeerId::new(9)), Cluster::TopC);
        assert_eq!(inst.representative(Cluster::TopB), PeerId::new(6));
        assert_eq!(Cluster::TopC.label(), "Πc");
    }

    #[test]
    fn candidate_profiles_differ_and_classify_back() {
        let inst = NoEquilibriumInstance::paper(1);
        for s in CandidateState::ALL {
            let p = inst.candidate_profile(s);
            assert_eq!(inst.classify(&p), Some(s), "case {}", s.case_number());
        }
        // A non-candidate profile classifies as None.
        assert_eq!(inst.classify(&StrategyProfile::empty(5)), None);
    }

    #[test]
    fn candidate_profiles_are_strongly_connected() {
        use sp_core::topology;
        use sp_graph::is_strongly_connected;
        for k in [1, 2] {
            let inst = NoEquilibriumInstance::paper(k);
            for s in CandidateState::ALL {
                let p = inst.candidate_profile(s);
                let g = topology(inst.game(), &p).unwrap();
                assert!(is_strongly_connected(&g), "k={k} case {}", s.case_number());
            }
        }
    }

    #[test]
    fn state_metadata_is_consistent() {
        assert_eq!(CandidateState::S1.pi1_extra(), None);
        assert_eq!(CandidateState::S4.pi1_extra(), Some(Cluster::TopB));
        assert_eq!(CandidateState::S6.pi2_link(), Cluster::TopC);
        let cases: Vec<usize> = CandidateState::ALL
            .iter()
            .map(|s| s.case_number())
            .collect();
        assert_eq!(cases, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn zero_k_is_rejected() {
        assert!(NoEquilibriumInstance::new(NoNeParams {
            k: 0,
            ..NoNeParams::paper(1)
        })
        .is_err());
    }
}
