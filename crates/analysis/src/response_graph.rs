//! The best-response graph: the full state-space view of the dynamics.
//!
//! Nodes are strategy profiles; for each profile and each peer with a
//! strictly improving exact best response there is an edge to the profile
//! where that peer has switched. Structure of this graph answers the
//! paper's Section 5 questions globally rather than per-trajectory:
//!
//! * **sinks** are exactly the pure Nash equilibria;
//! * the game is **weakly acyclic** iff every profile has a path to a
//!   sink (best-response dynamics *can* always stabilise with the right
//!   activations);
//! * a game with **no sink** (Theorem 5.1's `I_k`) traps the dynamics in
//!   best-response cycles from *every* starting profile, under *every*
//!   activation order.
//!
//! Tractable for `n ≤ 5` (the `I_1` graph has `2^20` nodes).

use sp_core::{CoreError, Game, StrategyProfile};

use crate::fast::FastGame;

/// The compiled best-response graph of a tiny game.
#[derive(Debug, Clone)]
pub struct ResponseGraph {
    fast: FastGame,
    /// CSR adjacency over profile codes.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    sinks: Vec<u32>,
}

impl ResponseGraph {
    /// Builds the graph with exact best responses and relative tolerance
    /// `tolerance` for "strictly improving".
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InstanceTooLarge`] for more than
    /// [`crate::fast::FAST_LIMIT`] peers.
    pub fn build(game: &Game, tolerance: f64) -> Result<Self, CoreError> {
        let fast = FastGame::new(game)?;
        let total = fast.profile_count();
        assert!(
            total <= u64::from(u32::MAX),
            "profile space exceeds u32 codes"
        );
        let cbits = fast.bits_per_peer();
        let n = fast.n();
        let mut offsets = Vec::with_capacity(total as usize + 1);
        let mut edges: Vec<u32> = Vec::new();
        let mut sinks = Vec::new();
        offsets.push(0u32);
        for code in 0..total {
            let masks = fast.unpack(code);
            let mut any = false;
            for peer in 0..n {
                let (best_mask, best, current) = fast.best_response(&masks, peer);
                let improving = if current.is_infinite() {
                    best.is_finite()
                } else {
                    best < current - tolerance * (1.0 + current.abs())
                };
                if improving {
                    any = true;
                    let mut next = masks;
                    next[peer] = best_mask;
                    let next_code = fast.pack(&next);
                    edges.push(next_code as u32);
                } else {
                    let _ = cbits;
                }
            }
            if !any {
                sinks.push(code as u32);
            }
            offsets.push(edges.len() as u32);
        }
        Ok(ResponseGraph {
            fast,
            offsets,
            edges,
            sinks,
        })
    }

    /// Number of profiles (nodes).
    #[must_use]
    pub fn profile_count(&self) -> u64 {
        self.fast.profile_count()
    }

    /// Number of best-response moves (edges).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The pure Nash equilibria, decoded.
    #[must_use]
    pub fn equilibria(&self) -> Vec<StrategyProfile> {
        self.sinks
            .iter()
            .map(|&c| self.fast.decode(u64::from(c)))
            .collect()
    }

    /// Number of pure Nash equilibria.
    #[must_use]
    pub fn equilibrium_count(&self) -> usize {
        self.sinks.len()
    }

    /// Out-neighbours (profiles reachable by one improving best
    /// response) of a profile code.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range.
    #[must_use]
    pub fn successors(&self, code: u32) -> &[u32] {
        let lo = self.offsets[code as usize] as usize;
        let hi = self.offsets[code as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Fraction of profiles from which *some* best-response path reaches
    /// a Nash equilibrium (1.0 = weakly acyclic under best response).
    ///
    /// Computed by backward reachability from the sinks.
    #[must_use]
    pub fn sink_reachable_fraction(&self) -> f64 {
        let total = self.profile_count() as usize;
        if total == 0 {
            return 1.0;
        }
        // Build reverse adjacency counts via bucket sort.
        let mut indegree_offsets = vec![0u32; total + 1];
        for &to in &self.edges {
            indegree_offsets[to as usize + 1] += 1;
        }
        for i in 0..total {
            indegree_offsets[i + 1] += indegree_offsets[i];
        }
        let mut rev = vec![0u32; self.edges.len()];
        let mut cursor = indegree_offsets.clone();
        for from in 0..total {
            for &to in self.successors(from as u32) {
                rev[cursor[to as usize] as usize] = from as u32;
                cursor[to as usize] += 1;
            }
        }
        // BFS backwards from all sinks.
        let mut reach = vec![false; total];
        let mut stack: Vec<u32> = self.sinks.clone();
        for &s in &self.sinks {
            reach[s as usize] = true;
        }
        while let Some(v) = stack.pop() {
            let lo = indegree_offsets[v as usize] as usize;
            let hi = indegree_offsets[v as usize + 1] as usize;
            for &u in &rev[lo..hi] {
                if !reach[u as usize] {
                    reach[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        reach.iter().filter(|&&r| r).count() as f64 / total as f64
    }

    /// Returns `true` if the game is weakly acyclic under best response:
    /// from every profile some best-response path reaches an equilibrium.
    ///
    /// Games without equilibria (Theorem 5.1) are trivially *not* weakly
    /// acyclic.
    #[must_use]
    pub fn is_weakly_acyclic(&self) -> bool {
        (self.sink_reachable_fraction() - 1.0).abs() < f64::EPSILON
    }

    /// Returns `true` if some best-response cycle exists (a profile that
    /// can reach itself again). Detected as a non-trivial SCC via
    /// iterative Tarjan over the CSR adjacency.
    #[must_use]
    pub fn has_best_response_cycle(&self) -> bool {
        // Kosaraju-style check would need the full reverse graph again;
        // instead run an iterative colouring DFS detecting back edges.
        let total = self.profile_count() as usize;
        // 0 = white, 1 = grey (on stack), 2 = black.
        let mut color = vec![0u8; total];
        for start in 0..total {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
            color[start] = 1;
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                let succ = self.successors(v);
                if *idx < succ.len() {
                    let w = succ[*idx];
                    *idx += 1;
                    match color[w as usize] {
                        0 => {
                            color[w as usize] = 1;
                            stack.push((w, 0));
                        }
                        1 => return true, // back edge: cycle
                        _ => {}
                    }
                } else {
                    color[v as usize] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{is_nash, NashTest};
    use sp_metric::LineSpace;

    fn line_game(n: usize, alpha: f64) -> Game {
        let pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Game::from_space(&LineSpace::new(pos).unwrap(), alpha).unwrap()
    }

    #[test]
    fn sinks_are_exactly_the_nash_equilibria() {
        let g = line_game(3, 1.0);
        let rg = ResponseGraph::build(&g, 1e-9).unwrap();
        assert!(rg.equilibrium_count() > 0);
        for profile in rg.equilibria() {
            assert!(is_nash(&g, &profile, &NashTest::exact()).unwrap().is_nash());
        }
        // And non-sinks are not equilibria: spot check a few codes.
        let sinks: std::collections::HashSet<u32> = rg.sinks.iter().copied().collect();
        let fast = FastGame::new(&g).unwrap();
        for code in (0..rg.profile_count() as u32).step_by(7) {
            if !sinks.contains(&code) {
                let profile = fast.decode(u64::from(code));
                assert!(!is_nash(&g, &profile, &NashTest::exact()).unwrap().is_nash());
            }
        }
    }

    #[test]
    fn line_games_are_weakly_acyclic() {
        let g = line_game(3, 1.0);
        let rg = ResponseGraph::build(&g, 1e-9).unwrap();
        assert!(rg.is_weakly_acyclic());
        assert!((rg.sink_reachable_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn successors_strictly_improve() {
        let g = line_game(4, 0.8);
        let rg = ResponseGraph::build(&g, 1e-9).unwrap();
        let fast = FastGame::new(&g).unwrap();
        for code in (0..rg.profile_count() as u32).step_by(53) {
            let masks = fast.unpack(u64::from(code));
            for &next in rg.successors(code) {
                // Exactly one peer changed.
                let next_masks = fast.unpack(u64::from(next));
                let changed: Vec<usize> = (0..4).filter(|&i| masks[i] != next_masks[i]).collect();
                assert_eq!(changed.len(), 1, "one peer per edge");
            }
        }
        assert!(rg.edge_count() > 0);
    }

    #[test]
    fn sinks_have_no_successors() {
        let g = line_game(3, 2.0);
        let rg = ResponseGraph::build(&g, 1e-9).unwrap();
        for &s in &rg.sinks {
            assert!(rg.successors(s).is_empty());
        }
    }

    #[test]
    fn rejects_oversized_games() {
        let g = line_game(6, 1.0);
        assert!(ResponseGraph::build(&g, 1e-9).is_err());
    }
}
