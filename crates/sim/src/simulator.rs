use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sp_core::{topology, CoreError, Game, GameSession, StrategyProfile};
use sp_graph::DiGraph;

use crate::NextHopTable;

/// Forwarding strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Routing {
    /// Follow precomputed shortest-path next hops (a converged DHT).
    /// Delivered latency equals the analytical overlay distance exactly.
    #[default]
    ShortestPath,
    /// Greedy metric routing: forward to the out-neighbour strictly
    /// closest to the target in the *underlying* metric; drop at local
    /// minima. The classic stateless locality strategy.
    GreedyMetric,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Forwarding strategy.
    pub routing: Routing,
    /// Hop budget per lookup; messages exceeding it are dropped.
    pub ttl: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            routing: Routing::ShortestPath,
            ttl: 64,
        }
    }
}

/// Outcome of one simulated lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupResult {
    /// Originating peer.
    pub src: usize,
    /// Target peer.
    pub dst: usize,
    /// Whether the message reached `dst`.
    pub delivered: bool,
    /// Accumulated latency at delivery (or at drop time).
    pub latency: f64,
    /// Hops taken.
    pub hops: usize,
}

impl LookupResult {
    /// Measured stretch `latency / d(src, dst)`; `None` for undelivered
    /// lookups or `src == dst`.
    #[must_use]
    pub fn stretch(&self, game: &Game) -> Option<f64> {
        if !self.delivered || self.src == self.dst {
            return None;
        }
        Some(self.latency / game.distance(self.src, self.dst))
    }
}

/// Aggregate results of a workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadStats {
    /// Per-lookup outcomes.
    pub results: Vec<LookupResult>,
}

impl WorkloadStats {
    /// Fraction of lookups delivered (1.0 for an empty workload).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 1.0;
        }
        self.results.iter().filter(|r| r.delivered).count() as f64 / self.results.len() as f64
    }

    /// Mean measured stretch of delivered lookups (`None` if none).
    #[must_use]
    pub fn mean_stretch(&self, game: &Game) -> Option<f64> {
        let stretches: Vec<f64> = self
            .results
            .iter()
            .filter_map(|r| r.stretch(game))
            .collect();
        if stretches.is_empty() {
            None
        } else {
            Some(stretches.iter().sum::<f64>() / stretches.len() as f64)
        }
    }
}

/// The simulator: an overlay topology, a routing strategy, a virtual
/// clock, and an optional set of dead peers that silently drop traffic.
#[derive(Debug, Clone)]
pub struct LookupSimulator<'g> {
    game: &'g Game,
    topo: DiGraph,
    next_hop: Option<NextHopTable>,
    config: SimConfig,
    dead: Vec<bool>,
}

/// Virtual-clock event: a message arriving at a peer.
#[derive(Debug, PartialEq)]
struct Arrival {
    time: f64,
    at: usize,
    hops: usize,
}

impl Eq for Arrival {}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.at.cmp(&self.at))
            .then_with(|| other.hops.cmp(&self.hops))
    }
}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'g> LookupSimulator<'g> {
    /// Builds a simulator over the overlay `G[profile]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] if the profile does not
    /// match the game.
    pub fn new(
        game: &'g Game,
        profile: &StrategyProfile,
        config: SimConfig,
    ) -> Result<Self, CoreError> {
        let topo = topology(game, profile)?;
        let next_hop = match config.routing {
            Routing::ShortestPath => Some(NextHopTable::build(&topo)),
            Routing::GreedyMetric => None,
        };
        Ok(LookupSimulator {
            game,
            topo,
            next_hop,
            config,
            dead: vec![false; game.n()],
        })
    }

    /// Builds a simulator over a [`GameSession`]'s current profile — the
    /// natural follow-up to a session-driven dynamics run (the session
    /// stays usable; the simulator snapshots the overlay).
    #[must_use]
    pub fn from_session(session: &'g GameSession, config: SimConfig) -> Self {
        LookupSimulator::new(session.game(), session.profile(), config)
            .expect("a session's game and profile always agree on size")
    }

    /// Marks peers as dead: they silently drop any message arriving at
    /// them (and originate none). Routing tables are *not* recomputed —
    /// this models the window before failure detection.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn kill_peers(&mut self, peers: &[usize]) {
        for &p in peers {
            assert!(p < self.game.n(), "peer {p} out of bounds");
            self.dead[p] = true;
        }
    }

    /// The overlay being simulated.
    #[must_use]
    pub fn overlay(&self) -> &DiGraph {
        &self.topo
    }

    fn forward(&self, at: usize, dst: usize) -> Option<usize> {
        match self.config.routing {
            Routing::ShortestPath => self
                .next_hop
                .as_ref()
                .expect("built for shortest-path routing")
                .next_hop(at, dst),
            Routing::GreedyMetric => {
                let mut best: Option<(usize, f64)> = None;
                for e in self.topo.out_edges(at) {
                    let d = self.game.distance(e.to, dst);
                    let better = match best {
                        None => true,
                        Some((_, bd)) => d < bd,
                    };
                    if better {
                        best = Some((e.to, d));
                    }
                }
                // Strict progress requirement: drop at local minima.
                best.and_then(|(v, d)| (d < self.game.distance(at, dst)).then_some(v))
            }
        }
    }

    /// Simulates one lookup from `src` to `dst` on the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of bounds.
    #[must_use]
    pub fn lookup(&self, src: usize, dst: usize) -> LookupResult {
        let n = self.game.n();
        assert!(src < n && dst < n, "peer out of bounds");
        let mut heap = BinaryHeap::new();
        heap.push(Arrival {
            time: 0.0,
            at: src,
            hops: 0,
        });
        // Event loop (a single message in flight; the heap form keeps the
        // machinery identical for multi-message workloads).
        while let Some(Arrival { time, at, hops }) = heap.pop() {
            if self.dead[at] {
                return LookupResult {
                    src,
                    dst,
                    delivered: false,
                    latency: time,
                    hops,
                };
            }
            if at == dst {
                return LookupResult {
                    src,
                    dst,
                    delivered: true,
                    latency: time,
                    hops,
                };
            }
            if hops >= self.config.ttl {
                return LookupResult {
                    src,
                    dst,
                    delivered: false,
                    latency: time,
                    hops,
                };
            }
            match self.forward(at, dst) {
                None => {
                    return LookupResult {
                        src,
                        dst,
                        delivered: false,
                        latency: time,
                        hops,
                    }
                }
                Some(next) => {
                    heap.push(Arrival {
                        time: time + self.game.distance(at, next),
                        at: next,
                        hops: hops + 1,
                    });
                }
            }
        }
        unreachable!("the event loop always returns");
    }

    /// Runs a batch of lookups.
    #[must_use]
    pub fn run_workload(&self, pairs: &[(usize, usize)]) -> WorkloadStats {
        WorkloadStats {
            results: pairs.iter().map(|&(s, d)| self.lookup(s, d)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::overlay_distances;
    use sp_metric::{LineSpace, Point2};

    fn line_game() -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0, 4.0]).unwrap(), 1.0).unwrap()
    }

    fn chain(n: usize) -> StrategyProfile {
        let mut links = Vec::new();
        for i in 0..n - 1 {
            links.push((i, i + 1));
            links.push((i + 1, i));
        }
        StrategyProfile::from_links(n, &links).unwrap()
    }

    #[test]
    fn shortest_path_latency_matches_overlay_distance() {
        let game = line_game();
        let p = chain(4);
        let sim = LookupSimulator::new(&game, &p, SimConfig::default()).unwrap();
        let analytic = overlay_distances(&game, &p).unwrap();
        for s in 0..4 {
            for d in 0..4 {
                let r = sim.lookup(s, d);
                assert!(r.delivered);
                assert!((r.latency - analytic[(s, d)]).abs() < 1e-12, "({s},{d})");
            }
        }
    }

    #[test]
    fn greedy_routing_succeeds_on_the_line_chain() {
        let game = line_game();
        let p = chain(4);
        let config = SimConfig {
            routing: Routing::GreedyMetric,
            ..SimConfig::default()
        };
        let sim = LookupSimulator::new(&game, &p, config).unwrap();
        let stats = sim.run_workload(&crate::workload::all_pairs(4));
        assert_eq!(stats.success_rate(), 1.0);
        // On a line, greedy follows the chain: stretch exactly 1.
        assert!((stats.mean_stretch(&game).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_routing_fails_at_local_minima() {
        // Peers on a plane: 0 at origin, target 3 far right; 0's only
        // link goes to 1 which is *farther* from 3 than 0 is. Greedy must
        // drop; shortest-path routing still delivers via 1 -> 2 -> 3.
        let space = sp_metric::Euclidean2D::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(-1.0, 0.0),
            Point2::new(-1.0, 3.0),
            Point2::new(4.0, 0.5),
        ])
        .unwrap();
        let game = Game::from_space(&space, 1.0).unwrap();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let greedy = LookupSimulator::new(
            &game,
            &p,
            SimConfig {
                routing: Routing::GreedyMetric,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r = greedy.lookup(0, 3);
        assert!(!r.delivered, "greedy should hit the local minimum at 0");
        let sp = LookupSimulator::new(&game, &p, SimConfig::default()).unwrap();
        assert!(sp.lookup(0, 3).delivered);
    }

    #[test]
    fn ttl_limits_hop_count() {
        let game = line_game();
        let p = chain(4);
        let config = SimConfig {
            ttl: 1,
            ..SimConfig::default()
        };
        let sim = LookupSimulator::new(&game, &p, config).unwrap();
        let r = sim.lookup(0, 3);
        assert!(!r.delivered);
        assert_eq!(r.hops, 1);
        // Adjacent still works.
        assert!(sim.lookup(0, 1).delivered);
    }

    #[test]
    fn dead_peers_drop_messages() {
        let game = line_game();
        let p = chain(4);
        let mut sim = LookupSimulator::new(&game, &p, SimConfig::default()).unwrap();
        sim.kill_peers(&[1]);
        let r = sim.lookup(0, 3);
        assert!(!r.delivered, "the only route crosses the dead peer");
        // Lookups that avoid the dead peer still work.
        assert!(sim.lookup(2, 3).delivered);
    }

    #[test]
    fn self_lookup_is_instant() {
        let game = line_game();
        let sim = LookupSimulator::new(&game, &chain(4), SimConfig::default()).unwrap();
        let r = sim.lookup(2, 2);
        assert!(r.delivered);
        assert_eq!(r.latency, 0.0);
        assert_eq!(r.hops, 0);
        assert_eq!(r.stretch(&game), None);
    }

    #[test]
    fn workload_stats_aggregate() {
        let game = line_game();
        let sim = LookupSimulator::new(&game, &chain(4), SimConfig::default()).unwrap();
        let stats = sim.run_workload(&[(0, 3), (3, 0), (1, 1)]);
        assert_eq!(stats.results.len(), 3);
        assert_eq!(stats.success_rate(), 1.0);
        let latency: f64 = stats.results.iter().map(|r| r.latency).sum();
        assert!((latency - (4.0 + 4.0)).abs() < 1e-12);
        let empty = WorkloadStats::default();
        assert_eq!(empty.success_rate(), 1.0);
    }

    #[test]
    fn unreachable_destination_is_undelivered() {
        let game = line_game();
        let p = StrategyProfile::from_links(4, &[(0, 1)]).unwrap();
        let sim = LookupSimulator::new(&game, &p, SimConfig::default()).unwrap();
        let r = sim.lookup(0, 3);
        assert!(!r.delivered);
        assert_eq!(r.hops, 0);
    }
}
