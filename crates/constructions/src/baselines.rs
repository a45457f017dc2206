//! Collaborative reference topologies.
//!
//! The Price of Anarchy compares the worst Nash equilibrium with the
//! social optimum. Computing the optimum exactly is hopeless beyond toy
//! sizes, so experiments use the cheapest of these explicit, well-formed
//! overlays as the OPT upper bound — exactly the technique the paper uses
//! with its chain `G̃` in the proof of Theorem 4.4.
//!
//! The `√n`-hub overlay is the footnote-2 construction: with
//! `α = Θ(√n)`, a topology of degree `O(√n)` and constant stretch is
//! asymptotically optimal (as achieved by systems like Tulip).

use sp_core::{social_cost, Game, SocialCost, StrategyProfile};
use sp_graph::builders;

/// A named baseline profile with its social cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Human-readable name ("complete", "star(3)", …).
    pub name: String,
    /// The strategy profile.
    pub profile: StrategyProfile,
    /// Its social cost on the game it was built for.
    pub cost: SocialCost,
}

/// The complete overlay: every ordered pair linked; all stretches 1.
///
/// Social cost `α·n(n−1) + n(n−1)` — optimal for `α → 0`.
#[must_use]
fn complete(game: &Game) -> Baseline {
    let profile = StrategyProfile::complete(game.n());
    let cost = social_cost(game, &profile).expect("sizes match");
    Baseline {
        name: "complete".to_owned(),
        profile,
        cost,
    }
}

/// The best bidirectional star: tries every centre and keeps the cheapest.
///
/// # Panics
///
/// Panics if the game has no peers.
#[must_use]
fn best_star(game: &Game) -> Baseline {
    let n = game.n();
    assert!(n > 0, "star needs at least one peer");
    let mut best: Option<Baseline> = None;
    for c in 0..n {
        let mut links = Vec::with_capacity(2 * (n - 1));
        for v in 0..n {
            if v != c {
                links.push((c, v));
                links.push((v, c));
            }
        }
        let profile = StrategyProfile::from_links(n, &links).expect("valid indices");
        let cost = social_cost(game, &profile).expect("sizes match");
        let better = best.as_ref().is_none_or(|b| cost.total() < b.cost.total());
        if better {
            best = Some(Baseline {
                name: format!("star({c})"),
                profile,
                cost,
            });
        }
    }
    best.expect("n > 0 guarantees a candidate")
}

/// The bidirectional chain over a given peer order — the paper's `G̃` when
/// the order is the line order.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..n`.
#[must_use]
fn chain(game: &Game, order: &[usize]) -> Baseline {
    let n = game.n();
    assert_eq!(order.len(), n, "order must cover all peers");
    let mut seen = vec![false; n];
    for &i in order {
        assert!(i < n && !seen[i], "order must be a permutation");
        seen[i] = true;
    }
    let mut links = Vec::new();
    for w in order.windows(2) {
        links.push((w[0], w[1]));
        links.push((w[1], w[0]));
    }
    let profile = StrategyProfile::from_links(n, &links).expect("valid indices");
    let cost = social_cost(game, &profile).expect("sizes match");
    Baseline {
        name: "chain".to_owned(),
        profile,
        cost,
    }
}

/// A chain over the greedy nearest-neighbour tour starting from peer 0 —
/// a metric-agnostic stand-in for the line order.
#[must_use]
fn nearest_neighbor_chain(game: &Game) -> Baseline {
    let n = game.n();
    if n == 0 {
        return Baseline {
            name: "nn-chain".to_owned(),
            profile: StrategyProfile::empty(0),
            cost: SocialCost {
                link_cost: 0.0,
                stretch_cost: 0.0,
            },
        };
    }
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut cur = 0usize;
    used[0] = true;
    order.push(0);
    for _ in 1..n {
        let mut next = usize::MAX;
        let mut best = f64::INFINITY;
        for v in 0..n {
            if !used[v] && game.distance(cur, v) < best {
                best = game.distance(cur, v);
                next = v;
            }
        }
        used[next] = true;
        order.push(next);
        cur = next;
    }
    let mut b = chain(game, &order);
    b.name = "nn-chain".to_owned();
    b
}

/// The bidirectional metric minimum spanning tree.
#[must_use]
fn mst(game: &Game) -> Baseline {
    let tree = builders::mst_bidirectional(game.matrix());
    let links: Vec<(usize, usize)> = tree.edges().map(|(u, v, _)| (u, v)).collect();
    let profile = StrategyProfile::from_links(game.n(), &links).expect("valid indices");
    let cost = social_cost(game, &profile).expect("sizes match");
    Baseline {
        name: "mst".to_owned(),
        profile,
        cost,
    }
}

/// The `√n`-hub overlay (footnote 2 / Tulip-style): `h` hubs chosen by
/// farthest-point sampling, hubs pairwise bidirectionally linked, every
/// other peer bidirectionally linked to its nearest hub.
///
/// With `h = ⌈√n⌉` every peer has degree `O(√n)` and, in well-behaved
/// metrics, constant stretch.
///
/// # Panics
///
/// Panics if `hubs == 0` or `hubs > n` (for `n > 0`).
#[must_use]
fn hub_overlay(game: &Game, hubs: usize) -> Baseline {
    let n = game.n();
    if n == 0 {
        return Baseline {
            name: "hub(0)".to_owned(),
            profile: StrategyProfile::empty(0),
            cost: SocialCost {
                link_cost: 0.0,
                stretch_cost: 0.0,
            },
        };
    }
    assert!(
        hubs >= 1 && hubs <= n,
        "need 1 <= hubs <= n, got {hubs} for n={n}"
    );
    // Farthest-point sampling for well-spread hubs.
    let mut hub_list = vec![0usize];
    while hub_list.len() < hubs {
        let mut far = 0usize;
        let mut far_d = -1.0;
        for v in 0..n {
            let d = hub_list
                .iter()
                .map(|&h| game.distance(v, h))
                .fold(f64::INFINITY, f64::min);
            if d > far_d {
                far_d = d;
                far = v;
            }
        }
        hub_list.push(far);
    }
    let is_hub = {
        let mut m = vec![false; n];
        for &h in &hub_list {
            m[h] = true;
        }
        m
    };
    let mut links = Vec::new();
    for (ai, &a) in hub_list.iter().enumerate() {
        for &b in &hub_list[(ai + 1)..] {
            links.push((a, b));
            links.push((b, a));
        }
    }
    for v in 0..n {
        if is_hub[v] {
            continue;
        }
        let nearest = *hub_list
            .iter()
            .min_by(|&&a, &&b| game.distance(v, a).total_cmp(&game.distance(v, b)))
            .expect("hubs nonempty");
        links.push((v, nearest));
        links.push((nearest, v));
    }
    let profile = StrategyProfile::from_links(n, &links).expect("valid indices");
    let cost = social_cost(game, &profile).expect("sizes match");
    Baseline {
        name: format!("hub({hubs})"),
        profile,
        cost,
    }
}

/// The `⌈√n⌉`-hub overlay.
#[must_use]
fn sqrt_hub_overlay(game: &Game) -> Baseline {
    let n = game.n();
    let h = ((n as f64).sqrt().ceil() as usize).clamp(1, n.max(1));
    hub_overlay(game, h)
}

/// Every baseline applicable to `game`, cheapest first.
#[must_use]
pub fn all_baselines(game: &Game) -> Vec<Baseline> {
    if game.n() == 0 {
        return Vec::new();
    }
    let mut out = vec![
        complete(game),
        best_star(game),
        nearest_neighbor_chain(game),
        mst(game),
        sqrt_hub_overlay(game),
    ];
    out.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
    out
}

/// The cheapest baseline — the experiments' OPT upper bound.
///
/// # Panics
///
/// Panics if the game has no peers.
#[must_use]
pub fn best_baseline(game: &Game) -> Baseline {
    all_baselines(game)
        .into_iter()
        .next()
        .expect("non-empty game has baselines")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use sp_core::poa::opt_lower_bound;
    use sp_core::{max_stretch, Game};
    use sp_metric::{generators, LineSpace, MetricSpace};

    fn line_game(n: usize, alpha: f64) -> Game {
        let pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Game::from_space(&LineSpace::new(pos).unwrap(), alpha).unwrap()
    }

    #[test]
    fn complete_baseline_cost_closed_form() {
        let g = line_game(5, 2.0);
        let b = complete(&g);
        assert_eq!(b.cost.link_cost, 2.0 * 20.0);
        assert_eq!(b.cost.stretch_cost, 20.0);
    }

    #[test]
    fn star_picks_a_central_centre() {
        let g = line_game(5, 1.0);
        let b = best_star(&g);
        // Centre 2 minimizes detours on a uniform line.
        assert_eq!(b.name, "star(2)");
        assert!(b.cost.is_connected());
    }

    #[test]
    fn chain_on_line_has_unit_stretches() {
        let g = line_game(6, 1.5);
        let b = chain(&g, &[0, 1, 2, 3, 4, 5]);
        assert!((b.cost.stretch_cost - 30.0).abs() < 1e-9);
        assert_eq!(b.cost.link_cost, 1.5 * 10.0);
        assert_eq!(max_stretch(&g, &b.profile).unwrap(), 1.0);
    }

    #[test]
    fn nn_chain_recovers_line_order() {
        let g = line_game(6, 1.0);
        let a = nearest_neighbor_chain(&g);
        let b = chain(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(a.cost.total(), b.cost.total());
    }

    #[test]
    fn mst_on_line_is_chain() {
        let g = line_game(5, 1.0);
        let m = mst(&g);
        assert_eq!(m.profile.link_count(), 8);
        assert!(m.cost.is_connected());
        assert!((m.cost.stretch_cost - 20.0).abs() < 1e-9);
    }

    #[test]
    fn hub_overlay_degrees_are_sqrtish() {
        let mut rng = StdRng::seed_from_u64(11);
        let space = generators::uniform_square(36, 100.0, &mut rng);
        let g = Game::from_space(&space, (36f64).sqrt()).unwrap();
        let b = sqrt_hub_overlay(&g);
        assert!(b.cost.is_connected());
        // Max degree: hub degree <= (h-1) + members; crude sanity bound.
        let topo = sp_core::topology(&g, &b.profile).unwrap();
        assert!(topo.max_out_degree() <= 6 + 36 / 6 + 6);
        // Average stretch stays modest in a uniform square (worst-case
        // stretch is unbounded for near-coincident pairs split across
        // hubs — the Tulip-style guarantee concerns typical pairs).
        let avg = b.cost.stretch_cost / (36.0 * 35.0);
        assert!(avg < 4.0, "average stretch {avg} too large");
        assert!(max_stretch(&g, &b.profile).unwrap().is_finite());
    }

    #[test]
    #[should_panic(expected = "hubs <= n")]
    fn hub_overlay_validates_hub_count() {
        let g = line_game(3, 1.0);
        let _ = hub_overlay(&g, 9);
    }

    #[test]
    fn all_baselines_sorted_and_above_lower_bound() {
        let g = line_game(7, 2.0);
        let all = all_baselines(&g);
        assert_eq!(all.len(), 5);
        for w in all.windows(2) {
            assert!(w[0].cost.total() <= w[1].cost.total());
        }
        let lb = opt_lower_bound(&g);
        for b in &all {
            assert!(
                b.cost.total() >= lb - 1e-9,
                "{} beats the universal lower bound?!",
                b.name
            );
        }
        assert_eq!(best_baseline(&g).cost.total(), all[0].cost.total());
    }

    #[test]
    fn baselines_work_on_clustered_metrics() {
        let mut rng = StdRng::seed_from_u64(3);
        let space = generators::ClusteredPoints::new(3, 5)
            .area_side(100.0)
            .cluster_radius(2.0)
            .build(&mut rng);
        let g = Game::from_space(&space, 4.0).unwrap();
        for b in all_baselines(&g) {
            assert!(b.cost.is_connected(), "{} disconnected", b.name);
            assert!(b.cost.total() > 0.0);
        }
        let _ = space.len();
    }
}
