//! Integration: the facade crate's prelude exposes a coherent API
//! surface — everything a downstream user needs without reaching into
//! individual crates.

use selfish_peers::prelude::*;

#[test]
fn prelude_supports_the_full_modelling_workflow() {
    // Build a metric three ways.
    let line = LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap();
    let plane = Euclidean2D::new(vec![
        selfish_peers::metric::Point2::new(0.0, 0.0),
        selfish_peers::metric::Point2::new(1.0, 0.0),
        selfish_peers::metric::Point2::new(0.0, 1.0),
    ])
    .unwrap();
    let matrix = MatrixMetric::new(
        DistanceMatrix::from_row_major(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap(),
        1e-9,
    )
    .unwrap();
    assert_eq!(line.len(), 3);
    assert_eq!(plane.len(), 3);
    assert_eq!(matrix.len(), 2);

    // Games from each.
    let g1 = Game::from_space(&line, 1.0).unwrap();
    let g2 = Game::from_space(&plane, 1.0).unwrap();
    let g3 = Game::from_space(&matrix, 1.0).unwrap();
    assert_eq!(g1.n() + g2.n() + g3.n(), 8);

    // Strategy manipulation.
    let mut p = StrategyProfile::empty(3);
    p.add_link(PeerId::new(0), PeerId::new(1)).unwrap();
    let s: LinkSet = [2usize].into_iter().collect();
    p.set_strategy(PeerId::new(1), s).unwrap();
    assert_eq!(p.link_count(), 2);

    // Cost and responses.
    let cost = social_cost(&g1, &p).unwrap();
    assert!(!cost.is_connected());
    let br = best_response(&g1, &p, PeerId::new(2), BestResponseMethod::Exact).unwrap();
    assert!(br.exact);

    // Equilibrium checking.
    let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
    assert!(is_nash(&g1, &chain, &NashTest::exact()).unwrap().is_nash());
}

#[test]
fn prelude_exposes_the_paper_constructions() {
    let lb = LineLowerBound::new(6, 3.4).unwrap();
    assert_eq!(lb.n(), 6);
    let inst = NoEquilibriumInstance::paper(1);
    assert_eq!(inst.n(), 5);
    let fab = FabrikantGame::new(4, 1.0).unwrap();
    assert_eq!(fab.n(), 4);
    let game = lb.game();
    let b = baselines::best_baseline(&game);
    assert!(b.cost.total().is_finite());
}

#[test]
fn graph_and_metric_layers_are_reachable() {
    use selfish_peers::graph::{builders, is_strongly_connected};
    let g = builders::cycle_graph(4, |_, _| 1.0);
    assert!(is_strongly_connected(&g));
    use rand::SeedableRng;
    use selfish_peers::metric::{generators, validate_metric};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let square = generators::uniform_square(16, 4.0, &mut rng);
    assert!(validate_metric(&square, 1e-9).is_ok());
}
