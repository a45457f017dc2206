//! Demo: two rounds of better-response dynamics on 100 000 peers.
//!
//! Run with `cargo run --release -p sp-dynamics --example large_scale`.
//! The sparse session keeps peak session memory in the tens of
//! megabytes; the dense matrix alone would cost 80 GB at this size.

use sp_core::{Game, SparseSession, StrategyProfile};
use sp_dynamics::large_scale::{run_large_scale, LargeScaleConfig};
use std::time::Instant;

fn main() {
    let n = 100_000;
    let positions: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
    let game = Game::from_line_positions(positions, 0.8).unwrap();
    let t0 = Instant::now();
    let mut session = SparseSession::new(game, StrategyProfile::empty(n)).unwrap();
    println!("session setup: {:?}", t0.elapsed());
    let cfg = LargeScaleConfig {
        max_rounds: 2,
        tolerance: 1e-9,
    };
    let t1 = Instant::now();
    let report = run_large_scale(&mut session, &cfg).unwrap();
    println!("{} rounds: {:?}", report.rounds, t1.elapsed());
    println!(
        "moves={} peak_memory={:.1} MB ball_sweeps={} sketch_hits={} pruned={} sketch_rows={}",
        report.moves,
        report.peak_memory_bytes as f64 / 1e6,
        report.stats.sparse_ball_sweeps,
        report.stats.sparse_sketch_hits,
        report.stats.sparse_pruned_candidates,
        report.stats.sparse_sketch_rows
    );
}
