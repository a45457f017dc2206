//! Large-`n` scale: a sparse session drives better-response rounds on
//! 10⁵ peers in linear memory.
//!
//! The claim: a [`sp_core::SparseSession`] never materialises the `n × n`
//! distance matrix, so instance sizes three orders of magnitude past the
//! dense ceiling stay drivable. At `n = 100 000` the dense matrix alone
//! would cost `8 n² = 80 GB`; the sparse session (landmark sketch +
//! bounded balls + implicit 1-D metric) runs the same round-based
//! dynamics in tens of megabytes.
//!
//! Wall-clock is machine-dependent, so the gate is the
//! machine-independent pair: **peak session bytes** at the full size
//! (unit `bytes`, more is worse) and the **sketch hits** — candidate
//! distances served by the certified landmark upper bounds after the
//! bounded ball truncated (unit `hits`, fewer means the bounds stopped
//! absorbing work the session would otherwise pay exactly). All
//! counters come from a fixed `n = 100 000` run regardless of
//! `BENCH_QUICK`, so the committed `BENCH_large_n_scale.json` matches
//! CI's quick runs exactly; only the timed loop shrinks under
//! `BENCH_QUICK=1`.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sp_core::{Game, SparseParams, SparseSession, StrategyProfile};
use sp_dynamics::large_scale::{run_large_scale, LargeScaleConfig, LargeScaleReport};

/// The gated size: counters always come from this instance.
const N_FULL: usize = 100_000;
/// Rounds per drive — two is enough for a full re-balance off the ring
/// start plus a quiescence check, while keeping the quick CI run short.
const ROUNDS: usize = 2;
/// Timed drives per run; the recorded figure is their median. One drive
/// outlasts the harness's quick measurement window, so a calibrated
/// `iter` loop would time a single sample.
const TIMED_DRIVES: usize = 5;

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// A 1-D instance with mildly uneven spacing (so windows are not
/// degenerate) and a directed-ring starting overlay: every peer links
/// to its successor, so the round-start graph is strongly connected and
/// evaluation balls genuinely truncate — the regime the sketch bounds
/// exist for — while every peer still wants to re-balance.
fn instance(n: usize) -> (Game, StrategyProfile) {
    let positions: Vec<f64> = (0..n)
        .map(|i| i as f64 * 1.5 + if i % 3 == 0 { 0.4 } else { 0.0 })
        .collect();
    let game = Game::from_line_positions(positions, 0.8).expect("distinct positions");
    let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let profile = StrategyProfile::from_links(n, &ring).expect("valid ring");
    (game, profile)
}

fn drive(n: usize, params: SparseParams) -> (SparseSession, LargeScaleReport) {
    let (game, profile) = instance(n);
    let mut session = SparseSession::with_params(game, profile, params).expect("sizes match");
    let cfg = LargeScaleConfig {
        max_rounds: ROUNDS,
        tolerance: 1e-9,
    };
    let report = run_large_scale(&mut session, &cfg).expect("in-bounds drive");
    (session, report)
}

fn bench_large_n_scale(c: &mut Criterion) {
    // Timed drives: quick CI runs time a smaller instance; the full size
    // is timed only in locally-generated snapshots.
    let n_timed = if quick() { 20_000 } else { N_FULL };
    let mut times_ns: Vec<f64> = (0..TIMED_DRIVES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(drive(n_timed, SparseParams::default()));
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times_ns.sort_by(f64::total_cmp);
    let id = format!("large_n_sparse_round/drive/{n_timed}");
    c.report_value(&id, times_ns[TIMED_DRIVES / 2], "ns");

    // Counter pass: one deterministic full-size drive at the default
    // tuning (the headline memory figure).
    let (session, report) = drive(N_FULL, SparseParams::default());
    let peak_bytes = report.peak_memory_bytes + session.game().metric_bytes();
    let dense_bytes = 8 * N_FULL * N_FULL;
    let reduction = dense_bytes as f64 / peak_bytes as f64;
    println!(
        "n={N_FULL}: {} rounds, {} moves; peak {:.1} MB vs {:.0} GB dense ({reduction:.0}x) — \
         {} ball sweeps, {} sketch hits, {} candidates pruned",
        report.rounds,
        report.moves,
        peak_bytes as f64 / 1e6,
        dense_bytes as f64 / 1e9,
        report.stats.sparse_ball_sweeps,
        report.stats.sparse_sketch_hits,
        report.stats.sparse_pruned_candidates,
    );
    c.report_value(
        &format!("large_n/peak_bytes/{N_FULL}"),
        peak_bytes as f64,
        "bytes",
    );
    c.report_value(&format!("large_n/dense_reduction/{N_FULL}"), reduction, "x");
    c.report_value(
        &format!("large_n/moves/{N_FULL}"),
        report.moves as f64,
        "moves",
    );
    c.report_value(
        &format!("large_n/ball_sweeps/{N_FULL}"),
        report.stats.sparse_ball_sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("large_n/sketch_hits/{N_FULL}"),
        report.stats.sparse_sketch_hits as f64,
        "hits",
    );
    c.report_value(
        &format!("large_n/pruned_candidates/{N_FULL}"),
        report.stats.sparse_pruned_candidates as f64,
        "hits",
    );
    assert_eq!(report.rounds, ROUNDS, "drive must run the full budget");
    assert!(
        report.moves >= N_FULL,
        "the re-balance round moves every peer off its ring link"
    );
    assert!(
        peak_bytes < 256 << 20,
        "sparse drive must stay within linear memory, got {peak_bytes} bytes"
    );
    assert!(
        report.stats.sparse_sketch_hits > 0 && report.stats.sparse_pruned_candidates > 0,
        "the certified sketch bounds must absorb candidates: {:?}",
        report.stats
    );
}

criterion_group!(benches, bench_large_n_scale);
criterion_main!(benches);
