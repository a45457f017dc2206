//! Batch convergence statistics.
//!
//! The conclusion of the paper's Section 5 — selfish dynamics need not
//! stabilise — raises the empirical question *how often* and *how fast*
//! dynamics do converge on ordinary instances. [`ConvergenceStats`]
//! aggregates the outcomes of many seeded runs (experiment E7).

use crate::{DynamicsOutcome, Termination};

/// Aggregated outcomes of a batch of dynamics runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceStats {
    /// Total runs.
    pub runs: usize,
    /// Runs that converged.
    pub converged: usize,
    /// Steps used by each converged run.
    pub steps_to_converge: Vec<usize>,
}

impl ConvergenceStats {
    /// Mean steps among converged runs (`None` if none converged).
    #[must_use]
    pub fn mean_steps(&self) -> Option<f64> {
        if self.steps_to_converge.is_empty() {
            None
        } else {
            Some(
                self.steps_to_converge.iter().sum::<usize>() as f64
                    / self.steps_to_converge.len() as f64,
            )
        }
    }

    /// Folds one outcome into the statistics.
    pub fn record(&mut self, outcome: &DynamicsOutcome) {
        self.runs += 1;
        if matches!(outcome.termination, Termination::Converged { .. }) {
            self.converged += 1;
            self.steps_to_converge.push(outcome.steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsConfig, DynamicsRunner, Schedule};
    use sp_core::{Game, StrategyProfile};
    use sp_metric::LineSpace;

    fn run_batch(
        game: &Game,
        config: &DynamicsConfig,
        starts: Vec<StrategyProfile>,
    ) -> ConvergenceStats {
        let mut stats = ConvergenceStats::default();
        for start in starts {
            stats.record(&DynamicsRunner::new(game, config.clone()).run(start));
        }
        stats
    }

    #[test]
    fn batch_on_easy_instances_converges_everywhere() {
        let game =
            sp_core::Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0, 4.0]).unwrap(), 1.0)
                .unwrap();
        let starts = vec![
            StrategyProfile::empty(4),
            StrategyProfile::complete(4),
            StrategyProfile::from_links(4, &[(0, 1), (1, 2)]).unwrap(),
        ];
        let stats = run_batch(&game, &DynamicsConfig::default(), starts);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.converged, 3);
        assert_eq!(stats.steps_to_converge.len(), 3);
        assert!(stats.mean_steps().unwrap() > 0.0);
    }

    #[test]
    fn round_limit_shows_up_in_stats() {
        let game =
            sp_core::Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 1.0).unwrap();
        let config = DynamicsConfig {
            max_rounds: 0,
            schedule: Schedule::UniformRandom { seed: 3 },
            ..DynamicsConfig::default()
        };
        let stats = run_batch(&game, &config, vec![StrategyProfile::empty(3)]);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.converged, 0);
        assert_eq!(stats.mean_steps(), None);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let stats = ConvergenceStats::default();
        assert_eq!(stats.mean_steps(), None);
    }
}
