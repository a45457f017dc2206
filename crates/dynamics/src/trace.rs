use sp_core::{LinkSet, PeerId};

/// One accepted strategy change during a dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    /// Global step index (activations, including no-op ones, are counted).
    pub step: usize,
    /// The peer that moved.
    pub peer: PeerId,
    /// Strategy before the move.
    pub old_links: LinkSet,
    /// Strategy after the move.
    pub new_links: LinkSet,
    /// Peer's individual cost before the move.
    pub old_cost: f64,
    /// Peer's individual cost after the move.
    pub new_cost: f64,
}

impl MoveRecord {
    /// The cost reduction achieved by this move (`+∞` if it restored
    /// connectivity).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.old_cost.is_infinite() && self.new_cost.is_infinite() {
            0.0
        } else {
            self.old_cost - self.new_cost
        }
    }
}

/// The sequence of accepted moves of a dynamics run.
///
/// Only recorded when [`crate::DynamicsConfig::record_trace`] is set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    moves: Vec<MoveRecord>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a move.
    pub fn push(&mut self, record: MoveRecord) {
        self.moves.push(record);
    }

    /// All recorded moves in order.
    #[must_use]
    pub fn moves(&self) -> &[MoveRecord] {
        &self.moves
    }

    /// Number of recorded moves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Every recorded move must strictly improve the mover's cost; returns
    /// the first violating record, if any (used as a self-check by tests).
    #[must_use]
    pub fn first_non_improving(&self) -> Option<&MoveRecord> {
        self.moves.iter().find(|m| {
            // sp-lint: allow(float-eps, reason = "self-check mirrors the engine's exact strict-improvement acceptance rule; loosening it would mask real violations")
            !(m.new_cost < m.old_cost || (m.old_cost.is_infinite() && m.new_cost.is_finite()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(step: usize, old: f64, new: f64) -> MoveRecord {
        MoveRecord {
            step,
            peer: PeerId::new(0),
            old_links: LinkSet::new(),
            new_links: [1usize].into_iter().collect(),
            old_cost: old,
            new_cost: new,
        }
    }

    #[test]
    fn trace_accumulates_and_filters() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(record(0, 10.0, 5.0));
        t.push(MoveRecord {
            peer: PeerId::new(1),
            ..record(1, 7.0, 6.0)
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.moves()[1].peer, PeerId::new(1));
        assert_eq!(t.moves()[0].improvement(), 5.0);
    }

    #[test]
    fn improvement_handles_infinities() {
        assert!(record(0, f64::INFINITY, 3.0).improvement().is_infinite());
        assert_eq!(record(0, f64::INFINITY, f64::INFINITY).improvement(), 0.0);
    }

    #[test]
    fn self_check_finds_non_improving_moves() {
        let mut t = Trace::new();
        t.push(record(0, 5.0, 4.0));
        assert!(t.first_non_improving().is_none());
        t.push(record(1, 4.0, 4.0));
        assert_eq!(t.first_non_improving().unwrap().step, 1);
    }
}
