use std::error::Error;
use std::fmt;

use sp_metric::MetricError;

/// Errors produced by game construction and game-theoretic queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// `α` must be a finite positive number.
    InvalidAlpha {
        /// The offending value.
        alpha: f64,
    },
    /// The underlying distances are not a valid metric input.
    Metric(MetricError),
    /// A peer index was at least the number of peers.
    PeerOutOfBounds {
        /// The offending index.
        peer: usize,
        /// Number of peers in the game.
        n: usize,
    },
    /// A strategy contained a self-link.
    SelfLink {
        /// The peer whose strategy self-links.
        peer: usize,
    },
    /// A strategy profile has the wrong number of strategies for the game.
    ProfileSizeMismatch {
        /// Peers in the game.
        expected: usize,
        /// Strategies in the profile.
        actual: usize,
    },
    /// An exact computation was requested on an instance too large for it.
    InstanceTooLarge {
        /// Instance size (peers).
        n: usize,
        /// The solver's limit.
        limit: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CoreError::InvalidAlpha { alpha } => {
                write!(f, "alpha must be finite and positive, got {alpha}")
            }
            CoreError::Metric(ref e) => write!(f, "invalid metric: {e}"),
            CoreError::PeerOutOfBounds { peer, n } => {
                write!(f, "peer {peer} out of bounds for a game of {n} peers")
            }
            CoreError::SelfLink { peer } => write!(f, "peer {peer} links to itself"),
            CoreError::ProfileSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "profile has {actual} strategies for a game of {expected} peers"
                )
            }
            CoreError::InstanceTooLarge { n, limit } => {
                write!(
                    f,
                    "instance of {n} peers exceeds the exact-solver limit {limit}"
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Metric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MetricError> for CoreError {
    fn from(e: MetricError) -> Self {
        CoreError::Metric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_errors_wrap_with_source() {
        let e: CoreError = MetricError::NonZeroDiagonal { i: 3 }.into();
        assert!(e.to_string().contains("invalid metric"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn bounds() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
    }
}
