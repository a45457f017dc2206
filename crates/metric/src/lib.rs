//! Metric spaces for peer placement.
//!
//! The network creation game of Moscibroda, Schmid & Wattenhofer models
//! peers as points of a metric space `M = (V, d)` whose distance function
//! describes underlying latencies. This crate provides:
//!
//! * the [`MetricSpace`] trait — finite point sets with pairwise distances;
//! * concrete spaces: [`LineSpace`] (1-D Euclidean, the space of the paper's
//!   lower bound), [`Euclidean2D`] (the space of the paper's non-existence
//!   instance), and [`MatrixMetric`] (arbitrary finite metrics given
//!   explicitly);
//! * random placement generators ([`generators`]) for uniform, clustered
//!   and bounded-ratio workloads;
//! * [`validate_metric`], the check of the metric axioms — the paper's
//!   upper bound holds for *arbitrary* metrics.
//!
//! # Example
//!
//! ```
//! use sp_metric::{Euclidean2D, MetricSpace, Point2};
//!
//! let space = Euclidean2D::new(vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(3.0, 4.0),
//! ]).unwrap();
//! assert_eq!(space.distance(0, 1), 5.0);
//! ```

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod error;
mod euclidean;
pub mod generators;
mod line;
mod matrix_metric;
mod point;
mod space;

pub use error::MetricError;
pub use euclidean::Euclidean2D;
pub use generators::ClusteredPoints;
pub use line::LineSpace;
pub use matrix_metric::MatrixMetric;
pub use point::Point2;
pub use space::{validate_metric, MetricSpace};
