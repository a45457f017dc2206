//! `sp-obs` — first-party observability primitives.
//!
//! Everything a service needs to explain its own latency, with zero
//! external dependencies and determinism as a design constraint:
//!
//! * [`Histogram`] — the fixed-bucket log-linear latency histogram
//!   (moved here from `sp-serve` so server and load generator share one
//!   implementation; bucket layout and quantile readout are unchanged).
//!   [`HistogramCell`] shares one behind a mutex and reads out a
//!   [`HistogramSummary`]. Counters are not kept here: a service
//!   counts its events in plain atomics owned by the layer that
//!   counts them, and exports them itself.
//! * [`Span`] / [`ActiveSpan`] / [`TraceSink`] — per-request phase
//!   timestamps (decode → queue → execute → wal → fsync → encode →
//!   flush) recorded into fixed-size striped ring buffers. Recording
//!   never allocates; rings overwrite oldest-first.
//! * [`Clock`] — the injectable time source: [`WallClock`] for
//!   production, [`TickClock`] for machine-independent tests and
//!   benchmarks (every reading advances a counter by a fixed step, so
//!   span *counts* and durations are bit-reproducible).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod hist;
mod span;

pub use clock::{Clock, TickClock, WallClock};
pub use hist::{format_ns, Histogram, HistogramCell, HistogramSummary, SUB_BUCKETS};
pub use span::{ActiveSpan, Phase, Span, SpanHandle, SpanRing, TraceSink, PHASES, SPAN_PHASES};
