//! The server's observability layer: request spans, the `metrics`
//! exporter, and the glue between [`sp_obs`]'s primitives and the
//! serve pipeline.
//!
//! `ServeObs` is built once per registry (when [`ObsConfig::enabled`]
//! is set) and threaded — as an `Option<Arc<ServeObs>>` — through the
//! connection engines, the scheduler, and the WAL group-commit point.
//! Each request gets an [`sp_obs::ActiveSpan`] at decode time; the
//! pipeline stamps phase boundaries as the request passes the existing
//! seams (enqueue, dequeue, execute, WAL append, group-commit fsync,
//! encode, flush), and `ServeObs::finish_span` records the completed
//! span into the trace sink, feeds the per-op latency histogram, and —
//! past the slow threshold — emits one structured log line.
//!
//! # One counter system
//!
//! Every service counter is one plain atomic, owned by the layer that
//! counts the event, and counted once. The registry's counters
//! ([`RegistryStats`]) always count, with or without `--obs`; `stats`
//! reads them. The span counters (`obs.spans_completed`,
//! `obs.slow_logged`) and the reactor's (`reactor.*`) live here and
//! count only with observability on. `ServeObs::metrics_body` is the
//! one exporter: it names those atomics, the histograms and the
//! aggregated `work.*` counters for the `metrics` op.
//!
//! With observability **off** (the default) no span is ever allocated
//! and every instrumentation site is a skipped `Option` check: the
//! request path is byte-identical to the uninstrumented server.
//! With observability **on**, responses are still bit-identical — spans
//! and metrics observe the pipeline, they never steer it — which is
//! what lets the replay gates run with `--obs` enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sp_core::SessionStats;
use sp_obs::{
    format_ns, ActiveSpan, Clock, HistogramCell, Phase, Span, SpanHandle, TickClock, TraceSink,
    WallClock,
};

use crate::registry::RegistryStats;
use crate::wire::{MetricHistogramBody, MetricsBody, OpCode, TraceSpanBody};

/// Tick-clock step: every reading advances deterministic time by 1 µs.
const TICK_STEP_NS: u64 = 1_000;

/// Trace sink stripes (rings).
const TRACE_STRIPES: usize = 8;

/// Spans retained per stripe — 8 × 128 = 1024 completed spans total.
const TRACE_PER_STRIPE: usize = 128;

/// Observability knobs, carried inside
/// [`crate::config::ServeConfig`] and
/// [`crate::registry::RegistryConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Master switch. Off = no spans, `metrics` / `trace_tail` answer
    /// `bad_request`.
    pub enabled: bool,
    /// Slow-request threshold: a completed span whose total duration
    /// reaches this emits one structured log line (and increments
    /// `obs.slow_logged`). `None` = never.
    pub slow_ns: Option<u64>,
    /// Use the deterministic [`TickClock`] instead of wall time —
    /// for tests and benches that gate on machine-independent counts.
    pub tick: bool,
}

impl ObsConfig {
    /// An enabled config with production defaults (wall clock, no slow
    /// threshold).
    #[must_use]
    pub fn enabled() -> ObsConfig {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

/// The per-server observability state: clock, span sequencer, trace
/// sink, histograms, and the counters only observability counts.
/// Shared (`Arc`) by the connection engine, the scheduler workers, and
/// the inline `metrics` / `trace_tail` ops.
pub(crate) struct ServeObs {
    trace: TraceSink,
    clock: Box<dyn Clock>,
    slow_ns: Option<u64>,
    seq: AtomicU64,
    /// Per-op latency histograms, indexed by op code.
    op_hist: Vec<Option<(String, HistogramCell)>>,
    /// Jobs per worker drain batch that appended a record (all the
    /// jobs it took, reads and early-released replies included).
    pub(crate) wal_batch_jobs: HistogramCell,
    /// Latency of each log commit.
    pub(crate) wal_fsync_ns: HistogramCell,
    /// Spans completed (one per request that reached its flush stamp).
    spans_completed: AtomicU64,
    /// Completed spans at or past the slow threshold.
    slow_logged: AtomicU64,
    /// Reactor eventfd wakeups.
    pub(crate) reactor_wakeups: AtomicU64,
    /// High-water mark of one reactor connection's frames in flight.
    pub(crate) reactor_pipeline_hwm: AtomicU64,
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("slow_ns", &self.slow_ns)
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeObs {
    /// Builds the observability state, or `None` when disabled — the
    /// `None` is what makes every instrumentation site free when off.
    #[must_use]
    pub(crate) fn new(cfg: &ObsConfig) -> Option<Arc<ServeObs>> {
        if !cfg.enabled {
            return None;
        }
        let clock: Box<dyn Clock> = if cfg.tick {
            Box::new(TickClock::new(TICK_STEP_NS))
        } else {
            Box::new(WallClock::new())
        };
        let op_hist = (0..=u8::MAX)
            .map(|tag| {
                OpCode::from_u8(tag)
                    .map(|op| (format!("op.{}", op.name()), HistogramCell::default()))
            })
            .collect();
        Some(Arc::new(ServeObs {
            trace: TraceSink::new(TRACE_STRIPES, TRACE_PER_STRIPE),
            clock,
            slow_ns: cfg.slow_ns,
            seq: AtomicU64::new(0),
            op_hist,
            wal_batch_jobs: HistogramCell::default(),
            wal_fsync_ns: HistogramCell::default(),
            spans_completed: AtomicU64::new(0),
            slow_logged: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_pipeline_hwm: AtomicU64::new(0),
        }))
    }

    /// The current clock reading.
    #[must_use]
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Starts a span for a freshly decoded request (stamping
    /// [`Phase::Decode`]) and hands back the shared handle that rides
    /// the pipeline.
    #[must_use]
    pub(crate) fn begin_span(&self, op: u8) -> SpanHandle {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let span = Arc::new(ActiveSpan::new(seq, op));
        span.stamp(Phase::Decode, self.now_ns());
        span
    }

    /// Stamps `phase` on `span` at the current clock reading.
    pub(crate) fn stamp(&self, span: &SpanHandle, phase: Phase) {
        span.stamp(phase, self.now_ns());
    }

    /// Completes a span: records it into the trace sink, feeds the
    /// per-op latency histogram, and applies the slow-request
    /// threshold. Called exactly once, after the flush stamp.
    pub(crate) fn finish_span(&self, span: &SpanHandle) {
        let snap = span.snapshot();
        self.trace.record(snap);
        self.spans_completed.fetch_add(1, Ordering::Relaxed);
        let total = snap.total_ns();
        if let Some(Some((_, hist))) = self.op_hist.get(usize::from(snap.op)) {
            hist.record(total);
        }
        if self.slow_ns.is_some_and(|limit| total >= limit) {
            self.slow_logged.fetch_add(1, Ordering::Relaxed);
            eprintln!("{}", slow_request_line(&snap));
        }
    }

    /// The `metrics` result body, the one exporter of the service's
    /// counters: the registry's always-on `stats` (under their `obs.*`
    /// and `queue.*` names), the counters only observability counts,
    /// the histograms, and the aggregated `work` as `work.*` — a
    /// deliberate subset of [`SessionStats`]: the coarse per-op work,
    /// not the cache-internals fine structure. Each list is
    /// name-sorted, so identical state encodes to identical bytes.
    #[must_use]
    pub(crate) fn metrics_body(&self, stats: &RegistryStats, work: &SessionStats) -> MetricsBody {
        // sp-lint: counters(RegistryStats)
        let RegistryStats {
            requests_served,
            sessions_created: _,
            sessions_evicted,
            sessions_restored,
            queue_depth_hwm,
            resident_sessions: _,
            resident_bytes: _,
            wal_records,
            // Also the count of the `wal.batch_jobs` histogram.
            wal_batches: _,
            wal_fsyncs,
            wal_replays: _,
        } = *stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut counters: Vec<(String, u64)> = [
            ("obs.fsync_batches", wal_fsyncs),
            // A job waits in a session queue once per request served.
            ("obs.queue_wait_events", requests_served),
            ("obs.sessions_evicted", sessions_evicted),
            ("obs.sessions_restored", sessions_restored),
            ("obs.slow_logged", load(&self.slow_logged)),
            ("obs.spans_completed", load(&self.spans_completed)),
            ("obs.wal_append_events", wal_records),
            ("reactor.wakeups", load(&self.reactor_wakeups)),
            ("work.batch_applies", work.batch_applies as u64),
            ("work.csr_rebuilds", work.csr_rebuilds as u64),
            ("work.full_sssp", work.full_sssp as u64),
            (
                "work.incremental_relaxations",
                work.incremental_relaxations as u64,
            ),
            ("work.oracle_builds", work.oracle_builds as u64),
            (
                "work.oracle_rows_repaired",
                work.oracle_rows_repaired as u64,
            ),
            ("work.snapshot_exports", work.snapshot_exports as u64),
            ("work.snapshot_restores", work.snapshot_restores as u64),
        ]
        .map(|(name, v)| (name.to_owned(), v))
        .into();
        counters.sort();
        let gauges = vec![
            ("queue.depth_hwm".to_owned(), queue_depth_hwm as u64),
            (
                "reactor.pipeline_depth_hwm".to_owned(),
                load(&self.reactor_pipeline_hwm),
            ),
        ];
        let ops = self
            .op_hist
            .iter()
            .flatten()
            .map(|(name, h)| (name.as_str(), h));
        let wal = [
            ("wal.batch_jobs", &self.wal_batch_jobs),
            ("wal.fsync_ns", &self.wal_fsync_ns),
        ];
        let mut histograms: Vec<MetricHistogramBody> = ops
            .chain(wal)
            .map(|(name, cell)| {
                let h = cell.summary();
                MetricHistogramBody {
                    name: name.to_owned(),
                    count: h.count,
                    min_ns: h.min_ns,
                    p50_ns: h.p50_ns,
                    p99_ns: h.p99_ns,
                    p999_ns: h.p999_ns,
                    max_ns: h.max_ns,
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsBody {
            counters,
            gauges,
            histograms,
        }
    }

    /// The `trace_tail` result body: the last `limit` completed spans
    /// (ascending by sequence number), optionally filtered to those at
    /// least `slow_ns` slow.
    #[must_use]
    pub(crate) fn trace_tail_body(&self, limit: usize, slow_ns: Option<u64>) -> Vec<TraceSpanBody> {
        self.trace
            .tail(limit, slow_ns.unwrap_or(0))
            .into_iter()
            .map(|s| TraceSpanBody {
                seq: s.seq,
                op: op_name(s.op).to_owned(),
                total_ns: s.total_ns(),
                phases_ns: s.offsets_ns(),
            })
            .collect()
    }
}

/// The wire name of an op tag (spans store the raw `u8`).
fn op_name(tag: u8) -> &'static str {
    OpCode::from_u8(tag).map_or("unknown", OpCode::name)
}

/// The structured slow-request log line: `key=value` pairs, one line,
/// phases as offsets from decode (unentered phases omitted).
fn slow_request_line(span: &Span) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "sp-serve slow-request seq={} op={} total={}",
        span.seq,
        op_name(span.op),
        format_ns(span.total_ns()),
    );
    let offsets = span.offsets_ns();
    let entered = sp_obs::PHASES
        .iter()
        .zip(&span.stamps)
        .zip(&offsets)
        .skip(1);
    for ((phase, &stamp), &offset) in entered {
        if stamp != 0 {
            let _ = write!(line, " {}=+{}", phase.name(), format_ns(offset));
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_nothing() {
        assert!(ServeObs::new(&ObsConfig::default()).is_none());
        assert!(ServeObs::new(&ObsConfig::enabled()).is_some());
    }

    #[test]
    fn spans_feed_counters_histograms_and_the_trace_tail() {
        let obs = ServeObs::new(&ObsConfig {
            enabled: true,
            slow_ns: Some(0),
            tick: true,
        })
        .expect("enabled");
        for _ in 0..3 {
            let span = obs.begin_span(OpCode::SocialCost as u8);
            obs.stamp(&span, Phase::Execute);
            obs.stamp(&span, Phase::Flush);
            obs.finish_span(&span);
        }
        let stats = RegistryStats {
            wal_fsyncs: 5,
            ..RegistryStats::default()
        };
        let work = SessionStats {
            full_sssp: 9,
            ..SessionStats::default()
        };
        let body = obs.metrics_body(&stats, &work);
        let counter = |name: &str| {
            body.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("obs.spans_completed"), Some(3));
        assert_eq!(counter("obs.slow_logged"), Some(3), "slow_ns=0 counts all");
        assert_eq!(counter("obs.fsync_batches"), Some(5));
        assert_eq!(counter("work.full_sssp"), Some(9));
        assert!(
            body.counters.windows(2).all(|w| w[0].0 < w[1].0)
                && body.histograms.windows(2).all(|w| w[0].name < w[1].name),
            "metrics are name-sorted: {body:?}"
        );
        let sc = body
            .histograms
            .iter()
            .find(|h| h.name == "op.social_cost")
            .expect("per-op histogram");
        assert_eq!(sc.count, 3);
        let tail = obs.trace_tail_body(2, None);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].op, "social_cost");
        assert!(tail[0].seq < tail[1].seq, "tail sorts by sequence");
        assert!(
            tail[0].total_ns > 0,
            "tick clock advances between stamps: {tail:?}"
        );
    }

    #[test]
    fn slow_line_is_structured_and_skips_unentered_phases() {
        let obs = ServeObs::new(&ObsConfig {
            enabled: true,
            tick: true,
            ..ObsConfig::enabled()
        })
        .expect("enabled");
        let span = obs.begin_span(OpCode::Ping as u8);
        obs.stamp(&span, Phase::Execute);
        obs.stamp(&span, Phase::Flush);
        let line = slow_request_line(&span.snapshot());
        assert!(line.starts_with("sp-serve slow-request seq=0 op=ping total="));
        assert!(line.contains(" execute=+"));
        assert!(line.contains(" flush=+"));
        assert!(
            !line.contains(" enqueue="),
            "unentered phase omitted: {line}"
        );
        assert!(!line.contains(" wal="), "unentered phase omitted: {line}");
    }
}
