//! The server's observability layer: request spans, the metrics
//! registry, and the glue between [`sp_obs`]'s primitives and the
//! serve pipeline.
//!
//! [`ServeObs`] is built once per registry (when [`ObsConfig::enabled`]
//! is set) and threaded — as an `Option<Arc<ServeObs>>` — through the
//! connection engines, the scheduler, and the WAL group-commit point.
//! Each request gets an [`sp_obs::ActiveSpan`] at decode time; the
//! pipeline stamps phase boundaries as the request passes the existing
//! seams (enqueue, dequeue, execute, WAL append, group-commit fsync,
//! encode, flush), and [`ServeObs::finish_span`] records the completed
//! span into the trace sink, feeds the per-op latency histogram, and —
//! past the slow threshold — emits one structured log line.
//!
//! With observability **off** (the default) no span is ever allocated
//! and every instrumentation site is a skipped `Option` check: the
//! request path is byte-identical to the uninstrumented server.
//! With observability **on**, responses are still bit-identical — spans
//! and metrics observe the pipeline, they never steer it — which is
//! what lets the replay gates run with `--obs` enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sp_obs::{
    format_ns, ActiveSpan, Clock, Counter, Gauge, HistogramCell, MetricsRegistry, Phase, Span,
    SpanHandle, TickClock, TraceSink, WallClock,
};

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
    /// Master switch. Off = no spans, no metrics, `metrics` /
    /// `trace_tail` answer `bad_request`.
    pub enabled: bool,
    /// Slow-request threshold: a completed span whose total duration
    /// reaches this emits one structured log line (and increments
    /// `obs.slow_logged`). `None` = never.
    pub slow_ns: Option<u64>,
    /// Use the deterministic [`TickClock`] instead of wall time —
    /// for tests and benches that gate on machine-independent counts.
    pub tick: bool,
    /// Suppress the slow-request log line (the counter still moves) —
    /// benches use this with `slow_ns = Some(0)` to count every span
    /// deterministically without spamming stderr.
    pub quiet: bool,
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

/// The deterministic counter set the throughput bench gates on: every
/// field counts *events whose number is a pure function of the request
/// sequence* (never of timing), so under a tick clock and a
/// single-worker closed loop the values are bit-reproducible across
/// machines.
#[derive(Debug)]
pub struct ObsMetricSet {
    /// Spans completed (one per request that reached its flush stamp).
    pub spans_completed: Arc<Counter>,
    /// Jobs that waited in a session FIFO queue (dequeue stamps).
    pub queue_wait_events: Arc<Counter>,
    /// Successful WAL appends observed by spans.
    pub wal_append_events: Arc<Counter>,
    /// Group-commit fsyncs that covered at least one pending record.
    pub fsync_batches: Arc<Counter>,
    /// Completed spans at or past the slow threshold.
    pub slow_logged: Arc<Counter>,
}

impl ObsMetricSet {
    /// Registers every gated counter under its `obs.*` name.
    fn register(metrics: &MetricsRegistry) -> ObsMetricSet {
        // sp-lint: counters(ObsMetricSet)
        ObsMetricSet {
            spans_completed: metrics.counter("obs.spans_completed"),
            queue_wait_events: metrics.counter("obs.queue_wait_events"),
            wal_append_events: metrics.counter("obs.wal_append_events"),
            fsync_batches: metrics.counter("obs.fsync_batches"),
            slow_logged: metrics.counter("obs.slow_logged"),
        }
    }
}

/// The per-server observability state: clock, span sequencer, trace
/// sink, and metric handles. Shared (`Arc`) by the connection engine,
/// the scheduler workers, and the inline `metrics` / `trace_tail` ops.
pub struct ServeObs {
    metrics: MetricsRegistry,
    set: ObsMetricSet,
    trace: TraceSink,
    clock: Box<dyn Clock>,
    slow_ns: Option<u64>,
    quiet: bool,
    seq: AtomicU64,
    /// Per-op latency histograms, indexed by op code — pre-registered
    /// so the hot path never touches the registry's name map.
    op_hist: Vec<Option<Arc<HistogramCell>>>,
    queue_depth_hwm: Arc<Gauge>,
    wal_batch_jobs: Arc<HistogramCell>,
    wal_fsync_ns: Arc<HistogramCell>,
    reactor_wakeups: Arc<Counter>,
    reactor_pipeline_hwm: Arc<Gauge>,
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("slow_ns", &self.slow_ns)
            .field("quiet", &self.quiet)
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeObs {
    /// Builds the observability state, or `None` when disabled — the
    /// `None` is what makes every instrumentation site free when off.
    #[must_use]
    pub fn new(cfg: &ObsConfig) -> Option<Arc<ServeObs>> {
        if !cfg.enabled {
            return None;
        }
        let metrics = MetricsRegistry::new();
        let set = ObsMetricSet::register(&metrics);
        let clock: Box<dyn Clock> = if cfg.tick {
            Box::new(TickClock::new(TICK_STEP_NS))
        } else {
            Box::new(WallClock::new())
        };
        let op_hist = (0..=u8::MAX)
            .map(|tag| {
                OpCode::from_u8(tag).map(|op| metrics.histogram(&format!("op.{}", op.name())))
            })
            .collect();
        let queue_depth_hwm = metrics.gauge("queue.depth_hwm");
        let wal_batch_jobs = metrics.histogram("wal.batch_jobs");
        let wal_fsync_ns = metrics.histogram("wal.fsync_ns");
        let reactor_wakeups = metrics.counter("reactor.wakeups");
        let reactor_pipeline_hwm = metrics.gauge("reactor.pipeline_depth_hwm");
        Some(Arc::new(ServeObs {
            metrics,
            set,
            trace: TraceSink::new(TRACE_STRIPES, TRACE_PER_STRIPE),
            clock,
            slow_ns: cfg.slow_ns,
            quiet: cfg.quiet,
            seq: AtomicU64::new(0),
            op_hist,
            queue_depth_hwm,
            wal_batch_jobs,
            wal_fsync_ns,
            reactor_wakeups,
            reactor_pipeline_hwm,
        }))
    }

    /// The current clock reading.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The gated counter set.
    #[must_use]
    pub fn set(&self) -> &ObsMetricSet {
        &self.set
    }

    /// The full metrics registry (for ad-hoc metrics and tests).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The per-session queue-depth high-water gauge.
    #[must_use]
    pub fn queue_depth_hwm(&self) -> &Gauge {
        &self.queue_depth_hwm
    }

    /// The WAL group-commit batch-size histogram (jobs per batch).
    #[must_use]
    pub fn wal_batch_jobs(&self) -> &HistogramCell {
        &self.wal_batch_jobs
    }

    /// The WAL commit-latency histogram.
    #[must_use]
    pub fn wal_fsync_ns(&self) -> &HistogramCell {
        &self.wal_fsync_ns
    }

    /// The reactor eventfd-wakeup counter.
    #[must_use]
    pub fn reactor_wakeups(&self) -> &Counter {
        &self.reactor_wakeups
    }

    /// The reactor per-connection pipeline-depth high-water gauge.
    #[must_use]
    pub fn reactor_pipeline_hwm(&self) -> &Gauge {
        &self.reactor_pipeline_hwm
    }

    /// Starts a span for a freshly decoded request (stamping
    /// [`Phase::Decode`]) and hands back the shared handle that rides
    /// the pipeline.
    #[must_use]
    pub fn begin_span(&self, op: u8) -> SpanHandle {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let span = Arc::new(ActiveSpan::new(seq, op));
        span.stamp(Phase::Decode, self.now_ns());
        span
    }

    /// Stamps `phase` on `span` at the current clock reading.
    pub fn stamp(&self, span: &SpanHandle, phase: Phase) {
        span.stamp(phase, self.now_ns());
    }

    /// Completes a span: records it into the trace sink, feeds the
    /// per-op latency histogram, and applies the slow-request
    /// threshold. Called exactly once, after the flush stamp.
    pub fn finish_span(&self, span: &SpanHandle) {
        let snap = span.snapshot();
        self.trace.record(snap);
        self.set.spans_completed.inc();
        let total = snap.total_ns();
        if let Some(Some(hist)) = self.op_hist.get(usize::from(snap.op)) {
            hist.record(total);
        }
        if let Some(limit) = self.slow_ns {
            if total >= limit {
                self.set.slow_logged.inc();
                if !self.quiet {
                    eprintln!("{}", slow_request_line(&snap));
                }
            }
        }
    }

    /// The `metrics` result body: every registered metric plus the
    /// caller-supplied extra counters (the registry injects its
    /// `obs.sessions_*` event counters and the aggregated per-session
    /// `work.*` counters), name-sorted so identical state
    /// encodes to identical bytes.
    #[must_use]
    pub fn metrics_body(&self, extra_counters: &[(String, u64)]) -> MetricsBody {
        let snap = self.metrics.snapshot();
        let mut counters = snap.counters;
        counters.extend_from_slice(extra_counters);
        counters.sort();
        MetricsBody {
            counters,
            gauges: snap.gauges,
            histograms: snap
                .histograms
                .into_iter()
                .map(|(name, h)| MetricHistogramBody {
                    name,
                    count: h.count,
                    min_ns: h.min_ns,
                    p50_ns: h.p50_ns,
                    p99_ns: h.p99_ns,
                    p999_ns: h.p999_ns,
                    max_ns: h.max_ns,
                })
                .collect(),
        }
    }

    /// The `trace_tail` result body: the last `limit` completed spans
    /// (ascending by sequence number), optionally filtered to those at
    /// least `slow_ns` slow.
    #[must_use]
    pub fn trace_tail_body(&self, limit: usize, slow_ns: Option<u64>) -> Vec<TraceSpanBody> {
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
            quiet: true,
        })
        .expect("enabled");
        for _ in 0..3 {
            let span = obs.begin_span(OpCode::SocialCost as u8);
            obs.stamp(&span, Phase::Execute);
            obs.stamp(&span, Phase::Flush);
            obs.finish_span(&span);
        }
        assert_eq!(obs.set().spans_completed.get(), 3);
        assert_eq!(obs.set().slow_logged.get(), 3, "slow_ns=0 counts all");
        let body = obs.metrics_body(&[("work.full_sssp".to_owned(), 9)]);
        let counter = |name: &str| {
            body.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("obs.spans_completed"), Some(3));
        assert_eq!(counter("work.full_sssp"), Some(9));
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
