//! Request spans: one monotonic timestamp per pipeline phase, recorded
//! into fixed-size striped ring buffers.
//!
//! A span answers "where did this request's time go?" with one stamp
//! per phase boundary:
//!
//! ```text
//! decode → enqueue → dequeue → execute → wal → fsync → encode → flush
//!          └─ queue wait ─┘              └ durability ┘
//! ```
//!
//! Phases a request never enters (inline ops skip the queue; WAL-less
//! servers skip wal/fsync) keep a zero stamp and are simply absent from
//! the breakdown. The live half ([`ActiveSpan`]) is written with
//! relaxed atomics — I/O threads and workers stamp different phases of
//! the same span without a lock — and the completed half ([`Span`]) is
//! a plain value recorded into a [`TraceSink`]: a handful of
//! mutex-striped rings (striped by sequence number, so the stripe a
//! span lands in is deterministic) that overwrite oldest-first and
//! never allocate after construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of phases a span records.
pub const SPAN_PHASES: usize = 8;

/// One pipeline phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Request payload decoded into a typed request.
    Decode = 0,
    /// Entered a session FIFO queue.
    Enqueue = 1,
    /// Popped from the queue by a worker (stamp − enqueue = FIFO wait).
    Dequeue = 2,
    /// Session op executed.
    Execute = 3,
    /// WAL record appended.
    Wal = 4,
    /// The log commit this request's response waited on completed.
    Fsync = 5,
    /// Response encoded to frame bytes.
    Encode = 6,
    /// Response bytes moved, in request order, into the connection's
    /// write buffer, just before the write that can deliver them; the
    /// span completes here.
    Flush = 7,
}

/// Every phase, in pipeline order.
pub const PHASES: [Phase; SPAN_PHASES] = [
    Phase::Decode,
    Phase::Enqueue,
    Phase::Dequeue,
    Phase::Execute,
    Phase::Wal,
    Phase::Fsync,
    Phase::Encode,
    Phase::Flush,
];

impl Phase {
    /// The phase's wire/log name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Enqueue => "enqueue",
            Phase::Dequeue => "dequeue",
            Phase::Execute => "execute",
            Phase::Wal => "wal",
            Phase::Fsync => "fsync",
            Phase::Encode => "encode",
            Phase::Flush => "flush",
        }
    }
}

/// A completed span: sequence number, op tag (opaque to sp-obs; the
/// server maps its op codes through), and one absolute clock stamp per
/// phase (0 = phase never entered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Global request sequence number (assigned at decode).
    pub seq: u64,
    /// Caller-defined op tag.
    pub op: u8,
    /// Absolute stamps, indexed by [`Phase`]; 0 when never stamped.
    pub stamps: [u64; SPAN_PHASES],
}

impl Span {
    /// Each stamped phase as an offset from the decode stamp; phases
    /// never entered stay 0. Offsets of stamped phases are monotone
    /// non-decreasing in pipeline order.
    #[must_use]
    pub fn offsets_ns(&self) -> [u64; SPAN_PHASES] {
        let base = self.stamps.first().copied().unwrap_or(0);
        let mut out = [0u64; SPAN_PHASES];
        for (o, &s) in out.iter_mut().zip(&self.stamps) {
            if s != 0 {
                *o = s.saturating_sub(base);
            }
        }
        out
    }

    /// Total span duration: the last stamp minus the decode stamp.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        let last = self.stamps.iter().copied().max().unwrap_or(0);
        if last == 0 {
            0
        } else {
            last.saturating_sub(self.stamps.first().copied().unwrap_or(0))
        }
    }
}

/// The live half of a span, shared between the I/O thread and whichever
/// worker executes the request. Stamps are relaxed atomics: each phase
/// is written by exactly one thread, and the span is only snapshot
/// after its final (flush) stamp, so no ordering stronger than the
/// `Arc`'s own synchronization is needed.
#[derive(Debug)]
pub struct ActiveSpan {
    seq: u64,
    op: u8,
    stamps: [AtomicU64; SPAN_PHASES],
}

/// How active spans travel through the pipeline.
pub type SpanHandle = Arc<ActiveSpan>;

impl ActiveSpan {
    /// A fresh span for request `seq` carrying op tag `op`.
    #[must_use]
    pub fn new(seq: u64, op: u8) -> ActiveSpan {
        ActiveSpan {
            seq,
            op,
            stamps: [(); SPAN_PHASES].map(|()| AtomicU64::new(0)),
        }
    }

    /// The span's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The span's op tag.
    #[must_use]
    pub fn op(&self) -> u8 {
        self.op
    }

    /// Stamps `phase` at `now_ns`. A stamp of 0 (a tick clock's first
    /// reading) is pinned to 1 so "never entered" stays distinguishable.
    pub fn stamp(&self, phase: Phase, now_ns: u64) {
        if let Some(slot) = self.stamps.get(phase as usize) {
            slot.store(now_ns.max(1), Ordering::Relaxed);
        }
    }

    /// The span's current value.
    #[must_use]
    pub fn snapshot(&self) -> Span {
        let mut stamps = [0u64; SPAN_PHASES];
        for (out, s) in stamps.iter_mut().zip(&self.stamps) {
            *out = s.load(Ordering::Relaxed);
        }
        Span {
            seq: self.seq,
            op: self.op,
            stamps,
        }
    }
}

/// A fixed-capacity ring of completed spans, overwriting oldest-first.
/// All storage is allocated at construction; [`SpanRing::push`] never
/// allocates.
#[derive(Debug)]
pub struct SpanRing {
    buf: Vec<Span>,
    next: usize,
    len: usize,
}

impl SpanRing {
    /// A ring holding at most `cap` spans (pinned to ≥ 1).
    #[must_use]
    pub fn with_capacity(cap: usize) -> SpanRing {
        SpanRing {
            buf: vec![Span::default(); cap.max(1)],
            next: 0,
            len: 0,
        }
    }

    /// Appends, overwriting the oldest span once full.
    pub fn push(&mut self, span: Span) {
        let cap = self.buf.len();
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = span;
        }
        self.next = (self.next + 1) % cap;
        self.len = (self.len + 1).min(cap);
    }

    /// Spans currently held, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let cap = self.buf.len();
        let mut out = Vec::with_capacity(self.len);
        let start = (self.next + cap - self.len) % cap;
        for k in 0..self.len {
            if let Some(&s) = self.buf.get((start + k) % cap) {
                out.push(s);
            }
        }
        out
    }

    /// Spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no span was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        // A panic elsewhere never corrupts a ring (pushes are atomic
        // value writes), so recording continues.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Completed-span storage: rings striped by sequence number so
/// concurrent recorders rarely contend, with a merge-and-sort read
/// side. Which stripe a span lands in depends only on its seq — never
/// on which thread recorded it — so retention is deterministic for a
/// deterministic request sequence.
#[derive(Debug)]
pub struct TraceSink {
    stripes: Vec<Mutex<SpanRing>>,
}

impl TraceSink {
    /// `stripes` rings of `per_stripe` spans each (both pinned ≥ 1).
    #[must_use]
    pub fn new(stripes: usize, per_stripe: usize) -> TraceSink {
        TraceSink {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(SpanRing::with_capacity(per_stripe)))
                .collect(),
        }
    }

    /// Records one completed span. O(1), allocation-free.
    pub fn record(&self, span: Span) {
        let idx = (span.seq % self.stripes.len() as u64) as usize;
        if let Some(stripe) = self.stripes.get(idx) {
            lock_unpoisoned(stripe).push(span);
        }
    }

    /// The last `n` completed spans (by sequence number, ascending)
    /// whose total duration is at least `min_total_ns`.
    #[must_use]
    pub fn tail(&self, n: usize, min_total_ns: u64) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for stripe in &self.stripes {
            all.extend(
                lock_unpoisoned(stripe)
                    .spans()
                    .into_iter()
                    .filter(|s| s.total_ns() >= min_total_ns),
            );
        }
        all.sort_by_key(|s| s.seq);
        let keep = all.len().saturating_sub(n);
        all.split_off(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, total: u64) -> Span {
        let mut s = Span {
            seq,
            op: 1,
            stamps: [0; SPAN_PHASES],
        };
        s.stamps[0] = 10;
        s.stamps[SPAN_PHASES - 1] = 10 + total;
        s
    }

    #[test]
    fn offsets_skip_unentered_phases() {
        let h = ActiveSpan::new(7, 3);
        h.stamp(Phase::Decode, 100);
        h.stamp(Phase::Execute, 250);
        h.stamp(Phase::Flush, 400);
        let s = h.snapshot();
        assert_eq!(s.seq, 7);
        assert_eq!(s.op, 3);
        let off = s.offsets_ns();
        assert_eq!(off[Phase::Decode as usize], 0);
        assert_eq!(off[Phase::Enqueue as usize], 0); // never entered
        assert_eq!(off[Phase::Execute as usize], 150);
        assert_eq!(off[Phase::Flush as usize], 300);
        assert_eq!(s.total_ns(), 300);
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let mut r = SpanRing::with_capacity(3);
        for seq in 0..5 {
            r.push(span(seq, 1));
        }
        let seqs: Vec<u64> = r.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn tail_merges_sorts_and_filters() {
        let sink = TraceSink::new(4, 8);
        for seq in 0..20 {
            sink.record(span(seq, if seq % 2 == 0 { 5 } else { 100 }));
        }
        let all = sink.tail(100, 0);
        let seqs: Vec<u64> = all.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
        let slow = sink.tail(3, 50);
        let seqs: Vec<u64> = slow.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![15, 17, 19]);
    }
}
