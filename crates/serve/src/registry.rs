//! The session registry: a sharded concurrent map of named
//! [`GameSession`]s with LRU spill-to-disk eviction under a global
//! memory budget, and the worker-pool scheduler that executes requests
//! against them.
//!
//! # Ordering and parallelism
//!
//! Every session owns a FIFO request queue. A session is *scheduled* by
//! pushing its entry onto the global ready queue exactly once; the
//! worker that pops it processes **one** request, then re-enqueues the
//! entry at the back if more requests are queued (round-robin fairness
//! across busy sessions). Because an entry is in the ready queue at
//! most once and only its owning worker touches its queue head,
//! requests to one session execute **strictly in submission order**
//! while distinct sessions run in parallel across the pool.
//!
//! # Backpressure
//!
//! A job has one way in, [`SessionRegistry::submit_with`], which never
//! blocks, and one way out, the reply callback it carries.
//! [`SessionRegistry::submit`] wraps it in a channel for callers that
//! wait. The queues themselves are unbounded: the bound is per
//! connection, set by the engine that submits. A threaded connection
//! waits for each response before it reads its next frame, so it has
//! at most one request in flight; the reactor stops *reading* a
//! connection once `PIPELINE_WINDOW` of its frames are in flight.
//! A session's queue depth is therefore at most the sum of those
//! bounds over the connections that address it, and a flooding client
//! stalls itself, not the pool.
//!
//! # Memory budget and eviction
//!
//! Every slot's footprint is accounted semantically —
//! [`GameSession::memory_bytes`] plus the game's metric store
//! (`8n²` for a dense matrix, `8n` for implicit line positions — see
//! `Game::metric_bytes`) plus a fixed per-entry overhead — in the same
//! machine-independent
//! style as the core's `OracleCache` budget, so eviction behaviour is
//! reproducible across hosts. When the total exceeds
//! [`RegistryConfig::memory_budget`], the least-recently-used idle
//! session is checkpointed into its one file,
//! `<spill_dir>/<name>-<fnv1a(name)>.wal` (the hash suffix keeps
//! case-distinct names distinct on case-insensitive filesystems; the
//! format is [`crate::wal`]'s, the checkpoint [`crate::snapshot`]'s),
//! and dropped; its next request restores it transparently,
//! bit-identically. Without a log, sessions whose state already
//! matches their file (not *dirty*) skip the write.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sp_core::{GameSession, SessionStats};
use sp_obs::{Phase, SpanHandle};

use crate::config::Durability;
use crate::obs::{ObsConfig, ServeObs};
use crate::ops;
use crate::snapshot;
use crate::wal::{self, SessionWal};
use crate::wire::{
    ErrorCode, Request, Response, ResultBody, ServiceStats, SessionOp, SessionRequest, WireError,
};

/// Number of map shards; requests hash on the session name, so sixteen
/// shards keep map contention negligible next to the work itself.
const SHARDS: usize = 16;

/// Fixed accounting overhead charged per registry slot (name, queue,
/// bookkeeping) on top of the session's own semantic size.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// How many times `enforce_budget` tolerates picking a victim that a
/// concurrent worker grabbed before giving up for this round (the next
/// completed request retries).
const EVICT_RETRIES: usize = 8;

/// How many eviction-index entries `pick_lru` copies out per probe
/// round; the index lock is never held while entry locks are taken.
const EVICT_PROBE_BATCH: usize = 8;

/// Locks a mutex, recovering from poisoning. Every registry lock
/// protects state that is valid after any panic point (queues and
/// options mutated in single steps), so continuing with the inner value
/// is always sound — and it keeps the request path free of panics: one
/// crashed worker must not take the whole service down with it.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shutdown_error() -> WireError {
    WireError::new(ErrorCode::Shutdown, "registry is shutting down")
}

/// Configuration of a [`SessionRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Global budget for resident sessions, in bytes. Exceeding it
    /// triggers LRU eviction of idle sessions.
    pub memory_budget: usize,
    /// Directory for the per-session files (created on registry start).
    pub spill_dir: PathBuf,
    /// Write-ahead logging mode ([`crate::wal`]). Under
    /// [`Durability::Wal`], every state-mutating op appends a WAL
    /// record before its response is released, startup rebuilds each
    /// session from its log's checkpoint plus tail, and a spill
    /// rewrites the log as a fresh checkpoint.
    pub durability: Durability,
    /// Observability ([`crate::obs`]): request spans, the metrics
    /// registry, and slow-request logging. Off by default — with it
    /// off no span is ever allocated and every instrumentation site
    /// is a skipped `Option` check.
    pub obs: ObsConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            memory_budget: 64 << 20,
            spill_dir: PathBuf::from("sp-serve-spill"),
            durability: Durability::Off,
            obs: ObsConfig::default(),
        }
    }
}

/// Where a finished job's response goes: a closure the worker calls
/// (the reactor encodes the frame and wakes its event loop;
/// [`SessionRegistry::submit`] sends on a channel).
type Reply = Box<dyn FnOnce(Response) + Send>;

/// A queued request plus where its response goes.
struct Job {
    request: SessionRequest,
    reply: Reply,
    /// The request's trace span, when observability is on and the
    /// connection engine started one at decode time.
    span: Option<SpanHandle>,
}

impl Job {
    /// Answers the job with [`ErrorCode::Shutdown`] instead of running
    /// it.
    fn refuse(self) {
        (self.reply)(Response::err(self.request.id, shutdown_error()));
    }
}

/// Mutable per-session state, guarded by the entry mutex.
#[derive(Default)]
struct EntryState {
    queue: VecDeque<Job>,
    /// `true` while the entry sits in the ready queue or a worker is
    /// processing it — the invariant that serialises a session's
    /// requests.
    scheduled: bool,
    /// `true` while a worker holds the session outside the lock.
    busy: bool,
    /// The resident session; `None` when spilled or not yet created.
    resident: Option<Box<GameSession>>,
    /// Whether the session logically exists (resident or spilled).
    created: bool,
    /// Whether resident state has diverged from the session's file.
    dirty: bool,
    /// Bytes currently charged against the global budget.
    bytes: usize,
    /// LRU stamp (global logical clock).
    last_used: u64,
    /// The session's write-ahead log, opened lazily on its first
    /// logged op (or eagerly by startup recovery). Shared so the
    /// group-commit batch can sync it after the entry lock is gone.
    wal: Option<Arc<Mutex<SessionWal>>>,
    /// Work counters accumulated by *departed* incarnations of this
    /// session (evicted or spilled residents). A restored session's
    /// live counters start from zero, so without this carry an
    /// evict/restore cycle would silently reset the session's work
    /// history; [`SessionRegistry::work_stats`] reports
    /// `carried + resident`.
    carried: SessionStats,
}

struct SessionEntry {
    name: String,
    state: Mutex<EntryState>,
}

/// A point-in-time snapshot of the registry's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Requests executed to completion by the worker pool.
    pub requests_served: u64,
    /// Sessions built by `create` requests.
    pub sessions_created: u64,
    /// Spill-and-drop events: budget-driven LRU evictions plus explicit
    /// `evict` requests.
    pub sessions_evicted: u64,
    /// Sessions restored from spill files (transparent or via `load`).
    pub sessions_restored: u64,
    /// High-water mark of any single session's request queue depth.
    pub queue_depth_hwm: usize,
    /// Sessions currently resident in memory.
    pub resident_sessions: usize,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
    /// WAL records appended (all sessions).
    pub wal_records: u64,
    /// Worker drain batches that carried at least one WAL append —
    /// the group-commit unit.
    pub wal_batches: u64,
    /// WAL commit points that had pending records to sync. With
    /// `fsync` off the syscall is elided but the cadence (and this
    /// counter) is identical.
    pub wal_fsyncs: u64,
    /// WAL records replayed by startup recovery.
    pub wal_replays: u64,
}

impl RegistryStats {
    /// The wire-protocol rendering of these counters.
    #[must_use]
    pub fn to_wire(&self) -> ServiceStats {
        ServiceStats {
            requests_served: self.requests_served,
            sessions_created: self.sessions_created,
            sessions_evicted: self.sessions_evicted,
            sessions_restored: self.sessions_restored,
            queue_depth_hwm: self.queue_depth_hwm,
            resident_sessions: self.resident_sessions,
            resident_bytes: self.resident_bytes,
        }
    }
}

/// The residency a worker checks out of an entry for one job;
/// [`SessionRegistry::run_job`] edits it in place.
struct Slot {
    /// The resident session; `None` when spilled or not yet created.
    resident: Option<Box<GameSession>>,
    /// Whether the session logically exists (resident or spilled).
    created: bool,
    /// Whether resident state has diverged from the session's file.
    dirty: bool,
}

/// The sharded-lock session map plus its worker-pool scheduler. See the
/// module docs for the ordering, backpressure, and eviction contracts.
pub struct SessionRegistry {
    shards: Vec<Mutex<HashMap<String, Arc<SessionEntry>>>>,
    /// Ordered eviction index: one `(last_used, name)` pair per
    /// *resident* session, kept in sync under the owning entry's state
    /// lock. `pick_lru` walks it ascending instead of scanning and
    /// sorting every shard. Lock order is entry state → index,
    /// everywhere; readers that need entry locks first snapshot a batch
    /// and drop the index lock.
    evict_index: Mutex<BTreeSet<(u64, String)>>,
    ready: Mutex<VecDeque<Arc<SessionEntry>>>,
    ready_cv: Condvar,
    stop: AtomicBool,
    clock: AtomicU64,
    total_bytes: AtomicUsize,
    config: RegistryConfig,
    requests_served: AtomicU64,
    sessions_created: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_restored: AtomicU64,
    queue_depth_hwm: AtomicUsize,
    wal_records: AtomicU64,
    wal_batches: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_replays: AtomicU64,
    /// The observability state; `None` when [`RegistryConfig::obs`] is
    /// disabled, which keeps every instrumentation site free.
    obs: Option<Arc<ServeObs>>,
}

/// A finished job whose response is held back until its batch's WAL
/// commit — append-before-acknowledge made concrete. Jobs without a
/// WAL append carry `wal: None` and just ride along.
struct PendingReply {
    reply: Reply,
    response: Response,
    wal: Option<Arc<Mutex<SessionWal>>>,
    span: Option<SpanHandle>,
}

impl SessionRegistry {
    /// Creates a registry (and its spill directory). Under
    /// [`Durability::Wal`], every log in the spill directory is
    /// recovered before this returns: torn tails truncated, each
    /// checkpoint restored and the tail after it replayed through the
    /// normal ops dispatch — workers start on a state provably equal
    /// to everything the previous process acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates spill-directory creation failures; WAL recovery
    /// fails (`InvalidData`) on corruption *before* a log's final
    /// record or on a replayed op the session now rejects — recovery
    /// must not guess at lost state.
    pub fn new(config: RegistryConfig) -> io::Result<Arc<Self>> {
        std::fs::create_dir_all(&config.spill_dir)?;
        let obs = ServeObs::new(&config.obs);
        let registry = Arc::new(SessionRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            evict_index: Mutex::new(BTreeSet::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            clock: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
            config,
            requests_served: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_restored: AtomicU64::new(0),
            queue_depth_hwm: AtomicUsize::new(0),
            wal_records: AtomicU64::new(0),
            wal_batches: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_replays: AtomicU64::new(0),
            obs,
        });
        if registry.config.durability.is_wal() {
            registry.recover_sessions()?;
        }
        Ok(registry)
    }

    /// Spawns `count` worker threads draining the ready queue. Callable
    /// once or repeatedly (the pool is just a set of identical loops);
    /// the benches submit a burst *before* spawning to measure queue
    /// depth deterministically.
    pub fn spawn_workers(self: &Arc<Self>, count: usize) -> Vec<JoinHandle<()>> {
        (0..count.max(1))
            .map(|k| {
                let registry = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("sp-serve-worker-{k}"))
                    .spawn(move || registry.worker_loop())
                    // sp-lint: allow(panic-path, reason = "startup-time spawn before any request is accepted; no remote input reaches this")
                    .expect("failed to spawn worker thread")
            })
            .collect()
    }

    /// Enqueues a request and returns the receiver its response will
    /// arrive on — [`SessionRegistry::submit_with`] for callers that
    /// block (the threaded engine, tests, benches). After
    /// [`SessionRegistry::shutdown`] the response is an
    /// [`ErrorCode::Shutdown`] error.
    pub fn submit(
        &self,
        request: SessionRequest,
        span: Option<SpanHandle>,
    ) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(request, span, move |response| {
            // The submitter may have hung up (dead connection); that's
            // fine.
            let _ = tx.send(response);
        });
        rx
    }

    /// Enqueues a request **without blocking** and delivers the
    /// response through `reply` on the worker thread that finishes it
    /// (or at once, with [`ErrorCode::Shutdown`], if the registry is
    /// stopping). `span` is the request's trace span, stamped at each
    /// scheduler seam when observability is on. The caller bounds its
    /// own in-flight work (see the module docs on backpressure).
    pub fn submit_with(
        &self,
        request: SessionRequest,
        span: Option<SpanHandle>,
        reply: impl FnOnce(Response) + Send + 'static,
    ) {
        let job = Job {
            request,
            reply: Box::new(reply),
            span,
        };
        if self.stop.load(Ordering::Acquire) {
            job.refuse();
            return;
        }
        let entry = self.entry(&job.request.session);
        let mut st = lock_unpoisoned(&entry.state);
        // Final stop check *under the entry lock*: shutdown() drains
        // this queue under the same lock after setting the flag, so a
        // push that observes `stop == false` here is ordered before the
        // drain (which will then clear it) — a job can never be
        // enqueued after the drain has passed, which would strand its
        // submitter waiting on a response no worker is left to serve.
        if self.stop.load(Ordering::Acquire) {
            drop(st);
            job.refuse();
            return;
        }
        if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
            obs.stamp(span, Phase::Enqueue);
        }
        st.queue.push_back(job);
        self.queue_depth_hwm
            .fetch_max(st.queue.len(), Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.queue_depth_hwm().raise(st.queue.len() as u64);
        }
        if !st.scheduled {
            st.scheduled = true;
            drop(st);
            self.push_ready(entry);
        }
    }

    /// Stops the worker pool: in-flight requests finish, and queued or
    /// later requests are answered with [`ErrorCode::Shutdown`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.ready_cv.notify_all();
        for shard in &self.shards {
            // sp-lint: allow(nondeterministic-iteration, reason = "order-insensitive: every entry's queue is cleared, no output depends on visit order")
            let entries: Vec<Arc<SessionEntry>> =
                lock_unpoisoned(shard).values().cloned().collect();
            for e in entries {
                // Drain queued jobs and answer each with a typed
                // shutdown error — a submit racing the stop flag must
                // not strand its connection (thread blocked in `recv`,
                // or reactor sequence slot never completed). (A worker
                // mid-process simply finds an empty queue when it
                // re-locks.)
                let drained: Vec<Job> = lock_unpoisoned(&e.state).queue.drain(..).collect();
                for job in drained {
                    job.refuse();
                }
            }
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let mut resident = 0usize;
        for shard in &self.shards {
            // sp-lint: allow(nondeterministic-iteration, reason = "order-insensitive: commutative count of resident entries")
            let entries: Vec<Arc<SessionEntry>> =
                lock_unpoisoned(shard).values().cloned().collect();
            for e in entries {
                let st = lock_unpoisoned(&e.state);
                if st.resident.is_some() || st.busy {
                    resident += 1;
                }
            }
        }
        RegistryStats {
            requests_served: self.requests_served.load(Ordering::Relaxed),
            sessions_created: self.sessions_created.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            sessions_restored: self.sessions_restored.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            resident_sessions: resident,
            resident_bytes: self.total_bytes.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_batches: self.wal_batches.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_replays: self.wal_replays.load(Ordering::Relaxed),
        }
    }

    /// The registry's configuration (tests and bins introspect it).
    #[must_use]
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The observability state, when [`RegistryConfig::obs`] enabled it.
    #[must_use]
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// Aggregated per-session work counters across every session the
    /// registry knows: each entry's live resident counters plus the
    /// `carried` counters of its departed (evicted/spilled)
    /// incarnations — so an evict/restore cycle never resets a
    /// session's work history.
    #[must_use]
    pub fn work_stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for shard in &self.shards {
            // sp-lint: allow(nondeterministic-iteration, reason = "order-insensitive: SessionStats::merge is commutative per-field addition")
            let entries: Vec<Arc<SessionEntry>> =
                lock_unpoisoned(shard).values().cloned().collect();
            for e in entries {
                let st = lock_unpoisoned(&e.state);
                total.merge(&st.carried);
                if let Some(session) = &st.resident {
                    total.merge(&session.stats());
                }
            }
        }
        total
    }

    /// The registry-side counters the `metrics` op injects, as
    /// name/value pairs: the eviction and restore events as
    /// `obs.sessions_evicted` / `obs.sessions_restored` (the same
    /// atomics [`SessionRegistry::stats`] reads), then the aggregated
    /// work counters as `work.*` — a deliberate subset of
    /// [`SessionStats`]: the coarse per-op work drivers, not the
    /// cache-internals fine structure (`stats` and the core's own
    /// reporting keep the full set).
    #[must_use]
    pub fn work_counters(&self) -> Vec<(String, u64)> {
        let w = self.work_stats();
        let work = [
            ("work.batch_applies", w.batch_applies),
            ("work.csr_rebuilds", w.csr_rebuilds),
            ("work.full_sssp", w.full_sssp),
            ("work.incremental_relaxations", w.incremental_relaxations),
            ("work.oracle_builds", w.oracle_builds),
            ("work.oracle_rows_repaired", w.oracle_rows_repaired),
            ("work.snapshot_exports", w.snapshot_exports),
            ("work.snapshot_restores", w.snapshot_restores),
        ]
        .map(|(name, v)| (name, v as u64));
        [
            (
                "obs.sessions_evicted",
                self.sessions_evicted.load(Ordering::Relaxed),
            ),
            (
                "obs.sessions_restored",
                self.sessions_restored.load(Ordering::Relaxed),
            ),
        ]
        .into_iter()
        .chain(work)
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
    }

    fn shard_of(&self, name: &str) -> usize {
        (sp_graph::fnv1a(name.as_bytes()) % SHARDS as u64) as usize
    }

    /// Finds an existing entry without creating one (the eviction path
    /// must not mint entries for names it merely probes).
    fn lookup(&self, name: &str) -> Option<Arc<SessionEntry>> {
        // sp-lint: allow(panic-path, reason = "shard_of takes the hash modulo SHARDS, the array length")
        lock_unpoisoned(&self.shards[self.shard_of(name)])
            .get(name)
            .cloned()
    }

    fn entry(&self, name: &str) -> Arc<SessionEntry> {
        // sp-lint: allow(panic-path, reason = "shard_of takes the hash modulo SHARDS, the array length")
        let mut shard = lock_unpoisoned(&self.shards[self.shard_of(name)]);
        Arc::clone(shard.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(SessionEntry {
                name: name.to_owned(),
                state: Mutex::new(EntryState::default()),
            })
        }))
    }

    fn push_ready(&self, entry: Arc<SessionEntry>) {
        lock_unpoisoned(&self.ready).push_back(entry);
        self.ready_cv.notify_one();
    }

    fn worker_loop(&self) {
        // The drain-batch bound is the group-commit size: every job a
        // worker finishes between two WAL commits shares one fsync.
        // Without WAL the bound is 1, which reproduces the historical
        // process-then-deliver sequencing exactly.
        let cap = self.config.durability.batch_cap();
        let mut batch: Vec<PendingReply> = Vec::new();
        loop {
            let entry = {
                let mut q = lock_unpoisoned(&self.ready);
                loop {
                    if let Some(e) = q.pop_front() {
                        break e;
                    }
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    q = self
                        .ready_cv
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.process(&entry, &mut batch);
            // Opportunistic drain: keep taking ready work while it's
            // there (never blocking — queued submitters must not wait
            // on an idle batch) until the commit bound fills.
            while batch.len() < cap {
                let Some(e) = lock_unpoisoned(&self.ready).pop_front() else {
                    break;
                };
                self.process(&e, &mut batch);
            }
            self.commit_batch(&mut batch);
        }
    }

    /// The group-commit point: one [`SessionWal::commit`] per distinct
    /// log touched by the batch, then every held-back response is
    /// delivered. A failed commit turns the affected responses into
    /// typed I/O errors — an un-synced op is never acknowledged — and
    /// poisons the log (inside [`SessionWal::commit`]): a later batch
    /// must not retry the sync, because a "successful" fsync after a
    /// failed one may not cover the records these clients were told
    /// failed, and it would make them durable and replayable anyway.
    /// The poisoned session is quarantined by [`SessionRegistry::run_job`]
    /// until a restart recovers from what actually reached disk.
    fn commit_batch(&self, batch: &mut Vec<PendingReply>) {
        let mut wals: Vec<Arc<Mutex<SessionWal>>> = Vec::new();
        for p in batch.iter() {
            if let Some(w) = &p.wal {
                if !wals.iter().any(|x| Arc::ptr_eq(x, w)) {
                    wals.push(Arc::clone(w));
                }
            }
        }
        if !wals.is_empty() {
            self.wal_batches.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.wal_batch_jobs().record(batch.len() as u64);
            }
        }
        for w in &wals {
            let commit_start = self.obs.as_ref().map(|o| o.now_ns());
            let committed = lock_unpoisoned(w).commit();
            if let (Some(obs), Some(start)) = (&self.obs, commit_start) {
                obs.wal_fsync_ns()
                    .record(obs.now_ns().saturating_sub(start));
            }
            match committed {
                Ok(true) => {
                    self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = &self.obs {
                        obs.set().fsync_batches.inc();
                        // The fsync covered every record this batch
                        // appended to this log: stamp those spans.
                        for p in batch.iter() {
                            if let (Some(pw), Some(span)) = (&p.wal, &p.span) {
                                if Arc::ptr_eq(pw, w) {
                                    obs.stamp(span, Phase::Fsync);
                                }
                            }
                        }
                    }
                }
                // Already synced (a spill inside this batch committed
                // for us) — nothing pending is fine.
                Ok(false) => {}
                Err(e) => {
                    for p in batch.iter_mut() {
                        if p.wal.as_ref().is_some_and(|x| Arc::ptr_eq(x, w)) {
                            p.response = Response::err(
                                p.response.id,
                                WireError::new(ErrorCode::Io, format!("wal commit failed: {e}")),
                            );
                        }
                    }
                }
            }
        }
        for p in batch.drain(..) {
            (p.reply)(p.response);
        }
    }

    /// Charges `new_bytes` for this entry against the global total.
    fn account(&self, st: &mut EntryState, new_bytes: usize) {
        if new_bytes >= st.bytes {
            self.total_bytes
                .fetch_add(new_bytes - st.bytes, Ordering::Relaxed);
        } else {
            self.total_bytes
                .fetch_sub(st.bytes - new_bytes, Ordering::Relaxed);
        }
        st.bytes = new_bytes;
    }

    fn slot_bytes(session: &GameSession) -> usize {
        // `metric_bytes` is `8n²` for a dense matrix store — identical
        // to the historical accounting — and `8n` for implicit line
        // positions, which is what lets thousands of sparse sessions
        // share a budget that one dense session would blow.
        session.memory_bytes() + session.game().metric_bytes() + ENTRY_OVERHEAD_BYTES
    }

    /// The session's one file: its log, checkpoint included.
    fn log_path(&self, name: &str) -> PathBuf {
        // The name is suffixed with its (stable, portable) FNV-1a hash:
        // the registry distinguishes names by case, so on a
        // case-insensitive filesystem bare `<name>.wal` files for "A"
        // and "a" would silently overwrite each other and cross-wire
        // two sessions' restored state.
        let tag = sp_graph::fnv1a(name.as_bytes());
        self.config.spill_dir.join(format!("{name}-{tag:016x}.wal"))
    }

    /// The session's WAL handle, opened lazily on first use by the
    /// logged `op`. Only called under [`Durability::Wal`]. A `create`
    /// starts the session's history, so its log starts fresh; any
    /// other op runs on a session that came from a file (a `load` cold
    /// start nothing recovered at startup), and opening that file must
    /// never truncate it — its checkpoint is the session's only copy.
    fn wal_for(
        &self,
        name: &str,
        op: &SessionOp,
        slot: &mut Option<Arc<Mutex<SessionWal>>>,
    ) -> io::Result<Arc<Mutex<SessionWal>>> {
        if let Some(w) = slot {
            return Ok(Arc::clone(w));
        }
        let (path, fsync) = (self.log_path(name), self.config.durability.fsync());
        let wal = match op {
            SessionOp::Create(_) => SessionWal::create(&path, fsync)?,
            _ => SessionWal::open(&path, fsync)?,
        };
        let wal = Arc::new(Mutex::new(wal));
        *slot = Some(Arc::clone(&wal));
        Ok(wal)
    }

    /// Writes the session's checkpoint into its file.
    ///
    /// Without a log the file is rewritten only when it is stale. With
    /// one, the spill is two ordered steps: **commit** (unflushed
    /// appends hit disk first — the eviction edge: an idle session may
    /// hold records appended this batch but not yet group-committed),
    /// then **checkpoint** — one atomic rewrite of the log as a header
    /// carrying the same `(records, head)` and the session as it
    /// stands. A crash leaves either the old file or the new one, and
    /// the audit chain spans the rewrite.
    fn spill(
        &self,
        name: &str,
        session: &mut GameSession,
        dirty: bool,
        wal: Option<&Arc<Mutex<SessionWal>>>,
    ) -> io::Result<()> {
        let path = self.log_path(name);
        let Some(wal) = wal else {
            if dirty || !path.exists() {
                snapshot::save(&path, session)?;
            }
            return Ok(());
        };
        let checkpoint = snapshot::checkpoint(session)?;
        let mut w = lock_unpoisoned(wal);
        if w.commit()? {
            self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        // sp-lint: allow(lock-hygiene, reason = "deliberate hold-across-checkpoint: commit and rewrite must be atomic against concurrent appends, or the header could count records never flushed")
        w.checkpoint(checkpoint)
    }

    /// Executes one job with the session checked out of its entry. The
    /// finished reply is *pushed onto `out`*, not delivered — delivery
    /// waits for the caller's [`SessionRegistry::commit_batch`], which
    /// is what makes the WAL append (done here, while the session is
    /// checked out) precede the acknowledgement.
    fn process(&self, entry: &Arc<SessionEntry>, out: &mut Vec<PendingReply>) {
        let (job, mut slot, mut wal) = {
            let mut st = lock_unpoisoned(&entry.state);
            let Some(job) = st.queue.pop_front() else {
                st.scheduled = false;
                return;
            };
            st.busy = true;
            let slot = Slot {
                resident: st.resident.take(),
                created: st.created,
                dirty: st.dirty,
            };
            (job, slot, st.wal.clone())
        };
        if let Some(obs) = &self.obs {
            obs.set().queue_wait_events.inc();
            if let Some(span) = &job.span {
                obs.stamp(span, Phase::Dequeue);
            }
        }
        // Work counters of a session this job evicts, captured before
        // the residency drop so they can be folded into the entry's
        // `carried` tally below.
        let mut departed: Option<SessionStats> = None;
        let mut response = self.run_job(
            &entry.name,
            &job.request,
            &mut slot,
            &mut wal,
            &mut departed,
        );
        if let (Some(obs), Some(span)) = (&self.obs, &job.span) {
            obs.stamp(span, Phase::Execute);
        }
        // Append-before-acknowledge: a successful logged op goes into
        // the session's WAL here — before the entry unlocks, before
        // the reply is even queued. Failures flip the response to a
        // typed I/O error and poison the log rather than ever
        // acknowledging an op it does not witness; the mutated
        // resident state is installed below but unobservable — the
        // poisoned log quarantines the session (`run_job` fails every
        // later op) so reads can never serve the un-logged mutation.
        let mut reply_wal = None;
        if self.config.durability.is_wal()
            && job.request.op.is_wal_logged()
            && response.outcome.is_ok()
        {
            let appended = self
                .wal_for(&entry.name, &job.request.op, &mut wal)
                .and_then(|w| {
                    lock_unpoisoned(&w).append(&Request::Session(job.request.clone()))?;
                    Ok(w)
                });
            match appended {
                Ok(w) => {
                    self.wal_records.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = &self.obs {
                        obs.set().wal_append_events.inc();
                        if let Some(span) = &job.span {
                            obs.stamp(span, Phase::Wal);
                        }
                    }
                    reply_wal = Some(w);
                }
                Err(e) => {
                    response = Response::err(
                        job.request.id,
                        WireError::new(ErrorCode::Io, format!("wal append failed: {e}")),
                    );
                }
            }
        }
        {
            let mut st = lock_unpoisoned(&entry.state);
            st.busy = false;
            st.created = slot.created;
            st.dirty = slot.dirty;
            st.wal = wal;
            if let Some(stats) = &departed {
                st.carried.merge(stats);
            }
            let new_bytes = slot.resident.as_ref().map_or(0, |s| Self::slot_bytes(s));
            self.account(&mut st, new_bytes);
            st.resident = slot.resident;
            let old_stamp = st.last_used;
            st.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            // Re-key the eviction index (entry lock → index lock, the
            // global lock order): drop the old stamp's pair, insert the
            // fresh one iff the session stayed resident.
            {
                let mut index = lock_unpoisoned(&self.evict_index);
                index.remove(&(old_stamp, entry.name.clone()));
                if st.resident.is_some() {
                    index.insert((st.last_used, entry.name.clone()));
                }
            }
            if st.queue.is_empty() {
                st.scheduled = false;
            } else {
                drop(st);
                self.push_ready(Arc::clone(entry));
            }
        }
        // Enforce the budget *before* replying: a closed-loop client's
        // next submit happens only after it reads this response, so
        // with one worker and one client the whole run — eviction
        // decisions included — is strictly sequential, which is what
        // makes the serve_throughput counter pass reproducible. (It
        // also means stats read after a response never show the
        // registry above budget by more than the in-flight slots.)
        self.enforce_budget();
        // Count before replying: a submitter that reads `stats` right
        // after its response must see this request in the counter.
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        out.push(PendingReply {
            reply: job.reply,
            response,
            wal: reply_wal,
            span: job.span,
        });
    }

    /// The lifecycle-aware execution of one request against the
    /// checked-out `slot`, which it edits in place. Queries and
    /// mutations restore a spilled session transparently; `create`
    /// builds, `snapshot`/`evict` persist, `load` is an explicit
    /// restore. When an op drops a resident session (explicit evict),
    /// its work counters land in `departed` for the caller to fold
    /// into the entry's carried tally.
    fn run_job(
        &self,
        name: &str,
        request: &SessionRequest,
        slot: &mut Slot,
        wal: &mut Option<Arc<Mutex<SessionWal>>>,
        departed: &mut Option<SessionStats>,
    ) -> Response {
        let id = request.id;

        // The audit ops answer from the log alone — no residency, no
        // restore. Routed through the scheduler like everything else so
        // the answer is serialised against the session's own appends.
        if matches!(request.op, SessionOp::WalHead | SessionOp::WalVerify) {
            return self.wal_audit(name, request, slot.created, wal.as_ref());
        }

        // A poisoned log quarantines its session: after a failed append
        // or commit, resident state may hold mutations the durable log
        // does not witness (the op ran, the record didn't make it), so
        // serving *any* further op — reads included — could expose
        // un-logged state as if it were acknowledged. Every op fails
        // typed until a restart rebuilds the session from what actually
        // reached disk.
        if wal.as_ref().is_some_and(|w| lock_unpoisoned(w).is_broken()) {
            let e = WireError::new(
                ErrorCode::Io,
                format!(
                    "session {name:?} wal is poisoned by an earlier append or commit \
                     failure; restart the server to recover the durable state"
                ),
            );
            return Response::err(id, e);
        }

        if let SessionOp::Create(spec) = &request.op {
            if slot.created {
                let e = WireError::new(
                    ErrorCode::SessionExists,
                    format!("session {name:?} already exists"),
                );
                return Response::err(id, e);
            }
            return match ops::build_session(spec) {
                Ok(session) => {
                    self.sessions_created.fetch_add(1, Ordering::Relaxed);
                    let response = Response::ok(id, ops::create_result(&session));
                    *slot = Slot {
                        resident: Some(Box::new(session)),
                        created: true,
                        dirty: true,
                    };
                    response
                }
                Err(e) => Response::err(id, e),
            };
        }

        // `snapshot`/`evict` on an already-spilled session are no-ops:
        // a session is only non-resident after a successful spill (with
        // `dirty` cleared), so its file is already current — restoring
        // a multi-megabyte snapshot just to persist and re-drop it
        // would be pure waste and would inflate the gated
        // evict/restore counters.
        if slot.resident.is_none()
            && slot.created
            && matches!(request.op, SessionOp::Snapshot | SessionOp::Evict)
        {
            let result = match request.op {
                SessionOp::Snapshot => ResultBody::Persisted,
                _ => ResultBody::Evicted,
            };
            return Response::ok(id, result);
        }

        // Everything else needs a resident session: restore a spilled
        // one, or (for `load`) cold-start from a file nothing remembers.
        let mut resident = match slot.resident.take() {
            Some(s) => s,
            None => {
                if !slot.created && !matches!(request.op, SessionOp::Load) {
                    let e = WireError::new(
                        ErrorCode::UnknownSession,
                        format!("unknown session {name:?}"),
                    );
                    return Response::err(id, e);
                }
                match snapshot::load(&self.log_path(name)) {
                    Ok(s) => {
                        self.sessions_restored.fetch_add(1, Ordering::Relaxed);
                        slot.created = true;
                        slot.dirty = false;
                        Box::new(s)
                    }
                    Err(e) => {
                        let e = WireError::new(
                            ErrorCode::Io,
                            format!("cannot restore session {name:?}: {e}"),
                        );
                        return Response::err(id, e);
                    }
                }
            }
        };

        let response = match &request.op {
            SessionOp::Load => Response::ok(id, ops::loaded_result(&resident)),
            SessionOp::Snapshot => {
                match self.spill(name, &mut resident, slot.dirty, wal.as_ref()) {
                    Ok(()) => {
                        slot.dirty = false;
                        Response::ok(id, ResultBody::Persisted)
                    }
                    Err(e) => Response::err(
                        id,
                        WireError::new(ErrorCode::Io, format!("snapshot failed: {e}")),
                    ),
                }
            }
            // The explicit evict spills (checkpointing everything so
            // far) *before* `process` appends the evict record itself —
            // so a recovered tail may end with a trailing evict, which
            // replay treats as a placement-only no-op.
            SessionOp::Evict => match self.spill(name, &mut resident, slot.dirty, wal.as_ref()) {
                Ok(()) => {
                    self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
                    // The session leaves residency here; its work
                    // counters survive in the entry's carried tally.
                    *departed = Some(resident.stats());
                    slot.dirty = false;
                    return Response::ok(id, ResultBody::Evicted);
                }
                Err(e) => Response::err(
                    id,
                    WireError::new(ErrorCode::Io, format!("evict failed: {e}")),
                ),
            },
            op => match ops::execute_query(op, &mut resident) {
                Ok(result) => {
                    slot.dirty |= op.is_mutating();
                    Response::ok(id, result)
                }
                // A failed mutation (validation happens up front)
                // leaves the session untouched.
                Err(e) => Response::err(id, e),
            },
        };
        slot.resident = Some(resident);
        response
    }

    /// Answers `wal_head` / `wal_verify` for one session.
    fn wal_audit(
        &self,
        name: &str,
        request: &SessionRequest,
        created: bool,
        wal: Option<&Arc<Mutex<SessionWal>>>,
    ) -> Response {
        let id = request.id;
        if !created {
            return Response::err(
                id,
                WireError::new(
                    ErrorCode::UnknownSession,
                    format!("unknown session {name:?}"),
                ),
            );
        }
        if !self.config.durability.is_wal() {
            return Response::err(
                id,
                WireError::new(ErrorCode::BadRequest, "write-ahead logging is disabled"),
            );
        }
        // A created session with no log yet (its log failed to open):
        // its chain is the empty one.
        let head = match wal {
            None => Ok(wal::WalHead {
                records: 0,
                head_hash: wal::genesis(),
            }),
            Some(w) => {
                let w = lock_unpoisoned(w);
                if w.is_broken() {
                    // A poisoned log's live head counts records whose
                    // durability is unknown — neither audit op may
                    // vouch for it (`verify` refuses on its own; the
                    // head must not dodge the check).
                    Err(WireError::new(
                        ErrorCode::Io,
                        "wal is poisoned by an earlier failed append or commit",
                    ))
                } else {
                    match request.op {
                        SessionOp::WalVerify => w.verify(),
                        _ => Ok(w.head()),
                    }
                }
            }
        };
        match head {
            Err(e) => Response::err(id, e),
            Ok(h) => {
                let body = match request.op {
                    SessionOp::WalVerify => ResultBody::WalVerified {
                        records: h.records,
                        head_hash: h.head_hash,
                    },
                    _ => ResultBody::WalHead {
                        records: h.records,
                        head_hash: h.head_hash,
                    },
                };
                Response::ok(id, body)
            }
        }
    }

    /// Startup recovery: finds every `<name>-<tag>.wal` in the spill
    /// directory and rebuilds its session. Runs on the constructing
    /// thread before any worker exists, so no locks are contended;
    /// sessions recover in sorted-name order for determinism.
    fn recover_sessions(&self) -> io::Result<()> {
        let mut logs: Vec<(String, PathBuf)> = Vec::new();
        for dirent in std::fs::read_dir(&self.config.spill_dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // The stem is `<name>-<fnv1a(name):016x>`; recomputing the
            // tag authenticates the name half (and skips stray files).
            let Some((name, tag)) = stem.rsplit_once('-') else {
                continue;
            };
            if u64::from_str_radix(tag, 16).ok() != Some(sp_graph::fnv1a(name.as_bytes())) {
                continue;
            }
            logs.push((name.to_owned(), path));
        }
        logs.sort();
        for (name, path) in logs {
            self.recover_session(&name, &path)?;
        }
        self.enforce_budget();
        Ok(())
    }

    /// Rebuilds one session from its log: the checkpoint (if any) plus
    /// the tail after it ([`snapshot::rebuild`]).
    fn recover_session(&self, name: &str, path: &std::path::Path) -> io::Result<()> {
        let (wal, log) = SessionWal::recover(path, self.config.durability.fsync())?;
        let resident = snapshot::rebuild(&log)
            .map_err(|e| io::Error::new(e.kind(), format!("recovery of session {name:?}: {e}")))?;
        if log.checkpoint.is_some() {
            self.sessions_restored.fetch_add(1, Ordering::Relaxed);
        }
        self.wal_replays
            .fetch_add(log.tail.len() as u64, Ordering::Relaxed);
        let created = resident.is_some();
        let resident = resident.map(Box::new);

        let entry = self.entry(name);
        let mut st = lock_unpoisoned(&entry.state);
        st.created = created;
        st.wal = Some(Arc::new(Mutex::new(wal)));
        let new_bytes = resident.as_ref().map_or(0, |s| Self::slot_bytes(s));
        self.account(&mut st, new_bytes);
        st.resident = resident;
        st.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if st.resident.is_some() {
            lock_unpoisoned(&self.evict_index).insert((st.last_used, entry.name.clone()));
        }
        Ok(())
    }

    /// Picks the least-recently-used evictable entry, if any. The
    /// victim is the minimum of `(last_used, name)` among evictable
    /// sessions — the name tie-break makes the choice independent of
    /// map iteration order, so eviction sequences replay identically
    /// across runs.
    ///
    /// The candidates come from the ordered eviction index, walked
    /// ascending in small snapshot batches (the index lock is released
    /// before any entry lock is taken, honouring the entry → index
    /// lock order). The first still-current, evictable pair *is* the
    /// minimum — the common case costs `O(log sessions)` plus a couple
    /// of probes, where the old implementation copied and sorted every
    /// shard on every call. Pairs whose stamp no longer matches the
    /// entry were re-keyed by a racing worker after the snapshot; their
    /// fresh pair sits further right, so skipping them is exact, not a
    /// heuristic.
    fn pick_lru(&self) -> Option<Arc<SessionEntry>> {
        let mut cursor: Option<(u64, String)> = None;
        loop {
            let batch: Vec<(u64, String)> = {
                let index = lock_unpoisoned(&self.evict_index);
                match &cursor {
                    None => index.iter().take(EVICT_PROBE_BATCH).cloned().collect(),
                    Some(c) => index
                        .range((Bound::Excluded(c.clone()), Bound::Unbounded))
                        .take(EVICT_PROBE_BATCH)
                        .cloned()
                        .collect(),
                }
            };
            let last = batch.last().cloned()?;
            for (stamp, name) in batch {
                let Some(e) = self.lookup(&name) else {
                    continue;
                };
                let st = lock_unpoisoned(&e.state);
                let evictable = st.resident.is_some()
                    && !st.busy
                    && !st.scheduled
                    && st.queue.is_empty()
                    && st.last_used == stamp;
                drop(st);
                if evictable {
                    return Some(e);
                }
            }
            cursor = Some(last);
        }
    }

    /// Evicts LRU sessions until the total drops under the budget (or
    /// nothing evictable remains). Called after every completed request.
    fn enforce_budget(&self) {
        let mut misses = 0usize;
        while self.total_bytes.load(Ordering::Relaxed) > self.config.memory_budget {
            let Some(victim) = self.pick_lru() else {
                return;
            };
            // Hold the state lock through the spill: the entry is idle
            // (no queued work), and holding the lock keeps a racing
            // submit from scheduling the session while its file is
            // half-written.
            let mut st = lock_unpoisoned(&victim.state);
            let evictable =
                st.resident.is_some() && !st.busy && !st.scheduled && st.queue.is_empty();
            let session = if evictable { st.resident.take() } else { None };
            let Some(mut session) = session else {
                misses += 1;
                if misses > EVICT_RETRIES {
                    return;
                }
                continue;
            };
            // The budget path hits the eviction edge head-on: an idle
            // session can hold appended-but-uncommitted WAL records
            // (appends precede the batch-end commit), and `spill`
            // flushes them before the snapshot — never the reverse.
            let victim_wal = st.wal.clone();
            // sp-lint: allow(lock-hygiene, reason = "deliberate hold-across-spill: entry is idle and the lock blocks a racing submit while the file is half-written")
            match self.spill(&victim.name, &mut session, st.dirty, victim_wal.as_ref()) {
                Ok(()) => {
                    st.dirty = false;
                    // The dropped resident's work counters survive in
                    // the entry's carried tally (the restore starts a
                    // fresh session whose live counters are zero).
                    st.carried.merge(&session.stats());
                    self.account(&mut st, 0);
                    // The session is no longer resident: its pair leaves
                    // the eviction index (entry lock → index lock).
                    lock_unpoisoned(&self.evict_index).remove(&(st.last_used, victim.name.clone()));
                    self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // Disk trouble: keep the session resident and stop
                    // evicting for now rather than dropping state.
                    st.resident = Some(session);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{GameSpec, Geometry};
    use sp_core::{BackendMode, Move, PeerId};

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn req(session: &str, op: SessionOp) -> SessionRequest {
        SessionRequest {
            id: None,
            session: session.to_owned(),
            op,
        }
    }

    fn submit_and_wait(registry: &SessionRegistry, request: SessionRequest) -> Response {
        registry.submit(request, None).recv().expect("response")
    }

    fn create_with(name: &str, positions: Vec<f64>, mode: BackendMode) -> SessionRequest {
        req(
            name,
            SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(positions),
                links: vec![(0, 1), (1, 0), (1, 2), (2, 1)],
                mode,
            }),
        )
    }

    fn create(name: &str, positions: &[f64]) -> SessionRequest {
        create_with(name, positions.to_vec(), BackendMode::Dense)
    }

    fn add_0_2(name: &str) -> SessionRequest {
        let mv = Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(2),
        };
        req(name, SessionOp::Apply { mv })
    }

    fn error_code(r: Response) -> ErrorCode {
        r.outcome.expect_err("request must fail").code
    }

    #[test]
    fn per_session_order_and_lifecycle() {
        let dir = test_dir("lifecycle");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(4);

        let r = submit_and_wait(&registry, create("a", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, create("a", &[0.0, 1.0, 3.0]));
        assert_eq!(
            error_code(r),
            ErrorCode::SessionExists,
            "duplicate create must fail"
        );

        // Ordering: apply, then read — the read must see the apply.
        let r = submit_and_wait(&registry, add_0_2("a"));
        assert!(r.outcome.is_ok(), "{r:?}");
        let sc1 = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert!(sc1.outcome.is_ok(), "{sc1:?}");

        // Evict and transparently restore on next use.
        let r = submit_and_wait(&registry, req("a", SessionOp::Evict));
        assert!(r.outcome.is_ok(), "{r:?}");
        let sc2 = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert_eq!(sc2, sc1, "restored session must answer identically");
        let stats = registry.stats();
        assert_eq!(stats.sessions_evicted, 1);
        assert_eq!(stats.sessions_restored, 1);

        // Unknown sessions fail without being created.
        let r = submit_and_wait(&registry, req("ghost", SessionOp::SocialCost));
        assert_eq!(error_code(r), ErrorCode::UnknownSession);

        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_forces_lru_eviction() {
        let dir = test_dir("budget");
        let registry = SessionRegistry::new(RegistryConfig {
            // Room for roughly one small session at a time.
            memory_budget: 1 << 10,
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        for name in ["a", "b", "c"] {
            let r = submit_and_wait(&registry, create(name, &[0.0, 1.0, 3.0, 4.0]));
            assert!(r.outcome.is_ok(), "{r:?}");
            let r = submit_and_wait(&registry, req(name, SessionOp::SocialCost));
            assert!(r.outcome.is_ok(), "{r:?}");
        }
        let stats = registry.stats();
        assert!(
            stats.sessions_evicted >= 2,
            "tight budget must evict: {stats:?}"
        );
        // Every session still answers (restored on demand) with the
        // value a never-evicted session would give.
        let fresh = submit_and_wait(&registry, req("a", SessionOp::SocialCost));
        assert!(fresh.outcome.is_ok(), "{fresh:?}");
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparse_sessions_round_trip_and_account_linearly() {
        let dir = test_dir("sparse");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(2);
        let n = 400;
        let positions = (0..n).map(f64::from).collect();
        let r = submit_and_wait(
            &registry,
            create_with("big", positions, BackendMode::Sparse),
        );
        assert!(r.outcome.is_ok(), "{r:?}");
        assert!(matches!(
            r.outcome,
            Ok(ResultBody::Created {
                mode: BackendMode::Sparse,
                ..
            })
        ));
        // A dense 400-peer slot charges ≥ 2 × 400² × 8 B (metric +
        // overlay matrix); the sparse slot must stay well under one
        // such matrix.
        let dense_matrix = n as usize * n as usize * std::mem::size_of::<f64>();
        assert!(
            registry.stats().resident_bytes < dense_matrix / 2,
            "sparse slot accounted {} bytes",
            registry.stats().resident_bytes
        );
        let sc1 = submit_and_wait(&registry, req("big", SessionOp::SocialCost));
        assert!(sc1.outcome.is_ok(), "{sc1:?}");
        // Spill to the v2 file and restore transparently, bit-identically.
        let r = submit_and_wait(&registry, req("big", SessionOp::Evict));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, req("big", SessionOp::Load));
        assert!(r.outcome.is_ok(), "{r:?}");
        assert_eq!(
            r.outcome,
            Ok(ResultBody::Loaded {
                mode: BackendMode::Sparse
            })
        );
        let sc2 = submit_and_wait(&registry, req("big", SessionOp::SocialCost));
        assert_eq!(sc2, sc1, "restored sparse session must answer identically");
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_wal_quarantines_its_session() {
        let dir = test_dir("poison");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            durability: Durability::Wal {
                group_commit: 8,
                fsync: false,
            },
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let r = submit_and_wait(&registry, create("p", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");

        // Fault injection: poison the session's log exactly as a failed
        // append or group-commit fsync would.
        {
            let entry = registry.entry("p");
            let wal = lock_unpoisoned(&entry.state)
                .wal
                .clone()
                .expect("create opened the log");
            lock_unpoisoned(&wal).poison_for_test();
        }

        // Every op — reads, mutations, spills, audits — fails typed:
        // resident state may hold mutations the log does not witness,
        // so nothing may serve (or persist) it.
        for request in [
            req("p", SessionOp::SocialCost),
            add_0_2("p"),
            req("p", SessionOp::Evict),
            req("p", SessionOp::WalHead),
            req("p", SessionOp::WalVerify),
        ] {
            let op = request.op.code();
            let r = submit_and_wait(&registry, request);
            assert_eq!(
                error_code(r),
                ErrorCode::Io,
                "{op:?} must fail on a poisoned wal"
            );
        }

        // Other sessions are untouched by the quarantine.
        let r = submit_and_wait(&registry, create("q", &[0.0, 1.0, 3.0]));
        assert!(r.outcome.is_ok(), "{r:?}");
        let r = submit_and_wait(&registry, req("q", SessionOp::SocialCost));
        assert!(r.outcome.is_ok(), "{r:?}");

        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_depth_is_recorded() {
        let dir = test_dir("depth");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        // No workers yet: queue up a burst, then start the pool.
        let mut receivers = Vec::new();
        receivers.push(registry.submit(create("q", &[0.0, 1.0, 2.0]), None));
        for _ in 0..7 {
            receivers.push(registry.submit(req("q", SessionOp::SocialCost), None));
        }
        assert_eq!(registry.stats().queue_depth_hwm, 8);
        let workers = registry.spawn_workers(2);
        for rx in receivers {
            assert!(rx.recv().unwrap().outcome.is_ok());
        }
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn callback_responders_deliver_on_the_worker() {
        let dir = test_dir("callback");
        let registry = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            ..RegistryConfig::default()
        })
        .unwrap();
        let workers = registry.spawn_workers(1);
        let (tx, rx) = mpsc::channel::<Response>();
        let tx2 = tx.clone();
        registry.submit_with(create("cb", &[0.0, 1.0, 2.0]), None, move |r| {
            let _ = tx.send(r);
        });
        registry.submit_with(
            SessionRequest {
                id: Some(1),
                ..req("cb", SessionOp::SocialCost)
            },
            None,
            move |r| {
                let _ = tx2.send(r);
            },
        );
        let first = rx.recv().unwrap();
        let second = rx.recv().unwrap();
        assert!(first.outcome.is_ok(), "{first:?}");
        assert_eq!(second.id, Some(1));
        assert!(second.outcome.is_ok(), "{second:?}");

        registry.shutdown();
        // Post-shutdown submits answer immediately with a typed error.
        let (tx, rx) = mpsc::channel::<Response>();
        registry.submit_with(req("cb", SessionOp::SocialCost), None, move |r| {
            let _ = tx.send(r);
        });
        let r = rx.recv().unwrap();
        assert_eq!(r.outcome.unwrap_err().code, ErrorCode::Shutdown);
        // The channel wrapper answers the same way.
        let r = registry
            .submit(req("cb", SessionOp::SocialCost), None)
            .recv()
            .unwrap();
        assert_eq!(r.outcome.unwrap_err().code, ErrorCode::Shutdown);
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
